"""snakemod benchmark: one workload, one seed, checked outputs, one JSON line.

    python3 perfbench/run.py --workload corpus-sweep --seed 3 --seconds 20 --trace 0

Run from the repository root; the library is imported from ./src.  The
workload runs in a fresh worker process (perfbench/worker.py) as a closed
loop: one caller, one thread, CLI processes one at a time.  Set-up is timed
in that worker and in fresh processes it starts between passes, and
reported as the median.
Library op times, CLI times and set-up are reported at a reference machine
speed (see speed.py); their raw wall times are kept in the record.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}:
with --trace 0 the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer ones from a traced run.  The line before it records the
environment (Python, nproc, interpreter start, seed, sample counts, failure
reasons); the same record, with the spans of a traced run, is written under
.perfbench/.  The exit code is not 0, and no result is printed, when the
run could not be made or its result could not be read.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
INTERP_SAMPLES = 5
DEADLINE_S = 175  # the whole command ends within 180 s


def _env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _last_json(text: str) -> dict:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("worker printed nothing")
    return json.loads(lines[-1])


def interp_start_ms(root: Path) -> float:
    """Median wall time of a bare `python -c pass` with the CLI's environment."""
    samples = []
    for _ in range(INTERP_SAMPLES):
        t = time.perf_counter()
        # no timeout: a wait with one polls at up to 50 ms and quantizes the time
        subprocess.run([sys.executable, "-c", "pass"], env=_env(root), cwd=root, check=True)
        samples.append((time.perf_counter() - t) * 1000)
    return statistics.median(samples)


def measure(root: Path, workload: str, seed: int, seconds: float, trace: int, size: str = "full") -> dict:
    """Run the workload; return the result line's fields plus the environment."""
    t_start = time.perf_counter()
    env = _env(root)
    worker = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--size", size]
    interp = interp_start_ms(root)
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    cmd = worker + ["--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", str(out_dir / f"spans-{stem}.tsv.gz")]
    timeout = DEADLINE_S - (time.perf_counter() - t_start)
    proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    res = _last_json(proc.stdout)
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in res["metrics"].items()}
    environment = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "interp_start_ms": interp,
        "setup_samples_s": res["setup_samples_s"],
        "raw_metrics": res.get("raw_metrics"),
        "samples": res["samples"],
        "failures": res["failures"],
        "limits": res["limits"],
        "problems": res["problems"],
        "reference_checked": res["reference_checked"],
    }
    result = {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": dict(sorted(metrics.items())),
    }
    record = {"environment": environment, **result, "raw": res.get("raw")}
    (out_dir / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    return {"environment": environment, "result": result}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run one snakemod benchmark workload.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "snakemod" / "__init__.py").is_file():
        print("perfbench: no src/snakemod here; run from the repository root", file=sys.stderr)
        return 2
    try:
        out = measure(root, args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, ValueError, KeyError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"environment": out["environment"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
