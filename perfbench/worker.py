"""One workload in one process: set-up, the timed closed loop, checks, metrics.

Started by run.py, one process per workload run.  ``--setup-only`` stops after
the set-up (import, input generation, one warm-up op) and prints its time.
``--write-reference`` runs one pass and stores the output digests that later
runs on the same seed are compared against.
"""

import time

T0 = time.perf_counter()  # set-up is timed from before snakemod is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from speed import REF_INTERP_S, REF_LOOP_S, SAMPLE_EVERY_S, Speed  # noqa: E402

REFERENCE = Path(__file__).resolve().parent / "reference.json"
MEMORY_CAP_MB = 1536  # address-space cap: a blow-up fails one op, not the machine
OP_DEADLINE_S = 60  # an op still running after this is stopped and counted failed
RUN_GUARD_S = 140  # no op starts after this, so the process ends within 180 s
CLI_TIMEOUT_S = 60
MAX_REPEATS = 50  # a cheap op repeats within a pass until it has run repeat_s
SETUPS_PER_ROUND = 2  # set-up-only processes in each CLI round


class OpDeadline(Exception):
    pass


def _alarm(signum, frame):
    raise OpDeadline(f"op ran past {OP_DEADLINE_S} s")


def cli_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def quantile(values, q: int) -> float:
    """The q-th percentile, interpolated between samples, never beyond them."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Run:
    """Outcome bookkeeping for one workload run."""

    def __init__(self, wl, reference: dict | None):
        self.wl = wl
        self.reference = reference or {}
        self.speed = Speed()
        self.first: dict[str, tuple] = {}  # op id -> (first output's fingerprint, its problems)
        self.attempted = 0
        self.failed = 0
        self.inputs: set[str] = set()
        self.failed_inputs: set[str] = set()
        self.wrong = 0
        self.reasons: dict[str, int] = {}
        self.problems: list[str] = []
        self.limits: dict[str, str] = {}  # probe id -> what it raised
        # off in a traced run: a speed sample within a layer's call would
        # count as that layer's busy time
        self.laps_in_ops = True

    def attempt(self, op_id: str) -> None:
        self.attempted += 1
        self.inputs.add(op_id)

    def fail(self, op_id: str, reason: str, wrong: bool = False) -> None:
        self.failed += 1
        self.failed_inputs.add(op_id)
        self.wrong += wrong
        self.reasons[reason] = self.reasons.get(reason, 0) + 1
        if wrong and len(self.problems) < 20:
            self.problems.append(f"{op_id}: {reason}")

    def limit(self, op_id: str, reason: str) -> None:
        """A probe raised: a known limit of the program, not a failed op."""
        self.inputs.add(op_id)
        self.failed_inputs.add(op_id)
        self.limits[op_id] = reason

    def fail_ratio(self) -> float:
        """Failed attempts over attempted ones, probes that raised included."""
        return (self.failed + len(self.limits)) / (self.attempted + len(self.limits))

    def ok_ratio(self) -> float:
        """Share of the workload's inputs (ops, probes and CLI calls) that never failed.

        Counted per input, not per attempt, so it does not move with the
        number of passes a run makes.
        """
        return 1 - len(self.failed_inputs) / len(self.inputs)

    def judge(self, op_id: str, out, check=None) -> bool:
        """Check one output outside the timed region; False marks a failed op.

        The first output of each op goes through the oracles and the
        reference digest; later passes must reproduce its fingerprint.  Only
        the fingerprint is kept, so a held output never adds to peak memory.
        """
        if op_id in self.first:
            first, problems = self.first[op_id]
            if first != workloads.fingerprint(out):
                problems = ["output differs from the first pass"]
        else:
            problems = check(out) if check else []
            ref = self.reference.get(op_id)
            if ref is not None and ref != workloads.digest(out):
                problems.append("output digest differs from the committed reference")
            self.first[op_id] = (workloads.fingerprint(out), problems)
        for p in problems[:1]:
            self.fail(op_id, p, wrong=True)
        return not problems


def run_op(run: Run, op, started: float) -> tuple[list[tuple[float, float]], bool]:
    """Time one op (deadline armed), then check it untimed.

    Returns the op's timed segments, (start, seconds) each, and whether it
    succeeded.  At each `lap()` the timer pauses while the machine's speed
    may be sampled.  The op calls `lap()` between its library calls and,
    when `run.laps_in_ops` is set, a profiling timer calls it every
    SAMPLE_EVERY_S of CPU time within them too: the machine's speed changes
    within a multi-second op, and samples only before and after it left
    such ops spread by a fifth over ten runs.
    """
    run.attempt(op.id)
    segments: list[tuple[float, float]] = []
    if time.perf_counter() - started > RUN_GUARD_S:
        run.fail(op.id, "not started: run guard")
        return segments, False
    seg = [0.0]
    in_lap = [False]

    def lap(*_signal) -> None:
        if in_lap[0]:  # the timer fired during a lap
            return
        in_lap[0] = True
        segments.append((seg[0], time.perf_counter() - seg[0]))
        run.speed.maybe_sample()
        seg[0] = time.perf_counter()
        in_lap[0] = False

    if run.laps_in_ops:
        signal.signal(signal.SIGPROF, lap)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    signal.setitimer(signal.ITIMER_REAL, OP_DEADLINE_S)
    seg[0] = time.perf_counter()
    try:
        try:
            out = op.run(lap)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            segments.append((seg[0], time.perf_counter() - seg[0]))
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpDeadline:
        run.fail(op.id, "deadline")
        return segments, False
    except Exception as exc:  # RecursionError and MemoryError included
        run.fail(op.id, type(exc).__name__)
        return segments, False
    return segments, run.judge(op.id, out, op.check)


def run_probes(run: Run) -> None:
    """Each probe once, untimed (deadline armed).  A probe that raises is a
    known limit; one that returns is attempted and checked like an op."""
    for op in run.wl.probes:
        signal.setitimer(signal.ITIMER_REAL, OP_DEADLINE_S)
        try:
            try:
                out = op.run()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpDeadline:
            run.limit(op.id, "deadline")
            continue
        except Exception as exc:  # RecursionError and MemoryError included
            run.limit(op.id, type(exc).__name__)
            continue
        run.attempt(op.id)
        run.judge(op.id, out, op.check)


def passes(run: Run, deadline: float, started: float, tracer=None, before_pass=None, reserve=None) -> dict:
    """Whole passes over the ops until the next one would end after `deadline`.

    Within a pass an op repeats until it has run for the workload's
    `repeat_s`, so a ladder's cheap rungs get enough samples for a median.
    At least one pass runs.  `before_pass` runs ahead of each pass, and
    `reserve()` is time still owed to work after the passes.  Returns
    per-op samples (each a list of timed segments) and the ok count.
    """
    times: dict[str, list[list[tuple[float, float]]]] = {op.id: [] for op in run.wl.ops}
    ok = 0
    count = 0
    last = 0.0
    while count == 0 or time.perf_counter() + last + (reserve() if reserve else 0.0) <= deadline:
        if before_pass is not None:
            before_pass()
        last = 0.0  # the pass's op time: the first pass's checks do not recur
        for op in run.wl.ops:
            spent = 0.0
            # the top rung always repeats, so that top_rung_s is a median of
            # several samples even on the corpus, whose ops run once a pass
            repeat_s = workloads.REPEAT_S if op.id == run.wl.top_op else run.wl.repeat_s
            for _ in range(MAX_REPEATS):
                run.speed.maybe_sample()
                if tracer is None:
                    segments, good = run_op(run, op, started)
                else:
                    with tracer.span("op", op=op.id):
                        segments, good = run_op(run, op, started)
                times[op.id].append(segments)
                spent += sum(d for _, d in segments)
                ok += good
                if spent >= repeat_s:
                    break
            last += spent
        count += 1
        if time.perf_counter() - started > RUN_GUARD_S:
            break
    run.speed.sample()  # the last ops need a sample after them
    return {"times": times, "ok": ok, "passes": count}


def ops_per_s(result: dict, scale) -> float:
    """Ops per second of a pass in which each op runs once at its median time,
    scaled by the share of runs that succeeded.

    Medians per op keep a burst of machine noise in one pass from moving
    the figure.
    """
    times = [scale(v) for v in result["times"].values()]
    per_pass = sum(statistics.median(v) for v in times)
    return result["ok"] / sum(map(len, times)) * len(times) / per_pass


def raw(samples) -> list[float]:
    """Wall durations of samples, each a list of (start, seconds) segments."""
    return [sum(d for _, d in segments) for segments in samples]


def run_process(cmd: list[str], stdin: str, env: dict) -> tuple[int, str, str, float, float]:
    """Run a child to its end: (exit code, stdout, stderr, start, seconds).

    The wait blocks rather than polls: a wait with a timeout polls at up to
    50 ms, which quantized the measured times.  A timer kills a child that
    outlives CLI_TIMEOUT_S; its exit code is then negative.
    """
    t = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=env, cwd=ROOT,
    )
    timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out, err = proc.communicate(stdin)
    finally:
        timer.cancel()
    return proc.returncode, out, err, t, time.perf_counter() - t


def in_process_cli(call):
    """main(argv) in this process with stdin fed and stdout/stderr captured."""
    from snakemod import cli

    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(call.stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(call.argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


CRASHES = ("exit outside the contract", "traceback on stderr")


def _cli_problems(call, code, out, err, expected) -> list[str]:
    """Contract breaches first (a crash), then mismatches (a wrong output)."""
    if code not in (0, 2, 3, 4):
        return [CRASHES[0]]
    if "Traceback" in err:
        return [CRASHES[1]]
    if code != call.expect_exit:
        return [f"exit {code}, expected {call.expect_exit}"]
    if call.expect_error is not None:
        try:
            kind = json.loads(err).get("error")
        except ValueError:
            kind = None
        if kind != call.expect_error:
            return [f"error kind {kind!r}, expected {call.expect_error!r}"]
    if expected is not None and (code, out) != expected[:2]:
        return ["output differs from in-process main"]
    return []


class CliLeg:
    """The workload's CLI calls as real processes, one at a time, in rounds.

    Rounds run between library passes, so the calls sample the machine
    across the whole run rather than in one stretch.  Just before each call
    a bare `python -c pass` runs, and the call's time is reported at the
    reference start time: times REF_INTERP_S over that bare start.  Over
    ten corpus runs, raw cli_p50_ms spread by a third as the machine's
    speed drifted, and scaled under 0.03.
    """

    def __init__(self, run: Run, started: float, setup_cmd: list[str]):
        self.run = run
        self.started = started
        self.rounds_left = run.wl.cli_rounds
        self.round_s = 0.0
        self.samples: dict[int, list[list[tuple[float, float]]]] = {i: [] for i in range(len(run.wl.cli_calls))}
        self.bare: dict[int, list[float]] = {i: [] for i in self.samples}  # bare start before each sample
        self.expected = [in_process_cli(call) for call in run.wl.cli_calls]
        self.cmd = [sys.executable, "-m", "snakemod.cli"]
        self.bare_cmd = [sys.executable, "-c", "pass"]
        self.setup_cmd = setup_cmd
        self.setups: list[float] = []  # set-up seconds of fresh processes
        self.env = cli_env()

    def owed(self) -> float:
        return self.rounds_left * self.round_s

    def round(self) -> None:
        if not self.rounds_left:
            return
        self.rounds_left -= 1
        t_round = time.perf_counter()
        run = self.run
        for _ in range(SETUPS_PER_ROUND):
            code, out, err, _, _ = run_process(self.setup_cmd, "", self.env)
            if code != 0:
                raise RuntimeError(f"a set-up-only process exited with {code}:\n{err[-2000:]}")
            self.setups.append(json.loads(out.splitlines()[-1])["setup_s"])
        for idx, call in enumerate(run.wl.cli_calls):
            op_id = f"cli:{idx}"
            run.attempt(op_id)
            if time.perf_counter() - self.started > RUN_GUARD_S:
                run.fail(op_id, "not started: run guard")
                continue
            bare_code, _, _, _, bare = run_process(self.bare_cmd, "", self.env)
            if bare_code != 0:
                raise RuntimeError(f"a bare interpreter exited with {bare_code}")
            code, out, err, t, took = run_process(self.cmd + call.argv, call.stdin, self.env)
            if code < 0:
                run.fail(op_id, "cli deadline")
                continue
            self.samples[idx].append([(t, took)])
            self.bare[idx].append(bare)
            expected = self.expected[idx]
            problems = _cli_problems(call, code, out, err, expected)
            if problems:
                run.fail(op_id, problems[0], wrong=problems[0] not in CRASHES)
            else:
                run.judge(op_id, list(expected))
        self.round_s = time.perf_counter() - t_round

    def call_ms(self, at_reference: bool) -> list[float]:
        """Each call's median time over rounds, in ms, raw or at the
        reference interpreter start."""
        medians = []
        for idx, samples in self.samples.items():
            if not samples:
                continue
            took = raw(samples)
            if at_reference:
                took = [d * REF_INTERP_S / b for d, b in zip(took, self.bare[idx])]
            medians.append(statistics.median(took) * 1000)
        return medians


def load_reference(size: str, seed: int, name: str) -> dict | None:
    if not REFERENCE.is_file():
        return None
    data = json.loads(REFERENCE.read_text())
    return data.get(size, {}).get(str(seed), {}).get(name)


def setup(name: str, seed: int, size: str):
    """Inputs and one warm-up op; returns the workload and set-up seconds."""
    wl = workloads.build(name, seed, size)
    wl.ops[0].run()
    return wl, time.perf_counter() - T0


def e2e_metrics(wl, run: Run, lib: dict, scale, call_ms: list[float], peak_rss_mb: float) -> dict:
    """Percentiles are taken over the inputs, each input at its median over
    passes (or CLI rounds), so one noisy sample cannot move them.

    `scale` maps op samples to durations; `call_ms` are the CLI calls'
    times.  Process start-up does not track the speed loop, and scaling
    CLI times by it widened their spread, so they are scaled by a bare
    interpreter's start instead (see CliLeg).
    """
    op_ms = [statistics.median(scale(v)) * 1000 for v in lib["times"].values()]
    return {
        "ops_per_s": (ops_per_s(lib, scale), "1/s"),
        "op_p50_ms": (statistics.median(op_ms), "ms"),
        "op_p90_ms": (quantile(op_ms, 90), "ms"),
        "top_rung_s": (statistics.median(scale(lib["times"][wl.top_op])), "s"),
        "ok_ratio": (run.ok_ratio(), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "cli_p50_ms": (statistics.median(call_ms), "ms"),
        "cli_p90_ms": (quantile(call_ms, 90), "ms"),
    }


def measure_untraced(wl, run: Run, seconds: float, started: float, setup_s: float, setup_cmd: list[str]) -> dict:
    """End-to-end metrics at the reference speed; the raw ones go to the record.

    Set-up is timed in this process and in fresh ones started in the CLI
    rounds, so that its samples, like the loop's, spread over the run.  Its
    median is scaled by the median of the run's loop times.
    """
    cli = CliLeg(run, started, setup_cmd)
    lib = passes(run, started + seconds, started, before_pass=cli.round, reserve=cli.owed)
    while cli.rounds_left:
        cli.round()
    run.speed.sample()
    # read before the probes, whose memory is not the workload's
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run_probes(run)
    setups = [setup_s] + cli.setups
    metrics = e2e_metrics(wl, run, lib, run.speed.scale, cli.call_ms(True), rss)
    raw_metrics = e2e_metrics(wl, run, lib, raw, cli.call_ms(False), rss)
    speed = REF_LOOP_S / statistics.median(run.speed.took)
    metrics["setup_s"] = (statistics.median(setups) * speed, "s")
    raw_metrics["setup_s"] = (statistics.median(setups), "s")
    return {
        "setup_samples_s": setups,
        "metrics": metrics,
        "raw_metrics": raw_metrics,
        "samples": {
            "ops": len(lib["times"]),
            "op_runs": sum(map(len, lib["times"].values())),
            "passes": lib["passes"],
            "cli_calls": len(cli.samples),
            "cli_rounds": wl.cli_rounds,
            "speed_samples": len(run.speed.mids),
        },
        "raw": {
            "op_s": lib["times"],
            "cli_s": cli.samples,
            "cli_bare_s": cli.bare,
            "speed": list(zip(run.speed.mids, run.speed.took)),
        },
    }


def cli_import_ms() -> float:
    code = (
        "import time; t = time.perf_counter(); import snakemod.cli; "
        "print((time.perf_counter() - t) * 1000)"
    )
    samples = []
    for _ in range(5):
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=cli_env(), cwd=ROOT, timeout=CLI_TIMEOUT_S, check=True,
        )
        samples.append(float(proc.stdout))
    return statistics.median(samples)


LAYER_MS = [
    "snakes.diagnose", "snakes.build", "snakes.prime_factors",
    "lweight.normalize", "ring.as_ring_element", "ring.dimension",
    "determinant.snake_matrix", "determinant.nonzero_permutations",
    "determinant.standard_expansion", "determinant.det_laplace",
    "determinant.det_leibniz", "category_o.kl_table",
    "paths.snake_dimension", "paths.ell_weights",
]
LAYER_COUNTS = [
    "snakes.factors", "ring.terms", "determinant.matrix_nonzeros",
    "determinant.sigma_count", "determinant.expansion_terms",
    "category_o.kl_rows", "paths.weights", "paths.layer_paths", "paths.compat_pairs",
]


def measure_traced(wl, run: Run, seconds: float, started: float, name: str, seed: int, size: str, spans_path):
    """Untraced passes, then the same passes with every layer wrapped."""
    import tracing
    from snakemod import cli

    import_ms = cli_import_ms()
    plain = passes(run, started + seconds / 2, started)
    tracer = tracing.Tracer()
    cli_target = [(cli, "main", "cli.main", None)]
    with tracing.instrument(tracer, cli_target):
        exits = {code: 0 for code in (0, 2, 3, 4)}
        for idx, call in enumerate(wl.cli_calls):
            with tracer.span("cli", op=f"cli:{idx}"):
                code, out, err = in_process_cli(call)
            exits[code] = exits.get(code, 0) + 1
            run.attempt(f"cli:{idx}")
            problems = _cli_problems(call, code, out, err, None)
            if problems:
                run.fail(f"cli:{idx}", problems[0], wrong=problems[0] not in CRASHES)
        with tracer.span("generate", op="generate"):
            workloads.build(name, seed, size)
        traced = passes(run, time.perf_counter() + seconds / 2, started, tracer)
    run_probes(run)
    if spans_path is not None:
        tracer.write(spans_path)
    n = traced["passes"]
    busy_by_op = tracer.self_ms()
    # a pass with each op once: a rung repeated within a pass counts once
    runs = {op: len(samples) for op, samples in traced["times"].items()}
    busy, counts = defaultdict(float), defaultdict(float)
    for per_op, total in ((busy_by_op, busy), (tracer.counts, counts)):
        for op, k in runs.items():
            for key, value in per_op[op].items():
                total[key] += value / k
    metrics = {f"{layer}.ms": (busy[layer], "ms") for layer in LAYER_MS}
    metrics["families.generate.ms"] = (busy_by_op["generate"]["families.generate"], "ms")
    metrics.update({c: (counts[c], "count") for c in LAYER_COUNTS})
    sigmas = counts["determinant.sigma_count"]
    metrics["determinant.terms_per_sigma"] = (
        counts["determinant.expansion_terms"] / sigmas if sigmas else 0.0, "ratio")
    tuples = counts["paths.tuples"]
    metrics["paths.weights_per_tuple"] = (counts["paths.weights"] / tuples if tuples else 0.0, "ratio")
    main_ms = tracer.durations_ms("cli.main")
    metrics["cli.import_ms"] = (import_ms, "ms")
    metrics["cli.main.ms"] = (statistics.mean(main_ms), "ms")
    for code in (0, 2, 3, 4):
        metrics[f"cli.exit.{code}"] = (exits.get(code, 0), "count")
    scale = run.speed.scale
    metrics["trace.overhead"] = (ops_per_s(traced, scale) / ops_per_s(plain, scale), "ratio")
    metrics["fail_ratio"] = (run.fail_ratio(), "ratio")
    return {"metrics": metrics, "samples": {"untraced_passes": plain["passes"], "traced_passes": n,
                                              "spans": len(tracer.spans)}}


def write_reference(seed: int, size: str) -> None:
    """One pass of every workload; store each op's and CLI call's output digest."""
    data = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, seed, size)
        digests = {}
        for op in wl.ops + wl.probes:
            try:
                digests[op.id] = workloads.digest(op.run())
            except Exception:
                digests[op.id] = None
        for idx, call in enumerate(wl.cli_calls):
            digests[f"cli:{idx}"] = workloads.digest(list(in_process_cli(call)))
        data.setdefault(size, {}).setdefault(str(seed), {})[name] = digests
        print(f"{name}: {len(digests)} digests", file=sys.stderr)
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def measure(name: str, seed: int, seconds: float, trace: bool, size: str = "full", spans_path=None) -> dict:
    """Set up, run and check one workload in this process; returns the result."""
    wl, setup_s = setup(name, seed, size)
    started = time.perf_counter()
    run = Run(wl, load_reference(size, seed, name))
    run.laps_in_ops = not trace
    signal.signal(signal.SIGALRM, _alarm)
    if trace:
        res = measure_traced(wl, run, seconds, started, name, seed, size, spans_path)
        res["setup_samples_s"] = [setup_s]
    else:
        setup_cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                     "--seed", str(seed), "--size", size, "--setup-only"]
        res = measure_untraced(wl, run, seconds, started, setup_s, setup_cmd)
    res.update(
        correct=run.wrong == 0,
        attempted=run.attempted,
        failed=run.failed,
        failures=run.reasons,
        limits=run.limits,
        problems=run.problems,
        reference_checked=bool(run.reference),
    )
    return res


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--write-reference", action="store_true")
    p.add_argument("--spans", default=None, help="gzip TSV file for the traced run's spans")
    args = p.parse_args(argv)
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    cap = MEMORY_CAP_MB * 1024 * 1024
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    if args.write_reference:
        write_reference(args.seed, args.size)
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if args.setup_only:
        _, setup_s = setup(args.workload, args.seed, args.size)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    res = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size, args.spans)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
