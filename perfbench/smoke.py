"""Fast check of the benchmark itself, on tiny inputs.

    python3 perfbench/smoke.py        (from the repository root, about a minute)

Asserts that every metric named in BENCHMARK.json is emitted, untraced and
traced, for every workload; that the outputs match the committed reference
digests for the default seed; that a deliberately corrupted output counts as
a failed op; that a probe which raises is recorded as a known limit; and
that the mu-lambda staircase is a valid family member at every r from 4 to
17, odd ones included.  Exits 1 and lists the failures otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

import snakemod as sm  # noqa: E402
# imported before any patch below: the CLI binds standard_expansion at import
import snakemod.cli  # noqa: E402,F401


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    errors = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            out = run.measure(ROOT, name, 0, 0.5, trace, size="tiny")
            res, env = out["result"], out["environment"]
            got = set(res["metrics"])
            if got != wanted[trace]:
                errors.append(f"{name} trace {trace}: missing {sorted(wanted[trace] - got)}, "
                              f"extra {sorted(got - wanted[trace])}")
            if not env["reference_checked"]:
                errors.append(f"{name}: no reference digests for the tiny default seed")
            if not res["correct"] or res["failed"]:
                errors.append(f"{name} trace {trace}: {env['failures']} {env['problems']}")

    # a corrupted expansion must be caught and counted
    original = sm.determinant.standard_expansion

    def corrupted(s):
        e = original(s)
        (w, c), *rest = e.terms
        return sm.StandardExpansion(e.snake, ((w, c + 1), *rest), e.sigma_count)

    sm.determinant.standard_expansion = corrupted
    try:
        res = worker.measure("corpus-sweep", 0, 0.5, False, size="tiny")
    finally:
        sm.determinant.standard_expansion = original
    if res["correct"] or res["failed"] == 0 or res["metrics"]["ok_ratio"][0] == 1.0:
        errors.append("a corrupted expansion was not counted as a failed op")

    # a probe that raises is a known limit: ok_ratio falls, no op fails
    def too_deep(s):
        if len(s.intervals) == workloads.SIZES["tiny"]["expansion_probe"]:
            raise RecursionError("maximum recursion depth exceeded")
        return original(s)

    sm.determinant.standard_expansion = too_deep
    try:
        res = worker.measure("nonprime-ladder", 0, 0.5, False, size="tiny")
    finally:
        sm.determinant.standard_expansion = original
    if (res["limits"] != {"nonprime:expansion-r20": "RecursionError"} or res["failed"]
            or not res["correct"] or res["metrics"]["ok_ratio"][0] == 1.0):
        errors.append(f"a raising probe was not recorded as a known limit: {res['limits']} {res['failures']}")

    for r in range(4, 18):
        try:
            sm.snake_from_mu_lambda(*workloads.mu_lambda_chains(r, 0))
        except ValueError as exc:
            errors.append(f"mu-lambda staircase at r = {r}: {exc}")

    for e in errors:
        print("FAIL", e)
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
