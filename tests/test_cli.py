import argparse
import copy
import inspect
import io
import json
import os
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corpus
import snakemod
from snakemod import determinant
from snakemod.cli import _emit, cmd_character, main
from snakemod.determinant import DET_MAX_STEPS, det_laplace
from snakemod.errors import _count
from snakemod.families import nested_prime_snake, snake_from_mu_lambda
from snakemod.paths import CHARACTER_MAX_STEPS

EXAMPLE_ONE = {
    "n": 5,
    "intervals": [[0, 4], [-1, 1], [1, 2], [2, 3]],
    "breaks": [1, 2, 4],
}
PAIR = {"n": 2, "intervals": [[0, 2], [-1, 1]], "breaks": [1, 2]}
TRIPLE = {"n": 3, "intervals": [[0, 2], [-1, 1], [-2, 0]], "breaks": [1, 3]}
UNSTABLE = {
    "n": 5,
    "intervals": [[-1, 0], [-3, -1], [-2, 1], [-4, 0], [-3, 2]],
    "breaks": [1, 2, 3, 4, 5],
}
TWO_FACTOR = {"n": 5, "intervals": [[0, 4], [-2, 1], [1, 4]], "breaks": [1, 2, 3]}
# lambda + rho = (5, 4, 4, 3) has a tie, and some assignments repeat a label
TIE = {"n": 7, "intervals": [[-2, 4], [-1, 5], [-2, 3], [0, 4]], "breaks": [1, 2, 3, 4]}
# the r = 8 mu-lambda staircase, mu = (0, 0, 1, 1, 2, 2, 3, 3), lambda = (8, 7, 7, 6, 6, 5, 5, 4):
# 24 KL rows, with tied entries in lambda + rho
STAIRCASE = {
    "n": 8,
    "intervals": [[0, 7], [1, 8], [0, 6], [2, 7], [1, 5], [3, 6], [2, 4], [3, 5]],
    "breaks": [1, 2, 3, 4, 5, 6, 7, 8],
}


def write(tmp_path, payload, name="in.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_example_one(self, tmp_path, capsys):
        code, out, _ = run_cli(["validate", write(tmp_path, EXAMPLE_ONE)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["valid"] is True
        assert report["runs"] == ["left", "right"]
        assert report["stable"] is True
        assert report["prime"] is True
        assert report["canonical"] is True
        assert "version" in report

    def test_invalid_snake_reports_diagnostics(self, tmp_path, capsys):
        bad = {"n": 2, "intervals": [[0, 2], [0, 2]], "breaks": [1, 2]}
        code, out, _ = run_cli(["validate", write(tmp_path, bad)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["valid"] is False
        assert report["diagnostics"][0]["code"] == "alt-1"

    def test_schema_error_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(["validate", write(tmp_path, {"n": 2})], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "invalid-input"

    def test_bad_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run_cli(["validate", str(path)], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "invalid-input"


    @pytest.mark.parametrize(
        "change",
        [{"n": True}, {"n": 0}, {"intervals": [[0, True], [-1, 1]]}, {"breaks": [True, 2]}],
        ids=["n-true", "n-zero", "endpoint-true", "break-true"],
    )
    def test_non_integer_or_nonpositive_exits_2(self, tmp_path, capsys, change):
        code, out, err = run_cli(["validate", write(tmp_path, {**PAIR, **change})], capsys)
        assert code == 2 and not out
        assert json.loads(err)["error"] == "invalid-input"

    @pytest.mark.parametrize(
        "change",
        [
            {"intervals": [[0, 1.5], [-1, 1]]},
            {"intervals": [[0, "2"], [-1, 1]]},
            {"intervals": [[0, 2, 4], [-1, 1]]},
            {"intervals": [0, [-1, 1]]},
            {"breaks": [1, 2.0]},
            {"breaks": ["1", 2]},
            {"breaks": [1, None]},
        ],
        ids=["endpoint-float", "endpoint-str", "triple", "not-a-pair", "break-float", "break-str", "break-null"],
    )
    def test_malformed_values_report_the_library_message(self, change):
        data = {**PAIR, **change}
        with pytest.raises(ValueError) as exc:
            snakemod.AlternatingSnake.build(data["intervals"], data["breaks"], data["n"])
        for command in ("validate", "decompose", "det-formula", "character", "kl"):
            code, out, err = run_in_process([command, "-"], json.dumps(data))
            assert (code, out) == (2, ""), command
            assert json.loads(err) == {"error": "invalid-input", "message": str(exc.value)}, command


class TestRankOverride:
    def test_upward_allowed(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["validate", write(tmp_path, PAIR), "--n", "4"], capsys
        )
        assert code == 0 and json.loads(out)["valid"] is True

    def test_downward_refused(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["validate", write(tmp_path, EXAMPLE_ONE), "--n", "4"], capsys
        )
        assert code == 2
        assert "raise" in json.loads(err)["message"]

    def test_raising_rank_changes_normalization(self, tmp_path, capsys):
        # at n = 2 the crossed weight collapses; at n = 4 it does not
        code, out, _ = run_cli(["det-formula", write(tmp_path, PAIR)], capsys)
        low = json.loads(out)
        code, out, _ = run_cli(
            ["det-formula", write(tmp_path, PAIR), "--n", "4"], capsys
        )
        high = json.loads(out)
        assert sorted(len(t["weight"]["gens"]) for t in low["terms"]) == [1, 2]
        assert all(len(t["weight"]["gens"]) == 2 for t in high["terms"])


class TestDetFormula:
    def test_two_term_expansion(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["det-formula", write(tmp_path, PAIR), "--oracle"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["sigma_count"] == 2
        assert report["oracle"] == "ok"
        assert [t["coeff"] for t in report["terms"]] == [1, -1]

    def test_unstable_exits_3(self, tmp_path, capsys):
        code, _, err = run_cli(["det-formula", write(tmp_path, UNSTABLE)], capsys)
        assert code == 3
        assert json.loads(err)["error"] == "refused"


    def test_long_disconnected_run(self, tmp_path, capsys):
        # 1000 prime factors: deeper than the default recursion limit
        long_run = {
            "n": 3,
            "intervals": [[-3 * t, -3 * t + 1] for t in range(1000)],
            "breaks": [1, 1000],
        }
        code, out, _ = run_cli(["det-formula", write(tmp_path, long_run)], capsys)
        assert code == 0
        report = json.loads(out)
        assert len(report["terms"]) == 1
        assert report["sigma_count"] == 1

    @pytest.mark.parametrize("r", [500, 2000])
    def test_long_disconnected_run_oracle(self, tmp_path, capsys, r):
        # the column sweep holds one state per column here; what stays quadratic is
        # the products of monomials with up to r generators
        long_run = {"n": 3, "intervals": [[-3 * t, -3 * t + 1] for t in range(r)], "breaks": [1, r]}
        start = time.perf_counter()
        code, out, _ = run_cli(["det-formula", write(tmp_path, long_run), "--oracle"], capsys)
        assert time.perf_counter() - start < 5
        assert code == 0
        report = json.loads(out)
        assert report["oracle"] == "ok"
        assert len(report["terms"]) == 1

    @pytest.mark.parametrize(
        "shape, r, answered",
        [
            ("staircase", 20, True),
            ("staircase", 21, False),
            ("connected_run", 21, True),
            ("connected_run", 22, False),
        ],
    )
    def test_oracle_at_the_sweeps_limit(self, tmp_path, capsys, monkeypatch, shape, r, answered):
        # The largest staircase and connected run at n = 1 the sweep answers, and the
        # next ones, which it refuses before det_laplace runs.  In-process, the expansion
        # took 0.10 and 0.07 s and det_laplace 0.97 and 0.44 s (Python 3.11, 2 CPUs).
        laplace = []
        monkeypatch.setattr(determinant, "det_laplace", lambda m: laplace.append(m) or det_laplace(m))
        path = write(tmp_path, getattr(corpus, shape)(r).to_json())
        start = time.perf_counter()
        code, out, err = run_cli(["det-formula", path, "--oracle"], capsys)
        assert time.perf_counter() - start < 10
        assert (code, len(laplace)) == ((0, 1) if answered else (3, 0))
        if answered:
            assert json.loads(out)["oracle"] == "ok"
        else:
            assert f"more than {DET_MAX_STEPS} steps" in json.loads(err)["message"]


DENSE_RUN = [[-t, -t + 30] for t in range(30)]  # a dense 30 x 30 block at n = 61


class TestExpansionGuard:
    @pytest.mark.parametrize("command", ["det-formula", "kl"])
    @pytest.mark.parametrize("r", [23, 1100])
    def test_connected_run_refused(self, tmp_path, capsys, command, r):
        # a tridiagonal matrix: Fibonacci-many assignments, none cancelling;
        # det-formula stops in the sweep, kl at its rank check
        path = write(tmp_path, corpus.connected_run(r).to_json())
        start = time.perf_counter()
        code, out, err = run_cli([command, path], capsys)
        assert time.perf_counter() - start < 1
        assert code == 3
        assert out == ""
        report = json.loads(err)
        assert report["error"] == "refused"
        if command == "det-formula":
            assert f"more than {DET_MAX_STEPS} steps" in report["message"]

    @pytest.mark.parametrize(
        "command, data, reason",
        [
            # unstable: the second run starts below the first run's last lower endpoint
            ("det-formula", {"n": 61, "intervals": DENSE_RUN + [[-28, 30]], "breaks": [1, 30, 31]}, "not stable"),
            # stable, with a far interval no pairing reaches
            ("kl", {"n": 61, "intervals": DENSE_RUN + [[-1000, -970]], "breaks": [1, 31]}, "rank too small"),
        ],
    )
    def test_out_of_scope_dense_block_refused_first(self, tmp_path, capsys, command, data, reason):
        start = time.perf_counter()
        code, _, err = run_cli([command, write(tmp_path, data)], capsys)
        assert time.perf_counter() - start < 1
        assert code == 3
        assert reason in json.loads(err)["message"]

    def test_dense_block_refused_within_budget(self, tmp_path, capsys):
        # stable and in scope, but 2^30 index sets: the sweep stops at its budget
        data = {"n": 61, "intervals": DENSE_RUN, "breaks": [1, 30]}
        code, _, err = run_cli(["det-formula", write(tmp_path, data)], capsys)
        assert code == 3
        assert f"more than {DET_MAX_STEPS} steps" in json.loads(err)["message"]

    def test_staircase_answered(self, tmp_path, capsys):
        # 2^16 assignments, 17 labels each, cancel to 2,840 terms within the budget
        s = corpus.staircase(17).to_json()
        code, out, _ = run_cli(["det-formula", write(tmp_path, s)], capsys)
        assert code == 0
        report = json.loads(out)
        assert (report["sigma_count"], len(report["terms"])) == (2**16, 2840)
        code, out, _ = run_cli(["kl", write(tmp_path, s)], capsys)
        assert code == 0
        assert len(json.loads(out)["rows"]) == 2840


class TestDecompose:
    def test_two_factors(self, tmp_path, capsys):
        code, out, _ = run_cli(["decompose", write(tmp_path, TWO_FACTOR)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["prime"] is False and report["stable"] is True
        assert [f["intervals"] for f in report["factors"]] == [
            [[0, 4], [-2, 1]],
            [[1, 4]],
        ]


class TestCharacter:
    def test_pair(self, tmp_path, capsys):
        code, out, _ = run_cli(["character", write(tmp_path, PAIR)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["dim"] == 6
        assert len(report["weights"]) == 6

    @pytest.mark.parametrize("move", [1, -1], ids=["up", "mirrored"])
    def test_corner_with_too_many_digits_writes_nothing(self, move):
        # the largest endpoint JSON reads has 4,300 digits; a corner of [j - 1, j] at n = 1 ends at j + 1
        j = 10**4300 - 1
        ivs = [[j - 1, j]] if move == 1 else [[-j, 1 - j]]
        code, out, err = run_in_process(["character", "-"], json.dumps({"n": 1, "intervals": ivs, "breaks": [1]}))
        if move == 1:
            assert (code, out) == (2, "")
            assert json.loads(err)["message"].startswith("Exceeds the limit (4300 digits)")
        else:
            assert (code, err) == (0, "")

    def test_connected_run_deeper_than_recursion_limit(self, tmp_path, capsys):
        # the weights of an r-interval run at n = 1 fill O(r^2) JSON, so the
        # run stays short and the recursion limit is lowered below its length
        r = 300
        run = {"n": 1, "intervals": [[-t, -t + 1] for t in range(r)], "breaks": [1, r]}
        path = write(tmp_path, run)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + r // 2)
        try:
            code, out, _ = run_cli(["character", path], capsys)
        finally:
            sys.setrecursionlimit(limit)
        assert code == 0
        assert json.loads(out)["dim"] == r + 1

    def test_multi_run_exits_3(self, tmp_path, capsys):
        code, _, err = run_cli(["character", write(tmp_path, EXAMPLE_ONE)], capsys)
        assert code == 3
        assert json.loads(err)["error"] == "refused"

    @staticmethod
    def refused_count(run, err, steps):
        """The tuples the walk counted before it refused ``run``, checked against the message.

        The message gives the steps per tuple and a count D of tuples, with
        D times the steps past the limit.  D is a lower bound on the dimension,
        checked against the whole run's on short runs and against one
        position's (never more than the run's) on long ones.
        """
        report = json.loads(err)
        assert report["error"] == "refused"
        found = re.fullmatch(
            r"the path model would enumerate tuples of (\d+) layers and down steps each, "
            rf"at least (\d+) of them, (.+) steps; the limit is {CHARACTER_MAX_STEPS}",
            report["message"],
        )
        assert found, report["message"]
        s = snakemod.AlternatingSnake.from_json(run)
        d = int(found[2])
        assert int(found[1]) == steps == s.r + sum(iv.length for iv in s.intervals)
        assert found[3] == _count(d * steps)
        assert d * steps > CHARACTER_MAX_STEPS
        assert d <= snakemod.snake_dimension(s if s.r <= 8 else s.segment(0, 1))
        return d

    def test_too_many_tuples_refused(self, tmp_path, capsys):
        # 1,646,568 tuples of 25 steps; the first three layers have 70, 1,764 and
        # 24,696 paths below the layers above, and the walk refuses once its tally
        # of the third layer's lists passes 16,000, at 16,021
        run = {"n": 7, "intervals": [[0, 4], [-1, 3], [-2, 2], [-3, 1], [-4, 0]], "breaks": [1, 5]}
        code, out, err = run_cli(["character", write(tmp_path, run)], capsys)
        assert code == 3
        assert out == ""
        assert self.refused_count(run, err, 25) == 16_021

    def test_connected_run_refused_with_exact_count(self, tmp_path, capsys):
        # the first layer alone has C(403, 2) = 81,003 paths, and tuples take 1,200
        # steps, so the run is refused once 334 of them are counted (its own
        # dimension took about 1.3 s as a process, Python 3.11, 2 CPUs)
        r = 400
        run = {"n": r + 2, "intervals": [[-t, -t + 2] for t in range(r)], "breaks": [1, r]}
        start = time.perf_counter()
        code, out, err = run_cli(["character", write(tmp_path, run)], capsys)
        assert time.perf_counter() - start < 10
        assert code == 3
        assert out == ""
        assert self.refused_count(run, err, 1200) == 334

    @pytest.mark.parametrize("r", [1000, 5000])
    @pytest.mark.parametrize("mirrored", [False, True], ids=["descending", "ascending"])
    def test_connected_run_refused_at_scale(self, tmp_path, capsys, r, mirrored):
        # its exact dimension took 6.2 s at r = 640; the first layer list refuses
        # it in a few milliseconds in-process at r = 5000 (Python 3.11, 2 CPUs)
        ivs = [[-t, -t + 2] for t in range(r)]
        if mirrored:
            ivs = [[-j, -i] for i, j in ivs]
        run = {"n": r + 2, "intervals": ivs, "breaks": [1, r]}
        path = write(tmp_path, run)
        start = time.perf_counter()
        code, out, err = run_cli(["character", path], capsys)
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "")
        assert self.refused_count(run, err, 3 * r) == CHARACTER_MAX_STEPS // (3 * r) + 1

    @pytest.mark.parametrize(
        "run",
        [
            {"n": 4000, "intervals": [[0, 1]], "breaks": [1]},
            {"n": 300, "intervals": [[0, 1], [-1, 0]], "breaks": [1, 2]},
        ],
        ids=["one-interval", "pair"],
    )
    def test_long_paths_answered(self, tmp_path, capsys, run):
        # long paths but few tuples (4,001 and 45,451) of few down steps
        code, out, _ = run_cli(["character", write(tmp_path, run)], capsys)
        assert code == 0
        report = json.loads(out)
        s = snakemod.AlternatingSnake.from_json(run)
        assert report["dim"] == snakemod.snake_dimension(s)
        assert len(report["weights"]) == report["dim"]

    @pytest.mark.parametrize(
        "run, steps",
        [
            ({"n": 10**7, "intervals": [[0, 10**7 + 1]], "breaks": [1]}, 10**7 + 2),
            ({"n": 100_000, "intervals": [[0, 100_000]], "breaks": [1]}, 100_001),
            # 197,676 tuples of 48 steps; the first two layers have only 6,936
            ({"n": 16, "intervals": [[0, 15], [-1, 14], [-2, 13]], "breaks": [1, 3]}, 48),
            # about 10^5000 tuples: more digits than Python converts an int to str
            ({"n": 10**2500, "intervals": [[0, 2]], "breaks": [1]}, 3),
            # ascending, 40,652,136 tuples; its first four positions have 3,240 and its last four 23,940
            ({"n": 5, "intervals": [[-4, -1], [-1, 0], [0, 1], [1, 3], [2, 5], [4, 7], [5, 8], [7, 9]], "breaks": [1, 8]}, 26),
        ],
        ids=["one-path", "one-interval", "triple", "past-digit-limit", "ascending"],
    )
    def test_long_tuples_refused(self, tmp_path, capsys, run, steps):
        # the work is the tuples times the down steps of each, not the tuples alone
        start = time.perf_counter()
        code, out, err = run_cli(["character", write(tmp_path, run)], capsys)
        assert time.perf_counter() - start < 2
        assert code == 3
        assert out == ""
        self.refused_count(run, err, steps)

    def test_steps_past_digit_limit_refused(self):
        # two intervals of length n = 10^4300 - 1, the largest rank JSON reads: the steps
        # per tuple, 2n + 2, have more digits than Python converts an int to str
        n = 10**4300 - 1
        run = {"n": n, "intervals": [[0, n], [-1, n - 1]], "breaks": [1, 2]}
        code, out, err = run_in_process(["character", "-"], json.dumps(run))
        assert (code, out) == (3, "")
        assert json.loads(err)["message"].startswith(
            "the path model would enumerate tuples of at least 10^4300 layers and down steps each, at least 1 of them"
        )

    def test_answers_without_the_determinant(self, tmp_path, capsys, monkeypatch):
        # the walk counts its own tuples, so no dimension is computed beside it
        calls = []
        for module in (determinant, snakemod.paths):
            monkeypatch.setattr(module, "det_dimension", lambda *args: calls.append(args))
        for run, dim in ((PAIR, 6), (TRIPLE, 50)):
            code, out, _ = run_cli(["character", write(tmp_path, run)], capsys)
            assert (code, json.loads(out)["dim"]) == (0, dim)
        assert calls == []


class TestKL:
    def test_pair_table(self, tmp_path, capsys):
        code, out, _ = run_cli(["kl", write(tmp_path, PAIR)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["mu_plus_rho"] == [0, -1]
        assert report["lambda_plus_rho"] == [2, 1]
        assert report["rows"] == [
            {"nu_plus_rho": [-1, 0], "c": -1},
            {"nu_plus_rho": [0, -1], "c": 1},
        ]

    def test_small_rank_exits_3(self, tmp_path, capsys):
        code, _, err = run_cli(["kl", write(tmp_path, EXAMPLE_ONE)], capsys)
        assert code == 3
        assert json.loads(err)["error"] == "refused"


class TestGen:
    def test_mu_lambda(self, tmp_path, capsys):
        params = {"family": "mu-lambda", "mu": [0, 1], "lambda": [3, 2], "n": 4}
        code, out, _ = run_cli(["gen", write(tmp_path, params)], capsys)
        assert code == 0
        assert json.loads(out)["snake"]["intervals"] == [[0, 2], [1, 3]]

    def test_nested(self, tmp_path, capsys):
        params = {
            "family": "nested",
            "breaks": [1, 3, 4],
            "lows": [1, 0, -1, 2],
            "highs": [6, 5, 3, 4],
        }
        code, out, _ = run_cli(["gen", write(tmp_path, params)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["n_min"] == 6
        assert report["snake"]["breaks"] == [1, 3, 4]

    def test_family_violation_exits_2(self, tmp_path, capsys):
        params = {"family": "mu-lambda", "mu": [0, -1], "lambda": [3, 2], "n": 4}
        code, _, err = run_cli(["gen", write(tmp_path, params)], capsys)
        assert code == 2

    def test_constructed_duplicate_exits_2(self, tmp_path, capsys):
        params = {"family": "mu-lambda", "mu": [0, 0, 1], "lambda": [3, 2, 2], "n": 4}
        code, _, err = run_cli(["gen", write(tmp_path, params)], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "invalid-snake"

    def test_missing_nested_key_exits_2(self, tmp_path, capsys):
        params = {"family": "nested", "breaks": [1, 3, 4], "lows": [1, 0, -1, 2]}
        code, out, err = run_cli(["gen", write(tmp_path, params)], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "invalid-input", "message": "nested family needs key 'highs'"}

    def test_unknown_family_exits_2(self, tmp_path, capsys):
        code, _, _ = run_cli(["gen", write(tmp_path, {"family": "spiral"})], capsys)
        assert code == 2

    def test_non_integer_entries_exit_2(self, tmp_path, capsys):
        params = {"family": "mu-lambda", "mu": [0, "1"], "lambda": [3, 2], "n": 4}
        code, _, err = run_cli(["gen", write(tmp_path, params)], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "invalid-input"

    @pytest.mark.parametrize(
        "params",
        [
            {"family": "mu-lambda", "mu": [0, "1"], "lambda": [3, 2], "n": 4},
            {"family": "mu-lambda", "mu": [0], "lambda": [1.5], "n": 1},
            {"family": "mu-lambda", "mu": [0], "lambda": [1], "n": "1"},
            {"family": "nested", "breaks": [1], "lows": [0.0], "highs": [1]},
            {"family": "nested", "breaks": [True], "lows": [0], "highs": [1]},
            {"family": "nested", "breaks": [1], "lows": [0], "highs": [[1]]},
        ],
        ids=["mu-str", "lambda-float", "n-str", "lows-float", "breaks-true", "highs-list"],
    )
    def test_malformed_values_report_the_library_message(self, params):
        with pytest.raises(ValueError) as exc:
            if params["family"] == "mu-lambda":
                snake_from_mu_lambda(params["mu"], params["lambda"], params["n"])
            else:
                nested_prime_snake(params["breaks"], params["lows"], params["highs"])
        code, out, err = run_in_process(["gen", "-"], json.dumps(params))
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "invalid-input", "message": str(exc.value)}

    def test_unwritable_minimal_rank_refused(self):
        # n_min = 10^4300 has one digit more than Python writes by default
        params = {"family": "nested", "breaks": [1], "lows": [-5 * 10**4299], "highs": [5 * 10**4299]}
        code, out, err = run_in_process(["gen", "-"], json.dumps(params))
        assert (code, out) == (3, "")
        assert json.loads(err) == {
            "error": "refused",
            "message": "the minimal rank n_min is at least 10^4299, too many digits to write",
        }

    @pytest.mark.parametrize(
        "x, text",
        [
            (-5, "-5"),
            (10**4299, "1" + "0" * 4299),
            (10**5000, "at least 10^4999"),
            (-(10**5000), "at most -10^4999"),
            (-(10**5000) + 1, "at most -10^4999"),
            (2 * 10**5000, "at least 10^5000"),
        ],
        ids=["small", "largest-written", "positive", "negative", "negative-below", "positive-above"],
    )
    def test_count_keeps_the_sign(self, x, text):
        assert _count(x) == text

    def test_long_length_violation_exits_2(self):
        params = {"family": "mu-lambda", "mu": [-5 * 10**4299], "lambda": [5 * 10**4299], "n": 3}
        code, out, err = run_in_process(["gen", "-"], json.dumps(params))
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "invalid-input", "message": "need n + 1 > lam_1 - mu_1 = at least 10^4299"}

    def test_boolean_rank_exits_2(self, tmp_path, capsys):
        # mu = [0], lambda = [1] is accepted at n = 1
        params = {"family": "mu-lambda", "mu": [0], "lambda": [1], "n": True}
        code, _, err = run_cli(["gen", write(tmp_path, params)], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "invalid-input"


class TestInternalSentinel:
    def test_oracle_mismatch_exits_4(self, tmp_path, capsys, monkeypatch):
        from snakemod import RingElement
        import snakemod.determinant

        # the CLI reads det_laplace from its home module when the subcommand runs
        monkeypatch.setattr(
            snakemod.determinant, "det_laplace", lambda m: RingElement.zero(m.snake.n)
        )
        code, _, err = run_cli(
            ["det-formula", write(tmp_path, PAIR), "--oracle"], capsys
        )
        assert code == 4
        assert json.loads(err)["error"] == "internal-check"


class TestDeterminism:
    def test_byte_identical_runs(self, tmp_path, capsys):
        path = write(tmp_path, EXAMPLE_ONE)
        outputs = []
        for _ in range(2):
            code, out, _ = run_cli(["det-formula", path, "--oracle"], capsys)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_output_file_and_stdin(self, tmp_path):
        out_path = tmp_path / "report.json"
        # the child imports the same package as this test, installed or not
        paths = [str(Path(snakemod.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        proc = subprocess.run(
            [sys.executable, "-m", "snakemod.cli", "validate", "-", "-o", str(out_path)],
            input=json.dumps(PAIR),
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        report = json.loads(out_path.read_text(encoding="utf-8"))
        assert report["valid"] is True
        text = out_path.read_text(encoding="utf-8")
        assert not any(line != line.rstrip() for line in text.splitlines())


# --------------------------------------------------------------------------
# the exit-code contract on drawn input

# valid snakes to start from, most of them stable
SNAKES = [EXAMPLE_ONE, PAIR, UNSTABLE, TWO_FACTOR] + [
    s.to_json() for s in corpus.stable_corpus(223, 24, n_cap=4, r_cap=6)
]
JUNK = st.one_of(
    st.floats(),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    st.lists(st.integers(-2, 2), max_size=2),
)
RANK = st.integers(1, 4) | st.integers(1, 10**6)


def one_in(draw, k: int) -> bool:
    return draw(st.integers(1, k)) == 1


@st.composite
def snake_data(draw):
    """Snake-shaped JSON, r <= 8: mostly a valid snake, else drawn intervals.

    One in four draws re-ranks it and one in six spoils it, so most calls
    reach a computation and every rejection path is still drawn.
    """
    if not one_in(draw, 4):
        data = copy.deepcopy(draw(st.sampled_from(SNAKES)))
        shift = draw(st.integers(-50, 50))  # a translate is as valid, and a new input
        data["intervals"] = [[i + shift, j + shift] for i, j in data["intervals"]]
    else:
        r = draw(st.integers(1, 8))
        lows = draw(st.lists(st.integers(-6, 6), min_size=r, max_size=r))
        inner = draw(st.lists(st.integers(2, r), max_size=3)) if r > 1 else []
        data = {
            "n": draw(st.integers(1, 4)),
            "intervals": [[i, i + draw(st.integers(0, 4))] for i in lows],
            "breaks": sorted({1, r, *inner}),
        }
    if one_in(draw, 4):
        data["n"] = draw(RANK)
    spoil = set()
    if one_in(draw, 6):
        fields = st.sampled_from(["n", "endpoint", "break", "intervals"])
        spoil = draw(st.sets(fields, min_size=1, max_size=2))
    if "n" in spoil:
        data["n"] = draw(JUNK)
    if "endpoint" in spoil:
        pair = draw(st.sampled_from(data["intervals"]))
        pair[draw(st.integers(0, 1))] = draw(JUNK)
    if "break" in spoil:
        data["breaks"][draw(st.integers(0, len(data["breaks"]) - 1))] = draw(JUNK)
    if "intervals" in spoil:
        data["intervals"] = draw(JUNK)
    return data


GEN_PARAMS = [
    {"family": "mu-lambda", "mu": [0, 1], "lambda": [3, 2], "n": 4},
    {"family": "mu-lambda", "mu": [0, 0, 1, 1], "lambda": [4, 3, 3, 2], "n": 4},
    {"family": "nested", "breaks": [1, 3, 4], "lows": [1, 0, -1, 2], "highs": [6, 5, 3, 4]},
]


@st.composite
def gen_params(draw):
    """Valid family parameters, translated; one in six has one or two values replaced or dropped."""
    params = copy.deepcopy(draw(st.sampled_from(GEN_PARAMS)))
    shift = draw(st.integers(-50, 50))
    for key in ("mu", "lambda", "lows", "highs"):
        if key in params:
            params[key] = [x + shift for x in params[key]]
    spoil = set()
    if one_in(draw, 6):
        spoil = draw(st.sets(st.sampled_from(sorted(params)), min_size=1, max_size=2))
    for key in sorted(spoil):  # set order follows the string hash seed
        if draw(st.integers(0, 4)) == 0:
            del params[key]
        elif key == "family":
            params[key] = draw(st.sampled_from(["mu-lambda", "nested", "spiral"]) | JUNK)
        elif key == "n":
            params[key] = draw(RANK | JUNK)
        else:
            params[key] = draw(st.lists(st.integers(-4, 8), min_size=1, max_size=8) | JUNK)
    return params


@st.composite
def cli_calls(draw):
    command = draw(st.sampled_from(["validate", "decompose", "det-formula", "character", "kl", "gen"]))
    if command == "gen":
        return ["gen", "-"], draw(gen_params())
    argv = [command, "-"]
    if command == "det-formula" and draw(st.booleans()):
        argv.append("--oracle")
    if one_in(draw, 6):
        argv += ["--n", str(draw(RANK))]
    return argv, draw(snake_data())


def run_in_process(argv, text):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)), redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestContract:
    @settings(max_examples=60, deadline=2000, derandomize=True)
    @given(cli_calls())
    @example((["character", "-"], {"n": 4000, "intervals": [[0, 1]], "breaks": [1]}))
    @example((["character", "-"], {"n": 700, "intervals": [[0, 1], [-1, 0]], "breaks": [1, 2]}))
    @example((["gen", "-"], {"family": "nested", "breaks": [], "lows": [1, 0], "highs": [3, 2]}))
    @example((["kl", "-"], corpus.connected_run(40).to_json()))
    @example((["det-formula", "-"], corpus.connected_run(40).to_json()))
    def test_exit_codes_and_determinism(self, call):
        argv, data = call
        text = json.dumps(data)
        code, out, err = run_in_process(argv, text)
        assert code in (0, 2, 3, 4)
        if code:
            assert isinstance(json.loads(err), dict)
        assert run_in_process(argv, text)[1] == out

    def test_draws_follow_no_string_hash_seed(self, tmp_path):
        # the draws above are derandomized, so two interpreters with different
        # string hash seeds must draw the same calls; iterating gen_params' set
        # of spoiled keys unsorted made the fifth draw differ under seeds 1 and 2
        paths = [str(Path(__file__).parent), str(Path(snakemod.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        # from a file: hypothesis seeds a derandomized test from its source
        script = tmp_path / "draw_calls.py"
        script.write_text(DRAW_CALLS, encoding="utf-8")
        draws = []
        for seed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, str(script)],
                capture_output=True,
                text=True,
                cwd=tmp_path,
                env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths)), "PYTHONHASHSEED": seed},
            )
            assert proc.returncode == 0, proc.stderr
            draws.append(proc.stdout.splitlines())
        assert len(draws[0]) == 200
        assert draws[0] == draws[1]


# 200 derandomized cli_calls draws, one repr a line
DRAW_CALLS = """
from hypothesis import HealthCheck, Phase, given, settings
from test_cli import cli_calls

@settings(max_examples=200, derandomize=True, database=None, phases=[Phase.generate],
          deadline=None, suppress_health_check=list(HealthCheck))
@given(cli_calls())
def draw(call):
    print(repr(call))

draw()
"""


class TestInputOutput:
    @pytest.mark.parametrize(
        "argv",
        [["validate", "-"], ["decompose", "-"], ["det-formula", "-"], ["character", "-"], ["kl", "-"], ["gen", "-"]],
    )
    def test_deeply_nested_json_exits_2(self, argv):
        code, out, err = run_in_process(argv, "[" * 100_000)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "invalid-input", "message": "JSON nested too deeply to read"}

    def test_deepest_readable_json_in_an_interval_exits_2(self):
        def run(depth):
            pair = "[0, " + "[" * depth + "]" * depth + "]"
            return pair, run_in_process(["validate", "-"], '{"n": 3, "intervals": [' + pair + '], "breaks": [1]}')

        read, unread = 1, 100_000
        while unread - read > 1:
            mid = (read + unread) // 2
            _, (_, _, err) = run(mid)
            if json.loads(err)["message"] == "JSON nested too deeply to read":
                unread = mid
            else:
                read = mid
        # the library names the value by its repr, as deep as the reader went
        pair, (code, out, err) = run(read)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "invalid-input", "message": f"an interval is a pair of integers, not {pair}"}

    def test_missing_input_exits_2(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        code, out, err = run_cli(["validate", str(path)], capsys)
        assert (code, out) == (2, "")
        report = json.loads(err)
        assert report["error"] == "invalid-input"
        assert report["message"].startswith(f"cannot read {path}: ")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["validate", "-"], "expected a JSON object with n, intervals, breaks"),
            (["decompose", "-"], "expected a JSON object with n, intervals, breaks"),
            (["det-formula", "-"], "expected a JSON object with n, intervals, breaks"),
            (["character", "-"], "expected a JSON object with n, intervals, breaks"),
            (["kl", "-"], "expected a JSON object with n, intervals, breaks"),
            (["gen", "-"], "expected a JSON object with a 'family' key"),
        ],
    )
    def test_json_array_exits_2(self, argv, message):
        code, out, err = run_in_process(argv, json.dumps([PAIR]))
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "invalid-input", "message": message}

    def test_output_file_holds_the_stdout_bytes(self, tmp_path):
        out_path = tmp_path / "report.json"
        for name, argv, data, code in GOLDEN_CASES:
            if code == 0:
                assert run_in_process([*argv, "-o", str(out_path)], json.dumps(data)) == (0, "", ""), name
                assert out_path.read_bytes() == golden_streams(name, 0)[1], name

    def test_streamed_answer_holds_no_copy_of_its_text(self):
        payload = cmd_character({"n": 200, "intervals": [[0, 1], [-1, 0]], "breaks": [1, 2]}, argparse.Namespace(n=None))

        class Sink:
            """A stream that keeps only the number of characters written to it."""

            size = 0

            def write(self, text):
                self.size += len(text)

            def flush(self):
                pass

        sink = Sink()
        tracemalloc.start()
        try:
            with mock.patch.object(sys, "stdout", sink):
                _emit(payload, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.size > 6_000_000
        assert peak < sink.size

    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, target):
        out_path = tmp_path / "missing" / "out.json" if target == "missing-dir" else tmp_path
        code, out, err = run_cli(["validate", write(tmp_path, PAIR), "-o", str(out_path)], capsys)
        assert (code, out) == (2, "")
        report = json.loads(err)
        assert report["error"] == "invalid-input"
        assert report["message"].startswith(f"cannot write {out_path}: ")

    @staticmethod
    def failed_write(stdout, tmp_path, argv):
        """Run the CLI as a process writing to ``stdout``, which fails: exit 2, one
        report on stderr and no traceback.  Returns the report's message."""
        lib = str(Path(snakemod.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "snakemod.cli", *argv],
            stdout=stdout,
            stderr=subprocess.PIPE,
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": lib},
        )
        err = proc.stderr.decode()
        assert proc.returncode == 2
        assert "Traceback" not in err and "Exception ignored" not in err
        report = json.loads(err)
        assert set(report) == {"error", "message"} and report["error"] == "invalid-input"
        return report["message"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [["validate"], ["character"]], ids=["small", "streamed"])
    def test_full_stdout_exits_2(self, tmp_path, argv):
        # a small answer fails only at the flush; the 6 MB character answer fails mid-stream
        data = PAIR if argv == ["validate"] else {"n": 200, "intervals": [[0, 1], [-1, 0]], "breaks": [1, 2]}
        with open("/dev/full", "w") as full:
            message = self.failed_write(full, tmp_path, [*argv, write(tmp_path, data)])
        assert message.startswith("cannot write stdout: [Errno 28]")

    def test_closed_pipe_exits_2(self, tmp_path):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            message = self.failed_write(write_end, tmp_path, ["validate", write(tmp_path, PAIR)])
        finally:
            os.close(write_end)
        assert message.startswith("cannot write stdout: [Errno 32]")

    def test_closed_stdout_exits_2(self, tmp_path, capsys):
        # an interpreter started with descriptor 1 closed has sys.stdout None
        with mock.patch.object(sys, "stdout", None):
            code = main(["validate", write(tmp_path, PAIR)])
        assert code == 2
        report = json.loads(capsys.readouterr().err)
        assert report == {"error": "invalid-input", "message": "cannot write stdout: it is closed"}

GOLDEN = Path(__file__).parent / "golden"


GOLDEN_CASES = [
    ("validate", ["validate", "-"], EXAMPLE_ONE, 0),
    ("decompose", ["decompose", "-"], EXAMPLE_ONE, 0),
    ("det-formula", ["det-formula", "-", "--oracle"], EXAMPLE_ONE, 0),
    ("kl", ["kl", "-"], EXAMPLE_ONE, 3),
    ("kl-pair", ["kl", "-"], PAIR, 0),
    ("character-pair", ["character", "-"], PAIR, 0),
    ("character-triple", ["character", "-"], TRIPLE, 0),
    ("kl-tie", ["kl", "-"], TIE, 0),
    ("gen", ["gen", "-"], {"family": "mu-lambda", "mu": [0, 0, 1, 1], "lambda": [4, 3, 3, 2], "n": 4}, 0),
    ("kl-staircase", ["kl", "-"], STAIRCASE, 0),
]


def golden_streams(name, code):
    """The expected (exit code, stdout, stderr): the golden bytes go to stderr on a refusal."""
    golden = (GOLDEN / f"{name}.txt").read_bytes()
    return (code, golden, b"") if code == 0 else (code, b"", golden)


class TestGolden:
    """The README's worked examples, byte for byte (stdout, or stderr on a refusal)."""

    @pytest.mark.parametrize("name, argv, data, code", GOLDEN_CASES)
    def test_bytes(self, name, argv, data, code):
        got, out, err = run_in_process(argv, json.dumps(data))
        assert (got, out.encode(), err.encode()) == golden_streams(name, code)


@pytest.fixture(scope="module")
def library_alone(tmp_path_factory):
    """A copy of the package with nothing beside it, and an empty directory to run it from."""
    lib = tmp_path_factory.mktemp("lib")
    shutil.copytree(Path(snakemod.__file__).parent, lib / "snakemod", ignore=shutil.ignore_patterns("__pycache__"))
    return lib, tmp_path_factory.mktemp("empty")


class TestGoldenLibraryAlone:
    """The golden bytes from the library alone, under fixed string hash seeds.

    ``ell_weights`` returns a set that the CLI sorts, so the bytes must not
    follow set or dict order; and the package must import nothing from tests/.
    """

    @pytest.mark.parametrize("seed", ["0", "1"])
    @pytest.mark.parametrize("name, argv, data, code", GOLDEN_CASES)
    def test_bytes(self, library_alone, name, argv, data, code, seed):
        lib, empty = library_alone
        proc = subprocess.run(
            [sys.executable, "-m", "snakemod.cli", *argv],
            input=json.dumps(data).encode(),
            capture_output=True,
            cwd=empty,
            env={**os.environ, "PYTHONPATH": str(lib), "PYTHONHASHSEED": seed},
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == golden_streams(name, code)
