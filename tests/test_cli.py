import copy
import inspect
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corpus
import snakemod
from snakemod.cli import main

EXAMPLE_ONE = {
    "n": 5,
    "intervals": [[0, 4], [-1, 1], [1, 2], [2, 3]],
    "breaks": [1, 2, 4],
}
PAIR = {"n": 2, "intervals": [[0, 2], [-1, 1]], "breaks": [1, 2]}
UNSTABLE = {
    "n": 5,
    "intervals": [[-1, 0], [-3, -1], [-2, 1], [-4, 0], [-3, 2]],
    "breaks": [1, 2, 3, 4, 5],
}
TWO_FACTOR = {"n": 5, "intervals": [[0, 4], [-2, 1], [1, 4]], "breaks": [1, 2, 3]}


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

    def test_too_many_tuples_refused(self, tmp_path, capsys):
        run = {"n": 7, "intervals": [[0, 4], [-1, 3], [-2, 2], [-3, 1], [-4, 0]], "breaks": [1, 5]}
        code, out, err = run_cli(["character", write(tmp_path, run)], capsys)
        assert code == 3
        assert out == ""
        report = json.loads(err)
        assert report["error"] == "refused"
        assert "1646568" in report["message"]

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
        "run, dim",
        [
            ({"n": 10**7, "intervals": [[0, 10**7 + 1]], "breaks": [1]}, 1),
            ({"n": 100_000, "intervals": [[0, 100_000]], "breaks": [1]}, 100_001),
            ({"n": 16, "intervals": [[0, 15], [-1, 14], [-2, 13]], "breaks": [1, 3]}, 197_676),
        ],
        ids=["one-path", "one-interval", "triple"],
    )
    def test_long_tuples_refused(self, tmp_path, capsys, run, dim):
        # the work is the tuples times the down steps of each, not the tuples alone
        start = time.perf_counter()
        code, out, err = run_cli(["character", write(tmp_path, run)], capsys)
        assert time.perf_counter() - start < 2
        assert code == 3
        assert out == ""
        report = json.loads(err)
        assert report["error"] == "refused"
        assert f"enumerate {dim} path tuples" in report["message"]


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

    def test_unknown_family_exits_2(self, tmp_path, capsys):
        code, _, _ = run_cli(["gen", write(tmp_path, {"family": "spiral"})], capsys)
        assert code == 2

    def test_non_integer_entries_exit_2(self, tmp_path, capsys):
        params = {"family": "mu-lambda", "mu": [0, "1"], "lambda": [3, 2], "n": 4}
        code, _, err = run_cli(["gen", write(tmp_path, params)], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "invalid-input"

    def test_boolean_rank_exits_2(self, tmp_path, capsys):
        # mu = [0], lambda = [1] is accepted at n = 1
        params = {"family": "mu-lambda", "mu": [0], "lambda": [1], "n": True}
        code, _, err = run_cli(["gen", write(tmp_path, params)], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "invalid-input"


class TestInternalSentinel:
    def test_oracle_mismatch_exits_4(self, tmp_path, capsys, monkeypatch):
        from snakemod import RingElement
        import snakemod.cli as cli_module

        monkeypatch.setattr(
            cli_module, "det_laplace", lambda m: RingElement.zero(m.snake.n)
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


@st.composite
def snake_data(draw):
    """Snake-shaped JSON, r <= 8: a valid snake or drawn intervals, then spoiled."""
    if draw(st.booleans()):
        data = copy.deepcopy(draw(st.sampled_from(SNAKES)))
    else:
        r = draw(st.integers(1, 8))
        lows = draw(st.lists(st.integers(-6, 6), min_size=r, max_size=r))
        inner = draw(st.lists(st.integers(2, r), max_size=3)) if r > 1 else []
        data = {
            "n": draw(st.integers(1, 4)),
            "intervals": [[i, i + draw(st.integers(0, 4))] for i in lows],
            "breaks": sorted({1, r, *inner}),
        }
    if draw(st.booleans()):
        data["n"] = draw(RANK)
    spoil = draw(st.sets(st.sampled_from(["n", "endpoint", "break", "intervals"]), max_size=2))
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
    """Valid family parameters with up to two values replaced or dropped."""
    params = copy.deepcopy(draw(st.sampled_from(GEN_PARAMS)))
    for key in draw(st.sets(st.sampled_from(sorted(params)), max_size=2) | st.just(set())):
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
    if draw(st.integers(0, 3)) == 0:
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
    def test_exit_codes_and_determinism(self, call):
        argv, data = call
        text = json.dumps(data)
        code, out, err = run_in_process(argv, text)
        assert code in (0, 2, 3, 4)
        if code:
            assert isinstance(json.loads(err), dict)
        assert run_in_process(argv, text)[1] == out


class TestInputOutput:
    @pytest.mark.parametrize(
        "argv",
        [["validate", "-"], ["decompose", "-"], ["det-formula", "-"], ["character", "-"], ["kl", "-"], ["gen", "-"]],
    )
    def test_deeply_nested_json_exits_2(self, argv):
        code, out, err = run_in_process(argv, "[" * 100_000)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "invalid-input", "message": "JSON nested too deeply to read"}

    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, target):
        out_path = tmp_path / "missing" / "out.json" if target == "missing-dir" else tmp_path
        code, out, err = run_cli(["validate", write(tmp_path, PAIR), "-o", str(out_path)], capsys)
        assert (code, out) == (2, "")
        report = json.loads(err)
        assert report["error"] == "invalid-input"
        assert report["message"].startswith(f"cannot write {out_path}: ")


GOLDEN = Path(__file__).parent / "golden"


class TestGolden:
    """The README's worked examples, byte for byte (stdout, or stderr on a refusal)."""

    @pytest.mark.parametrize(
        "name, argv, data, code",
        [
            ("validate", ["validate", "-"], EXAMPLE_ONE, 0),
            ("decompose", ["decompose", "-"], EXAMPLE_ONE, 0),
            ("det-formula", ["det-formula", "-", "--oracle"], EXAMPLE_ONE, 0),
            ("kl", ["kl", "-"], EXAMPLE_ONE, 3),
            ("kl-pair", ["kl", "-"], PAIR, 0),
            ("character-pair", ["character", "-"], PAIR, 0),
        ],
    )
    def test_bytes(self, name, argv, data, code):
        golden = (GOLDEN / f"{name}.txt").read_bytes()
        got, out, err = run_in_process(argv, json.dumps(data))
        assert (got, out.encode(), err.encode()) == ((code, golden, b"") if code == 0 else (code, b"", golden))
