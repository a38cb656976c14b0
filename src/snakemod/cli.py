"""Batch command line: JSON in, canonical JSON out.

Exit codes: 0 success, 2 invalid input (including JSON nested too deeply to
read and an output file that cannot be written), 3 mathematical refusal
(valid input outside an operation's scope), 4 internal cross-check failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import islice
from operator import attrgetter

from . import __version__
# each subcommand imports its engine when it runs, so a process loads only what it uses
from .errors import InternalCheckError, InvalidSnakeError, UnsupportedSnakeError, _count
from .intervals import _is_int

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_REFUSED = 3
EXIT_INTERNAL = 4

# ell_weights' work, memory and output grow with the tuples times their layers and down steps
CHARACTER_MAX_STEPS = 400_000


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValueError("JSON nested too deeply to read") from exc
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _write(doc: dict, stream) -> None:
    # batches of chunks: json.dump writes each small chunk on its own, which is
    # 3-4 times slower to a pipe than one write of the whole text
    chunks = json.JSONEncoder(indent=2, ensure_ascii=False).iterencode(doc)
    while text := "".join(islice(chunks, 1024)):
        stream.write(text)
    stream.write("\n")


def _emit(payload: dict, out_path: str | None) -> None:
    doc = {"version": __version__, "canonical": True, **payload}
    if out_path and out_path != "-":
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                _write(doc, fh)
        except OSError as exc:
            raise ValueError(f"cannot write {out_path}: {exc}") from exc
    else:
        _write(doc, sys.stdout)


def _load_snake(data, n_override):
    from .snakes import AlternatingSnake

    if not isinstance(data, dict):
        raise ValueError("expected a JSON object with n, intervals, breaks")
    for key in ("n", "intervals", "breaks"):
        if key not in data:
            raise ValueError(f"missing key {key!r}")
    n = data["n"]
    if not _is_int(n) or n < 1:
        raise ValueError("n must be an integer >= 1")
    if n_override is not None:
        if n_override < n:
            raise ValueError(
                f"--n may only raise the rank (file has n = {n}, got {n_override})"
            )
        n = n_override
    # the values in the lists are the library's to check
    if not isinstance(data["intervals"], list):
        raise ValueError("intervals must be a list of [i, j] integer pairs")
    if not isinstance(data["breaks"], list):
        raise ValueError("breaks must be a list of integers")
    return AlternatingSnake.build(data["intervals"], data["breaks"], n)


def cmd_validate(data, args) -> dict:
    try:
        s = _load_snake(data, args.n)
    except InvalidSnakeError as exc:
        return {"valid": False, "diagnostics": [d.to_json() for d in exc.diagnostics]}
    return {
        "valid": True,
        "runs": list(s.directions),
        "stable": s.is_stable(),
        "prime": s.is_prime(),
    }


def cmd_decompose(data, args) -> dict:
    s = _load_snake(data, args.n)
    return {
        "snake": s.to_json(),
        "prime": s.is_prime(),
        "stable": s.is_stable(),
        "factors": [f.to_json() for f in s.prime_factors()],
    }


def cmd_det_formula(data, args) -> dict:
    from .determinant import det_laplace, snake_matrix, standard_expansion

    s = _load_snake(data, args.n)
    expansion = standard_expansion(s)
    payload = {
        "snake": s.to_json(),
        "terms": [{"coeff": c, "weight": w.to_json()} for w, c in expansion.terms],
        "sigma_count": expansion.sigma_count,
    }
    if args.oracle:
        if det_laplace(snake_matrix(s)) != expansion.as_ring_element():
            raise InternalCheckError("determinant algorithms disagree")
        payload["oracle"] = "ok"
    return payload


def _dimension_within_limit(s, steps: int) -> int:
    """The dimension of the single run ``s``, refused as soon as it is seen
    to pass CHARACTER_MAX_STEPS with ``steps`` layers and down steps a tuple.

    The dimension of the first c positions is taken for c = 1, 2, 4, ..., r,
    and at c = r it is exact.  It never decreases in c.  For a descending run
    the first c positions are the first c layers of the stacked walk, which
    never dead-ends (``paths._stacked_children``), so every tuple of them
    extends to one of the whole run.  Mirroring turns an ascending run into
    a descending one position by position, and the mirror's evaluated matrix
    is the transpose, so each prefix keeps its dimension.  These prefix
    dimensions are also ``det_dimension``'s pivots.  So a prefix that passes
    the limit refuses the run, and input that is answered is answered with
    the exact count.  A c-position prefix has a matrix of O(c^2) cells, so
    the doubling costs at most a constant factor more than the exact count
    alone.
    """
    from .paths import _as_left_run, snake_dimension

    _as_left_run(s)  # several runs are refused before any count
    r, c = s.r, 1
    while True:
        c = min(c, r)
        dim = snake_dimension(s.segment(0, c))
        if dim * steps > CHARACTER_MAX_STEPS:
            raise UnsupportedSnakeError(
                f"character would enumerate path tuples of {_count(steps)} layers and down steps "
                f"each, and the first {c} of the {r} layers alone have {_count(dim)} of them, "
                f"{_count(dim * steps)} steps; the limit is {CHARACTER_MAX_STEPS}"
            )
        if c == r:
            return dim
        c *= 2


def cmd_character(data, args) -> dict:
    from .paths import ell_weights

    s = _load_snake(data, args.n)
    steps = s.r + sum(iv.length for iv in s.intervals)
    dim = _dimension_within_limit(s, steps)
    # weights of one rank sort by gens; comparing whole weights would scan each gens twice
    weights = sorted(ell_weights(s), key=attrgetter("gens"))
    # fail before the first byte is written if a corner, which can end past the input, has too many digits
    str(max((iv.j for w in weights for iv, _ in w.gens), default=0))
    return {
        "snake": s.to_json(),
        "dim": dim,
        "weights": [w.to_json() for w in weights],
    }


def cmd_kl(data, args) -> dict:
    from .category_o import kl_table

    s = _load_snake(data, args.n)
    table = kl_table(s)
    return {
        "mu_plus_rho": list(table.mu_plus_rho),
        "lambda_plus_rho": list(table.lambda_plus_rho),
        "rows": [{"nu_plus_rho": list(nu), "c": c} for nu, c in table.rows],
    }


def _int_list(params: dict, key: str) -> list:
    value = params.get(key)
    if not isinstance(value, list):
        raise ValueError(f"{key!r} must be a list of integers")
    return value


def cmd_gen(params, args) -> dict:
    from .families import nested_prime_snake, snake_from_mu_lambda

    if not isinstance(params, dict) or "family" not in params:
        raise ValueError("expected a JSON object with a 'family' key")
    family = params["family"]
    if family == "mu-lambda":
        for key in ("mu", "lambda", "n"):
            if key not in params:
                raise ValueError(f"mu-lambda family needs key {key!r}")
        s = snake_from_mu_lambda(
            _int_list(params, "mu"), _int_list(params, "lambda"), params["n"]
        )
        return {"snake": s.to_json()}
    if family == "nested":
        for key in ("breaks", "lows", "highs"):
            if key not in params:
                raise ValueError(f"nested family needs key {key!r}")
        s, n_min = nested_prime_snake(
            _int_list(params, "breaks"), _int_list(params, "lows"), _int_list(params, "highs")
        )
        # the endpoints were read from JSON, but their spread may have too many digits to write back
        try:
            str(n_min)
        except ValueError:
            raise UnsupportedSnakeError(
                f"the minimal rank n_min is {_count(n_min)}, too many digits to write"
            ) from None
        return {"snake": s.to_json(), "n_min": n_min}
    raise ValueError(f"unknown family {family!r}; use 'mu-lambda' or 'nested'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snakemod",
        description="Exact snake-class combinatorics with JSON input and output.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, needs_snake=True):
        p = sub.add_parser(name, help=help_text)
        if needs_snake:
            p.add_argument("input", help="snake JSON file, or - for stdin")
            p.add_argument("--n", type=int, default=None, help="raise the rank (never lower)")
        p.add_argument("-o", "--output", default=None, help="output file, default stdout")
        p.set_defaults(fn=fn)
        return p

    add("validate", cmd_validate, "check interval/break data and report diagnostics")
    add("decompose", cmd_decompose, "prime factorization plus prime/stable flags")
    det = add("det-formula", cmd_det_formula, "standard-class expansion of a stable snake")
    det.add_argument("--oracle", action="store_true", help="cross-check both determinant routes")
    add("character", cmd_character, "weights and dimension of a single-run snake")
    add("kl", cmd_kl, "Kazhdan-Lusztig coefficient rows of a stable snake")
    gen = add("gen", cmd_gen, "generate a family snake from parameters", needs_snake=False)
    gen.add_argument(
        "input", metavar="params", help="family parameter JSON file, or - for stdin"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _emit(args.fn(_read_json(args.input), args), args.output)
        return EXIT_OK
    except InvalidSnakeError as exc:
        diagnostics = [d.to_json() for d in exc.diagnostics]
        return _fail(EXIT_INPUT, "invalid-snake", exc, diagnostics=diagnostics)
    except UnsupportedSnakeError as exc:
        return _fail(EXIT_REFUSED, "refused", exc)
    except ValueError as exc:
        return _fail(EXIT_INPUT, "invalid-input", exc)
    except InternalCheckError as exc:
        return _fail(EXIT_INTERNAL, "internal-check", exc)


def _fail(code: int, kind: str, exc: Exception, **extra) -> int:
    _write({"error": kind, "message": str(exc), **extra}, sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
