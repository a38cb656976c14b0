"""Batch command line: JSON in, canonical JSON out.

Exit codes: 0 success, 2 invalid input (including JSON nested too deeply to
read and an output file that cannot be written), 3 mathematical refusal
(valid input outside an operation's scope), 4 internal cross-check failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .determinant import det_laplace, snake_matrix, standard_expansion
from .errors import InternalCheckError, InvalidSnakeError, UnsupportedSnakeError, _count
from .families import nested_prime_snake, snake_from_mu_lambda
from .intervals import _is_int
from .category_o import kl_table
from .paths import ell_weights, snake_dimension
from .snakes import AlternatingSnake

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_REFUSED = 3
EXIT_INTERNAL = 4

# ell_weights' work, memory and output grow with the tuples times their layers and down steps
CHARACTER_MAX_STEPS = 400_000


class InputError(ValueError):
    """Input the CLI cannot read or use; reported like every other ValueError."""


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError("JSON nested too deeply to read") from exc
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _dumps(obj: dict) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def _emit(payload: dict, out_path: str | None) -> None:
    text = _dumps({"version": __version__, "canonical": True, **payload})
    if out_path and out_path != "-":
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _load_snake(data, n_override) -> AlternatingSnake:
    if not isinstance(data, dict):
        raise InputError("expected a JSON object with n, intervals, breaks")
    for key in ("n", "intervals", "breaks"):
        if key not in data:
            raise InputError(f"missing key {key!r}")
    n = data["n"]
    if not _is_int(n) or n < 1:
        raise InputError("n must be an integer >= 1")
    if n_override is not None:
        if n_override < n:
            raise InputError(
                f"--n may only raise the rank (file has n = {n}, got {n_override})"
            )
        n = n_override
    intervals = data["intervals"]
    breaks = data["breaks"]
    if not isinstance(intervals, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(_is_int(x) for x in p)
        for p in intervals
    ):
        raise InputError("intervals must be a list of [i, j] integer pairs")
    if not isinstance(breaks, list) or not all(_is_int(b) for b in breaks):
        raise InputError("breaks must be a list of integers")
    return AlternatingSnake.build(intervals, breaks, n)


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


def cmd_character(data, args) -> dict:
    s = _load_snake(data, args.n)
    dim = snake_dimension(s)
    steps = s.r + sum(iv.length for iv in s.intervals)
    if dim * steps > CHARACTER_MAX_STEPS:
        raise UnsupportedSnakeError(
            f"character would enumerate {_count(dim)} path tuples of {_count(steps)} layers and "
            f"down steps each, {_count(dim * steps)} in all; the limit is {CHARACTER_MAX_STEPS}"
        )
    weights = sorted(ell_weights(s))
    return {
        "snake": s.to_json(),
        "dim": dim,
        "weights": [w.to_json() for w in weights],
    }


def cmd_kl(data, args) -> dict:
    s = _load_snake(data, args.n)
    table = kl_table(s)
    return {
        "mu_plus_rho": list(table.mu_plus_rho),
        "lambda_plus_rho": list(table.lambda_plus_rho),
        "rows": [{"nu_plus_rho": list(nu), "c": c} for nu, c in table.rows],
    }


def _int_list(params: dict, key: str) -> list[int]:
    value = params.get(key)
    if not isinstance(value, list) or not all(_is_int(x) for x in value):
        raise InputError(f"{key!r} must be a list of integers")
    return value


def cmd_gen(params, args) -> dict:
    if not isinstance(params, dict) or "family" not in params:
        raise InputError("expected a JSON object with a 'family' key")
    family = params["family"]
    if family == "mu-lambda":
        for key in ("mu", "lambda", "n"):
            if key not in params:
                raise InputError(f"mu-lambda family needs key {key!r}")
        if not _is_int(params["n"]):
            raise InputError("n must be an integer")
        s = snake_from_mu_lambda(
            _int_list(params, "mu"), _int_list(params, "lambda"), params["n"]
        )
        return {"snake": s.to_json()}
    if family == "nested":
        for key in ("breaks", "lows", "highs"):
            if key not in params:
                raise InputError(f"nested family needs key {key!r}")
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
    raise InputError(f"unknown family {family!r}; use 'mu-lambda' or 'nested'")


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
    sys.stderr.write(_dumps({"error": kind, "message": str(exc), **extra}))
    return code


if __name__ == "__main__":
    sys.exit(main())
