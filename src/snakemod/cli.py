"""Batch command line: JSON in, canonical JSON out.

Exit codes: 0 success, 2 invalid input (including JSON nested too deeply to
read and an output file or stdout that cannot be written), 3 mathematical refusal
(valid input outside an operation's scope), 4 internal cross-check failure.
"""

from __future__ import annotations

import argparse
import json
import os
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
        if sys.stdout is None:  # started with its descriptor closed
            raise ValueError("cannot write stdout: it is closed")
        try:
            _write(doc, sys.stdout)
            sys.stdout.flush()
        except OSError as exc:
            _drop_stdout()
            raise ValueError(f"cannot write stdout: {exc}") from exc


def _drop_stdout() -> None:
    """Point stdout's descriptor at the null device after a failed write.

    The interpreter flushes stdout again at exit; the text still buffered then
    goes nowhere instead of raising a second error that would print after the
    report and change the exit code.
    """
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # a stream with no descriptor keeps nothing for the exit
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


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


def cmd_character(data, args) -> dict:
    from .paths import ell_weights

    s = _load_snake(data, args.n)
    # weights of one rank sort by gens; comparing whole weights would scan each gens twice
    weights = sorted(ell_weights(s), key=attrgetter("gens"))
    # fail before the first byte is written if a corner, which can end past the input, has too many digits
    str(max((iv.j for w in weights for iv, _ in w.gens), default=0))
    return {
        "snake": s.to_json(),
        "dim": len(weights),  # one weight per tuple (thin character)
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
