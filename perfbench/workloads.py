"""Seeded inputs, operations and output checks for the benchmark workloads.

The generators here are the benchmark's own: they mirror the shapes the
test corpora use but never import them, so a test edit cannot shift a
workload.  Every library call goes through a module or class attribute at
call time (``sm.standard_expansion``, ``s.prime_factors()``), so the traced
run can wrap those attributes in place.

On the ladders the seed only translates (and on the single-run ladder
mirrors) a fixed shape: the cost of an op there depends on its shape, and
the runs on different seeds must measure the machine, not the inputs.  On
the corpus the seed draws the shapes themselves.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from math import comb, prod
from typing import Callable

import snakemod as sm

WORKLOADS = ("corpus-sweep", "mu-lambda-ladder", "single-run-ladder", "nonprime-ladder")

# ell_weights enumerates every stacked tuple, so it only runs where the
# dimension (the tuple count) is at most this cap.
DIM_CAP = {"corpus-sweep": 2_000, "single-run-ladder": 25_000}

# Laplace expansion is memoized on row/column subsets; above these sizes the
# oracle itself would dominate the run.
LAPLACE_MAX_R = {"mu-lambda-ladder": 10, "single-run-ladder": 7}
DOMINATED_MAX_TERMS = 600

REPEAT_S = 0.5  # a ladder rung repeats within a pass until it has run this long
# The nonprime rungs between 0.3 and 0.9 s ran once or twice a pass at
# REPEAT_S, and op_p50_ms spread by a fifth over ten runs.
NONPRIME_REPEAT_S = 1.5

SIZES = {
    "full": {
        "corpus": 300,
        "mu_rungs": (8, 10, 12, 14, 16),
        "single_rungs": (2, 3, 4, 5, 6, 7, 8),
        "disconnected": (100, 400, 1000),
        "expansion_probe": 1000,
        "zigzag": (100, 200),
        "chain": (16, 24),
        "cli_rounds": 4,
    },
    "tiny": {
        "corpus": 12,
        "mu_rungs": (4, 6),
        "single_rungs": (2, 3),
        "disconnected": (10, 20),
        "expansion_probe": 20,
        "zigzag": (9, 13),
        "chain": (4, 6),
        "cli_rounds": 1,
    },
}

MAX_TRIES = 2000

# The corpus's shapes are drawn once, from this seed; the run's seed moves,
# mirrors and reorders them.  Shapes drawn per seed made a pass cost vary by
# a quarter between seeds, because the path model's cost is heavy-tailed.
CORPUS_SHAPES_SEED = 20241205


# --------------------------------------------------------------------------
# generators


def _connected_left_run(rng: random.Random, n: int, r: int) -> list[tuple[int, int]]:
    """Descending intervals whose neighbours overlap with valid crossings."""
    for _ in range(MAX_TRIES):
        i = rng.randint(-8, 8)
        ivs = [(i, i + rng.randint(1, n))]
        while len(ivs) < r:
            ip, jp = ivs[-1]
            lo, hi = jp - (n + 1), ip - 1
            if lo > hi:
                break
            i2 = rng.randint(lo, hi)
            ivs.append((i2, rng.randint(ip, min(jp - 1, i2 + n + 1))))
        if len(ivs) == r:
            return ivs
    raise RuntimeError("connected run generator starved")


def _left_run(rng: random.Random, n: int, r: int) -> list[tuple[int, int]]:
    """Descending intervals, connected or not."""
    for _ in range(MAX_TRIES):
        lows = sorted(rng.sample(range(-10, 11), r), reverse=True)
        ivs: list[tuple[int, int]] = []
        for i in lows:
            hi = i + n + 1 if not ivs else min(i + n + 1, ivs[-1][1] - 1)
            if hi < i:
                break
            ivs.append((i, rng.randint(i, hi)))
        if len(ivs) == r:
            return ivs
    raise RuntimeError("run generator starved")


def _single_run(rng: random.Random, n: int, r: int, connected: bool):
    ivs = _connected_left_run(rng, n, r) if connected else _left_run(rng, n, r)
    s = sm.AlternatingSnake.single_run(ivs, n)
    return s.mirror() if rng.random() < 0.5 else s


def _concat(a, b):
    """Join two snakes far apart, so the junction pair is never connected."""
    want = sm.RIGHT if (a.k == 0 or a.directions[-1] == sm.LEFT) else sm.LEFT
    if b.k >= 1 and b.directions[0] != want:
        b = b.mirror()
    if want == sm.RIGHT:
        delta = max(iv.j for iv in a.intervals) + 1 - min(iv.i for iv in b.intervals)
    else:
        delta = min(iv.i for iv in a.intervals) - 1 - max(iv.j for iv in b.intervals)
    ivs = [iv.as_pair() for iv in a.intervals]
    ivs += [(iv.i + delta, iv.j + delta) for iv in b.intervals]
    tail = [x + a.r for x in b.breaks[1:]] or [a.r + 1]
    return sm.AlternatingSnake.build(ivs, (*a.breaks, *tail), max(a.n, b.n))


def _random_mu_lambda(rng: random.Random, n_cap: int, r_max: int):
    for _ in range(MAX_TRIES):
        r = rng.randint(1, r_max)
        mu = [rng.randint(-3, 0)]
        for t in range(1, r):
            mu.append(mu[-1] + (rng.randint(0, 2) if t % 2 == 1 else rng.randint(1, 2)))
        # lambda is built from its last entry back, so that the strict and
        # weak steps land where the family's chain puts them for every r
        lam = [mu[-1] + rng.randint(1, 3)]
        for t in range(r - 1, 0, -1):
            lam.insert(0, lam[0] + (rng.randint(1, 2) if t % 2 == 1 else rng.randint(0, 2)))
        n = lam[0] - mu[0]
        if not 1 <= n <= n_cap:
            continue
        try:
            return sm.families.snake_from_mu_lambda(mu, lam, n)
        except ValueError:
            continue
    raise RuntimeError("mu-lambda generator starved")


def _random_nested(rng: random.Random, n_cap: int):
    """A prime stable nested snake with one or two runs, at its minimal rank."""
    for _ in range(MAX_TRIES):
        if rng.random() < 0.5:
            breaks = (1,) if rng.random() < 0.15 else (1, rng.randint(2, 5))
            j_order = list(range(1, breaks[-1] + 1))
            i_pieces = [j_order]
        else:
            r1 = 1 + 2 + rng.randint(0, 1)
            breaks = (1, r1, r1 + rng.randint(1, 2))
            r2 = breaks[2]
            j_order = list(range(1, r1)) + list(range(r2, r1 - 1, -1))
            i_pieces = [list(range(r2, r1, -1)), list(range(1, r1 + 1))]
        r = breaks[-1]
        highs = [0] * r
        v = 0
        for pos in j_order:
            highs[pos - 1] = v
            v -= rng.randint(1, 2)
        lows = [0] * r
        v = 0
        for idx, piece in enumerate(i_pieces):
            for t, pos in enumerate(piece):
                junction_tie = t == 0 and idx > 0 and rng.random() < 0.4
                if not junction_tie and not (t == 0 and idx == 0):
                    v -= rng.randint(1, 2)
                lows[pos - 1] = v
        shift = max(lows) - min(highs) + rng.randint(1, 2)
        highs = [h + shift for h in highs]
        try:
            s, n_min = sm.families.nested_prime_snake(breaks, lows, highs)
        except ValueError:
            continue
        if n_min <= n_cap:
            return s
    raise RuntimeError("nested generator starved")


def corpus_snakes(seed: int, count: int, n_cap: int = 8, r_cap: int = 7):
    """Stable snakes with r <= 7 and n <= 8, the five shapes in equal shares."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        kind = len(out) % 5
        n = rng.randint(2, n_cap)
        if kind == 0:
            s = _single_run(rng, n, rng.randint(1, 5), connected=True)
        elif kind == 1:
            s = _single_run(rng, n, rng.randint(1, 4), connected=False)
        elif kind == 2:
            s = _random_mu_lambda(rng, n_cap, 6)
        elif kind == 3:
            s = _random_nested(rng, n_cap)
        else:
            a = _single_run(rng, n, rng.randint(1, 3), connected=rng.random() < 0.7)
            b = _single_run(rng, n, rng.randint(1, min(3, r_cap - a.r)), connected=rng.random() < 0.7)
            s = _concat(a, b)
        if s.r <= r_cap and s.n <= n_cap and s.is_stable():
            out.append(s)
    return out


def _moved(s, rng: random.Random):
    """The snake translated by a random shift, and mirrored half the time."""
    shift = rng.randint(-30, 30)
    moved = sm.AlternatingSnake.build([iv.shifted(shift) for iv in s.intervals], s.breaks, s.n)
    return moved.mirror() if rng.random() < 0.5 else moved


def mu_lambda_chains(r: int, shift: int) -> tuple[list[int], list[int], int]:
    """The staircase mu_1 = mu_2 < mu_3 = mu_4 < ..., lam_1 > lam_2 = lam_3 > ....

    Every weak step of the family's chain is taken as an equality, which is
    what makes the expansion cancel heavily.  lam is built from its last
    entry back, so the chain holds at odd r too (a forward build breaks it).
    Valid for r >= 4; below that the first intervals coincide.
    """
    mu = [shift]
    for t in range(1, r):
        mu.append(mu[-1] + (0 if t % 2 == 1 else 1))
    lam = [mu[-1] + 1]
    for t in range(r - 1, 0, -1):
        lam.insert(0, lam[0] + (1 if t % 2 == 1 else 0))
    return mu, lam, lam[0] - mu[0]


def single_run_rung(r: int, shift: int, mirror: bool):
    """A connected descending staircase at n = r + 2 with half-rank intervals."""
    n = r + 2
    length = (n + 1) // 2
    s = sm.AlternatingSnake.single_run([(shift - x, shift - x + length) for x in range(r)], n)
    return s.mirror() if mirror else s


def disconnected_run(rng: random.Random, r: int):
    """A descending run at n = 3 of pairwise disjoint intervals: r prime factors."""
    base = rng.randint(-50, 50)
    ivs = [(base - 3 * x, base - 3 * x + rng.randint(0, 2)) for x in range(r)]
    return ivs, (1, r), 3


def zigzag(rng: random.Random, r: int, step: int = 4):
    """Disjoint intervals on slots that go down `step` places, then up, and so on.

    Disjoint intervals never overlap, so the alternation conditions hold,
    and no neighbours are connected: every position is a cut.
    """
    slots = [0]
    lo = hi = 0
    down = True
    while len(slots) < r:
        for _ in range(min(step, r - len(slots))):
            if down:
                lo -= 1
                slots.append(lo)
            else:
                hi += 1
                slots.append(hi)
        down = not down
    base = rng.randint(-50, 50)
    ivs = [(base + 3 * x, base + 3 * x + rng.randint(0, 2)) for x in slots]
    breaks = (1, *range(1 + step, r, step), r)
    return ivs, breaks, 3


def connected_pair_chain(rng: random.Random, r: int):
    """r/2 connected pairs in one descending run at n = 3, cut between pairs."""
    a = rng.randint(-50, 50)
    ivs = []
    for _ in range(r // 2):
        ivs += [(a, a + 3), (a - 1, a + 2)]
        a -= 5 + rng.randint(0, 2)
    return ivs, (1, r), 3


# --------------------------------------------------------------------------
# canonical outputs


def canon(x):
    """A JSON-ready, order-stable rendering of library outputs."""
    if isinstance(x, sm.LWeight):
        return x.to_json()
    if isinstance(x, (sm.AlternatingSnake, sm.RingElement, sm.Diagnostic)):
        return x.to_json()
    if isinstance(x, sm.StandardExpansion):
        return {
            "terms": [[c, w.to_json()] for w, c in x.terms],
            "sigma_count": x.sigma_count,
        }
    if isinstance(x, sm.KLTable):
        return {
            "mu": list(x.mu_plus_rho),
            "lam": list(x.lambda_plus_rho),
            "rows": [[list(nu), c] for nu, c in x.rows],
        }
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    if isinstance(x, dict):
        return {k: canon(v) for k, v in x.items()}
    return x


def _frozen(x):
    if isinstance(x, dict):
        return tuple(sorted((k, _frozen(v)) for k, v in x.items()))
    if isinstance(x, list):
        return tuple(_frozen(v) for v in x)
    if isinstance(x, set):
        return frozenset(x)
    return x


def fingerprint(outputs) -> int:
    """A hash of an output's value, to compare repeat runs without keeping them."""
    return hash(_frozen(outputs))


def _json(x) -> bytes:
    return json.dumps(canon(x), sort_keys=True, separators=(",", ":")).encode()


def _feed(h, x) -> None:
    """Feed `h` the canonical JSON of `x`, one element of a container at a
    time, and a set as the sorted sha256 digests of its elements.

    Rendered whole and sorted by weight, the 24,696 weights of one
    single-run rung took 46 MB, and peak_rss_mb read twice as high on the
    seed with reference digests as on the others.
    """
    if isinstance(x, (set, frozenset)):
        h.update(b"<set>")
        for d in sorted(hashlib.sha256(_json(w)).digest() for w in x):
            h.update(d)
    elif isinstance(x, (list, tuple)):
        h.update(b"[")
        for i, v in enumerate(x):
            if i:
                h.update(b",")
            _feed(h, v)
        h.update(b"]")
    elif isinstance(x, dict):
        h.update(b"{")
        for i, k in enumerate(sorted(x)):
            if i:
                h.update(b",")
            h.update(json.dumps(k).encode() + b":")
            _feed(h, x[k])
        h.update(b"}")
    else:
        h.update(_json(x))


def digest(outputs: dict) -> str:
    h = hashlib.sha256()
    _feed(h, outputs)
    return h.hexdigest()[:16]


# --------------------------------------------------------------------------
# operations


def _no_lap() -> None:
    pass


@dataclass
class Op:
    """One timed operation.  `run(lap)` returns its outputs; a long op calls
    `lap()` between library calls, where the timer may pause to sample the
    machine's speed."""

    id: str
    run: Callable[..., dict]
    check: Callable[[dict], list[str]]
    size: tuple = ()  # orders ops by expected cost; the largest is the top rung


@dataclass
class CliCall:
    argv: list[str]
    stdin: str
    expect_exit: int
    expect_error: str | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    cli_calls: list[CliCall]
    cli_rounds: int
    top_op: str
    repeat_s: float = 0.0
    # Ops run once per run, untimed, after the measured loop.  One that
    # raises marks a known limit of the program: it lowers ok_ratio but is
    # not a failed op.  One that returns is checked like any other op.
    probes: list[Op] = field(default_factory=list)


def _rank_fits_kl(s) -> bool:
    lows = [iv.i for iv in s.intervals]
    highs = [iv.j for iv in s.intervals]
    return max(highs) - min(lows) <= s.n + 1 and min(highs) >= max(lows)


def _expansion_problems(s, e) -> list[str]:
    problems = []
    if e.coefficient(s.weight()) != 1:
        problems.append("leading coefficient at s.weight() is not 1")
    if len(e.terms) <= DOMINATED_MAX_TERMS and not sm.expansion_dominated(e):
        problems.append("expansion has a label above s.weight()")
    return problems


def _corpus_op(idx: int, s) -> Op:
    ivs = [iv.as_pair() for iv in s.intervals]
    breaks, n = list(s.breaks), s.n
    single = s.k <= 1
    cap = DIM_CAP["corpus-sweep"]

    def run(lap=_no_lap):
        out = {"diagnostics": sm.snakes.diagnose(ivs, breaks, n)}
        snake = sm.AlternatingSnake.build(ivs, breaks, n)
        out["factors"] = snake.prime_factors()
        e = sm.determinant.standard_expansion(snake)
        m = sm.determinant.snake_matrix(snake)
        laplace = sm.determinant.det_laplace(m)
        out.update(
            expansion=e,
            laplace=laplace,
            leibniz=sm.determinant.det_leibniz(m),
            expansion_ring=e.as_ring_element(),
            det_dimension=laplace.dimension(),
        )
        try:
            out["kl"] = sm.category_o.kl_table(snake)
        except sm.UnsupportedSnakeError:
            out["kl"] = "refused"
        if single:
            out["dimension"] = sm.paths.snake_dimension(snake)
            if out["dimension"] <= cap:
                out["weights"] = sm.paths.ell_weights(snake)
        return out

    def check(out):
        problems = []
        if out["diagnostics"]:
            problems.append("diagnose flags a generated valid snake")
        if sum(f.r for f in out["factors"]) != s.r:
            problems.append("prime factors do not cover the snake")
        if out["laplace"] != out["leibniz"]:
            problems.append("det_laplace != det_leibniz")
        if out["expansion_ring"] != out["laplace"]:
            problems.append("expansion as ring element != det_laplace")
        problems += _expansion_problems(s, out["expansion"])
        if (out["kl"] == "refused") == _rank_fits_kl(s):
            problems.append("kl_table refusal does not match the rank condition")
        if single:
            if out["dimension"] != out["det_dimension"]:
                problems.append("snake_dimension != determinant dimension")
            ws = out.get("weights")
            if ws is not None and (s.weight() not in ws or len(ws) > out["dimension"]):
                problems.append("ell_weights misses s.weight() or exceeds the dimension")
        return problems

    # the path model dominates a corpus op, so size is its compatibility work
    sizes = layer_sizes(s) if single else []
    return Op(f"corpus:{idx}", run, check, size=(sum(a * b for a, b in zip(sizes, sizes[1:])), s.r))


def _mu_lambda_op(r: int, s) -> Op:
    def run(lap=_no_lap):
        e = sm.determinant.standard_expansion(s)
        lap()
        return {"expansion": e, "kl": sm.category_o.kl_table(s)}

    def check(out):
        e, kl = out["expansion"], out["kl"]
        problems = _expansion_problems(s, e)
        # both tables regroup the same signed assignments
        if sum(c for _, c in kl.rows) != sum(c for _, c in e.terms):
            problems.append("KL row signs and expansion signs sum differently")
        if r <= LAPLACE_MAX_R["mu-lambda-ladder"]:
            m = sm.snake_matrix(s)
            laplace = sm.det_laplace(m)
            if laplace != sm.det_leibniz(m) or e.as_ring_element() != laplace:
                problems.append("determinant routes disagree")
        return problems

    return Op(f"mu:r{r}", run, check, size=(r,))


def _single_run_op(r: int, s) -> Op:
    cap = DIM_CAP["single-run-ladder"]

    def run(lap=_no_lap):
        out = {"dimension": sm.paths.snake_dimension(s)}
        if out["dimension"] <= cap:
            lap()
            out["weights"] = sm.paths.ell_weights(s)
        return out

    def check(out):
        problems = []
        if r <= LAPLACE_MAX_R["single-run-ladder"]:
            if sm.det_laplace(sm.snake_matrix(s)).dimension() != out["dimension"]:
                problems.append("snake_dimension != determinant dimension")
        ws = out.get("weights")
        if ws is not None and (s.weight() not in ws or len(ws) > out["dimension"]):
            problems.append("ell_weights misses s.weight() or exceeds the dimension")
        return problems

    return Op(f"single:r{r}", run, check, size=(r,))


def _factor_problems(ivs, factors) -> list[str]:
    joined = [iv.as_pair() for f in factors for iv in f.intervals]
    if joined != [tuple(p) for p in ivs]:
        return ["prime factors do not concatenate back to the snake"]
    if not all(f.is_prime() for f in factors):
        return ["a prime factor is not prime"]
    return []


def _disconnected_op(r: int, ivs, breaks, n, expand: bool) -> Op:
    def run(lap=_no_lap):
        out = {"diagnostics": sm.snakes.diagnose(ivs, breaks, n)}
        s = sm.AlternatingSnake.build(ivs, breaks, n)
        out["factors"] = s.prime_factors()
        lap()
        m = sm.determinant.snake_matrix(s)
        out["matrix"] = [m.size, sum(m.size - row.count(None) for row in m.entries)]
        del m
        if expand:
            lap()
            out["expansion"] = sm.determinant.standard_expansion(s)
        return out

    def check(out):
        s = sm.AlternatingSnake.build(ivs, breaks, n)
        problems = _factor_problems(ivs, out["factors"])
        if out["diagnostics"]:
            problems.append("diagnose flags a generated valid snake")
        if out["matrix"] != [r, r]:
            problems.append("a disjoint run's matrix is not diagonal")
        if expand:
            problems += _expansion_problems(s, out["expansion"])
        return problems

    return Op(f"nonprime:disconnected-r{r}", run, check, size=(r,))


def _expansion_probe(r: int, ivs, breaks, n) -> Op:
    """standard_expansion alone on the disconnected run: the one-term
    expansion of a diagonal matrix, which raises RecursionError at this
    commit once r reaches about 1000."""
    s = sm.AlternatingSnake.build(ivs, breaks, n)

    def run(lap=_no_lap):
        return {"expansion": sm.determinant.standard_expansion(s)}

    def check(out):
        e = out["expansion"]
        problems = _expansion_problems(s, e)
        if len(e.terms) != 1:
            problems.append("a disjoint run's expansion is not one term")
        return problems

    return Op(f"nonprime:expansion-r{r}", run, check)


def _zigzag_op(r: int, ivs, breaks, n) -> Op:
    def run(lap=_no_lap):
        out = {"diagnostics": sm.snakes.diagnose(ivs, breaks, n)}
        out["factors"] = sm.AlternatingSnake.build(ivs, breaks, n).prime_factors()
        return out

    def check(out):
        problems = _factor_problems(ivs, out["factors"])
        if out["diagnostics"]:
            problems.append("diagnose flags a generated valid snake")
        return problems

    return Op(f"nonprime:zigzag-r{r}", run, check, size=(r,))


def _chain_op(r: int, ivs, breaks, n) -> Op:
    s = sm.AlternatingSnake.build(ivs, breaks, n)

    def run(lap=_no_lap):
        return {"expansion": sm.determinant.standard_expansion(s)}

    def check(out):
        e = out["expansion"]
        problems = _expansion_problems(s, e)
        if not len(e.terms) == e.sigma_count == 2 ** (r // 2):
            problems.append("chain expansion is not 2^(r/2) distinct terms")
        return problems

    return Op(f"nonprime:chain-r{r}", run, check, size=(r,))


# --------------------------------------------------------------------------
# CLI calls

# fixed inputs for the error contract: a valid two-run snake whose rank is
# too small for KL rows, and a fully-broken snake that is not stable
TWO_RUNS = {"n": 5, "intervals": [[0, 4], [-1, 1], [1, 2], [2, 3]], "breaks": [1, 2, 4]}
UNSTABLE = {
    "n": 5,
    "intervals": [[-1, 0], [-3, -1], [-2, 1], [-4, 0], [-3, 2]],
    "breaks": [1, 2, 3, 4, 5],
}


def _snake_json(s) -> str:
    return json.dumps(s.to_json())


def _error_calls(every: bool) -> list[CliCall]:
    """Invalid (exit 2) and out-of-scope (exit 3) inputs; the ladders take two."""
    dup = {"n": 2, "intervals": [[0, 2], [0, 2]], "breaks": [1, 2]}
    calls = [
        CliCall(["validate", "-"], "{not json", 2, "invalid-input"),
        CliCall(["det-formula", "-"], json.dumps(UNSTABLE), 3, "refused"),
        CliCall(["decompose", "-"], json.dumps(dup), 2, "invalid-snake"),
        CliCall(["kl", "-"], json.dumps(TWO_RUNS), 3, "refused"),
        CliCall(["character", "-"], json.dumps(TWO_RUNS), 3, "refused"),
    ]
    return calls if every else calls[:2]


def _corpus_cli(snakes_: list, want: int) -> list[CliCall]:
    calls = []
    cycle = ("validate", "decompose", "det-formula", "kl", "character")
    for idx, s in enumerate(snakes_):
        if len(calls) >= want:
            break
        cmd = cycle[idx % len(cycle)]
        if cmd == "character" and not (s.k <= 1 and prod(layer_sizes(s)) <= DIM_CAP["corpus-sweep"]):
            cmd = "decompose"
        argv = [cmd, "-"] + (["--oracle"] if cmd == "det-formula" else [])
        refused = cmd == "kl" and not _rank_fits_kl(s)
        calls.append(CliCall(argv, _snake_json(s), 3 if refused else 0, "refused" if refused else None))
    return calls


def _gen_call(mu, lam, n) -> CliCall:
    params = {"family": "mu-lambda", "mu": mu, "lambda": lam, "n": n}
    return CliCall(["gen", "-"], json.dumps(params), 0)


# --------------------------------------------------------------------------
# workloads


def build(name: str, seed: int, size: str = "full") -> Workload:
    """The workload's ops and CLI calls, made from the seed alone."""
    z = SIZES[size]
    rng = random.Random(f"{name}/{seed}")
    probes = []
    if name == "corpus-sweep":
        corpus = [_moved(s, rng) for s in corpus_snakes(CORPUS_SHAPES_SEED, z["corpus"])]
        # the CLI sample is the same shapes on every seed, so it costs the same
        mu, lam, n = mu_lambda_chains(4, rng.randint(-9, 9))
        calls = _corpus_cli(corpus, 6) + [_gen_call(mu, lam, n)] + _error_calls(every=True)
        rng.shuffle(corpus)
        ops = [_corpus_op(i, s) for i, s in enumerate(corpus)]
    elif name == "mu-lambda-ladder":
        shift = rng.randint(-20, 20)
        ops, calls = [], []
        for r in z["mu_rungs"]:
            mu, lam, n = mu_lambda_chains(r, shift)
            ops.append(_mu_lambda_op(r, sm.families.snake_from_mu_lambda(mu, lam, n)))
        mu, lam, n = mu_lambda_chains(z["mu_rungs"][0], shift)
        s_json = _snake_json(sm.families.snake_from_mu_lambda(mu, lam, n))
        calls += [
            _gen_call(mu, lam, n),
            CliCall(["det-formula", "-", "--oracle"], s_json, 0),
            CliCall(["kl", "-"], s_json, 0),
            CliCall(["validate", "-"], s_json, 0),
            CliCall(["decompose", "-"], s_json, 0),
        ]
        calls += _error_calls(every=False)
    elif name == "single-run-ladder":
        shift, mirror = rng.randint(-20, 20), rng.random() < 0.5
        rungs = [(r, single_run_rung(r, shift, mirror)) for r in z["single_rungs"]]
        ops = [_single_run_op(r, s) for r, s in rungs]
        calls = []
        for r, s in rungs[:3]:
            s_json = _snake_json(s)
            calls.append(CliCall(["validate", "-"], s_json, 0))
            if r <= 3:
                calls.append(CliCall(["character", "-"], s_json, 0))
        calls += _error_calls(every=False)
    elif name == "nonprime-ladder":
        ops, calls = [], []
        for r in z["disconnected"]:
            shape = disconnected_run(rng, r)
            probe = r == z["expansion_probe"]
            ops.append(_disconnected_op(r, *shape, expand=not probe))
            if probe:
                probes.append(_expansion_probe(r, *shape))
        for r in z["zigzag"]:
            ops.append(_zigzag_op(r, *zigzag(rng, r)))
        for r in z["chain"]:
            ops.append(_chain_op(r, *connected_pair_chain(rng, r)))
        # decompose stays off the zigzag: it alone took 240 ms, and its
        # compute-bound time drifted with the machine more than start-up did
        for make, r, cmds in (
            (disconnected_run, z["disconnected"][0], ("validate", "decompose")),
            (zigzag, z["zigzag"][0], ("validate",)),
        ):
            ivs, breaks, n = make(rng, r)
            s_json = json.dumps({"n": n, "intervals": ivs, "breaks": list(breaks)})
            calls += [CliCall([cmd, "-"], s_json, 0) for cmd in cmds]
        ivs, breaks, n = connected_pair_chain(rng, z["chain"][0])
        s_json = json.dumps({"n": n, "intervals": ivs, "breaks": list(breaks)})
        calls.append(CliCall(["det-formula", "-"], s_json, 0))
        calls.append(CliCall(["kl", "-"], s_json, 3, "refused"))
        calls += _error_calls(every=False)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    # a ladder has few ops, so its cheap rungs repeat within a pass; the
    # corpus's 300 ops already give a steady sum of medians
    repeat_s = {"corpus-sweep": 0.0, "nonprime-ladder": NONPRIME_REPEAT_S}.get(name, REPEAT_S)
    top = max(ops, key=lambda op: op.size).id
    return Workload(name, ops, calls, z["cli_rounds"], top, repeat_s, probes)


def layer_sizes(s) -> list[int]:
    """Paths per layer of the stacked path model: C(n+1, length) per interval."""
    return [comb(s.n + 1, iv.length) for iv in s.intervals]
