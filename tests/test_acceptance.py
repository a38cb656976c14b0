"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines; the test
names themselves also carry the verdicts under plain `pytest -v`.
"""

import random
import time
from math import comb

import corpus
from corpus import dominant_ell_weights, enumerate_paths
from snakemod import (
    AlternatingSnake,
    Interval,
    LWeight,
    det_laplace,
    det_leibniz,
    ell_root,
    fundamental_class,
    kl_table,
    leq,
    minor_identity_holds,
    paths,
    rectangle_root_product,
    root_decompose,
    snake_dimension,
    snake_matrix,
    split_identity_holds,
    standard_expansion,
)
from snakemod.snakes import cross_adjacent
from test_lweight import grid_root_product, random_connected_sorted_pair


def report(num, description, problems):
    verdict = "PASS" if not problems else "FAIL"
    print(f"[criterion {num:02d}] {verdict}: {description}")
    for p in problems:
        print(f"    - {p}")
    assert not problems, f"criterion {num}: {problems}"


def example_one():
    return AlternatingSnake.build([[0, 4], [-1, 1], [1, 2], [2, 3]], [1, 2, 4], 5)


def test_criterion_01_worked_example_end_to_end():
    problems = []
    start = time.perf_counter()
    s = example_one()
    if s.directions != ("left", "right"):
        problems.append(f"run directions {s.directions}")
    if not s.is_stable():
        problems.append("not stable")
    if not s.is_prime():
        problems.append("not prime")
    e = standard_expansion(s)
    if e.coefficient(s.weight()) != 1:
        problems.append("leading coefficient is not +1")
    if not {c for _, c in e.terms} <= {-1, 0, 1}:
        problems.append("coefficient outside {-1, 0, 1}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.3f}s")
    report(1, "four-interval example validates, is stable prime, expands with unit signs", problems)


def test_criterion_02_two_by_two_base_case():
    problems = []
    rng = random.Random(211)
    for _ in range(100):
        n = rng.randint(1, 8)
        lo, hi = random_connected_sorted_pair(rng, n)
        s = AlternatingSnake.single_run([hi.as_pair(), lo.as_pair()], n)
        expected = fundamental_class(hi, n) * fundamental_class(lo, n) - (
            fundamental_class(Interval(hi.i, lo.j), n)
            * fundamental_class(Interval(lo.i, hi.j), n)
        )
        if det_laplace(snake_matrix(s)) != expected:
            problems.append(f"pattern mismatch for {s}")
            break
    report(2, "2x2 determinants equal product minus crossed product, symbolically", problems)


def test_criterion_03_determinant_oracle_equality():
    problems = []
    start = time.perf_counter()
    snakes = corpus.stable_corpus(227, 500, n_cap=8, r_cap=7)
    if len(snakes) < 500:
        problems.append("corpus too small")
    for s in snakes:
        m = snake_matrix(s)
        if det_laplace(m) != det_leibniz(m):
            problems.append(f"determinant mismatch for {s}")
            break
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s")
    report(3, f"both determinant routes agree on {len(snakes)} stable snakes", problems)


def test_criterion_04_mirror_equivariance():
    problems = []
    snakes = corpus.stable_corpus(229, 200)
    for s in snakes:
        relabeled = {w.mirrored(): c for w, c in standard_expansion(s).terms}
        if relabeled != dict(standard_expansion(s.mirror()).terms):
            problems.append(f"mirror expansion mismatch for {s}")
            break
    report(4, f"mirror relabels the expansion termwise on {len(snakes)} snakes", problems)


def test_criterion_05_minor_and_split_identities():
    problems = []
    primes = corpus.prime_stable_corpus(233, 60)
    for s in primes:
        r1 = s.breaks[1] if s.k >= 1 else 1
        for p in range(1, r1 + 1):
            if not minor_identity_holds(s, p):
                problems.append(f"minor identity fails for {s} at p={p}")
    composites = corpus.nonprime_stable_corpus(239, 60)
    for s in composites:
        if not split_identity_holds(s):
            problems.append(f"split identity fails for {s}")
    report(
        5,
        f"minor identity on {len(primes)} prime snakes, split identity on {len(composites)} composites",
        problems,
    )


def test_criterion_06_prime_decomposition():
    problems = []
    snakes = corpus.stable_corpus(241, 150)
    for s in snakes:
        factors = s.prime_factors()
        if not all(f.is_prime() for f in factors):
            problems.append(f"non-prime factor from {s}")
        if [iv for f in factors for iv in f.intervals] != list(s.intervals):
            problems.append(f"factors do not concatenate to {s}")
        lhs = [list(f.intervals) for f in s.reverse().prime_factors()]
        rhs = [list(f.reverse().intervals) for f in factors[::-1]]
        if lhs != rhs:
            problems.append(f"reversal does not reverse factors for {s}")
    worked = AlternatingSnake.build([[0, 4], [-2, 1], [1, 4]], [1, 2, 3], 5)
    if worked.cut_positions() != (2,):
        problems.append("worked example does not split at p = 2")
    report(6, f"unique factorization properties on {len(snakes)} snakes", problems)


def test_criterion_07_path_counts():
    problems = []
    for n in range(1, 9):
        for d in range(0, n + 2):
            for i in (-3, 0, 2):
                got = len(enumerate_paths(Interval(i, i + d), n))
                if got != comb(n + 1, d):
                    problems.append(f"count {got} != C({n + 1},{d}) at i={i}")
    report(7, "path counts match binomial(n+1, j-i) exhaustively for n <= 8", problems)


def test_criterion_08_dimension_cross_oracle():
    problems = []
    worked = AlternatingSnake.single_run([[0, 2], [-1, 1]], 2)
    if {corpus.path_count(worked), snake_dimension(worked), det_laplace(snake_matrix(worked)).dimension()} != {6}:
        problems.append("worked case does not give 6 on all three routes")
    rng = random.Random(251)
    checked = 0
    while checked < 120:
        n = rng.randint(1, 6)
        r = rng.randint(1, 4)
        s = corpus.random_left_run(rng, n, r)
        count = corpus.path_count(s)
        if snake_dimension(s) != count or det_laplace(snake_matrix(s)).dimension() != count:
            problems.append(f"dimension mismatch for {s}")
            break
        checked += 1
    report(8, f"path count equals both determinant dimensions on {checked} single-run snakes", problems)


def test_criterion_09_dominant_weight_uniqueness(monkeypatch):
    # dimension 60,000 times at most r + r(n + 1) = 32 steps a tuple passes the path model's limit
    monkeypatch.setattr(paths, "CHARACTER_MAX_STEPS", 60_000 * 32)
    problems = []
    rng = random.Random(257)
    checked = 0
    while checked < 120:
        n = rng.randint(1, 6)
        r = rng.randint(1, 4)
        s = corpus.random_left_run(rng, n, r)
        if snake_dimension(s) > 60_000:
            continue  # keep the desk-scale budget; coverage of r, n is unchanged
        if dominant_ell_weights(s) != {s.weight()}:
            problems.append(f"dominant weights differ from the top weight for {s}")
            break
        checked += 1
    report(9, f"the unique dominant weight is the top weight on {checked} snakes", problems)


def test_criterion_10_kl_tables():
    problems = []
    pair = AlternatingSnake.single_run([[0, 2], [-1, 1]], 2)
    table = kl_table(pair)
    # rank-one pattern: the reflected row carries -1 (see the decisions
    # ledger for the corrected literal value)
    if table.as_dict() != {(0, -1): 1, (-1, 0): -1}:
        problems.append(f"rank-one table is {table.as_dict()}")
    rng = random.Random(263)
    for _ in range(40):
        s, _ = corpus.random_nested(rng, k_max=3)
        values = set(kl_table(s).as_dict().values())
        if not values <= {-1, 1}:
            problems.append(f"family table values {values} for {s}")
            break
    report(10, "rank-one table matches the reflection pattern; family tables are unit-valued", problems)


def test_criterion_11_root_algebra():
    problems = []
    rng = random.Random(269)
    for _ in range(1000):
        n = rng.randint(1, 8)
        a, b = random_connected_sorted_pair(rng, n)
        if rectangle_root_product(a, b, n) != grid_root_product(a, b, n):
            problems.append(f"grid product differs from the four-generator form at {a}, {b}")
            break
    for _ in range(300):
        n = rng.randint(1, 6)
        cells = {}
        for _ in range(rng.randint(0, 5)):
            i = rng.randint(-4, 4)
            cells[Interval(i, i + rng.randint(1, n))] = rng.randint(1, 3)
        target = LWeight.identity(n)
        for iv, c in cells.items():
            target = target * ell_root(iv, n) ** c
        vec = root_decompose(target)
        if vec is None or dict(vec.coeffs) != cells:
            problems.append(f"root decomposition failed to round-trip {cells}")
            break
    checked = 0
    for s in corpus.stable_corpus(271, 80):
        for p in range(1, s.r):
            if not s.within_prime_factor(p, p + 1):
                continue
            crossed, gamma = cross_adjacent(s, p)
            w_tau = LWeight.from_generators(((iv, 1) for iv in crossed), s.n)
            if w_tau != s.weight() * gamma.inverse() or not leq(w_tau, s.weight()):
                problems.append(f"crossing identity fails for {s} at p={p}")
            checked += 1
    if checked < 100:
        problems.append("too few admissible crossings exercised")
    report(11, f"1000 grid identities, 300 round-trips, {checked} crossing dominances", problems)


def test_criterion_12_matrix_golden_patterns():
    problems = []
    fully_broken = AlternatingSnake.build(
        [[-1, 0], [-3, -1], [-2, 1], [-4, 0], [-3, 2]], [1, 2, 3, 4, 5], 5
    )
    got = ["".join("x" if c else "." for c in row) for row in corpus.pattern(snake_matrix(fully_broken))]
    if got != ["xxx..", "xxx..", ".xxxx", ".xxxx", "...xx"]:
        problems.append(f"fully-broken pattern {got}")
    skip = AlternatingSnake.build([[1, 6], [0, 3], [1, 4], [2, 5], [1, 2]], [1, 2, 4, 5], 5)
    got = ["".join("x" if c else "." for c in row) for row in corpus.pattern(snake_matrix(skip))]
    if got != ["xxxx.", "xxxx.", ".xxx.", ".xxxx", ".xxxx"]:
        problems.append(f"skipped-break pattern {got}")
    report(12, "both five-by-five window patterns reproduced exactly", problems)
