"""The benchmark's tracer wraps library functions by name.

Importing it here makes a renamed or deleted traced function fail the test
suite, not only a traced benchmark run.  The benchmark files are read, never
changed.  The public surface is pinned here too: the names the benchmark
reads stay, and the oracles that moved to the tests stay out of the library.
"""

import sys
from pathlib import Path

import pytest

import snakemod
from snakemod import (
    AlternatingSnake,
    Interval,
    LWeight,
    SnakeMatrix,
    StandardExpansion,
    category_o,
    determinant,
    paths,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WRAPPED = [
    (determinant, "standard_expansion"),
    (determinant, "det_leibniz"),
    (determinant, "nonzero_permutations"),
    (determinant, "snake_matrix"),
    (category_o, "kl_table"),
    (paths, "snake_dimension"),
]
WRAPPED_METHODS = [
    (LWeight, "from_generators"),
    (StandardExpansion, "as_ring_element"),
]


# the path-model oracles and the public permutation sign: test code, not library
MOVED = [
    "LatticePath",
    "CornerSet",
    "enumerate_paths",
    "_lattice_path",
    "corner_set",
    "path_weight",
    "_stacked_downs",
    "noncrossing_tuples",
    "dominant_ell_weights",
    "permutation_sign",
]
# read by perfbench/ without a wrapper: a rename would otherwise fail only a benchmark run
BENCHMARK_READS = [
    (SnakeMatrix, "entries"),
    (Interval, "as_pair"),
    (Interval, "shifted"),
    (snakemod, "det_leibniz"),
    (snakemod, "det_laplace"),
    (snakemod, "snake_matrix"),
    (snakemod, "expansion_dominated"),
]


def test_all_names_resolve_once():
    assert len(snakemod.__all__) == len(set(snakemod.__all__))
    assert [name for name in snakemod.__all__ if not hasattr(snakemod, name)] == []


def test_moved_names_left_the_library():
    for module in (snakemod, paths, determinant):
        assert [name for name in MOVED if hasattr(module, name)] == [], module.__name__
    assert not hasattr(SnakeMatrix, "entry")
    assert not hasattr(SnakeMatrix, "pattern")


def test_benchmark_names_exist():
    missing = [f"{o.__name__}.{name}" for o, name in BENCHMARK_READS if not hasattr(o, name)]
    assert missing == []


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    yield tracing
    for name in ("tracing", "workloads"):
        sys.modules.pop(name, None)


def test_instrument_records_spans_and_restores(tracing):
    # the README's worked example; its pair for the KL table, which the
    # example itself is refused
    s = AlternatingSnake.build([[0, 4], [-1, 1], [1, 2], [2, 3]], [1, 2, 4], 5)
    pair = AlternatingSnake.single_run([[0, 2], [-1, 1]], 2)
    before = [getattr(owner, name) for owner, name in WRAPPED]
    before_methods = [cls.__dict__[name] for cls, name in WRAPPED_METHODS]
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        determinant.standard_expansion(s)
        determinant.det_leibniz(determinant.snake_matrix(s))
        determinant.nonzero_permutations(determinant.snake_matrix(s))
        category_o.kl_table(pair)
        determinant.standard_expansion(pair).as_ring_element()
        paths.snake_dimension(pair)
        # the expansion builds its weights without from_generators, which the snake's weight uses
        s.weight()
    names = {span[3] for span in tracer.spans}
    assert {
        "determinant.standard_expansion",
        "determinant.det_leibniz",
        "determinant.nonzero_permutations",
        "determinant.snake_matrix",
        "category_o.kl_table",
        "lweight.normalize",
        "ring.as_ring_element",
        "paths.snake_dimension",
    } <= names
    # the benchmark's per-layer split attributes the dimension's matrix to it
    (dimension_id,) = [sid for sid, _, _, name, _, _ in tracer.spans if name == "paths.snake_dimension"]
    children = {name for _, parent, _, name, _, _ in tracer.spans if parent == dimension_id}
    assert "determinant.snake_matrix" in children
    assert [getattr(owner, name) for owner, name in WRAPPED] == before
    assert [cls.__dict__[name] for cls, name in WRAPPED_METHODS] == before_methods
