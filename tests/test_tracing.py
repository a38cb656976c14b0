"""The benchmark's tracer wraps library functions by name.

Importing it here makes a renamed or deleted traced function fail the test
suite, not only a traced benchmark run.  The benchmark files are read, never
changed.
"""

import sys
from pathlib import Path

import pytest

from snakemod import AlternatingSnake, LWeight, StandardExpansion, category_o, determinant, paths

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
