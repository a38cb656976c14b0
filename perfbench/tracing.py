"""Spans and counters recorded around the layers' public functions.

``instrument`` swaps each public function named in ``TARGETS`` for a wrapper
that records a span, in every snakemod module that holds a reference to it,
and puts the originals back when it ends.  The library itself is unchanged:
only the traced run sees the wrappers.  Calls between layers go through the
same module attributes, so a span's children are the layer calls it made,
and a layer's self time is its span minus the time its children cover.

Spans stay in memory as tuples (id, parent, op, name, start_ns, end_ns) and
are written out when the run ends.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import snakemod as sm
from workloads import layer_sizes

_now = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        # op id -> counter name -> count
        self.counts: dict[str | None, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.stack: list[int] = []
        self.op: str | None = None
        self._next = 0

    @contextmanager
    def span(self, name: str, op: str | None = None):
        """A root or nested span opened by the benchmark itself."""
        if op is not None:
            self.op = op
        sid = self._next
        self._next += 1
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        start = _now()
        try:
            yield
        finally:
            end = _now()
            self.stack.pop()
            self.spans.append((sid, parent, self.op, name, start, end))

    def wrap(self, name: str, fn, post=None):
        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                self.stack.pop()
                self.spans.append((sid, parent, self.op, name, start, end))
            if post is not None:
                post(self.counts[self.op], args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_ms(self) -> dict[str | None, dict[str, float]]:
        """Self time per op id and span name, in ms."""
        covered: dict[int, int] = defaultdict(int)
        for sid, parent, op, name, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        busy: dict[str | None, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for sid, parent, op, name, start, end in self.spans:
            busy[op][name] += (end - start - covered[sid]) / 1e6
        return busy

    def durations_ms(self, name: str) -> list[float]:
        return [(end - start) / 1e6 for _, _, _, n, start, end in self.spans if n == name]

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tparent\top\tname\tstart_ns\tend_ns\n")
            for row in self.spans:
                fh.write("\t".join("" if v is None else str(v) for v in row) + "\n")


# --------------------------------------------------------------------------
# counters taken from call arguments and results, outside the span


def _path_layers(counts, snake) -> None:
    sizes = layer_sizes(snake)
    counts["paths.layer_paths"] += sum(sizes)
    counts["paths.compat_pairs"] += sum(a * b for a, b in zip(sizes, sizes[1:]))


def _post_dimension(counts, args, result) -> None:
    _path_layers(counts, args[0])


def _post_ell_weights(counts, args, result) -> None:
    _path_layers(counts, args[0])
    counts["paths.weights"] += len(result)
    counts["paths.tuples"] += _SNAKE_DIMENSION(args[0])  # unwrapped: no span


def _post_matrix(counts, args, result) -> None:
    counts["determinant.matrix_nonzeros"] += sum(
        result.size - row.count(None) for row in result.entries
    )


def _post_expansion(counts, args, result) -> None:
    counts["determinant.sigma_count"] += result.sigma_count
    counts["determinant.expansion_terms"] += len(result.terms)


def _post_ring(counts, args, result) -> None:
    counts["ring.terms"] += len(result.terms)


def _post_kl(counts, args, result) -> None:
    counts["category_o.kl_rows"] += len(result.rows)


def _post_factors(counts, args, result) -> None:
    counts["snakes.factors"] += len(result)


# (owner, attribute, span name, counter); an owner is a module or a class
TARGETS = [
    (sm.snakes, "diagnose", "snakes.diagnose", None),
    (sm.AlternatingSnake, "build", "snakes.build", None),
    (sm.AlternatingSnake, "prime_factors", "snakes.prime_factors", _post_factors),
    (sm.families, "snake_from_mu_lambda", "families.generate", None),
    (sm.families, "nested_prime_snake", "families.generate", None),
    (sm.LWeight, "from_generators", "lweight.normalize", None),
    (sm.StandardExpansion, "as_ring_element", "ring.as_ring_element", _post_ring),
    (sm.RingElement, "dimension", "ring.dimension", None),
    (sm.determinant, "snake_matrix", "determinant.snake_matrix", _post_matrix),
    (sm.determinant, "nonzero_permutations", "determinant.nonzero_permutations", None),
    (sm.determinant, "standard_expansion", "determinant.standard_expansion", _post_expansion),
    (sm.determinant, "det_laplace", "determinant.det_laplace", _post_ring),
    (sm.determinant, "det_leibniz", "determinant.det_leibniz", _post_ring),
    (sm.category_o, "kl_table", "category_o.kl_table", _post_kl),
    (sm.paths, "snake_dimension", "paths.snake_dimension", _post_dimension),
    (sm.paths, "ell_weights", "paths.ell_weights", _post_ell_weights),
]

_SNAKE_DIMENSION = sm.paths.snake_dimension


@contextmanager
def instrument(tracer: Tracer, extra=()):
    """Wrap every target (and ``extra`` targets) for the duration of the block."""
    undo = []
    modules = [m for name, m in sys.modules.items() if name == "snakemod" or name.startswith("snakemod.")]
    try:
        for owner, attr, name, post in [*TARGETS, *extra]:
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(tracer.wrap(name, raw.__func__, post)))
                else:
                    setattr(owner, attr, tracer.wrap(name, raw, post))
                undo.append((owner, attr, raw))
                continue
            original = getattr(owner, attr)
            wrapped = tracer.wrap(name, original, post)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapped)
                    undo.append((module, attr, original))
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
