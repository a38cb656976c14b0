"""Exact combinatorics of alternating snakes for quantum affine sl(n+1).

Interval weight arithmetic, snake validation and prime factorization,
determinantal expansions of irreducible classes over standard classes,
the weight set and dimension of the lattice-path model, and the induced
Kazhdan-Lusztig coefficient tables for category O of gl_r.  The
independent oracles that check these (explicit lattice paths, cell
lookups in the snake matrix, a permutation sign by inversions) live
with the tests.

A public name, or a module such as ``snakemod.determinant``, is imported on
first use (PEP 562), so a CLI process loads only what its subcommand runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# each module and the public names it defines
_EXPORTS = {
    "errors": (
        "FamilyConstraintError",
        "InternalCheckError",
        "InvalidSnakeError",
        "MalformedIntervalError",
        "RankMismatchError",
        "UnsupportedSnakeError",
    ),
    "intervals": ("Interval", "as_interval", "is_connected_pair", "overlaps"),
    "lweight": (
        "LWeight",
        "RootVector",
        "ell_root",
        "leq",
        "rectangle_root_product",
        "root_decompose",
    ),
    "ring": ("RingElement", "fundamental_class", "weyl_class"),
    "snakes": (
        "LEFT",
        "RIGHT",
        "AlternatingSnake",
        "Diagnostic",
        "cross_adjacent",
        "diagnose",
        "step_direction",
    ),
    "families": ("nested_prime_snake", "snake_from_mu_lambda"),
    "determinant": (
        "SnakeMatrix",
        "StandardExpansion",
        "derived_snake",
        "det_laplace",
        "det_leibniz",
        "expansion_dominated",
        "minor_identity_holds",
        "nonzero_permutations",
        "snake_matrix",
        "split_identity_holds",
        "standard_expansion",
    ),
    "paths": ("ell_weights", "snake_dimension"),
    "category_o": (
        "KLTable",
        "highest_weight_pair",
        "is_dominant_vector",
        "kl_table",
        "sorting_permutation",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        # importing a submodule binds it in this namespace
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
