"""Exact combinatorics of alternating snakes for quantum affine sl(n+1).

Interval weight arithmetic, snake validation and prime factorization,
determinantal expansions of irreducible classes over standard classes,
the weight set and dimension of the lattice-path model, and the induced
Kazhdan-Lusztig coefficient tables for category O of gl_r.  The
independent oracles that check these (explicit lattice paths, cell
lookups in the snake matrix, a permutation sign by inversions) live
with the tests.
"""

__version__ = "0.1.0"

from .errors import (
    FamilyConstraintError,
    InternalCheckError,
    InvalidSnakeError,
    MalformedIntervalError,
    RankMismatchError,
    UnsupportedSnakeError,
)
from .intervals import Interval, as_interval, is_connected_pair, overlaps
from .lweight import (
    LWeight,
    RootVector,
    ell_root,
    leq,
    rectangle_root_product,
    root_decompose,
)
from .ring import RingElement, fundamental_class, weyl_class
from .snakes import (
    LEFT,
    RIGHT,
    AlternatingSnake,
    Diagnostic,
    cross_adjacent,
    diagnose,
    step_direction,
)
from .families import nested_prime_snake, snake_from_mu_lambda
from .determinant import (
    SnakeMatrix,
    StandardExpansion,
    derived_snake,
    det_laplace,
    det_leibniz,
    expansion_dominated,
    minor_identity_holds,
    nonzero_permutations,
    snake_matrix,
    split_identity_holds,
    standard_expansion,
)
from .paths import ell_weights, snake_dimension
from .category_o import (
    KLTable,
    highest_weight_pair,
    is_dominant_vector,
    kl_table,
    sorting_permutation,
)

__all__ = [
    "AlternatingSnake",
    "Diagnostic",
    "FamilyConstraintError",
    "InternalCheckError",
    "Interval",
    "InvalidSnakeError",
    "KLTable",
    "LEFT",
    "LWeight",
    "MalformedIntervalError",
    "RIGHT",
    "RankMismatchError",
    "RingElement",
    "RootVector",
    "SnakeMatrix",
    "StandardExpansion",
    "UnsupportedSnakeError",
    "as_interval",
    "cross_adjacent",
    "derived_snake",
    "det_laplace",
    "det_leibniz",
    "diagnose",
    "ell_root",
    "ell_weights",
    "expansion_dominated",
    "fundamental_class",
    "highest_weight_pair",
    "is_connected_pair",
    "is_dominant_vector",
    "kl_table",
    "leq",
    "minor_identity_holds",
    "nested_prime_snake",
    "nonzero_permutations",
    "overlaps",
    "rectangle_root_product",
    "root_decompose",
    "snake_dimension",
    "snake_from_mu_lambda",
    "snake_matrix",
    "sorting_permutation",
    "split_identity_holds",
    "standard_expansion",
    "step_direction",
    "weyl_class",
]
