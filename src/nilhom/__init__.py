"""Exact-arithmetic computations on free nilpotent groups and their symmetries.

Lyndon-word bases of free Lie algebras, truncated Baker-Campbell-Hausdorff
group arithmetic, Chevalley-Eilenberg homology with multiweight
refinement, derivation algebras of the identity-on-abelianization
automorphism subgroups, and a small polynomial GL-representation calculus,
all over exact rationals.
"""

from .exact_linalg import (
    RationalMatrix,
    determinant,
    exp_nilpotent,
    invert,
    nullspace_basis,
    rank,
)
from .free_lie import (
    HallBasis,
    LieElement,
    NotLieElementError,
    TensorElement,
    bracket,
    dynkin,
    expand_to_tensor,
    generator,
    hall_basis,
    induced_map_lie,
    lyndon_words,
    witt_dimension,
)
from .lie_homology import (
    GradedLieAlgebra,
    betti_number,
    betti_numbers,
    free_nilpotent_lie,
    group_betti,
    lower_central_series_dims,
    nilpotency_class,
    weighted_betti,
)
from .aut import (
    DerivationMatrix,
    LieAutomorphism,
    automorphism_from_gl,
    derivation_from_images,
    gl_conjugation_on_ia,
    ia_basis_pairs,
    ia_betti,
    ia_lie_algebra,
)
from .nilgroup import (
    MalcevElement,
    adjoint_matrix,
    center_basis,
    group_commutator,
    group_generator,
    group_identity,
    inner_action,
    inverse,
    lcs_ranks,
    malcev_element,
    multiply,
)
from .rep import (
    Const,
    DualStd,
    HomStd,
    Lie,
    NotCharacterError,
    ReprExpr,
    Std,
    Sum,
    Tensor,
    Wedge,
    WeightModule,
    action_matrix,
    coinvariants_dim,
    degree_estimate,
    evaluate,
    expr_text,
    lie_interval,
    parse_expr,
    schur_decompose_gl2,
    weight_dominance_compare,
)

__version__ = "0.1.0"
