"""loctower: exact free-group word algorithms, Stallings subgroup graphs,
the commutator tower and its colimit group, abelianization via Smith normal
form, and finite-depth p-root adjunctions with Prüfer-group quotients."""

from .adjunction import (
    AdjunctionGroup,
    AmalgamElement,
    NonPerfectReport,
    TPower,
    adjoin_root,
    amalgam_identity,
    amalgam_invert,
    amalgam_multiply,
    amalgam_normalize,
    prufer_quotient_map,
    witness_nonperfect,
)
from .presentations import (
    AbelianInvariants,
    Presentation,
    abelianization,
    format_abelian_invariants,
    is_perfect,
    parse_presentation,
    relation_matrix,
    smith_normal_form,
    tower_truncation,
    triangle_group,
    triangle_is_finite,
)
from .roots import (
    RootDecomposition,
    centralizer_generator,
    commutes,
    kth_root,
    primitive_root,
)
from .stallings import SubgroupGraph, build_graph, contains, express, rank
from .tower import (
    RootCertificate,
    TowerElement,
    centralizer_compat,
    h_identity,
    h_inverse,
    h_multiply,
    has_p_root_in_H,
    normalize,
    phi,
    phi_preimage,
    promote,
    root_transfer,
)
from .words import (
    IDENTITY,
    IdentityWordError,
    Word,
    WordSyntaxError,
    commutator,
    cyclic_reduce,
    format_word,
    invert,
    multiply,
    parse_word,
    power,
    reduce,
    substitute,
    support,
    word,
)

__version__ = "0.1.0"
