"""Exact Boolean algebras of regular open sets and their covers."""

from .rationals import Rational, rat, parse_rat, rat_str
from .space import (
    Interval,
    Point,
    Space1D,
    Span,
    Region,
    canonicalize,
    ropen_join,
    ropen_meet,
    ropen_neg,
    decompose_space,
    subspace,
    embed,
    theta,
    random_regular_open,
)
from .finball import (
    FiniteBooleanAlgebra,
    FiniteDiscreteSpace,
    FinCover,
    gleason_cover,
    verify_projective_cover,
    unique_cover_homeomorphism,
    iso_check,
)
from .plmap import (
    Piece,
    PLMap,
    identity_map,
    plmap_from_breakpoints,
    is_irreducible,
)
from .cover_iso import (
    BooleanSide,
    Cover,
    PLMapBackend,
    CantorBackend,
    check_essential,
    compose_equivalence,
    verify_bridge,
)
from .cantor import (
    CantorClopen,
    cylinder,
    clopen_union,
    clopen_inter,
    clopen_compl,
    psi_c,
    phi_c,
    check_irreducible_cantor,
)
from .ideals import (
    PLFunc,
    RegIdeal,
    ideal_from_open,
    supp,
    in_ideal,
    annihilator,
    ideal_join,
    ideal_meet,
    ideal_neg,
    upsilon,
    omega,
    pullback,
    pl_supp,
    is_essential_extension,
)
from .boolequiv import descriptor, invariant, equivalent, from_space1d
from .exprlang import parse_expr, eval_expr

__version__ = "0.1.0"
