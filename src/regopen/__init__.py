"""Exact Boolean algebras of regular open sets and their covers.

The public names load on first use (PEP 562), so a command that needs one
module does not import the others.
"""

# public name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys(("Rational", "rat", "parse_rat", "rat_str"), "rationals"),
    **dict.fromkeys((
        "Interval", "Point", "Space1D", "Span", "Region", "canonicalize", "ropen_join", "ropen_meet",
        "ropen_neg", "decompose_space", "subspace", "embed", "theta", "random_regular_open",
    ), "space"),
    **dict.fromkeys((
        "FiniteBooleanAlgebra", "FiniteDiscreteSpace", "FinCover", "gleason_cover",
        "verify_projective_cover", "unique_cover_homeomorphism", "iso_check",
    ), "finball"),
    **dict.fromkeys(("Piece", "PLMap", "identity_map", "plmap_from_breakpoints", "is_irreducible"),
                    "plmap"),
    **dict.fromkeys((
        "BooleanSide", "Cover", "PLMapBackend", "CantorBackend", "check_essential",
        "compose_equivalence", "verify_bridge",
    ), "cover_iso"),
    **dict.fromkeys((
        "CantorClopen", "cylinder", "clopen_union", "clopen_inter", "clopen_compl", "psi_c", "phi_c",
        "check_irreducible_cantor",
    ), "cantor"),
    **dict.fromkeys((
        "PLFunc", "RegIdeal", "ideal_from_open", "supp", "in_ideal", "annihilator", "ideal_join",
        "ideal_meet", "ideal_neg", "upsilon", "omega", "pullback", "pl_supp",
    ), "ideals"),
    **dict.fromkeys(("descriptor", "invariant", "equivalent", "from_space1d"), "boolequiv"),
    **dict.fromkeys(("parse_expr", "eval_expr"), "exprlang"),
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
