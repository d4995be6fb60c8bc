"""Exact-arithmetic computations on free nilpotent groups and their symmetries.

Lyndon-word bases of free Lie algebras, truncated Baker-Campbell-Hausdorff
group arithmetic, Chevalley-Eilenberg homology with multiweight
refinement, derivation algebras of the identity-on-abelianization
automorphism subgroups, and a small polynomial GL-representation calculus,
all over exact rationals.

``import nilhom`` imports no submodule.  Names resolve on first use:
``nilhom.rep`` imports that submodule, and any other ``nilhom.X`` is the
``X`` of the first of exact_linalg, free_lie, lie_homology, aut, nilgroup
and rep whose ``__all__`` lists it.
"""

import importlib

__version__ = "0.1.0"

_PUBLIC_MODULES = ("exact_linalg", "free_lie", "lie_homology", "aut", "nilgroup", "rep")


def __getattr__(name: str):
    try:
        return importlib.import_module(f"{__name__}.{name}")
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise
    for module_name in _PUBLIC_MODULES:
        module = importlib.import_module(f"{__name__}.{module_name}")
        if name in module.__all__:
            value = globals()[name] = getattr(module, name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
