"""chordlab: fat graphs, Sullivan chord diagrams, move-graph search and an
exact positive-boundary two-dimensional TQFT.

The package root imports no submodule: each name below, and each
submodule, loads the first time it is looked up (PEP 562), so the algebra
side (`tqft`, `formats`' frob v1) loads without the graph stack."""

import sys

_HOMES = {
    "fatgraph": ("FatGraph", "TopType", "boundary_cycles", "topological_type"),
    "chord": ("ChordDiagram", "canonical_gamma0", "glue"),
    "moves": ("explore", "path_to_canonical"),
    "tqft": ("FrobeniusAlgebra", "mu", "verify_gluing"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = ("errors", "fatgraph", "chord", "generate", "moves", "tqft",
               "formats", "cli")

__all__ = list(_HOME_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        # __import__, not importlib.import_module, so that -X importtime
        # lists the submodule
        __import__(f"{__name__}.{name}")
        return sys.modules[f"{__name__}.{name}"]
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__getattr__(_HOME_OF[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
