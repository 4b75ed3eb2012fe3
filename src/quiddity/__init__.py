"""Conway-Coxeter frieze patterns and their combinatorial equivalents.

Exact, integer-only tooling for quiddity sequences, SL2(Z) generator
words, frieze patterns of integers and of matrices, positive SL2-tilings,
polygon triangulations with their dual binary trees, supplements of basic
sequences, and the exact count K_n of dihedral similarity types.

Importing the package loads only the exception types.  Each submodule
(``quiddity.eta``, ``quiddity.similarity``, ...) loads on first access,
through the module ``__getattr__`` below, so a CLI process loads only the
modules its command runs.
"""

from .errors import (
    ContractionError,
    InconsistentFactorsError,
    InvalidSequenceError,
    NotAPositiveTilingError,
    NotQuiddityError,
    NotUnimodularError,
)

_SUBMODULES = ("eta", "frieze", "polygons", "similarity", "sl2", "supplements", "tiling")

__all__ = [
    *_SUBMODULES,
    "ContractionError",
    "InconsistentFactorsError",
    "InvalidSequenceError",
    "NotAPositiveTilingError",
    "NotQuiddityError",
    "NotUnimodularError",
]


def __getattr__(name):
    # Called only for names not yet set: importing a submodule binds it here.
    if name in _SUBMODULES:
        __import__(f"{__name__}.{name}")  # a plain import, so -X importtime times it
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
