"""Exact-arithmetic quantum-deformation certificates for smooth complete fans.

Given a smooth complete fan, the package computes its primitive collections
and Mori cone, the rational cohomology ring with Poincare pairing, the
GKZ-type hypergeometric series over the truncated Novikov ring, and the
quantum-deformed Stanley-Reisner module -- and emits a machine-checkable
certificate replaying the comparison between the deformed module and the
quantum module at a chosen truncation order.  Everything runs on Python ints,
with a Fraction only on request or for a non-unit Groebner lead; no floats.

The combinatorial layers, ``fan``, ``lattice``, ``catalog`` and
``moricone``, load with the package.  Six modules load on first use: the
series and Groebner layers, ``polynomials``, ``novikov``, ``cohomring``,
``gkz`` and ``batyrev``, and ``report``, which builds and renders the
``ifunction`` and ``certify`` reports from them.  Each is registered
through ``importlib.util.LazyLoader``, so its module object is in
``sys.modules`` and on the package from import, and its body is compiled
and run on its first attribute access.  Fan ingestion and ``analyze``,
which ``cli`` holds, run none of them.  Unlike a function-local import,
this keeps them in ``sys.modules`` from the start, where the benchmark's
tracer looks up every layer.  The package's names from those modules
resolve through the module ``__getattr__``; ``report`` exports none.
"""

import importlib.util
import sys

from .fan import Fan, make_fan, validate_complete, validate_smooth
from .catalog import CATALOG, builtin_fan
from .moricone import enumerate_effective, mori_data

# the modules loaded on first use, each with the names the package exports
_LAZY = {
    "polynomials": (),
    "novikov": (),
    "cohomring": ("build_cohomology_ring", "divisor_class", "integrate"),
    "gkz": ("i_function", "leading_terms", "annihilation_certificate"),
    "batyrev": ("build_deformed_ideal", "module_matrices",
                "certify_isomorphism"),
    "report": (),
}
for _name in _LAZY:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_module)
    globals()[_name] = sys.modules[_spec.name] = _module
del _name, _spec, _module
_EXPORTED_BY = {attr: module for module, attrs in _LAZY.items()
                for attr in attrs}


def __getattr__(name):
    """An exported name of a lazy module, read from it (which loads it)."""
    if name in _EXPORTED_BY:
        return getattr(globals()[_EXPORTED_BY[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = ["Fan", "make_fan", "validate_smooth", "validate_complete",
           "CATALOG", "builtin_fan", "mori_data", "enumerate_effective",
           *_EXPORTED_BY]

__version__ = "0.1.0"
