"""Smoke test of the benchmark's traced pass against the current program.

``perfbench/tracer.py`` looks up ``CohClass.__mul__``, ``HLaurent.__mul__``
and ``NovikovScalar.__mul__`` in their class ``__dict__`` and wraps every
public module-level function of the toriq modules.  A refactor that moves or
renames those methods breaks the traced pass; this test catches it.  So does
a new public helper in ``polynomials`` or ``batyrev``: it would be wrapped,
and a helper called in the completion's inner loops would slow the traced
pass.
"""

import importlib.util
import sys
from pathlib import Path

import toriq.cli
from toriq.catalog import builtin_fan
from toriq.cohomring import CohClass, build_cohomology_ring
from toriq.novikov import HLaurent

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_class_products_and_restores(capsys):
    tracer = _load_tracer().Tracer()
    class_mul = CohClass.__dict__["__mul__"]
    laurent_mul = HLaurent.__dict__["__mul__"]
    tracer.install()
    try:
        assert CohClass.__mul__ is not class_mul
        code = toriq.cli.main(["ifunction", "--fan", "P2", "--cutoff", "3"])
        # the series and the ring build run on integer numerators, so
        # multiply two classes and two HLaurents
        ring = build_cohomology_ring(builtin_fan("P2"))
        ring.divisors[0] * ring.divisors[1]
        HLaurent.one(ring) * HLaurent.of_class(ring.divisors[0], -1)
    finally:
        tracer.uninstall()
    assert code == 0
    assert "annihilation: ok" in capsys.readouterr().out
    metrics = tracer.metrics()
    assert metrics["cohomring.class_mul_calls"] > 0
    assert metrics["novikov.hlaurent_mul_calls"] > 0
    assert CohClass.__mul__ is class_mul
    assert HLaurent.__mul__ is laurent_mul


# The coarse functions of the Groebner layers that the tracer wraps; the
# leaf helpers are in its NOT_WRAPPED.
WRAPPED_ENGINE = {
    "batyrev.build_deformed_ideal", "batyrev.certify_isomorphism",
    "batyrev.complete", "batyrev.dp_reduce", "batyrev.module_matrices",
    "batyrev.relation_check", "polynomials.render_monomial",
    "polynomials.render_poly", "polynomials.standard_monomials",
}


def test_tracer_counts_certify_reductions(capsys):
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        code = toriq.cli.main(["certify", "--fan", "F1", "--cutoff", "3"])
    finally:
        tracer.uninstall()
    assert code == 0
    capsys.readouterr()
    assert tracer.metrics()["batyrev.dp_reduce_calls"] > 0
    assert "batyrev.completion_added" in tracer.results
    modules = {name: sys.modules[f"toriq.{name}"]
               for name in tracer_module.LAYERS}
    wrapped = {name for name, *_ in tracer_module._wrap_targets(modules)
               if name.split(".")[0] in ("polynomials", "batyrev")}
    assert wrapped == WRAPPED_ENGINE
