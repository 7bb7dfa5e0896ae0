"""Smoke test of the benchmark's traced pass against the current program.

``perfbench/tracer.py`` looks up ``CohClass.__mul__``, ``HLaurent.__mul__``
and ``NovikovScalar.__mul__`` in their class ``__dict__`` and wraps every
public module-level function of the toriq modules.  A refactor that moves or
renames those methods breaks the traced pass; this test catches it.  So does
a new public helper in ``polynomials`` or ``batyrev``: it would be wrapped,
and a helper called in the completion's inner loops would slow the traced
pass.

No code in ``toriq`` calls ``HLaurent.__mul__``, which stays for that lookup
alone, so the test multiplies two HLaurents, each built by the one
constructor from its buckets, to keep its count above zero.

``Tracer.install`` reads every layer from ``sys.modules``, and the benchmark
installs it after a pass's first case, an ``analyze``, which does not run
the series and Groebner layers.  Those layers are registered through
``importlib.util.LazyLoader`` rather than imported inside functions so that
they are in ``sys.modules`` all the same; a fresh interpreter that runs
``analyze``, installs the tracer and then runs ``certify`` guards that.
"""

import importlib.util
import json
import os
import subprocess
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
        HLaurent(ring, {0: ring.one()}) * HLaurent(ring, {0: ring.divisors[0]})
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


# Installs the tracer after analyze, as the benchmark does, then certifies.
AFTER_ANALYZE = """
import contextlib, importlib.util, io, json, sys
from toriq.cli import main
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer_module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_module)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["analyze", "--fan", "P2"])]
    tracer = tracer_module.Tracer()
    tracer.install()
    wrapped = [(owner, attr) for owner, attr, _ in tracer._restore]
    try:
        codes.append(main(["certify", "--fan", "P2", "--cutoff", "3"]))
    finally:
        tracer.uninstall()
metrics = tracer.metrics()
json.dump({"codes": codes,
           "i_function_calls": metrics["gkz.i_function_calls"],
           "module_matrices_calls": metrics["batyrev.module_matrices_calls"],
           "wrapped": sorted({f"{getattr(owner, '__name__', owner)}.{attr}"
                              for owner, attr in wrapped}),
           "left_wrapped": [f"{owner}.{attr}" for owner, attr in wrapped
                            if hasattr(getattr(owner, attr), "__wrapped__")]},
          sys.stderr)
"""


def test_tracer_installs_after_analyze_and_restores():
    src = str(Path(toriq.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", AFTER_ANALYZE, str(TRACER)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stderr)
    assert result["codes"] == [0, 0]
    assert result["i_function_calls"] == 1
    assert result["module_matrices_calls"] == 1
    assert {"toriq.gkz.i_function", "toriq.batyrev.module_matrices",
            "toriq.batyrev.dp_reduce"} <= set(result["wrapped"])
    assert result["left_wrapped"] == []
