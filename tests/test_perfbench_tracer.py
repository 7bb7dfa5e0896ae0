"""Smoke test of the benchmark's traced pass against the current program.

``perfbench/tracer.py`` looks up ``CohClass.__mul__``, ``HLaurent.__mul__``
and ``NovikovScalar.__mul__`` in their class ``__dict__`` and wraps every
public module-level function of the toriq modules.  A refactor that moves or
renames those methods breaks the traced pass; this test catches it.
"""

import importlib.util
from pathlib import Path

import toriq.cli
from toriq.cohomring import CohClass
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
    finally:
        tracer.uninstall()
    assert code == 0
    assert "annihilation: ok" in capsys.readouterr().out
    metrics = tracer.metrics()
    assert metrics["cohomring.class_mul_calls"] > 0
    assert metrics["novikov.hlaurent_mul_calls"] > 0
    assert CohClass.__mul__ is class_mul
    assert HLaurent.__mul__ is laurent_mul
