"""The result records are immutable named tuples, and importing the command
line does not load ``dataclasses`` or ``inspect``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import toriq
from toriq.batyrev import build_deformed_ideal, module_matrices
from toriq.catalog import builtin_fan
from toriq.cohomring import CohomRing, build_cohomology_ring
from toriq.fan import Fan, ValidationError, make_fan
from toriq.gkz import (
    extract_two_point_invariants,
    i_function,
    leading_terms,
)
from toriq.moricone import effectivity_witness, mori_data
from toriq.novikov import NovikovContext


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    src = str(Path(toriq.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, toriq.cli; "
         "print(' '.join(m for m in ('dataclasses', 'inspect') "
         "if m in sys.modules))"],
        capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == ""


def _records():
    """One of each record, from P2 at cutoff 2; the first three need a
    ``__dict__`` for their cached properties."""
    fan = builtin_fan("P2")
    md = mori_data(fan)
    ring = build_cohomology_ring(fan)
    I = i_function(ring, md, 2)
    ideal = build_deformed_ideal(md, ring, 2)
    return [fan, md, ring,
            md.collections[0], effectivity_witness(fan, md.collections[0]),
            I.ctx, ideal, module_matrices(ideal), leading_terms(I),
            extract_two_point_invariants(ring, I)]


def test_record_fields_are_read_only():
    records = _records()
    assert len({type(r) for r in records}) == 10
    for i, record in enumerate(records):
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
        # only the records with cached properties take new attributes
        assert hasattr(record, "__dict__") == (i < 3), type(record)


def test_fan_validates_every_construction():
    with pytest.raises(ValidationError, match="not primitive"):
        make_fan(2, [(2, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValidationError, match="wrong length"):
        Fan(dim=2, rays=((1, 0, 0), (0, 1), (-1, -1)),
            max_cones=((0, 1), (1, 2), (0, 2)))
    with pytest.raises(ValidationError, match="dimension must be positive"):
        Fan(0, (), ())
    fan = Fan(dim=1, rays=((1,), (-1,)), max_cones=((0,), (1,)))
    assert fan.name == "" and fan == make_fan(1, [(1,), (-1,)], [(0,), (1,)])


def test_novikov_context_repr_and_equality():
    ctx = NovikovContext(n_rays=2, ell=(1, 1), cutoff=3)
    assert repr(ctx) == "NovikovContext(n_rays=2, ell=(1, 1), cutoff=3)"
    assert ctx == NovikovContext(2, (1, 1), 3)
    assert ctx != NovikovContext(2, (1, 1), 2)
    assert ctx._replace(cutoff=2) == NovikovContext(2, (1, 1), 2)


def test_cached_properties_are_computed_once():
    fan, md, ring = _records()[:3]
    for record, name in ((fan, "cone_inverses"),
                         (md, "generator_inverse"),
                         (ring, "divisors")):
        first = getattr(record, name)
        assert getattr(record, name) is first
        assert vars(record)[name] is first


def test_cohom_ring_var_names_default():
    ring = build_cohomology_ring(builtin_fan("P1"))
    bare = CohomRing(*ring[:-1])
    assert bare.var_names == ()
    assert bare._replace(var_names=ring.var_names) == ring
