import functools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import toriq
import toriq.batyrev
import toriq.cli
import toriq.cohomring
import toriq.gkz
import toriq.lattice
import toriq.novikov
import toriq.report
from toriq.cli import (
    SCHEMA,
    ParseError,
    _dumps,
    exit_code_for,
    fan_from_dict,
    ingest,
    main,
    run_analyze,
)
from toriq.catalog import CATALOG, builtin_fan
from toriq.fan import Fan, ValidationError
from toriq.gkz import i_function
from toriq.moricone import mori_data
from toriq.report import novikov_monomial_str, run_certify, run_ifunction

import oracles
from oracles import perturbed_series
from test_golden import FAN_FILES


def validate_report(report):
    """Structural check of the documented schema; used by the round-trip test."""
    assert report["schema"] == SCHEMA
    assert report["command"] in ("analyze", "ifunction", "certify")
    fan = report["fan"]
    for key in ("name", "dim", "rays", "max_cones"):
        assert key in fan
    if report["command"] == "analyze":
        for key in ("validation", "euler_characteristic", "cohomology",
                    "primitive_collections", "mori"):
            assert key in report
    elif report["command"] == "ifunction":
        for key in ("cutoff", "i_function", "leading_terms",
                    "two_point_invariants", "annihilation", "failures"):
            assert key in report
    else:
        for key in ("cutoff", "semipositive", "certificate"):
            assert key in report
    return True


def run(capsys, *argv):
    """(exit code, stdout, stderr) of main(argv), help and usage included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_f2(capsys):
    code, out, _ = run(capsys, "analyze", "--fan", "F2")
    assert code == 0
    assert "semipositive: true" in out
    assert "P={1,3}" in out and "P={2,4}" in out
    assert "class=(1, -2, 1, 0)" in out


def test_analyze_f3(capsys):
    code, out, _ = run(capsys, "analyze", "--fan", "F3")
    assert code == 0
    assert "semipositive: false" in out


def test_analyze_p2_fano(capsys):
    code, out, _ = run(capsys, "analyze", "--fan", "P2")
    assert code == 0
    assert out.count("P={") == 1
    assert "-K.beta=3" in out
    assert "fano: true" in out


def test_ifunction_p2(capsys):
    code, out, _ = run(capsys, "ifunction", "--fan", "P2", "--cutoff", "2")
    assert code == 0
    assert "<1 psi^4, 1> at (1, 1, 1) = 6" in out
    assert "<x1 psi^3, 1> at (1, 1, 1) = -3" in out
    assert "<x1^2 psi^2, 1> at (1, 1, 1) = 1" in out
    assert "annihilation: ok" in out


def test_ifunction_f2_i0_true(capsys):
    code, out, _ = run(capsys, "ifunction", "--fan", "F2", "--cutoff", "2")
    assert code == 0
    assert "leading term I0 == 1: true" in out


def test_ifunction_f3_i0_false(capsys):
    code, out, _ = run(capsys, "ifunction", "--fan", "F3", "--cutoff", "2")
    assert code == 0
    assert "leading term I0 == 1: false" in out
    assert "two-point invariants: skipped" in out


def test_certify_f2_golden_star(capsys):
    code, out, _ = run(capsys, "certify", "--fan", "F2", "--cutoff", "3")
    assert code == 0
    assert "x1 * x1 = q1*q2 - 2*q1*x1*x2" in out
    assert "x2 * x2 = q2 - 2*x1*x2" in out
    assert "verdict: certified" in out


def test_certify_f3_exit3(capsys):
    code, out, _ = run(capsys, "certify", "--fan", "F3", "--cutoff", "3")
    assert code == 3
    assert "not semipositive" in out


def test_certify_p1(capsys):
    code, out, _ = run(capsys, "certify", "--fan", "P1", "--cutoff", "3")
    assert code == 0
    assert "x1 * x1 = q1" in out
    assert "verdict: certified" in out


def test_deterministic_output(capsys):
    for fmt in ("text", "json"):
        _, out1, _ = run(capsys, "certify", "--fan", "F2", "--format", fmt)
        _, out2, _ = run(capsys, "certify", "--fan", "F2", "--format", fmt)
        assert out1 == out2


def test_json_roundtrip_all_commands(capsys):
    for cmd in ("analyze", "ifunction", "certify"):
        code, out, _ = run(capsys, cmd, "--fan", "F2", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert validate_report(report)
        assert json.loads(json.dumps(report)) == report
        assert report["schema"] == "toriq/1"


JSON_EDGE_CASES = [
    {}, [], "", 0, None, True, False, {"": []}, [[]], [{}], [[[], {}]],
    {"a": {"b": {"c": []}}}, [None, True, False, -1, 0, 1],
    2 ** 64 + 1, -(2 ** 100), [2 ** 63, -(2 ** 63) - 1],
    'quote " backslash \\ slash / ',
    "".join(map(chr, range(32))) + "\x7f",
    "caf\u00e9 \u2028 \U0001f600 \ud800",
    {'key "with" \\ \n and \u00e9': ["\t", {"\u0000": "\U0001f600"}]},
]


@pytest.mark.parametrize("obj", JSON_EDGE_CASES)
def test_report_writer_matches_stdlib(obj):
    assert _dumps(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [1.5, (1, 2), {1: 2}, {None: "a"},
                                 {True: 1}, {(1,): 2}, [{"a": 0.0}],
                                 {"a": [(1,)]}, {"a"}])
def test_report_writer_rejects_other_types(obj):
    with pytest.raises(TypeError):
        _dumps(obj)


def test_json_rationals_are_strings(capsys):
    _, out, _ = run(capsys, "ifunction", "--fan", "P2", "--cutoff", "2",
                    "--format", "json")
    report = json.loads(out)
    for entry in report["two_point_invariants"]["entries"]:
        assert isinstance(entry["value"], str)
    assert any(e["value"] == "1/8"
               for e in report["two_point_invariants"]["entries"])


def test_ingest_from_file(tmp_path, capsys):
    data = {"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
            "max_cones": [[1, 2], [2, 3], [1, 3]], "name": "myP2"}
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "analyze", "--fan", str(path))
    assert code == 0
    assert "myP2" in out
    fan = ingest(str(path))
    assert fan.rays == builtin_fan("P2").rays


def test_ingest_rejects_non_primitive(tmp_path, capsys):
    data = {"dim": 2, "rays": [[2, 0], [0, 1], [-1, -1]],
            "max_cones": [[1, 2], [2, 3], [1, 3]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "analyze", "--fan", str(path))
    assert code == 2
    assert "primitive" in err


def test_ingest_rejects_non_smooth(tmp_path, capsys):
    data = {"dim": 2, "rays": [[1, 0], [1, 2], [-1, -1], [0, -1]],
            "max_cones": [[1, 2], [2, 3], [3, 4], [4, 1]]}
    path = tmp_path / "sing.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "analyze", "--fan", str(path))
    assert code == 2
    assert "smooth" in err


@pytest.mark.parametrize("rays,cones,message", [
    ([[1, 0], [0, 1], [-1, -1]], [[1, 2, 3]],
     "maximal cone (1, 2, 3) has 3 rays, expected 2"),
    ([[1, 0], [0, 1], [-1, -1]], [[1, 1], [2, 3], [1, 3]],
     "repeated ray index in cone (1, 1)"),
    ([[1, 0], [0, 1], [-1, -1], [1, 1]], [[1, 2], [2, 3], [1, 3]],
     "rays [4] appear in no maximal cone"),
    ([[1, 0], [0, 1], [-1, -1], [1, 0]], [[1, 2], [2, 3], [3, 1]],
     "ray 4 (1, 0) repeats ray 1"),
    ([[0, 0], [0, 1], [-1, -1]], [[1, 2], [2, 3], [3, 1]], "ray 1 is zero"),
    ([[1, 0, 0], [0, 1], [-1, -1]], [[1, 2], [2, 3], [3, 1]],
     "ray 1 (1, 0, 0) has wrong length 3, expected 2"),
    ([[2, 0], [0, 1], [-1, -1]], [[1, 2], [2, 3], [3, 1]],
     "ray 1 (2, 0) is not primitive (gcd 2)"),
], ids=["cone-size", "repeated-index", "unused-ray", "repeated-ray",
        "zero-ray", "ray-length", "non-primitive-ray"])
def test_fan_shape_errors_count_from_one(tmp_path, capsys, rays, cones,
                                         message):
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({"dim": 2, "rays": rays, "max_cones": cones}))
    assert run(capsys, "analyze", "--fan", str(path)) == (
        2, "", f"input error: {message}\n")


def test_non_object_fan_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "fan.json"
    path.write_text("[]")
    assert run(capsys, "analyze", "--fan", str(path)) == (
        2, "", f"input error: {path}: expected a JSON object\n")


# smooth cones, two at every wall and wall-connected, yet the cones at
# wall (1, 5) lie on one side of it: some directions lie in three cones and
# some in none
OVERLAPPING_CONES = {
    "dim": 3,
    "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1], [1, 0, 1],
             [1, 1, 0], [2, 1, 2]],
    "max_cones": [[5, 6, 7], [1, 2, 5], [2, 5, 6], [2, 3, 6], [3, 6, 7],
                  [3, 1, 7], [1, 7, 5], [1, 2, 4], [2, 3, 4], [1, 3, 4]]}


@pytest.mark.parametrize("command", ["analyze", "ifunction", "certify"])
def test_overlapping_cones_are_input_error(tmp_path, capsys, command):
    path = tmp_path / "overlap.json"
    path.write_text(json.dumps(OVERLAPPING_CONES))
    code, out, err = run(capsys, command, "--fan", str(path))
    assert code == 2
    assert err == ("input error: fan is not complete: "
                   "the cones at wall (1, 5) overlap\n")
    assert "Traceback" not in err
    assert out == ""


# smooth cones, two on opposite sides of every wall and wall-connected, yet
# the cycle winds twice around the origin
DOUBLE_WINDING = {
    "dim": 2,
    "rays": [[1, 0], [0, 1], [-1, -2], [2, 3], [-1, -1], [0, -1]],
    "max_cones": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 1]]}


@pytest.mark.parametrize("command", ["analyze", "ifunction", "certify"])
def test_double_winding_fan_is_input_error(tmp_path, capsys, command):
    path = tmp_path / "double.json"
    path.write_text(json.dumps(DOUBLE_WINDING))
    code, out, err = run(capsys, command, "--fan", str(path))
    assert code == 2
    assert err == ("input error: fan is not complete: "
                   "its cones cover space 2 times, expected once\n")
    assert "Traceback" not in err
    assert out == ""


# two copies of P2 on disjoint ray sets
TWO_COPIES = {
    "dim": 2,
    "rays": [[1, 0], [0, 1], [-1, -1], [1, 1], [-1, 0], [0, -1]],
    "max_cones": [[1, 2], [2, 3], [1, 3], [4, 5], [5, 6], [4, 6]]}


@pytest.mark.parametrize("command", ["analyze", "ifunction", "certify"])
def test_disconnected_fan_is_input_error(tmp_path, capsys, command):
    path = tmp_path / "two.json"
    path.write_text(json.dumps(TWO_COPIES))
    code, out, err = run(capsys, command, "--fan", str(path))
    assert code == 2
    assert err == ("input error: fan is not complete: "
                   "maximal cones are not wall-connected\n")
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("cut", [True, False])
@pytest.mark.parametrize("command", ["analyze", "ifunction", "certify"])
def test_pinwheel_threefold_is_input_error(tmp_path, capsys, command, cut):
    # smooth and complete, so ingest accepts it; mori_data finds no
    # functional positive on its Mori cone
    path = tmp_path / "pinwheel.json"
    path.write_text(json.dumps(oracles.subdivided_p3((cut,) * 3)))
    start = time.perf_counter()
    code, out, err = run(capsys, command, "--fan", str(path))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == ("input error: no functional is >= 1 on all Mori "
                   "generators; fan is not projective\n")


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("command", ["analyze", "ifunction", "certify"])
def test_empty_fan_is_input_error(tmp_path, capsys, command, dim):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"dim": dim, "rays": [], "max_cones": []}))
    code, out, err = run(capsys, command, "--fan", str(path))
    assert code == 2
    assert err == "input error: fan is not complete: no maximal cones\n"
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("name", [None, 5, ["P1"]])
@pytest.mark.parametrize("command", ["analyze", "ifunction", "certify"])
def test_non_string_name_is_input_error(tmp_path, capsys, command, name):
    path = tmp_path / "named.json"
    path.write_text(json.dumps({"dim": 1, "rays": [[1], [-1]],
                                "max_cones": [[1], [2]], "name": name}))
    code, out, err = run(capsys, command, "--fan", str(path))
    assert code == 2
    assert err == f"input error: {path}: name must be a string\n"
    assert "Traceback" not in err
    assert out == ""


def test_absent_name_is_empty():
    fan = fan_from_dict({"dim": 1, "rays": [[1], [-1]],
                         "max_cones": [[1], [2]]})
    assert fan.name == ""


def test_ingest_rejects_bad_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "analyze", "--fan", str(path))
    assert code == 2


@pytest.mark.parametrize("data", [
    b"\xff\xfe{\x00}\x00",                    # UTF-16, not UTF-8
    b"[" * 100_000,                           # past the decoder's recursion
    b'{"dim": ' + b"9" * 5000 + b"}",         # past the int digit limit
], ids=["utf16", "deep", "digits"])
def test_ingest_rejects_undecodable_file(tmp_path, capsys, data):
    # each is an input error, not a traceback that exits 1
    path = tmp_path / "fan.json"
    path.write_bytes(data)
    code, out, err = run(capsys, "analyze", "--fan", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: {path} is not valid JSON: ")
    assert "Traceback" not in err


def test_ingest_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "--fan", "NoSuchFan")
    assert code == 2


def test_fan_from_dict_errors():
    with pytest.raises(ParseError):
        fan_from_dict({"dim": 2, "rays": [[1, 0]]})
    with pytest.raises(ParseError):
        fan_from_dict({"dim": 2, "rays": [[1, 0], [0, 1]],
                       "max_cones": [[1, 5]]})
    with pytest.raises(ValidationError):
        fan_from_dict({"dim": 1, "rays": [[1], [1]],
                       "max_cones": [[1], [2]]})


@pytest.mark.parametrize("data", [
    {"dim": True, "rays": [[1], [-1]], "max_cones": [[1], [2]]},
    {"dim": 1, "rays": [[True], [-1]], "max_cones": [[1], [2]]},
    {"dim": 1, "rays": [[1], [-1]], "max_cones": [[True], [2]]},
], ids=["dim", "ray-entry", "cone-index"])
def test_fan_from_dict_rejects_booleans(data):
    with pytest.raises(ParseError):
        fan_from_dict(data)


def test_all_catalog_commands_succeed(capsys):
    for name in CATALOG:
        code, _, _ = run(capsys, "analyze", "--fan", name)
        assert code == 0, name
        code, _, _ = run(capsys, "ifunction", "--fan", name, "--cutoff", "2")
        assert code == 0, name
        code, _, _ = run(capsys, "certify", "--fan", name, "--cutoff", "2")
        assert code == (3 if name == "F3" else 0), name


def test_exit_code_mapping():
    fan = builtin_fan("F2")
    assert exit_code_for(run_analyze(fan)) == 0
    assert exit_code_for(run_ifunction(fan, 2)) == 0
    assert exit_code_for(run_certify(fan, 2)) == 0
    assert exit_code_for(run_certify(builtin_fan("F3"), 2)) == 3


def test_non_simplicial_mori_cone_renders_vectors(tmp_path, capsys):
    # del Pezzo 7: five generators in a rank-3 lattice, so no generator
    # coordinates; Novikov monomials print as full b-vectors
    data = {"dim": 2,
            "rays": [[1, 0], [1, 1], [0, 1], [-1, -1], [0, -1]],
            "max_cones": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 1]],
            "name": "dP7"}
    path = tmp_path / "dp7.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "certify", "--fan", str(path), "--cutoff", "2")
    assert code == 0
    assert "verdict: certified" in out
    assert "q^(" in out
    code, out, _ = run(capsys, "ifunction", "--fan", str(path),
                       "--cutoff", "2")
    assert code == 0
    assert "leading term I0 == 1: true" in out


def test_q_monomial_with_negative_generator_coordinate_renders_vector():
    # g1 - g2 on P1xP2 is not a nonnegative combination of the generators
    md = mori_data(builtin_fan("P1xP2"))
    g1, g2 = md.generators
    assert novikov_monomial_str(md, (0,) * 5) == "1"
    assert novikov_monomial_str(md, g2) == "q2"
    assert novikov_monomial_str(
        md, tuple(2 * a + b for a, b in zip(g1, g2))) == "q1^2*q2"
    assert novikov_monomial_str(
        md, tuple(a - b for a, b in zip(g1, g2))) == "q^(1,1,-1,-1,-1)"


def test_cutoff_below_generator_ell_is_input_error():
    # run as a separate process so that an uncaught error shows as a traceback
    src = str(Path(toriq.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    for command, fan in (("ifunction", "P2"), ("certify", "F2")):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from toriq.cli import main; sys.exit(main())",
             command, "--fan", fan, "--cutoff", "0"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 2, (command, proc.stderr)
        assert proc.stderr.startswith("input error:"), command
        assert "Traceback" not in proc.stderr, command
        assert proc.stdout == ""


@pytest.mark.parametrize("text", ["x", "1.5", "", "-1"])
def test_bad_cutoff_is_usage_error(capsys, text):
    # one message for a non-integer and a negative cutoff, naming no
    # function of the parser
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--fan", "P2", "--cutoff", text])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "_nonneg_int" not in err
    assert err.endswith("argument --cutoff: cutoff must be a non-negative "
                        f"integer, got {text!r}\n")


def test_text_header_escapes_fan_name(tmp_path):
    # a name with a newline and a non-ASCII letter is written on one line
    # in ASCII, so an ASCII stdout neither raises nor splits the header
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({**FAN_FILES["dP6"], "name": "a\nbé"}))
    src = str(Path(toriq.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONIOENCODING": "ascii"}
    for command, header in (("analyze", "fan a\\nb\\xe9: dim 2"),
                            ("ifunction", "reduced series up to ell <= 2 "
                                          "(a\\nb\\xe9)"),
                            ("certify", "certification at cutoff 2 "
                                        "(a\\nb\\xe9)")):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from toriq.cli import main; sys.exit(main())",
             command, "--fan", str(path), "--cutoff", "2"],
            capture_output=True, text=True, encoding="utf-8", env=env)
        assert proc.returncode == 0, (command, proc.stderr)
        assert proc.stdout.isascii() and proc.stderr == "", command
        lines = proc.stdout.splitlines()
        assert lines[0].startswith(header), (command, lines[0])
        assert sum("a\\nb" in line for line in lines) == 1, command
        assert not any(line.startswith("b") for line in lines), command


@pytest.mark.parametrize("shift", [0, 1], ids=["same-degree", "other-degree"])
def test_corrupted_series_fails_ifunction_and_certify(monkeypatch, capsys,
                                                      shift):
    beta = (1, -1, 1, 0)

    def corrupted(ring, md, cutoff):
        return perturbed_series(i_function(ring, md, cutoff), beta, shift)

    monkeypatch.setattr(toriq.gkz, "i_function", corrupted)
    code, out, _ = run(capsys, "ifunction", "--fan", "F1")
    assert code == 1
    assert "annihilation: failed" in out
    assert "FAILURE: annihilation failed: operator of" in out
    assert f"leaves q^{beta} hbar^" in out
    code, out, err = run(capsys, "certify", "--fan", "F1")
    assert code == 1 and out == ""
    assert err.startswith("certificate failure: operator of")
    assert f"leaves q^{beta} hbar^" in err


def _ifunction_reports(capsys):
    """ifunction on P2 in text and JSON: (code, stdout) of each."""
    text = run(capsys, "ifunction", "--fan", "P2")
    js = run(capsys, "ifunction", "--fan", "P2", "--format", "json")
    assert text[2] == js[2] == ""
    return text[:2], js[:2]


def _check_failed_report(text, js, failure):
    (tcode, out), (jcode, raw) = text, js
    report = json.loads(raw)
    assert tcode == jcode == 1 and validate_report(report)
    assert report["failures"] == [failure]
    assert [row["class"] for row in report["i_function"]] == [
        [0, 0, 0], [1, 1, 1], [2, 2, 2], [3, 3, 3]]
    lines = out.splitlines()
    assert lines[0] == "reduced series up to ell <= 3 (P2)"
    assert "annihilation: ok" in lines
    assert lines[-1] == f"FAILURE: {failure}"


def test_ifunction_reports_a_leading_term_failure(monkeypatch, capsys):
    leading_terms = toriq.gkz.leading_terms
    monkeypatch.setattr(toriq.gkz, "leading_terms",
                        lambda I: leading_terms(I)._replace(i0_is_one=False))
    text, js = _ifunction_reports(capsys)
    failure = "leading term is not 1 on a semipositive fan"
    _check_failed_report(text, js, failure)
    assert "leading term I0 == 1: false" in text[1].splitlines()
    report = json.loads(js[1])
    assert report["leading_terms"]["i0_is_one"] is False
    assert report["two_point_invariants"]["status"] == "ok"


def test_ifunction_reports_a_two_point_failure(monkeypatch, capsys):
    def raising(ring, I):
        raise toriq.gkz.PositiveHbarPower(
            "coefficient of q^(1, 1, 1) has hbar^0 term")

    monkeypatch.setattr(toriq.gkz, "extract_two_point_invariants", raising)
    text, js = _ifunction_reports(capsys)
    failure = ("two-point extraction failed: coefficient of q^(1, 1, 1) "
               "has hbar^0 term")
    _check_failed_report(text, js, failure)
    lines = text[1].splitlines()
    assert "leading term I0 == 1: true" in lines
    assert "two-point invariants: failed" in lines
    assert "  reason: coefficient of q^(1, 1, 1) has hbar^0 term" in lines
    assert json.loads(js[1])["two_point_invariants"] == {
        "status": "failed",
        "reason": "coefficient of q^(1, 1, 1) has hbar^0 term"}


@pytest.mark.parametrize("command,fan,cutoff,dp_reduce_max", [
    ("analyze", "wdP3", 3, 156),
    ("certify", "dP6", 6, 83),
])
def test_command_work_is_pinned(monkeypatch, capsys, tmp_path, command, fan,
                                cutoff, dp_reduce_max):
    # one matrix inversion per maximal cone (9 on wdP3, 6 on dP6) plus the
    # Mori generators' inverse, not one per coordinate query; each ray's
    # divisor class made once per ring, not once per operator; and a
    # reduction only for the products of a variable and a basis monomial
    # that are neither standard nor a rule's lead
    calls = {"invert_int": 0, "dp_reduce": 0}

    def counting(name, real):
        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted

    monkeypatch.setattr(toriq.lattice, "invert_int",
                        counting("invert_int", toriq.lattice.invert_int))
    monkeypatch.setattr(toriq.batyrev, "dp_reduce",
                        counting("dp_reduce", toriq.batyrev.dp_reduce))
    path = tmp_path / f"{fan}.json"
    path.write_text(json.dumps(FAN_FILES[fan]))
    code, _, _ = run(capsys, command, "--fan", str(path), "--cutoff",
                     str(cutoff))
    assert code == 0
    assert calls["invert_int"] <= len(FAN_FILES[fan]["max_cones"]) + 1, calls
    assert calls["dp_reduce"] <= dp_reduce_max, calls


@pytest.mark.parametrize("command,counts", [
    ("certify", {"primitive_collections": 1, "mori_data": 1,
                 "build_cohomology_ring": 1, "i_function": 1,
                 "module_matrices": 1, "complete": 2}),
    ("ifunction", {"primitive_collections": 1, "mori_data": 1,
                   "build_cohomology_ring": 1, "i_function": 1,
                   "module_matrices": 0, "complete": 1}),
])
def test_each_artifact_made_once(monkeypatch, capsys, tmp_path, command,
                                 counts):
    # one search for the primitive collections, which the Mori cone and the
    # ring both read, one Mori cone, one ring, one series and one module per
    # command; the completions are the ring's and, for certify, the
    # deformed ideal's
    calls = dict.fromkeys(counts, 0)

    def counting(module, name, real):
        def counted(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, counted)

    real_search = Fan.primitive_collections.func

    def search(fan):
        calls["primitive_collections"] += 1
        return real_search(fan)

    search = functools.cached_property(search)
    search.__set_name__(Fan, "primitive_collections")
    monkeypatch.setattr(Fan, "primitive_collections", search)
    counting(toriq.report, "mori_data", toriq.report.mori_data)
    counting(toriq.cohomring, "build_cohomology_ring",
             toriq.cohomring.build_cohomology_ring)
    counting(toriq.gkz, "i_function", toriq.gkz.i_function)
    counting(toriq.batyrev, "module_matrices", toriq.batyrev.module_matrices)
    real = toriq.batyrev.complete
    counting(toriq.batyrev, "complete", real)
    counting(toriq.cohomring, "complete", real)
    path = tmp_path / "dP6.json"
    path.write_text(json.dumps(FAN_FILES["dP6"]))
    code, _, _ = run(capsys, command, "--fan", str(path), "--cutoff", "6")
    assert code == 0
    assert calls == counts


@pytest.mark.parametrize("make,eliminations", [
    (lambda: oracles.product_fan(oracles.wdp3(), oracles.wdp3()), 81),
    (oracles.p2xp2, 9),
])
def test_ingestion_eliminates_once_per_cone(monkeypatch, tmp_path, make,
                                            eliminations):
    # validation and the chart read each maximal cone's inverse, so the only
    # eliminations are one per cone (81 on wdP3xwdP3 and 9 on P2xP2, where a
    # determinant per cone and two per wall took 487 and 55)
    fan = make()
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({
        "dim": fan.dim, "rays": fan.rays,
        "max_cones": [[i + 1 for i in cone] for cone in fan.max_cones]}))
    calls = [0]
    real = toriq.lattice._eliminate

    def counted(M):
        calls[0] += 1
        return real(M)

    monkeypatch.setattr(toriq.lattice, "_eliminate", counted)
    ingest(str(path)).chart
    assert calls[0] == len(fan.max_cones) == eliminations


def test_analyze_builds_no_ring(monkeypatch):
    # the dimension is the number of maximal cones and the graded
    # dimensions the fan's h-vector, so no cohomology ring is built
    def forbidden(*args):
        raise AssertionError("analyze built a cohomology ring")

    monkeypatch.setattr(toriq.cohomring, "build_cohomology_ring", forbidden)
    report = run_analyze(oracles.wdp3())
    assert exit_code_for(report) == 0
    assert report["cohomology"] == {"dimension": 9,
                                    "graded_dimensions": [1, 7, 1]}


@pytest.mark.parametrize("command", ["ifunction", "certify"])
def test_insufficient_cutoff_fails_before_the_expensive_work(
        monkeypatch, capsys, tmp_path, command):
    def forbidden(*args):
        raise AssertionError("ran before the cutoff check")

    monkeypatch.setattr(toriq.batyrev, "build_deformed_ideal", forbidden)
    monkeypatch.setattr(toriq.gkz, "i_function", forbidden)
    path = tmp_path / "wdP3.json"
    path.write_text(json.dumps(FAN_FILES["wdP3"]))
    code, out, err = run(capsys, command, "--fan", str(path), "--cutoff", "3")
    assert (code, out) == (2, "")
    assert err == ("input error: box operator of (1, 0, 0, 0, 1, 0, 0, 0, 0) "
                   "needs cutoff >= 4, got 3\n")


# --- command-line parsing ------------------------------------------------------

# what argparse printed at 80 columns, before the parser was replaced
TOP_USAGE = "usage: toriq [-h] {analyze,ifunction,certify} ...\n"
TOP_HELP = TOP_USAGE + """
exact quantum-deformation certificates for toric fans

positional arguments:
  {analyze,ifunction,certify}
    analyze             combinatorial and cohomological analysis
    ifunction           series coefficients and annihilation certificate
    certify             deformed module and isomorphism certificate

options:
  -h, --help            show this help message and exit
"""
ANALYZE_USAGE = ("usage: toriq analyze [-h] --fan FAN [--cutoff CUTOFF] "
                 "[--format {text,json}]\n")
ANALYZE_HELP = ANALYZE_USAGE + """
options:
  -h, --help            show this help message and exit
  --fan FAN             builtin name (BlP2, F0, F1, F2, F3, P1, P1xP1, P1xP2,
                        P2) or path to a fan JSON file
  --cutoff CUTOFF       truncation degree for the series (default 3)
  --format {text,json}
"""
TOP_ERROR = TOP_USAGE + "toriq: error: "
ANALYZE_ERROR = ANALYZE_USAGE + "toriq analyze: error: "

USAGE_CASES = {
    "no-arguments": ([], 2, "", TOP_ERROR
                     + "the following arguments are required: command\n"),
    "-h": (["-h"], 0, TOP_HELP, ""),
    "--help": (["--help"], 0, TOP_HELP, ""),
    "unknown-command": (["frob", "--fan", "P2"], 2, "", TOP_ERROR
                        + "argument command: invalid choice: 'frob' (choose "
                        "from 'analyze', 'ifunction', 'certify')\n"),
    "no-fan": (["analyze"], 2, "", ANALYZE_ERROR
               + "the following arguments are required: --fan\n"),
    "command-h": (["analyze", "-h"], 0, ANALYZE_HELP, ""),
    "help-after-options": (["analyze", "--fan", "P2", "--help"], 0,
                           ANALYZE_HELP, ""),
    "fan-without-value": (["analyze", "--fan"], 2, "", ANALYZE_ERROR
                          + "argument --fan: expected one argument\n"),
    "option-as-value": (["analyze", "--fan", "--cutoff", "2"], 2, "",
                        ANALYZE_ERROR
                        + "argument --fan: expected one argument\n"),
    "bad-format": (["analyze", "--fan", "P2", "--format", "xml"], 2, "",
                   ANALYZE_ERROR + "argument --format: invalid choice: "
                   "'xml' (choose from 'text', 'json')\n"),
    "unknown-option": (["analyze", "--fan", "P2", "--bogus", "1"], 2, "",
                       TOP_ERROR + "unrecognized arguments: --bogus 1\n"),
    "extra-positional": (["analyze", "--fan", "P2", "extra"], 2, "",
                         TOP_ERROR + "unrecognized arguments: extra\n"),
    "ambiguous-prefix": (["analyze", "--f", "P2"], 2, "", ANALYZE_ERROR
                         + "ambiguous option: --f could match --fan, "
                         "--format\n"),
    "help-with-value": (["analyze", "--help=1"], 2, "", ANALYZE_ERROR
                        + "argument -h/--help: ignored explicit argument "
                        "'1'\n"),
}


@pytest.mark.parametrize("argv,code,out,err", USAGE_CASES.values(),
                         ids=USAGE_CASES.keys())
def test_usage_matches_argparse(monkeypatch, capsys, argv, code, out, err):
    # argparse wrapped its help to $COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, *argv) == (code, out, err)


@pytest.mark.parametrize("argv,canonical", [
    (["analyze", "--fan=P2", "--cut", "0"], ["analyze", "--fan", "P2"]),
    (["analyze", "--fan", "F2", "--fan", "P2"], ["analyze", "--fan", "P2"]),
    (["ifunction", "--fo=json", "--cutoff", "2", "--cut=1", "--fa", "P2"],
     ["ifunction", "--fan", "P2", "--cutoff", "1", "--format", "json"]),
], ids=["equals-and-prefix", "repeated-fan", "prefixes-any-order"])
def test_option_forms_are_accepted(capsys, argv, canonical):
    expected = run(capsys, *canonical)
    assert expected[0] == 0 and expected[1]
    assert run(capsys, *argv) == expected


def test_help_lists_the_catalog():
    text = " ".join(toriq.cli.COMMAND_HELP.split())
    assert f"builtin name ({', '.join(sorted(CATALOG))}) or path" in text


ENTRY = "import sys; from toriq.cli import main; sys.exit(main())"


def console(*argv, entry=ENTRY, **kwargs):
    """Run ``entry``, by default ``sys.exit(main())`` as the console script
    does it, in a fresh interpreter: main() is called with no argv.  Its
    stdout is block-buffered, as for a user's pipe, whatever this process
    was started with."""
    src = str(Path(toriq.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen([sys.executable, "-c", entry, *argv], env=env,
                            **kwargs)


def console_run(*argv, entry=ENTRY):
    """``(exit code, stdout, stderr)`` of ``console``, as text."""
    with console(*argv, entry=entry, stdout=subprocess.PIPE,
                 stderr=subprocess.PIPE, text=True) as proc:
        out, err = proc.communicate()
    return proc.returncode, out, err


@pytest.mark.parametrize("argv", [
    ["analyze", "--fan", "P2"],
    ["certify", "--fan", "F3", "--format", "json"],
    ["ifunction", "--fan", "F2", "--cutoff", "4", "--format", "json"],
    ["analyze", "--fan", "no-such-fan.json"],
], ids=["analyze", "certify-exit3", "ifunction", "input-error-exit2"])
def test_program_entry_matches_in_process(capsys, argv):
    # main() with no argv ends the process itself; its output and exit code
    # are those of main(argv)
    assert console_run(*argv) == run(capsys, *argv)


def test_program_entry_runs_atexit_handlers(capsys):
    # main() with no argv skips the interpreter's teardown, but not the
    # handlers registered before it
    entry = ("import atexit, sys; from toriq.cli import main; "
             "atexit.register(print, 'handler ran'); sys.exit(main())")
    code, out, err = run(capsys, "analyze", "--fan", "P2")
    assert console_run("analyze", "--fan", "P2", entry=entry) == \
        (code, out + "handler ran\n", err)


def test_program_entry_returns_under_a_tracer():
    entry = ("import sys; from toriq.cli import main; "
             "sys.settrace(lambda *args: None); code = main(); "
             "sys.settrace(None); print('returned', code); sys.exit(code)")
    code, out, err = console_run("certify", "--fan", "F3", entry=entry)
    assert (code, out.splitlines()[-1], err) == (3, "returned 3", "")


def test_profiler_writes_its_output(capsys, tmp_path):
    # under cProfile main() returns, so the profile is written at exit
    path = tmp_path / "analyze.prof"
    src = str(Path(toriq.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "cProfile", "-o", str(path), "-m", "toriq.cli",
         "analyze", "--fan", "P2"], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        run(capsys, "analyze", "--fan", "P2")
    assert path.stat().st_size > 0


def test_import_loads_no_argument_parser():
    src = str(Path(toriq.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, toriq.cli; print(sorted("
         "{'argparse', 'gettext', 'locale'} & set(sys.modules)))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


# the modules that toriq/__init__.py loads on first use: the series and
# Groebner layers, and the ifunction and certify reports that read them
LAZY = ("polynomials", "novikov", "cohomring", "gkz", "batyrev", "report")

# the stdlib's rational arithmetic, which no command loads on these fans
NUMERIC = ["decimal", "fractions", "numbers"]

# a lazy module is in sys.modules from import, a _LazyModule until it runs
LOADED_AFTER = """
import contextlib, io, json, sys, types
from toriq.cli import ingest, main
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    result = {call}
json.dump([result if type(result) is int else None,
           [name for name in {lazy!r}
            if type(sys.modules["toriq." + name]) is types.ModuleType],
           [name for name in {numeric!r} if name in sys.modules]],
          sys.stderr)
"""

# reads the package's names first, while the lazy modules are unloaded
PACKAGE_NAMES = """
import importlib, json, sys, toriq
exports = json.loads(sys.argv[1])
got = {name: getattr(toriq, name) for names in exports.values()
       for name in names}
star = {}
exec("from toriq import *", star)
json.dump([[name for module, names in exports.items() for name in names
            if got[name] is getattr(importlib.import_module("toriq." + module),
                                    name)],
           sorted(set(star) - {"__builtins__"}), toriq.__all__], sys.stderr)
"""


def _fresh(code, *argv):
    """Run ``code`` in a fresh interpreter on the package under test; return
    what it writes to stderr, read as JSON."""
    src = str(Path(toriq.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr)


@pytest.mark.parametrize("call,code,loaded", [
    ("ingest(sys.argv[1])", None, []),
    ("main(['analyze', '--fan', sys.argv[1]])", 0, []),
    ("main(['certify', '--fan', 'F3'])", 3, ["report"]),
    ("main(['ifunction', '--fan', sys.argv[1]])", 0, list(LAZY)),
    ("main(['certify', '--fan', 'F2', '--cutoff', '3'])", 0, list(LAZY)),
    ("main(['certify', '--fan', sys.argv[1], '--cutoff', '6'])", 0,
     list(LAZY)),
    ("main(['analyze', '--fan', sys.argv[2]])", 2, []),
], ids=["ingest", "analyze", "certify-not-semipositive", "ifunction",
        "certify-F2", "certify-dP6", "analyze-not-projective"])
def test_series_and_groebner_layers_load_on_first_use(tmp_path, call, code,
                                                      loaded):
    # the pinwheel has no positive functional: analyze exits 2 before
    # anything reaches the series layers; certify on a fan that is not
    # semipositive runs the report and no series layer; every layer is
    # integer-only on these fans, whose rules all have unit leads, so no
    # command loads fractions, decimal or numbers
    path = tmp_path / "dP6.json"
    path.write_text(json.dumps(FAN_FILES["dP6"]))
    pinwheel = tmp_path / "pinwheel.json"
    pinwheel.write_text(json.dumps(oracles.subdivided_p3((True,) * 3)))
    assert _fresh(LOADED_AFTER.format(call=call, lazy=LAZY, numeric=NUMERIC),
                  str(path), str(pinwheel)) == [code, loaded, []]


@pytest.mark.parametrize("fan,cutoff", [("F2", "3"), ("dP6", "6")])
def test_certify_builds_no_novikov_scalar(monkeypatch, capsys, tmp_path,
                                          fan, cutoff):
    # Batyrev's module is an integer table: certify renders it with no
    # NovikovScalar, so forbidding the constructor changes nothing
    if fan in FAN_FILES:
        path = tmp_path / f"{fan}.json"
        path.write_text(json.dumps(FAN_FILES[fan]))
        fan = str(path)
    argv = ["certify", "--fan", fan, "--cutoff", cutoff]
    expected = run(capsys, *argv)

    def forbidden(self, *args, **kwargs):
        raise AssertionError("a NovikovScalar was built")

    monkeypatch.setattr(toriq.novikov.NovikovScalar, "__init__", forbidden)
    assert run(capsys, *argv) == expected
    assert expected[0] == 0 and expected[2] == ""


def test_package_names_are_the_defining_modules_objects():
    exports = {
        "fan": ["Fan", "make_fan", "validate_smooth", "validate_complete"],
        "catalog": ["CATALOG", "builtin_fan"],
        "moricone": ["mori_data", "enumerate_effective"],
        "cohomring": ["build_cohomology_ring", "divisor_class", "integrate"],
        "gkz": ["i_function", "leading_terms", "annihilation_certificate"],
        "batyrev": ["build_deformed_ideal", "module_matrices",
                    "certify_isomorphism"],
    }
    same, star, all_ = _fresh(PACKAGE_NAMES, json.dumps(exports))
    names = [name for names in exports.values() for name in names]
    assert sorted(all_) == sorted(names)
    assert same == names
    assert star == sorted(names)


def test_closed_stdout_exits_141_without_traceback():
    # the 91.6 KB report is larger than a pipe's 64 KiB buffer, so the
    # writer is still writing when the reader closes after one byte
    with console("ifunction", "--fan", "F1", "--cutoff", "12", "--format",
                 "json", stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                 bufsize=0) as proc:
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (141, b"")
