import dataclasses
import errno
import json
import math
import os
import re
import stat
import warnings
from enum import Enum
from pathlib import Path

import numpy as np
import pytest

from starcert import cli, oracle
from starcert.series import make_series
from starcert.cli import (
    SpecFileError,
    load_function_spec,
    main,
    parse_function_spec,
)

FAST = ["--radii", "0.2,0.5,0.8,0.9", "--angles", "256"]


def write_spec(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def identity_spec(tmp_path):
    return write_spec(tmp_path, "identity.json",
                      {"kind": "BUILTIN", "builtin": "identity", "n": 1,
                       "trunc": 32})


@pytest.fixture
def koebe_spec(tmp_path):
    return write_spec(tmp_path, "koebe.json",
                      {"kind": "BUILTIN", "builtin": "koebe", "n": 1,
                       "trunc": 128})


# ------------------------------------------------------------------- parsing

def test_spec_round_trip(tmp_path):
    coeffs = {"kind": "COEFFS", "n": 2, "trunc": 16, "coeffs": [[0, 0], [1, 0]]}
    extremal = {"kind": "EXTREMAL_B", "n": 1, "trunc": 32,
                "extremal": {"alpha": 1, "beta": [1, 0], "gamma": [2, -1]}}
    fs = parse_function_spec(coeffs)
    assert fs == {"kind": "COEFFS", "n": 2, "trunc": 16,
                  "coeffs": [[0.0, 0.0], [1.0, 0.0]]}
    assert all(type(x) is float for pair in fs["coeffs"] for x in pair)
    fe = parse_function_spec(extremal)
    assert fe["extremal"] == {"alpha": 1.0, "beta": [1.0, 0.0],
                              "gamma": [2.0, -1.0]}
    assert type(fe["extremal"]["alpha"]) is float
    for canonical in (fs, fe):
        assert parse_function_spec(canonical) == canonical
    # a report echoes the canonical form of its spec file
    path = write_spec(tmp_path, "spec.json", coeffs)
    out = tmp_path / "report.json"
    # z + z^3 is not starlike: f' vanishes inside the disk
    assert main(["check", path, "--kind", "MOCANU", "--alpha", "0.5", *FAST,
                 "--out", str(out)]) == 1
    body = json.loads(out.read_text())["report"]
    assert body["function"] == parse_function_spec(json.loads(Path(path).read_text()))


@pytest.mark.parametrize("trunc", [2 ** 16 + 1, 10 ** 20])
def test_spec_rejects_a_trunc_above_the_cap(trunc):
    with pytest.raises(SpecFileError) as e:
        parse_function_spec({"kind": "BUILTIN", "builtin": "identity", "n": 1,
                             "trunc": trunc})
    assert str(e.value) == f"field 'trunc': at most 65536 supported, got {trunc}"


def test_spec_rejects_unknown_kind():
    with pytest.raises(SpecFileError):
        parse_function_spec({"kind": "WAT", "n": 1, "trunc": 16})


def test_spec_rejects_extra_and_missing_fields():
    with pytest.raises(SpecFileError, match="unexpected"):
        parse_function_spec({"kind": "BUILTIN", "builtin": "identity",
                             "n": 1, "trunc": 16, "coeffs": []})
    with pytest.raises(SpecFileError, match="missing"):
        parse_function_spec({"kind": "BUILTIN", "n": 1, "trunc": 16})


def test_spec_rejects_too_many_coefficients():
    with pytest.raises(SpecFileError, match="coeffs"):
        parse_function_spec({"kind": "COEFFS", "n": 1, "trunc": 4,
                             "coeffs": [[0, 0]] * 5})


def test_spec_rejects_bad_complex_pair():
    with pytest.raises(SpecFileError, match="re, im"):
        parse_function_spec({"kind": "COEFFS", "n": 1, "trunc": 8,
                             "coeffs": [[1, 2, 3]]})


@pytest.mark.parametrize("field, spec", [
    ("coeffs[1]", {"kind": "COEFFS", "n": 1, "trunc": 8,
                   "coeffs": [[0, 0], [float("nan"), 0]]}),
    ("coeffs[0]", {"kind": "COEFFS", "n": 1, "trunc": 8,
                   "coeffs": [[0, -float("inf")]]}),
    ("coeffs[0]", {"kind": "COEFFS", "n": 1, "trunc": 8,
                   "coeffs": [[10 ** 400, 0]]}),
    ("extremal.alpha", {"kind": "EXTREMAL_B", "n": 1, "trunc": 64,
                        "extremal": {"alpha": float("inf"), "beta": [1, 0],
                                     "gamma": [1, 0]}}),
    ("extremal.gamma", {"kind": "EXTREMAL_B", "n": 1, "trunc": 64,
                        "extremal": {"alpha": 0.5, "beta": [1, 0],
                                     "gamma": [1, float("nan")]}}),
])
def test_spec_refuses_non_finite_numbers(field, spec):
    with pytest.raises(SpecFileError, match=re.escape(field)):
        parse_function_spec(spec)


def test_spec_unknown_builtin_lists_the_known_names(tmp_path, capsys):
    path = write_spec(tmp_path, "kobe.json", {"kind": "BUILTIN",
                                              "builtin": "kobe", "n": 1,
                                              "trunc": 32})
    assert main(["check", path, "--kind", "MOCANU", "--alpha", "0.5"]) == 3
    assert capsys.readouterr().err == (
        "spec file error: field 'builtin': expected one of "
        "('identity', 'koebe', 'halfplane'), got 'kobe'\n")


def test_spec_file_not_utf8_cannot_be_read(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"kind": "BUILTIN", "builtin": "identit\u00e9", '
                     '"n": 1, "trunc": 32}'.encode("latin-1"))
    with pytest.raises(SpecFileError, match="cannot read spec file"):
        load_function_spec(str(path))


def test_malformed_json_names_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SpecFileError, match="line 1"):
        load_function_spec(str(path))


# ------------------------------------------------------------------- check

def test_check_identity_thm_b_exit_0(identity_spec, capsys):
    code = main(["check", identity_spec, "--kind", "THM_B",
                 "--beta", "0.1", "--gamma", "1", "--alpha", "0.5", *FAST])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: CERTIFIED_SAMPLED" in out


def test_check_koebe_thm_a_exit_1(koebe_spec, capsys):
    code = main(["check", koebe_spec, "--kind", "THM_A",
                 "--beta", "0", "--gamma", "1", "--alpha", "0.5", *FAST])
    out = capsys.readouterr().out
    assert code == 1
    assert "verdict: HYPOTHESIS_FAILED" in out


def test_check_every_radius_refused_exit_2(koebe_spec, capsys):
    code = main(["check", koebe_spec, "--kind", "THM_A",
                 "--beta", "0.1", "--gamma", "2", "--alpha", "0.5", *FAST])
    captured = capsys.readouterr()
    assert code == 2
    assert "verdict: DEGENERATE" in captured.out
    assert "Traceback" not in captured.err
    assert ("hypothesis: not sampled: the tail heuristic refused every "
            "candidate radius") in captured.out
    assert "none" not in captured.out


def test_check_refused_conclusion_exit_1(tmp_path, capsys):
    # the hypothesis samples r = 0.2 and fails; only the conclusion is refused
    spec = write_spec(tmp_path, "c.json", {
        "kind": "COEFFS", "n": 1, "trunc": 8,
        "coeffs": [[-1.27, -0.37], [1.01, -0.54], [-1.31, 0.32], [-0.79, 1.21],
                   [0.11, -0.19], [-0.04, 0.53], [-1.15, 0.76]]})
    code = main(["check", spec, "--kind", "LEMMA_B", "--beta", "0.1",
                 "--gamma", "1", "--rho", "1", *FAST])
    out = capsys.readouterr().out
    assert code == 1
    assert "verdict: HYPOTHESIS_FAILED" in out
    assert ("conclusion: not sampled: the tail heuristic refused every "
            "candidate radius") in out
    assert "skipped radii (tail heuristic refused): [0.5, 0.8, 0.9]" in out


def test_check_denominator_zero_exit_2(tmp_path, capsys):
    # f' vanishes inside the outer circle while the hypothesis and the
    # conclusion certify (test_oracle, the same input)
    spec = write_spec(tmp_path, "f.json", {"kind": "COEFFS", "n": 1,
                                           "trunc": 64, "coeffs": [[0.55, 0]]})
    code = main(["check", spec, "--kind", "LEMMA_B", "--beta", "1",
                 "--gamma", "1e-5", "--rho", "1000"])
    assert code == 2
    assert capsys.readouterr().out.splitlines()[-1] == "verdict: DEGENERATE"


def test_check_escalation_exit_1(tmp_path, capsys):
    # the certified-hypothesis, failed-conclusion case of
    # test_oracle::test_certified_hypothesis_with_failed_conclusion_escalates
    spec = write_spec(tmp_path, "cor_a.json", {
        "kind": "EXTREMAL_A", "n": 1, "trunc": 128,
        "extremal": {"alpha": 0.7, "beta": [1, 0], "gamma": [-2, 0]}})
    code = main(["check", spec, "--kind", "COR_A", "--gamma", "2", "--alpha",
                 "0.7", "--radii", "0.5,0.9", "--angles", "256"])
    out = capsys.readouterr().out
    assert code == 1
    assert "verdict: CONCLUSION_FAILED" in out
    assert any(line.startswith("ESCALATION: ") for line in out.splitlines())


def test_check_mocanu_conclusion_escalation_exit_1(tmp_path, capsys,
                                                   monkeypatch):
    # MOCANU concludes Re(zf'/f) > 0; its input is substituted by a series
    # with negative real part, as no genuine input reaches this branch
    monkeypatch.setattr(oracle, "starlike_quotient",
                        lambda f: make_series([-0.25, 0.0, 0.0]))
    spec = write_spec(tmp_path, "halfplane.json", {
        "kind": "BUILTIN", "builtin": "halfplane", "n": 1, "trunc": 128})
    out_path = tmp_path / "mocanu.json"
    code = main(["check", spec, "--kind", "MOCANU", "--alpha", "0.5",
                 "--radii", "0.5,0.9", "--angles", "512",
                 "--out", str(out_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert ("cross-check: min Re(zf'/f) = -0.25 vs order 0.0 -> margin -0.25"
            in out.splitlines())
    assert any(line.startswith("ESCALATION: ") for line in out.splitlines())
    assert "verdict: CONCLUSION_FAILED" in out.splitlines()
    result = json.loads(out_path.read_text())["report"]["result"]
    assert result["spec"]["order"] == 0.0
    assert result["cross_min_re"] == result["cross_margin"] == -0.25
    assert result["cross_witness"] == [0.9, 0.0]


def test_check_inadmissible_exit_2(identity_spec):
    code = main(["check", identity_spec, "--kind", "LEMMA_A",
                 "--beta", "2", "--gamma", "1", "--rho", "1", *FAST])
    assert code == 2


def test_check_missing_gamma_exit_3(identity_spec):
    assert main(["check", identity_spec, "--kind", "THM_B",
                 "--alpha", "0.5"]) == 3


@pytest.mark.parametrize("kind_flags", [
    ["--kind", "THM_A", "--alpha", "0.5"],
    ["--kind", "COR_A", "--alpha", "0.6"],
    ["--kind", "LEMMA_A", "--beta", "0.1", "--rho", "1"],
    ["--kind", "LEMMA_B", "--beta", "0.1", "--rho", "1"],
], ids=lambda flags: flags[1])
def test_check_missing_gamma_names_the_flag(identity_spec, capsys, kind_flags):
    assert main(["check", identity_spec, *kind_flags, *FAST]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("usage error:") and "--gamma" in err


def test_check_mocanu_needs_no_gamma(identity_spec, tmp_path, capsys):
    bodies = []
    for i, extra in enumerate([[], ["--gamma=1.0,0.0"]]):
        out = tmp_path / f"mocanu{i}.json"
        code = main(["check", identity_spec, "--kind", "MOCANU", "--alpha",
                     "0.5", *extra, *FAST, "--out", str(out)])
        assert code == 0
        bodies.append(json.loads(out.read_text())["report"])
    assert capsys.readouterr().err == ""
    assert bodies[0] == bodies[1]


def test_check_gamma_zero_exit_3(identity_spec):
    assert main(["check", identity_spec, "--kind", "THM_B", "--beta", "1",
                 "--gamma", "0", "--alpha", "0.5"]) == 3


def test_check_malformed_spec_exit_3(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2")
    assert main(["check", str(path), "--kind", "THM_B", "--beta", "1",
                 "--gamma", "1", "--alpha", "0.5"]) == 3


def test_check_missing_file_exit_3(tmp_path):
    assert main(["check", str(tmp_path / "nope.json"), "--kind", "THM_B",
                 "--beta", "1", "--gamma", "1", "--alpha", "0.5"]) == 3


def test_check_conflicting_n_exit_3(identity_spec):
    assert main(["check", identity_spec, "--kind", "THM_B", "--n", "3",
                 "--beta", "1", "--gamma", "1", "--alpha", "0.5"]) == 3


def test_check_abbreviated_flag_exit_3(identity_spec, capsys):
    code = main(["check", identity_spec, "--kind", "THM_B", "--beta", "0.1",
                 "--gamma", "1", "--alpha", "0.5", "--ang", "256"])
    assert code == 3
    assert "unrecognized arguments: --ang 256" in capsys.readouterr().err


def test_check_zero_angles_exit_3(identity_spec, capsys):
    code = main(["check", identity_spec, "--kind", "THM_B", "--beta", "0.1",
                 "--gamma", "1", "--alpha", "0.5", "--angles", "0"])
    assert code == 3
    assert "got 0" in capsys.readouterr().err


def test_check_report_roundtrip_and_determinism(identity_spec, tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    argv = ["check", identity_spec, "--kind", "THM_B", "--beta", "0.1",
            "--gamma", "1", "--alpha", "0.5", *FAST]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    capsys.readouterr()
    r1 = json.loads(out1.read_text())
    r2 = json.loads(out2.read_text())
    assert "timestamp" in r1
    body1 = json.dumps(r1["report"], sort_keys=True)
    body2 = json.dumps(r2["report"], sort_keys=True)
    assert body1 == body2
    assert r1["report"]["tool"]["name"] == "starcert"
    assert r1["report"]["result"]["verdict"] == "CERTIFIED_SAMPLED"
    # config defaults echoed so no run is ambiguous
    assert r1["report"]["sampling"]["angles"] == 256


# ------------------------------------------------------------------- extremal

def test_extremal_b_reference_run(tmp_path, capsys):
    report = tmp_path / "ext.json"
    code = main(["extremal", "--family", "EXTREMAL_B", "--n", "1",
                 "--alpha", "0.5", "--beta", "1", "--gamma", "1", *FAST,
                 "--out", str(report)])
    out = capsys.readouterr().out
    assert code == 0
    assert "a_2 = [0.5, " in out
    assert "a_3 = [0.15625, " in out
    # twelve coefficients printed; the report holds c_0 .. c_12
    assert "a_12 = " in out and "a_13" not in out
    assert len(json.loads(report.read_text())["report"]["coefficients"]) == 13
    assert "identity residual" in out
    assert "verdict: CERTIFIED_SAMPLED" in out


def test_extremal_a_probe_run(tmp_path, capsys):
    report = tmp_path / "ext.json"
    code = main(["extremal", "--family", "EXTREMAL_A", "--n", "1",
                 "--alpha", "0.4", "--beta", "0,0.2", "--gamma", "1", *FAST,
                 "--out", str(report)])
    out = capsys.readouterr().out
    assert code == 0
    label = ("identity residual |lhs_a - (S z^n + beta)/"
             "(1 + (conj(beta)/S) z^n)|: ")
    line, = (ln for ln in out.splitlines() if ln.startswith(label))
    resid = float(line[len(label):])
    assert resid < 1e-9
    selfcheck = json.loads(report.read_text())["report"]["selfcheck"]
    assert selfcheck == {"identity_residual": resid, "tolerance": 1e-10}


def test_extremal_negative_complex_flag(capsys):
    code = main(["extremal", "--family", "EXTREMAL_B", "--n", "1",
                 "--alpha", "0.3", "--beta", "-0.5,0", "--gamma", "1,0.5",
                 *FAST])
    out = capsys.readouterr().out
    assert code == 0
    assert "beta=[-0.5, 0.0]" in out


def test_extremal_s_zero_exit_2(capsys):
    code = main(["extremal", "--family", "EXTREMAL_A", "--n", "1",
                 "--alpha", "0.4", "--beta", "1", "--gamma", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "S=0" in err


def test_extremal_beta_plus_gamma_zero_exit_2(capsys):
    code = main(["extremal", "--family", "EXTREMAL_B", "--n", "1",
                 "--alpha", "0.5", "--beta", "-1", "--gamma", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "beta+gamma=0" in err


@pytest.mark.parametrize("runner", ["extremal", "check"])
def test_extremal_a_beta_beyond_s_exit_2(tmp_path, capsys, runner):
    # admissible ratio, but |beta| = 1 exceeds S = |1 - i|/2
    if runner == "extremal":
        argv = ["extremal", "--family", "EXTREMAL_A", "--n", "1", "--alpha",
                "0.4", "--beta", "0,1", "--gamma", "1"]
    else:
        spec = write_spec(tmp_path, "a.json", {
            "kind": "EXTREMAL_A", "n": 1, "trunc": 64,
            "extremal": {"alpha": 0.4, "beta": [0, 1], "gamma": [1, 0]}})
        argv = ["check", spec, "--kind", "THM_A", "--beta", "0,1", "--gamma",
                "1", "--alpha", "0.4"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("rejected: inadmissible extremal parameters: "
                            "|beta| < S (margin -0.292893)\n")


def test_extremal_inadmissible_exit_2_names_margin(capsys):
    code = main(["extremal", "--family", "EXTREMAL_A", "--n", "1",
                 "--alpha", "0.4", "--beta", "2", "--gamma", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "margin" in err and "Re(beta/gamma)" in err


# ------------------------------------------------------------------- jack

def test_jack_z_squared(tmp_path, capsys):
    spec = write_spec(tmp_path, "w.json",
                      {"kind": "COEFFS", "n": 2, "trunc": 8,
                       "coeffs": [[0, 0], [1, 0]]})
    code = main(["jack", spec, "--radius", "0.9", *FAST])
    out = capsys.readouterr().out
    assert code == 0
    assert "k_est = [2.0" in out or "k_est = [1.99999" in out


def test_jack_report_records_only_the_sampling_it_uses(tmp_path, capsys):
    spec = write_spec(tmp_path, "w.json",
                      {"kind": "COEFFS", "n": 2, "trunc": 8,
                       "coeffs": [[0, 0], [1, 0]]})
    results = []
    for i, radii in enumerate(["0.2", "0.3,0.95"]):
        out = tmp_path / f"jack{i}.json"
        assert main(["jack", spec, "--radius", "0.9", "--radii", radii,
                     "--angles", "256", "--out", str(out)]) == 0
        report = json.loads(out.read_text())["report"]
        assert report["sampling"] == {"angles": 256, "refine": True}
        results.append(report["result"])
    assert results[0] == results[1]
    capsys.readouterr()
    assert main(["jack", "--help"]) == 0
    assert "ignored" in " ".join(capsys.readouterr().out.split())


def test_jack_explicit_order_flag(tmp_path):
    spec = write_spec(tmp_path, "w.json",
                      {"kind": "COEFFS", "n": 1, "trunc": 8,
                       "coeffs": [[1, 0], [0.5, 0]]})
    assert main(["jack", spec, "--order", "1", "--radius", "0.5", *FAST]) == 0


def test_jack_zero_series_exit_2(tmp_path):
    spec = write_spec(tmp_path, "w.json",
                      {"kind": "COEFFS", "n": 1, "trunc": 8, "coeffs": []})
    assert main(["jack", spec, "--radius", "0.9", *FAST]) == 2


def test_jack_builtin_uses_w_transform(koebe_spec):
    assert main(["jack", koebe_spec, "--radius", "0.5", *FAST]) == 0


# ------------------------------------------------------------------- identities

def test_identities_sweep_fast(capsys):
    code = main(["identities", "--per-n", "3", "--pairs", "2",
                 "--trunc", "24"])
    out = capsys.readouterr().out
    assert code == 0
    assert "max residual, identity A" in out
    assert "PASS" in out


# ------------------------------------------------------------------- errors

ERROR_SPECS = {
    "s0.json": {"kind": "EXTREMAL_A", "n": 1, "trunc": 64,
                "extremal": {"alpha": 0.4, "beta": [1, 0], "gamma": [1, 0]}},
    "a2.json": {"kind": "COEFFS", "n": 2, "trunc": 8, "coeffs": [[0.3, 0]]},
    "zero.json": {"kind": "COEFFS", "n": 1, "trunc": 8, "coeffs": []},
    "half_z.json": {"kind": "COEFFS", "n": 1, "trunc": 8, "coeffs": [[0.5, 0]]},
    "identity.json": {"kind": "BUILTIN", "builtin": "identity", "n": 1,
                      "trunc": 32},
    # JSON booleans are not numbers, though Python reads true as the int 1
    "bool_n.json": {"kind": "BUILTIN", "builtin": "identity", "n": True,
                    "trunc": 32},
    "bool_trunc.json": {"kind": "BUILTIN", "builtin": "identity", "n": 1,
                        "trunc": True},
    "bool_coeff.json": {"kind": "COEFFS", "n": 1, "trunc": 8,
                        "coeffs": [[True, False]]},
    "bool_alpha.json": {"kind": "EXTREMAL_B", "n": 1, "trunc": 64,
                        "extremal": {"alpha": True, "beta": [1, 0],
                                     "gamma": [1, 0]}},
    "bool_beta.json": {"kind": "EXTREMAL_B", "n": 1, "trunc": 64,
                       "extremal": {"alpha": 0.5, "beta": [False, 1],
                                    "gamma": [1, 0]}},
    # Python's json reads NaN, Infinity and 1e400 as floats; JSON has none
    "nan_coeff.json": {"kind": "COEFFS", "n": 1, "trunc": 8,
                       "coeffs": [[0.1, 0], [float("nan"), 0]]},
    "inf_alpha.json": {"kind": "EXTREMAL_B", "n": 1, "trunc": 64,
                       "extremal": {"alpha": float("inf"), "beta": [1, 0],
                                    "gamma": [1, 0]}},
    "overflow_beta.json": (b'{"kind": "EXTREMAL_A", "n": 1, "trunc": 64, '
                           b'"extremal": {"alpha": 0.4, "beta": [1e400, 0], '
                           b'"gamma": [1, 0]}}'),
    "long_int_coeff.json": (b'{"kind": "COEFFS", "n": 1, "trunc": 8, '
                            b'"coeffs": [[1' + b"0" * 400 + b', 0]]}'),
    "huge_int_coeff.json": (b'{"kind": "COEFFS", "n": 1, "trunc": 8, '
                            b'"coeffs": [[1' + b"0" * 5000 + b', 0]]}'),
    # finite coefficients whose circle values overflow
    "ovf.json": {"kind": "COEFFS", "n": 1, "trunc": 8,
                 "coeffs": [[1e308, 0]] * 4},
    # circle values whose neighbour products overflow
    "ovf_phase.json": {"kind": "COEFFS", "n": 1, "trunc": 8,
                       "coeffs": [[1e160, 0]] * 3},
    # finite coefficients whose derivative overflows
    "ovf_derivative.json": {"kind": "COEFFS", "n": 1, "trunc": 8,
                            "coeffs": [[1e308, 0]] * 3},
    # circle values below 2**-1024, past the refinement's largest scale
    "subnormal.json": {"kind": "COEFFS", "n": 1, "trunc": 8,
                       "coeffs": [[1e-320, 0]]},
    "list.json": [1, 2],
    "coeffs_object.json": {"kind": "COEFFS", "n": 1, "trunc": 8,
                           "coeffs": {"a": 1}},
    "no_gamma.json": {"kind": "EXTREMAL_B", "n": 1, "trunc": 64,
                      "extremal": {"alpha": 0.5, "beta": [1, 0]}},
    "latin1.json": ('{"kind": "BUILTIN", "builtin": "identity", "n": 1, '
                    '"trunc": 32, "note": "\u00e9"}').encode("latin-1"),
    # truncation orders above the cap of 2**16, refused before any array
    "trunc_cap.json": {"kind": "BUILTIN", "builtin": "identity", "n": 1,
                       "trunc": 2 ** 16 + 1},
    "trunc_huge.json": {"kind": "BUILTIN", "builtin": "identity", "n": 1,
                        "trunc": 10 ** 20},
}
EXTREMAL_B = ["extremal", "--family", "EXTREMAL_B", "--n", "1", "--alpha",
              "0.5", "--beta", "1", "--gamma", "1"]
THM_B = ["--kind", "THM_B", "--beta", "0.1", "--gamma", "1", "--alpha", "0.5"]


@pytest.mark.parametrize("argv, expected", [
    pytest.param(["check", "s0.json", *THM_B], 2, id="check-S0"),
    pytest.param(["check", "a2.json", *THM_B], 2, id="check-a2-nonzero"),
    pytest.param(["extremal", "--family", "EXTREMAL_A", "--n", "1", "--alpha",
                  "0.4", "--beta", "2", "--gamma", "1"], 2,
                 id="extremal-inadmissible"),
    # ExtremalParams' scalar errors come from its CriterionParams, as check's do
    pytest.param(["extremal", "--family", "EXTREMAL_B", "--n", "1", "--alpha",
                  "1.5", "--beta", "1", "--gamma", "1"], 3,
                 id="extremal-alpha-out-of-range"),
    pytest.param(["extremal", "--family", "EXTREMAL_B", "--n", "0", "--alpha",
                  "0.5", "--beta", "1", "--gamma", "1"], 3, id="extremal-n-0"),
    pytest.param(["extremal", "--family", "EXTREMAL_B", "--n", "1", "--alpha",
                  "0.5", "--beta", "1", "--gamma", "0"], 3,
                 id="extremal-gamma-0"),
    pytest.param(["extremal", "--family", "EXTREMAL_B", "--n", "1", "--alpha",
                  "0.5", "--beta", "1", "--gamma", "1", "--trunc", "0"], 2,
                 id="extremal-trunc-0"),
    pytest.param(["extremal", "--family", "EXTREMAL_B", "--n", "1", "--alpha",
                  "0.5", "--beta", "1", "--gamma", "1", "--trunc", "1"], 2,
                 id="extremal-trunc-1"),
    pytest.param(["jack", "zero.json"], 2, id="jack-zero-series"),
    pytest.param(["jack", "subnormal.json", "--radius", "0.9"],
                 (2, "rejected: |w| below 1e-14 everywhere on |z| = 0.9"),
                 id="jack-subnormal-circle"),
    pytest.param(["jack", "half_z.json", "--radius", "1.5"], 3,
                 id="jack-radius"),
    pytest.param(["jack", "half_z.json", "--order", "3"], 3, id="jack-order"),
    pytest.param(["check", "identity.json", *THM_B, "--angles", "10"], 3,
                 id="check-angles"),
    pytest.param(["check", "identity.json", *THM_B, "--radii", "0.5,0.2"], 3,
                 id="check-radii-descending"),
    pytest.param(["check", "identity.json", "--kind", "LEMMA_A", "--beta",
                  "0.1", "--gamma", "1"], 3, id="check-lemma-without-rho"),
    pytest.param(["check", "identity.json", *THM_B, "--n", "3"], 3,
                 id="check-n"),
    pytest.param(["check", "identity.json", *THM_B, "--rho", "0.3"], 3,
                 id="check-theorem-with-rho"),
    pytest.param(["check", "identity.json", "--kind", "LEMMA_A", "--beta",
                  "0.1", "--gamma", "1", "--rho", "1", "--alpha", "0.9"], 3,
                 id="check-lemma-with-alpha"),
    pytest.param(["extremal", "--family", "EXTREMAL_B", "--n", "1", "--alpha",
                  "0.5", "--beta", "1", "--gamma", "1", "--emit-coeffs", "3"],
                 3, id="extremal-emit-coeffs"),
    pytest.param(["identities", "--per-n", "3", "--tol", "1e-3"], 3,
                 id="identities-tol"),
    pytest.param(["check", "bool_n.json", *THM_B], 3, id="spec-bool-n"),
    pytest.param(["check", "bool_trunc.json", *THM_B], 3,
                 id="spec-bool-trunc"),
    pytest.param(["jack", "bool_coeff.json"], 3, id="spec-bool-coeff"),
    pytest.param(["check", "bool_alpha.json", *THM_B], 3,
                 id="spec-bool-alpha"),
    pytest.param(["check", "bool_beta.json", *THM_B], 3, id="spec-bool-beta"),
    pytest.param(["identities", "--pairs", "0"], 3, id="identities-no-pairs"),
    pytest.param(["identities", "--per-n", "0"], 3, id="identities-no-functions"),
    pytest.param(["identities", "--per-n", "-3"], 3,
                 id="identities-negative-per-n"),
    pytest.param(["identities", "--pairs", "-1"], 3,
                 id="identities-negative-pairs"),
    pytest.param(["identities", "--trunc", "0"], 3, id="identities-trunc-0"),
    pytest.param(["identities", "--trunc", "-2"], 3,
                 id="identities-negative-trunc"),
    pytest.param(["identities", "--seed", "-1"], 3,
                 id="identities-negative-seed"),
    pytest.param(["identities", "--trunc", "4"], 3,
                 id="identities-trunc-below-n-plus-2"),
    # non-finite criterion scalars are parameter errors
    pytest.param(["check", "identity.json", "--kind", "LEMMA_B", "--beta", "1",
                  "--gamma", "1", "--rho", "inf"], 3, id="check-rho-inf"),
    pytest.param(["check", "identity.json", "--kind", "MOCANU", "--alpha",
                  "nan"], 3, id="check-mocanu-alpha-nan"),
    pytest.param(["check", "identity.json", "--kind", "LEMMA_A", "--beta",
                  "nan", "--gamma", "1", "--rho", "1"], 3, id="check-beta-nan"),
    pytest.param(["check", "identity.json", "--kind", "THM_B", "--beta", "1",
                  "--gamma", "inf", "--alpha", "0.5"], 3, id="check-gamma-inf"),
    # refusals with the opening words of their stderr line
    pytest.param(["check", "identity.json", "--kind", "THM_B", "--beta",
                  "1,2,3", "--gamma", "1", "--alpha", "0.5"],
                 (3, "usage error: expected a complex scalar"),
                 id="check-beta-three-parts"),
    pytest.param(["check", "identity.json", "--kind", "THM_B", "--beta", "x",
                  "--gamma", "1", "--alpha", "0.5"],
                 (3, "usage error: expected a complex scalar"),
                 id="check-beta-not-a-number"),
    pytest.param(["check", "identity.json", *THM_B, "--radii", "0.5,x"],
                 (3, "usage error: expected comma-separated radii"),
                 id="check-radii-not-numbers"),
    pytest.param(["check", "list.json", *THM_B],
                 (3, "spec file error: spec file must hold a JSON object"),
                 id="spec-not-an-object"),
    pytest.param(["check", "coeffs_object.json", *THM_B],
                 (3, "spec file error: field 'coeffs': list of [re, im] "
                     "pairs required"), id="spec-coeffs-not-a-list"),
    pytest.param(["check", "no_gamma.json", *THM_B],
                 (3, "spec file error: field 'extremal': object with "
                     "exactly alpha, beta, gamma required"),
                 id="spec-extremal-without-gamma"),
    pytest.param(["check", "identity.json", "--kind", "THM_B", "--beta", "0.1",
                  "--gamma", "1"],
                 (3, "parameter error: THM_B requires alpha"),
                 id="check-theorem-without-alpha"),
    pytest.param(["jack", "half_z.json", "--order", "0"],
                 (3, "parameter error: vanishing order must be >= 1, got 0"),
                 id="jack-order-0"),
    # spec files hold UTF-8 JSON, whose numbers are finite
    pytest.param(["check", "nan_coeff.json", *THM_B], 3, id="spec-nan-coeff"),
    pytest.param(["jack", "nan_coeff.json"], 3, id="jack-spec-nan-coeff"),
    pytest.param(["check", "inf_alpha.json", *THM_B], 3, id="spec-inf-alpha"),
    pytest.param(["check", "overflow_beta.json", *THM_B], 3,
                 id="spec-overflow-beta"),
    pytest.param(["check", "long_int_coeff.json", *THM_B], 3,
                 id="spec-long-int-coeff"),
    pytest.param(["check", "huge_int_coeff.json", *THM_B], 3,
                 id="spec-huge-int-coeff"),
    pytest.param(["check", "latin1.json", *THM_B], 3, id="spec-not-utf8"),
    pytest.param(["jack", "ovf.json", "--radius", "0.9", "--out", "r.json"], 2,
                 id="jack-circle-overflows"),
    pytest.param(["check", "ovf_phase.json", "--kind", "THM_B", "--beta", "1",
                  "--gamma", "1", "--alpha", "0.5"], 2,
                 id="check-phase-product-overflows"),
    pytest.param(["check", "ovf_derivative.json", "--kind", "THM_B", "--beta",
                  "1", "--gamma", "1", "--alpha", "0.5"], 2,
                 id="check-derivative-overflows"),
    # an unwritable --out is a usage error, after the command's stdout lines
    pytest.param(["check", "identity.json", *THM_B, "--out", "missing/r.json"],
                 3, id="check-out-in-missing-dir"),
    pytest.param(["identities", "--per-n", "1", "--pairs", "1", "--trunc", "8",
                  "--out", "."], 3, id="identities-out-is-a-dir"),
    pytest.param(["check", "identity.json", *THM_B, "--out", ""], 3,
                 id="check-out-empty"),
    pytest.param(["identities", "--per-n", "1", "--pairs", "1", "--trunc", "8",
                  "--out", ""], 3, id="identities-out-empty"),
    # sizes above their caps are refused as a too-small value of each is
    pytest.param(["check", "trunc_cap.json", *THM_B], 3, id="spec-trunc-cap"),
    pytest.param(["check", "trunc_huge.json", *THM_B], 3,
                 id="spec-trunc-huge"),
    pytest.param([*EXTREMAL_B, "--trunc", "65537"], 2,
                 id="extremal-trunc-cap"),
    pytest.param([*EXTREMAL_B, "--trunc", str(10 ** 20)], 2,
                 id="extremal-trunc-huge"),
    pytest.param(["identities", "--trunc", "65537"], 3,
                 id="identities-trunc-cap"),
    pytest.param(["identities", "--trunc", str(10 ** 20)], 3,
                 id="identities-trunc-huge"),
    pytest.param(["identities", "--per-n", "1", "--pairs", str(10 ** 10),
                  "--trunc", "8"], 3, id="identities-pairs-cap"),
    pytest.param(["identities", "--per-n", "1", "--pairs", str(10 ** 20),
                  "--trunc", "8"], 3, id="identities-pairs-huge"),
    pytest.param(["identities", "--per-n", str(10 ** 20), "--pairs", "1",
                  "--trunc", "5"],
                 (3, "parameter error: identity sweep needs per_n <= 65536"),
                 id="identities-per-n-huge"),
    pytest.param(["check", "identity.json", *THM_B, "--angles", "1048577"], 3,
                 id="check-angles-cap"),
    pytest.param(["check", "identity.json", *THM_B, "--angles",
                  str(10 ** 20)], 3, id="check-angles-huge"),
])
def test_error_exit_code_and_one_stderr_line(tmp_path, capsys, monkeypatch,
                                             argv, expected):
    # ``expected`` is the exit code, or the code and the line's opening words
    expected, prefix = expected if isinstance(expected, tuple) else (expected, "")
    monkeypatch.chdir(tmp_path)  # a relative --out lands in tmp_path
    for name, payload in ERROR_SPECS.items():
        if isinstance(payload, bytes):
            (tmp_path / name).write_bytes(payload)
        else:
            write_spec(tmp_path, name, payload)
    argv = [str(tmp_path / a) if a in ERROR_SPECS else a for a in argv]
    with warnings.catch_warnings():  # a warning would be a second line
        warnings.simplefilter("error")
        assert main(argv) == expected
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert "Traceback" not in err
    assert err.startswith(prefix), err


def test_jack_refuses_an_overflowing_circle_without_warning(tmp_path, capsys):
    spec = write_spec(tmp_path, "ovf.json", ERROR_SPECS["ovf.json"])
    out = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["jack", spec, "--radius", "0.9", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("rejected: ")
    assert not out.exists()


def test_unwritable_out_names_the_path_after_the_verdict(tmp_path, capsys):
    spec = write_spec(tmp_path, "identity.json", ERROR_SPECS["identity.json"])
    out = tmp_path / "missing" / "r.json"
    assert main(["check", spec, *THM_B, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1] == "verdict: CERTIFIED_SAMPLED"
    assert captured.err == (f"usage error: cannot write report to {out}: "
                            "No such file or directory\n")


@pytest.mark.parametrize("argv, last_line", [
    (["check", "identity.json", *THM_B], "verdict: CERTIFIED_SAMPLED"),
    (["identities", "--per-n", "1", "--pairs", "1", "--trunc", "8"],
     "tolerance 1e-10: PASS"),
])
def test_empty_out_is_refused_as_an_empty_path(argv, last_line, tmp_path,
                                               monkeypatch, capsys):
    # Path("") is the working directory, whose error would name a directory
    write_spec(tmp_path, "identity.json", ERROR_SPECS["identity.json"])
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", ""]) == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1] == last_line
    assert captured.err == "usage error: cannot write report to '': empty path\n"
    assert [p.name for p in tmp_path.iterdir()] == ["identity.json"]


def test_jack_refines_a_large_circle_without_warning(tmp_path, capsys):
    # |p|^2 of circle values near 1e200 overflows unless the Newton step
    # is taken on values scaled by a power of two
    spec = write_spec(tmp_path, "big.json", {
        "kind": "COEFFS", "n": 1, "trunc": 8, "coeffs": [[1e200, 0]] * 4})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["jack", spec, "--radius", "0.9"])
    assert code == 0
    assert capsys.readouterr().err == ""


def test_check_refines_a_subnormal_circle_without_warning(tmp_path, capsys):
    # the Newton step's scale 2^-e for |p| below 2^-1024 is past the largest
    # float, so it is capped at 2^1023
    spec = write_spec(tmp_path, "tiny.json", {
        "kind": "COEFFS", "n": 1, "trunc": 8, "coeffs": [[1e-310, 0]]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["check", spec, "--kind", "THM_B", "--beta", "1",
                     "--gamma", "1", "--alpha", "0.5"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1] == "verdict: CERTIFIED_SAMPLED"
    assert captured.err == ""


def test_non_unit_divisor_names_the_relative_floor(tmp_path, capsys):
    # b0 = 1 is refused because the floor scales with a_8 = 1e13
    spec = write_spec(tmp_path, "big.json", {
        "kind": "COEFFS", "n": 1, "trunc": 8,
        "coeffs": [[0, 0]] * 6 + [[1e13, 0]]})
    assert main(["check", spec, *THM_B]) == 2
    assert capsys.readouterr().err == (
        "rejected: non-unit divisor: |b0| = 1.000e+00 is below "
        "1e-12 × max(1, max|b_k|) = 1.0e+13\n")


@pytest.mark.parametrize("beta, trunc, err", [
    ("1e30", 32, "rejected: non-finite coefficient at index 11\n"),
    # g0 = 1 is refused because the floor scales with g's largest term
    ("60", 128, "rejected: integrate_offset needs a unit constant term: "
                "|g0| = 1.000e+00 is below 1e-12 × max(1, max|g_k|) = "
                "2.1e+12\n"),
], ids=["overflow", "below-floor"])
@pytest.mark.parametrize("runner", ["extremal", "check"])
def test_extremal_refusal_is_one_stderr_line_naming_its_cause(
        tmp_path, capsys, runner, beta, trunc, err):
    if runner == "extremal":
        argv = ["extremal", "--family", "EXTREMAL_B", "--n", "1", "--alpha",
                "0.5", "--beta", beta, "--gamma", "1", "--trunc", str(trunc)]
    else:
        spec = write_spec(tmp_path, "b.json", {
            "kind": "EXTREMAL_B", "n": 1, "trunc": trunc,
            "extremal": {"alpha": 0.5, "beta": [float(beta), 0],
                         "gamma": [1, 0]}})
        argv = ["check", spec, "--kind", "THM_B", "--beta", beta, "--gamma",
                "1", "--alpha", "0.5"]
    with warnings.catch_warnings():  # a warning would be a second line
        warnings.simplefilter("error")
        assert main(argv) == 2
    assert capsys.readouterr().err == err


def test_identities_short_trunc_names_the_class_3_floor(capsys):
    assert main(["identities", "--trunc", "4"]) == 3
    assert capsys.readouterr().err == (
        "parameter error: identity sweep needs trunc_order >= 5, got 4\n")


# ------------------------------------------------------------------- reports

def _report_bodies(tmp_path, runs, tag):
    bodies = []
    for i, argv in enumerate(runs):
        out = tmp_path / f"{tag}{i}.json"
        main(argv + ["--out", str(out)])
        bodies.append(json.loads(out.read_text())["report"]
                      if out.exists() else None)
    return bodies


def test_main_calls_share_no_parse_state(identity_spec, tmp_path, capsys):
    check = ["check", identity_spec, "--kind", "THM_B", "--beta", "0.1",
             "--gamma", "1", "--alpha", "0.5", *FAST]
    runs = [check + ["--no-refine"], check + ["--bogus"], check]
    in_one_process = _report_bodies(tmp_path, runs, "seq")
    alone = []
    for i, argv in enumerate(runs):
        cli._parser.cache_clear()
        alone += _report_bodies(tmp_path, [argv], f"alone{i}_")
    capsys.readouterr()
    assert in_one_process == alone
    assert alone[0]["sampling"]["refine"] is False
    assert alone[1] is None
    assert alone[2]["sampling"]["refine"] is True
    assert cli._parser() is cli._parser()


def _asdict_jsonable(obj):
    """The plain form of a report body, the reference ``json.dumps``
    renders: dataclasses through dataclasses.asdict, complex as [re, im],
    an Enum as its value, numpy scalars as Python scalars and non-finite
    floats, complex parts included, as "nan", "inf" and "-inf"."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = dataclasses.asdict(obj)
    if isinstance(obj, dict):
        return {str(k): _asdict_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_asdict_jsonable(v) for v in obj]
    if isinstance(obj, (complex, np.complexfloating)):
        return [_asdict_jsonable(float(obj.real)),
                _asdict_jsonable(float(obj.imag))]
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (np.floating, np.integer)):
        return _asdict_jsonable(obj.item())
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else "inf" if obj > 0 else "-inf"
    return obj


@dataclasses.dataclass
class _Inner:
    value: complex
    verdict: object


@dataclasses.dataclass
class _Outer:
    inner: _Inner
    radii: tuple
    label: str = "outer"


_EDGE_SECTIONS = {
    "floats": [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324,
               1e308, 0.1],
    "scalars": {"nan": float("nan"), "inf": float("inf"),
                "-inf": -float("inf"), "neg_zero": -0.0, "tiny": 5e-324,
                "huge": 1e308, "none": None, "yes": True, "no": False},
    "text": "Möbius z ↦ z/(1−z)², \"quoted\"\n\ttab",
    "empty_list": [],
    "empty_dict": {},
    "tuple": (1, 2.5, "x", (0.25, -0.5)),
    "numpy": [np.float64(1 / 3), np.float32(0.1), np.int64(-7),
              np.complex128(1 - 2j), np.float64("nan")],
    "complex": [1 + 2j, complex(-0.0, 1e-300), complex(float("nan"), 1.0)],
    "enum": oracle.Verdict.DEGENERATE,
    "nested": _Outer(_Inner(0.5j, oracle.Verdict.CERTIFIED_SAMPLED),
                     (0.1, 0.995)),
    "mixed": [1.5, 2, True, 0.25, -3],
    7: "int key",
}

# Lists of float rows, the shape of a COEFFS echo: only equal-length,
# non-empty rows of plain floats take the one-join table.
_ROW_SECTIONS = {
    "pairs": [[0.1, -0.0], [5e-324, 1e308], [-2.5, 3.0]],
    "nonfinite": [[float("nan"), 1.0], [float("inf"), -float("inf")]],
    "overflow": [[1e308, 1e308], [1e308, 0.5]],
    "width1": [[0.5], [-0.25], [float("nan")]],
    "width3": [[0.1, 0.2, 0.3], [-1.0, float("inf"), 2.0]],
    "single": [[0.75, -0.75]],
    "ragged": [[0.1, 0.2], [0.3], [0.4, 0.5, 0.6]],
    "int_entry": [[0.1, 2], [0.3, 0.4]],
    "bool_entry": [[0.1, True], [0.3, 0.4]],
    "numpy_entry": [[0.1, np.float64(1 / 3)], [0.3, 0.4]],
    "empty_row": [[], []],
    "empty_then_rows": [[], [0.1, 0.2]],
    "tuples": [(0.1, 0.2), (float("-inf"), -0.0)],
    "mixed_rows": [(0.1, 0.2), [0.3, 0.4]],
    "nested": [[[0.1, 0.2]], [[0.3, 0.4]]],
    "outer_tuple": ([0.1, 0.2], [0.3, 0.4]),
}


def test_report_bodies_match_the_asdict_rendering(tmp_path, monkeypatch,
                                                  capsys):
    rendered = []
    render = cli.render_report_body

    def capture(command, sections):
        text = render(command, sections)
        rendered.append((command, sections, text))
        return text

    monkeypatch.setattr(cli, "render_report_body", capture)
    identity = write_spec(tmp_path, "identity.json",
                          {"kind": "BUILTIN", "builtin": "identity", "n": 1,
                           "trunc": 32})
    koebe = write_spec(tmp_path, "koebe.json",
                       {"kind": "BUILTIN", "builtin": "koebe", "n": 1,
                        "trunc": 128})
    wsq = write_spec(tmp_path, "wsq.json",
                     {"kind": "COEFFS", "n": 2, "trunc": 8,
                      "coeffs": [[0, 0], [1, 0]]})
    runs = [  # the README matrix rows that write a report, and EXTREMAL_A
        ["check", identity, "--kind", "THM_B", "--beta", "0.1", "--gamma",
         "1", "--alpha", "0.5", *FAST],
        ["check", koebe, "--kind", "THM_A", "--beta", "0", "--gamma", "1",
         "--alpha", "0.5", *FAST],
        ["check", identity, "--kind", "LEMMA_A", "--beta", "2", "--gamma",
         "1", "--rho", "1", *FAST],
        ["extremal", "--family", "EXTREMAL_B", "--n", "1", "--alpha", "0.5",
         "--beta", "1", "--gamma", "1", *FAST],
        ["jack", wsq, "--radius", "0.9", *FAST],
        ["identities", "--per-n", "5", "--pairs", "2", "--trunc", "24"],
        ["extremal", "--family", "EXTREMAL_A", "--n", "1", "--alpha", "0.4",
         "--beta", "0,0.2", "--gamma", "1", *FAST],
    ]
    _report_bodies(tmp_path, runs, "r")
    capsys.readouterr()
    assert [c for c, _, _ in rendered] == [
        "check", "check", "check", "extremal", "jack", "identities",
        "extremal"]
    # edge values; the mixed list must not take the all-float join, nor a
    # ragged, mixed or empty row the float-row table
    for command, sections in (("edge", _EDGE_SECTIONS),
                              ("rows", _ROW_SECTIONS)):
        rendered.append((command, sections, render(command, sections)))
    for command, sections, text in rendered:
        body = {"tool": {"name": "starcert", "version": cli.__version__},
                "command": command, **sections}
        want = json.dumps(_asdict_jsonable(body), sort_keys=True, indent=2)
        assert text == want + "\n"


# ------------------------------------------------------------- report writes

def _check_to(spec, out):
    return main(["check", spec, *THM_B, *FAST, "--out", str(out)])


def test_rewritten_report_is_a_new_file_with_the_old_mode(tmp_path):
    out = tmp_path / "r.json"
    out.write_text("old report\n")
    out.chmod(0o600)
    inode = out.stat().st_ino
    body = cli.render_report_body("check", {"margin": 0.5})
    cli.write_report(str(out), body)
    assert out.stat().st_ino != inode
    assert stat.S_IMODE(out.stat().st_mode) == 0o600
    assert [p.name for p in tmp_path.iterdir()] == ["r.json"]
    data = out.read_bytes()
    stamp = json.dumps(json.loads(data)["timestamp"])
    assert data == ('{\n"timestamp": ' + stamp + ',\n"report":\n' + body
                    + "}\n").encode()


def test_symlinked_out_stays_a_link_to_the_report(identity_spec, tmp_path,
                                                  capsys):
    target = tmp_path / "r.json"
    target.write_text("old report\n")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert _check_to(identity_spec, link) == 0
    assert link.is_symlink() and link.readlink() == target
    assert json.loads(target.read_text())["report"]["command"] == "check"


def test_hard_linked_report_is_written_in_place(identity_spec, tmp_path,
                                                capsys):
    out = tmp_path / "r.json"
    out.write_text("old report\n")
    other = tmp_path / "other.json"
    os.link(out, other)
    inode = out.stat().st_ino
    assert _check_to(identity_spec, out) == 0
    assert out.stat().st_ino == inode and out.stat().st_nlink == 2
    assert json.loads(other.read_text())["report"]["command"] == "check"


@pytest.mark.parametrize("target", ["devnull", "long-name", "not-writable"])
def test_special_targets_are_written_in_place(identity_spec, tmp_path,
                                              monkeypatch, capsys, target):
    def refuse(*args, **kwargs):
        raise AssertionError("an in-place target was unlinked or renamed over")

    out = tmp_path / ("x" * 250 + ".json")  # no room for the sibling's name
    if target == "devnull":
        out = os.devnull
    elif target == "not-writable":
        out = tmp_path / "r.json"
        out.write_text("old report\n")
        monkeypatch.setattr(cli.os, "access", lambda *args: False)
    monkeypatch.setattr(cli.os, "unlink", refuse)
    monkeypatch.setattr(cli.os, "rename", refuse)
    assert _check_to(identity_spec, out) == 0
    assert capsys.readouterr().out.endswith(f"report written to {out}\n")
    if target != "devnull":
        assert json.loads(out.read_text())["report"]["command"] == "check"


def test_full_disk_keeps_the_old_report(identity_spec, tmp_path, monkeypatch,
                                        capsys):
    out = tmp_path / "r.json"
    assert _check_to(identity_spec, out) == 0
    old = out.read_bytes()
    capsys.readouterr()

    def full(fd, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli.os, "write", full)
    assert _check_to(identity_spec, out) == 3
    monkeypatch.undo()
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1] == "verdict: CERTIFIED_SAMPLED"
    assert captured.err == (f"usage error: cannot write report to {out}: "
                            "No space left on device\n")
    assert out.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["identity.json",
                                                          "r.json"]


# ------------------------------------------------------------------- misc

def test_version_flag():
    assert main(["--version"]) == 0


def test_unknown_subcommand_exit_3():
    assert main(["frobnicate"]) == 3


def test_extremal_with_a_large_selfcheck_residual_is_refused(capsys):
    # the identity residual |lhs_b - S z^n| printed here is 1.8e-5, against
    # a tolerance of 1e-10 x S
    code = main(["extremal", "--family", "EXTREMAL_B", "--n", "1",
                 "--alpha", "0.867273387572356",
                 "--beta=-25.25596027149765,-35.314688227781616",
                 "--gamma=0.30161488684445725,-0.5706474545124733",
                 "--trunc", "58", "--radii", "0.2,0.5,0.9", "--angles", "256"])
    captured = capsys.readouterr()
    assert "1.8305523281982258e-05" in captured.out
    assert captured.out.endswith("verdict: DEGENERATE\n")
    assert captured.err == (
        "rejected: extremal self-check residual 1.8305523281982258e-05 "
        "exceeds its tolerance 5.84117113580739e-10 (1e-10 x max(1, S))\n")
    assert code == 2


@pytest.mark.parametrize("beta, gamma, alpha, trunc, code", [
    ([-25.25596027149765, -35.314688227781616],
     [0.30161488684445725, -0.5706474545124733], 0.867273387572356, 58, 2),
    ([1.0, 0.0], [1.0, 0.0], 0.5, 64, 0),
])
def test_check_on_an_extremal_spec_runs_its_selfcheck(tmp_path, capsys, beta,
                                                      gamma, alpha, trunc,
                                                      code):
    spec = write_spec(tmp_path, "b.json", {
        "kind": "EXTREMAL_B", "n": 1, "trunc": trunc,
        "extremal": {"alpha": alpha, "beta": beta, "gamma": gamma}})
    out = tmp_path / "r.json"
    assert main(["check", spec, "--kind", "THM_B", "--alpha", repr(alpha),
                 f"--beta={beta[0]!r},{beta[1]!r}",
                 f"--gamma={gamma[0]!r},{gamma[1]!r}", "--radii",
                 "0.2,0.5,0.9", "--angles", "256", "--out", str(out)]) == code
    captured = capsys.readouterr()
    report = json.loads(out.read_text())["report"]
    resid, tol = (report["selfcheck"]["identity_residual"],
                  report["selfcheck"]["tolerance"])
    if code:
        assert captured.err == (
            f"rejected: extremal self-check residual {resid!r} exceeds its "
            f"tolerance {tol!r} (1e-10 x max(1, S))\n")
        assert resid > tol and report["result"]["verdict"] == "DEGENERATE"
    else:
        assert captured.err == ""
        assert resid <= tol and report["result"]["verdict"] == "CERTIFIED_SAMPLED"


@pytest.mark.parametrize("family, n, alpha, beta, gamma, trunc, code", [
    ("EXTREMAL_A", 2, 0.5, [0.12, -0.024], [1.0, -0.2], 64, 0),
    ("EXTREMAL_B", 1, 0.5, [1.0, 0.0], [1.0, 0.0], 64, 0),
    # the draw whose self-check refuses it
    ("EXTREMAL_B", 1, 0.867273387572356,
     [-25.25596027149765, -35.314688227781616],
     [0.30161488684445725, -0.5706474545124733], 58, 2),
], ids=["A", "B", "B-selfcheck-refused"])
def test_extremal_and_check_agree_on_one_construction(
        tmp_path, capsys, family, n, alpha, beta, gamma, trunc, code):
    spec = write_spec(tmp_path, "e.json", {
        "kind": family, "n": n, "trunc": trunc,
        "extremal": {"alpha": alpha, "beta": beta, "gamma": gamma}})
    scalars = ["--alpha", repr(alpha), f"--beta={beta[0]!r},{beta[1]!r}",
               f"--gamma={gamma[0]!r},{gamma[1]!r}", "--radii", "0.2,0.5,0.9",
               "--angles", "256"]
    kind = "THM_A" if family == "EXTREMAL_A" else "THM_B"
    runs = {}
    for argv in (["extremal", "--family", family, "--n", str(n), "--trunc",
                  str(trunc), *scalars],
                 ["check", spec, "--kind", kind, *scalars]):
        out = tmp_path / f"{argv[0]}.json"
        code = main([*argv, "--out", str(out)])
        report = json.loads(out.read_text())["report"]
        runs[argv[0]] = (code, capsys.readouterr().err,
                         {k: report[k] for k in ("result", "selfcheck",
                                                 "criterion_params",
                                                 "sampling")})
    assert runs["extremal"] == runs["check"]
    assert runs["check"][0] == code and (runs["check"][1] != "") == bool(code)
