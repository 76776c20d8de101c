import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from dswarp import cli, verification
from dswarp import spin_group as sg
from dswarp import wedges as wd
from dswarp.car_fock import cospinor, field_B, field_word, spinor
from dswarp.deformation import warp


def validate_report_schema(report: dict):
    """The report, without its timings, against the shipped report_schema.json."""
    schema = json.loads(resources.files("dswarp").joinpath("report_schema.json")
                        .read_text(encoding="utf-8"))
    jsonschema.validate(cli.report_payload_without_timings(report), schema)


@pytest.fixture(autouse=True)
def every_written_report_matches_the_schema(tmp_path):
    """After each test, every report.json written under its tmp_path, by an
    in-process run or a child process, is validated against the schema."""
    yield
    for path in tmp_path.rglob("report.json"):
        validate_report_schema(json.loads(path.read_text()))


def _write_config(tmp_path, overrides):
    cfg = json.loads(json.dumps(cli.DEFAULT_CONFIG))
    for section, values in overrides.items():
        if isinstance(values, dict):
            cfg[section].update(values)
        else:
            cfg[section] = values
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_default_config_validates():
    cli.validate_config(cli.load_config(None))


def test_mode_guard_rejected(tmp_path):
    path = _write_config(tmp_path, {"model": {"d_plus": 20,
                                              "boost_freqs_plus": [0.0] * 20}})
    with pytest.raises(cli.ConfigError):
        cli.validate_config(cli.load_config(path))


def test_unknown_suite_rejected(tmp_path):
    path = _write_config(tmp_path, {"suites": ["geometry", "nope"]})
    with pytest.raises(cli.ConfigError):
        cli.validate_config(cli.load_config(path))


def test_duplicate_suite_rejected(tmp_path):
    path = _write_config(tmp_path, {"suites": ["geometry", "geometry"]})
    with pytest.raises(cli.ConfigError):
        cli.validate_config(cli.load_config(path))


def test_nonfinite_kappa_rejected(tmp_path):
    path = _write_config(tmp_path, {"deformation": {"kappa": [0.1, float("nan")]}})
    with pytest.raises(cli.ConfigError):
        cli.validate_config(cli.load_config(path))


def test_guard_exit_code(tmp_path, capsys):
    path = _write_config(tmp_path, {"model": {"d_plus": 20,
                                              "boost_freqs_plus": [0.0] * 20}})
    rc = cli.main(["verify", "--config", path])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_geometry_suite_passes(tmp_path, capsys):
    rc = cli.main(["verify", "--suite", "geometry", "--out", str(tmp_path / "o")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "geometry" in out and "FAIL" not in out
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["all_pass"] is True
    assert [s["name"] for s in report["suites"]] == ["geometry"]


def test_locality_suite_with_kappa_grid(tmp_path):
    rc = cli.main(["verify", "--suite", "locality", "--kappa", "0", "0.5",
                   "--out", str(tmp_path / "o")])
    assert rc == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    grid = [c for s in report["suites"] for c in s["checks"]
            if c["name"] == "twisted-locality"]
    assert [c["metadata"]["kappa"] for c in grid] == [0.0, 0.5]
    assert all(c["pass"] for c in grid)


def test_determinism_excluding_timings(tmp_path):
    cfg = cli.load_config(None)
    cfg["suites"] = ["covering", "car", "inequivalence"]
    first = cli.run(cfg)
    second = cli.run(cfg)
    strip = cli.report_payload_without_timings
    assert json.dumps(strip(first), sort_keys=True) == \
        json.dumps(strip(second), sort_keys=True)


def test_report_schema_validates(tmp_path):
    cfg = cli.load_config(None)
    cfg["suites"] = ["lie"]
    report = cli.run(cfg)
    validate_report_schema(report)
    bad = cli.report_payload_without_timings(report)
    del bad["seed"]
    with pytest.raises(jsonschema.ValidationError):
        validate_report_schema(bad)


def test_csv_output(tmp_path):
    rc = cli.main(["verify", "--suite", "lie", "--out", str(tmp_path / "o"),
                   "--format", "csv"])
    assert rc == 0
    lines = (tmp_path / "o" / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "suite,kappa,residual,tolerance,pass"
    assert len(lines) > 1


def test_group_subcommand(capsys):
    rc = cli.main(["group", "--t", "0.5"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["boost_match_residual"] < 1e-10
    assert payload["kernel_residual"] == 0.0
    lam = np.array(payload["covering_of_boost"])
    assert lam[0, 0] == pytest.approx(np.cosh(np.pi), rel=1e-12)


def test_wedges_subcommand(capsys):
    rc = cli.main(["wedges", "--seed", "3"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["reference_contains_e1"] is True
    assert payload["random_pair_verdict"] == "WITNESS"
    assert "random_pair_trials" not in payload
    witness = np.array(payload["random_pair_witness"])
    moved = wd.Wedge(sg.random_proper_lorentz(np.random.default_rng(3)))
    assert wd.wedge_contains(wd.Wedge.reference(), witness)
    assert not wd.wedge_contains(moved, witness)


def test_wedges_subcommand_equal_pair_has_null_witness(capsys, monkeypatch):
    monkeypatch.setattr(sg, "random_proper_lorentz", lambda rng: sg.boost_base(0.6))
    assert cli.main(["wedges", "--seed", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["random_pair_verdict"] == "EQUAL"
    assert payload["random_pair_witness"] is None


def test_deform_subcommand(capsys):
    rc = cli.main(["deform", "--generator", "psi", "--mode", "2",
                   "--kappa", "0.5"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim"] == 16
    flat = payload["matrix_row_major"]
    assert len(flat) == 256 and len(flat[0]) == 2
    # warped spinor keeps unit operator norm (phases only)
    mat = np.array([a + 1j * b for a, b in flat]).reshape(16, 16)
    assert np.linalg.norm(mat, 2) == pytest.approx(1.0, abs=1e-12)


def test_oracle_subcommand(capsys):
    rc = cli.main(["oracle", "--kappa", "0.5", "--eps", "0.2", "0.1"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    for cutoff in ("gaussian", "cosine"):
        assert payload[cutoff]["decreasing"] is True


def test_report_subcommand(tmp_path, capsys):
    cli.main(["verify", "--suite", "lie", "--out", str(tmp_path / "o")])
    capsys.readouterr()
    rc = cli.main(["report", "--input", str(tmp_path / "o" / "report.json")])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


# -- invalid input is refused with exit code 2 -------------------------------------

def _assert_refused(argv, tmp_path, capsys):
    """Exit code 2, a config-error message, and no NaN in any written report."""
    rc = cli.main(argv)
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    for report in tmp_path.rglob("report.json"):
        assert "NaN" not in report.read_text()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), True])
def test_nonfinite_or_bool_tolerance_refused(tmp_path, capsys, value):
    path = _write_config(tmp_path, {"tolerances": {"exact": value}})
    with pytest.raises(cli.ConfigError):
        cli.validate_config(cli.load_config(path))
    _assert_refused(["verify", "--config", path, "--suite", "geometry",
                     "--out", str(tmp_path / "o")], tmp_path, capsys)


def test_bool_kappa_refused(tmp_path, capsys):
    path = _write_config(tmp_path, {"deformation": {"kappa": [True]}})
    with pytest.raises(cli.ConfigError):
        cli.validate_config(cli.load_config(path))
    _assert_refused(["verify", "--config", path, "--suite", "locality",
                     "--out", str(tmp_path / "o")], tmp_path, capsys)


@pytest.mark.parametrize("seed", [-1, 1.5, "abc", True])
def test_bad_seed_refused(tmp_path, capsys, seed):
    path = _write_config(tmp_path, {"model": {"seed": seed}})
    _assert_refused(["verify", "--config", path, "--suite", "lie",
                     "--out", str(tmp_path / "o")], tmp_path, capsys)


@pytest.mark.parametrize("model", [
    {"localized_modes": 3}, {"localized_modes": [0.5]}, {"localized_modes": [True]},
    {"localized_modes": "02"}, {"reflection_pairing": 5},
    {"reflection_pairing": [1, 0, 3, 2.0]},
], ids=["localized-int", "localized-half", "localized-bool", "localized-string",
        "pairing-int", "pairing-float"])
def test_non_integer_mode_list_refused(tmp_path, capsys, model):
    path = _write_config(tmp_path, {"model": model})
    key = next(iter(model))
    with pytest.raises(cli.ConfigError, match=f"model.{key} must be a list of integer"):
        cli.validate_config(cli.load_config(path))
    assert cli.main(["verify", "--config", path, "--suite", "geometry",
                     "--out", str(tmp_path / "o")]) == 2
    assert "must be a list of integer mode indices" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("model", [{"localized_modes": 3}, {"localized_modes": [0.5]},
                                   {"reflection_pairing": 5},
                                   {"reflection_pairing": [1, 0, 3, 2.5]}])
def test_model_from_config_refuses_non_integer_mode_lists(tmp_path, model):
    # without validate_config in front, the model itself refuses
    cfg = cli.load_config(_write_config(tmp_path, {"model": model}))
    with pytest.raises(cli.ConfigError, match="must be a list of integer mode indices"):
        cli.model_from_config(cfg)


@pytest.mark.parametrize("section,key", [("model", "rotation_angel"), ("deformation", "kapa"),
                                         ("tolerances", "exakt")])
def test_unknown_key_in_config_section_refused(tmp_path, capsys, section, key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({section: {key: 1.0}}))
    assert cli.main(["verify", "--config", str(path), "--suite", "geometry",
                     "--out", str(tmp_path / "o")]) == 2
    assert f"unknown key {key!r} in config section {section!r}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("angle", [float("nan"), float("inf"), "0.5", True])
def test_bad_rotation_angle_refused(tmp_path, capsys, angle):
    path = _write_config(tmp_path, {"model": {"rotation_angle": angle}})
    _assert_refused(["verify", "--config", path, "--suite", "inequivalence",
                     "--out", str(tmp_path / "o")], tmp_path, capsys)


@pytest.mark.parametrize("model", [
    {"boost_freqs_plus": 3}, {"boost_freqs_plus": [float("nan"), 1.0]},
    {"boost_freqs_plus": [True, -1.0]}, {"boost_freqs_minus": [1.0, float("inf")]},
    {"boost_freqs_minus": ["1", -1.0]},
], ids=["plus-int", "plus-nan", "plus-bool", "minus-inf", "minus-string"])
def test_bad_boost_frequencies_refused(tmp_path, capsys, model):
    path = _write_config(tmp_path, {"model": model})
    key = next(iter(model))
    with pytest.raises(cli.ConfigError, match=f"model.{key} must be a list of finite reals"):
        cli.validate_config(cli.load_config(path))
    _assert_refused(["verify", "--config", path, "--suite", "fixed_point",
                     "--out", str(tmp_path / "o")], tmp_path, capsys)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("model", [{"d_plus": 2.5}, {"d_plus": "2"}, {"d_plus": 2.0},
                                   {"d_minus": True}, {"d_minus": None}])
def test_non_integer_mode_count_refused(tmp_path, capsys, model):
    path = _write_config(tmp_path, {"model": model})
    key = next(iter(model))
    with pytest.raises(cli.ConfigError, match=f"model.{key} must be an integer mode count"):
        cli.validate_config(cli.load_config(path))
    _assert_refused(["verify", "--config", path, "--suite", "geometry",
                     "--out", str(tmp_path / "o")], tmp_path, capsys)


def test_negative_seed_option_refused(tmp_path, capsys):
    _assert_refused(["verify", "--suite", "lie", "--seed", "-1",
                     "--out", str(tmp_path / "o")], tmp_path, capsys)


def test_unparseable_verify_kappa_refused(tmp_path, capsys):
    _assert_refused(["verify", "--suite", "geometry", "--kappa", "abc",
                     "--out", str(tmp_path / "o")], tmp_path, capsys)


@pytest.mark.parametrize("generator,mode", [("psi", 99), ("psi", 4), ("psidag", -1),
                                            ("b", 8)])
def test_deform_mode_out_of_range_refused(tmp_path, capsys, generator, mode):
    _assert_refused(["deform", "--generator", generator, "--mode", str(mode),
                     "--kappa", "0.5"], tmp_path, capsys)


def test_deform_last_mode_accepted(capsys):
    assert cli.main(["deform", "--generator", "b", "--mode", "7", "--kappa", "0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["mode"] == 7


@pytest.mark.parametrize("eps", ["0", "-0.1", "nan", "inf", "abc"])
def test_oracle_bad_eps_refused(tmp_path, capsys, eps):
    _assert_refused(["oracle", "--kappa", "0.5", "--eps", "0.1", eps], tmp_path, capsys)


@pytest.mark.parametrize("eps", ["9.7e-4", "1e-5"])
def test_oracle_small_eps_converges(capsys, eps):
    assert cli.main(["oracle", "--kappa", "0.5", "--eps", "0.1", eps]) == 0
    payload = json.loads(capsys.readouterr().out)
    for cutoff in ("gaussian", "cosine"):
        residuals = payload[cutoff]["residuals"]
        assert np.isfinite(residuals).all()
        assert residuals[0] > residuals[1] and payload[cutoff]["decreasing"] is True


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [["--kappa", "0.5", "--eps", "0.1", "1e-300"],
                                  ["--kappa", "1e308", "--eps", "0.1"]],
                         ids=["eps-1e-300", "kappa-1e308"])
def test_oracle_nonfinite_residual_fails(capsys, argv):
    assert cli.main(["oracle", *argv]) == 1
    out = capsys.readouterr().out
    assert "NaN" not in out
    payload = json.loads(out)
    assert None in payload["cosine"]["residuals"]
    assert payload["cosine"]["decreasing"] is False


def test_oracle_nonfinite_kappa_refused(tmp_path, capsys):
    _assert_refused(["oracle", "--kappa", "nan", "--eps", "0.1"], tmp_path, capsys)


FOCK128_MODEL = {"d_plus": 4, "d_minus": 3,
                  "boost_freqs_plus": [1.0, -1.0, 2.0, -2.0],
                  "boost_freqs_minus": [1.0, -1.0, 0.0],
                  "localized_modes": [0, 2, 4], "reflection_pairing": [1, 0, 3, 2, 5, 4, 6]}


def _deform_matrix(capsys, argv) -> tuple[int, np.ndarray]:
    """Exit code and printed matrix of `dswarp deform`; a null entry is NaN."""
    rc = cli.main(["deform", *argv])
    payload = json.loads(capsys.readouterr().out)
    flat = np.array([[math.nan if x is None else x for x in z]
                     for z in payload["matrix_row_major"]])
    return rc, (flat[:, 0] + 1j * flat[:, 1]).reshape(payload["dim"], payload["dim"])


@pytest.mark.parametrize("model_cfg", [{}, FOCK128_MODEL], ids=["default", "fock128"])
@pytest.mark.parametrize("kappa", [0.5, -1.0])
def test_deform_equals_dense_warp_of_field_B(tmp_path, monkeypatch, model_cfg, kappa):
    """Every generator and mode: the mask-word deform output equals the dense
    warp(model, kappa, field_B(model, e)) entry for entry (only the sign of a
    zero may differ), and psi and psidag are the spinor and cospinor.  The
    payload is taken before its JSON encoding, which writes each float
    exactly; the other deform tests run the printing."""
    path = str(_write_config(tmp_path, {"model": model_cfg}))
    model = cli.model_from_config(cli.load_config(path))
    payloads = []
    monkeypatch.setattr(cli, "_print_json", lambda payload: payloads.append(payload) or 0)
    n, d = model.n_modes, model.dim
    for generator, size in (("psi", n), ("psidag", n), ("b", 2 * n)):
        for mode in range(size):
            index = n + mode if generator == "psi" else mode
            dense = field_B(model, np.eye(2 * n)[index])
            if generator != "b":
                named = (spinor if generator == "psi" else cospinor)(model, np.eye(n)[mode])
                assert (named.matrix == dense.matrix).all()
            cli.main(["deform", "--config", path, "--generator", generator,
                      "--mode", str(mode), "--kappa", repr(kappa)])
            flat = np.array(payloads.pop()["matrix_row_major"])
            got = (flat[:, 0] + 1j * flat[:, 1]).reshape(d, d)
            assert (got == warp(model, kappa, dense).matrix).all(), (generator, mode)


def test_deform_overflow_nulls_sit_on_the_word_entries(capsys):
    """At kappa 1e308 the warp phase overflows where |angle| >= 2.  The output
    is null only at the word's own entries where the dense warp is NaN; the
    dense warp also writes 0 * NaN into cells off the word."""
    model = cli.model_from_config(cli.load_config(None))
    rc, got = _deform_matrix(capsys, ["--generator", "b", "--mode", "0", "--kappa", "1e308"])
    assert rc == 1
    d = model.dim
    word = field_word(model, np.eye(model.doubled_dim)[0])
    on_word = np.zeros((d, d), dtype=bool)
    on_word[word.rows(), np.arange(d)] = True
    with np.errstate(all="ignore"):
        dense = warp(model, 1e308, field_B(model, np.eye(model.doubled_dim)[0])).matrix
    assert (np.isnan(got) == (np.isnan(dense) & on_word)).all()
    assert np.isnan(got).sum() == 8 and np.isnan(dense).sum() == 104
    finite = ~np.isnan(dense)
    assert (got[finite] == dense[finite]).all() and (got[~finite & ~on_word] == 0.0).all()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_deform_nonfinite_matrix_written_as_null(capsys):
    # at kappa 1e308 the warp phases overflow: the entries are written as
    # null, never as a NaN token, and the exit code is 1
    assert cli.main(["deform", "--kappa", "1e308"]) == 1
    out = capsys.readouterr().out
    assert "NaN" not in out
    assert [None, None] in json.loads(out)["matrix_row_major"]


@pytest.mark.parametrize("t", ["100", "nan"])
def test_group_outside_checkable_range_refused(tmp_path, capsys, t):
    # at t = 100 the lift's entries are about 1e136, finite, but the squared
    # norm of its covering image overflows, so the SO(1,4)_0 gate cannot be
    # evaluated
    _assert_refused(["group", "--t", t], tmp_path, capsys)


def test_group_inside_checkable_range_accepted(capsys):
    assert cli.main(["group", "--t", "1.5"]) == 0
    assert json.loads(capsys.readouterr().out)["t"] == 1.5


def test_group_t2_accepted_by_scaled_gate(capsys):
    # at t = 2 the boost's Lorentz defect is 3.2e-6, rounding on entries of
    # size cosh(4 pi)^2; the SO(1,4)_0 gate scales with ||Lambda||^2
    assert cli.main(["group", "--t", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["t"] == 2.0


def test_group_accepted_for_every_t_up_to_the_cofactor_cap(capsys):
    # the Sp(1,1) membership gate scales with ||g||_F^2, so rounding alone no
    # longer refuses the boost lift from t = 2.3 on; the SO(1,4)_0 gate
    # accepts up to Lambda_00 = COFACTOR_CAP, t = 5.4056
    for step in range(109):
        t = round(0.05 * step, 2)
        assert cli.main(["group", "--t", repr(t)]) == 0, t
        assert json.loads(capsys.readouterr().out)["t"] == t


def test_group_refused_just_past_the_cofactor_cap(tmp_path, capsys):
    _assert_refused(["group", "--t", "5.41"], tmp_path, capsys)


def test_wedges_negative_seed_refused(tmp_path, capsys):
    _assert_refused(["wedges", "--seed", "-1"], tmp_path, capsys)


@pytest.mark.parametrize("overrides", [{"output": 5}, {"output": None},
                                       {"suites": [["car"]]}],
                         ids=["output-int", "output-null", "nested-suite"])
def test_malformed_output_or_suites_refused_before_any_suite(tmp_path, capsys, monkeypatch,
                                                             overrides):
    path = _write_config(tmp_path, overrides)
    with pytest.raises(cli.ConfigError):
        cli.validate_config(cli.load_config(path))

    def no_suites(*args):
        raise AssertionError("a suite ran before the config was refused")

    monkeypatch.setattr(cli, "run_suites", no_suites)
    _assert_refused(["verify", "--config", path], tmp_path, capsys)


def test_report_missing_input_refused(tmp_path, capsys):
    _assert_refused(["report", "--input", str(tmp_path / "missing.json")], tmp_path, capsys)


@pytest.mark.parametrize("text", ["{not json", "[1, 2]", '{"suites": []}'])
def test_report_unparseable_input_refused(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    _assert_refused(["report", "--input", str(path)], tmp_path, capsys)


# -- a config that a requested suite cannot run is refused before any suite runs ----

ONE_PLUS_ONE = {"d_plus": 1, "d_minus": 1, "boost_freqs_plus": [1.0],
                "boost_freqs_minus": [-1.0], "localized_modes": [0],
                "reflection_pairing": None}
TWO_PLUS_ZERO = {"d_plus": 2, "d_minus": 0, "boost_freqs_plus": [1.0, -1.0],
                 "boost_freqs_minus": [], "localized_modes": [0],
                 "reflection_pairing": [1, 0]}


@pytest.mark.parametrize("model,suite,lack", [
    ({"reflection_pairing": None}, "locality", "no reflection_pairing"),
    ({"reflection_pairing": None}, "deformation", "no reflection_pairing"),
    ({"rotation_angle": None}, "inequivalence", "no rotation_angle"),
    (ONE_PLUS_ONE, "deformation", "no reflection_pairing"),
    (ONE_PLUS_ONE, "inequivalence", "no species block of two modes to rotate"),
    (ONE_PLUS_ONE, "fixed_point", "no two modes of one species with distinct boost frequencies"),
    (TWO_PLUS_ZERO, "inequivalence", "no antiparticle mode"),
], ids=["no-reflection-locality", "no-reflection-deformation", "no-rotation-inequivalence",
        "1+1-deformation", "1+1-inequivalence", "1+1-fixed_point", "2+0-inequivalence"])
def test_suite_the_model_cannot_run_is_refused(tmp_path, capsys, monkeypatch, model, suite,
                                               lack):
    ran = []
    for name, fn in list(verification.SUITES.items()):
        monkeypatch.setitem(verification.SUITES, name,
                            lambda *args, _name=name, _fn=fn: ran.append(_name) or _fn(*args))
    path = _write_config(tmp_path, {"model": model, "suites": ["geometry", suite]})
    rc = cli.main(["verify", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert (f"config error: suite {suite!r} cannot run: the model has {lack}"
            in capsys.readouterr().err)
    assert ran == [] and not (tmp_path / "o").exists()
    # the same recorder sees a suite that does run
    assert cli.main(["verify", "--suite", "geometry", "--out", str(tmp_path / "g")]) == 0
    assert ran == ["geometry"]


def test_deformation_runs_without_rotation_angle(tmp_path):
    # no deformation check rotates
    path = _write_config(tmp_path, {"model": {"rotation_angle": None}})
    assert cli.main(["verify", "--config", path, "--suite", "deformation",
                     "--out", str(tmp_path / "o")]) == 0


def test_nan_in_obstruction_grid_fails_lie_suite(monkeypatch, tmp_path):
    from dswarp import spin_group as sg
    flow = sg.abelian_flow
    monkeypatch.setattr(sg, "abelian_flow", lambda tag, t, s: (
        np.full((5, 5), np.nan) if t > 0.4 else flow(tag, t, s)))
    out = tmp_path / "out"
    assert cli.main(["verify", "--suite", "lie", "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    check = {c["name"]: c for c in report["suites"][0]["checks"]}["reflection-obstruction-grid"]
    assert check["pass"] is False
    assert check["max_residual"] is None


# -- one mode cap ----------------------------------------------------------------------

def test_mode_cap_is_car_fock_max_modes(tmp_path, capsys):
    from dswarp.car_fock import MAX_MODES, ModelError, OneParticleModel
    assert MAX_MODES == 10
    assert not hasattr(cli, "MAX_TOTAL_MODES")
    with pytest.raises(ModelError):
        OneParticleModel(6, 5, [1.0] * 6, [1.0] * 5, localized_modes=[0])
    path = _write_config(tmp_path, {"model": {"d_plus": 6, "d_minus": 5,
                                              "boost_freqs_plus": [1.0] * 6,
                                              "boost_freqs_minus": [1.0] * 5}})
    _assert_refused(["verify", "--config", path, "--out", str(tmp_path / "o")],
                    tmp_path, capsys)


# -- NaN never passes ----------------------------------------------------------------

def _nan_car_residuals(monkeypatch):
    """NaN in the unit words of car-anticommutators and in the number blocks of
    the Bogolyubov implementers."""
    from dswarp.car_fock import MaskWord
    word, blocks = verification.field_word, verification.second_quantize_blocks
    monkeypatch.setattr(verification, "second_quantize_blocks",
                        lambda model, w: tuple(np.full_like(g, np.nan) for g in blocks(model, w)))
    monkeypatch.setattr(verification, "field_word",
                        lambda model, f: MaskWord(word(model, f).mask, np.full(model.dim, np.nan)))


def test_nan_residual_fails_car_suite(monkeypatch):
    _nan_car_residuals(monkeypatch)
    model = cli.model_from_config(cli.load_config(None))
    checks = {c.name: c for c in verification.suite_car(model, cli.load_config(None),
                                                        np.random.default_rng(0))}
    for name in ("car-anticommutators", "bogolyubov-implementation"):
        assert np.isnan(checks[name].max_residual)
        assert not checks[name].passed


def test_nan_residual_written_as_null(monkeypatch, tmp_path):
    _nan_car_residuals(monkeypatch)
    out = tmp_path / "out"
    assert cli.main(["verify", "--suite", "car", "--out", str(out)]) == 1

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    report = json.loads((out / "report.json").read_text(), parse_constant=refuse)
    checks = {c["name"]: c for c in report["suites"][0]["checks"]}
    for name in ("car-anticommutators", "bogolyubov-implementation"):
        assert checks[name]["pass"] is False
        assert checks[name]["max_residual"] is None
    assert checks["cstar-norm-formula"]["max_residual"] is not None
    validate_report_schema(report)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_warp_fails_without_traceback(tmp_path, capsys):
    # at kappa 1e308 the warp phases overflow to NaN: the residual matrices are
    # not finite, their norms are NaN, and the checks fail instead of raising
    out = tmp_path / "out"
    assert cli.main(["verify", "--suite", "deformation", "--kappa", "1e308",
                     "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    validate_report_schema(report)
    checks = {c["name"]: c for c in report["suites"][0]["checks"]}
    for name in ("warp-inverse", "adjoint-compatibility", "rieffel-associativity"):
        assert checks[name]["max_residual"] is None
        assert checks[name]["pass"] is False


# Run in a fresh interpreter with scipy and jsonschema blocked (an import of
# either fails): import dswarp.cli, then the default verify and the other
# subcommands; print the scipy and jsonschema modules the import loaded and the
# modules the runs added.
_IMPORT_PROBE = """
import contextlib, io, json, sys
sys.modules["scipy"] = sys.modules["jsonschema"] = None
import dswarp.cli
blocked = sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "jsonschema")
                 and sys.modules[m] is not None)
loaded = set(sys.modules)
codes = []
for argv in (["verify", "--out", sys.argv[1]],
             ["oracle", "--kappa", "0.5", "--eps", "0.1", "0.01", "0.001", "1e-5"],
             ["group", "--t", "0.5"], ["wedges", "--seed", "3"], ["deform"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(dswarp.cli.main(argv))
print(json.dumps({"blocked": blocked, "added": sorted(set(sys.modules) - loaded),
                  "codes": codes}))
"""


def test_cli_import_loads_every_module_a_run_needs_and_no_scipy(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    run = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(tmp_path / "out")],
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result == {"blocked": [], "added": [], "codes": [0, 0, 0, 0, 0]}
