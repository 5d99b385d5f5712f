import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sgsov
from sgsov.acceptance import CRITERIA, criterion_form_factors, run_suite
from sgsov.cli import build_parser, main
from sgsov.config import load_config
from sgsov.errors import ConfigError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


N1 = ("--n-sites", "1", "--seed", "11")


def test_verify_ybe_passes(capsys):
    code, out = run(capsys, *N1, "--format", "json", "verify-ybe")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert all(r["passed"] for r in records if "passed" in r)
    assert all("tolerance" in r for r in records if "passed" in r)


def test_output_is_deterministic(capsys):
    _, out1 = run(capsys, *N1, "--format", "json", "averages")
    _, out2 = run(capsys, *N1, "--format", "json", "averages")
    assert out1 == out2


def test_even_sites_rejected(capsys):
    code, _ = run(capsys, "--n-sites", "2", "spectrum")
    assert code == 2


def test_unreachable_tolerance_fails(capsys):
    code, _ = run(capsys, *N1, "--tol.rll", "1e-20", "verify-ybe")
    assert code == 3


def test_degenerate_parameters_rejected(capsys):
    code, _ = run(capsys, "--n-sites", "3", "--tol.grid_separation", "1.0",
                  "averages")
    assert code == 4


@pytest.mark.parametrize("flag", ["--kappa", "--xi"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_couplings_are_config_errors(flag, value, capsys):
    code = main([flag, f"{value},1,1", "spectrum"])
    assert code == 2
    assert "must be finite" in capsys.readouterr().err


def test_overflowing_builds_fail_the_charge_conjugation_gate(capsys):
    # finite couplings whose transfer builds overflow: the NaN certificate must not pass
    code = main(["--kappa=1e308,1,1", "spectrum"])
    assert code == 3
    assert "charge conjugation" in capsys.readouterr().err


@pytest.mark.parametrize("kappa, command", [("1e200", "averages"), ("1e-300", "averages"),
                                            ("1e200", "sov-basis")])
def test_non_finite_average_coefficients_exit_4(kappa, command, capsys):
    # finite couplings whose average polynomial over- or underflows: a stated
    # degenerate-model rejection, not a root-solver traceback
    assert main([f"--kappa={kappa},1,1", command]) == 4
    assert "average polynomial are not finite" in capsys.readouterr().err


def test_negative_seed_is_config_error(capsys):
    with pytest.raises(ConfigError, match="non-negative"):
        load_config(None, {"seed": -1})
    assert main(["--seed", "-1", "spectrum"]) == 2


def test_commands_load_no_scipy():
    # only ``suite --ab-initio`` imports scipy; every other path runs on numpy alone
    script = (
        "import sys, sgsov, sgsov.cli\n"
        "for command in ('spectrum', 'formfactors', 'suite'):\n"
        "    assert sgsov.cli.main(['--seed', '7', '--out', sys.argv[1], command]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(sgsov.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script, "/dev/null"], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src, "SGSOV_NUM_THREADS": "1"})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_coupling_flags(capsys):
    code, out = run(capsys, "--n-sites", "1", "--kappa", "1.3", "--xi", "0.8",
                    "--format", "json", "verify-ybe")
    assert code == 0


def test_tol_flag_with_equals(capsys):
    code, _ = run(capsys, *N1, "--tol.rll=1e-20", "verify-ybe")
    assert code == 3
    code, _ = run(capsys, *N1, "--tol.rll=oops", "verify-ybe")
    assert code == 2


def test_config_file_roundtrip(tmp_path, capsys):
    cfg = {
        "N": 1, "p": 3, "p_prime": 2, "seed": 11,
        "lambda_grid": {"count": 4, "r_min": 0.5, "r_max": 2.0},
        "tolerances": {"rll": 1e-9},
        "output": {"format": "json"},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    code, out = run(capsys, "--config", str(path), "verify-ybe")
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert rec["tolerance"] == 1e-9
    assert rec["pairs"] == 4


def test_flags_override_config(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"N": 3, "seed": 1, "tolerances": {"rll": 1e-9}}))
    cfg = load_config(str(path), {"N": 1, "tolerances": {"tq": 1e-7}})
    assert cfg.N == 1
    assert cfg.seed == 1
    assert cfg.tolerances == {"rll": 1e-9, "tq": 1e-7}


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"sites": 3}))
    with pytest.raises(ConfigError, match="unknown config keys"):
        load_config(str(path))
    path.write_text(json.dumps({"tolerances": {"bogus": 1.0}}))
    with pytest.raises(ConfigError, match="tolerance"):
        load_config(str(path))


def test_config_complex_couplings(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"N": 1, "kappa": [[1.0, 0.5]], "xi": ["0.8+0.1j"]}))
    cfg = load_config(str(path))
    assert cfg.kappa == (1.0 + 0.5j,)
    assert cfg.xi == (0.8 + 0.1j,)


def test_out_file_and_table_format(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, out = run(capsys, *N1, "--out", str(target), "verify-ybe")
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("rll_residual")
    assert "tolerance=" in text


def test_missing_config_file(capsys):
    code, _ = run(capsys, "--config", "/nonexistent/cfg.json", "spectrum")
    assert code == 2


def test_suite_single_site(capsys):
    code, out = run(capsys, *N1, "--format", "json", "suite")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    summary = records[-1]
    assert summary["record"] == "suite_summary"
    assert summary["passed"] is True
    ids = [r["id"] for r in records if r["record"] == "criterion"]
    assert ids == [str(k) for k in range(1, 10)]


def test_annulus_too_narrow_for_samples_is_config_error(tmp_path, capsys):
    # samples 1e-3 apart (relative) on a circle of circumference 2 pi: at most ~6300 fit
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"lambda_grid": {"count": 7000, "r_min": 1.0, "r_max": 1.0001}}))
    code = main(["--config", str(path), "--seed", "7", "qfunctions"])
    assert code == 2
    assert "cannot place 7000 separated samples" in capsys.readouterr().err


def test_parser_is_built_once_and_reused():
    # main reuses one parser; parsing leaves nothing behind for the next argv
    assert build_parser() is build_parser()
    suite = build_parser().parse_args(["--seed", "3", "suite", "--stretch"])
    plain = build_parser().parse_args(["spectrum"])
    assert (suite.seed, suite.stretch, suite.ab_initio) == (3, True, False)
    assert plain.seed is None and plain.command == "spectrum"
    assert not hasattr(plain, "stretch")
    assert build_parser().parse_args(["suite"]).stretch is False


def test_annulus_budget_is_per_sample(tmp_path, capsys):
    # more samples than draws per sample, in an annulus with ample room
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"lambda_grid": {"count": 1200}}))
    assert main(["--config", str(path), "--seed", "7", "qfunctions"]) == 0
    assert "Q_coeffs" in capsys.readouterr().out


def test_degenerate_q_system_exits_4(capsys):
    # (3,7): one orbit system has a second null direction at a singular-value
    # gap below nullspace_gap (1e-6); a degenerate model, exit code 4
    code = main(["--seed", "7", "--n-sites", "3", "--p", "7", "qfunctions"])
    assert code == 4
    assert ("grid system 2 has a nullspace of dimension > 1 (singular-value gap 2.372e-07)"
            in capsys.readouterr().err)


def test_nan_residuals_fail_verify_ybe(capsys):
    # at kappa_1 = 1e200 the site-1 RLL residual and both commutators are NaN, which
    # a maximum seeded with 0.0 used to fold into a passing 0.0
    code, out = run(capsys, "--kappa=1e200,1,1", "--format", "json", "verify-ybe")
    assert code == 3
    records = {(r["record"], r.get("site")): r for r in map(json.loads, out.splitlines())}
    for key in (("rll_residual", 1), ("transfer_commutator", None), ("b_commutator", None)):
        assert math.isnan(records[key]["value"]) and records[key]["passed"] is False
    assert all(records["rll_residual", site]["passed"] for site in (2, 3))


def test_complex_form_factors_hold_the_u1_ratio_bound(capsys):
    # a complex (3,3) draw whose u1 ratio spread was 1.07e-6 (against ff_ratio
    # 1e-6) with Q read off the fitted polynomial on the grids; the orbit null
    # vectors bring it to about 3e-9
    code, out = run(
        capsys, "--seed", "296035956", "--n-sites", "3", "--p", "3", "--format", "json",
        "--kappa", "(1.0620459272472875-0.35029669128542834j),(1.1887096198081064-0.40635455834755274j),"
                   "(1.5302555992199682+0.04778477154618436j)",
        "--xi", "(0.5955986175551831-0.08616214717366334j),(0.9685598330238491+0.14213602733117212j),"
                "(1.3091976807954409+0.2099566408302678j)",
        "formfactors")
    spread = next(r for r in map(json.loads, out.splitlines()) if r["record"] == "u1_ratio_spread")
    assert code == 0 and spread["passed"]


def test_formfactors_records_are_criterion_8(capsys):
    # the command renders criterion 8's verdict: at an unreachable ratio
    # tolerance both fail, with the same numbers
    code, out = run(capsys, "--seed", "7", "--format", "json", "--tol.ff_ratio=1e-15",
                    "formfactors")
    assert code == 3
    records = {r["record"]: r for r in map(json.loads, out.splitlines()) if r["record"] != "Phi"}
    params = load_config(overrides={"tolerances": {"ff_ratio": 1e-15}}).make_model()
    crit = next(r for r in run_suite(params, 7).results if r.cid == "8")
    assert not crit.passed
    assert [(r["value"], r["passed"]) for r in records.values()] == [
        (crit.measured["identity_offdiag_max"], True),
        (crit.measured["identity_diag_spread"], False),
        (crit.measured["u1_ratio_spread"], False),
    ]
    assert records["u1_ratio_spread"]["constant"] == crit.measured["normalisation_constant"]


def test_sov_basis_records_are_criterion_4(capsys):
    # the command renders criterion 4's frame verdict: at an unreachable measure
    # tolerance both fail, with the same numbers
    code, out = run(capsys, "--seed", "7", "--format", "json", "--tol.measure=1e-30",
                    "sov-basis")
    assert code == 3
    records = {r["record"]: r for r in map(json.loads, out.splitlines())
               if r["record"] != "sov_vector"}
    params = load_config(overrides={"tolerances": {"measure": 1e-30}}).make_model()
    crit, = run_suite(params, 7, criteria=[CRITERIA[3]]).results
    assert not crit.passed
    assert [(k, r["value"], r["passed"]) for k, r in records.items() if "passed" in r] == [
        ("simdiag_residual", crit.measured["simdiag_residual"], True),
        ("pairing_offdiag", crit.measured["pairing_offdiag"], False),
        ("measure_deviation", crit.measured["measure_deviation"], False),
    ]
    assert records["measure_deviation"]["tolerance"] == crit.measured["measure_tolerance"]


def test_formfactors_need_no_per_row_scales(monkeypatch, capsys, solution7, rng):
    # the Hadamard scales come from the table pass, never one dual state at a time
    def refuse(*args, **kwargs):
        raise AssertionError("form_factor_det_scale was called")

    for module in (sgsov.observables, sgsov.acceptance, sgsov.cli):
        monkeypatch.setattr(module, "form_factor_det_scale", refuse, raising=False)
    assert run(capsys, "--seed", "7", "formfactors")[0] == 0
    assert criterion_form_factors(solution7, rng).passed
