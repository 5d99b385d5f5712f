import json

import pytest

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
