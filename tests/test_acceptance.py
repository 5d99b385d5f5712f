"""Acceptance gate: every exit criterion at its stated tolerance.

Runs the full criteria list on the default instance (N=3, p=3, p'=2,
couplings from seed 7) and prints one pass/fail line per criterion, then
repeats the structural criteria on the stretch instances p=5/N=3 and
p=3/N=5.
"""

import numpy as np
import pytest

from sgsov import acceptance
from sgsov.acceptance import CRITERIA, CriterionResult, default_instance, run_suite


@pytest.fixture(scope="module")
def report(params7, solution7):
    return run_suite(params7, seed=7, solution=solution7)


def _show(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {result.cid:>2s} {result.name:34s} {status} "
          f"tol={result.tolerance} ({result.runtime_s:.2f}s)")
    for warning in result.warnings:
        print(f"            warning: {warning}")


def test_criterion_1_rll(report):
    res = report.results[0]
    _show(res)
    assert res.passed
    assert res.measured["max_residual"] <= 1e-10
    assert res.runtime_s < 1.0


def test_criterion_2_transfer_commutativity(report):
    res = report.results[1]
    _show(res)
    assert res.passed
    assert res.measured["max_residual"] <= 1e-10
    assert res.runtime_s < 1.0


def test_criterion_3_central_averages(report):
    res = report.results[2]
    _show(res)
    assert res.passed
    assert res.measured["avg_vs_scalar"] <= 1e-8
    assert res.measured["centrality_commutator"] <= 1e-9
    assert res.measured["closed_form_vs_product"] <= 1e-10
    assert res.runtime_s < 5.0


def test_criterion_4_sov_basis(report, params7):
    res = report.results[3]
    _show(res)
    assert res.passed
    assert res.measured["simdiag_residual"] <= 1e-9
    assert res.measured["label_count"] == params7.dim
    assert res.measured["measure_deviation"] <= 1e-8
    assert res.runtime_s < 10.0


def test_criterion_5_spectrum(report, params7):
    res = report.results[4]
    _show(res)
    assert res.passed
    assert res.measured["eigenvalue_count"] == params7.dim
    assert res.measured["min_coeff_gap"] > 1e-8
    assert res.measured["max_heldout_fit"] <= 1e-9
    assert res.measured["max_eigen_grid_det"] <= 1e-8
    assert res.measured["min_perturbed_grid_det"] >= 1e-5
    assert res.runtime_s < 30.0


def test_criterion_6_q_functions(report, params7):
    res = report.results[5]
    _show(res)
    assert res.passed
    assert res.measured["max_degree"] <= params7.N * (params7.p - 1)
    assert res.measured["max_grid_residual"] <= 1e-8
    assert res.measured["max_tq_residual"] <= 1e-8
    assert res.measured["excess_coefficient_max"] <= 1e-8
    assert res.runtime_s < 30.0


def test_criterion_7_eigenstates(report):
    res = report.results[6]
    _show(res)
    assert res.passed
    assert res.measured["max_right_overlap_defect"] <= 1e-8
    assert res.measured["max_left_overlap_defect"] <= 1e-8
    assert res.measured["max_transfer_residual"] <= 1e-8
    assert res.runtime_s < 30.0


def test_criterion_8_form_factors(report):
    res = report.results[7]
    _show(res)
    assert res.passed
    assert res.measured["identity_offdiag_max"] <= 1e-8
    assert res.measured["identity_diag_spread"] <= 1e-6
    assert res.measured["u1_ratio_spread"] <= 1e-6
    assert res.runtime_s < 120.0


def test_criterion_9_reality(report):
    res = report.results[8]
    _show(res)
    assert res.passed  # soft: warnings only
    assert np.isfinite(res.measured["t_imag_residue"])
    assert np.isfinite(res.measured["q_imag_residue"])


def test_whole_suite_passes(report):
    assert report.passed


def test_runtime_budget_is_enforced(params7, solution7):
    def over_budget(sol, rng):
        return CriterionResult("x", "over_budget", True, None, {}, runtime_s=2.0,
                               budget_s=1.0, warnings=("note",))

    def run(enforce):
        return run_suite(params7, seed=7, solution=solution7, criteria=[over_budget],
                         enforce_budgets=enforce).results[0]

    enforced = run(True)
    assert not enforced.passed
    assert enforced.warnings == ("note", "runtime budget exceeded")
    assert run(False) == over_budget(solution7, None)


@pytest.mark.parametrize("p,n_sites", [(5, 3), (3, 5)])
def test_stretch_structural(p, n_sites):
    params = default_instance(seed=7, N=n_sites, p=p)
    stretch_report = run_suite(params, seed=7, criteria=CRITERIA[:4],
                               enforce_budgets=False)
    for res in stretch_report.results:
        print(f"stretch p={p} N={n_sites}: ", end="")
        _show(res)
        assert res.passed


@pytest.mark.parametrize("index, name, key, nan_value", [
    (0, "verify_rll", "max_residual", lambda *args: np.nan),
    (1, "transfer_commutator_residual", "max_residual", lambda *args: np.nan),
    (2, "commutator_residual", "centrality_commutator", lambda *args: np.nan),
    (6, "transfer", "max_transfer_residual", lambda params, lam: np.full((params.dim,) * 2, np.nan)),
], ids=["rll", "transfer_commutativity", "central_averages", "eigenstates"])
def test_nan_residual_fails_its_criterion(index, name, key, nan_value, solution7, monkeypatch):
    # max(0.0, nan) is 0.0: a residual the check cannot measure must fail it, not pass
    monkeypatch.setattr(acceptance, name, nan_value)
    res = CRITERIA[index](solution7, np.random.default_rng(0))
    assert not res.passed
    assert np.isnan(res.measured[key])
