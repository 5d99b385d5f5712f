import numpy as np
import pytest

from sgsov import DegenerateModelError, pipeline, solve
from sgsov.acceptance import default_instance
from sgsov.cli import main


def test_parity_alignment_for_complex_couplings(solution_complex):
    # this instance needs one grid representative negated before the
    # shift-generator determinant identity holds; solve() finds the
    # alignment on its own and everything downstream stays consistent
    sol = solution_complex
    assert np.any(np.angle(sol.avg.Z) < -1e-9)  # a flip actually happened

    assert sol.right_overlaps.min() > 1 - 1e-8
    assert sol.left_overlaps.min() > 1 - 1e-8
    det_id = sol.form_factor_table("identity")
    dir_id = sol.direct_table("identity")
    const = (np.diag(det_id) / np.diag(dir_id)).mean()
    ratio = sol.form_factor_table("u1") / sol.direct_table("u1")
    assert np.max(np.abs(ratio / const - 1)) < 1e-6


def test_no_flip_for_real_couplings(solution7):
    # real couplings keep every squared zero on the stable branch
    assert np.all(np.angle(solution7.avg.Z) >= -1e-9)


def test_solve_is_deterministic(params7, solution7):
    again = solve(params7, seed=7)
    assert np.array_equal(again.built_right, solution7.built_right)
    assert np.array_equal(again.matched_left, solution7.matched_left)
    assert again.reference_index == solution7.reference_index


def test_parity_failure_is_degenerate(monkeypatch, capsys):
    # no grid representative aligns the parity: a stated degenerate case
    # (exit code 4), not an internal error
    monkeypatch.setattr(pipeline, "_shift_parity", lambda sol: -1.0)
    with pytest.raises(DegenerateModelError, match="shift-generator parity"):
        solve(default_instance(seed=11, N=1), seed=11)
    assert main(["--n-sites", "1", "--seed", "11", "formfactors"]) == 4
