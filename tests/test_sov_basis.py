from dataclasses import replace

import numpy as np
import pytest

from sgsov import (
    b_operator,
    calibrate_scales,
    compute_grids,
    diagonalize_b_family,
    solve,
)
from sgsov import laurent, sov_basis
from sgsov.errors import DegenerateModelError
from sgsov.sov_basis import grid_labels, separate_expansion, vandermonde_weights


def test_single_site_frame_shape(params_n1):
    avg = compute_grids(params_n1)
    frame = diagonalize_b_family(params_n1, avg, 99)
    assert frame.right.shape == (3, 3) and frame.measure.shape == (3,)
    assert grid_labels(1, 3).tolist() == [[0], [1], [2]]


def test_simultaneous_eigenvectors(params7, solution7, rng):
    frame = solution7.frame
    assert frame.diagnostics["simdiag_residual"] < 1e-9
    # held-out spectral parameters not used in construction
    for lam in laurent.sample_annulus(rng, 3, avoid=solution7.avg.all_points()):
        op = b_operator(params7, lam)
        gv = op @ frame.right
        # each column must be an eigenvector: residual against the Rayleigh value
        for j in range(frame.dim):
            w = frame.right[:, j]
            theta = np.vdot(w, gv[:, j]) / np.vdot(w, w)
            resid = np.linalg.norm(gv[:, j] - theta * w) / (
                np.linalg.norm(op) * np.linalg.norm(w))
            assert resid < 1e-8


def test_biorthogonality(params7, solution7):
    frame = solution7.frame
    pairing = frame.pairing()
    diag = np.diag(pairing)
    off = pairing - np.diag(diag)
    assert np.max(np.abs(off)) / np.max(np.abs(diag)) < 1e-10


def test_labels_are_bijective_and_annihilating(params7, solution7):
    frame = solution7.frame
    avg = solution7.avg
    labels = grid_labels(params7.N, params7.p)
    # every vector is annihilated by exactly one grid point per variable,
    # the one its canonical label names
    cols = frame.right / np.linalg.norm(frame.right, axis=0)[None, :]
    hits = np.zeros(frame.dim, dtype=int)
    for n in range(params7.N):
        for k in range(params7.p):
            op = b_operator(params7, avg.grids[n, k])
            resid = np.linalg.norm(op @ cols, axis=0) / np.linalg.norm(op)
            hits += resid <= 1e-8
            assert np.array_equal(resid <= 1e-8, labels[:, n] == k)
    assert np.all(hits == params7.N)


def test_relabelling_under_grid_rebase(params7, solution7):
    # shifting the base point y0 -> y0 q rolls the grids one step, so every
    # label drops by one (mod p)
    avg = solution7.avg
    avg_shift = replace(avg, y0=avg.y0 * params7.q, grids=np.roll(avg.grids, -1, axis=1))
    base = diagonalize_b_family(params7, avg, 99)
    shifted = diagonalize_b_family(params7, avg_shift, 99)
    # match columns through vector overlaps (the grid point pool and so the
    # random draws are the same: both frames hold the same eigenvectors,
    # only the ordering differs)
    overlap = np.abs(base.right.conj().T @ shifted.right)
    match = np.argmax(overlap, axis=1)
    assert sorted(match) == list(range(base.dim))
    labels = grid_labels(params7.N, params7.p)
    assert np.array_equal((labels - 1) % params7.p, labels[match])


def test_measure_values(params7, solution7):
    frame = solution7.frame
    # pairing equals the inverse pair product for every label
    v = vandermonde_weights(solution7.avg.grids, grid_labels(params7.N, params7.p))
    pairing = np.diag(frame.pairing())
    assert np.max(np.abs(pairing - 1 / v) / np.abs(1 / v)) < 1e-10


def test_measure_single_site(params_n1, solution_n1):
    # no pairs b < a: the measure is the empty product
    assert np.allclose(solution_n1.frame.measure, 1.0)


def test_calibration_reproduces_reference(params7, solution7):
    frame = solution7.frame
    ref = solution7.q.grid_values[solution7.reference_index]
    vector = solution7.oracle.right[:, solution7.reference_index]
    coeff = separate_expansion(frame, ref)
    rebuilt = frame.right @ coeff
    assert np.linalg.norm(rebuilt - vector) / np.linalg.norm(vector) < 1e-10
    assert frame.calibrated
    with pytest.raises(ValueError):
        calibrate_scales(frame, ref, vector)  # double calibration


def test_calibration_phase_covariance(params7, solution7):
    # rotating the oracle vector by a phase rotates all scales together
    avg = solution7.avg
    frame = diagonalize_b_family(params7, avg, 99)
    ref = solution7.q.grid_values[solution7.reference_index]
    vector = solution7.oracle.right[:, solution7.reference_index]
    cal1 = calibrate_scales(frame, ref, vector)
    cal2 = calibrate_scales(frame, ref, np.exp(0.7j) * vector)
    ratio = cal2.scales / cal1.scales
    assert np.allclose(ratio, np.exp(0.7j), rtol=1e-10)


def test_calibration_rejects_reference_vanishing_on_grid(params7, solution7):
    # a reference Q with a zero on the grid leaves some labels without weight:
    # a degenerate model (exit code 4), not a misuse of the API
    frame = diagonalize_b_family(params7, solution7.avg, 99)
    grid = solution7.q.grid_values[solution7.reference_index].copy()
    grid[0, 0] = 0.0
    with pytest.raises(DegenerateModelError, match="vanishes near a grid point"):
        calibrate_scales(frame, grid, solution7.oracle.right[:, solution7.reference_index])


def _label_with(monkeypatch, mutate):
    """Make ``diagonalize_b_family`` label from ``mutate(lams, eigvals)``."""
    original = sov_basis.label_vectors
    monkeypatch.setattr(sov_basis, "label_vectors", lambda params, avg, lams, eigvals:
                        original(params, avg, lams, mutate(lams, eigvals.copy())))


def test_labelling_rejects_grids_off_the_spectrum(params7, solution7):
    avg = replace(solution7.avg, grids=solution7.avg.grids * (1 + 1e-6))
    with pytest.raises(DegenerateModelError,
                       match=r"vector \d+ is annihilated by 0 grid points, expected exactly 3"):
        diagonalize_b_family(params7, avg, 99)


def test_labelling_rejects_a_variable_without_zero(params7, solution7, monkeypatch):
    # column 0's eigenvalue row replaced by l^-N prod_r (l^2 - r^2) with zeros at
    # y_1(0), y_1(1), y_2(0): three hits, as many as N, but none for variable 3
    grids = solution7.avg.grids
    roots = np.array([grids[0, 0], grids[0, 1], grids[1, 0]])

    def mutate(lams, eigvals):
        eigvals[:, 0] = np.prod(lams[:, None] ** 2 - roots**2, axis=1) / lams**params7.N
        return eigvals

    _label_with(monkeypatch, mutate)
    with pytest.raises(DegenerateModelError, match="a variable has no annihilating grid point"):
        diagonalize_b_family(params7, solution7.avg, 99)


def test_labelling_rejects_a_repeated_label(params7, solution7, monkeypatch):
    def mutate(lams, eigvals):
        eigvals[:, 1] = eigvals[:, 0]
        return eigvals

    _label_with(monkeypatch, mutate)
    with pytest.raises(DegenerateModelError, match=r"grid labelling is not a bijection"):
        diagonalize_b_family(params7, solution7.avg, 99)


def test_solve_builds_b_only_at_the_samples(params7, monkeypatch):
    # the N+1 sampled operators; labels come from their eigenvalues
    calls = []
    original = sov_basis.b_operator
    monkeypatch.setattr(sov_basis, "b_operator",
                        lambda params, lam: calls.append(lam) or original(params, lam))
    solve(params7, seed=7)
    assert len(calls) == params7.N + 1 == 4
