from dataclasses import replace

import numpy as np
import pytest

from sgsov import (
    apply_measure_normalization,
    b_operator,
    calibrate_scales,
    compute_grids,
    diagonalize_b_family,
    label_vectors,
)
from sgsov import laurent
from sgsov.errors import DegenerateModelError
from sgsov.sov_basis import separate_expansion, vandermonde_weights


def _fresh_frame(params, avg, seed=99):
    frame = diagonalize_b_family(params, avg, seed)
    return label_vectors(frame, avg, params)


def test_single_site_frame_shape(params_n1):
    avg = compute_grids(params_n1)
    frame = _fresh_frame(params_n1, avg)
    assert frame.right.shape == (3, 3)
    assert sorted(map(tuple, frame.labels)) == [(0,), (1,), (2,)]


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
    idx = {tuple(lbl) for lbl in frame.labels}
    assert len(idx) == params7.dim
    # every vector is annihilated by exactly one grid point per variable
    cols = frame.right / np.linalg.norm(frame.right, axis=0)[None, :]
    hits = np.zeros(frame.dim, dtype=int)
    for n in range(params7.N):
        for k in range(params7.p):
            op = b_operator(params7, avg.grids[n, k])
            resid = np.linalg.norm(op @ cols, axis=0) / np.linalg.norm(op)
            hits += resid <= 1e-8
    assert np.all(hits == params7.N)


def test_relabelling_under_grid_rebase(params7, solution7):
    # shifting the base point y0 -> y0 q rolls the grids one step, so every
    # label drops by one (mod p)
    avg = solution7.avg
    avg_shift = replace(avg, y0=avg.y0 * params7.q, grids=np.roll(avg.grids, -1, axis=1))
    frame = diagonalize_b_family(params7, avg, 99)
    base = label_vectors(frame, avg, params7)
    shifted = label_vectors(frame, avg_shift, params7)
    # match columns through vector overlaps (both frames hold the same
    # eigenvectors, only the ordering differs)
    overlap = np.abs(base.right.conj().T @ shifted.right)
    match = np.argmax(overlap, axis=1)
    assert sorted(match) == list(range(base.dim))
    assert np.array_equal((base.labels - 1) % params7.p, shifted.labels[match])


def test_measure_values(params7, solution7):
    frame = solution7.frame
    # pairing equals the inverse pair product for every label
    v = vandermonde_weights(solution7.avg.grids, frame.labels)
    pairing = np.diag(frame.pairing())
    assert np.max(np.abs(pairing - 1 / v) / np.abs(1 / v)) < 1e-10


def test_measure_single_site(params_n1, solution_n1):
    # no pairs b < a: the measure is the empty product
    assert np.allclose(solution_n1.frame.measure, 1.0)


def test_stage_order_enforced(params7):
    avg = compute_grids(params7)
    frame = diagonalize_b_family(params7, avg, 1)
    with pytest.raises(ValueError):
        apply_measure_normalization(frame)  # labels missing
    labelled = label_vectors(frame, avg, params7)
    with pytest.raises(ValueError):
        separate_expansion(frame, np.ones((params7.N, params7.p)))


def test_calibration_reproduces_reference(params7, solution7):
    frame = solution7.frame
    ref = solution7.pairs[solution7.reference_index]
    vector = solution7.oracle.right[:, solution7.reference_index]
    coeff = separate_expansion(frame, ref.q_function.grid_values)
    rebuilt = frame.right @ coeff
    assert np.linalg.norm(rebuilt - vector) / np.linalg.norm(vector) < 1e-10
    assert frame.calibrated
    with pytest.raises(ValueError):
        calibrate_scales(frame, ref.q_function, vector)  # double calibration


def test_calibration_phase_covariance(params7, solution7):
    # rotating the oracle vector by a phase rotates all scales together
    avg = solution7.avg
    frame = diagonalize_b_family(params7, avg, 99)
    frame = label_vectors(frame, avg, params7)
    frame = apply_measure_normalization(frame)
    ref = solution7.pairs[solution7.reference_index]
    vector = solution7.oracle.right[:, solution7.reference_index]
    cal1 = calibrate_scales(frame, ref.q_function, vector)
    cal2 = calibrate_scales(frame, ref.q_function, np.exp(0.7j) * vector)
    ratio = cal2.scales / cal1.scales
    assert np.allclose(ratio, np.exp(0.7j), rtol=1e-10)


def test_calibration_rejects_reference_vanishing_on_grid(params7, solution7):
    # a reference Q with a zero on the grid leaves some labels without weight:
    # a degenerate model (exit code 4), not a misuse of the API
    frame = apply_measure_normalization(_fresh_frame(params7, solution7.avg))
    ref = solution7.pairs[solution7.reference_index]
    grid = ref.q_function.grid_values.copy()
    grid[0, 0] = 0.0
    q_function = replace(ref.q_function, grid_values=grid)
    with pytest.raises(DegenerateModelError, match="vanishes near a grid point"):
        calibrate_scales(frame, q_function, solution7.oracle.right[:, solution7.reference_index])


def test_calibration_requires_measure(params7, solution7):
    avg = solution7.avg
    frame = diagonalize_b_family(params7, avg, 99)
    frame = label_vectors(frame, avg, params7)
    with pytest.raises(ValueError, match="measure"):
        calibrate_scales(frame, solution7.pairs[solution7.reference_index].q_function,
                         solution7.oracle.right[:, solution7.reference_index])
