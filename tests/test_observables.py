import itertools
from dataclasses import replace

import numpy as np
import pytest

import sgsov
from sgsov import (
    baxter_coeffs,
    build_coeigenstate,
    build_eigenstate,
    compute_grids,
    diagonalize_b_family,
    form_factor,
    form_factor_det_scale,
    oracle_spectrum,
    q_from_t,
    t_eval,
    transfer,
    u1_operator,
)
from sgsov import laurent
from sgsov.observables import OPERATOR_TAGS, form_factor_table, identity_table


def test_built_states_are_eigenstates(solution7, params7, rng):
    for lam in laurent.sample_annulus(rng, 2):
        tmat = transfer(params7, lam)
        for j, t in enumerate(solution7.oracle.t_coeffs):
            vec = solution7.built_right[:, j]
            resid = np.linalg.norm(tmat @ vec - t_eval(t, lam) * vec) / np.linalg.norm(vec)
            assert resid < 1e-8
            cov = solution7.built_left[j]
            resid = np.linalg.norm(cov @ tmat - t_eval(t, lam) * cov) / np.linalg.norm(cov)
            assert resid < 1e-8


def test_overlaps_with_oracle(solution7):
    assert np.min(solution7.right_overlaps) > 1 - 1e-8
    assert np.min(solution7.left_overlaps) > 1 - 1e-8


def test_zero_q_gives_zero_state(solution7):
    q = solution7.q
    assert np.allclose(build_eigenstate(solution7.frame, np.zeros_like(q.grid_values[0])), 0.0)
    assert np.allclose(build_coeigenstate(solution7.frame, np.zeros_like(q.neg_grid_values[0])),
                       0.0)


def test_uncalibrated_frame_rejected(params7, solution7):
    avg = solution7.avg
    frame = diagonalize_b_family(params7, avg, 4)
    with pytest.raises(ValueError, match="calibrated"):
        build_eigenstate(frame, solution7.q.grid_values[0])


def test_biorthogonality_of_built_states(solution7):
    gram = solution7.built_left @ solution7.built_right
    diag = np.diag(gram)
    off = gram - np.diag(diag)
    assert np.max(np.abs(off)) / np.min(np.abs(diag)) < 1e-8


def test_unknown_operator_tag_rejected(solution7):
    with pytest.raises(ValueError, match="unknown operator"):
        form_factor(solution7.avg, solution7.q, 0, 0, "u2")


def test_form_factor_determinant_scaling(solution7, params7):
    # each Phi row is linear in Q_t: scaling Q_t by s scales det by s^N
    q, t, tp = solution7.q, 4, 9
    s = 1.7 - 0.3j
    factor = np.where(np.arange(len(q)) == t, s, 1)  # row t only
    scaled = replace(
        q,
        coeffs=factor[:, None] * q.coeffs,
        grid_values=factor[:, None, None] * q.grid_values,
        neg_grid_values=factor[:, None, None] * q.neg_grid_values,
    )
    base = form_factor(solution7.avg, q, t, tp, "u1")
    scaled_det = form_factor(solution7.avg, scaled, t, tp, "u1")
    assert scaled_det == pytest.approx(s ** params7.N * base, rel=1e-10)


def test_identity_determinants_reproduce_pairings(solution7, params7):
    det, scale = identity_table(solution7.avg, solution7.q)
    direct = solution7.direct_table("identity")
    off = (np.abs(det) / scale)[~np.eye(len(det), dtype=bool)]
    assert np.max(off) < 1e-8
    ratios = np.diag(det) / np.diag(direct)
    assert np.max(np.abs(ratios / ratios.mean() - 1)) < 1e-6


def test_u1_determinants_reproduce_matrix_elements(solution7, params7):
    det = form_factor_table(solution7.avg, solution7.q, "u1")
    direct = solution7.direct_table("u1")
    const = (np.diag(form_factor_table(solution7.avg, solution7.q, "identity"))
             / np.diag(solution7.direct_table("identity"))).mean()
    ratios = det / direct
    assert np.max(np.abs(ratios / const - 1)) < 1e-6


def test_single_site_form_factors(solution_n1, params_n1):
    # N=1 exercises the boundary case where the modified column is the
    # whole matrix; the dual Q of one state may vanish on the negated grid,
    # but the assembled determinant is finite and still matches the dense
    # matrix elements
    det_id = form_factor_table(solution_n1.avg, solution_n1.q, "identity")
    direct_id = solution_n1.direct_table("identity")
    const = (np.diag(det_id) / np.diag(direct_id)).mean()
    det_u1 = form_factor_table(solution_n1.avg, solution_n1.q, "u1")
    direct_u1 = solution_n1.direct_table("u1")
    assert np.max(np.abs(det_u1 / direct_u1 / const - 1)) < 1e-6


def test_u1_operator_structure(params7):
    op = u1_operator(params7)
    # permutation matrix: shifts the slowest tensor index down by one
    assert np.allclose(op @ op.conj().T, np.eye(params7.dim))
    e = np.zeros(params7.dim)
    e[9] = 1.0  # |1,0,0>
    assert np.argmax(np.abs(op @ e)) == 0  # maps to |0,0,0>


@pytest.fixture(params=["solution_complex", "solution_n1", "solution_n3p5"],
                ids=["n3p3-complex", "n1p3", "n3p5"])
def any_solution(request):
    return request.getfixturevalue(request.param)


def _reference_table(sol, tag):
    """det Phi indexed [t', t], each Phi[a, b] summed term by term over c
    from the formula of the module docstring, and the Hadamard bound of
    the summed term magnitudes, the scale of the determinant's rounding.
    Q is read on the grids as ``q_from_t`` forms it there."""
    params, avg = sol.params, sol.avg
    N, p, q = params.N, params.p, params.q
    cs = np.arange(p + 2) % p
    ys = avg.grids[:, cs]                                                       # y_a(c), c = 0..p+1
    q_t = sol.q.grid_values[:, :, cs]                                           # Q_t(y_a(c))
    q_d = sol.q.neg_grid_values[:, :, cs]                                       # Q_t'(-y_a(c))
    xi1, kap1 = params.xi[0], params.kappa[0]
    phi = np.zeros((params.dim, params.dim, N, N), dtype=complex)
    mag = np.zeros(phi.shape)
    for a in range(N):
        for b in range(1, N + 1):
            for c in range(1, p + 1):
                if tag == "u1" and b == N:
                    y = ys[a, c + 1]
                    w = (params.q_half * xi1 * y ** (N + 1) * sol.coeffs.a(y)
                         / (np.prod(params.kappa[1:] / 1j) * (q * (xi1 * kap1) ** 2 + y ** 2)))
                    term = w * np.outer(q_d[:, a, c + 1], q_t[:, a, c])
                else:
                    f = ys[a, c] if tag == "u1" else 1.0
                    term = (avg.y0[a] ** (2 * b - 1) * f * q ** ((2 * b - 1) * c)
                            * np.outer(q_d[:, a, c], q_t[:, a, c]))
                phi[:, :, a, b - 1] += term
                mag[:, :, a, b - 1] += np.abs(term)
    return np.linalg.det(phi), np.prod(np.linalg.norm(mag, axis=2), axis=2)


@pytest.mark.parametrize("tag", ["identity", "u1"])
def test_tables_match_entrywise_reference(any_solution, tag):
    ref, bound = _reference_table(any_solution, tag)
    got = form_factor_table(any_solution.avg, any_solution.q, tag)
    # errors relative to the largest determinant of the row, except where
    # the determinant vanishes (identity off the diagonal): there both sides
    # are rounding noise of cancelling terms, measured against their bound
    scale = np.abs(ref).max(axis=1, keepdims=True) * np.ones_like(bound)
    if tag == "identity":
        off = ~np.eye(len(ref), dtype=bool)
        scale[off] = bound[off]
    assert np.max(np.abs(got - ref) / scale) < 1e-12


def test_row_form_factors_match_single_pairs(solution7, solution_complex):
    # a table, with its t'-independent factors built once, has the bits of its
    # pairs; the identity table's c-terms also give its Hadamard scales
    for sol, tag in itertools.product((solution7, solution_complex), OPERATOR_TAGS):
        avg, q, rows = sol.avg, sol.q, range(len(sol.q))
        dets = form_factor_table(avg, q, tag)
        assert np.array_equal(dets, [[form_factor(avg, q, t, tp, tag) for t in rows]
                                     for tp in rows])
        if tag == "identity":
            scaled_dets, scales = identity_table(avg, q)
            assert np.array_equal(scaled_dets, dets)
            assert np.array_equal(scales, [[form_factor_det_scale(avg, q, t, tp, tag) for t in rows]
                                           for tp in rows])


@pytest.mark.parametrize("name, seed", [("solution7", 7), ("solution_complex", 1)])
def test_form_factor_tables_need_only_grids_and_q_values(request, monkeypatch, name, seed):
    # the tables come from the grid data and the Q-functions of the spectrum
    # alone: no separate-variable basis is built on the way
    sol = request.getfixturevalue(name)

    def refuse(*args, **kwargs):
        raise AssertionError("the B family was diagonalised")

    for module in (sgsov, sgsov.sov_basis, sgsov.pipeline):
        monkeypatch.setattr(module, "diagonalize_b_family", refuse)
    params = sol.params
    avg, coeffs = compute_grids(params), baxter_coeffs(params)
    oracle = oracle_spectrum(params, np.random.SeedSequence(seed).spawn(2)[0])
    q = q_from_t(params, avg, coeffs, oracle.t_coeffs)
    for tag in OPERATOR_TAGS:
        assert np.array_equal(form_factor_table(avg, q, tag),
                              form_factor_table(sol.avg, sol.q, tag))
    for got, want in zip(identity_table(avg, q), identity_table(sol.avg, sol.q)):
        assert np.array_equal(got, want)
