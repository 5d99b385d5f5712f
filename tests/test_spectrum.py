import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from sgsov import (
    baxter_coeffs,
    compute_grids,
    grid_determinants,
    make_params,
    oracle_spectrum,
    q_from_t,
    t_eval,
    tq_residual,
    transfer,
)
from conftest import charge_conjugation
from sgsov import laurent, spectrum
from sgsov.acceptance import default_instance
from sgsov.errors import DegenerateModelError, ToleranceError
from sgsov.spectrum import ab_initio_spectrum, simultaneous_eig


def test_baxter_coefficient_zeros(params7):
    coeffs = baxter_coeffs(params7)
    qh = params7.q_half
    for r in range(params7.N):
        for zero in (1j * qh * params7.xi[r] / params7.kappa[r],
                     1j * qh * params7.kappa[r] * params7.xi[r]):
            scale = abs(coeffs.a(zero * 1.01))
            assert abs(coeffs.a(zero)) < 1e-12 * max(scale, 1.0)


def test_d_is_shifted_reflection_of_a(params7, rng):
    coeffs = baxter_coeffs(params7)
    lams = laurent.sample_annulus(rng, 10)
    ratio = coeffs.d(lams) / coeffs.a(-lams * params7.q)
    assert np.allclose(ratio, params7.q ** params7.N, rtol=1e-12)


def test_oracle_spectrum_complete_and_distinct(solution7, params7):
    oracle = solution7.oracle
    assert len(oracle) == params7.dim
    assert oracle.min_coeff_gap > 1e-8
    assert max(pr.fit_residual for pr in oracle.pairs) < 1e-9
    assert oracle.residual < 1e-10


def test_simultaneous_eig_residual_flags_noncommuting_member(params7, rng):
    ops = [transfer(params7, lam) for lam in laurent.sample_annulus(rng, params7.N + 2)]
    noise = rng.standard_normal(ops[0].shape) + 1j * rng.standard_normal(ops[0].shape)
    perturbed = [ops[0] + 1e-6 * np.linalg.norm(ops[0]) * noise / np.linalg.norm(noise)]
    tol, collision = params7.tol("simdiag"), params7.tol("eig_collision")
    *_, clean = simultaneous_eig(ops, np.random.default_rng(1), collision)
    *_, broken = simultaneous_eig(perturbed + ops[1:], np.random.default_rng(1), collision)
    assert clean < tol < broken


def test_oracle_reality_for_real_couplings(solution7):
    # soft class property, measured not assumed; regression-guarded here
    assert max(pr.imag_residue for pr in solution7.pairs) < 1e-6


def test_trace_identity(solution7, params7, rng):
    # trace of the transfer matrix equals the sum of eigenvalue functions;
    # for odd N both vanish identically (no closed auxiliary path avoids
    # the shift generators), which makes this a sharp completeness check
    for lam in laurent.sample_annulus(rng, 3):
        tr = np.trace(transfer(params7, lam))
        total = sum(pr.t(lam) for pr in solution7.pairs)
        scale = sum(abs(pr.t(lam)) for pr in solution7.pairs)
        assert abs(tr) / scale < 1e-12
        assert abs(tr - total) / scale < 1e-10


def test_separate_system_constant_action(solution7, params7):
    # acting on the all-ones vector reproduces t - a - d on the grid row
    avg, coeffs = solution7.avg, solution7.coeffs
    pair = solution7.pairs[0]
    for n in range(1, params7.N + 1):
        mat = spectrum._cyclic_system(params7, coeffs, [pair.t_coeffs], avg.grids[n - 1 : n])[0, 0]
        y = avg.grids[n - 1]
        expected = t_eval(pair.t_coeffs, y) - coeffs.a(y) - coeffs.d(y)
        assert np.allclose(mat @ np.ones(params7.p), expected, rtol=1e-12)


def test_grid_determinants_vanish_on_spectrum(solution7, params7):
    for pr in solution7.pairs:
        dets = grid_determinants(params7, solution7.avg, solution7.coeffs, pr.t_coeffs)
        assert dets.max() < 1e-8


def test_grid_determinants_reject_perturbations(solution7, params7, rng):
    scale = np.mean([np.abs(pr.t_coeffs) for pr in solution7.pairs])
    for _ in range(20):
        pr = solution7.pairs[rng.integers(params7.dim)]
        probe = pr.t_coeffs + 1e-2 * scale * rng.standard_normal(params7.N)
        dets = grid_determinants(params7, solution7.avg, solution7.coeffs, probe)
        assert dets.max() > 1e-5


def test_q_reconstruction_consistency(solution7, params7, rng):
    bound = params7.N * (params7.p - 1)
    lams = laurent.sample_annulus(rng, 20, avoid=solution7.avg.all_points(negated=True))
    for pr in solution7.pairs:
        qf = pr.q_function
        assert qf.fit_residual < 1e-8
        assert qf.degree <= bound
        assert np.max(tq_residual(solution7.coeffs, pr.t_coeffs, qf, lams)) < 1e-8
        assert qf.imag_residue < 1e-6


def test_q_degree_bound_is_sharp(solution7, params7):
    # refit in a wider basis: coefficients above the bound must vanish
    bound = params7.N * (params7.p - 1)
    pr = solution7.pairs[3]
    wide = q_from_t(params7, solution7.avg, solution7.coeffs, pr.t_coeffs,
                    max_degree=bound + 2)
    tail = np.max(np.abs(wide.coeffs[bound + 1 :])) / np.max(np.abs(wide.coeffs))
    assert tail < 1e-8


def test_q_interpolation_holds_out(solution7, params7):
    # polynomial through the grid values reproduces every orbit value
    pr = solution7.pairs[5]
    qf = pr.q_function
    assert np.allclose(qf(solution7.avg.grids), qf.grid_values)
    assert np.allclose(qf(-solution7.avg.grids), qf.neg_grid_values)


def test_single_site_spectrum(params_n1, solution_n1):
    # N=1: three eigenpairs, constant eigenvalue functions
    assert len(solution_n1.pairs) == 3
    for pr in solution_n1.pairs:
        assert pr.t_coeffs.shape == (1,)
        dets = grid_determinants(params_n1, solution_n1.avg, solution_n1.coeffs,
                                 pr.t_coeffs)
        assert dets.max() < 1e-10


def test_ab_initio_search_finds_subset(params_n1, solution_n1):
    found = ab_initio_spectrum(params_n1, solution_n1.avg, solution_n1.coeffs,
                               seed=1, n_starts=60)
    oracle = np.array([pr.t_coeffs for pr in solution_n1.pairs])
    assert len(found) >= 1
    for c in found:
        dists = np.linalg.norm(oracle - c[None, :], axis=1) / np.linalg.norm(c)
        assert dists.min() < 1e-6  # nothing spurious


def test_oracle_spectrum_deterministic(params7):
    a = oracle_spectrum(params7, seed=123)
    b = oracle_spectrum(params7, seed=123)
    assert np.array_equal(a.right, b.right)
    assert all(np.array_equal(x.t_coeffs, y.t_coeffs) for x, y in zip(a.pairs, b.pairs))


@pytest.fixture(scope="module", params=[None, (3, 5), (5, 3)],
                ids=["n3p3-complex", "n3p5", "n5p3"])
def sectored(request, params_complex):
    params = params_complex if request.param is None else default_instance(7, *request.param)
    return params, oracle_spectrum(params, seed=5)


def test_sectored_oracle_columns_are_transfer_eigenvectors(sectored, rng):
    params, oracle = sectored
    lam = laurent.sample_annulus(rng, 1, avoid=oracle.lambda_samples)[0]
    op = transfer(params, lam)
    t_vals = np.array([pr.t(lam) for pr in oracle.pairs])
    cols = np.linalg.norm(op @ oracle.right - oracle.right * t_vals, axis=0)
    assert np.max(cols / np.linalg.norm(oracle.right, axis=0)) < 1e-12 * np.linalg.norm(op)
    assert np.max(np.abs(oracle.left @ oracle.right - np.eye(params.dim))) < 1e-12


def test_sectored_oracle_columns_have_charge_parity(sectored):
    params, oracle = sectored
    image = charge_conjugation(params.p, params.N) @ oracle.right
    even = np.all(image == oracle.right, axis=0)
    odd = np.all(image == -oracle.right, axis=0)
    assert np.all(even ^ odd)
    assert (even.sum(), odd.sum()) == ((params.dim + 1) // 2, (params.dim - 1) // 2)


def test_oracle_rejects_charge_asymmetric_member(params7, monkeypatch):
    # one member made C-asymmetric by 1e-8 of its norm must fail the certificate
    built = []
    noise_rng = np.random.default_rng(3)

    def asymmetric_third(params, lam):
        op = transfer(params, lam)
        built.append(lam)
        if len(built) == 3:
            noise = noise_rng.standard_normal(op.shape) + 1j * noise_rng.standard_normal(op.shape)
            op = op + 1e-8 * np.linalg.norm(op) * noise / np.linalg.norm(noise)
        return op

    monkeypatch.setattr(spectrum, "transfer", asymmetric_third)
    with pytest.raises(ToleranceError, match="charge conjugation"):
        oracle_spectrum(params7, seed=123)


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("instance", ["params7", "params_complex"])
def test_oracle_rejects_noncommuting_member(instance, request, monkeypatch):
    # a C-symmetric perturbation of one member, 1e-6 of its norm, passes the
    # charge-conjugation certificate but breaks commutation: every redraw fails
    # the residual, and the last one is gated
    params = request.getfixturevalue(instance)
    flip = charge_conjugation(params.p, params.N)
    noise_rng, built = np.random.default_rng(4), []

    def noncommuting_second(params, lam):
        op = transfer(params, lam)
        built.append(lam)
        if len(built) == 2:
            noise = noise_rng.standard_normal(op.shape) + 1j * noise_rng.standard_normal(op.shape)
            noise += flip @ noise @ flip
            op = op + 1e-6 * np.linalg.norm(op) * noise / np.linalg.norm(noise)
        return op

    monkeypatch.setattr(spectrum, "transfer", noncommuting_second)
    eigh_calls = _count_calls(monkeypatch, spectrum.sla, "eigh")
    eig_calls = _count_calls(monkeypatch, spectrum.sla, "eig")
    with pytest.raises(ToleranceError, match="simultaneous-eigenvector residual"):
        oracle_spectrum(params, seed=123)
    # both sectors redraw until the retries run out
    assert len(eigh_calls) + len(eig_calls) == 2 * spectrum._EIG_RETRIES


def test_simultaneous_eig_paths_agree_for_real_couplings(rng):
    params = default_instance(7, 5, 3)
    ops = [transfer(params, lam) for lam in laurent.sample_annulus(rng, params.N + 2)]
    collision = params.tol("eig_collision")
    _, _, general, _ = simultaneous_eig(ops, np.random.default_rng(1), collision)
    right, left, hermitian, resid = simultaneous_eig(ops, np.random.default_rng(1), collision,
                                                     hermitian=True)
    # the first-order step restores the precision eigh loses to near-equal real eigenvalues
    # (about 1e-13 without it) and keeps the basis unitary
    assert resid < 5e-14
    assert np.array_equal(left, right.conj().T)
    assert np.max(np.abs(left @ right - np.eye(params.dim))) < 1e-13
    # same joint spectrum in another column order
    dist = np.linalg.norm(general[:, :, None] - hermitian[:, None, :], axis=0)
    match = dist.argmin(axis=1)
    assert np.array_equal(np.sort(match), np.arange(params.dim))
    assert dist.min(axis=1).max() < 1e-12 * np.abs(general).max()


def test_oracle_eigenbasis_is_unitary_iff_couplings_are_real(sectored):
    params, oracle = sectored
    defect = np.max(np.abs(oracle.right.conj().T @ oracle.right - np.eye(params.dim)))
    if params.kappa.imag.any() or params.xi.imag.any():
        assert defect > 1e-2  # a non-normal family: the eigenvectors are oblique
    else:
        assert defect < 1e-13


@pytest.mark.parametrize("instance,solver,inverses",
                         [("params7", "eigh", 0), ("params_complex", "eig", 2)])
def test_oracle_eigensolver_follows_couplings(instance, solver, inverses, request, monkeypatch):
    # real couplings: eigh per C-sector and no inverse; complex ones: eig and inv
    solves = _count_calls(monkeypatch, spectrum.sla, solver)
    inv_calls = _count_calls(monkeypatch, np.linalg, "inv")
    oracle_spectrum(request.getfixturevalue(instance), seed=123)
    assert (len(solves), len(inv_calls)) == (2, inverses)


def _q_loop_reference(params, avg, coeffs, t_coeffs, max_degree=None):
    """One eigenvalue at a time, one orbit at a time: the unstacked reconstruction.

    Q on the orbits is each orbit's null vector times its scale from the joint
    fit, with the phase, sign and norm factors of the coefficients."""
    N, p = params.N, params.p
    deg = N * (p - 1) if max_degree is None else max_degree
    gap_tol = params.tol("nullspace_gap")
    orbits = np.vstack([avg.grids, -avg.grids])
    orbit_vals = np.empty((2 * N, p), dtype=complex)
    gaps = np.empty(2 * N)
    ks = np.arange(p)
    for m, points in enumerate(orbits):
        mat = np.zeros((p, p), dtype=complex)
        mat[ks, ks] = t_eval(t_coeffs, points)
        mat[ks, (ks - 1) % p] -= coeffs.a(points)
        mat[ks, (ks + 1) % p] -= coeffs.d(points)
        _, svals, vh = np.linalg.svd(mat)
        gaps[m] = svals[-2] / svals[0]
        if gaps[m] < gap_tol:
            raise DegenerateModelError(
                f"grid system {m % N + 1} has a nullspace of dimension > 1 "
                f"(singular-value gap {gaps[m]:.3e})")
        orbit_vals[m] = vh[-1].conj()
    design = np.zeros((2 * N * p, deg + 1 + 2 * N), dtype=complex)
    design[:, : deg + 1] = orbits.reshape(-1)[:, None] ** np.arange(deg + 1)[None, :]
    for m in range(2 * N):
        design[m * p : (m + 1) * p, deg + 1 + m] = -orbit_vals[m]
    design /= np.linalg.norm(design, axis=1)[:, None]
    col_scale = np.linalg.norm(design, axis=0)
    design /= col_scale[None, :]
    _, svals, vh = np.linalg.svd(design)
    if svals[-2] < gap_tol:
        raise DegenerateModelError(
            f"joint Q system is rank deficient (second singular value {svals[-2]:.3e})")
    solution = vh[-1].conj() / col_scale
    qc, scales = solution[: deg + 1], solution[deg + 1 :]
    if np.min(np.abs(scales)) < 1e-10 * np.max(np.abs(scales)):
        raise DegenerateModelError("a per-variable scale collapsed in the joint Q solve")
    values = scales[:, None] * orbit_vals
    s2 = np.sum(qc ** 2)
    if abs(s2) > 0:
        qc, values = qc * np.exp(-0.5j * np.angle(s2)), values * np.exp(-0.5j * np.angle(s2))
    if qc[np.argmax(np.abs(qc))].real < 0:
        qc, values = -qc, -values
    norm = np.linalg.norm(qc)
    qc, values = qc / norm, values / norm
    return spectrum.QFunction(
        coeffs=qc, grid_values=values[:N], neg_grid_values=values[N:],
        fit_residual=float(svals[-1]), nullspace_gaps=gaps,
        imag_residue=float(np.max(np.abs(qc.imag)) / np.max(np.abs(qc))))


def _first_loop_error(params, avg, coeffs, ts):
    for t in ts:
        try:
            _q_loop_reference(params, avg, coeffs, t)
        except DegenerateModelError as exc:
            return str(exc)
    return None


def _assert_same_bits(got, want):
    for field in ("coeffs", "grid_values", "neg_grid_values", "nullspace_gaps"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
    assert (got.fit_residual, got.imag_residue) == (want.fit_residual, want.imag_residue)


@pytest.fixture(scope="module", params=["params_n1", "params7", "params_complex", (3, 5), (5, 3)],
                ids=["n1p3", "n3p3", "n3p3-complex", "n3p5", "n5p3"])
def q_stack(request):
    params = (request.getfixturevalue(request.param) if isinstance(request.param, str)
              else default_instance(7, *request.param))
    ts = np.array([pr.t_coeffs for pr in oracle_spectrum(params, seed=7).pairs])
    return params, compute_grids(params), baxter_coeffs(params), ts


@pytest.mark.parametrize("extra_degree", [0, 2])
def test_stacked_q_matches_one_at_a_time(q_stack, extra_degree):
    # one stacked call gives the bits of one call per eigenvalue and of the unstacked loop
    params, avg, coeffs, ts = q_stack
    deg = params.N * (params.p - 1) + extra_degree
    stacked = q_from_t(params, avg, coeffs, ts, max_degree=deg)
    assert isinstance(stacked, list) and len(stacked) == len(ts)
    for t, qf in zip(ts, stacked):
        _assert_same_bits(qf, q_from_t(params, avg, coeffs, t, max_degree=deg))
        _assert_same_bits(qf, _q_loop_reference(params, avg, coeffs, t, deg))


@st.composite
def _coupled_instances(draw):
    N, p = draw(st.sampled_from([(1, 3), (3, 3), (1, 5)]))
    couplings = (st.floats(0.5, 2.0) if draw(st.booleans()) else
                 st.builds(lambda r, phi: r * np.exp(1j * phi),
                           st.floats(0.5, 2.0), st.floats(-0.6, 0.6)))
    kappa = draw(st.lists(couplings, min_size=N, max_size=N))
    xi = draw(st.lists(couplings, min_size=N, max_size=N))
    return make_params(N, p, 2, kappa, xi)


@settings(max_examples=25, deadline=None)
@given(_coupled_instances())
def test_stacked_q_matches_loop_on_random_couplings(params):
    try:
        avg = compute_grids(params)
        ts = [pr.t_coeffs for pr in oracle_spectrum(params, seed=1).pairs]
    except (DegenerateModelError, ToleranceError):
        reject()
    coeffs = baxter_coeffs(params)
    expected = _first_loop_error(params, avg, coeffs, ts)
    if expected is not None:
        with pytest.raises(DegenerateModelError) as exc:
            q_from_t(params, avg, coeffs, ts)
        assert str(exc.value) == expected
        return
    for t, qf in zip(ts, q_from_t(params, avg, coeffs, ts)):
        _assert_same_bits(qf, _q_loop_reference(params, avg, coeffs, t))


def test_gap_guard_raises_the_loops_first_error(solution7, params7):
    # a nullspace_gap between the smallest and largest orbit gap of the spectrum
    gaps = np.array([pr.q_function.nullspace_gaps for pr in solution7.pairs])
    tol = float(np.sqrt(gaps.min() * gaps.max()))
    params = params7.with_tolerances(nullspace_gap=tol)
    avg, coeffs = solution7.avg, solution7.coeffs
    ts = [pr.t_coeffs for pr in solution7.pairs]
    expected = _first_loop_error(params, avg, coeffs, ts)
    assert expected.startswith("grid system ")
    with pytest.raises(DegenerateModelError) as exc:
        q_from_t(params, avg, coeffs, ts)
    assert str(exc.value) == expected


def test_guard_order_follows_the_loop():
    # in this complex (3,3) instance eigenvalue 18 has a joint second singular
    # value (0.377) below all of its orbit gaps (>= 0.421), so tolerances in
    # between reach the joint rank guard of a stack that starts there
    rng = np.random.default_rng(13)
    kappa = rng.uniform(0.5, 2, 3) * np.exp(1j * rng.uniform(-0.6, 0.6, 3))
    xi = rng.uniform(0.5, 2, 3) * np.exp(1j * rng.uniform(-0.6, 0.6, 3))
    base = make_params(3, 3, 2, kappa, xi)
    avg, coeffs = compute_grids(base), baxter_coeffs(base)
    ts = [pr.t_coeffs for pr in oracle_spectrum(base, seed=13).pairs]
    seen = set()
    for tol in (0.05, 0.3, 0.4, 0.45):
        params = base.with_tolerances(nullspace_gap=tol)
        for start in (0, 17, 18):
            expected = _first_loop_error(params, avg, coeffs, ts[start:])
            with pytest.raises(DegenerateModelError) as exc:
                q_from_t(params, avg, coeffs, ts[start:])
            assert str(exc.value) == expected
            seen.add(expected.split()[0])
    assert seen == {"grid", "joint"}
