import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgsov import (
    b_operator,
    embed,
    lax,
    make_params,
    monodromy,
    r_matrix,
    transfer,
    verify_rll,
)
from sgsov import laurent
from conftest import charge_conjugation
from sgsov.model import clock_matrix, shift_matrix
from sgsov.yang_baxter import (
    _lax_blocks,
    b_commutator_residual,
    monodromy_rll_residual,
    transfer_commutator_residual,
)


def test_lax_offdiagonal_entries():
    # kappa = xi = 1, lambda = 1: upper-right block is diagonal (q^k - q^-k)/i
    params = make_params(1, 3, 2, [1.0], [1.0])
    blocks = lax(params, 1, 1.0).blocks
    expected = np.diag((params.q ** np.arange(3) - params.q ** -np.arange(3)) / 1j)
    assert np.allclose(blocks[0, 1], expected, atol=1e-14)


def test_lax_b_block_odd_under_inversion(rng):
    # conjugating the clock basis by k -> -k sends v -> v^-1; combined with
    # inverting the site variable lambda/xi the B block flips sign
    params = make_params(1, 3, 2, [1.3], [0.7])
    lam = 0.8 + 0.5j
    xi = params.xi[0]
    flip = charge_conjugation(3)
    b_at = lax(params, 1, lam).blocks[0, 1]
    b_inv = lax(params, 1, xi ** 2 / lam).blocks[0, 1]
    assert np.allclose(flip @ b_inv @ flip, -b_at, atol=1e-13)


def _site_lax(params, n, lam):
    """Lax blocks of one site, written out per site as in the module docstring."""
    kap, ln, qh = params.kappa[n - 1], lam / params.xi[n - 1], params.q_half
    v, u = clock_matrix(params), shift_matrix(params)
    vinv, uinv = np.conj(v).T, u.T
    return np.array([
        [kap * (u @ (kap / qh * v + qh / kap * vinv)), kap * (ln * v - vinv / ln) / 1j],
        [kap * (ln * vinv - v / ln) / 1j, kap * (uinv @ (qh / kap * v + kap / qh * vinv))],
    ])


@pytest.mark.parametrize("N,p", [(1, 3), (3, 3), (3, 5)])
@pytest.mark.parametrize("phase", [0.0, 0.6])
def test_vectorised_lax_blocks_match_each_site(N, p, phase, rng):
    for _ in range(5):
        kappa, xi = rng.uniform(0.5, 2.0, (2, N)) * np.exp(1j * rng.uniform(-phase, phase, (2, N)))
        params = make_params(N, p, 2, kappa, xi)
        lam = complex(rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform()))
        blocks = _lax_blocks(params, lam)
        assert blocks.shape == (N, 2, 2, p, p)
        for n in range(1, N + 1):
            assert np.array_equal(blocks[n - 1], lax(params, n, lam).blocks)
            assert np.array_equal(blocks[n - 1], _site_lax(params, n, lam))


def test_lax_rejects_zero_lambda():
    params = make_params(1, 3, 2, [1.0], [1.0])
    with pytest.raises(ValueError):
        lax(params, 1, 0.0)
    with pytest.raises(ValueError):
        lax(params, 2, 1.0)


def test_rll_residual_random_pairs(params7, rng):
    for n in range(1, params7.N + 1):
        for _ in range(10):
            lam, mu = laurent.sample_annulus(rng, 2)
            assert verify_rll(params7, n, lam, mu) < 1e-10


def test_rll_residual_p5(rng):
    params = make_params(1, 5, 2, [1.4], [0.6])
    for _ in range(5):
        lam, mu = laurent.sample_annulus(rng, 2)
        assert verify_rll(params, 1, lam, mu) < 1e-10


def test_rll_coincident_point(params7):
    # ratio 1 degenerates R to a permutation multiple; the relation survives
    assert verify_rll(params7, 1, 0.9 + 0.2j, 0.9 + 0.2j) < 1e-10


def test_r_matrix_permutation_point(params7):
    r = r_matrix(params7, 1.0)
    c = params7.q - 1 / params7.q
    perm = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    assert np.allclose(r, c * perm, atol=1e-14)
    with pytest.raises(ValueError):
        r_matrix(params7, 0.0)


def test_monodromy_single_site_is_lax():
    params = make_params(1, 3, 2, [1.2], [0.9])
    lam = 1.1 - 0.4j
    mono = monodromy(params, lam)
    blocks = lax(params, 1, lam).blocks
    assert np.allclose(mono.A, blocks[0, 0])
    assert np.allclose(mono.B, blocks[0, 1])
    assert np.allclose(mono.C, blocks[1, 0])
    assert np.allclose(mono.D, blocks[1, 1])


def test_monodromy_shape_and_finiteness(params7):
    mono = monodromy(params7, 0.7 + 0.7j)
    for block in (mono.A, mono.B, mono.C, mono.D):
        assert block.shape == (27, 27)
        assert np.all(np.isfinite(block))


def test_monodromy_satisfies_rll(params7, rng):
    lam, mu = laurent.sample_annulus(rng, 2)
    assert monodromy_rll_residual(params7, lam, mu) < 1e-10


def test_transfer_and_b_commutativity(params7, rng):
    for _ in range(10):
        lam, mu = laurent.sample_annulus(rng, 2)
        assert transfer_commutator_residual(params7, lam, mu) < 1e-10
        assert b_commutator_residual(params7, lam, mu) < 1e-10


def test_transfer_laurent_class(params7, rng):
    # l^(N-1) T(l) is entrywise polynomial in l^2 of degree <= N-1
    N = params7.N
    lams = laurent.sample_annulus(rng, N + 3)
    values = np.array([(lam ** (N - 1)) * transfer(params7, lam) for lam in lams])
    powers = 2 * np.arange(N)
    coeffs = laurent.fit(lams[:N], values[:N], powers)
    predicted = laurent.evaluate(coeffs, powers, lams[N:])
    scale = np.max(np.abs(values[N:]))
    assert np.max(np.abs(predicted - values[N:])) / scale < 1e-9


def test_monodromy_entries_laurent(params7, rng):
    # entries span powers -N..N: fit on 2N+1 samples, validate on held out
    N = params7.N
    powers = laurent.monodromy_powers(N)
    lams = laurent.sample_annulus(rng, 2 * N + 4)
    values = np.array([monodromy(params7, lam).B for lam in lams])
    coeffs = laurent.fit(lams[: 2 * N + 1], values[: 2 * N + 1], powers)
    predicted = laurent.evaluate(coeffs, powers, lams[2 * N + 1 :])
    scale = np.max(np.abs(values[2 * N + 1 :]))
    assert np.max(np.abs(predicted - values[2 * N + 1 :])) / scale < 1e-9


def _embedded_monodromy(params, lam):
    """M(l) multiplied out from Lax entries embedded into the full space."""
    total = None
    for n in range(1, params.N + 1):
        local = lax(params, n, lam).blocks
        site = np.array([[embed(local[i, j], n, params) for j in range(2)] for i in range(2)])
        total = site if total is None else (site[:, :, None] @ total[None]).sum(axis=1)
    return total


def _assert_matches_embedded(params, lam):
    mono = monodromy(params, lam)
    built = np.array([[mono.A, mono.B], [mono.C, mono.D]])
    ref = _embedded_monodromy(params, lam)
    scale = np.max(np.abs(ref))
    np.testing.assert_allclose(built, ref, rtol=1e-13, atol=1e-13 * scale)
    t_op, b_op = transfer(params, lam), b_operator(params, lam)
    np.testing.assert_allclose(t_op, ref[0, 0] + ref[1, 1], rtol=1e-13, atol=1e-13 * scale)
    np.testing.assert_allclose(b_op, ref[0, 1], rtol=1e-13, atol=1e-13 * scale)
    # bit for bit: all three contract site 1 with the same kernel, and the
    # transfer matrix transposes the sum of its two blocks in one pass
    assert np.array_equal(t_op, mono.A + mono.D)
    assert np.array_equal(b_op, mono.B)


@pytest.mark.parametrize("N,p", [(3, 5), (5, 3)])
def test_monodromy_matches_embedded_product(N, p, rng):
    params = make_params(N, p, 2, rng.uniform(0.5, 2.0, N), rng.uniform(0.5, 2.0, N))
    for lam in laurent.sample_annulus(rng, 2):
        _assert_matches_embedded(params, lam)


def _polar(phase_bound):
    return st.builds(lambda r, phi: r * np.exp(1j * phi),
                     st.floats(0.5, 2.0), st.floats(-phase_bound, phase_bound))


@st.composite
def _instances(draw):
    N, p = draw(st.sampled_from([(1, 3), (3, 3), (1, 5)]))
    couplings = _polar(draw(st.sampled_from([0.0, 0.6])))
    kappa = draw(st.lists(couplings, min_size=N, max_size=N))
    xi = draw(st.lists(couplings, min_size=N, max_size=N))
    return make_params(N, p, 2, kappa, xi), draw(_polar(np.pi))


@settings(max_examples=40, deadline=None)
@given(_instances())
@example((make_params(3, 3, 2, [1.2 + 0.4j, 0.7 - 0.3j, 1.6 + 0.1j],
                      [0.9 - 0.5j, 1.4 + 0.2j, 0.6 + 0.3j]), 0.8 * np.exp(0.7j)))
def test_monodromy_matches_embedded_product_property(instance):
    _assert_matches_embedded(*instance)


def _relative(x, y):
    return np.linalg.norm(x - y) / np.linalg.norm(y)


@settings(max_examples=40, deadline=None)
@given(_instances())
def test_charge_conjugation_symmetry_property(instance):
    # C L_n(l) C = sigma_x L_n(l) sigma_x site by site (C sends u -> u^-1 and
    # v -> v^-1), so C M(l) C = sigma_x M(l) sigma_x: C commutes with
    # T = A + D but maps B to the monodromy entry C(l), which differs from B
    params, lam = instance
    flip = charge_conjugation(params.p)
    for n in range(1, params.N + 1):
        blocks = lax(params, n, lam).blocks
        assert _relative(flip @ blocks @ flip, blocks[::-1, ::-1]) < 1e-14
    full = charge_conjugation(params.p, params.N)
    t_op = transfer(params, lam)
    assert _relative(full @ t_op @ full, t_op) < 1e-14
    b_op = b_operator(params, lam)
    assert _relative(full @ b_op @ full, monodromy(params, lam).C) < 1e-13
    assert _relative(full @ b_op @ full, b_op) > 1e-2


@st.composite
def _signed_real_instances(draw):
    N, p = draw(st.sampled_from([(1, 3), (1, 7), (3, 3), (3, 5), (5, 3)]))
    couplings = st.builds(lambda r, sign: sign * r, st.floats(0.5, 2.0), st.sampled_from([-1, 1]))
    kappa = draw(st.lists(couplings, min_size=N, max_size=N))
    xi = draw(st.lists(couplings, min_size=N, max_size=N))
    return make_params(N, p, draw(st.sampled_from([2, 4])), kappa, xi), draw(_polar(np.pi))


@settings(max_examples=40, deadline=None)
@given(_signed_real_instances())
@example((make_params(3, 3, 2, [1.2 + 0.4j, 0.7 - 0.3j, 1.6 + 0.1j],
                      [0.9 - 0.5j, 1.4 + 0.2j, 0.6 + 0.3j]), 0.8 * np.exp(0.7j)))
def test_transfer_family_is_self_adjoint_for_real_couplings(instance):
    # T(l)^H = T(l*) and B(l)^H = -C(l*) for real couplings (module docstring);
    # complex couplings break both by O(1)
    params, lam = instance
    t_op, b_op = transfer(params, lam), b_operator(params, lam)
    t_defect = _relative(t_op.conj().T, transfer(params, np.conj(lam)))
    b_adjoint = -monodromy(params, np.conj(lam)).C
    b_defect = np.linalg.norm(b_op.conj().T - b_adjoint) / np.linalg.norm(b_op)
    if params.kappa.imag.any() or params.xi.imag.any():
        assert min(t_defect, b_defect) > 1e-1
    else:
        assert max(t_defect, b_defect) <= 1e-13
