import numpy as np
import pytest

from sgsov import ConfigError, clock_matrix, embed, make_params, shift_matrix


def test_make_params_computes_q():
    params = make_params(1, 3, 2, [1.0], [1.0])
    assert params.q == pytest.approx(np.exp(-2j * np.pi / 3))
    assert params.beta_sq == pytest.approx(2 / 3)

    params = make_params(3, 3, 4, [1, 1, 1], [1, 1, 1])
    assert params.q == pytest.approx(np.exp(-4j * np.pi / 3))
    assert params.q ** 3 == pytest.approx(1.0)


def test_q_is_primitive_root():
    for p, pp in ((3, 2), (5, 2), (5, 4), (7, 2)):
        params = make_params(1, p, pp, [1.0], [1.0])
        assert abs(params.q) == pytest.approx(1.0)
        assert params.q ** p == pytest.approx(1.0)
        for k in range(1, p):
            assert abs(params.q ** k - 1.0) > 0.1
        assert params.q_half ** 2 == pytest.approx(params.q)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(N=2, p=3, p_prime=2, kappa=[1, 1], xi=[1, 1]),        # even N
        dict(N=3, p=4, p_prime=3, kappa=[1] * 3, xi=[1] * 3),      # even p
        dict(N=3, p=3, p_prime=3, kappa=[1] * 3, xi=[1] * 3),      # odd p'
        dict(N=3, p=3, p_prime=6, kappa=[1] * 3, xi=[1] * 3),      # not coprime
        dict(N=3, p=3, p_prime=2, kappa=[1, 0, 1], xi=[1] * 3),    # zero coupling
        dict(N=3, p=3, p_prime=2, kappa=[1, 1], xi=[1] * 3),       # arity
        dict(N=3, p=3, p_prime=2, kappa=[np.nan, 1, 1], xi=[1] * 3),  # non-finite
        dict(N=3, p=3, p_prime=2, kappa=[1] * 3, xi=[1, complex(1, np.inf), 1]),
    ],
)
def test_make_params_rejects(kwargs):
    with pytest.raises(ConfigError):
        make_params(**kwargs)


def test_unknown_tolerance_rejected():
    with pytest.raises(ConfigError, match="tolerance"):
        make_params(1, 3, 2, [1.0], [1.0], tolerances={"nope": 1e-3})


@pytest.mark.parametrize("p", [3, 5])
def test_weyl_relations(p):
    params = make_params(1, p, 2, [1.0], [1.0])
    v = clock_matrix(params)
    u = shift_matrix(params)
    eye = np.eye(p)
    assert np.allclose(u @ v, params.q * v @ u, atol=1e-14)
    assert np.allclose(np.linalg.matrix_power(u, p), eye, atol=1e-14)
    assert np.allclose(np.linalg.matrix_power(v, p), eye, atol=1e-13)
    # unitarity
    assert np.allclose(u @ u.conj().T, eye, atol=1e-14)
    assert np.allclose(v @ v.conj().T, eye, atol=1e-14)


def test_clock_spectrum_simple():
    params = make_params(1, 3, 2, [1.0], [1.0])
    v = clock_matrix(params)
    got = sorted(np.linalg.eigvals(v), key=lambda z: (z.real, z.imag))
    expected = sorted((params.q ** k for k in range(3)), key=lambda z: (z.real, z.imag))
    assert np.allclose(got, expected, atol=1e-13)
    assert np.diag(v)[1] == pytest.approx(params.q)


def test_shift_acts_cyclically():
    params = make_params(1, 3, 2, [1.0], [1.0])
    u = shift_matrix(params)
    for k in range(3):
        e = np.zeros(3)
        e[k] = 1.0
        out = u @ e
        assert out[(k - 1) % 3] == pytest.approx(1.0)


def test_embed_identity_and_commutation():
    params = make_params(3, 3, 2, [1, 1, 1], [1, 1, 1])
    eye = np.eye(3)
    assert np.allclose(embed(eye, 2, params), np.eye(27))
    u1 = embed(shift_matrix(params), 1, params)
    v2 = embed(clock_matrix(params), 2, params)
    assert np.allclose(u1 @ v2, v2 @ u1, atol=1e-14)
    # same-site Weyl relation lifts
    v1 = embed(clock_matrix(params), 1, params)
    assert np.allclose(u1 @ v1, params.q * v1 @ u1, atol=1e-13)


def test_embed_is_multiplicative_and_isometric(rng):
    params = make_params(3, 3, 2, [1, 1, 1], [1, 1, 1])
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.allclose(embed(a @ b, 2, params), embed(a, 2, params) @ embed(b, 2, params))
    assert np.linalg.norm(embed(a, 2, params), 2) == pytest.approx(np.linalg.norm(a, 2))


def test_embed_rejects_bad_site():
    params = make_params(3, 3, 2, [1, 1, 1], [1, 1, 1])
    with pytest.raises(ValueError):
        embed(np.eye(3), 0, params)
    with pytest.raises(ValueError):
        embed(np.eye(3), 4, params)
    with pytest.raises(ValueError):
        embed(np.eye(4), 1, params)
