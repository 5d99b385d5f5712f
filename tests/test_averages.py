import numpy as np
import pytest

from sgsov import (
    DegenerateModelError,
    average_operator,
    averages_closed_form,
    baxter_coeffs,
    compute_grids,
    f_function,
    make_params,
)
from sgsov import laurent
from sgsov.yang_baxter import monodromy


def test_parity_of_closed_forms(params7, rng):
    lams = laurent.sample_annulus(rng, 6)
    cal_a, cal_b = averages_closed_form(params7, lams)
    cal_a_neg, cal_b_neg = averages_closed_form(params7, -lams)
    assert np.allclose(cal_b_neg, -cal_b, rtol=1e-12)
    assert np.allclose(cal_a_neg, cal_a, rtol=1e-12)


def test_quadratic_identity(params7, rng):
    # calA^2 - calB^2 = F(L) F(-L) is an identity of the defining combinations
    lams = laurent.sample_annulus(rng, 8)
    cal_a, cal_b = averages_closed_form(params7, lams)
    rhs = f_function(params7, lams) * f_function(params7, -lams)
    assert np.max(np.abs(cal_a ** 2 - cal_b ** 2 - rhs) / np.abs(rhs)) < 1e-10


def test_coefficient_product_matches_f(params7, rng):
    coeffs = baxter_coeffs(params7)
    q = params7.q
    for lam in laurent.sample_annulus(rng, 5):
        prod = np.prod(coeffs.a(q ** np.arange(1, params7.p + 1) * lam))
        closed = complex(f_function(params7, lam ** params7.p))
        assert abs(prod - closed) / abs(closed) < 1e-10


def test_average_operator_trivial_families(params7):
    dim = params7.dim
    eye = np.eye(dim)
    out = average_operator(lambda lam: eye, 1.3 + 0.2j, params7)
    assert np.allclose(out, eye)
    c = 0.7 - 0.4j
    out = average_operator(lambda lam: c * eye, 0.9j, params7)
    assert np.allclose(out, c ** params7.p * eye, rtol=1e-12)


def test_average_operator_rejects_noncommuting(params7):
    rng = np.random.default_rng(5)
    mats = {}

    def family(lam):
        key = round(lam.real, 12), round(lam.imag, 12)
        if key not in mats:
            mats[key] = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        return mats[key]

    with pytest.raises(ValueError, match="commute"):
        average_operator(family, 1.0 + 0.5j, params7)


def test_b_average_is_central_scalar(params7, rng):
    avg = compute_grids(params7)
    lam = laurent.sample_annulus(rng, 1, avoid=avg.all_points())[0]
    big = lam ** params7.p
    out = average_operator(lambda x: monodromy(params7, x).B, big, params7)
    target = complex(avg.cal_b(big))
    dim = params7.dim
    assert np.linalg.norm(out - target * np.eye(dim)) / abs(target) / np.sqrt(dim) < 1e-8
    # centrality against the other generators and the transfer matrix
    mu = laurent.sample_annulus(rng, 1)[0]
    mono = monodromy(params7, mu)
    for other in (mono.A, mono.D, mono.A + mono.D):
        prod = out @ other
        assert np.linalg.norm(prod - other @ out) / np.linalg.norm(prod) < 1e-9


def test_average_root_choice_independent(params7):
    # replacing l by q l merely reindexes the p-fold product
    big = 0.8 + 0.9j
    lam = np.exp(np.log(big) / params7.p)
    fam = lambda x: monodromy(params7, x).B
    q = params7.q
    prod1 = average_operator(fam, big, params7)
    ops = [fam(q ** k * (q * lam)) for k in range(1, params7.p + 1)]
    prod2 = ops[0]
    for op in ops[1:]:
        prod2 = prod2 @ op
    assert np.allclose(prod1, prod2, atol=1e-10 * np.linalg.norm(prod1))


def test_compute_grids_zeros_and_closure(params7):
    avg = compute_grids(params7)
    assert avg.Z.shape == (params7.N,)
    assert avg.grids.shape == (params7.N, params7.p)
    # selected zeros annihilate the closed form
    vals = np.abs(avg.cal_b(avg.Z))
    scale = np.abs(avg.cal_a(avg.Z))
    assert np.max(vals / scale) < 1e-9
    # grid closure: y^p = Z for every point of the row
    assert np.allclose(avg.grids ** params7.p, avg.Z[:, None], rtol=1e-10)
    # convention: one representative per +- pair with arg in [0, pi)
    assert np.all((np.angle(avg.Z) >= -1e-12) & (np.angle(avg.Z) < np.pi))


def test_grid_separation(params7):
    avg = compute_grids(params7)
    pool = avg.all_points(negated=True)
    diffs = np.abs(pool[:, None] - pool[None, :])
    np.fill_diagonal(diffs, np.inf)
    assert diffs.min() / np.max(np.abs(pool)) >= 1e-6


def test_single_site_zero_magnitude():
    # N=1: |Z| = |xi|^3 follows from the explicit product form, and the
    # product rule picks the sign: Z = xi^3
    params = make_params(1, 3, 2, [1.7], [0.8])
    avg = compute_grids(params)
    assert abs(avg.Z[0]) == pytest.approx(0.8 ** 3, rel=1e-10)
    assert avg.Z[0] == pytest.approx(0.8 ** 3, rel=1e-10)


def test_separation_guard_rejects(params7):
    # the genericity guard fires when the demanded separation is unmeetable
    with pytest.raises(DegenerateModelError, match="separation|repeated"):
        compute_grids(params7.with_tolerances(grid_separation=1.0))


def test_f_function_rejects_zero(params7):
    with pytest.raises(ValueError):
        f_function(params7, 0.0)
