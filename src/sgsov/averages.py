"""p-fold operator averages, their closed forms, and separation grids.

At a root of unity the p-fold product of a commuting one-parameter family
over the points ``q^k l`` (k = 1..p) depends on l only through ``L = l^p``
and, for the monodromy entries, is a central multiple of the identity.
The closed-form scalar is built from the function

    F(L) = prod_r (kappa_r xi_r / i)^p
           (1 + (-1)^(p'/2) i^p (kappa_r/xi_r)^p L)
           (1 + (-1)^(p'/2) i^p L / (kappa_r xi_r)^p) / L

as  B_avg(L) = (F(-L) - F(L))/2  and  A_avg(L) = (F(-L) + F(L))/2.

The zeros of B_avg determine the separation grids: L^N B_avg(L) is an even
polynomial of degree 2N whose zeros come in +- pairs.  One representative
Z_n with arg(Z_n) in [0, pi) is kept per pair, y_n0 is its principal p-th
root, and the grid of variable n is  y_n(k) = y_n0 q^k, k = 0..p-1.

Product rule.  The signs of the representatives are not free: the
shift-generator form factors (see :mod:`sgsov.observables`) hold only for
prod_n Z_n = +prod_r xi_r^p.  Vieta's formula on the degree-N polynomial
in W = L^2, prod_n W_n = (-1)^N c_0 / c_N, fixes the square of that
product: c_0 = -prod_r (kappa_r xi_r / i)^p, and c_N is c_0 times
prod_r alpha_r beta_r = (-1)^N / prod_r xi_r^(2p), where alpha_r, beta_r
are the two linear coefficients of site r in F (the phase (-1)^(p'/2) i^p
squares to -1 for odd p), so

    prod_n Z_n^2 = prod_n W_n = prod_r xi_r^(2p),

and prod_n Z_n = +-prod_r xi_r^p.  Negating any one Z_n flips the sign;
:func:`compute_grids` negates Z_1 when the arg rule lands on the minus
sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import DegenerateModelError
from .model import ModelParams
from .yang_baxter import commutator_residual

__all__ = [
    "AverageData",
    "average_operator",
    "f_function",
    "averages_closed_form",
    "b_average_coeffs",
    "compute_grids",
]


def f_function(params: ModelParams, Lambda: complex | np.ndarray) -> np.ndarray:
    """Closed-form average F(L); vectorised over ``Lambda`` (nonzero)."""
    Lambda = np.asarray(Lambda, dtype=complex)
    if np.any(Lambda == 0):
        raise ValueError("Lambda must be nonzero")
    p = params.p
    sign = (-1) ** (params.p_prime // 2) * 1j ** p
    kx = params.kappa * params.xi
    alpha = sign * (params.kappa / params.xi) ** p
    beta = sign / kx ** p
    lam = Lambda[..., None]
    factors = (kx / 1j) ** p * (1 + alpha * lam) * (1 + beta * lam) / lam
    return np.prod(factors, axis=-1)


def averages_closed_form(
    params: ModelParams, Lambda: complex | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Central scalars (A_avg, B_avg) at ``Lambda``.

    A_avg is even and B_avg odd under L -> -L by construction.
    """
    f_neg = f_function(params, -np.asarray(Lambda, dtype=complex))
    f_pos = f_function(params, Lambda)
    return (f_neg + f_pos) / 2.0, (f_neg - f_pos) / 2.0


def b_average_coeffs(params: ModelParams) -> np.ndarray:
    """Coefficients (low to high) of the degree-2N polynomial L^N B_avg(L).

    Built by exact coefficient convolution of the per-site factors of
    L^N F(L); the odd coefficients vanish identically, making the
    polynomial even.
    """
    p = params.p
    sign = (-1) ** (params.p_prime // 2) * 1j ** p
    kx = params.kappa * params.xi
    g = np.array([np.prod((kx / 1j) ** p)], dtype=complex)
    for r in range(params.N):
        alpha = sign * (params.kappa[r] / params.xi[r]) ** p
        beta = sign / kx[r] ** p
        g = npoly.polymul(g, np.array([1.0, alpha], dtype=complex))
        g = npoly.polymul(g, np.array([1.0, beta], dtype=complex))
    # L^N B_avg(L) = (-G(-L) - G(L)) / 2: even coefficients of G, negated
    coeffs = np.where(np.arange(g.size) % 2 == 0, -g, 0.0)
    return coeffs


def average_operator(
    family: Callable[[complex], np.ndarray],
    Lambda: complex,
    params: ModelParams,
) -> np.ndarray:
    """p-fold product of ``family`` over the points q^k l, k = 1..p.

    ``l`` is the principal p-th root of ``Lambda``; the result is
    independent of that choice because replacing l by q l only reindexes
    the product.  The family must commute at the p sample points (the
    product would otherwise be ordering dependent), which is checked.
    """
    if Lambda == 0:
        raise ValueError("Lambda must be nonzero")
    tol = params.tol("commutator")
    lam = np.exp(np.log(complex(Lambda)) / params.p)
    ops = [family(params.q ** k * lam) for k in range(1, params.p + 1)]
    for j in range(len(ops)):
        for k in range(j + 1, len(ops)):
            resid = commutator_residual(ops[j], ops[k])
            if resid > tol:
                raise ValueError(
                    f"family does not commute at averaging points "
                    f"(residual {resid:.3e} > {tol:.1e})"
                )
    out = ops[0]
    for op in ops[1:]:
        out = out @ op
    return out


@dataclass(frozen=True)
class AverageData:
    """Separation-grid data derived from the zeros of B_avg.

    Attributes
    ----------
    Z : (N,) complex
        One zero per +- pair of L^N B_avg(L), with arg in [0, pi) except
        for Z_1 when the product rule (module docstring) negates it.
    y0 : (N,) complex
        Principal p-th roots of Z; base points of the grids.
    grids : (N, p) complex
        ``grids[n, k] = y0[n] * q**k``; the joint spectrum of the
        separate variables, satisfying ``grids**p == Z`` columnwise.
    b_coeffs : (2N+1,) complex
        Coefficients of L^N B_avg(L), low to high.
    """

    params: ModelParams
    Z: np.ndarray
    y0: np.ndarray
    grids: np.ndarray
    b_coeffs: np.ndarray

    def f(self, Lambda):
        return f_function(self.params, Lambda)

    def cal_a(self, Lambda):
        return averages_closed_form(self.params, Lambda)[0]

    def cal_b(self, Lambda):
        return averages_closed_form(self.params, Lambda)[1]

    def all_points(self, negated: bool = False) -> np.ndarray:
        """Flat pool of grid points, optionally with negated copies."""
        pts = self.grids.ravel()
        return np.concatenate([pts, -pts]) if negated else pts


def compute_grids(params: ModelParams) -> AverageData:
    """Locate the zeros Z_n of B_avg and build the separation grids.

    Zeros are found as companion-matrix eigenvalues of the degree-N
    polynomial in W = L^2.  Repeated zeros or grid points closer than the
    genericity threshold (including against the negated grid, which enters
    the form-factor formulas) are rejected as degenerate configurations.
    """
    N, p = params.N, params.p
    tol = params.tol("grid_separation")
    coeffs = b_average_coeffs(params)
    w_coeffs = coeffs[::2]  # even polynomial: coefficients in W = L^2
    if not np.all(np.isfinite(w_coeffs)):
        raise DegenerateModelError("coefficients of the average polynomial are not finite "
                                   "in double precision")
    if abs(w_coeffs[-1]) == 0:
        raise DegenerateModelError("leading coefficient of the average polynomial vanished")
    w_roots = npoly.polyroots(w_coeffs)
    if len(w_roots) != N:
        raise DegenerateModelError(
            f"expected {N} squared zeros, companion matrix returned {len(w_roots)}"
        )
    scale = np.max(np.abs(w_roots))
    if np.min(np.abs(w_roots)) < 1e-14 * scale:
        raise DegenerateModelError("a zero of the average polynomial sits at the origin")
    for i in range(N):
        for j in range(i + 1, N):
            if abs(w_roots[i] - w_roots[j]) < tol * scale:
                raise DegenerateModelError(
                    "repeated zeros of the average polynomial: degenerate parameters"
                )

    z = np.exp(0.5 * np.log(w_roots))
    # representative with arg in [-delta, pi - delta): the guard keeps the
    # choice stable when a squared zero sits on the positive real axis up
    # to rounding noise (arg(W) = -eps must not flip the sign of Z)
    z = np.where(np.angle(z) < -1e-9, -z, z)
    order = np.lexsort((np.angle(z), np.abs(z)))
    z = z[order]

    # polish-level sanity: the selected zeros annihilate the polynomial
    mags = np.array(
        [np.sum(np.abs(coeffs) * np.abs(zn) ** np.arange(coeffs.size)) for zn in z]
    )
    vals = npoly.polyval(z, coeffs)
    if np.any(np.abs(vals) > 1e-9 * mags):
        raise DegenerateModelError("zero refinement failed for the average polynomial")

    # Vieta fixes prod_n Z_n / prod_r xi_r^p = +-1 up to rounding; the
    # aligned choice is +1 (module docstring) and negating Z_1 toggles it
    if (np.prod(z) / np.prod(params.xi ** p)).real < 0:
        z[0] = -z[0]

    y0 = np.exp(np.log(z) / p)
    grids = y0[:, None] * params.q ** np.arange(p)[None, :]

    pool = np.concatenate([grids.ravel(), -grids.ravel()])
    gscale = np.max(np.abs(pool))
    diffs = np.abs(pool[:, None] - pool[None, :])
    np.fill_diagonal(diffs, np.inf)
    if diffs.min() < tol * gscale:
        raise DegenerateModelError(
            f"grid separation {diffs.min() / gscale:.3e} below genericity "
            f"threshold {tol:.1e}"
        )
    return AverageData(params=params, Z=z, y0=y0, grids=grids, b_coeffs=coeffs)
