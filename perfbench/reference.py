"""Reference transfer matrix, built without the program's operator code.

The Lax matrix follows the formula in the ``sgsov.yang_baxter`` module
docstring, on the clock/shift basis of ``sgsov.model``
(``v|k> = q^k |k>``, ``u|k> = |k-1>``, ``q = exp(-i pi p'/p)``,
``q^(1/2) = exp(-i pi p'/(2p))``), with site 1 the slowest Kronecker
factor.  Only ``numpy.kron`` and matrix products are used: neither
``sgsov.yang_baxter`` nor ``sgsov.model.embed`` is called, so the
benchmark's checks do not inherit a fault of the code they check.
"""

from __future__ import annotations

import numpy as np


def lax_blocks(p: int, p_prime: int, kappa: complex, xi: complex, lam: complex):
    """The 2 x 2 Lax matrix of one site as nested lists of p x p arrays."""
    q = np.exp(-1j * np.pi * p_prime / p)
    qh = np.exp(-1j * np.pi * p_prime / (2 * p))
    k = np.arange(p)
    v = np.diag(q ** k)
    vinv = np.diag(q ** -k)
    u = np.zeros((p, p), dtype=complex)
    u[(k - 1) % p, k] = 1.0
    uinv = u.T
    ln = lam / xi
    return [
        [kappa * u @ (kappa / qh * v + qh / kappa * vinv),
         kappa * (ln * v - vinv / ln) / 1j],
        [kappa * (ln * vinv - v / ln) / 1j,
         kappa * uinv @ (qh / kappa * v + kappa / qh * vinv)],
    ]


def transfer_matrix(N: int, p: int, p_prime: int, kappa, xi, lam: complex) -> np.ndarray:
    """T(lam) = A + D of the ordered product L_N(lam) ... L_1(lam)."""
    one = np.ones((1, 1), dtype=complex)
    zero = np.zeros((1, 1), dtype=complex)
    mono = [[one, zero], [zero, one]]
    for n in range(N):
        lax = lax_blocks(p, p_prime, kappa[n], xi[n], lam)
        # L_n multiplies from the left; site n is the fastest factor so far
        mono = [[np.kron(mono[0][j], lax[i][0]) + np.kron(mono[1][j], lax[i][1])
                 for j in range(2)] for i in range(2)]
    return mono[0][0] + mono[1][1]


def eigenvalue(t_coeffs: np.ndarray, lam: complex) -> complex:
    """t(lam) = sum_m c_m lam^(2m - (N-1)) from its N Laurent coefficients."""
    n = len(t_coeffs)
    return complex(np.sum(t_coeffs * lam ** (2.0 * np.arange(n) - (n - 1))))


def power_sum_defect(tmat: np.ndarray, eigenvalues: np.ndarray) -> float:
    """Worst |sum_j t_j^k - Tr T^k| / sum_j |t_j|^k over k = 1..4."""
    worst = 0.0
    power = np.eye(tmat.shape[0], dtype=complex)
    for k in range(1, 5):
        power = power @ tmat
        lhs = np.sum(eigenvalues ** k)
        worst = max(worst, float(abs(lhs - np.trace(power)) / np.sum(np.abs(eigenvalues) ** k)))
    return worst
