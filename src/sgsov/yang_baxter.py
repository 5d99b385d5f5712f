"""Lax operator, monodromy matrix, transfer matrix and RLL verification.

The Lax matrix at site n is a 2 x 2 array of local p x p operators,

    L_n(l) = kappa_n * [[ u (q^-1/2 kappa v + q^1/2 v^-1 / kappa),
                          (l_n v - (l_n v)^-1) / i ],
                        [ (l_n v^-1 - v / l_n) / i,
                          u^-1 (q^1/2 v / kappa + q^-1/2 kappa v^-1) ]]

with l_n = l / xi_n.  Operator ordering inside the entries is semantic
(u and v do not commute) and is kept exactly as written.

The monodromy matrix is the ordered product M(l) = L_N(l) ... L_1(l)
with site N leftmost, and the transfer matrix is T(l) = A(l) + D(l).
Each Lax entry acts on one tensor factor, so the product is a sum of
Kronecker products, built as suffix products S_n = L_N(l) ... L_n(l):
S_n[i,j] = sum_k L_n[k,j] (x) S_{n+1}[i,k], the new site n the slowest
factor (site 1 slowest overall, as in :func:`sgsov.model.embed`), one
matmul over k and one transpose copy per site.  Site 1 is contracted by
one kernel, M[i,j] = sum_k L_1[k,j] (x) S_2[i,k], which :func:`monodromy`,
:func:`transfer` (blocks (0, 0) + (1, 1)) and :func:`b_operator` (block
(0, 1)) share, so T = A + D and B match the monodromy bit for bit.

C_n|k> = |-k mod p> sends u, v to u^-1, v^-1, so C_n L_n(l) C_n = sigma_x L_n(l) sigma_x:
charge conjugation C = C_1 x ... x C_N commutes with T(l) and maps B(l) to C(l).

u and v are unitary and v u^-1 = q u^-1 v, so for real kappa_n, xi_n (|q^1/2| = 1)
L_11(l)^H = L_22(l*) and L_12(l)^H = -L_21(l*).  Sites act on different tensor factors,
so A(l)^H = D(l*), B(l)^H = -C(l*) and T(l)^H = T(l*): the transfer family is self-adjoint.
With l^(N-1) T(l) = sum_k l^(2k) T_k, matching the powers of l* gives T_k^H = T_k.

The auxiliary R-matrix is the symmetric trigonometric 6-vertex matrix in
the multiplicative spectral parameter x = l/m with anisotropy parameter
q (entries x q - 1/(x q), x - 1/x and q - 1/q).  This convention is not
an input assumption: :func:`verify_rll` recomputes the RLL residual and
the package's test suite rejects any convention drift.  The gauge with
anisotropy q^(1/2) does not satisfy the relation for this Lax operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams, clock_matrix, shift_matrix

__all__ = [
    "LaxMatrix",
    "MonodromyMatrix",
    "lax",
    "monodromy",
    "transfer",
    "b_operator",
    "r_matrix",
    "verify_rll",
    "monodromy_rll_residual",
    "commutator_residual",
    "transfer_commutator_residual",
    "b_commutator_residual",
]


@dataclass(frozen=True)
class LaxMatrix:
    """Local Lax matrix: 2 x 2 auxiliary blocks of p x p site operators."""

    site: int
    lam: complex
    blocks: np.ndarray  # shape (2, 2, p, p)


@dataclass(frozen=True)
class MonodromyMatrix:
    """Monodromy matrix entries acting on the full quantum space."""

    lam: complex
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray


def _lax_blocks(params: ModelParams, lam: complex) -> np.ndarray:
    """Lax blocks of all N sites, shape (N, 2, 2, p, p): the formula above, vectorised."""
    if lam == 0:
        raise ValueError("spectral parameter must be nonzero")
    kap = params.kappa[:, None, None]
    ln = (lam / params.xi)[:, None, None]
    qh = params.q_half
    v = clock_matrix(params)
    u = shift_matrix(params)
    vinv = np.conj(v).T
    uinv = u.T

    l11 = kap * (u @ (kap / qh * v + qh / kap * vinv))
    l12 = kap * (ln * v - vinv / ln) / 1j
    l21 = kap * (ln * vinv - v / ln) / 1j
    l22 = kap * (uinv @ (qh / kap * v + kap / qh * vinv))
    return np.stack([l11, l12, l21, l22], axis=1).reshape(params.N, 2, 2, params.p, params.p)


def lax(params: ModelParams, n: int, lam: complex) -> LaxMatrix:
    """Lax matrix at site ``n`` (1-based) and spectral parameter ``lam``.

    ``lam`` must be nonzero since the entries carry both l_n and 1/l_n.
    """
    if not 1 <= n <= params.N:
        raise ValueError(f"site must lie in 1..{params.N}, got {n}")
    return LaxMatrix(site=n, lam=complex(lam), blocks=_lax_blocks(params, lam)[n - 1])


def _factors(params: ModelParams, lam: complex) -> tuple[np.ndarray, np.ndarray]:
    """Site-1 Lax blocks and the suffix S_2; each transpose moves runs of p^(N-n) entries."""
    local = _lax_blocks(params, lam)
    p = params.p
    suffix = np.eye(2, dtype=complex).reshape(2, 2, 1, 1)
    for site in local[:0:-1]:
        d = suffix.shape[-1]
        # (k, j, a, c) -> ((j, a, c), k) against (i, k, (b, d)): (i, j, a, c, b, d)
        prod = site.transpose(1, 2, 3, 0).reshape(2 * p * p, 2) @ suffix.reshape(2, 2, d * d)
        suffix = (prod.reshape(2, 2, p, p, d, d).transpose(0, 1, 2, 4, 3, 5)
                  .reshape(2, 2, p * d, p * d))
    return local[0], suffix


def _site1(first: np.ndarray, suffix: np.ndarray, *blocks: tuple[int, int]) -> np.ndarray:
    """Sum of monodromy ``blocks`` (i, j), each one matmul over k in (a, c, b, d) order.

    a, c index site 1; the sum is transposed once to (a, b, c, d).
    """
    p, d = first.shape[-1], suffix.shape[-1]
    prods = [first[:, j].reshape(2, p * p).T @ suffix[i].reshape(2, d * d) for i, j in blocks]
    total = prods[0]
    for prod in prods[1:]:
        total += prod
    return total.reshape(p, p, d, d).transpose(0, 2, 1, 3).reshape(p * d, p * d)


def monodromy(params: ModelParams, lam: complex) -> MonodromyMatrix:
    """Ordered product L_N(l) ... L_1(l) with entries on the full space."""
    first, suffix = _factors(params, lam)
    A, B, C, D = (_site1(first, suffix, ij) for ij in ((0, 0), (0, 1), (1, 0), (1, 1)))
    return MonodromyMatrix(lam=complex(lam), A=A, B=B, C=C, D=D)


def transfer(params: ModelParams, lam: complex) -> np.ndarray:
    """Transfer matrix T(l) = A(l) + D(l)."""
    return _site1(*_factors(params, lam), (0, 0), (1, 1))


def b_operator(params: ModelParams, lam: complex) -> np.ndarray:
    """Off-diagonal generator B(l) whose operator zeros separate variables."""
    return _site1(*_factors(params, lam), (0, 1))


def r_matrix(params: ModelParams, ratio: complex) -> np.ndarray:
    """Symmetric 6-vertex R-matrix at spectral-parameter ratio ``x = l/m``.

    At x = 1 the matrix degenerates to (q - 1/q) times the permutation.
    """
    if ratio == 0:
        raise ValueError("spectral-parameter ratio must be nonzero")
    q = params.q
    a = ratio * q - 1.0 / (ratio * q)
    b = ratio - 1.0 / ratio
    c = q - 1.0 / q
    r = np.zeros((4, 4), dtype=complex)
    r[0, 0] = r[3, 3] = a
    r[1, 1] = r[2, 2] = b
    r[1, 2] = r[2, 1] = c
    return r


def _aux_embed(blocks: np.ndarray, aux: int) -> np.ndarray:
    """Place 2 x 2 operator blocks into auxiliary space 1 or 2 of C2 x C2 x H."""
    dim = blocks.shape[-1]
    out = np.zeros((4 * dim, 4 * dim), dtype=complex)
    for i in range(2):
        for j in range(2):
            unit = np.zeros((2, 2))
            unit[i, j] = 1.0
            factor = (unit, np.eye(2)) if aux == 1 else (np.eye(2), unit)
            out += np.kron(np.kron(factor[0], factor[1]), blocks[i, j])
    return out


def _rll_residual(params: ModelParams, blocks_l: np.ndarray, blocks_m: np.ndarray,
                  lam: complex, mu: complex) -> float:
    dim = blocks_l.shape[-1]
    m1 = _aux_embed(blocks_l, aux=1)
    m2 = _aux_embed(blocks_m, aux=2)
    r12 = np.kron(r_matrix(params, lam / mu), np.eye(dim))
    lhs = r12 @ m1 @ m2
    rhs = m2 @ m1 @ r12
    norm = np.linalg.norm(lhs)
    if norm == 0:
        raise ValueError(
            f"RLL normalisation vanished at ratio {lam / mu}: singular point"
        )
    return float(np.linalg.norm(lhs - rhs) / norm)


def verify_rll(params: ModelParams, n: int, lam: complex, mu: complex) -> float:
    """Relative residual of the RLL relation for the site-``n`` Lax matrix.

    Computes ``|R(l/m) (L(l) x 1)(1 x L(m)) - (1 x L(m))(L(l) x 1) R(l/m)|``
    over the norm of the left-hand side.  A vanishing normalisation (which
    would make the residual meaningless) raises instead of being skipped.
    """
    if lam == 0 or mu == 0:
        raise ValueError("spectral parameters must be nonzero")
    bl = lax(params, n, lam).blocks
    bm = lax(params, n, mu).blocks
    return _rll_residual(params, bl, bm, lam, mu)


def monodromy_rll_residual(params: ModelParams, lam: complex, mu: complex) -> float:
    """RLL residual for the full monodromy matrix (same relation, H-valued)."""
    ml = monodromy(params, lam)
    mm = monodromy(params, mu)
    bl = np.array([[ml.A, ml.B], [ml.C, ml.D]])
    bm = np.array([[mm.A, mm.B], [mm.C, mm.D]])
    return _rll_residual(params, bl, bm, lam, mu)


def commutator_residual(x: np.ndarray, y: np.ndarray) -> float:
    """|[x, y]| / |x y| in Frobenius norm."""
    xy = x @ y
    return float(np.linalg.norm(xy - y @ x) / np.linalg.norm(xy))


def transfer_commutator_residual(params: ModelParams, lam: complex, mu: complex) -> float:
    """|[T(l), T(m)]| / |T(l) T(m)| in Frobenius norm."""
    return commutator_residual(transfer(params, lam), transfer(params, mu))


def b_commutator_residual(params: ModelParams, lam: complex, mu: complex) -> float:
    """|[B(l), B(m)]| / |B(l) B(m)| in Frobenius norm."""
    return commutator_residual(b_operator(params, lam), b_operator(params, mu))
