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
Each Lax entry acts on one tensor factor, so the product is built site
by site as a sum of Kronecker products: the partial monodromy over
sites 1..n is P_n[i,j] = sum_k P_{n-1}[k,j] (x) L_n[i,k], O(dim^2) work
per site, site 1 the slowest factor (as in :func:`sgsov.model.embed`).
:func:`transfer` and :func:`b_operator` contract the last site only into
the block they return (the auxiliary trace, or the (0, 1) block).

C_n|k> = |-k mod p> sends u, v to u^-1, v^-1, so C_n L_n(l) C_n = sigma_x L_n(l) sigma_x:
charge conjugation C = C_1 x ... x C_N commutes with T(l) and maps B(l) to C(l).

u and v are unitary and v u^-1 = q u^-1 v, so for real kappa_n, xi_n (|q^1/2| = 1)
L_11(l)^H = L_22(l*) and L_12(l)^H = -L_21(l*).  Sites act on different tensor factors,
so A(l)^H = D(l*), B(l)^H = -C(l*) and T(l)^H = T(l*): the transfer family is self-adjoint.

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


def lax(params: ModelParams, n: int, lam: complex) -> LaxMatrix:
    """Lax matrix at site ``n`` (1-based) and spectral parameter ``lam``.

    ``lam`` must be nonzero since the entries carry both l_n and 1/l_n.
    """
    if lam == 0:
        raise ValueError("spectral parameter must be nonzero")
    if not 1 <= n <= params.N:
        raise ValueError(f"site must lie in 1..{params.N}, got {n}")
    kap = params.kappa[n - 1]
    ln = lam / params.xi[n - 1]
    qh = params.q_half
    v = clock_matrix(params)
    u = shift_matrix(params)
    vinv = np.conj(v).T
    uinv = u.T

    l11 = kap * (u @ (kap / qh * v + qh / kap * vinv))
    l12 = kap * (ln * v - vinv / ln) / 1j
    l21 = kap * (ln * vinv - v / ln) / 1j
    l22 = kap * (uinv @ (qh / kap * v + kap / qh * vinv))
    return LaxMatrix(site=n, lam=complex(lam), blocks=np.array([[l11, l12], [l21, l22]]))


def _partial_monodromy(params: ModelParams, lam: complex, n_sites: int) -> np.ndarray:
    """Blocks of L_n(l) ... L_1(l), n = ``n_sites`` >= 0, from identity blocks on C^1."""
    blocks = np.eye(2, dtype=complex).reshape(2, 2, 1, 1)
    for n in range(1, n_sites + 1):
        local = lax(params, n, lam).blocks
        dim = blocks.shape[-1] * params.p
        # a, c index sites 1..n-1 (slow), b, d index site n (fast)
        blocks = np.einsum("ikbd,kjac->ijabcd", local, blocks).reshape(2, 2, dim, dim)
    return blocks


def monodromy(params: ModelParams, lam: complex) -> MonodromyMatrix:
    """Ordered product L_N(l) ... L_1(l) with entries on the full space."""
    blocks = _partial_monodromy(params, lam, params.N)
    return MonodromyMatrix(
        lam=complex(lam), A=blocks[0, 0], B=blocks[0, 1], C=blocks[1, 0], D=blocks[1, 1]
    )


def transfer(params: ModelParams, lam: complex) -> np.ndarray:
    """Transfer matrix T(l) = A(l) + D(l)."""
    local = lax(params, params.N, lam).blocks
    blocks = _partial_monodromy(params, lam, params.N - 1)
    return np.einsum("ikbd,kiac->abcd", local, blocks).reshape(params.dim, params.dim)


def b_operator(params: ModelParams, lam: complex) -> np.ndarray:
    """Off-diagonal generator B(l) whose operator zeros separate variables."""
    local = lax(params, params.N, lam).blocks
    blocks = _partial_monodromy(params, lam, params.N - 1)
    return np.einsum("kbd,kac->abcd", local[0], blocks[:, 1]).reshape(params.dim, params.dim)


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


def _commutator_residual(x: np.ndarray, y: np.ndarray) -> float:
    xy = x @ y
    return float(np.linalg.norm(xy - y @ x) / np.linalg.norm(xy))


def transfer_commutator_residual(params: ModelParams, lam: complex, mu: complex) -> float:
    """|[T(l), T(m)]| / |T(l) T(m)| in Frobenius norm."""
    return _commutator_residual(transfer(params, lam), transfer(params, mu))


def b_commutator_residual(params: ModelParams, lam: complex, mu: complex) -> float:
    """|[B(l), B(m)]| / |B(l) B(m)| in Frobenius norm."""
    return _commutator_residual(b_operator(params, lam), b_operator(params, mu))
