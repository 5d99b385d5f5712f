"""Transfer-matrix spectrum, Baxter coefficients, and Q-function recovery.

Eigenvalue functions live in the Laurent class

    t(l) = sum_{m=0}^{N-1} c_m l^(2m - N + 1),

i.e. l^(N-1) t(l) is a polynomial in l^2 of degree <= N-1 whose
coefficients are real for suitable (e.g. real positive) couplings; the
package measures the imaginary residue instead of assuming it vanishes.

For each eigenvalue the finite-difference equation

    t(l) Q(l) = a(l) Q(l/q) + d(l) Q(l q)

restricted to a separation grid closes into a cyclic p x p system
(multiplication by q walks the grid), and its one-dimensional nullspace
yields the Q values per variable up to one scale each.  A joint
homogeneous least-squares solve stitches the per-variable values into a
single polynomial of degree <= N(p-1); the system is overdetermined by
one equation, so the residual is a real consistency check.  a and d do
not depend on t, so the systems of a whole spectrum are stacked and
solved by two batched SVDs; a failing check raises the error a loop over
the eigenvalues in order would raise first (:func:`q_from_t`).

The brute-force spectrum ("oracle") diagonalises the N Laurent-coefficient operators of
l^(N-1) T(l) = sum_k l^(2k) T_k, which carry the whole family, by a seeded random
combination; every eigenvector is certified against each T_k, whose eigenvalues are the
coefficients c_k.  The family is certified to commute with the charge conjugation
C|k_1..k_N> = |-k_1..-k_N mod p> and diagonalised in its even and odd sectors; C maps B(l)
to C(l), so the B family is not split.  For real kappa_n, xi_n, T_k^H = T_k (see
:mod:`sgsov.yang_baxter`), so each sector is diagonalised with ``eigh`` and no inverse;
complex couplings take ``eig`` and ``inv``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import laurent
from .averages import AverageData
from .errors import DegenerateModelError, ToleranceError
from .model import ModelParams
from .yang_baxter import transfer

__all__ = [
    "BaxterCoeffs",
    "QFunctions",
    "OracleSpectrum",
    "baxter_coeffs",
    "t_eval",
    "oracle_spectrum",
    "grid_determinants",
    "q_from_t",
    "tq_residual",
    "ab_initio_spectrum",
]

#: Random combinations drawn before a colliding spectrum counts as degenerate.
_EIG_RETRIES = 5

#: Absolute floor on the oracle's ``min_coeff_gap`` that the ``spectrum`` record
#: and criterion 5 require of a simple spectrum.
MIN_COEFF_GAP = 1e-8


class BaxterCoeffs:
    """The Laurent-polynomial coefficients a(l), d(l) of the TQ equation.

    ``a`` is the literal product over sites

        a(l) = prod_r (kappa_r xi_r / (i l))
               (1 + i q^(-1/2) l kappa_r / xi_r)
               (1 + i q^(-1/2) l / (kappa_r xi_r))

    and ``d(l) = q^N a(-l q)`` identically.  Both vectorise over ``l``.
    """

    def __init__(self, params: ModelParams):
        self.params = params

    def a(self, lam: complex | np.ndarray) -> np.ndarray:
        lam = np.asarray(lam, dtype=complex)
        if np.any(lam == 0):
            raise ValueError("spectral parameter must be nonzero")
        pr = self.params
        kx = pr.kappa * pr.xi
        ll = lam[..., None]
        qinv_half = 1.0 / pr.q_half
        factors = (
            kx / (1j * ll)
            * (1 + 1j * qinv_half * ll * pr.kappa / pr.xi)
            * (1 + 1j * qinv_half * ll / kx)
        )
        return np.prod(factors, axis=-1)

    def d(self, lam: complex | np.ndarray) -> np.ndarray:
        lam = np.asarray(lam, dtype=complex)
        return self.params.q ** self.params.N * self.a(-lam * self.params.q)


def baxter_coeffs(params: ModelParams) -> BaxterCoeffs:
    return BaxterCoeffs(params)


def t_eval(t_coeffs: np.ndarray, lam: complex | np.ndarray) -> np.ndarray:
    """Evaluate an eigenvalue function from its Laurent coefficients."""
    powers = laurent.transfer_powers(len(t_coeffs))
    return laurent.evaluate(np.asarray(t_coeffs, dtype=complex), powers, lam)


@dataclass(frozen=True)
class QFunctions:
    """Polynomial Q of every transfer eigenvalue, one row per eigenvalue.

    Coefficients are unit-norm with the global phase rotated to minimise
    the total imaginary weight (Q is only defined up to normalisation);
    ``imag_residue`` records what remains.  Grid values are Q on the
    separation grids and their negatives (the latter enter the dual states
    and form factors): each orbit's null vector times its scale from the
    joint fit, which carries more digits there than the fitted polynomial.
    """

    coeffs: np.ndarray            # (M, N(p-1)+1) low to high
    grid_values: np.ndarray       # (M, N, p)
    neg_grid_values: np.ndarray   # (M, N, p)
    fit_residual: np.ndarray      # (M,) joint homogeneous-system residual
    nullspace_gaps: np.ndarray    # (M, 2N) relative gap sigma_{p-1} / sigma_1 per orbit
    imag_residue: np.ndarray      # (M,)

    def __len__(self) -> int:
        return len(self.coeffs)

    @property
    def degree(self) -> np.ndarray:
        """Per row, the last coefficient above 1e-12 of the row's largest (0 if none)."""
        mags = np.abs(self.coeffs)
        sig = mags > 1e-12 * mags.max(axis=1, keepdims=True)
        return np.where(sig.any(axis=1), sig.shape[1] - 1 - np.argmax(sig[:, ::-1], axis=1), 0)


@dataclass(frozen=True)
class OracleSpectrum:
    """Full brute-force diagonalisation of the commuting transfer family, held per C-sector.

    Row j of ``t_coeffs`` is the eigenvalue function of eigenvector column j of
    :attr:`right` and covector row j of :attr:`left`."""

    params: ModelParams
    t_coeffs: np.ndarray          # (dim, N) Laurent coefficients, C-contiguous rows
    fit_residual: np.ndarray      # (dim,) held-out |t(l_h) - sum_k c_k l_h^m_k| / |t(l_h)|
    imag_residue: np.ndarray      # (dim,) max |Im c| / max |c| per row
    lambda_samples: np.ndarray    # the N ring points, then the held-out one
    residual: float               # worst column residual |T w - t w| / |T| per C-sector
    min_coeff_gap: float          # min pairwise distance of t-coefficient vectors
    sectors: tuple                # (right, left) of the even, then the odd C-sector
    order: np.ndarray             # basis order of the sector blocks (:meth:`_unfold`)
    rank: np.ndarray              # row j is sector column rank[j], even columns first

    def __len__(self) -> int:
        return len(self.t_coeffs)

    @cached_property
    def right(self) -> np.ndarray:  # eigenvectors as columns, unfolded on first read
        return self._unfold(self.sectors[0][0], self.sectors[1][0])[:, self.rank]

    @cached_property
    def left(self) -> np.ndarray:  # inverse of ``right``; rows are covectors
        return self._unfold(self.sectors[0][1].T, self.sectors[1][1].T).T[self.rank]

    def _unfold(self, even: np.ndarray, odd: np.ndarray) -> np.ndarray:
        """P @ blockdiag(even, odd) in the original basis."""
        h, out = np.sqrt(0.5), np.empty((len(self.order),) * 2, dtype=complex)
        out[self.order] = np.block([[even[:1], np.zeros((1, len(odd)))],
                                    [h * even[1:], h * odd], [h * even[1:], -h * odd]])
        return out


def simultaneous_eig(
    ops: Sequence[np.ndarray],
    rng: np.random.Generator,
    collision_tol: float,
    hermitian: bool = False,
    residual_tol: float = np.inf,
):
    """Joint eigenbasis of a commuting family via a random combination Z.

    Diagonalises Z with ``numpy.linalg.eig`` (LAPACK ``zgeev``) and ``inv``; a ``hermitian``
    family (closed under the adjoint, as the transfer family is for real couplings) goes
    through (Z + Z^H)/2 with ``numpy.linalg.eigh`` (``zheevd``), the inverse being the
    adjoint.  Redraws when the spectrum has near-collisions (which would let the
    eigensolver mix joint eigenspaces) or the residual exceeds ``residual_tol``; the caller
    gates the last draw's residual.  Returns the eigenvector matrix, its inverse, the
    per-operator eigenvalues (one row per operator) and the worst relative column residual
    |op w - t w| / |op|, from one product ``op @ right`` per operator.
    """
    ops = np.asarray(ops)
    last_gap = np.inf
    for attempt in range(_EIG_RETRIES):
        coeff = rng.standard_normal(len(ops)) + 1j * rng.standard_normal(len(ops))
        combo = sum(c * op for c, op in zip(coeff, ops))
        vals, right = (np.linalg.eigh(0.5 * (combo + combo.conj().T)) if hermitian
                       else np.linalg.eig(combo))
        diffs = np.abs(vals[:, None] - vals[None, :])
        np.fill_diagonal(diffs, np.inf)
        scale = max(np.max(np.abs(vals)), 1e-300)
        last_gap = diffs.min() / scale
        if last_gap < collision_tol:
            continue
        if hermitian:  # undo to first order the mixing of near-equal real eigenvalues,
            w = right.conj().T @ combo @ right  # using the complex spectrum of the normal Z
            w /= np.diag(w) - np.diag(w)[:, None] + np.eye(len(w))
            np.fill_diagonal(w, 0)
            right += right @ (w - w.conj().T) / 2  # the skew part keeps ``right`` unitary
        left = right.conj().T if hermitian else np.linalg.inv(right)
        images = ops @ right
        eigvals = np.einsum("ij,kji->ki", left, images)
        images -= right * eigvals[:, None, :]
        parts = images.view(float)  # real and imaginary parts side by side
        cols = np.einsum("kij,kij->kj", parts, parts).reshape(len(ops), -1, 2).sum(axis=2)
        residual = float(np.sqrt(np.max(cols.max(axis=1) / _sq_norms(ops))))
        if residual <= residual_tol or attempt == _EIG_RETRIES - 1:
            return right, left, eigvals, residual
    raise DegenerateModelError(
        f"random-combination spectrum kept colliding (last gap {last_gap:.3e}); "
        "parameters appear degenerate"
    )


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each member of a stack."""
    flat = np.ascontiguousarray(x).reshape(len(x), -1).view(float)
    return np.einsum("ki,ki->k", flat, flat)


def _sector_blocks(ops: Sequence[np.ndarray], order: np.ndarray, tol: float):
    """Even and odd blocks of P^T op P for each op, certifying C op C = op.

    P maps onto |0..0>, (|i> + |C(i)>)/sqrt2, (|i> - |C(i)>)/sqrt2; an asymmetry
    |C op C - op| / |op| above ``tol`` (from the gathered blocks) raises ToleranceError.
    """
    n, dim = len(ops), len(order)
    r, s = slice(1, (dim + 1) // 2), slice((dim + 1) // 2, None)
    flat, g = (order[:, None] * dim + order).ravel(), np.empty((n, dim, dim), dtype=complex)
    for op, out in zip(ops, g):
        np.take(op.reshape(-1), flat, out=out.reshape(-1))
    a, b, c, d = g[:, r, r], g[:, r, s], g[:, s, r], g[:, s, s]
    asym = np.sqrt(2 * (_sq_norms(a - d) + _sq_norms(b - c) + _sq_norms(g[:, 0, r] - g[:, 0, s])
                        + _sq_norms(g[:, r, 0] - g[:, s, 0])) / _sq_norms(g)).max()
    if not asym <= tol:  # NaN fails too
        raise ToleranceError(f"charge conjugation: |C T C - T| / |T| = {asym:.3e} > {tol:.1e}")
    diag, cross, h = a + d, b + c, np.sqrt(0.5)
    even = np.block([[g[:, :1, :1], h * (g[:, :1, r] + g[:, :1, s])],
                     [h * (g[:, r, :1] + g[:, s, :1]), 0.5 * (diag + cross)]])
    return even, 0.5 * (diag - cross)


def oracle_spectrum(
    params: ModelParams,
    seed: int | np.random.SeedSequence = 0,
) -> OracleSpectrum:
    """Brute-force transfer spectrum on the Laurent-coefficient operators T_k.

    T is built at N ring points l_j = exp(i(theta + pi j / N)) and one held-out point l_h, each
    certified C-symmetric (``commutator``) and reduced to its C-sectors; V[j, k] = l_j^(2k-N+1)
    has V^H V = N on the ring, so T_k = (V^H / N) T(l_j), and sum_k l_h^(2k-N+1) T_k must match
    T(l_h) to ``fit`` (relative Frobenius norm per sector).  [T_0..T_{N-1}, T(l_h)] is diagonalised
    per C-sector (:func:`simultaneous_eig`, gated by ``simdiag``): N rows of t-coefficients, and
    t(l_h) for ``fit_residual``.  Eigenvalue functions must be distinct; rows sort by coefficients.
    """
    N, dim = params.N, params.dim
    rng = np.random.default_rng(seed)
    ring = np.exp(1j * (rng.uniform(0, 2 * np.pi) + np.pi * np.arange(N) / N))
    lams = np.append(ring, laurent.sample_annulus(rng, 1, avoid=ring))
    # basis order [|0..0>, representatives i < C(i), their partners C(i)]
    shape = (params.p,) * N
    image = np.ravel_multi_index(-np.indices(shape).reshape(N, -1) % params.p, shape)
    order = np.concatenate([[0], reps := np.flatnonzero(np.arange(dim) < image), image[reps]])
    step = max(1, 2**16 // dim**2)  # operators per batch of 1 MiB; each dropped once reduced
    even, odd = (np.empty((N + 1, m, m), dtype=complex) for m in ((dim + 1) // 2, dim // 2))
    for k in range(0, N + 1, step):
        even[k : k + step], odd[k : k + step] = _sector_blocks(
            [transfer(params, lam) for lam in lams[k : k + step]], order, params.tol("commutator"))
    powers = laurent.transfer_powers(N)
    dft, held_out = (ring[:, None] ** powers).conj().T / N, lams[N] ** powers
    for sector in (even, odd):  # T_k over the ring builds, then the held-out check
        sector[:N] = np.tensordot(dft, sector[:N], axes=1)
        defect = (np.linalg.norm(np.tensordot(held_out, sector[:N], axes=1) - sector[N])
                  / np.linalg.norm(sector[N]))
        if not defect <= params.tol("fit"):
            raise ToleranceError(f"held-out transfer matrix: |sum_k l^m_k T_k - T(l)| / |T(l)| "
                                 f"= {defect:.3e} > {params.tol('fit'):.1e}")
    hermitian = not (params.kappa.imag.any() or params.xi.imag.any())  # T_k^H = T_k
    sim_tol = params.tol("simdiag")
    (right_e, left_e, vals_e, resid_e), (right_o, left_o, vals_o, resid_o) = (
        simultaneous_eig(sector, rng, params.tol("eig_collision"), hermitian, sim_tol)
        for sector in (even, odd))
    resid = float(np.max([resid_e, resid_o]))  # NaN if either is, unlike max()
    if not resid <= sim_tol:
        raise ToleranceError(f"oracle simultaneous-eigenvector residual "
                             f"{resid:.3e} exceeds {sim_tol:.1e}")
    eigvals = np.hstack([vals_e, vals_o])
    coeffs, actual = eigvals[:N], eigvals[N]  # (N, dim) t-coefficients, t(l_h)
    fit_resid = np.abs(held_out @ coeffs - actual) / np.abs(actual)

    # deterministic ordering by stacked real/imaginary coefficient parts
    rank = np.lexsort(np.vstack([np.round(coeffs.real, 9), np.round(coeffs.imag, 9)])[::-1])
    coeffs, fit_resid = coeffs[:, rank], fit_resid[rank]

    cdiff = sum(abs(c[:, None] - c[None, :]) ** 2 for c in coeffs)  # dim^2 memory
    np.fill_diagonal(cdiff, np.inf)
    min_gap = float(np.sqrt(cdiff.min()))
    if min_gap < 1e-10 * np.max(np.abs(coeffs)):
        raise DegenerateModelError(f"two eigenvalue functions coincide (gap {min_gap:.3e}): "
                                   "spectrum not simple")

    imag_residue = np.max(np.abs(coeffs.imag), axis=0) / np.max(np.abs(coeffs), axis=0)
    return OracleSpectrum(params, np.ascontiguousarray(coeffs.T), fit_resid, imag_residue,
                          lambda_samples=lams, residual=resid,
                          min_coeff_gap=min_gap, sectors=((right_e, left_e), (right_o, left_o)),
                          order=order, rank=rank)


def _cyclic_system(params: ModelParams, coeffs: BaxterCoeffs,
                   t_coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """TQ difference equation on the q-cyclic orbits ``points`` (K, p) for each
    eigenvalue row of ``t_coeffs`` (M, N), stacked (M, K, p, p); a, d evaluated once."""
    p = params.p
    ks = np.arange(p)
    t_coeffs = np.asarray(t_coeffs, dtype=complex)
    mono = points[..., None] ** laurent.transfer_powers(params.N)  # (K, p, N)
    mat = np.zeros((len(t_coeffs),) + points.shape + (p,), dtype=complex)
    mat[..., ks, ks] = (mono @ t_coeffs[:, None, :, None])[..., 0]
    mat[..., ks, (ks - 1) % p] -= coeffs.a(points)
    mat[..., ks, (ks + 1) % p] -= coeffs.d(points)
    return mat


def _grid_dets(params: ModelParams, avg: AverageData, coeffs: BaxterCoeffs,
               t_stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """det of every per-variable grid system of each row of ``t_stack`` (M, N), and its
    Hadamard bound prod_k |row_k|, the natural scale for |det|; both (M, N)."""
    mats = _cyclic_system(params, coeffs, t_stack, avg.grids)
    return np.linalg.det(mats), np.prod(np.linalg.norm(mats, axis=-1), axis=-1)


def grid_determinants(
    params: ModelParams,
    avg: AverageData,
    coeffs: BaxterCoeffs,
    t_coeffs: np.ndarray,
) -> np.ndarray:
    """|det| of every per-variable grid system, scaled by its Hadamard bound.

    ``t_coeffs`` is one vector (N,) or a stack (M, N); the result has its shape.
    All entries of a row vanish (to tolerance) iff it belongs to the spectrum;
    a generic perturbed vector leaves at least one entry finite.
    """
    det, bound = _grid_dets(params, avg, coeffs, np.reshape(t_coeffs, (-1, params.N)))
    return (np.hypot(det.real, det.imag) / bound).reshape(np.shape(t_coeffs))


def q_from_t(
    params: ModelParams,
    avg: AverageData,
    coeffs: BaxterCoeffs,
    t_coeffs: np.ndarray,
    max_degree: int | None = None,
) -> QFunctions:
    """Reconstruct the Q polynomial of each eigenvalue from the grid systems.

    ``t_coeffs`` is one vector (N,) or a stack (M, N); the table has one row
    per eigenvalue (M = 1 for one vector).  The difference equation
    closes cyclically on each grid and each negated grid (2N orbits; the negated
    values feed the dual states).  One SVD of all M x 2N orbit systems gives per
    orbit a (numerically) one-dimensional nullspace: the Q values up to one scale.
    A second stacked SVD solves the M joint homogeneous systems, rows then unknowns
    balanced to unit norm, for the polynomial coefficients and the 2N orbit scales;
    the grid values are the null vectors times those scales.
    With 2Np equations against N(p-1) + 2N + 1 unknowns each is overdetermined, so
    ``fit_residual`` (the smallest singular value at unit solution norm) checks that
    one polynomial of degree <= N(p-1) reproduces every orbit.  The checks run on
    the whole stack; the first failing eigenvalue raises DegenerateModelError for
    its first failing orbit gap, else its joint rank, else a collapsed scale.

    ``max_degree`` widens the polynomial basis beyond the default bound
    N(p-1); the trailing coefficients of the solution then measure how
    sharply the degree bound holds.
    """
    N, p = params.N, params.p
    deg = N * (p - 1) if max_degree is None else int(max_degree)
    gap_tol = params.tol("nullspace_gap")
    t_stack = np.asarray(t_coeffs).reshape(-1, N)
    M = len(t_stack)

    orbits = np.vstack([avg.grids, -avg.grids])  # (2N, p)
    _, svals, vh = np.linalg.svd(_cyclic_system(params, coeffs, t_stack, orbits))
    gaps = svals[..., -2] / svals[..., 0]  # (M, 2N)
    null = vh[..., -1, :].conj()  # (M, 2N, p)

    # rows: Q(points[m, k]) - scale_m * nullvec_m[k] = 0
    rows = np.arange(2 * N * p)
    design = np.zeros((M, 2 * N * p, deg + 1 + 2 * N), dtype=complex)
    design[:, :, : deg + 1] = orbits.reshape(-1)[:, None] ** np.arange(deg + 1)[None, :]
    design[:, rows, deg + 1 + rows // p] = -null.reshape(M, -1)
    # equilibrate: balance equations, then unknowns (monomial columns grow
    # like max|y|^j and would otherwise swamp the singular-value gap)
    design /= np.linalg.norm(design, axis=-1)[..., None]
    col_scale = np.linalg.norm(design, axis=-2)
    design /= col_scale[:, None, :]

    _, svals, vh = np.linalg.svd(design)
    solution = vh[:, -1].conj() / col_scale
    qc, scales = solution[:, : deg + 1], solution[:, deg + 1 :]
    collapsed = np.min(np.abs(scales), axis=1) < 1e-10 * np.max(np.abs(scales), axis=1)
    failed = (gaps < gap_tol).any(axis=1) | (svals[:, -2] < gap_tol) | collapsed
    if failed.any():  # what a loop over eigenvalues, each over its orbits, would meet first
        j = np.argmax(failed)
        if (gaps[j] < gap_tol).any():
            m = np.argmax(gaps[j] < gap_tol)
            raise DegenerateModelError(f"grid system {m % N + 1} has a nullspace of dimension > 1 "
                                       f"(singular-value gap {gaps[j, m]:.3e})")
        if svals[j, -2] < gap_tol:
            raise DegenerateModelError(
                f"joint Q system is rank deficient (second singular value {svals[j, -2]:.3e})")
        raise DegenerateModelError("a per-variable scale collapsed in the joint Q solve")

    # Q on the orbits: each null vector times its orbit scale from the joint fit
    values = scales[..., None] * null  # (M, 2N, p)
    # global phase: rotate to minimise the imaginary weight (angle 0 gives 1 when
    # the weight vanishes), then fix sign; the orbit values take the same factors
    phase = np.exp(-0.5j * np.angle(np.sum(qc ** 2, axis=1)))
    qc, values = qc * phase[:, None], values * phase[:, None, None]
    flip = qc[np.arange(M), np.argmax(np.abs(qc), axis=1)].real < 0
    qc, values = np.where(flip[:, None], -qc, qc), np.where(flip[:, None, None], -values, values)
    # row norms as np.linalg.norm forms them for one vector: dot(re, re) + dot(im, im)
    norm = np.sqrt(sum((x[:, None, :] @ x[:, :, None])[:, 0] for x in (qc.real, qc.imag)))
    qc, values = qc / norm, values / norm[:, None]
    imag_residue = np.max(np.abs(qc.imag), axis=1) / np.max(np.abs(qc), axis=1)

    return QFunctions(qc, values[:, :N], values[:, N:], svals[:, -1], gaps, imag_residue)


def tq_residual(
    coeffs: BaxterCoeffs,
    t_coeffs: np.ndarray,
    q_coeffs: np.ndarray,
    lam: complex | np.ndarray,
) -> np.ndarray:
    """Relative residual of the functional TQ equation at arbitrary ``lam``, for one
    eigenvalue and its Q coefficients (a row of :attr:`QFunctions.coeffs`)."""
    lam = np.asarray(lam, dtype=complex)
    q = coeffs.params.q
    polyval = np.polynomial.polynomial.polyval
    lhs = t_eval(t_coeffs, lam) * polyval(lam, q_coeffs)
    term_a = coeffs.a(lam) * polyval(lam / q, q_coeffs)
    term_d = coeffs.d(lam) * polyval(lam * q, q_coeffs)
    scale = np.abs(lhs) + np.abs(term_a) + np.abs(term_d)
    return np.abs(lhs - term_a - term_d) / scale


def ab_initio_spectrum(
    params: ModelParams,
    avg: AverageData,
    coeffs: BaxterCoeffs,
    seed: int | np.random.SeedSequence = 0,
    n_starts: int = 400,
    residual_tol: float = 1e-9,
    dedup_tol: float = 1e-6,
) -> np.ndarray:
    """Search for spectrum points directly from the grid determinants.

    Multi-start damped least squares on the map  c -> (det D_1, ..., det D_N)
    over real coefficient vectors.  Secondary path: completeness of the
    returned set is not guaranteed and depends on ``n_starts``; the oracle
    spectrum remains the reference.  Returns found coefficient vectors,
    deduplicated, as an (n_found, N) array.
    """
    import scipy.optimize  # the only scipy use, kept off the import path of every other command

    N = params.N
    rng = np.random.default_rng(seed)
    powers = laurent.transfer_powers(N)
    pts = avg.grids.reshape(-1)
    # per-coefficient start scale from the magnitudes a, d reach on the grids
    drive = np.abs(coeffs.a(pts)) + np.abs(coeffs.d(pts))
    start_scale = np.array(
        [np.median(drive / np.abs(pts ** pw)) for pw in powers]
    )

    def residuals(c: np.ndarray) -> np.ndarray:
        det, bound = _grid_dets(params, avg, coeffs, c[None])
        dets = det[0] / bound[0]
        return np.concatenate([dets.real, dets.imag])

    found: list[np.ndarray] = []
    for _ in range(n_starts):
        c0 = start_scale * rng.standard_normal(N)
        sol = scipy.optimize.least_squares(residuals, c0, method="lm", xtol=1e-14)
        resid = np.linalg.norm(residuals(sol.x))
        if resid > residual_tol:
            continue
        scale = max(np.linalg.norm(sol.x), 1e-300)
        if all(np.linalg.norm(sol.x - c) / scale > dedup_tol for c in found):
            found.append(sol.x)
    return np.array(found).reshape(-1, N)
