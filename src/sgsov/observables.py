"""Eigenstates from Q-functions, scalar products, and form factors.

A transfer eigenstate is the separate-state sum over all p^N labels

    |t> = sum_h prod_a Q_t(y_a(h_a)) prod_{b<a}(x_a/x_b - x_b/x_a) |y(h)>

built on a calibrated frame.  The dual eigenstate mirrors it with the
covectors and the per-variable weight x^N Q_t'(-x) on the negated grid:

    <t'| = sum_h prod_a [x_a^N Q_t'(-y_a(h_a))] prod_{b<a}(...) <y(h)|.

The extra power x^N is forced by the measure: it is exactly what turns
the pair products into the moment determinant below, and it is what
makes the sum a left eigenvector (verified against brute-force left
eigenvectors in the tests; dropping it fails whenever N mod p != 0).

With these conventions matrix elements of an operator O collapse to an
N x N determinant over grid moments,

    <t'|O|t> = det Phi,
    Phi[a,b] = y_a0^(2b-1) sum_{c=1..p} F_(O,b)(y_a(c))
               Q_t(y_a(c)) Q_t'(-y_a(c)) q^((2b-1)c),

where the coefficient table F characterises the operator: F = 1 for the
identity, and for the site-1 shift generator u_1 the first N-1 columns
carry F = y_a(c) while column N replaces the odd moment by

    sum_c  w(y_a(c+1)) Q_t(y_a(c)) Q_t'(-y_a(c+1)),
    w(y) = q^(1/2) xi_1 y^(N+1) a(y)
           / [prod_{n=2..N} (kappa_n / i) (q (xi_1 kappa_1)^2 + y^2)],

a single-grid-point weight built from the Baxter coefficient a; note the
dual Q is evaluated one grid step up.  This closed form was pinned down
empirically: the weight table is overdetermined by the dense brute-force
matrix elements of the embedded shift generator (hundreds of equations
for N*p unknowns), the fit is exact to rounding, and the displayed form
reproduces the fitted weights with constant one across p = 3, 5, 7 and
N = 1, 3.  It is also the only candidate invariant under re-basing the
grids (y_n0 -> y_n0 q), which any well-defined grid-sum must be.  Near
variants (entry quadratic in Q_t, unshifted dual argument, weights at
y_a(c), q-power offsets) all fail the same cross-validation and are
rejected by the test suite.

The determinant reads only the separation grids and the Q-function
values on them and on the negated grids: no separate-variable basis and
no brute-force vector enters, so the form-factor functions take the grid
data ``avg`` and the :class:`~sgsov.spectrum.QFunctions` table, never a frame.

A table of form factors is computed one row at a time: one dual state
t' against all states t in one broadcast step, multiplying the factors
in the same order as for a single pair, so a row has the bits of its
pairs.  The t'-independent factors are built once per table; the
identity table's c-terms also give the Hadamard scales against which its
off-diagonal entries vanish.  The single-pair functions take the row
indices t and t' of the table.

One discrete freedom remains: each grid representative Z_n is defined
only up to sign, both signs yield coherent bases, states and scalar
products, and the u_1 column above holds only up to a global sign that
negating any single Z_n toggles (at a single site one shows
analytically, using the orbit products  prod_k a(y(k)) = F(Z)  and
prod_k (A + y(k)^2) = A^p + Z^2,  that the cyclic consistency of the
shift amplitude equals Z / xi^p).  The representatives are aligned by
the product rule of :mod:`sgsov.averages`, applied in
:func:`~sgsov.averages.compute_grids`; :func:`sgsov.pipeline.solve`
certifies the alignment with an internal parity test.
"""

from __future__ import annotations

import numpy as np

from .averages import AverageData
from .model import ModelParams, embed, shift_matrix
from .sov_basis import SOVFrame, separate_expansion
from .spectrum import BaxterCoeffs, QFunctions

__all__ = [
    "OPERATOR_TAGS",
    "build_eigenstate",
    "build_coeigenstate",
    "form_factor_matrix",
    "form_factor",
    "form_factor_table",
    "identity_table",
    "u1_operator",
]

OPERATOR_TAGS = ("identity", "u1")


def _require_calibrated(frame: SOVFrame) -> None:
    if not frame.calibrated:
        raise ValueError("frame is not calibrated; run calibrate_scales first")


def build_eigenstate(frame: SOVFrame, grid_values: np.ndarray) -> np.ndarray:
    """Assemble the eigenstate of one Q-function's (N, p) grid values on a calibrated frame."""
    _require_calibrated(frame)
    coeff = separate_expansion(frame, grid_values)
    return frame.right @ coeff


def build_coeigenstate(frame: SOVFrame, neg_grid_values: np.ndarray) -> np.ndarray:
    """Assemble the dual eigenstate (a covector) of one Q-function's (N, p) negated-grid values.

    Uses the per-variable weight x^N Q(-x) on the grid points; see the
    module docstring for why the power of x is part of the convention.
    """
    _require_calibrated(frame)
    weights = frame.avg.grids ** frame.params.N * neg_grid_values
    coeff = separate_expansion(frame, weights)
    return coeff @ frame.left


def _u1_weight(params: ModelParams, coeffs: BaxterCoeffs, y: np.ndarray) -> np.ndarray:
    """The single-grid-point weight w(y) of the u1 last column (module docstring)."""
    xi1, kap1 = params.xi[0], params.kappa[0]
    denom_const = np.prod(params.kappa[1:] / 1j)
    return (
        params.q_half * xi1 * y ** (params.N + 1) * coeffs.a(y)
        / (denom_const * (params.q * (xi1 * kap1) ** 2 + y ** 2))
    )


def _phi_rows(
    avg: AverageData,
    values: np.ndarray,
    neg_values: np.ndarray,
    operator_tag: str,
):
    """Individual c-terms of the moment matrices, one (len(values), N, N, p) array per t'.

    ``values`` (M, N, p) holds Q_t on the grids, ``neg_values`` Q_t' on the negated grids.
    The t'-independent factors are built once; the ``u1`` last column is assembled
    directly from its bilinear form (weight times Q_t(y(c)) Q_t'(-y(c+1))), which
    stays finite when the dual Q vanishes on a grid point.
    """
    params = avg.params
    N, p = params.N, params.p
    cs = np.arange(1, p + 1)
    ks, ks_next = cs % p, (cs + 1) % p
    qt_c = values[:, :, ks]                       # (M, N, p)
    b_exp = 2 * np.arange(1, N + 1) - 1           # (N,)
    phase = params.q ** np.outer(b_exp, cs)       # (N, p)
    y0_pow = avg.y0[:, None, None] ** b_exp[None, :, None]

    if operator_tag == "u1":
        table = avg.grids[:, ks][:, None, :] * np.ones((1, N, 1))
        weighted = _u1_weight(params, BaxterCoeffs(params), avg.grids[:, ks_next]) * qt_c
    elif operator_tag == "identity":
        table = np.ones((N, N, p), dtype=complex)
    else:
        raise ValueError(f"unknown operator tag {operator_tag!r}; known: {OPERATOR_TAGS}")
    left = table * qt_c[:, :, None, :]

    for neg in neg_values:  # same left-to-right product as a single pair
        terms = left * neg[:, ks][:, None, :] * phase[None, :, :] * y0_pow
        if operator_tag == "u1":
            terms[:, :, N - 1, :] = weighted * neg[:, ks_next]
        yield terms


def _hadamard_scale(terms: np.ndarray) -> np.ndarray:
    """Hadamard bound (product of column norms) of the summed c-term magnitudes."""
    return np.prod(np.linalg.norm(np.abs(terms).sum(axis=-1), axis=-2), axis=-1)


def _pair_terms(avg: AverageData, q: QFunctions, t: int, tp: int, operator_tag: str):
    """The c-terms of the one pair (row t, dual row t') of the table ``q``."""
    return next(_phi_rows(avg, q.grid_values[[t]], q.neg_grid_values[[tp]], operator_tag))[0]


def form_factor_matrix(
    avg: AverageData,
    q: QFunctions,
    t: int,
    tp: int,
    operator_tag: str = "identity",
) -> np.ndarray:
    """The N x N moment matrix Phi whose determinant is <t'|O|t>, O one of :data:`OPERATOR_TAGS`."""
    return _pair_terms(avg, q, t, tp, operator_tag).sum(axis=-1)


def form_factor_det_scale(
    avg: AverageData,
    q: QFunctions,
    t: int,
    tp: int,
    operator_tag: str = "identity",
) -> float:
    """Cancellation-free magnitude scale for the determinant.

    Entry scales are the summed magnitudes of the c-terms; the returned
    value is their Hadamard bound (product of column norms), the natural
    yardstick for declaring a determinant 'numerically zero'.
    """
    return float(_hadamard_scale(_pair_terms(avg, q, t, tp, operator_tag)))


def form_factor(
    avg: AverageData,
    q: QFunctions,
    t: int,
    tp: int,
    operator_tag: str = "identity",
) -> complex:
    """Determinant form factor <t'|O|t> = det Phi between rows t and t' of ``q``."""
    return complex(np.linalg.det(form_factor_matrix(avg, q, t, tp, operator_tag)))


def form_factor_table(avg: AverageData, q: QFunctions,
                      operator_tag: str = "identity") -> np.ndarray:
    """Form factors det Phi indexed [t', t] over the rows of ``q``, one row (dual t') per step."""
    return np.stack([np.linalg.det(terms.sum(axis=-1))
                     for terms in _phi_rows(avg, q.grid_values, q.neg_grid_values, operator_tag)])


def identity_table(avg: AverageData, q: QFunctions) -> tuple[np.ndarray, np.ndarray]:
    """The identity :func:`form_factor_table` and, from the same c-terms, the Hadamard scales
    (:func:`form_factor_det_scale`) against which its off-diagonal entries vanish."""
    dets, scales = zip(*[(np.linalg.det(terms.sum(axis=-1)), _hadamard_scale(terms))
                         for terms in _phi_rows(avg, q.grid_values, q.neg_grid_values, "identity")])
    return np.stack(dets), np.stack(scales)


def u1_operator(params: ModelParams) -> np.ndarray:
    """The site-1 shift generator embedded in the full space."""
    return embed(shift_matrix(params), 1, params)
