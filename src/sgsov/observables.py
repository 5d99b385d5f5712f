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

Form factors are computed one row at a time: one dual state t' against
all states t in one broadcast step, multiplying the factors in the same
order as for a single pair, so a row has the bits of its pairs.

One discrete freedom remains: each grid representative Z_n is defined
only up to sign, both signs yield coherent bases, states and scalar
products, and the u_1 column above holds with an extra factor of -1 per
"misaligned" variable (at a single site one shows analytically, using
the orbit products  prod_k a(y(k)) = F(Z)  and
prod_k (A + y(k)^2) = A^p + Z^2,  that the cyclic consistency of the
shift amplitude equals Z / xi^p, so exactly one representative works).
:func:`sgsov.pipeline.solve` aligns the representatives with an internal
parity test; see its docstring.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .averages import AverageData
from .errors import DegenerateModelError
from .model import ModelParams, embed, shift_matrix
from .sov_basis import SOVFrame, separate_expansion
from .spectrum import BaxterCoeffs, QFunction, TransferEigenpair

__all__ = [
    "OPERATOR_TAGS",
    "build_eigenstate",
    "build_coeigenstate",
    "ff_coefficients",
    "form_factor_matrix",
    "form_factor",
    "direct_matrix_element",
    "u1_operator",
]

OPERATOR_TAGS = ("identity", "u1")


def _require_calibrated(frame: SOVFrame) -> None:
    if not frame.calibrated:
        raise ValueError("frame is not calibrated; run calibrate_scales first")


def build_eigenstate(frame: SOVFrame, q_function: QFunction) -> np.ndarray:
    """Assemble the eigenstate of a Q-function on a calibrated frame."""
    _require_calibrated(frame)
    coeff = separate_expansion(frame, q_function.grid_values)
    return frame.right @ coeff


def build_coeigenstate(frame: SOVFrame, q_function: QFunction) -> np.ndarray:
    """Assemble the dual eigenstate (a covector) of a Q-function.

    Uses the per-variable weight x^N Q(-x) on the grid points; see the
    module docstring for why the power of x is part of the convention.
    """
    _require_calibrated(frame)
    weights = frame.avg.grids ** frame.params.N * q_function.neg_grid_values
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


def ff_coefficients(
    operator_tag: str,
    params: ModelParams,
    avg: AverageData,
    coeffs: BaxterCoeffs,
    q_t: QFunction,
    q_tp: QFunction,
) -> np.ndarray:
    """Coefficient table F[a, b, c] entering the form-factor determinant.

    Indices: a, b = 1..N are returned 0-based; the last axis holds
    c = 1..p at position c-1, evaluated at the grid point y_a(c) with
    the exponent taken mod p.  Supported tags: ``identity`` (all ones)
    and ``u1`` (site-1 shift generator).  User-supplied tables of the
    same shape may be passed to :func:`form_factor_matrix` directly.
    """
    N, p = params.N, params.p
    if operator_tag == "identity":
        return np.ones((N, N, p), dtype=complex)
    if operator_tag != "u1":
        raise ValueError(f"unknown operator tag {operator_tag!r}; known: {OPERATOR_TAGS}")

    ks = np.arange(1, p + 1) % p         # grid exponent of y(c), c = 1..p
    ks_next = (np.arange(1, p + 1) + 1) % p  # grid exponent of y(c+1)
    y_c = avg.grids[:, ks]               # (N, p): y_a(c)
    y_next = avg.grids[:, ks_next]       # (N, p): y_a(c+1)

    table = np.empty((N, N, p), dtype=complex)
    table[:, : N - 1, :] = y_c[:, None, :]

    qtp_c = q_tp.neg_grid_values[:, ks]       # Q_t'(-y_a(c))
    qtp_next = q_tp.neg_grid_values[:, ks_next]  # Q_t'(-y_a(c+1))
    if np.min(np.abs(qtp_c)) < 1e-12 * np.max(np.abs(qtp_c)):
        raise DegenerateModelError(
            "dual Q-function vanishes on a grid point: last form-factor column undefined"
        )
    weight = _u1_weight(params, coeffs, y_next)
    # the moment prefactor (y_a(c))^(2N-1) and the unshifted dual factor are
    # part of the generic Phi assembly; divide them back out of the table
    table[:, N - 1, :] = weight * qtp_next / (qtp_c * y_c ** (2 * N - 1))
    return table


def _phi_terms(
    frame: SOVFrame,
    ts: TransferEigenpair | Sequence[TransferEigenpair],
    tp: TransferEigenpair,
    operator_tag: str | np.ndarray,
) -> np.ndarray:
    """Individual c-terms of the moment matrices, shape (len(ts), N, N, p).

    The built-in ``u1`` last column is assembled directly from its
    bilinear form (weight times Q_t(y(c)) Q_t'(-y(c+1))), which stays
    finite even when the dual Q vanishes on a grid point and the
    ratio-form coefficient table of :func:`ff_coefficients` does not
    exist.
    """
    _require_calibrated(frame)
    q_fns = [t.q_function for t in ([ts] if isinstance(ts, TransferEigenpair) else ts)]
    if tp.q_function is None or None in q_fns:
        raise ValueError("both eigenpairs need attached Q-functions")
    params, avg = frame.params, frame.avg
    N, p = params.N, params.p
    cs = np.arange(1, p + 1)
    ks = cs % p
    qt_c = np.array([q.grid_values for q in q_fns])[:, :, ks]  # (len(ts), N, p)
    qtp_c = tp.q_function.neg_grid_values[:, ks]  # (N, p)
    b_exp = 2 * np.arange(1, N + 1) - 1           # (N,)
    phase = params.q ** np.outer(b_exp, cs)       # (N, p)

    tag = operator_tag if isinstance(operator_tag, str) else None
    if tag == "u1":
        table = avg.grids[:, ks][:, None, :] * np.ones((1, N, 1))
    elif tag == "identity":
        table = np.ones((N, N, p), dtype=complex)
    elif tag is None:
        table = np.asarray(operator_tag, dtype=complex)
        if table.shape != (N, N, p):
            raise ValueError(f"coefficient table must have shape {(N, N, p)}")
    else:
        raise ValueError(f"unknown operator tag {tag!r}; known: {OPERATOR_TAGS}")

    terms = (
        table
        * qt_c[:, :, None, :]
        * qtp_c[:, None, :]
        * phase[None, :, :]
        * avg.y0[:, None, None] ** b_exp[None, :, None]
    )
    if tag == "u1":
        ks_next = (cs + 1) % p
        weight = _u1_weight(params, BaxterCoeffs(params), avg.grids[:, ks_next])
        terms[:, :, N - 1, :] = weight * qt_c * tp.q_function.neg_grid_values[:, ks_next]
    return terms


def form_factor_matrix(
    frame: SOVFrame,
    t: TransferEigenpair | Sequence[TransferEigenpair],
    tp: TransferEigenpair,
    operator_tag: str | np.ndarray = "identity",
) -> np.ndarray:
    """The N x N moment matrix Phi whose determinant is <t'|O|t>.

    ``operator_tag`` may be a tag name or a precomputed (N, N, p)
    coefficient table.  A sequence ``t`` gives the row, (len(t), N, N).
    """
    phi = _phi_terms(frame, t, tp, operator_tag).sum(axis=-1)
    return phi[0] if isinstance(t, TransferEigenpair) else phi


def form_factor_det_scale(
    frame: SOVFrame,
    t: TransferEigenpair | Sequence[TransferEigenpair],
    tp: TransferEigenpair,
    operator_tag: str | np.ndarray = "identity",
) -> float | np.ndarray:
    """Cancellation-free magnitude scale for the determinant.

    Entry scales are the summed magnitudes of the c-terms; the returned
    value is their Hadamard bound (product of column norms), the natural
    yardstick for declaring a determinant 'numerically zero'; one per t.
    """
    scale = np.abs(_phi_terms(frame, t, tp, operator_tag)).sum(axis=-1)
    bound = np.prod(np.linalg.norm(scale, axis=-2), axis=-1)
    return float(bound[0]) if isinstance(t, TransferEigenpair) else bound


def form_factor(
    frame: SOVFrame,
    t: TransferEigenpair | Sequence[TransferEigenpair],
    tp: TransferEigenpair,
    operator_tag: str | np.ndarray = "identity",
) -> complex | np.ndarray:
    """Determinant form factor <t'|O|t> in the frame's normalisation (a row
    of them for a sequence ``t``)."""
    dets = np.linalg.det(form_factor_matrix(frame, t, tp, operator_tag))
    return complex(dets) if isinstance(t, TransferEigenpair) else dets


def direct_matrix_element(
    left_vector: np.ndarray,
    operator: np.ndarray | None,
    right_vector: np.ndarray,
) -> complex:
    """Brute-force matrix element: covector . operator . vector.

    ``operator=None`` stands for the identity (a plain pairing).
    """
    if operator is None:
        return complex(left_vector @ right_vector)
    return complex(left_vector @ (operator @ right_vector))


def u1_operator(params: ModelParams) -> np.ndarray:
    """The site-1 shift generator embedded in the full space."""
    return embed(shift_matrix(params), 1, params)
