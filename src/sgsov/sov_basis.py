"""Separate-variable basis: joint diagonalisation of the B family.

The commuting family B(l) is diagonalised once through a seeded random
linear combination over >= N+1 sample points; every eigenvector is then
certified against each family member.  Grid labels come from operator
zeros: eigenvector w carries label (h_1, ..., h_N) when B evaluated at
the grid point y_n(h_n) annihilates w, exactly one point per variable.

Stage order is enforced: ``diagonalize_b_family`` -> ``label_vectors``
-> ``apply_measure_normalization`` -> ``calibrate_scales``.  After
labelling, columns are sorted so that the column index of label h is
``sum_n h_n p^(N-n)``.

Left covectors are the rows of the inverse of the right-eigenvector
matrix (exact biorthogonality by construction; the condition number is
recorded).  Measure normalisation rescales them so the diagonal pairing
equals the separate-variable measure

    <y(h)|y(h)> = prod_{b<a} (x_a/x_b - x_b/x_a)^(-1),   x_a = y_a(h_a).

The remaining per-vector scale freedom of the right basis is fixed by
calibrating one reference eigenstate expansion against its brute-force
eigenvector; all other states then follow with no freedom left, which is
the decisive non-circular validation carried out in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .averages import AverageData
from .errors import DegenerateModelError, ToleranceError
from .model import ModelParams
from .spectrum import QFunction, simultaneous_eig
from . import laurent
from .yang_baxter import b_operator, commutator_residual

__all__ = [
    "SOVFrame",
    "diagonalize_b_family",
    "label_vectors",
    "apply_measure_normalization",
    "calibrate_scales",
    "vandermonde_weights",
    "separate_expansion",
]


def vandermonde_weights(grids: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """prod_{b<a} (x_a/x_b - x_b/x_a) for each label row, x_a = grids[a, h_a]."""
    n_vars = grids.shape[0]
    x = grids[np.arange(n_vars)[None, :], labels]  # (n_labels, N)
    out = np.ones(len(labels), dtype=complex)
    for a in range(1, n_vars):
        for b in range(a):
            out *= x[:, a] / x[:, b] - x[:, b] / x[:, a]
    return out


@dataclass(frozen=True)
class SOVFrame:
    """Right/left separate-variable bases with grid labels and scales.

    ``right`` holds basis vectors as columns, ``left`` covectors as rows;
    ``left @ right`` is diagonal (equal to ``measure`` once normalised).
    """

    params: ModelParams
    avg: AverageData
    right: np.ndarray
    left: np.ndarray
    labels: np.ndarray | None = None       # (dim, N) grid exponents per column
    vandermonde: np.ndarray | None = None  # (dim,) pair products per label
    measure: np.ndarray | None = None      # (dim,) target diagonal pairing
    scales: np.ndarray | None = None       # (dim,) calibration factors
    calibrated: bool = False
    diagnostics: Mapping[str, float] = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.right.shape[0]

    def pairing(self) -> np.ndarray:
        return self.left @ self.right

    def with_diagnostics(self, **extra: float) -> "SOVFrame":
        merged = dict(self.diagnostics)
        merged.update(extra)
        return replace(self, diagnostics=merged)


def separate_expansion(frame: SOVFrame, per_variable: np.ndarray) -> np.ndarray:
    """Coefficients  c_h = prod_n per_variable[n, h_n] * V(h)  over all labels.

    ``per_variable`` is an (N, p) table of one factor per grid point; the
    product over variables is weighted by the pair factor V(h) so that
    separate states read  state = right @ c.
    """
    if frame.labels is None or frame.vandermonde is None:
        raise ValueError("frame must be labelled before expanding separate states")
    n_vars = frame.params.N
    factors = per_variable[np.arange(n_vars)[None, :], frame.labels]
    return np.prod(factors, axis=1) * frame.vandermonde


def diagonalize_b_family(
    params: ModelParams,
    avg: AverageData,
    seed: int | np.random.SeedSequence = 0,
) -> SOVFrame:
    """Joint right eigenbasis of B(l) over N+1 random sample points.

    Left covectors are the inverse rows.  Raises when eigenvectors fail
    to be simultaneous (residual above the ``simdiag`` tolerance) or when
    random combinations keep colliding.
    """
    rng = np.random.default_rng(seed)
    lams = laurent.sample_annulus(
        rng, params.N + 1, avoid=avg.all_points(negated=True), min_rel_dist=1e-2
    )
    ops = [b_operator(params, lam) for lam in lams]

    ctol = params.tol("commutator")
    for j in range(len(ops)):
        for k in range(j + 1, len(ops)):
            resid = commutator_residual(ops[j], ops[k])
            if resid > ctol:
                raise ToleranceError(
                    f"[B(l_i), B(l_j)] residual {resid:.3e} exceeds {ctol:.1e}"
                )

    right, left, _, worst = simultaneous_eig(
        ops, rng, collision_tol=params.tol("eig_collision")
    )
    stol = params.tol("simdiag")
    if worst > stol:
        raise ToleranceError(
            f"simultaneous-eigenvector residual {worst:.3e} exceeds {stol:.1e}"
        )

    return SOVFrame(
        params=params,
        avg=avg,
        right=right,
        left=left,
        diagnostics={
            "simdiag_residual": worst,
            "condition_number": float(np.linalg.cond(right)),
        },
    )


def label_vectors(frame: SOVFrame, avg: AverageData, params: ModelParams) -> SOVFrame:
    """Label every eigenvector by its annihilating grid point per variable.

    For each column exactly one grid point per variable must satisfy
    |B(y) w| <= tol; the resulting map onto {0..p-1}^N must be a
    bijection.  Columns (and covector rows) are reordered canonically.
    """
    N, p, dim = params.N, params.p, frame.dim
    tol = params.tol("label")
    resid = np.empty((N, p, dim))
    for n in range(N):
        for k in range(p):
            op = b_operator(params, avg.grids[n, k])
            resid[n, k] = np.linalg.norm(op @ frame.right, axis=0) / np.linalg.norm(op)

    hits = resid <= tol
    per_vector_hits = hits.sum(axis=(0, 1))
    if not np.all(per_vector_hits == N):
        bad = int(np.argmax(per_vector_hits != N))
        raise DegenerateModelError(
            f"vector {bad} is annihilated by {per_vector_hits[bad]} grid points, "
            f"expected exactly {N}: degenerate or mislabelled configuration"
        )

    labels = np.argmin(resid, axis=1).T  # (dim, N)
    best = np.min(resid, axis=1)
    if np.any(best > tol):
        raise DegenerateModelError("a variable has no annihilating grid point")

    idx = np.ravel_multi_index(labels.T, (p,) * N)
    if sorted(idx) != list(range(dim)):
        raise DegenerateModelError("grid labelling is not a bijection onto {0..p-1}^N")

    order = np.argsort(idx)
    labels = labels[order]
    frame = replace(
        frame,
        right=frame.right[:, order],
        left=frame.left[order, :],
        labels=labels,
        vandermonde=vandermonde_weights(avg.grids, labels),
    )
    return frame.with_diagnostics(label_best_residual=float(best.max()))


def apply_measure_normalization(frame: SOVFrame) -> SOVFrame:
    """Rescale covectors so the diagonal pairing equals the measure.

    The measure for label h is the inverse pair product 1/V(h); right
    vectors keep their (still free) scales.
    """
    if frame.labels is None:
        raise ValueError("frame must be labelled before measure normalisation")
    v = frame.vandermonde
    if np.min(np.abs(v)) == 0 or not np.all(np.isfinite(v)):
        raise DegenerateModelError("vanishing measure denominator: grid collision")
    measure = 1.0 / v
    left = measure[:, None] * frame.left
    out = replace(frame, left=left, measure=measure)
    # record pairing quality here: later calibration rescales rows and
    # columns with a wide dynamic range, which amplifies the (otherwise
    # exact) inversion error without changing the construction's content
    pairing = out.pairing()
    diag = np.diag(pairing)
    offdiag = float(np.max(np.abs(pairing - np.diag(diag))) / np.max(np.abs(diag)))
    deviation = float(np.max(np.abs(diag - measure) / np.abs(measure)))
    return out.with_diagnostics(pairing_offdiag=offdiag, measure_deviation=deviation)


def calibrate_scales(
    frame: SOVFrame,
    q_function: QFunction,
    vector: np.ndarray,
) -> SOVFrame:
    """Fix per-vector scales from one reference eigenstate expansion.

    ``q_function`` is the reference eigenvalue's Q-function and ``vector``
    its brute-force eigenvector (a column of the oracle's ``right``).
    Solves for scales s_h such that the separate-state expansion of the
    Q-function, applied to the rescaled basis, reproduces ``vector``
    exactly.  Scales are then frozen for all subsequent state work; the
    covectors absorb 1/s_h so the measure pairing is untouched.
    """
    if frame.measure is None:
        raise ValueError("apply_measure_normalization must run before calibration")
    if frame.calibrated:
        raise ValueError("frame is already calibrated")

    coeff = separate_expansion(frame, q_function.grid_values)
    cmag = np.abs(coeff)
    if cmag.min() < 1e-12 * cmag.max():
        raise DegenerateModelError(
            "reference Q-function vanishes near a grid point; choose another reference"
        )
    weights = np.linalg.solve(frame.right, vector)
    scales = weights / coeff
    right = frame.right * scales[None, :]
    left = frame.left / scales[:, None]

    resid = np.linalg.norm(right @ coeff - vector) / np.linalg.norm(vector)
    out = replace(frame, right=right, left=left, scales=scales, calibrated=True)
    return out.with_diagnostics(calibration_residual=float(resid))
