"""Separate-variable basis: joint diagonalisation of the B family.

The commuting family B(l) is diagonalised once through a seeded random
linear combination over N+1 sample points; every eigenvector is certified
against each family member.  Grid labels come from the eigenvalues: the
zeros of an eigenvalue of B are the separate variables, so eigenvector w
carries label (h_1, ..., h_N) when its eigenvalue vanishes at the grid
point y_n(h_n), exactly one point per variable.  l^N B(l) is a polynomial
of degree N in l^2, so the N+1 sampled eigenvalues fix it on the grids.

:func:`diagonalize_b_family` returns the finished frame in one pass:
columns sorted so that the column index of label h is
``sum_n h_n p^(N-n)`` (:func:`grid_labels`), covectors measure-normalised.
:func:`calibrate_scales` is the one later stage.

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
from functools import lru_cache
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
    "calibrate_scales",
    "grid_labels",
    "vandermonde_weights",
    "separate_expansion",
]


@lru_cache(maxsize=None)
def grid_labels(N: int, p: int) -> np.ndarray:
    """Label (h_1, ..., h_N) of every frame column: row i holds the base-p digits of i."""
    labels = np.indices((p,) * N).reshape(N, -1).T.copy()  # C order: np.prod rounds by layout
    labels.flags.writeable = False  # shared by every caller
    return labels


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
    """Right/left separate-variable bases in canonical label order, with scales.

    ``right`` holds basis vectors as columns, ``left`` covectors as rows;
    column i carries label ``grid_labels(N, p)[i]`` and ``left @ right`` is
    diagonal, equal to ``measure`` until calibration rescales both sides.
    """

    params: ModelParams
    avg: AverageData
    right: np.ndarray
    left: np.ndarray
    vandermonde: np.ndarray                # (dim,) pair products per label
    measure: np.ndarray                    # (dim,) target diagonal pairing
    scales: np.ndarray | None = None       # (dim,) calibration factors
    calibrated: bool = False
    diagnostics: Mapping[str, float] = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.right.shape[0]

    def pairing(self) -> np.ndarray:
        return self.left @ self.right


def separate_expansion(frame: SOVFrame, per_variable: np.ndarray) -> np.ndarray:
    """Coefficients  c_h = prod_n per_variable[n, h_n] * V(h)  over all labels.

    ``per_variable`` is an (N, p) table of one factor per grid point; the
    product over variables is weighted by the pair factor V(h) so that
    separate states read  state = right @ c.
    """
    n_vars = frame.params.N
    factors = per_variable[np.arange(n_vars)[None, :], grid_labels(n_vars, frame.params.p)]
    return np.prod(factors, axis=1) * frame.vandermonde


def diagonalize_b_family(
    params: ModelParams,
    avg: AverageData,
    seed: int | np.random.SeedSequence = 0,
) -> SOVFrame:
    """Labelled, measure-normalised joint eigenbasis of B(l), in one pass.

    B is diagonalised at N+1 random sample points; raises when eigenvectors
    fail to be simultaneous (residual above the ``simdiag`` tolerance) or
    when random combinations keep colliding.  Columns are labelled from
    their eigenvalue rows (:func:`label_vectors`) and put in canonical
    order; the covectors, the inverse rows, are scaled to the measure.
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

    right, left, eigvals, worst = simultaneous_eig(
        ops, rng, collision_tol=params.tol("eig_collision")
    )
    stol = params.tol("simdiag")
    if worst > stol:
        raise ToleranceError(
            f"simultaneous-eigenvector residual {worst:.3e} exceeds {stol:.1e}"
        )
    condition = float(np.linalg.cond(right))
    order, best = label_vectors(params, avg, lams, eigvals)

    v = vandermonde_weights(avg.grids, grid_labels(params.N, params.p))
    if np.min(np.abs(v)) == 0 or not np.all(np.isfinite(v)):
        raise DegenerateModelError("vanishing measure denominator: grid collision")
    measure = 1.0 / v
    right, left = right[:, order], measure[:, None] * left[order, :]
    # pairing quality is recorded here: calibration rescales rows and columns
    # with a wide dynamic range, which amplifies the (otherwise exact)
    # inversion error without changing the construction's content
    pairing = left @ right
    diag = np.diag(pairing)
    offdiag = float(np.max(np.abs(pairing - np.diag(diag))) / np.max(np.abs(diag)))
    deviation = float(np.max(np.abs(diag - measure) / np.abs(measure)))
    return SOVFrame(params, avg, right, left, v, measure, diagnostics={
        "simdiag_residual": worst, "condition_number": condition, "label_best_residual": best,
        "pairing_offdiag": offdiag, "measure_deviation": deviation})


def label_vectors(params: ModelParams, avg: AverageData, lams: np.ndarray,
                  eigvals: np.ndarray) -> tuple[np.ndarray, float]:
    """Column order that sorts the B eigenbasis by grid label, and the worst
    annihilating residual.

    ``eigvals[j, c]`` is the eigenvalue of column c on B(lams[j]).  As l^N B(l)
    is a polynomial of degree N in l^2, interpolation weights W give every
    eigenvalue on the grids exactly: b(y) = sum_j W_j(y) b(l_j).  Column c
    carries label h when b_c vanishes at y_n(h_n), judged by the relative
    residual |W b_c| / (|W| |b_c|) against the ``label`` tolerance: exactly
    one grid point per variable, and the labels a bijection onto {0..p-1}^N.
    """
    N, p = params.N, params.p
    tol = params.tol("label")
    # W_j(y) = (l_j / y)^N prod_{k != j} (y^2 - l_k^2) / (l_j^2 - l_k^2)
    y, lams = avg.grids.ravel()[:, None], np.asarray(lams)
    weights = (lams / y) ** N
    for k in range(len(lams)):
        others = np.arange(len(lams)) != k
        weights[:, others] *= (y**2 - lams[k] ** 2) / (lams[others] ** 2 - lams[k] ** 2)
    resid = (np.abs(weights @ eigvals) / (np.abs(weights) @ np.abs(eigvals))).reshape(N, p, -1)

    hits = resid <= tol
    per_vector_hits = hits.sum(axis=(0, 1))
    if not np.all(per_vector_hits == N):
        bad = int(np.argmax(per_vector_hits != N))
        raise DegenerateModelError(
            f"vector {bad} is annihilated by {per_vector_hits[bad]} grid points, "
            f"expected exactly {N}: degenerate or mislabelled configuration"
        )

    labels = np.argmin(resid, axis=1)  # (N, dim)
    best = np.min(resid, axis=1)
    if np.any(best > tol):
        raise DegenerateModelError("a variable has no annihilating grid point")

    idx = np.ravel_multi_index(labels, (p,) * N)
    if sorted(idx) != list(range(len(idx))):
        raise DegenerateModelError("grid labelling is not a bijection onto {0..p-1}^N")
    return np.argsort(idx), float(best.max())


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
    return replace(frame, right=right, left=left, scales=scales, calibrated=True,
                   diagnostics={**frame.diagnostics, "calibration_residual": float(resid)})
