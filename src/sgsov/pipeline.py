"""End-to-end assembly: grids, spectrum, Q-functions, calibrated frame.

``solve`` runs the whole construction once and returns a
:class:`ModelSolution` holding every intermediate product, so commands
and tests can share one build.  All randomness (spectral-parameter
samples, random combinations) flows from the single seed through spawned
``numpy`` seed sequences, making outputs deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .averages import AverageData, compute_grids
from .errors import DegenerateModelError
from .model import ModelParams
from .observables import (
    build_coeigenstate,
    build_eigenstate,
    form_factor,
    form_factor_table,
    u1_operator,
)
from .sov_basis import (
    SOVFrame,
    calibrate_scales,
    diagonalize_b_family,
    separate_expansion,
)
from .spectrum import (
    BaxterCoeffs,
    OracleSpectrum,
    baxter_coeffs,
    oracle_spectrum,
    q_from_t,
)

__all__ = ["ModelSolution", "solve"]


def _match_scalar(reference: np.ndarray, target: np.ndarray) -> tuple[complex, float]:
    """Least-squares scalar s with s*reference ~ target, plus the overlap."""
    inner = np.vdot(reference, target)
    scale = complex(inner / np.vdot(reference, reference))
    overlap = abs(inner) / (np.linalg.norm(reference) * np.linalg.norm(target))
    return scale, float(overlap)


@dataclass(frozen=True)
class ModelSolution:
    """Everything the pipeline produces for one parameter set and seed.

    The brute-force eigenvectors and covectors are held once, in
    ``oracle.right`` and ``oracle.left``.  ``right_scales`` /
    ``left_scales`` are the per-state factors that carry them onto the
    normalisation of the built separate states; :meth:`direct_table`
    applies them on demand, the reference side of the
    determinant-versus-direct form-factor comparisons.
    """

    params: ModelParams
    avg: AverageData
    coeffs: BaxterCoeffs
    oracle: OracleSpectrum
    frame: SOVFrame
    reference_index: int
    built_right: np.ndarray     # built eigenstates as columns
    built_left: np.ndarray      # built dual states as rows
    right_scales: np.ndarray    # s with s * oracle.right[:, j] ~ built_right[:, j]
    left_scales: np.ndarray     # s with s * oracle.left[j] ~ built_left[j]
    right_overlaps: np.ndarray  # |<oracle, built>| per state, normalised
    left_overlaps: np.ndarray

    @property
    def pairs(self):
        return self.oracle.pairs

    @property
    def dim(self) -> int:
        return self.params.dim

    def operator(self, tag: str) -> np.ndarray | None:
        if tag == "identity":
            return None
        if tag == "u1":
            return u1_operator(self.params)
        raise ValueError(f"unknown operator tag {tag!r}")

    def form_factor_table(self, tag: str) -> np.ndarray:
        """Determinant values det Phi indexed [t', t], one row (dual t') per step."""
        return form_factor_table(self.avg, self.pairs, tag)

    def direct_table(self, tag: str) -> np.ndarray:
        """Brute-force matrix elements over the rescaled oracle states, [t', t]."""
        op = self.operator(tag)
        right = self.right_scales * self.oracle.right  # scales first, as s * column: same bits
        left = self.left_scales[:, None] * self.oracle.left
        return left @ (right if op is None else op @ right)


def _shift_parity(sol: ModelSolution) -> complex:
    """Internal parity of the shift-generator determinant identity.

    Compares one determinant against the dense matrix element between the
    built states themselves (no brute-force data enters).  The result is
    +-1 up to rounding: the grid representatives Z_n are only defined up
    to sign by their defining polynomial, and negating one of them flips
    the parity of the last determinant column while leaving every other
    construction intact; :func:`~sgsov.averages.compute_grids` chooses
    the signs that give +1.
    """
    ref = sol.reference_index
    op = u1_operator(sol.params)
    row = sol.built_left[ref] @ op @ sol.built_right
    j = int(np.argmax(np.abs(row)))
    det = form_factor(sol.avg, sol.pairs[j], sol.pairs[ref], "u1")
    const = form_factor(sol.avg, sol.pairs[ref], sol.pairs[ref], "identity") / (
        sol.built_left[ref] @ sol.built_right[:, ref]
    )
    return complex(det / (row[j] * const))


def solve(params: ModelParams, seed: int = 7) -> ModelSolution:
    """Run the full construction for one parameter set.

    Steps: separation grids, brute-force spectrum, per-eigenvalue
    Q-functions, the labelled and measure-normalised B eigenbasis,
    single-reference calibration, state assembly, and oracle matching, in
    one pass.

    The grids come with their representatives already aligned:
    :func:`~sgsov.averages.compute_grids` fixes the sign of prod_n Z_n,
    the one sign the shift-generator determinant identity sees (negating
    any single Z_n toggles its parity).  The internal parity test (built
    states only, no brute-force data) is kept as a certificate; a parity
    other than +1 is reported as a degenerate configuration.
    """
    avg = compute_grids(params)
    seeds = np.random.SeedSequence(seed).spawn(2)
    base_oracle = oracle_spectrum(params, seeds[0])
    coeffs = baxter_coeffs(params)
    q_fns = q_from_t(params, avg, coeffs, [pair.t_coeffs for pair in base_oracle.pairs])
    pairs = [pair.with_q(qf) for pair, qf in zip(base_oracle.pairs, q_fns)]
    oracle = replace(base_oracle, pairs=pairs)

    frame = diagonalize_b_family(params, avg, seeds[1])

    # reference: the eigenpair whose expansion coefficients are best
    # conditioned (largest worst-case coefficient), so no scale is fixed
    # from a near-vanishing component
    floor = []
    for pair in pairs:
        coeff = np.abs(separate_expansion(frame, pair.q_function.grid_values))
        floor.append(coeff.min() / coeff.max())
    reference = int(np.argmax(floor))
    frame = calibrate_scales(frame, pairs[reference].q_function, oracle.right[:, reference])

    built_right = np.column_stack([build_eigenstate(frame, p.q_function) for p in pairs])
    built_left = np.vstack([build_coeigenstate(frame, p.q_function) for p in pairs])

    dim = params.dim
    r_scale, l_scale = np.empty(dim, dtype=complex), np.empty(dim, dtype=complex)
    r_overlap, l_overlap = np.empty(dim), np.empty(dim)
    # a contiguous copy of each column: np.vdot on a strided one can differ in the last bit
    for j in range(dim):
        r_scale[j], r_overlap[j] = _match_scalar(oracle.right[:, j].copy(), built_right[:, j])
        l_scale[j], l_overlap[j] = _match_scalar(oracle.left[j], built_left[j])

    sol = ModelSolution(
        params=params,
        avg=avg,
        coeffs=coeffs,
        oracle=oracle,
        frame=frame,
        reference_index=reference,
        built_right=built_right,
        built_left=built_left,
        right_scales=r_scale,
        left_scales=l_scale,
        right_overlaps=r_overlap,
        left_overlaps=l_overlap,
    )
    parity = _shift_parity(sol)
    if not abs(parity - 1) < 1e-6:
        raise DegenerateModelError(
            f"could not align the shift-generator parity (last value {parity:.6f})"
        )
    return sol
