"""Acceptance criteria: quantitative exit checks with stated tolerances.

Each criterion function measures a set of residuals on a shared
:class:`~sgsov.pipeline.ModelSolution` and compares them against the
instance tolerances; ``run_suite`` executes all of them in order on the
default instance (odd N sites, couplings drawn uniformly from [0.5, 2]
under the run seed) and reports one machine-readable record per
criterion.  Wall-clock budgets are part of the criteria; timings are
reported per record but excluded from structured command output, which
must be byte-identical across runs with the same seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import laurent
from .averages import average_operator, f_function
from .model import ModelParams, make_params
from .observables import form_factor_det_scale
from .pipeline import ModelSolution, solve
from .spectrum import MIN_COEFF_GAP, ab_initio_spectrum, grid_determinants, q_from_t, tq_residual
from .yang_baxter import (
    commutator_residual,
    monodromy,
    transfer,
    transfer_commutator_residual,
    verify_rll,
)

__all__ = ["CriterionResult", "SuiteReport", "default_instance", "run_suite", "CRITERIA"]


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    name: str
    passed: bool
    tolerance: float | None
    measured: dict
    runtime_s: float
    budget_s: float | None = None
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class SuiteReport:
    params: ModelParams
    seed: int
    results: list[CriterionResult]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


def default_instance(
    seed: int,
    N: int = 3,
    p: int = 3,
    p_prime: int = 2,
    kappa=None,
    xi=None,
    tolerances=None,
) -> ModelParams:
    """Default acceptance instance; couplings drawn from [0.5, 2] per seed."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC0)))
    if kappa is None:
        kappa = rng.uniform(0.5, 2.0, N)
    if xi is None:
        xi = rng.uniform(0.5, 2.0, N)
    return make_params(N, p, p_prime, kappa, xi, tolerances=tolerances)


def criterion_rll(sol: ModelSolution, rng: np.random.Generator) -> CriterionResult:
    """RLL exchange relation per site at random spectral-parameter pairs."""
    t0 = time.perf_counter()
    n_pairs = 10
    params = sol.params
    tol = params.tol("rll")
    worst = 0.0
    for n in range(1, params.N + 1):
        for _ in range(n_pairs):
            lam, mu = laurent.sample_annulus(rng, 2)
            worst = max(worst, verify_rll(params, n, lam, mu))
    return CriterionResult(
        cid="1",
        name="rll_relation",
        passed=worst <= tol,
        tolerance=tol,
        measured={"max_residual": worst, "pairs_per_site": n_pairs},
        runtime_s=time.perf_counter() - t0,
        budget_s=1.0,
    )


def criterion_transfer_commutativity(sol: ModelSolution, rng: np.random.Generator) -> CriterionResult:
    """[T(l), T(m)] = 0 at random pairs, relative Frobenius norm."""
    t0 = time.perf_counter()
    n_pairs = 10
    params = sol.params
    tol = params.tol("commutator")
    worst = 0.0
    for _ in range(n_pairs):
        lam, mu = laurent.sample_annulus(rng, 2)
        worst = max(worst, transfer_commutator_residual(params, lam, mu))
    return CriterionResult(
        cid="2",
        name="transfer_commutativity",
        passed=worst <= tol,
        tolerance=tol,
        measured={"max_residual": worst, "pairs": n_pairs},
        runtime_s=time.perf_counter() - t0,
        budget_s=1.0,
    )


def criterion_central_averages(sol: ModelSolution, rng: np.random.Generator) -> CriterionResult:
    """Averaged B is the closed-form central scalar and commutes with A, D, T."""
    t0 = time.perf_counter()
    n_points = 5
    params, avg = sol.params, sol.avg
    scalar_tol = params.tol("average_scalar")
    central_tol = params.tol("centrality")
    closed_tol = params.tol("closed_form")
    dim = params.dim

    worst_scalar = 0.0
    worst_central = 0.0
    for _ in range(n_points):
        lam = laurent.sample_annulus(rng, 1, avoid=avg.all_points())[0]
        big_lambda = lam ** params.p
        avg_b = average_operator(lambda x: monodromy(params, x).B, big_lambda, params)
        target = complex(avg.cal_b(big_lambda))
        worst_scalar = max(
            worst_scalar,
            float(np.linalg.norm(avg_b - target * np.eye(dim)) / abs(target) / np.sqrt(dim)),
        )
        mu = laurent.sample_annulus(rng, 1)[0]
        mono = monodromy(params, mu)
        for other in (mono.A, mono.D, mono.A + mono.D):
            worst_central = max(worst_central, commutator_residual(avg_b, other))

    lams = laurent.sample_annulus(rng, n_points)
    prods = np.array(
        [np.prod(sol.coeffs.a(params.q ** np.arange(1, params.p + 1) * lam)) for lam in lams]
    )
    closed = f_function(params, lams ** params.p)
    worst_closed = float(np.max(np.abs(prods - closed) / np.abs(closed)))

    return CriterionResult(
        cid="3",
        name="central_averages",
        passed=(worst_scalar <= scalar_tol and worst_central <= central_tol
                and worst_closed <= closed_tol),
        tolerance=scalar_tol,
        measured={
            "avg_vs_scalar": worst_scalar,
            "centrality_commutator": worst_central,
            "closed_form_vs_product": worst_closed,
            "centrality_tolerance": central_tol,
            "closed_form_tolerance": closed_tol,
        },
        runtime_s=time.perf_counter() - t0,
        budget_s=5.0,
    )


def criterion_sov_basis(sol: ModelSolution, rng: np.random.Generator) -> CriterionResult:
    """Joint diagonalisation quality and measure pairing; the frame's construction
    already certified its labels as a bijection."""
    t0 = time.perf_counter()
    params, frame = sol.params, sol.frame
    sim_tol = params.tol("simdiag")
    measure_tol = params.tol("measure")

    sim_resid = frame.diagnostics["simdiag_residual"]
    # recorded at measure-normalisation time, before calibration rescaling
    offdiag = float(frame.diagnostics["pairing_offdiag"])
    measure_dev = float(frame.diagnostics["measure_deviation"])

    return CriterionResult(
        cid="4",
        name="sov_basis",
        passed=sim_resid <= sim_tol and measure_dev <= measure_tol and offdiag <= measure_tol,
        tolerance=sim_tol,
        measured={
            "simdiag_residual": float(sim_resid),
            "label_count": params.dim,
            "pairing_offdiag": offdiag,
            "measure_deviation": measure_dev,
            "measure_tolerance": measure_tol,
        },
        runtime_s=time.perf_counter() - t0,
        budget_s=10.0,
    )


def criterion_spectrum(sol: ModelSolution, rng: np.random.Generator) -> CriterionResult:
    """Simplicity, eigenvalue-class fit, and grid determinant quantisation."""
    t0 = time.perf_counter()
    n_perturbed = 20
    params = sol.params
    fit_tol = params.tol("fit")
    det_tol = params.tol("det_zero")
    dim = params.dim

    count_ok = len(sol.pairs) == dim
    gap = sol.oracle.min_coeff_gap
    worst_fit = max(pr.fit_residual for pr in sol.pairs)

    worst_eig_det = 0.0
    for pr in sol.pairs:
        dets = grid_determinants(params, sol.avg, sol.coeffs, pr.t_coeffs)
        worst_eig_det = max(worst_eig_det, float(dets.max()))

    min_perturbed = np.inf
    scale = np.mean([np.abs(pr.t_coeffs) for pr in sol.pairs])
    for _ in range(n_perturbed):
        base = sol.pairs[rng.integers(dim)].t_coeffs
        probe = base + 1e-2 * scale * rng.standard_normal(params.N)
        dets = grid_determinants(params, sol.avg, sol.coeffs, probe)
        min_perturbed = min(min_perturbed, float(dets.max()))

    return CriterionResult(
        cid="5",
        name="spectrum_simplicity_and_class",
        passed=(count_ok and gap > MIN_COEFF_GAP and worst_fit <= fit_tol
                and worst_eig_det <= det_tol and min_perturbed >= 1e-5),
        tolerance=det_tol,
        measured={
            "eigenvalue_count": len(sol.pairs),
            "min_coeff_gap": float(gap),
            "max_heldout_fit": float(worst_fit),
            "max_eigen_grid_det": worst_eig_det,
            "min_perturbed_grid_det": float(min_perturbed),
            "fit_tolerance": fit_tol,
        },
        runtime_s=time.perf_counter() - t0,
        budget_s=30.0,
    )


def criterion_q_functions(sol: ModelSolution, rng: np.random.Generator) -> CriterionResult:
    """Q degree bound, joint grid residual, and functional TQ residual."""
    t0 = time.perf_counter()
    n_offgrid = 20
    params = sol.params
    q_tol = params.tol("q_fit")
    tq_tol = params.tol("tq")

    bound = params.N * (params.p - 1)
    worst_grid = max(pr.q_function.fit_residual for pr in sol.pairs)
    degree_ok = all(pr.q_function.degree <= bound for pr in sol.pairs)

    # refit in a wider basis: coefficients beyond the bound must vanish
    wides = q_from_t(params, sol.avg, sol.coeffs, [pr.t_coeffs for pr in sol.pairs],
                     max_degree=bound + 2)
    worst_excess = max(float(np.max(np.abs(w.coeffs[bound + 1 :])) / np.max(np.abs(w.coeffs)))
                       for w in wides)

    lams = laurent.sample_annulus(rng, n_offgrid, avoid=sol.avg.all_points(negated=True))
    worst_tq = 0.0
    for pr in sol.pairs:
        worst_tq = max(
            worst_tq, float(np.max(tq_residual(sol.coeffs, pr.t_coeffs, pr.q_function, lams)))
        )

    return CriterionResult(
        cid="6",
        name="q_function_reconstruction",
        passed=(degree_ok and worst_grid <= q_tol and worst_tq <= tq_tol
                and worst_excess <= q_tol),
        tolerance=tq_tol,
        measured={
            "max_grid_residual": float(worst_grid),
            "max_tq_residual": worst_tq,
            "degree_bound": bound,
            "max_degree": max(pr.q_function.degree for pr in sol.pairs),
            "excess_coefficient_max": worst_excess,
            "grid_tolerance": q_tol,
        },
        runtime_s=time.perf_counter() - t0,
        budget_s=30.0,
    )


def criterion_eigenstates(sol: ModelSolution, rng: np.random.Generator) -> CriterionResult:
    """Built states match oracle vectors and are transfer eigenstates."""
    t0 = time.perf_counter()
    n_lambda = 5
    params = sol.params
    ov_tol = params.tol("overlap")
    res_tol = params.tol("eigenstate")

    non_ref = [j for j in range(params.dim) if j != sol.reference_index]
    worst_overlap = float(1.0 - min(sol.right_overlaps[non_ref]))
    worst_left = float(1.0 - min(sol.left_overlaps))

    lams = laurent.sample_annulus(rng, n_lambda)
    worst_resid = 0.0
    for lam in lams:
        tmat = transfer(params, lam)
        tv = tmat @ sol.built_right
        for j, pr in enumerate(sol.pairs):
            worst_resid = max(
                worst_resid,
                float(np.linalg.norm(tv[:, j] - pr.t(lam) * sol.built_right[:, j])
                      / np.linalg.norm(sol.built_right[:, j])),
            )

    return CriterionResult(
        cid="7",
        name="eigenstate_construction",
        passed=(worst_overlap <= ov_tol and worst_left <= ov_tol and worst_resid <= res_tol),
        tolerance=ov_tol,
        measured={
            "max_right_overlap_defect": worst_overlap,
            "max_left_overlap_defect": worst_left,
            "max_transfer_residual": worst_resid,
            "residual_tolerance": res_tol,
            "reference_index": sol.reference_index,
        },
        runtime_s=time.perf_counter() - t0,
        budget_s=30.0,
    )


def criterion_form_factors(sol: ModelSolution, rng: np.random.Generator) -> CriterionResult:
    """Determinant form factors reproduce dense matrix elements.

    Identity: off-diagonal determinants vanish against their entry scale
    and the diagonal determinant/direct ratio is one constant; the shift
    generator's ratio must equal the same constant over every pair.
    """
    t0 = time.perf_counter()
    params = sol.params
    off_tol = params.tol("ff_offdiag")
    ratio_tol = params.tol("ff_ratio")

    det_id = sol.form_factor_table("identity")
    direct_id = sol.direct_table("identity")
    worst_off = 0.0
    for jp, tp in enumerate(sol.pairs):
        scale = form_factor_det_scale(sol.avg, sol.pairs, tp, "identity")
        # np.hypot is the scalar abs(); np.abs on complex arrays can differ by an ulp
        off = np.delete(np.hypot(det_id[jp].real, det_id[jp].imag) / scale, jp)
        worst_off = max(worst_off, float(off.max()))
    diag_ratio = np.diag(det_id) / np.diag(direct_id)
    const = complex(diag_ratio.mean())
    diag_spread = float(np.max(np.abs(diag_ratio / const - 1)))

    det_u1 = sol.form_factor_table("u1")
    direct_u1 = sol.direct_table("u1")
    u1_ratio = det_u1 / direct_u1
    u1_spread = float(np.max(np.abs(u1_ratio / const - 1)))

    return CriterionResult(
        cid="8",
        name="form_factor_determinants",
        passed=(worst_off <= off_tol and diag_spread <= ratio_tol and u1_spread <= ratio_tol),
        tolerance=ratio_tol,
        measured={
            "identity_offdiag_max": float(worst_off),
            "identity_diag_spread": diag_spread,
            "u1_ratio_spread": u1_spread,
            "normalisation_constant": [const.real, const.imag],
            "offdiag_tolerance": off_tol,
        },
        runtime_s=time.perf_counter() - t0,
        budget_s=120.0,
    )


def criterion_reality(sol: ModelSolution, rng: np.random.Generator) -> CriterionResult:
    """Soft check: imaginary residues of t and Q coefficients (report only)."""
    t0 = time.perf_counter()
    tol = sol.params.tol("reality")
    t_res = max(pr.imag_residue for pr in sol.pairs)
    q_res = max(pr.q_function.imag_residue for pr in sol.pairs)
    warnings = []
    if t_res > tol:
        warnings.append(f"eigenvalue coefficients carry imaginary residue {t_res:.3e}")
    if q_res > tol:
        warnings.append(f"Q coefficients carry imaginary residue {q_res:.3e}")
    return CriterionResult(
        cid="9",
        name="reality_reporting",
        passed=True,  # soft threshold: warn, never fail
        tolerance=tol,
        measured={"t_imag_residue": float(t_res), "q_imag_residue": float(q_res)},
        runtime_s=time.perf_counter() - t0,
        budget_s=None,
        warnings=tuple(warnings),
    )


CRITERIA = [
    criterion_rll,
    criterion_transfer_commutativity,
    criterion_central_averages,
    criterion_sov_basis,
    criterion_spectrum,
    criterion_q_functions,
    criterion_eigenstates,
    criterion_form_factors,
    criterion_reality,
]


def run_suite(
    params: ModelParams,
    seed: int,
    ab_initio: bool = False,
    solution: ModelSolution | None = None,
    criteria=None,
    enforce_budgets: bool = True,
) -> SuiteReport:
    """Run acceptance criteria (all by default) on one solved instance.

    Runtime budgets belong to the default desk-scale instance; pass
    ``enforce_budgets=False`` for structural runs on larger instances.
    """
    sol = solve(params, seed=seed) if solution is None else solution
    chosen = CRITERIA if criteria is None else list(criteria)
    results = [
        fn(sol, np.random.default_rng(np.random.SeedSequence((seed, 100 + k))))
        for k, fn in enumerate(chosen)
    ]
    if ab_initio:
        results.append(ab_initio_check(sol, seed))
    budget_fail = [
        r.cid for r in results
        if enforce_budgets and r.budget_s is not None and r.runtime_s > r.budget_s
    ]
    if budget_fail:
        results = [
            r if r.cid not in budget_fail else
            CriterionResult(r.cid, r.name, False, r.tolerance, r.measured,
                            r.runtime_s, r.budget_s,
                            r.warnings + ("runtime budget exceeded",))
            for r in results
        ]
    return SuiteReport(params=params, seed=seed, results=results)


def ab_initio_check(sol: ModelSolution, seed: int, n_starts: int = 400) -> CriterionResult:
    """Secondary path: recover spectrum points from the grid determinants.

    Informational: reports how many of the p^N oracle eigenvalues the
    multi-start search recovered and whether any spurious points appeared.
    """
    t0 = time.perf_counter()
    params = sol.params
    found = ab_initio_spectrum(params, sol.avg, sol.coeffs, seed=seed, n_starts=n_starts)
    matched = 0
    spurious = 0
    oracle = np.array([pr.t_coeffs for pr in sol.pairs])
    for c in found:
        dists = np.linalg.norm(oracle - c[None, :], axis=1) / max(np.linalg.norm(c), 1e-300)
        if dists.min() < 1e-6:
            matched += 1
        else:
            spurious += 1
    return CriterionResult(
        cid="ab-initio",
        name="ab_initio_spectrum_search",
        passed=spurious == 0,
        tolerance=None,
        measured={
            "found": int(len(found)),
            "matched": matched,
            "spurious": spurious,
            "oracle_count": params.dim,
            "starts": n_starts,
        },
        runtime_s=time.perf_counter() - t0,
        budget_s=None,
        warnings=() if matched == params.dim else
        (f"search recovered {matched}/{params.dim} spectrum points",),
    )
