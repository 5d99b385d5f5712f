"""Separate-variable eigenstates and determinant form factors.

One pipeline call builds everything; this script then shows the decisive
cross-checks: all eigenstates reconstructed from Q-functions match the
brute-force eigenvectors after calibrating a single reference state, and
the N x N determinants reproduce dense matrix elements of the identity
and of the site-1 shift generator with one overall constant.
"""

import numpy as np

from sgsov import make_params, solve, t_eval, transfer
from sgsov.acceptance import form_factor_verdict

rng = np.random.default_rng(4)
params = make_params(N=3, p=3, p_prime=2,
                     kappa=rng.uniform(0.5, 2, 3), xi=rng.uniform(0.5, 2, 3))
sol = solve(params, seed=4)

print(f"pipeline solved: dim {sol.dim}, calibration reference state "
      f"#{sol.reference_index}")
print(f"frame condition number: {sol.frame.diagnostics['condition_number']:.1f}")
print(f"calibration residual: {sol.frame.diagnostics['calibration_residual']:.2e}")

print("\noverlaps of built states with brute-force eigenvectors:")
print(f"  right, min over all {sol.dim}: {sol.right_overlaps.min():.14f}")
print(f"  dual,  min over all {sol.dim}: {sol.left_overlaps.min():.14f}")
print("(only one state was calibrated; the other "
      f"{sol.dim - 1} follow with no freedom left)")

lam = 1.05 - 0.35j
tmat = transfer(params, lam)
worst = max(
    np.linalg.norm(tmat @ sol.built_right[:, j] - t_eval(t, lam) * sol.built_right[:, j])
    / np.linalg.norm(sol.built_right[:, j])
    for j, t in enumerate(sol.oracle.t_coeffs)
)
print(f"worst transfer residual of built states at lambda = {lam}: {worst:.2e}")

verdict = form_factor_verdict(sol)  # criterion 8's numbers, as the suite computes them
measured = verdict.measured
print("\nidentity operator (scalar products):")
print(f"  off-diagonal determinants (scaled): max {measured['identity_offdiag_max']:.2e}"
      "  -> biorthogonality")
print(f"  diagonal det/direct constant: {verdict.constant:.12f}, "
      f"spread {measured['identity_diag_spread']:.2e}")

u1_ratio = verdict.tables["u1"][2]
print(f"\nsite-1 shift generator over all {sol.dim}x{sol.dim} pairs:")
print(f"  det/direct mean: {u1_ratio.mean():.12f}")
print(f"  spread around the identity constant: {measured['u1_ratio_spread']:.2e}")
print("every matrix element of the local operator is reproduced by an "
      "N x N determinant of grid moments of the two Q-functions")
