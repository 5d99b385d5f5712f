"""Separation-of-variables toolkit for the lattice sine-Gordon model at a
root of unity: Weyl-algebra operators, Yang-Baxter structures, central
averages and separation grids, the transfer spectrum with its TQ system,
separate-variable eigenstates, and determinant form factors, each step
cross-checked against dense brute-force diagonalisation."""

import os as _os

# thread cap must land before the numerical stack loads its BLAS
_cap = _os.environ.get("SGSOV_NUM_THREADS")
if _cap:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _cap)
del _os, _cap

from .averages import AverageData, average_operator, averages_closed_form, compute_grids, f_function
from .errors import ConfigError, DegenerateModelError, ToleranceError
from .model import DEFAULT_TOLERANCES, ModelParams, clock_matrix, embed, make_params, shift_matrix
from .observables import (
    build_coeigenstate,
    build_eigenstate,
    form_factor,
    form_factor_det_scale,
    form_factor_matrix,
    u1_operator,
)
from .pipeline import ModelSolution, solve
from .sov_basis import (
    SOVFrame,
    calibrate_scales,
    diagonalize_b_family,
    label_vectors,
)
from .spectrum import (
    BaxterCoeffs,
    OracleSpectrum,
    QFunctions,
    ab_initio_spectrum,
    baxter_coeffs,
    grid_determinants,
    oracle_spectrum,
    q_from_t,
    t_eval,
    tq_residual,
)
from .yang_baxter import (
    LaxMatrix,
    MonodromyMatrix,
    b_operator,
    lax,
    monodromy,
    r_matrix,
    transfer,
    verify_rll,
)

__version__ = "0.1.0"
