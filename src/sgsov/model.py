"""Model parameters and the cyclic Weyl-algebra representation.

Conventions used throughout the package:

* Each lattice site carries a p-dimensional space spanned by the clock
  eigenbasis ``|0>, ..., |p-1>``.  The clock operator is diagonal,
  ``v|k> = q^k |k>``, and the shift operator acts cyclically,
  ``u|k> = |k-1>`` (indices mod p), so that ``u v = q v u``.
* ``q = exp(-i pi p'/p)`` is a primitive p-th root of unity (p odd, p'
  even, coprime).  Its square root is fixed globally as
  ``q^(1/2) = exp(-i pi p'/(2p))``; every half-integer power in the
  package uses this branch.
* The full quantum space is the N-fold tensor product with site 1 on the
  slowest (leftmost) Kronecker factor, i.e. basis states are ordered
  lexicographically by ``(k_1, ..., k_N)``.

Operators are plain dense ``numpy`` arrays: local operators are p x p,
global operators are p^N x p^N, complex double precision throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError

__all__ = [
    "DEFAULT_TOLERANCES",
    "ModelParams",
    "make_params",
    "clock_matrix",
    "shift_matrix",
    "embed",
]

#: Default numerical thresholds, overridable per instance (``tolerances``
#: argument of :func:`make_params`) or from the CLI (``--tol.<name>``).
DEFAULT_TOLERANCES: dict[str, float] = {
    # Yang-Baxter structure
    "rll": 1e-10,                 # RLL relation, relative residual
    "commutator": 1e-10,          # [T(l),T(m)] and [B(l),B(m)], relative
    # central averages and separation grids
    "centrality": 1e-9,           # commutators of averaged B with A,D,T
    "average_scalar": 1e-8,       # operator average vs closed-form scalar
    "closed_form": 1e-10,         # product of Baxter coefficients vs closed form
    "grid_separation": 1e-6,      # genericity guard on the +-grid point pool
    # separate-variable basis
    "simdiag": 1e-9,              # simultaneous-eigenvector residual
    "eig_collision": 1e-8,        # relative spectral gap in random combinations
    "label": 1e-8,                # annihilation residual defining grid labels
    "measure": 1e-8,              # pairing vs separate-variable measure
    # transfer spectrum and Q-functions
    "fit": 1e-9,                  # held-out T(l) and t(l) against the Laurent coefficients
    "det_zero": 1e-8,             # grid determinant vanishing (Hadamard scaled)
    "nullspace_gap": 1e-6,        # lower bound on grid-system gaps sigma_{p-1}/sigma_1
    "q_fit": 1e-8,                # joint grid least-squares residual for Q
    "tq": 1e-8,                   # functional Baxter-equation residual
    # eigenstates and form factors
    "eigenstate": 1e-8,           # transfer-matrix residual of built states
    "overlap": 1e-8,              # 1 - |overlap| against oracle vectors
    "ff_offdiag": 1e-8,           # off-diagonal scalar-product determinants
    "ff_ratio": 1e-6,             # spread of determinant/direct ratios
    # soft checks
    "reality": 1e-6,              # imaginary residues of t and Q coefficients
}


@dataclass(frozen=True)
class ModelParams:
    """Validated parameters of a lattice sine-Gordon instance.

    Instances are immutable; all derived operators are functions of the
    parameters, so concurrent read access is safe.
    """

    N: int                        # number of sites, odd
    p: int                        # local dimension, odd >= 3
    p_prime: int                  # even, coprime to p
    kappa: np.ndarray             # N nonzero site couplings
    xi: np.ndarray                # N nonzero site inhomogeneities
    q: complex                    # exp(-i pi p'/p), primitive p-th root of unity
    q_half: complex               # exp(-i pi p'/(2p)), the global branch of q^(1/2)
    beta_sq: float                # p'/p
    tolerances: Mapping[str, float] = field(default_factory=dict)

    @property
    def dim(self) -> int:
        """Dimension p^N of the full quantum space."""
        return self.p ** self.N

    def tol(self, name: str) -> float:
        try:
            return self.tolerances[name]
        except KeyError:
            raise KeyError(f"unknown tolerance {name!r}") from None

    def with_tolerances(self, **overrides: float) -> "ModelParams":
        merged = dict(self.tolerances)
        merged.update(overrides)
        return replace(self, tolerances=merged)


def make_params(
    N: int,
    p: int,
    p_prime: int,
    kappa: Sequence[complex],
    xi: Sequence[complex],
    tolerances: Mapping[str, float] | None = None,
) -> ModelParams:
    """Validate raw inputs and assemble a :class:`ModelParams`.

    Parameters
    ----------
    N : odd positive int
        Number of lattice sites.
    p : odd int >= 3
        Local clock dimension; q is a primitive p-th root of unity.
    p_prime : even positive int
        Numerator partner of p; must be coprime to p.
    kappa, xi : sequences of N nonzero complex numbers
        Site couplings and inhomogeneities.
    tolerances : optional mapping
        Overrides merged on top of :data:`DEFAULT_TOLERANCES`.  Unknown
        names are rejected.

    Raises
    ------
    ConfigError
        On any violated integer constraint, arity mismatch or zero or
        non-finite coupling.
    """
    if not isinstance(N, (int, np.integer)) or N < 1 or N % 2 == 0:
        raise ConfigError(f"N must be an odd positive integer, got {N!r}")
    if not isinstance(p, (int, np.integer)) or p < 3 or p % 2 == 0:
        raise ConfigError(f"p must be an odd integer >= 3, got {p!r}")
    if not isinstance(p_prime, (int, np.integer)) or p_prime < 1 or p_prime % 2 == 1:
        raise ConfigError(f"p_prime must be an even positive integer, got {p_prime!r}")
    if math.gcd(int(p), int(p_prime)) != 1:
        raise ConfigError(f"p={p} and p_prime={p_prime} must be coprime")

    kappa = np.asarray(kappa, dtype=complex)
    xi = np.asarray(xi, dtype=complex)
    if kappa.shape != (N,) or xi.shape != (N,):
        raise ConfigError(
            f"kappa and xi must each hold N={N} entries, "
            f"got shapes {kappa.shape} and {xi.shape}"
        )
    if np.any(kappa == 0) or np.any(xi == 0):
        raise ConfigError("all couplings kappa_n and xi_n must be nonzero")
    if not (np.isfinite(kappa).all() and np.isfinite(xi).all()):
        raise ConfigError("all couplings kappa_n and xi_n must be finite")

    tols = dict(DEFAULT_TOLERANCES)
    if tolerances:
        unknown = set(tolerances) - set(tols)
        if unknown:
            raise ConfigError(f"unknown tolerance names: {sorted(unknown)}")
        tols.update({k: float(v) for k, v in tolerances.items()})

    beta_sq = p_prime / p
    q = complex(np.exp(-1j * np.pi * beta_sq))
    q_half = complex(np.exp(-1j * np.pi * beta_sq / 2.0))
    return ModelParams(
        N=int(N),
        p=int(p),
        p_prime=int(p_prime),
        kappa=kappa,
        xi=xi,
        q=q,
        q_half=q_half,
        beta_sq=beta_sq,
        tolerances=tols,
    )


def clock_matrix(params: ModelParams) -> np.ndarray:
    """Diagonal clock generator v with v|k> = q^k |k>."""
    return np.diag(params.q ** np.arange(params.p)).astype(complex)


def shift_matrix(params: ModelParams) -> np.ndarray:
    """Cyclic shift generator u with u|k> = |k-1 mod p>."""
    p = params.p
    u = np.zeros((p, p), dtype=complex)
    u[(np.arange(p) - 1) % p, np.arange(p)] = 1.0
    return u


def embed(op: np.ndarray, site: int, params: ModelParams) -> np.ndarray:
    """Embed a local p x p operator at ``site`` (1-based) into the full space.

    Identity acts on every other factor; embeddings at distinct sites
    commute, and ``embed(A @ B) == embed(A) @ embed(B)`` sitewise.
    """
    p, N = params.p, params.N
    op = np.asarray(op, dtype=complex)
    if op.shape != (p, p):
        raise ValueError(f"local operator must be {p}x{p}, got {op.shape}")
    if not 1 <= site <= N:
        raise ValueError(f"site must lie in 1..{N}, got {site}")
    left = np.eye(p ** (site - 1), dtype=complex)
    right = np.eye(p ** (N - site), dtype=complex)
    return np.kron(np.kron(left, op), right)
