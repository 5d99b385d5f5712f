"""Laurent-polynomial fitting and spectral-parameter sampling."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

__all__ = [
    "sample_annulus",
    "fit",
    "evaluate",
    "transfer_powers",
    "monodromy_powers",
]


def sample_annulus(
    rng: np.random.Generator,
    count: int,
    r_min: float = 0.5,
    r_max: float = 2.0,
    avoid: np.ndarray | None = None,
    min_rel_dist: float = 1e-3,
    max_tries: int = 1000,
) -> np.ndarray:
    """Draw ``count`` spectral parameters from an annulus around the origin.

    Radii are uniform in ``[r_min, r_max]``, phases uniform.  Points closer
    than ``min_rel_dist`` (relative to the larger magnitude) to any entry of
    ``avoid`` or to an already accepted sample are rejected and redrawn, so
    samples stay clear of the origin, of grid points and of each other.
    """
    avoid_list = [] if avoid is None else list(np.asarray(avoid, dtype=complex).ravel())
    out: list[complex] = []
    for _ in range(max_tries):
        lam = rng.uniform(r_min, r_max) * np.exp(2j * np.pi * rng.uniform())
        ok = all(
            abs(lam - z) / max(abs(lam), abs(z)) >= min_rel_dist
            for z in avoid_list + out
        )
        if ok:
            out.append(complex(lam))
            if len(out) == count:
                return np.asarray(out)
    raise ConfigError(f"cannot place {count} separated samples in {r_min:g} <= |l| <= {r_max:g} "
                      f"within {max_tries} draws")


def transfer_powers(N: int) -> np.ndarray:
    """Exponents 2m - (N-1), m = 0..N-1, carried by transfer eigenvalues."""
    return 2 * np.arange(N) - (N - 1)


def monodromy_powers(N: int) -> np.ndarray:
    """Exponents -N..N spanned by monodromy matrix entries."""
    return np.arange(-N, N + 1)


def fit(xs: np.ndarray, values: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Least-squares Laurent fit ``values[i] ~ sum_j c_j xs[i]**powers[j]``.

    ``values`` may carry trailing axes (one coefficient set per column).
    Returns coefficients of shape ``(len(powers),) + values.shape[1:]``.
    """
    xs = np.asarray(xs, dtype=complex)
    values = np.asarray(values, dtype=complex)
    design = xs[:, None] ** np.asarray(powers)[None, :]
    flat = values.reshape(len(xs), -1)
    coeffs, *_ = np.linalg.lstsq(design, flat, rcond=None)
    return coeffs.reshape((len(powers),) + values.shape[1:])


def evaluate(coeffs: np.ndarray, powers: np.ndarray, x: complex | np.ndarray) -> np.ndarray:
    """Evaluate a Laurent polynomial with the given exponents."""
    x = np.asarray(x, dtype=complex)
    mono = x[..., None] ** np.asarray(powers)
    return np.tensordot(mono, np.asarray(coeffs, dtype=complex), axes=(-1, 0))
