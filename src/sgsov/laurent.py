"""Laurent-polynomial fitting and spectral-parameter sampling."""

from __future__ import annotations

import math

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
    samples stay clear of the origin, of grid points and of each other;
    each sample gets ``max_tries`` draws.  A ``count`` above
    :func:`_packing_bound` is rejected before any draw.
    """
    bound = _packing_bound(r_min, r_max, min_rel_dist)
    if count > bound:
        raise ConfigError(f"cannot place {count} separated samples in {r_min:g} <= |l| "
                          f"<= {r_max:g}: at most {math.floor(bound)} fit")
    avoid = np.asarray([] if avoid is None else avoid, dtype=complex).ravel()
    pts = np.concatenate([avoid, np.empty(count, dtype=complex)])
    re, im = pts.real.copy(), pts.imag.copy()
    mag = np.hypot(re, im)  # abs() of a complex scalar is the hypot of its parts
    for n in range(len(avoid), len(pts)):
        for _ in range(max_tries):
            lam = rng.uniform(r_min, r_max) * np.exp(2j * np.pi * rng.uniform())
            dist = np.hypot(lam.real - re[:n], lam.imag - im[:n])
            if np.all(dist / np.maximum(abs(lam), mag[:n]) >= min_rel_dist):
                break
        else:
            raise ConfigError(f"cannot place {count} separated samples in {r_min:g} <= |l| "
                              f"<= {r_max:g} within {max_tries} draws per sample")
        pts[n], re[n], im[n], mag[n] = lam, lam.real, lam.imag, abs(lam)
    return pts[len(avoid):]


def _packing_bound(r_min: float, r_max: float, min_rel_dist: float) -> float:
    """Most samples that fit pairwise sep = ``min_rel_dist * r_min`` apart.

    Disks of radius sep/2 around them are disjoint inside the annulus widened
    by sep/2; in a ring of width w < sep, neighbours are also an angle of at
    least 2 arcsin(sqrt(sep^2 - w^2) / (2 r_max)) apart.
    """
    sep, width = min_rel_dist * r_min, r_max - r_min
    if not sep > 0:
        return math.inf
    area = ((r_max + sep / 2) ** 2 - max(r_min - sep / 2, 0.0) ** 2) / (sep / 2) ** 2
    if width >= sep:
        return area
    return min(area, math.pi / math.asin(min(math.sqrt(sep**2 - width**2) / (2 * r_max), 1.0)))


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
