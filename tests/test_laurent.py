import numpy as np
import pytest

from sgsov import laurent


def _scalar_samples(rng, count, r_min, r_max, avoid, min_rel_dist):
    """One draw at a time, separations from Python's abs()."""
    out = []
    while len(out) < count:
        lam = rng.uniform(r_min, r_max) * np.exp(2j * np.pi * rng.uniform())
        if all(abs(lam - z) / max(abs(lam), abs(z)) >= min_rel_dist for z in [*avoid, *out]):
            out.append(complex(lam))
    return np.array(out)


@pytest.mark.parametrize("seed", range(20))
def test_sample_annulus_matches_scalar_separation_test(seed):
    # crowded enough that more than half of the draws are rejected
    rng = np.random.default_rng(seed)
    avoid = rng.uniform(1.0, 1.01, 5) * np.exp(2j * np.pi * rng.uniform(size=5))
    args = (60, 1.0, 1.01)
    got = laurent.sample_annulus(np.random.default_rng(seed), *args, avoid=avoid,
                                 min_rel_dist=0.05)
    want = _scalar_samples(np.random.default_rng(seed), *args, avoid, 0.05)
    assert got.tobytes() == want.tobytes()

