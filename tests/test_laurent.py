import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgsov import laurent
from sgsov.errors import ConfigError


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


def _signalling_empty(empty):
    """``np.empty`` whose float64 and complex128 buffers hold signalling NaNs."""
    def filled(shape, dtype=float, *args, **kwargs):
        out = empty(shape, dtype, *args, **kwargs)
        if out.dtype in (np.float64, np.complex128):
            out.reshape(-1).view(np.uint64)[:] = 0x7FF4000000000000
        return out
    return filled


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sample_annulus_computes_nothing_from_unfilled_memory(monkeypatch):
    # arithmetic on a signalling NaN raises "invalid value encountered"
    monkeypatch.setattr(np, "empty", _signalling_empty(np.empty))
    assert np.empty(1, dtype=complex).view(np.uint64)[0] == 0x7FF4000000000000
    avoid = np.array([1.5, -0.7j, 0.9 + 0.9j])
    got = laurent.sample_annulus(np.random.default_rng(3), 4, avoid=avoid, min_rel_dist=1e-2)
    assert got.shape == (4,) and np.all((np.abs(got) >= 0.5) & (np.abs(got) <= 2.0))


def _sample_without_bound(rng, count, r_min, r_max, min_rel_dist, max_tries):
    """The draw loop alone: ``max_tries`` draws per sample, ``None`` when one runs out."""
    out = []
    for _ in range(count):
        for _ in range(max_tries):
            lam = rng.uniform(r_min, r_max) * np.exp(2j * np.pi * rng.uniform())
            if all(abs(lam - z) / max(abs(lam), abs(z)) >= min_rel_dist for z in out):
                out.append(complex(lam))
                break
        else:
            return None
    return np.array(out)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.5, 1.5), st.floats(0.0, 0.3),
       st.floats(0.1, 0.6), st.floats(0.2, 1.6))
def test_packing_bound_rejects_only_unplaceable_requests(seed, r_min, width, min_rel_dist,
                                                         load):
    # narrow annuli and wide separations, with requests around the bound;
    # a request above the bound is refused before any draw, and every request
    # the draw loop places is still placed, with the same samples
    r_max = r_min + width
    bound = laurent._packing_bound(r_min, r_max, min_rel_dist)
    count = max(1, round(load * min(bound, 60)))
    want = _sample_without_bound(np.random.default_rng(seed), count, r_min, r_max,
                                 min_rel_dist, 50)
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    try:
        got = laurent.sample_annulus(rng, count, r_min, r_max, min_rel_dist=min_rel_dist,
                                     max_tries=50)
    except ConfigError as exc:
        assert want is None
        assert f"cannot place {count} separated samples" in str(exc)
        if count > bound:
            assert rng.bit_generator.state == state
        return
    assert count <= bound
    assert want is not None and got.tobytes() == want.tobytes()
    gaps = np.abs(got[:, None] - got[None, :]) + np.diag(np.full(count, np.inf))
    assert gaps.min() >= min_rel_dist * r_min


def test_packing_bound_of_narrow_ring():
    # w = 1e-4 < sep = 1e-3: the ring bound, 2 pi / (2 arcsin(sqrt(sep^2 - w^2) / 2.0002))
    assert laurent._packing_bound(1.0, 1.0001, 1e-3) == pytest.approx(6315.47, abs=0.01)
    assert laurent._packing_bound(0.5, 2.0, 0.0) == np.inf
