from functools import reduce

import numpy as np
import pytest

from sgsov import make_params, solve
from sgsov.acceptance import default_instance


def charge_conjugation(p, n_sites=1):
    """C = C_1 x ... x C_N with C_n |k> = |-k mod p>, built by Kronecker products."""
    flip = np.zeros((p, p))
    flip[(-np.arange(p)) % p, np.arange(p)] = 1.0
    return reduce(np.kron, [flip] * n_sites)


@pytest.fixture(scope="session")
def params7():
    """Default acceptance instance: N=3, p=3, p'=2, couplings from seed 7."""
    return default_instance(seed=7)


@pytest.fixture(scope="session")
def solution7(params7):
    return solve(params7, seed=7)


@pytest.fixture(scope="session")
def params_n1():
    """Smallest odd instance: a single site, dimension 3."""
    return default_instance(seed=11, N=1)


@pytest.fixture(scope="session")
def solution_n1(params_n1):
    return solve(params_n1, seed=11)


@pytest.fixture(scope="session")
def solution_n3p5():
    """N=3, p=5, couplings from seed 7: dimension 125."""
    return solve(default_instance(seed=7, N=3, p=5), seed=7)


@pytest.fixture(scope="session")
def params_complex():
    """N=3, p=3 with complex couplings; one grid representative needs negating."""
    rng = np.random.default_rng(1)
    kappa = rng.uniform(0.5, 2, 3) * np.exp(1j * rng.uniform(-0.6, 0.6, 3))
    xi = rng.uniform(0.5, 2, 3) * np.exp(1j * rng.uniform(-0.6, 0.6, 3))
    return make_params(3, 3, 2, kappa, xi)


@pytest.fixture(scope="session")
def solution_complex(params_complex):
    return solve(params_complex, seed=1)


@pytest.fixture()
def rng():
    return np.random.default_rng(2024)
