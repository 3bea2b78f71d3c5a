import tracemalloc

import numpy as np
import pytest

from specmm import InstanceSet, saddle


def random_symmetric(rng, n, scale=1.0):
    """Symmetric part (G + G^T)/2 of a matrix G with entries drawn uniform
    on [-scale, scale]."""
    g = rng.uniform(-scale, scale, (n, n))
    return (g + g.T) / 2.0


def random_instance(rng, n, m, scale=1.0):
    """m matrices drawn as random_symmetric draws them, one after another."""
    return InstanceSet(rng.uniform(-scale, scale, (m, n, n)))


def random_orthogonal(rng, n):
    """Haar-ish orthogonal matrix, independent of the package eigensolver."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def peak_bytes(fn):
    """The tracemalloc peak, in bytes, of one call of fn(), after one untraced call.

    The untraced call warms the process: the small blocks that numpy and Python keep
    for reuse are allocated once before the peak is read, so it measures fn() itself
    rather than what the process did before."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


@pytest.fixture(autouse=True)
def forget_the_last_exact_solve():
    """Empty the exact simplex's one-entry memo before each test, so that no test is
    served a solve that an earlier one made, and each fault injected into ``_pivot``
    reaches a simplex."""
    saddle._simplex.cache_clear()
