"""The NumPy kernels against their direct formulas, and the kernel sum's
memory bound."""
import tracemalloc

import numpy as np
import pytest

from berezin import _kernels
from berezin.core import PowerSeries
from berezin.quadrature import _polar_nodes_cached, berezin_numeric, polar_nodes
from berezin.symbols import Atom, Symbol


@pytest.fixture
def data(rng):
    nodes = 0.9 * rng.uniform(0.01, 1, 4096) * np.exp(2j * np.pi * rng.uniform(size=4096))
    zs = 0.85 * rng.uniform(0, 1, 17) * np.exp(2j * np.pi * rng.uniform(size=17))
    return nodes, zs


def test_kernel_sum_matches_direct_formula(rng):
    # more nodes and points than one tile holds, so every block loop runs
    n, m = 3 * _kernels._NODE_BLOCK + 5, _kernels._POINT_BLOCK + 7
    nodes = 0.999 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    zs = 0.9 * np.sqrt(rng.uniform(size=m)) * np.exp(2j * np.pi * rng.uniform(size=m))
    values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    d = 1.0 - nodes[None, :] * np.conj(zs)[:, None]
    kernel = (1.0 - np.abs(zs) ** 2)[:, None] ** 2 / (d.real ** 2 + d.imag ** 2) ** 2
    # relative to the sum of absolute terms, the scale summation errors have
    error = np.abs(_kernels.kernel_sum(nodes, values, zs) - kernel @ values)
    assert np.all(error <= 1e-13 * (kernel @ np.abs(values)))


@pytest.mark.parametrize("n, pmax, qmax", [
    (2 * _kernels._NODE_BLOCK + 123, 13, 13),  # not a multiple of the block
    (_kernels._NODE_BLOCK // 3, 13, 13),        # less than one block
    (_kernels._NODE_BLOCK + 7, 9, 4),           # pmax > qmax
    (_kernels._NODE_BLOCK + 7, 3, 19),          # pmax < qmax
])
def test_monomial_moments_match_direct_formula(rng, n, pmax, qmax):
    nodes = 0.999 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    P = np.vander(nodes, pmax + 1, increasing=True)
    Q = np.vander(np.conj(nodes), qmax + 1, increasing=True)
    got = _kernels.monomial_moments(nodes, values, pmax, qmax)
    assert got.shape == (pmax + 1, qmax + 1)
    # relative to the sum of absolute terms, sum |v| |z|^(p+q)
    scale = (np.abs(P).T * np.abs(values)) @ np.abs(Q)
    assert np.all(np.abs(got - (P.T * values) @ Q) <= 1e-13 * scale)
    # blocks are added in a fixed order
    assert _kernels.monomial_moments(nodes, values, pmax, qmax).tobytes() == got.tobytes()


def test_monomial_moments_of_no_nodes_are_zero():
    got = _kernels.monomial_moments(np.zeros(0, complex), np.zeros(0, complex), 4, 2)
    assert got.shape == (5, 3) and not np.any(got)


def test_numeric_transform_memory_is_bounded():
    # the full 3840 x 20,480 real kernel matrix of this atom's polar set
    # would take 600 MiB, 2.3 times the bound
    center = 0.72 * np.exp(0.4j)
    symbol = Symbol(atoms=(Atom("log", center, 1.0),))
    # ten radii up to 0.9, 384 angles
    zs = (0.09 * np.arange(1, 11)[:, None] * np.exp(2j * np.pi * np.arange(384) / 384)).ravel()
    _polar_nodes_cached.cache_clear()
    tracemalloc.start()
    try:
        berezin_numeric(symbol, zs, check=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(polar_nodes(center)[0]) == 20_480
    assert peak < 256 * 2**20


def test_numeric_transform_memory_at_the_largest_reach():
    # 16 points on |z| = 0.99 take rule 640 x 2560, and atoms at three
    # centers up to 0.9 take their fine and coarse polar sets of it, checked:
    # the peak was 181 MiB
    atoms = tuple(Atom(kind, modulus * np.exp(0.7j), 1.0)
                  for kind, modulus in (("log", 0.3), ("pole", 0.72), ("conjpole", 0.9)))
    zs = 0.99 * np.exp(1j * (2.0 * np.pi * np.arange(16) / 16 + 0.1))
    _polar_nodes_cached.cache_clear()
    tracemalloc.start()
    try:
        berezin_numeric(Symbol(atoms=atoms), zs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        _polar_nodes_cached.cache_clear()
    assert peak < 256 * 2**20


class TestFallbackContracts:
    """Contracts of the NumPy kernels and of batched series evaluation."""

    def test_kernel_positive_and_normalized_at_origin(self, data, rng):
        nodes, zs = data
        values = rng.uniform(size=len(nodes))
        # the kernel is 1 at z = 0 for every node, and positive everywhere
        at_origin = _kernels.kernel_sum(nodes, values, [0.0j])
        np.testing.assert_allclose(at_origin, values.sum(), rtol=1e-13)
        sums = _kernels.kernel_sum(nodes, values, zs)
        assert np.all(sums.real > 0) and np.all(sums.imag == 0)

    def test_poly_eval_horner(self):
        # series evaluation is NumPy's Horner (polyval), batched over points
        zs = np.array([0.5 + 0.5j, -0.25j])
        want = 1.0 + 2.0 * zs + 3.0 * zs ** 2
        np.testing.assert_allclose(PowerSeries([1.0, 2.0, 3.0]).eval(zs), want, rtol=1e-15)
