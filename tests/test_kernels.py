"""The NumPy kernels against their direct formulas, and the kernel sum's
memory bound."""
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from berezin import _kernels
from berezin.cli import _sample_points
from berezin.core import PowerSeries
from berezin.quadrature import berezin_numeric, polar_nodes
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


@pytest.mark.parametrize("n", [256, 1024, 3000])
def test_tiles_of_the_element_budget_agree_with_16_point_tiles(rng, n):
    # an n-node slice takes as many point rows per tile as the buffer holds
    # (256, 64 and 21 here), and matches 16-point calls joined within 2 ulps
    # of the sum of absolute terms (measured over 200 seeds: byte-identical
    # at 256 and 1024 nodes, up to 0.42 ulps at 3000); the buffer stays at
    # _POINT_BLOCK * _NODE_BLOCK doubles
    nodes = _disk_sample(rng, n, 0.99)
    values = rng.standard_normal((n, 2)) @ [1, 1j]
    zs, rows = _sample_points(), _kernels._POINT_BLOCK
    got = _kernels.kernel_sum(nodes, values, zs)
    joined = np.concatenate([_kernels.kernel_sum(nodes, values, zs[p:p + rows])
                             for p in range(0, len(zs), rows)])
    scale = _kernels.kernel_sum(nodes, np.abs(values), zs).real
    assert np.all(np.abs(got - joined) <= 2 * np.finfo(float).eps * scale)
    assert _kernels._TILES.buffer.size == _kernels._POINT_BLOCK * _kernels._NODE_BLOCK


def test_kernel_sum_threads_keep_their_own_tiles(rng):
    # every thread writes its tiles into a buffer of its own, kept between
    # calls: concurrent calls give what the same calls give one at a time
    def case(n, m):
        nodes = 0.99 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
        zs = 0.9 * np.sqrt(rng.uniform(size=m)) * np.exp(2j * np.pi * rng.uniform(size=m))
        return nodes, rng.standard_normal(n) + 1j * rng.standard_normal(n), zs

    cases = [case(2 * _kernels._NODE_BLOCK + 11 * k, 20 + 7 * k) for k in range(4)]
    want = [_kernels.kernel_sum(*c) for c in cases]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            for _ in range(10):
                got = list(pool.map(lambda c: _kernels.kernel_sum(*c), cases))
                assert all(np.array_equal(g, w) for g, w in zip(got, want))
    finally:
        sys.setswitchinterval(interval)


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
    tracemalloc.start()
    try:
        berezin_numeric(symbol, zs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(polar_nodes(center)[0]) == 20_480
    assert peak < 256 * 2**20


def test_numeric_transform_memory_at_the_largest_reach():
    # 16 points on |z| = 0.99, and atoms at three centers up to 0.9 take
    # their fine and coarse polar sets for that reach, checked: the peak was
    # 121 MiB. No set is kept after the call: 1.25 MiB are left, the
    # kernel's tile buffer among them, where a cache of the six whole sets
    # would hold 131.6 MiB
    atoms = tuple(Atom(kind, modulus * np.exp(0.7j), 1.0)
                  for kind, modulus in (("log", 0.3), ("pole", 0.72), ("conjpole", 0.9)))
    zs = 0.99 * np.exp(1j * (2.0 * np.pi * np.arange(16) / 16 + 0.1))
    tracemalloc.start()
    try:
        berezin_numeric(Symbol(atoms=atoms), zs)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2**20
    assert current < 4 * 2**20


def test_numeric_transform_memory_is_bounded_by_blocks():
    # the same call as above walks each set by blocks: the peak was 2.7 MiB
    # with the kernels' kept buffers, where evaluating the whole sets took
    # 121.6 MiB, 7.6 times the bound
    atoms = tuple(Atom(kind, modulus * np.exp(0.7j), 1.0)
                  for kind, modulus in (("log", 0.3), ("pole", 0.72), ("conjpole", 0.9)))
    zs = 0.99 * np.exp(1j * (2.0 * np.pi * np.arange(16) / 16 + 0.1))
    tracemalloc.start()
    try:
        berezin_numeric(Symbol(atoms=atoms), zs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def _disk_sample(rng, n, radius):
    return radius * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))


@pytest.mark.parametrize("sizes", [
    (1, _kernels._NODE_BLOCK + 1, 2 * _kernels._NODE_BLOCK + 3, 5),  # longer than a tile
    (_kernels._NODE_BLOCK - 1, 1, 1, _kernels._NODE_BLOCK + 7),      # 1-node blocks
    (7,) * 30,
    (5000, 5000),
])
def test_running_contractions_agree_with_one_call(rng, sizes):
    # nodes added block by block, as strided views of every other node,
    # match one call on the blocks joined within 1e-15 of the sum of
    # absolute terms; the blocks cut the tiles elsewhere, so only rounding
    # differs (measured up to 4.6e-16 for the kernel sum and 4.2e-16 for the
    # moments, over 200 seeds)
    n = sum(sizes)
    nodes, values = _disk_sample(rng, 2 * n, 0.99), rng.standard_normal((2 * n, 2)) @ [1, 1j]
    zs = _disk_sample(rng, 20, 0.9)
    totals = (_kernels.KernelSum(_kernels.point_table(zs)), _kernels.MonomialMoments(13, 9))
    start = 0
    for size in sizes:
        block = slice(2 * start, 2 * (start + size))
        for total in totals:
            total.add(nodes[block].reshape(-1, 2)[:, ::2], values[block].reshape(-1, 2)[:, ::2])
        start += size
    nodes, values = nodes[::2], values[::2]
    scale = _kernels.kernel_sum(nodes, np.abs(values), zs).real
    error = np.abs(totals[0].result() - _kernels.kernel_sum(nodes, values, zs))
    assert np.all(error <= 1e-15 * scale)
    scale = _kernels.monomial_moments(np.abs(nodes), np.abs(values), 13, 9).real
    error = np.abs(totals[1].result()[0] - _kernels.monomial_moments(nodes, values, 13, 9))
    assert np.all(error <= 1e-15 * scale)


def test_running_contractions_keep_nothing_of_the_callers_blocks(rng):
    # two 5,000-node blocks through one buffer that the caller refills and
    # then overwrites: each block is contracted before ``add`` returns, so
    # the result is that of the same blocks as arrays of their own (a tail
    # held as a view put the kernel sum off by 1.8 times its norm)
    nodes, values = _disk_sample(rng, 10_000, 0.99), rng.standard_normal((10_000, 2)) @ [1, 1j]
    zs = _disk_sample(rng, 20, 0.9)
    reused, own = ((_kernels.KernelSum(_kernels.point_table(zs)), _kernels.MonomialMoments(13, 9))
                   for _ in range(2))
    buffer = np.empty((2, 5000), dtype=np.complex128)
    for block in (slice(0, 5000), slice(5000, 10_000)):
        buffer[0], buffer[1] = nodes[block], values[block]
        for total, other in zip(reused, own):
            total.add(*buffer)
            other.add(nodes[block], values[block])
    buffer[:] = 0.5
    for total, other in zip(reused, own):
        assert np.array_equal(total.result(), other.result())


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
