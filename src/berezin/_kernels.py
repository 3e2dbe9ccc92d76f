"""NumPy kernels: the Berezin kernel sum and monomial moments.

The kernel sum never materialises the full ``len(zs) x len(nodes)``
kernel matrix. The kernel's denominator has rank-3 structure,

    ``|1 - zeta conj(z)|^2 = [1, -2x, -2y, |z|^2] . [1, xi, eta, |zeta|^2]``

for ``z = x + iy`` and ``zeta = xi + i eta``, so one small GEMM forms it
on a tile of points and nodes from the points' rows (:func:`point_table`,
built once per call) and the nodes' columns (formed once per slice of at
most ``_NODE_BLOCK`` nodes). Tiles are visited in a fixed order, which
keeps results deterministic, and hold at most
``_POINT_BLOCK * _NODE_BLOCK`` doubles (512 KiB, inside a 2 MiB per-core
L2 cache) whatever the input sizes: an ``n``-node slice takes as many
point rows as that budget holds, at least ``_POINT_BLOCK``, so a slice
that a stride has thinned takes more points per GEMM, not more GEMMs. One
buffer per thread holds every tile.
The monomial moments walk the nodes in ``_MOMENT_BLOCK`` blocks, so their
working memory is two ``(degree + 1) x _MOMENT_BLOCK`` complex power
tables, also whatever the node count, kept per thread too.

Both are running contractions (:class:`KernelSum`,
:class:`MonomialMoments`): nodes come block by block, as the quadrature
walks a node set, and each block is contracted in slices of at most a
tile before ``add`` returns, so nothing of it is kept. A different cut of
the same nodes changes the result only by rounding; the walk's fixed order
keeps it deterministic.
"""
import threading

import numpy as np

#: Nodes per tile. A tile of 4096 nodes by ``_POINT_BLOCK`` (16) points
#: takes 512 KiB. The node count was chosen when tiles had 32 point rows: a
#: 2-CPU Xeon (2 MiB L2 per core) ran ``kernel_sum`` of a 97k-node set at
#: 320 points (median of 9) in 0.065 s with 4096 x 32 tiles (1 MiB), 0.072
#: s with 1024 x 32, 0.091 s with 16384 x 32 and 0.092 s with 4096 x 256
#: (8 MiB): the in-place passes over a tile stay in cache.
_NODE_BLOCK = 1 << 12

#: Evaluation points per tile of ``_NODE_BLOCK`` nodes; ``_POINT_BLOCK *
#: _NODE_BLOCK`` doubles is the tile's element budget, and a slice of ``n``
#: nodes takes ``budget // n`` point rows (:meth:`KernelSum.add`). A tile's
#: GEMM then has m n k = 16 x 4096 x 4 = 262,144 at most, the largest
#: product OpenBLAS runs on one thread; at 32 rows of 4096 nodes it splits
#: each GEMM over two threads, whose hand-off costs more than the small
#: GEMM saves. A numeric_grid op (seed 2, 18 ops) made 353 tile GEMMs
#: with 16-row tiles, each over the 1/t of a block that stride t leaves, and
#: one contraction per joint stride pattern; with budget tiles and one
#: contraction per stride (``quadrature._point_runs``) it makes 117 for the
#: same pairs. Measured when symbols still built a plain set (no
#: symbol has since the harmonic part is added exactly): on the same Xeon,
#: ``kernel_sum`` over ten polar sets and the plain set (208,256 nodes) at
#: the 320 CLI points took 130 ms with 16 rows against 141 ms with 32
#: (median of six alternating runs, each the best of 9; 16 rows faster in 5
#: of 6); the results are equal. It is also the smallest run of points
#: that the numeric transform contracts against one stride of a panel
#: group (``quadrature._point_runs``): on node forms with 1, 2 and 3
#: centers at 1, 5 and 8 points, one group per stride pattern took 11.4 ms
#: for the three calls against 8.3 ms with every group of fewer than 16
#: points joined to the next (median of 8 alternating runs).
_POINT_BLOCK = 16

#: Nodes per block of the monomial moments. At kmax 12 (14 table rows) the
#: two power tables of 2048 nodes take 448 KiB each, which the allocator
#: serves again from its heap on the next call; at 4096 nodes (896 KiB
#: each) it maps them afresh and faults in 416 pages per call. On the same
#: Xeon a 9,216-node set took 0.64 ms against 1.22 ms (median of 300), and
#: 1024 nodes took 0.76 ms. At kmax 18 (20 rows, 640 KiB) the tables still
#: fault, 290 pages per call, and take 1.67 ms against 2.18 ms. These were
#: measured with tables allocated per call; they are now kept per thread
#: (``_TILES``).
_MOMENT_BLOCK = 1 << 11

#: The tile buffer, the tile's node columns and the two moment power tables
#: of each thread, kept between calls: a fresh one per call is faulted in
#: anew once the allocator has returned the top of its heap, as it does when
#: no node set outlives a call (transforms of one to three atoms on the 320
#: CLI points faulted in 1,088 pages per call with fresh buffers; with kept
#: ones, and each block sliced into tiles in place, 0.5). The power tables
#: take 896 KiB at kmax 12 and 1.25 MiB at kmax 18; the moments of three
#: atoms on a 6,336-node moment set took 1.47 ms with fresh tables and 0.88
#: ms with kept ones (best of 5 on a 2-vCPU Xeon).
_TILES = threading.local()


def point_table(zs):
    """The rows ``[1, -2x, -2y, |z|^2]`` of the points ``zs`` (complex (M,)),
    a real ``(M, 4)`` array; :class:`KernelSum` takes it, or any slice of
    it, so a caller with several runs of points builds it once."""
    zs = np.asarray(zs, dtype=np.complex128).ravel()
    x, y = zs.real, zs.imag
    return np.stack([np.ones_like(x), -2.0 * x, -2.0 * y, x * x + y * y], axis=1)


class KernelSum:
    """Running :func:`kernel_sum` at the points whose rows of
    :func:`point_table` are ``points``."""

    def __init__(self, points):
        self._points = points
        self._out = np.zeros((len(points), 2))
        self._buffer = getattr(_TILES, "buffer", None)
        if self._buffer is None:
            self._buffer = _TILES.buffer = np.empty(_POINT_BLOCK * _NODE_BLOCK)
            # the node columns [1, xi, eta, |zeta|^2] of a tile, and a square
            _TILES.cols = np.empty(5 * _NODE_BLOCK)
        self._cols = _TILES.cols

    def add(self, nodes, values):
        """Contract a block: nodes and values, complex arrays of one shape
        (strided views too), read in row-major order, in slices of at most
        ``_NODE_BLOCK`` nodes, each against tiles of as many points as the
        buffer holds at its length."""
        nodes, values = np.ravel(nodes), np.ravel(values)
        for first in range(0, len(nodes), _NODE_BLOCK):
            part = nodes[first:first + _NODE_BLOCK]
            n = len(part)
            node_cols, square = self._cols[:4 * n].reshape(4, n), self._cols[4 * n:5 * n]
            node_cols[0] = 1.0
            np.copyto(node_cols[1], part.real)
            np.copyto(node_cols[2], part.imag)
            np.multiply(node_cols[1], node_cols[1], out=node_cols[3])
            np.multiply(node_cols[2], node_cols[2], out=square)
            node_cols[3] += square
            # [Re v, Im v] as the two columns of one real (N, 2) array, no copy
            v = values[first:first + n].view(np.float64).reshape(-1, 2)
            # at least _POINT_BLOCK rows, since n <= _NODE_BLOCK
            step = len(self._buffer) // n
            for p in range(0, len(self._points), step):
                rows = self._points[p:p + step]
                tile = self._buffer[:len(rows) * n].reshape(len(rows), n)
                np.matmul(rows, node_cols, out=tile)  # |1 - zeta conj(z)|^2
                np.multiply(tile, tile, out=tile)
                np.reciprocal(tile, out=tile)
                self._out[p:p + step] += tile @ v

    def result(self):
        """The kernel sum of every node added, complex128 (M,)."""
        return self._out.view(np.complex128).ravel() * (1.0 - self._points[:, 3]) ** 2


def kernel_sum(nodes, values, zs):
    """``sum_n values[n] (1-|z|^2)^2 / |1 - nodes[n] conj(z)|^4`` at each z.

    nodes, values: complex arrays (N,); zs: complex array (M,). Returns
    complex128 (M,).
    """
    total = KernelSum(point_table(zs))
    total.add(np.asarray(nodes, dtype=np.complex128), np.asarray(values, dtype=np.complex128))
    return total.result()


class MonomialMoments:
    """Running :func:`monomial_moments` up to ``(pmax, qmax)``; its result
    has a leading axis of length one."""

    def __init__(self, pmax, qmax):
        self._G = np.zeros((pmax + 1, qmax + 1), dtype=np.complex128)
        rows = max(pmax, qmax) + 1
        tables = getattr(_TILES, "powers", None)
        if tables is None or len(tables[0]) < rows:
            tables = _TILES.powers = np.empty((2, rows, _MOMENT_BLOCK), dtype=np.complex128)
        self._tables = tables

    def add(self, nodes, values):
        """Contract a block, as :meth:`KernelSum.add` does, in slices of at
        most ``_MOMENT_BLOCK`` nodes."""
        nodes, values = np.ravel(nodes), np.ravel(values)
        for first in range(0, len(nodes), _MOMENT_BLOCK):
            part = nodes[first:first + _MOMENT_BLOCK]
            # row j of ``w`` holds values * nodes**j and row j of ``c``
            # conj(nodes)**j, built row by row (np.vander's column-wise
            # accumulate takes twice as long) in the thread's two power tables
            w = self._tables[0, :len(self._G), :len(part)]
            c = self._tables[1, :self._G.shape[1], :len(part)]
            w[0] = values[first:first + _MOMENT_BLOCK]
            for j in range(1, len(w)):
                np.multiply(w[j - 1], part, out=w[j])
            c[0] = 1.0
            if len(c) > 1:
                np.conj(part, out=c[1])
            for j in range(2, len(c)):
                np.multiply(c[j - 1], c[1], out=c[j])
            self._G += w @ c.T

    def result(self):
        """The moments of every node added, complex128 ``(1, pmax+1, qmax+1)``."""
        return self._G[None]


def monomial_moments(nodes, values, pmax, qmax):
    """``G[p, q] = sum_n values[n] nodes[n]^p conj(nodes[n])^q``.

    nodes, values: complex arrays (N,). Returns complex128
    ``(pmax+1, qmax+1)``; zeros when N is 0. Blocks are added in a fixed
    order, so the result is deterministic.
    """
    total = MonomialMoments(pmax, qmax)
    total.add(np.asarray(nodes, dtype=np.complex128), np.asarray(values, dtype=np.complex128))
    return total.result()[0]
