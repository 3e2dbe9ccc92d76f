"""NumPy kernels: the Berezin kernel sum and monomial moments.

The kernel sum never materialises the full ``len(zs) x len(nodes)``
kernel matrix. The kernel's denominator has rank-3 structure,

    ``|1 - zeta conj(z)|^2 = [1, -2x, -2y, |z|^2] . [1, xi, eta, |zeta|^2]``

for ``z = x + iy`` and ``zeta = xi + i eta``, so one small GEMM forms it
on a tile of points and nodes. Tiles are visited in a fixed order, which
keeps results deterministic, and hold at most
``_POINT_BLOCK * _NODE_BLOCK`` doubles (512 KiB, inside a 2 MiB per-core
L2 cache) whatever the input sizes; one buffer per thread holds every tile.
The monomial moments walk the nodes in ``_MOMENT_BLOCK`` blocks, so their
working memory is two ``(degree + 1) x _MOMENT_BLOCK`` complex power
tables, also whatever the node count.
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

#: Evaluation points per tile. A tile's GEMM then has m n k = 16 x 4096 x 4
#: = 262,144, the largest product OpenBLAS runs on one thread; at 32 rows
#: it splits each GEMM over two threads, whose hand-off costs more than the
#: small GEMM saves. Measured when symbols still built a plain set (no
#: symbol has since the harmonic part is added exactly): on the same Xeon,
#: ``kernel_sum`` over ten polar sets and the plain set (208,256 nodes) at
#: the 320 CLI points took 130 ms with 16 rows against 141 ms with 32
#: (median of six alternating runs, each the best of 9; 16 rows faster in 5
#: of 6); the results are equal. It is also the smallest group of points
#: that the numeric transform contracts against one stride subset of a
#: polar set (``quadrature._point_groups``): on node forms with 1, 2 and 3
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
#: fault, 290 pages per call, and take 1.67 ms against 2.18 ms.
_MOMENT_BLOCK = 1 << 11

#: The tile buffer of each thread, kept between calls: a fresh one per call
#: is faulted in anew once the allocator has returned the top of its heap,
#: as it does when no node set outlives a call (transforms of one to three
#: atoms on the 320 CLI points faulted in 1,088 pages per call, now 653).
_TILES = threading.local()


def kernel_sum(nodes, values, zs):
    """``sum_n values[n] (1-|z|^2)^2 / |1 - nodes[n] conj(z)|^4`` at each z.

    nodes, values: complex arrays (N,); zs: complex array (M,). Returns
    complex128 (M,).
    """
    nodes = np.asarray(nodes, dtype=np.complex128).ravel()
    zs = np.asarray(zs, dtype=np.complex128).ravel()
    # [Re v, Im v] as the two columns of one real (N, 2) array, no copy
    v = np.ascontiguousarray(values, dtype=np.complex128).ravel().view(np.float64).reshape(-1, 2)
    x, y = zs.real, zs.imag
    r2 = x * x + y * y
    point_rows = np.stack([np.ones_like(x), -2.0 * x, -2.0 * y, r2], axis=1)
    out = np.zeros((len(zs), 2))
    buffer = getattr(_TILES, "buffer", None)
    if buffer is None:
        buffer = _TILES.buffer = np.empty(_POINT_BLOCK * _NODE_BLOCK)
    for start in range(0, len(nodes), _NODE_BLOCK):
        block = nodes[start:start + _NODE_BLOCK]
        xi, eta = block.real, block.imag
        node_cols = np.stack([np.ones_like(xi), xi, eta, xi * xi + eta * eta])
        block_values = v[start:start + _NODE_BLOCK]
        for p in range(0, len(zs), _POINT_BLOCK):
            rows = point_rows[p:p + _POINT_BLOCK]
            tile = buffer[:len(rows) * len(block)].reshape(len(rows), len(block))
            np.matmul(rows, node_cols, out=tile)  # |1 - zeta conj(z)|^2
            np.multiply(tile, tile, out=tile)
            np.reciprocal(tile, out=tile)
            out[p:p + _POINT_BLOCK] += tile @ block_values
    return out.view(np.complex128).ravel() * (1.0 - r2) ** 2


def monomial_moments(nodes, values, pmax, qmax):
    """``G[p, q] = sum_n values[n] nodes[n]^p conj(nodes[n])^q``.

    nodes, values: complex arrays (N,). Returns complex128
    ``(pmax+1, qmax+1)``; zeros when N is 0. Blocks are added in a fixed
    order, so the result is deterministic.
    """
    nodes = np.asarray(nodes, dtype=np.complex128).ravel()
    values = np.asarray(values, dtype=np.complex128).ravel()
    G = np.zeros((pmax + 1, qmax + 1), dtype=np.complex128)
    # row j of ``weighted`` holds values * block**j and row j of ``conj_powers``
    # conj(block)**j, built row by row (np.vander's column-wise accumulate
    # takes twice as long) in two buffers allocated once per call
    size = min(len(nodes), _MOMENT_BLOCK)
    weighted = np.empty((pmax + 1, size), dtype=np.complex128)
    conj_powers = np.empty((qmax + 1, size), dtype=np.complex128)
    for start in range(0, len(nodes), _MOMENT_BLOCK):
        block = nodes[start:start + _MOMENT_BLOCK]
        n = len(block)
        w, c = weighted[:, :n], conj_powers[:, :n]
        w[0] = values[start:start + n]
        for j in range(1, pmax + 1):
            np.multiply(w[j - 1], block, out=w[j])
        c[0] = 1.0
        if qmax:
            np.conj(block, out=c[1])
        for j in range(2, qmax + 1):
            np.multiply(c[j - 1], c[1], out=c[j])
        G += w @ c.T
    return G
