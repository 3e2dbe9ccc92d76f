"""Quadrature over the unit disk with the normalized area measure.

The measure convention throughout is ``dA = dx dy / pi`` so the disk has
measure one. Every node set is a polar rule around one center:
Gauss-Legendre points along each ray and uniform angles (trapezoid,
spectrally accurate for periodic integrands).

The transform fixes every summable harmonic function (mean-value
property), so :func:`berezin_numeric` adds the harmonic part ``K +
conj(L)`` of a :class:`Symbol` at the points and integrates only its
atoms, part by part (:func:`integrate_parts`): the atoms of each center
``a`` together on one polar rule around that center
(:func:`polar_nodes`), ``zeta = a + s rho_max(theta) e^{i theta}`` with
``rho_max`` the distance to the unit circle along the ray. Any other
callable declares at most one singular center and runs on that center's
polar set; one that declares none runs on the center-0 set.
The polar Jacobian cancels the ``1/rho`` of a pole atom (Duffy, SIAM J.
Numer. Anal. 19, 1982) and geometric panels toward ``s = 0`` resolve the
``rho log rho`` of a log atom (Schwab, *p- and hp-Finite Element
Methods*, 1998); ``rho_max`` is analytic in ``theta``, so the trapezoid
rule in ``theta`` converges geometrically.
Each panel takes the angles its rings need (:func:`_polar_layout`): the
geometric panels only resolve the branch points of ``rho_max``, at
imaginary angle ``beta = asinh(sqrt(1 - |a|^2) / |a|)``, where the error
falls like ``exp(-n beta)`` (Trefethen and Weideman, SIAM Review 56,
2014); an outer panel ending at ``s_hi`` takes ``s_hi`` times the count
of the outermost rings, which come nearest the kernel's pole. Every polar
set is sized for the pole its functional has: the numeric transform's for
its points' reach, the monomial moments' for none (reach 0), where the
outer panels take the inner count plus the moments' own degree.

Every polar set has a coarse check variant that takes a fixed smaller
share of each angular count and the coarse member of every fixed
``(fine, coarse)`` size pair, so an angular or radial under-resolution
shows as a fine-vs-coarse deviation (:func:`_refined`). An integrand the
polar rule does not resolve, such as ``|u|`` with kinks on the zero set
of ``u``, raises NonConvergence there rather than returning a wrong
value. The sets are built anew on every call; nothing keeps them.

The numeric transform sizes its sets from the reach ``r = max |z|`` of its
points: the kernel's pole ``1 / conj(z)`` lies ``1/r - 1`` beyond the
circle, so below ``r = 0.9`` the outer panels shrink with the pole's
imaginary angle, and beyond it every count grows like ``1 / (1 - r)``
(:func:`_polar_layout`). Each center's fine and coarse sets are built for
that reach, and the integrand is evaluated once on each; each point is
then contracted against every ``t``-th angle of each panel group, the
trapezoid rule with ``1/t`` of the angles and ``t`` times the weights, as
few as the same law gives the group at the point's own ``|z|``
(:func:`_point_groups`). Points that share a stride pattern form one
contraction, of at least ``_kernels._POINT_BLOCK`` points, so a call on
fewer than 32 points is one whole-set contraction.

The geometric panels' Gauss rows are there only for the atoms'
singularities; the functional's kernel is analytic along each ray of their
segment. So the integrand is evaluated on those rows, and its weighted
values ``v`` are moved onto Chebyshev proxy rows ``s_c`` of the same rays
as ``E^T v``, with ``E`` the barycentric Lagrange basis of the proxies at
the Gauss rows; the functional contracts the proxy rows (every angle) and
the outer groups (:class:`_NodeSet`), as the black-box fast multipole
method moves its sources onto Chebyshev nodes (Fong and Darve, J. Comput.
Phys. 228, 2009). The proxy count follows from the Bernstein ellipse that
the kernel's pole leaves the segment (Trefethen, *Approximation Theory
and Approximation Practice*, SIAM 2013, Thm 8.2), or from the degree of a
pole-free functional (:func:`_proxy_count`): 13 to 29 of the 72 rows at
``|z| = 0.9``.
"""
from __future__ import annotations

from functools import lru_cache, partial
from math import asinh, ceil, gcd, log, sqrt
from typing import NamedTuple

import numpy as np

from berezin import _kernels
from berezin.errors import DomainError, NonConvergence, OutOfRange
from berezin.symbols import Symbol

#: Base angle count of the polar sets, which serve points up to ``|z| =
#: _BASE_REACH``; up to ``_MAX_REACH`` every count grows with the pole's
#: imaginary angle (:func:`_polar_layout`), and sets for 0.995 would take
#: about 4 times the memory of the 0.99 ones (ROADMAP item 8).
_BASE_ANGLES = 256
_BASE_REACH = 0.9
_MAX_REACH = 0.99

#: Every trapezoid count of the polar rule aims at an error of at most
#: ``exp(-_RING_DECAY)`` = 1e-13.
_RING_DECAY = np.log(1e13)

#: Share of each panel group's angle count of a polar rule that the coarse
#: check set takes.
_COARSE_SHARE = 0.75

#: Radial panels of the polar rule around an atom center, in ``s = rho /
#: rho_max``: ``_POLAR_DEPTH`` geometric panels (ratio ``_POLAR_RATIO``)
#: below ``s = _POLAR_INNER``, then equal outer panels up to ``s = 1``.
#: Their Gauss points are ``(fine, coarse)`` pairs; the inner 12 keep
#: the node error of two log atoms recovered from kmax-8 moments at
#: 3.8e-7, where 10 points give 1.0e-6.
_POLAR_INNER = 0.25
_POLAR_RATIO = 0.2
_POLAR_DEPTH = 6
_POLAR_INNER_GAUSS = (12, 9)
_POLAR_OUTER_GAUSS = (16, 12)

#: Angle and outer-panel counts of the polar rule grow with the center's
#: modulus (:func:`_polar_layout`). The kernel's pole ``1 / conj(z)`` lies
#: at least ``1/|z| - 1`` beyond the circle, so seen from ``a`` it sits at
#: an imaginary angle of about ``(1/|z| - 1) / (1/|z| + |a|)``, and the
#: trapezoid error decays like ``exp(-n)`` of that times the count ``n``
#: (measured rates per angle at ``|z| = 0.9``: 0.103 at ``|a| = 0.02``,
#: 0.054 at 0.94). At the base reach 0.9 the full count is
#: ``256 (1 + _POLAR_ANGLE_GROWTH |a|)``, rounded up to 16; it is the count
#: of the outermost panel. A panel ending at ``s_hi`` takes ``s_hi`` times
#: it: its rings stay a factor ``s_hi`` inside the circle, which adds about
#: ``ln(1 / s_hi)`` to the pole's imaginary angle, so with the small angles
#: above it needs fewer still. A ray is up to ``1 + |a|`` long, and at the
#: base reach a center takes one outer panel per ``_POLAR_PANEL_SPAN`` of
#: that length.
#:
#: For points up to a reach ``r`` the counts follow ``sigma = gamma(0.9,
#: |a|) / gamma(r, |a|)``, ``gamma(r, |a|) = (1/r - 1) / (1/r + |a|)``,
#: which keeps ``n gamma``, and the error, at the base-reach level: below
#: 0.9 the full count shrinks by ``sigma`` (at ``|a| = 0.75`` the fine set
#: has 20,480 nodes at 0.9, 9,984 at 0.7 and 7,936 at 0.5; on 32 points per
#: ring inside 0.9 the worst error is 9.7e-12, at 0.7), and above it every
#: count and the number of outer panels grow by ``sigma`` (on 16 points per
#: ring from 0.905 to 0.99 the worst error is 6.4e-11). The monomial
#: moments have no pole (reach 0): their outer panels take the inner count
#: plus the moments' degree ``pmax + qmax``, since a monomial of that
#: degree grows like ``e^(degree t)`` at imaginary angle ``t``; without
#: the degree, the moments up to (40, 40) of atoms at 0.72 are off by
#: 4.5e-3.
#:
#: The geometric panels stay within a quarter of each ray, where the
#: kernel's pole is far: their rings need only resolve ``rho_max``, whose
#: branch points (where ``c^2 + 1 - |a|^2 = 0``) lie at imaginary angle
#: ``beta = asinh(sqrt(1 - |a|^2) / |a|)``. So the inner count is
#: ``_RING_DECAY / (_COARSE_SHARE beta)``, which the coarse set's share
#: still brings to 1e-13 (128 angles at ``|a| = 0.94``, 80 at 0.85), and at
#: least ``_POLAR_INNER_FLOOR``. Near the origin ``beta`` is large and only
#: the integrand's own angular modes are left: moment matrices up to kmax
#: 18 of log, pole and conjpole atoms at ``|a| <= 0.1`` are off by up to
#: 1.5e-9 with 16 inner angles and agree with the exact grids to 2.9e-13
#: from 24 on, and at ``|a| <= 0.02`` the inner panels' kernel sums on the
#: CLI points agree with those of 1024 angles to 5e-17 from 24 on. The
#: floor of 64 keeps the coarse set's 48 at twice that.
#: On the 320 CLI points, atoms at the moduli ``linspace(0.02, 0.94, 11)``
#: agree with their closed forms to 2.5e-11.
#:
#: The functional does not see the geometric panels' Gauss rows: it
#: contracts ``n`` Chebyshev proxy rows on ``[0, _POLAR_INNER]`` of the same
#: rays, which carry the rows' weighted values (:func:`_proxy_count`). The
#: kernel's pole lies at least ``1/r - |a|`` from ``a`` and a ray's segment
#: is at most ``_POLAR_INNER (1 + |a|)`` long, so the kernel is analytic
#: inside the Bernstein ellipse of parameter ``rho = x + sqrt(x^2 - 1)``,
#: ``x = 1 + 2 (1/r - |a|) / (_POLAR_INNER (1 + |a|))``, and its interpolant
#: errs by about ``rho^-n``: ``n = ceil(_RING_DECAY / ln rho) + 2`` (13 at
#: ``|a| = 0.02``, 20 at 0.72 and 29 at 0.94 for ``r = 0.9``; up to 43 at
#: 0.99). Without a pole the kernel is a polynomial of degree ``degree`` in
#: ``s``, and ``n = degree + 1`` is exact (with one, ``n`` is at least
#: that). The coarse set takes
#: ``_COARSE_SHARE`` of ``n`` (at least 1), always fewer, so that a
#: starved count shows in the check (4 against 3 rows raise on the CLI
#: points at ``|a| = 0.3`` to 0.94); from the Gauss row count on, the
#: Gauss rows serve as their own proxies. On the 320 CLI points this cuts
#: the contracted pairs by 29% at ``|a| = 0.72`` and 46% at 0.02, and the
#: worst closed-form errors above, at 0.95 and at 0.99 do not move.
_POLAR_ANGLE_GROWTH = 0.875
_POLAR_PANEL_SPAN = 0.6
_POLAR_INNER_FLOOR = 64


@lru_cache(maxsize=None)
def _leggauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _gauss(n: int, lo: float, hi: float):
    x, w = _leggauss(n)
    return 0.5 * (hi - lo) * x + 0.5 * (hi + lo), 0.5 * (hi - lo) * w


def _pole_angle(reach: float, modulus: float) -> float:
    """Imaginary angle of the kernel's pole seen from a center of ``modulus``
    for points up to ``|z| = reach`` (the ``_POLAR_ANGLE_GROWTH`` comment)."""
    return (1.0 / reach - 1.0) / (1.0 / reach + modulus)


def _polar_layout(center: complex, reach: float, degree: int = 0, panels: int = 0):
    """Panel groups ``(edges, order, angles)`` of the fine polar set around
    ``center`` for points up to ``|z| = reach``: the panel edges in ``s``,
    the ``(fine, coarse)`` Gauss pair and the angle count of each group. The
    geometric panels below ``_POLAR_INNER`` form one group; each outer panel
    is a group of its own, and a nonzero ``panels`` fixes their number, so
    that a point's need comes on the panels of a set for a larger reach.

    The full count is ``256 (1 + _POLAR_ANGLE_GROWTH |a|)``. The inner
    group takes ``_RING_DECAY / (_COARSE_SHARE beta)`` angles, so that the
    coarse set still reaches 1e-13 there, at least ``_POLAR_INNER_FLOOR``
    and at most the full count; an outer panel ending at ``s_hi`` takes
    ``s_hi`` times the full count, at least the inner count plus
    ``degree``, the integrand's own angular degree, rounded up to 16. Below
    the base reach the full count shrinks by ``sigma`` (the
    ``_POLAR_ANGLE_GROWTH`` comment), to 0 at reach 0, where there is no
    pole; above it every count and the number of outer panels grow by
    ``sigma``. A reach within 1e-12 of the base reach counts as on it.
    """
    m = abs(center)
    if abs(reach - _BASE_REACH) <= 1e-12:
        reach = _BASE_REACH
    sigma = _pole_angle(_BASE_REACH, m) / _pole_angle(reach, m) if reach else 0.0
    grow = max(1.0, sigma)
    full = 16 * ceil(_BASE_ANGLES * (1.0 + _POLAR_ANGLE_GROWTH * m) / 16)
    # the branch points of rho_max lie at imaginary angle beta; none at m = 0
    need = _RING_DECAY / (_COARSE_SHARE * asinh(sqrt(1.0 - m * m) / m)) if m else 0.0
    inner = 16 * ceil(grow * min(full, max(_POLAR_INNER_FLOOR, need)) / 16)
    full *= sigma
    panels = panels or ceil(grow * (1.0 + m) / _POLAR_PANEL_SPAN)
    geometric = (0.0,) + tuple(_POLAR_INNER * _POLAR_RATIO ** j
                               for j in reversed(range(_POLAR_DEPTH)))
    return ((geometric, _POLAR_INNER_GAUSS, inner),) + tuple(
        (edges, _POLAR_OUTER_GAUSS, 16 * ceil(max(inner + degree, full * edges[1]) / 16))
        for edges in _outer_panels(panels))


@lru_cache(maxsize=None)
def _outer_panels(panels: int):
    """Edges ``(lo, hi)`` of ``panels`` equal panels from ``_POLAR_INNER`` to 1."""
    edges = np.linspace(_POLAR_INNER, 1.0, panels + 1).tolist()
    return tuple(zip(edges[:-1], edges[1:]))


def _proxy_count(modulus: float, reach: float, degree: int) -> int:
    """Chebyshev proxy rows of the geometric panels around a center of
    ``modulus`` for a functional whose pole lies beyond ``|z| = reach`` (0:
    none) and whose own degree is ``degree``: ``ceil(_RING_DECAY / ln rho)
    + 2`` for the Bernstein ellipse ``rho`` that the pole leaves the
    segment, at least ``degree + 1``, and without a pole ``degree + 1``,
    which is exact (the ``_POLAR_ANGLE_GROWTH`` comment)."""
    if not reach:
        return degree + 1
    x = 1.0 + 2.0 * (1.0 / reach - modulus) / (_POLAR_INNER * (1.0 + modulus))
    return max(degree + 1, ceil(_RING_DECAY / log(x + sqrt(x * x - 1.0))) + 2)


@lru_cache(maxsize=None)
def _proxy_basis(order: int, edges, count: int):
    """Proxy rows ``s_c`` of the panels ``edges`` with ``order`` Gauss points
    each, and the barycentric Lagrange basis ``E[i, c]`` of the rows at the
    Gauss points ``s_i``: ``count`` Chebyshev points of the first kind on
    ``[edges[0], edges[-1]]``, or, when ``count`` reaches the Gauss row
    count, the Gauss points themselves with ``E`` of None (the identity).
    The arrays are read-only. Cached without a bound: there are two Gauss
    orders and fewer than 72 counts below the row count."""
    s = np.concatenate([_gauss(order, lo, hi)[0] for lo, hi in zip(edges[:-1], edges[1:])])
    if count >= len(s):
        basis = None
    else:
        angle = (2 * np.arange(count) + 1) * np.pi / (2 * count)
        lo, hi = edges[0], edges[-1]
        proxies = 0.5 * (hi + lo) - 0.5 * (hi - lo) * np.cos(angle)
        # barycentric weights of the Chebyshev points of the first kind
        # (Berrut and Trefethen, SIAM Review 46, 2004), with the signs of
        # the ascending order
        weights = (-1.0) ** np.arange(count) * np.sin(angle)
        gap = s[:, None] - proxies[None, :]
        hit = gap == 0.0
        terms = weights / np.where(hit, 1.0, gap)
        basis = np.where(hit.any(axis=1, keepdims=True), hit,
                         terms / terms.sum(axis=1, keepdims=True))
        s = proxies
        basis.setflags(write=False)
    s.setflags(write=False)
    return s, basis


class _NodeSet(NamedTuple):
    """A polar set as the contraction sees it: the integrand is evaluated on
    ``nodes`` with ``weights``, and the functional contracts ``contracted``,
    whose panel groups have the ``(rows, angles)`` of ``blocks`` in layout
    order. The Gauss rows of the geometric panels come last in ``nodes``,
    and ``contracted`` drops them and starts with the proxy rows of
    ``basis`` (:func:`_proxy_basis`) in their place; both are views of one
    array."""

    nodes: np.ndarray
    weights: np.ndarray
    contracted: np.ndarray
    basis: np.ndarray | None
    blocks: tuple

    def values(self, integrand) -> np.ndarray:
        """Weighted values on the contracted set: ``integrand * weights`` on
        the outer rows, and ``E^T v`` of the geometric Gauss rows' weighted
        values ``v`` on the proxy rows."""
        rows, angles = self.blocks[0]
        proxies = rows * angles
        # the buffer only after the integrand, whose temporaries peak higher
        evaluated = integrand(self.nodes)
        values = np.empty(proxies + len(self.nodes), dtype=np.complex128)
        np.multiply(evaluated, self.weights, out=values[proxies:])
        gauss = values[len(self.contracted):].view(np.float64).reshape(-1, 2 * angles)
        proxy = values[:proxies].view(np.float64).reshape(rows, 2 * angles)
        if self.basis is None:
            proxy[...] = gauss
        else:
            np.matmul(self.basis.T, gauss, out=proxy)
        return values[:len(self.contracted)]


def _polar_set(center: complex, reach: float, degree: int, coarse: bool) -> _NodeSet:
    """The fine or ``coarse`` :class:`_NodeSet` of :func:`polar_nodes`, with
    the proxy rows of its geometric panels (:func:`_proxy_count`)."""
    center = complex(center)
    layout = _polar_layout(center, reach, degree)
    rows = []
    for edges, order, angles in layout:
        x, wx = zip(*(_gauss(order[coarse], lo, hi) for lo, hi in zip(edges[:-1], edges[1:])))
        rows.append((np.concatenate(x), np.concatenate(wx),
                     int(_COARSE_SHARE * angles) if coarse else angles))
    (edges, order, _), proxies = layout[0], _proxy_count(abs(center), reach, degree)
    proxy_s, basis = _proxy_basis(order[coarse], edges,
                                  max(1, int(_COARSE_SHARE * proxies)) if coarse else proxies)
    # the proxy rows first and the geometric Gauss rows last, in one array:
    # the nodes evaluated and those contracted are each one slice of it
    gauss, *outer = rows
    rows = [(proxy_s, None, gauss[2]), *outer, gauss]
    sizes = [len(s) * angles for s, _, angles in rows]
    head = sizes[0]
    z = np.empty(sum(sizes), dtype=np.complex128)
    w = np.empty(len(z) - head)
    gap, offset = 1.0 - abs(center) ** 2, 0
    for (s, ws, angles), size in zip(rows, sizes):
        ray = np.exp(2j * np.pi * np.arange(angles) / angles)
        # rho_max = -c + sqrt(c^2 + gap), c = Re(conj(a) e^{i theta}), in the
        # form without cancellation
        c = (np.conj(center) * ray).real
        rho_max = gap / (c + np.sqrt(c * c + gap))
        block = z[offset:offset + size].reshape(-1, angles)
        np.multiply(s[:, None], (rho_max * ray)[None, :], out=block)
        block += center
        if ws is not None:
            np.multiply((ws * s)[:, None], (rho_max * rho_max * (2.0 / angles))[None, :],
                        out=w[offset - head:offset - head + size].reshape(-1, angles))
        offset += size
    return _NodeSet(z[head:], w, z[:len(z) - sizes[-1]], basis,
                    tuple((len(s), angles) for s, _, angles in rows[:-1]))


def polar_nodes(center: complex, *, reach: float = _BASE_REACH, degree: int = 0,
                coarse: bool = False):
    """Polar node/weight set around one center for points up to ``|z| =
    reach`` and an integrand of angular ``degree``; ``coarse`` builds the
    check variant.

    Nodes ``zeta = a + s rho_max(theta) e^{i theta}`` with weights
    ``s rho_max^2 ds dtheta / pi``: Gauss in ``s`` on the geometric and
    outer panels of ``_POLAR_INNER``, and a trapezoid rule in ``theta``
    with each panel group's own angle count, as :func:`_polar_layout`
    decides them; each group is one tensor block, the outer groups first
    and the geometric panels last. The coarse set takes ``_COARSE_SHARE``
    of every group's angles and the coarse Gauss orders on the same panels,
    so an under-resolution of any group shows in the check. Built anew on
    every call; the functional contracts the geometric panels on proxy rows
    instead (:func:`_proxy_count`).
    """
    node_set = _polar_set(center, reach, degree, coarse)
    return node_set.nodes, node_set.weights


#: Fine-vs-coarse deviation above which a singular integral is rejected.
_REFINEMENT_TOL = 1e-6


def _angle_strides(layout, need):
    """Angle stride ``t`` of each panel group of the polar set of ``layout``
    for a point whose own reach asks for ``need`` on the same panels: the
    largest common divisor of the group's fine and coarse angle counts that
    keeps both counts over ``t`` at or above those of ``need``. Every
    ``t``-th of ``n`` uniform angles is the trapezoid rule with ``n / t``."""
    strides = []
    for (_, _, angles), (_, _, wanted) in zip(layout, need, strict=True):
        coarse = int(_COARSE_SHARE * angles)
        common = gcd(angles, coarse)
        t = min(angles // wanted, coarse // int(_COARSE_SHARE * wanted), common)
        while common % t:
            t -= 1
        strides.append(t)
    return tuple(strides)


def _point_groups(reaches, layout_at):
    """The points of moduli ``reaches`` as groups ``(rows, strides)`` for the
    node set of ``layout_at(max(reaches))``: sorted by reach, the points of
    one stride pattern (:func:`_angle_strides` against ``layout_at`` of
    each point's own reach, on the set's panels, once per distinct layout)
    form a group, and a group of fewer than ``_kernels._POINT_BLOCK``
    points joins the next one outward (the outermost joins the one inward
    of it). A group takes the smallest stride of its points in each panel
    group, and keeps its rows in their given order. A call on fewer than
    ``2 _POINT_BLOCK`` points is one group, with every stride 1 (the points
    at the largest reach need every angle)."""
    layout = layout_at(float(np.max(reaches)))
    if len(reaches) < 2 * _kernels._POINT_BLOCK:
        return [(np.arange(len(reaches)), (1,) * len(layout))]
    order = np.argsort(reaches, kind="stable")
    moduli, first = np.unique(reaches[order], return_index=True)
    patterns, groups = {}, []
    for end, modulus in zip([*first[1:], len(reaches)], moduli):
        need = layout_at(float(modulus))
        if need not in patterns:
            patterns[need] = _angle_strides(layout, need)
        strides = patterns[need]
        start = groups[-1][1] if groups else 0
        if groups and (groups[-1][2] == strides or start - groups[-1][0] < _kernels._POINT_BLOCK):
            start, _, joined = groups.pop()
            strides = tuple(map(min, joined, strides))
        groups.append((start, end, strides))
    if len(groups) > 1 and len(reaches) - groups[-1][0] < _kernels._POINT_BLOCK:
        _, end, outer = groups.pop()
        start, _, strides = groups.pop()
        groups.append((start, end, tuple(map(min, strides, outer))))
    return [(np.sort(order[start:end]), strides) for start, end, strides in groups]


def _stride_subset(nodes, values, blocks, strides):
    """Nodes and values of every ``t``-th angle of each panel group
    ``(rows, angles)`` of ``blocks``, one stride ``t`` per group, with the
    values (which carry the weights) times ``t``. All strides 1 is the whole
    set."""
    if all(t == 1 for t in strides):
        return nodes, values
    blocks_z, blocks_v, offset = [], [], 0
    for (rows, angles), t in zip(blocks, strides, strict=True):
        end = offset + rows * angles
        blocks_z.append(nodes[offset:end].reshape(-1, angles)[:, ::t].ravel())
        blocks_v.append((values[offset:end].reshape(-1, angles)[:, ::t] * t).ravel())
        offset = end
    return np.concatenate(blocks_z), np.concatenate(blocks_v)


def _refined(node_set, groups, integrand, functional, *, check: bool, what: str):
    """``functional(nodes, values, rows)`` of each point group ``(rows,
    strides)`` on the stride subset (:func:`_stride_subset`) of the
    contracted set of ``node_set(coarse=False)``, a :class:`_NodeSet`, with
    its values (:meth:`_NodeSet.values`) evaluated once on the whole set;
    the groups' outputs are assembled in point order.

    With ``check`` the same is recomputed on ``node_set(coarse=True)``; a
    deviation above 1e-6 at any point raises NonConvergence naming ``what``.
    """
    def contract(coarse):
        nodes = node_set(coarse=coarse)
        z, values = nodes.contracted, nodes.values(integrand)
        out = None
        for rows, strides in groups:
            part = functional(*_stride_subset(z, values, nodes.blocks, strides), rows)
            if out is None:
                out = np.empty((sum(len(r) for r, _ in groups),) + part.shape[1:], part.dtype)
            out[rows] = part
        return out

    fine = contract(False)
    if check:
        delta = float(np.max(np.abs(fine - contract(True))))
        if delta > _REFINEMENT_TOL:
            raise NonConvergence(f"{what} refinement mismatch {delta:.3e}")
    return fine


def disk_integrate_singular(f, center) -> complex:
    """Integral of a callable with a log or simple-pole singularity at
    ``center``, on that center's polar set for the base reach
    (:func:`integrate_parts`); a ``center`` of ``None`` raises DomainError
    (a smooth integrand declares center 0).

    The value is recomputed on the coarse polar set; a discrepancy above
    1e-6 raises NonConvergence.
    """
    if center is None:
        raise DomainError(
            "a singular integral needs a center; a smooth integrand declares center 0")
    return complex(integrate_parts(f, lambda z, values, rows: np.sum(values, keepdims=True),
                                   [_BASE_REACH], center, check=True,
                                   what="singular quadrature")[0])


def symbol_parts(u: Symbol):
    """The atoms of ``u`` as ``(center, integrand)`` parts, one per exact
    center, so each group integrates once on that center's polar set
    (:func:`polar_nodes`). The harmonic part is not a
    part: the transform fixes it, so the callers add its exact value
    (:func:`berezin_numeric`) or moments (``rank.weighted_monomial_moments``).
    """
    by_center: dict[complex, list] = {}
    for atom in u.atoms:
        by_center.setdefault(atom.center, []).append(atom.eval)
    return [(center, lambda z, terms=terms: sum(term(z) for term in terms))
            for center, terms in by_center.items()]


def integrate_parts(u, functional, reaches, center=None, *, degree: int = 0,
                    check: bool, what: str):
    """Sum of ``functional(nodes, u(nodes) * weights, rows)`` over the node
    sets of ``u`` for a functional with one output per entry of ``reaches``,
    whose pole for output ``i`` lies beyond ``|z| = reaches[i]`` (0: none),
    and whose own angular degree is ``degree``; ``rows`` are the outputs it
    computes, and it returns them along its first axis. For the transform
    the outputs are its points and the reaches their moduli; a functional
    of no points (moments, an integral) is one output.

    A :class:`Symbol` splits into its atom groups as :func:`symbol_parts`
    does (its harmonic part is left to the caller) and declares its own
    centers, so passing a ``center`` with one raises DomainError. Any other
    callable is one part with the declared ``center``, which must lie in
    ``|c| < 0.97`` (DomainError otherwise); one with no center is a part
    with center 0. Each part runs on its center's polar set
    (:func:`polar_nodes`) for the largest reach (:func:`_polar_layout`). A
    callable with no center may have a pole of its own that the reach law
    does not see (the composed harmonic part of
    ``transform.covariance_residual`` has one at ``1 / conj(a)``), so its
    set is laid out for at least the base reach. Each output is contracted
    against every ``t``-th angle of each panel group, as many as its own
    reach gives the group on the set's panels (:func:`_point_groups`), and
    against the proxy rows of the geometric panels that the largest reach,
    or without a pole the ``degree``, asks for (:func:`_proxy_count`); with
    ``check`` each part is recomputed on its coarse set (:func:`_refined`).
    Returns zeros, one per output, when ``u`` has no parts.
    """
    floor = 0.0
    if isinstance(u, Symbol):
        if center is not None:
            raise DomainError("a symbol declares its own singular centers; pass no center")
        parts = symbol_parts(u)
    else:
        if center is None:
            center, floor = 0j, _BASE_REACH
        center = complex(center)
        if not abs(center) < 0.97:
            raise DomainError(
                f"singular center too close to the boundary: |{center}|={abs(center):.4f}")
        parts = [(center, u)]
    reaches = np.asarray(reaches, dtype=float)
    reach = max(float(np.max(reaches)), floor)
    total = np.zeros(len(reaches))
    for part_center, integrand in parts:
        node_set = partial(_polar_set, part_center, reach, degree)
        panels = len(_polar_layout(part_center, reach, degree)) - 1
        layout_at = lambda r: _polar_layout(part_center, max(r, floor), degree, panels)
        total = total + _refined(node_set, _point_groups(reaches, layout_at),
                                 integrand, functional, check=check, what=what)
    return total


# ---------------------------------------------------------------------------
# Numeric Berezin transform
# ---------------------------------------------------------------------------

def berezin_numeric(u, z, center=None):
    """Numeric Berezin transform ``B(u)(z)`` by quadrature.

    ``u`` may be a :class:`Symbol` or any callable mapping a node array to
    values with at most one log or simple-pole singularity, declared as
    ``center``; a symbol declares its own, and a symbol with a ``center``
    raises DomainError. Of a symbol only the atoms are integrated, those of
    each distinct center together on that center's polar node set
    (:func:`integrate_parts`); its harmonic part ``h = K + conj(L)`` is
    added as ``h(z)``, since ``B(h) = h`` by the mean-value property. A
    callable runs on the polar set of its ``center``, or on the center-0 set
    without one. Each part is recomputed on its coarse node set, so the
    1e-6 refinement check guards each summed contribution at every point.
    The polar sets follow the points' reach ``max |z|``
    (:func:`_polar_layout`), and each point is contracted against as many
    of each panel group's angles as its own ``|z|`` needs
    (:func:`_point_groups`); the points at the reach take
    every angle. The geometric panels are contracted on their proxy rows
    (:func:`_proxy_count`). A non-finite point raises DomainError and a point beyond
    ``|z| = 0.99`` OutOfRange. ``z`` may be a scalar or an array, also an
    empty one; the result matches its shape.
    """
    zs = np.atleast_1d(np.asarray(z, dtype=np.complex128)).ravel()
    if not np.all(np.isfinite(zs)):
        raise DomainError("numeric transform needs finite points")
    mags = np.abs(zs)
    if not np.all(mags <= _MAX_REACH + 1e-12):
        raise OutOfRange(f"numeric transform needs |z| <= {_MAX_REACH}")
    if not len(zs):
        return np.zeros(np.shape(z), dtype=np.complex128)

    out = np.zeros(len(zs), dtype=np.complex128) + integrate_parts(
        u, lambda nodes, values, rows: _kernels.kernel_sum(nodes, values, zs[rows]),
        mags, center, check=True, what="numeric transform")
    if isinstance(u, Symbol):
        out += u.harmonic(zs)

    return complex(out[0]) if np.ndim(z) == 0 else out.reshape(np.shape(z))
