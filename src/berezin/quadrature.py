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
shows as a fine-vs-coarse deviation (:func:`_refined`), measured against
``1e-6`` of the part's own ``sum |values|``, so that a symbol and its
multiples pass or fail together. An integrand the polar rule does not
resolve, such as ``|u|`` with kinks on the zero set of ``u``, raises
NonConvergence there rather than returning a wrong value.

A set is kept as the factors of its panel groups, each a tensor product
of Gauss rows ``(s, w_s)`` in ``s`` and trapezoid angles, whose rays
``e^{i theta}`` and ``rho_max(theta)`` are formed per call
(:class:`_NodeSet`); nothing of the size of a set is built or kept. The
functionals walk each set block by block, a run of rows of one group of
at most one kernel tile, and contract each block as the walk yields it
(:func:`_blocks`, :func:`_contract`); the walk's order is fixed, so the
results are deterministic. On its own center's set an atom is separable:
``zeta - a = s rho_max e^{i theta}``, and the weight ``w_s s (2
rho_max^2 / n)`` cancels a pole's ``1 / (s rho_max)``, so the weighted
values of a center's atoms are three rank-one products of radial and
angular factors, and no atom is evaluated on a node
(:class:`_AtomGroup`).

The numeric transform sizes its sets from the reach ``r = max |z|`` of its
points: the kernel's pole ``1 / conj(z)`` lies ``1/r - 1`` beyond the
circle, so below ``r = 0.9`` the outer panels shrink with the pole's
imaginary angle, and beyond it every count grows like ``1 / (1 - r)``
(:func:`_polar_layout`). Each center's fine and coarse sets are laid out
for that reach, and each block of each is evaluated once; each point is
then contracted against every ``t``-th angle of each panel group, the
trapezoid rule with ``1/t`` of the angles and ``t`` times the weights, as
few as the same law gives the group at the point's own ``|z|``, as a
strided view of each block. In each panel group the points of one stride
form a run of at least ``_kernels._POINT_BLOCK`` points
(:func:`_point_runs`), and each block goes to each run of its group once,
so its nodes are read once per stride; a point's value is the sum over its
runs. A call on fewer than 32 points is one run, with stride 1, in every
group: one contraction of the whole set.

The geometric panels' Gauss rows are there only for the atoms'
singularities; the functional's kernel is analytic along each ray of their
segment. So an atom group's weighted values ``v`` on those rows are moved
onto Chebyshev proxy rows ``s_c`` of the same rays as ``E^T v``, with
``E`` the barycentric Lagrange basis of the proxies at the Gauss rows:
``E^T`` of the group's three radial factors, so the Gauss rows are never
built, and the functional contracts the proxy rows (every angle) and the
outer groups (:class:`_NodeSet`), as the black-box fast multipole method
moves its sources onto Chebyshev nodes (Fong and Darve, J. Comput. Phys.
228, 2009). The proxy count follows from the Bernstein ellipse that the
kernel's pole leaves the segment (Trefethen, *Approximation Theory and
Approximation Practice*, SIAM 2013, Thm 8.2), or from the degree of a
pole-free functional (:func:`_proxy_count`): 13 to 29 of the 72 rows at
``|z| = 0.9``. Any other callable is contracted on the Gauss rows
themselves, like every other row of its set.
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
#: about 4 times the nodes, and the time, of the 0.99 ones.
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
#: For an atom group the functional does not see the geometric panels'
#: Gauss rows: it contracts ``n`` Chebyshev proxy rows on ``[0,
#: _POLAR_INNER]`` of the same rays, which carry the rows' weighted values
#: (:func:`_proxy_count`). The
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
    m, reach = abs(complex(center)), float(reach)
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
    return ((_geometric_panels(_POLAR_INNER, _POLAR_RATIO, _POLAR_DEPTH), _POLAR_INNER_GAUSS,
             inner),) + tuple(
        (edges, _POLAR_OUTER_GAUSS, 16 * ceil(max(inner + degree, full * edges[1]) / 16))
        for edges in _outer_panels(panels))


@lru_cache(maxsize=None)
def _geometric_panels(inner: float, ratio: float, depth: int):
    """Edges ``(0, inner ratio^(depth-1), ..., inner)`` of the geometric panels."""
    return (0.0,) + tuple(inner * ratio ** j for j in reversed(range(depth)))


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
def _panel_rows(order: int, edges):
    """Gauss rows ``s`` of the panels ``edges`` with ``order`` points each,
    their weights ``ws``, and the rows' radial factors of an atom group's
    weighted values (:class:`_AtomGroup`), ``ws s log s``, ``ws s`` and
    ``ws``, as the columns of a ``(rows, 3)`` array; all read-only. Cached
    without a bound: every layout's groups are the geometric panels and
    panels of :func:`_outer_panels`, with two Gauss orders each."""
    s, ws = (np.concatenate(parts) for parts in zip(
        *(_gauss(order, lo, hi) for lo, hi in zip(edges[:-1], edges[1:]))))
    radial = np.stack([ws * s * np.log(s), ws * s, ws], axis=1)
    for array in (s, ws, radial):
        array.setflags(write=False)
    return s, ws, radial


@lru_cache(maxsize=None)
def _proxy_basis(order: int, edges, count: int):
    """Proxy rows ``s_c`` of the panels ``edges`` with ``order`` Gauss points
    each, the barycentric Lagrange basis ``E[i, c]`` of the rows at the
    Gauss points ``s_i``, and ``E^T`` of the Gauss rows' radial factors
    (:func:`_panel_rows`): ``count`` Chebyshev points of the first kind on
    ``[edges[0], edges[-1]]``, or, when ``count`` reaches the Gauss row
    count, the Gauss points themselves with ``E`` of None (the identity).
    The walk uses only ``E^T`` of the radial factors; ``E`` is kept for
    checks against an atom group's values on the Gauss rows. The arrays are
    read-only. Cached without a bound: there are two Gauss
    orders and fewer than 72 counts below the row count."""
    s, _, radial = _panel_rows(order, edges)
    if count >= len(s):
        return s, None, radial
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
    radial = basis.T @ radial
    for array in (proxies, basis, radial):
        array.setflags(write=False)
    return proxies, basis, radial


class _NodeSet(NamedTuple):
    """A polar set by the factors of its panel groups: the Gauss rows ``s``,
    their weights ``ws``, their radial factors (:func:`_panel_rows`) and the
    angle count of each group of ``rows``, in layout order, so that the
    group's nodes are ``center + s rho_max(theta) e^{i theta}`` with weights
    ``(ws s) (2 rho_max^2 / angles)``. The first group holds the geometric
    panels' Gauss rows; an atom group of the set's center is contracted on
    the ``proxies`` in their place, whose radial factors are
    ``proxy_radial``, ``E^T`` of the Gauss rows' (:func:`_proxy_basis`).
    Nothing of the size of the set is built: :func:`_blocks` walks it."""

    center: complex
    rows: tuple
    proxies: np.ndarray
    proxy_radial: np.ndarray


def _polar_set(center: complex, reach: float, degree: int, coarse: bool) -> _NodeSet:
    """The fine or ``coarse`` :class:`_NodeSet` of :func:`polar_nodes`, with
    the proxy rows of its geometric panels (:func:`_proxy_count`)."""
    center = complex(center)
    layout = _polar_layout(center, reach, degree)
    rows = tuple((*_panel_rows(order[coarse], edges),
                  int(_COARSE_SHARE * angles) if coarse else angles)
                 for edges, order, angles in layout)
    (edges, order, _), count = layout[0], _proxy_count(abs(center), reach, degree)
    proxies, _, proxy_radial = _proxy_basis(
        order[coarse], edges, max(1, int(_COARSE_SHARE * count)) if coarse else count)
    return _NodeSet(center, rows, proxies, proxy_radial)


def _rays(center: complex, angles: int):
    """``e^{i theta}``, ``rho_max(theta)`` and the trapezoid width ``2 /
    angles`` at ``angles`` uniform angles around ``center``."""
    ray = np.exp(2j * np.pi * np.arange(angles) / angles)
    # rho_max = -c + sqrt(c^2 + gap), c = Re(conj(a) e^{i theta}), in the
    # form without cancellation
    gap = 1.0 - abs(center) ** 2
    c = (np.conj(center) * ray).real
    return ray, gap / (c + np.sqrt(c * c + gap)), 2.0 / angles


def polar_nodes(center: complex, *, reach: float = _BASE_REACH, degree: int = 0,
                coarse: bool = False):
    """Polar node/weight set around one center for points up to ``|z| =
    reach`` and an integrand of angular ``degree``; ``coarse`` builds the
    check variant.

    Nodes ``zeta = a + s rho_max(theta) e^{i theta}`` with weights
    ``s rho_max^2 ds dtheta / pi``: Gauss in ``s`` on the geometric and
    outer panels of ``_POLAR_INNER``, and a trapezoid rule in ``theta``
    with each panel group's own angle count, as :func:`_polar_layout`
    decides them; the nodes come in the walk's order (:func:`_blocks`),
    the geometric panels first, then each outer group. The coarse set takes
    ``_COARSE_SHARE`` of every group's angles and the coarse Gauss orders on
    the same panels, so an under-resolution of any group shows in the check.
    These whole arrays are for callers that want them; the package's
    functionals walk each set by blocks instead, in the same order, and a
    callable's contraction receives these nodes and weights; only an atom
    group of the set's center is contracted on proxy rows in place of the
    geometric panels (:func:`_proxy_count`).
    """
    blocks = list(_blocks(_polar_set(center, reach, degree, coarse), np.ones_like))
    return (np.concatenate([zeta.ravel() for _, zeta, _ in blocks]),
            np.concatenate([values.real.ravel() for *_, values in blocks]))


class _AtomGroup(NamedTuple):
    """The atoms of one center, their coefficients summed per kind: called
    on points, the sum of their values; on the center's own polar set,
    evaluated from the set's factors (:func:`_blocks`). There ``zeta - a =
    s rho e^{i theta}`` and the weight ``(ws s) (2 rho^2 / n)`` cancels a
    pole's ``1 / (s rho)`` (Duffy), so the weighted values are three rank-one
    products of radial factors (:func:`_panel_rows`) and the
    :meth:`angular` ones: ``log (ws s log s) (2 rho^2 / n) + log (ws s) (2
    rho^2 log rho / n) + ws (2 rho / n) (pole e^{-i theta} + conjpole e^{i
    theta})``."""

    center: complex
    log: complex
    pole: complex
    conjpole: complex

    def __call__(self, z):
        d = np.asarray(z, dtype=np.complex128) - self.center
        out = np.zeros_like(d)
        if self.log:
            out += self.log * np.log(np.abs(d))
        if self.pole:
            out += self.pole / d
        if self.conjpole:
            out += self.conjpole / np.conj(d)
        return out

    def angular(self, ray, rho, width):
        """The three angular factors, coefficients included, at angles with
        ``e^{i theta}`` of ``ray``, ``rho_max`` of ``rho`` and trapezoid
        width ``width`` (:func:`_rays`), as the rows of a complex ``(3,
        angles)`` array."""
        area = rho * rho * width
        return np.stack([self.log * area, self.log * (area * np.log(rho)),
                         (rho * width) * (self.pole * np.conj(ray) + self.conjpole * ray)])


def _blocks(node_set: _NodeSet, integrand):
    """The contracted set of ``node_set`` as blocks ``(group, zeta,
    values)``: a run of whole rows of one panel group, the geometric panels
    first (``group`` 0), then each outer group, with the nodes ``zeta`` and
    the weighted values of the integrand, both complex ``(rows, angles)``
    arrays of at most one kernel tile, ``_kernels._NODE_BLOCK`` nodes (one
    row, if a row alone has more).

    The angle factors (:func:`_rays`, and the atoms'
    :meth:`_AtomGroup.angular`) are formed once per group. An
    :class:`_AtomGroup` of the set's own center is evaluated from the
    factors: each block's values are one ``(rows, 3)`` by ``(3, angles)``
    product of radial and angular factors, and its geometric panels are the
    proxy rows, whose radial factors are ``E^T`` of the Gauss rows', so
    their Gauss rows are never built. Any other callable is evaluated on
    each block's nodes, the Gauss rows of every group, times the weights.
    """
    center, rows, proxies, proxy_radial = node_set
    factored = isinstance(integrand, _AtomGroup) and integrand.center == center
    for group, (s, ws, radial, angles) in enumerate(rows):
        ray, rho, width = _rays(center, angles)
        arm, area = rho * ray, rho * rho * width
        if factored:
            angular = integrand.angular(ray, rho, width).view(np.float64)
            if group == 0:
                s, radial = proxies, proxy_radial
        step = max(1, _kernels._NODE_BLOCK // angles)
        for start in range(0, len(s), step):
            band = slice(start, start + step)
            zeta = center + s[band, None] * arm
            if factored:
                block = (radial[band] @ angular).view(np.complex128)
            else:
                block = np.multiply(integrand(zeta), (ws * s)[band, None] * area,
                                    dtype=np.complex128)
            yield group, zeta, block


def _contract(node_set: _NodeSet, integrand, points, functional):
    """``functional(rows)``, a running contraction (``_kernels.KernelSum``
    and the like), of each run of points of :func:`_point_runs`, fed every
    ``t``-th angle of each block of its panel group as the walk
    (:func:`_blocks`) yields it, as views of the block, with the values
    (which carry the weights) times ``t``: every ``t``-th of ``n`` uniform
    angles is the trapezoid rule with ``n / t``. Runs of the same points in
    several panel groups share one contraction. Returns each point's sum
    over its runs, in point order, and the set's ``sum |values|``. One run
    of every point with stride 1 in every group is the whole set."""
    order, runs = points
    spans = dict.fromkeys((start, end) for group in runs for start, end, _ in group)
    totals = {(start, end): functional(order[start:end]) for start, end in spans}
    feeds = [[(totals[start, end], t) for start, end, t in group]
             for _, group in zip(node_set.rows, runs, strict=True)]
    scale = 0.0
    for group, zeta, values in _blocks(node_set, integrand):
        scale += float(np.sum(np.abs(values)))
        for total, t in feeds[group]:
            if t == 1:
                total.add(zeta, values)
            else:
                total.add(zeta[:, ::t], values[:, ::t] * t)
    out = None
    for (start, end), total in totals.items():
        part = total.result()
        if out is None:
            out = np.zeros((len(order),) + part.shape[1:], part.dtype)
        out[order[start:end]] += part
    return out, scale


#: Fine-vs-coarse deviation, per unit of the part's ``sum |values|`` on its
#: fine set, above which a singular integral is rejected (:func:`_refined`).
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


def _point_runs(reaches, layout_at):
    """The points of moduli ``reaches`` as runs of each panel group of the
    node set of ``layout_at(max(reaches))``: ``(order, runs)``, with
    ``order`` the points sorted by reach and ``runs[g]`` the runs ``(start,
    end, t)`` of group ``g``, each the points ``order[start:end]`` with
    angle stride ``t`` there. A point's stride in each group is
    :func:`_angle_strides` against ``layout_at`` of its own reach, on the
    set's panels, found once per distinct reach (sorted moduli less than
    1e-12 apart are one reach, at the largest of them). In each group the
    points of one stride form a run, and a run of fewer than
    ``_kernels._POINT_BLOCK`` points joins the next one outward (the
    outermost joins the one inward of it) and takes the smaller stride.
    Strides do not grow with the reach, so a group's runs take distinct
    strides. A call on fewer than ``2 _POINT_BLOCK`` points is one run in
    every group, with stride 1 (the points at the largest reach need every
    angle)."""
    layout = layout_at(float(np.max(reaches)))
    if len(reaches) < 2 * _kernels._POINT_BLOCK:
        return np.arange(len(reaches)), [[(0, len(reaches), 1)]] * len(layout)
    order = np.argsort(reaches, kind="stable")
    # moduli less than 1e-12 apart are one reach, as near the base reach,
    # and take the need of the largest of them: the CLI points' 10 radii
    # come as 31 distinct moduli, each of which cost one layout
    ends = np.flatnonzero(np.diff(reaches[order]) > 1e-12).tolist() + [len(reaches) - 1]
    patterns, strides = {}, []
    for modulus in reaches[order[ends]].tolist():
        need = layout_at(modulus)
        if need not in patterns:
            patterns[need] = _angle_strides(layout, need)
        strides.append(patterns[need])
    runs = []
    for own in zip(*strides):
        group = []
        for end, t in zip((e + 1 for e in ends), own):
            start = group[-1][1] if group else 0
            if group and (group[-1][2] == t or start - group[-1][0] < _kernels._POINT_BLOCK):
                start, _, joined = group.pop()
                t = min(joined, t)
            group.append((start, end, t))
        if len(group) > 1 and len(reaches) - group[-1][0] < _kernels._POINT_BLOCK:
            _, end, outer = group.pop()
            start, _, t = group.pop()
            group.append((start, end, min(t, outer)))
        runs.append(group)
    return order, runs


def _refined(node_set, points, integrand, functional, *, check: bool, what: str):
    """The contraction (:func:`_contract`) of ``node_set(coarse=False)``, a
    :class:`_NodeSet`, for the runs of points ``points`` (:func:`_point_runs`).

    With ``check`` the same is recomputed on ``node_set(coarse=True)``; a
    deviation at any point above ``_REFINEMENT_TOL`` times the fine set's
    ``sum |values|``, the part's own scale, raises NonConvergence naming
    ``what``. So ``u`` and ``c u`` pass or fail together, whatever ``c``.
    """
    fine, scale = _contract(node_set(coarse=False), integrand, points, functional)
    if check:
        coarse, _ = _contract(node_set(coarse=True), integrand, points, functional)
        delta = float(np.max(np.abs(fine - coarse)))
        if delta > _REFINEMENT_TOL * scale:
            raise NonConvergence(
                f"{what} refinement mismatch {delta:.3e} against sum |values| {scale:.3e}")
    return fine


def disk_integrate_singular(f, center) -> complex:
    """Integral of a callable with a log or simple-pole singularity at
    ``center``, on that center's polar set for the base reach
    (:func:`integrate_parts`); a ``center`` of ``None`` raises DomainError
    (a smooth integrand declares center 0).

    The value is recomputed on the coarse polar set; a discrepancy above
    1e-6 times the integral's ``sum |values|`` raises NonConvergence.
    """
    if center is None:
        raise DomainError(
            "a singular integral needs a center; a smooth integrand declares center 0")
    # the kernel sum at z = 0, where the kernel is 1 at every node
    origin = _kernels.point_table([0j])
    return complex(integrate_parts(f, lambda rows: _kernels.KernelSum(origin), [_BASE_REACH],
                                   center, check=True, what="singular quadrature")[0])


def symbol_parts(u: Symbol):
    """The atoms of ``u`` as ``(center, integrand)`` parts, one per exact
    center in order of first appearance, so each group integrates once on
    that center's polar set (:func:`polar_nodes`); the integrand is an
    :class:`_AtomGroup`, the center's coefficients summed per kind, which
    that set evaluates from its factors. The harmonic part is not a part:
    the transform fixes it, so the callers add its exact value
    (:func:`berezin_numeric`) or moments (``rank.weighted_monomial_moments``).
    """
    by_center: dict[complex, dict] = {}
    for atom in u.atoms:
        coeffs = by_center.setdefault(atom.center, dict.fromkeys(("log", "pole", "conjpole"), 0j))
        coeffs[atom.kind] += atom.coeff
    return [(center, _AtomGroup(center, **coeffs)) for center, coeffs in by_center.items()]


def integrate_parts(u, functional, reaches, center=None, *, degree: int = 0,
                    check: bool, what: str):
    """Sum over the node sets of ``u`` of a functional with one output per
    entry of ``reaches``, whose pole for output ``i`` lies beyond ``|z| =
    reaches[i]`` (0: none), and whose own angular degree is ``degree``.
    ``functional(rows)`` starts a running contraction of the outputs
    ``rows``: its ``add(nodes, values)`` takes the blocks of a set, nodes
    and ``u(nodes) * weights``, and its ``result()`` returns the outputs
    along its first axis (``_kernels.KernelSum`` and ``MonomialMoments``).
    For the transform the outputs are its points and the reaches their
    moduli; a functional of no points (moments, an integral) is one output.

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
    reach gives the group on the set's panels (:func:`_point_runs`); a
    symbol's atom groups are contracted on the proxy rows of the geometric
    panels that the largest reach, or without a pole the ``degree``, asks
    for (:func:`_proxy_count`), and a callable on their Gauss rows. Each
    set is walked block by block (:func:`_blocks`), and each block is
    contracted against every run of outputs of its panel group, so no array
    of a set's size is built; the atoms of a symbol are evaluated from the
    set's factors. With ``check`` each part is recomputed on its coarse set
    and compared at the scale of its own values (:func:`_refined`). Returns
    zeros, one per output, when ``u`` has no parts.
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
        total = total + _refined(node_set, _point_runs(reaches, layout_at),
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
    refinement check, 1e-6 of the part's ``sum |values|``, guards each
    summed contribution at every point.
    The polar sets follow the points' reach ``max |z|``
    (:func:`_polar_layout`), and each point is contracted against as many
    of each panel group's angles as its own ``|z|`` needs
    (:func:`_point_runs`); the points at the reach take
    every angle. A symbol's geometric panels are contracted on their proxy
    rows (:func:`_proxy_count`), a callable's on their Gauss rows. A
    non-finite point raises DomainError and a point beyond
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

    table = _kernels.point_table(zs)
    out = np.zeros(len(zs), dtype=np.complex128) + integrate_parts(
        u, lambda rows: _kernels.KernelSum(table[rows]),
        mags, center, check=True, what="numeric transform")
    if isinstance(u, Symbol):
        out += u.harmonic(zs)

    return complex(out[0]) if np.ndim(z) == 0 else out.reshape(np.shape(z))
