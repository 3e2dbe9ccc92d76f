"""Quadrature over the unit disk with the normalized area measure.

The measure convention throughout is ``dA = dx dy / pi`` so the disk has
measure one. The base rule is a polar tensor product: Gauss-Legendre in
``t = r^2`` (which makes the radial weight trivial) and uniform angles
(trapezoid, spectrally accurate for periodic integrands).

Integrands with log or first-order-pole singularities at declared interior
centers are handled by a partition of unity: a radial cutoff around each
center routes the singular mass to a local polar patch graded
geometrically (ratio 1/2) toward the center, while the complement is
integrated by a composite version of the global rule whose radial panels
have edges wherever the rings start or stop meeting a cutoff join. Each
radial panel carries its own angular count, decided in one place,
:func:`_panel_layout`. Panels clear of the patches resolve the centers'
singularities at their distance (the trapezoid error on a ring decays
geometrically in the ring ratio to the nearest center), never below the
plain rule's count. Panels that meet a patch resolve its cutoff
transition, which spans only an arc about ``2 d / |c|`` wide: their rings
keep uniform points in a mapped angle that clusters them on that arc,
where that takes fewer points than uniform angles. Each patch takes the
fixed angular count that resolves the kernel's pole, which lies at ratio
2.5 or more from every patch circle. The coarse check set takes a fixed
smaller share of every panel's count, under the same maps, and the
coarse member of every fixed ``(fine, coarse)`` size pair, so an
under-resolution shows as a fine-vs-coarse deviation. The resulting
node/weight set is fixed per plan, so one set serves a whole family of
integrands; :func:`integrate_parts` runs a functional of a symbol or of a
callable over those sets.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import ceil, comb

import numpy as np

from berezin import _kernels
from berezin.errors import DomainError, NonConvergence, OutOfRange
from berezin.symbols import Symbol

#: Default rule sizes: 64 radial Gauss points, 256 uniform angles.
DEFAULT_RADIAL = 64
DEFAULT_ANGULAR = 256

#: Radial cutoff profile: identically 1 up to this fraction of the patch
#: radius, then a degree-19 (C^9) polynomial step down to 0 at the radius.
_TRANSITION_START = 0.45

#: Target number of angular points across the cutoff transition, at the
#: outer radius of each panel that meets a patch.
_POINTS_ACROSS = 20

#: Points each near center's bump adds to a clustered ring. A bump as wide
#: as the patch arc then puts ``_POINTS_ACROSS`` points across the cutoff
#: transition at the arc's edge.
_BUMP_POINTS = ceil(2.0 * np.pi * _POINTS_ACROSS / (1.0 - _TRANSITION_START))

#: Hard cap on the composite angular count (keeps pathological plans finite).
_MAX_ANGULAR = 8192

#: A radial panel meets a patch when it overlaps the patch annulus
#: ``|c| - d <= r <= |c| + d`` widened to this multiple of the radius ``d``.
_NEAR_MARGIN = 1.05

#: The ring count makes ``rho**n`` at most ``exp(-_RING_DECAY)`` = 1e-13.
_RING_DECAY = np.log(1e13)

#: Share of each panel's angular count that the coarse check set takes.
_COARSE_SHARE = 0.75

#: A patch radius is at most this fraction of its center's distance to the
#: boundary and to every other center.
_PATCH_FRACTION = 0.4

#: Sizes of the fine node set and of the coarse check set, as
#: ``(fine, coarse)``: Gauss points per radial panel of the global rule,
#: geometric (ratio 1/2) radial panels toward each center, Gauss points per
#: patch panel, and patch angles. On a patch circle the kernel's pole
#: (beyond the unit circle) and every other center lie at ratio
#: ``1 / _PATCH_FRACTION`` = 2.5 or more, so ``ceil(_RING_DECAY / ln 2.5)``
#: = 33 angles resolve them; 48 is 33 over the coarse share rounded up to
#: 16, so that the coarse patch's ``int(_COARSE_SHARE * 48)`` = 36 still does.
_GLOBAL_GAUSS = (20, 14)
_PATCH_DEPTH = (12, 9)
_PATCH_GAUSS = (16, 12)
_PATCH_ANGULAR = (48, 36)

_SMOOTH_ORDER = 9  # C^9 smoothstep


@lru_cache(maxsize=None)
def _leggauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _gauss(n: int, lo: float, hi: float):
    x, w = _leggauss(n)
    return 0.5 * (hi - lo) * x + 0.5 * (hi + lo), 0.5 * (hi - lo) * w


@lru_cache(maxsize=None)
def _smoothstep_coeffs(order: int) -> tuple[float, ...]:
    return tuple(
        comb(order + k, k) * comb(2 * order + 1, order - k) * (-1.0) ** k
        for k in range(order + 1)
    )


def _smoothstep(x: np.ndarray) -> np.ndarray:
    """C^9 monotone step: 0 for x <= 0, 1 for x >= 1."""
    x = np.clip(x, 0.0, 1.0)
    acc = np.zeros_like(x)
    for c in reversed(_smoothstep_coeffs(_SMOOTH_ORDER)):
        acc = acc * x + c
    return acc * x ** (_SMOOTH_ORDER + 1)


def _cutoff(s: np.ndarray, radius: float) -> np.ndarray:
    """Radial partition-of-unity profile: 1 near the center, 0 beyond radius."""
    lo = _TRANSITION_START * radius
    return 1.0 - _smoothstep((s - lo) / (radius - lo))


@dataclass(frozen=True)
class QuadratureRule:
    """Polar tensor rule: Gauss-Legendre on t = r^2 in (0,1) x uniform angles."""

    radial_nodes: np.ndarray
    radial_weights: np.ndarray
    angular_count: int

    @classmethod
    def build(cls, radial: int = DEFAULT_RADIAL, angular: int = DEFAULT_ANGULAR) -> "QuadratureRule":
        if radial < 8 or angular < 8:
            raise DomainError("rule sizes must be >= 8")
        t, w = _gauss(int(radial), 0.0, 1.0)
        t.setflags(write=False)
        w.setflags(write=False)
        return cls(radial_nodes=t, radial_weights=w, angular_count=int(angular))

    @property
    def radial_count(self) -> int:
        return len(self.radial_nodes)

    def is_default_size(self) -> bool:
        return self.radial_count <= DEFAULT_RADIAL and self.angular_count <= DEFAULT_ANGULAR

    def nodes(self):
        """Node array (complex) and weight array for the plain disk rule."""
        theta = 2.0 * np.pi * np.arange(self.angular_count) / self.angular_count
        r = np.sqrt(self.radial_nodes)
        z = (r[:, None] * np.exp(1j * theta)[None, :]).ravel()
        w = np.repeat(self.radial_weights / self.angular_count, self.angular_count)
        return z, w


@dataclass(frozen=True)
class SingularityPlan:
    """Declared singular centers: inside ``|c| < 0.97`` and at least 1e-3
    apart. The patches around them are graded by the fixed
    ``(fine, coarse)`` size constants."""

    centers: tuple[complex, ...] = ()

    def __post_init__(self):
        centers = tuple(complex(c) for c in self.centers)
        for c in centers:
            if abs(c) >= 0.97:
                raise DomainError(f"singular center too close to the boundary: |{c}|={abs(c):.4f}")
        for i in range(len(centers)):
            for j in range(i + 1, len(centers)):
                if abs(centers[i] - centers[j]) < 1e-3:
                    raise DomainError("singular centers closer than 1e-3 are not resolvable")
        object.__setattr__(self, "centers", centers)


def plan_for_symbol(s: Symbol) -> SingularityPlan:
    """Plan whose centers are the distinct atom centers of ``s``."""
    centers: list[complex] = []
    for atom in s.atoms:
        if all(abs(atom.center - c) > 1e-12 for c in centers):
            centers.append(atom.center)
    return SingularityPlan(centers=tuple(centers))


def _patch_radii(centers) -> np.ndarray:
    radii = []
    for i, c in enumerate(centers):
        sep = min(
            (abs(c - d) for j, d in enumerate(centers) if j != i),
            default=np.inf,
        )
        radii.append(min(_PATCH_FRACTION * sep, _PATCH_FRACTION * (1.0 - abs(c)), 0.35))
    return np.asarray(radii)


def _radial_panels(centers, radii):
    """Radial sub-panels ``(lo, hi)`` in ``t = r^2`` aligned to the cutoff annuli."""
    # breakpoints where the rings start and stop meeting the cutoff joins
    # |z - c| = s of every patch, at r = ||c| - s| and r = |c| + s (a patch
    # that covers the origin has s > |c|)
    cuts = {0.0, 1.0}
    for c, d in zip(centers, radii):
        for s in (d, _TRANSITION_START * d):
            for r in (abs(abs(c) - s), abs(c) + s):
                if 1e-9 < r < 1.0 - 1e-9:
                    cuts.add(r * r)
    edges = sorted(cuts)

    def max_width(lo, hi):
        width = 0.12
        for c, d in zip(centers, radii):
            zone_lo, zone_hi = (abs(c) - 1.3 * d) ** 2, (abs(c) + 1.3 * d) ** 2
            if hi > zone_lo and lo < zone_hi:
                width = min(width, d * max(abs(c), 0.25))
        return width

    panels = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        sub = np.linspace(lo, hi, max(1, ceil((hi - lo) / max_width(lo, hi))) + 1)
        panels.extend(zip(sub[:-1], sub[1:]))
    return panels


def _ring_count(r_lo, r_hi, centers) -> int:
    """Trapezoid count that resolves every center's singularity on the rings
    ``r_lo <= r <= r_hi`` of a panel clear of all patches.

    On the circle of radius ``r`` a log or pole singularity at ``c`` lies at
    imaginary angle ``-ln rho``, ``rho = min(r, |c|) / max(r, |c|)``, so the
    trapezoid error decays like ``rho**n`` (Trefethen and Weideman, SIAM
    Review 56, 2014); the panel edge nearest ``|c|`` has the largest ``rho``.
    """
    count = 0
    for c in centers:
        m = abs(c)
        r = min(max(m, r_lo), r_hi)
        rho = min(r, m) / max(r, m)
        if rho > 0.0:
            count = max(count, ceil(_RING_DECAY / -np.log(rho)))
    return count


def _panel_layout(lo, hi, centers, radii, rule: QuadratureRule):
    """Angular count and angle-map bumps ``(count, bumps)`` of the radial
    panel ``lo <= t <= hi`` of the fine set.

    A panel clear of every patch takes :func:`_ring_count` uniform angles.
    A panel that meets a patch (its annulus widened by ``_NEAR_MARGIN``)
    must carry ``_POINTS_ACROSS`` angles across the narrowest cutoff
    transition it meets, at its outer radius. That transition spans an arc
    only about ``2 d / |c|`` wide, so the rings cluster their angles there
    with one Poisson-kernel bump ``(arg c, s)``, ``s = exp(-d / |c|)``, per
    patch met, whose width matches the arc (:func:`_ring_angles`); such a
    ring takes the plain rule's count as its uniform share plus
    ``_BUMP_POINTS`` per bump. A center's bump is the same on every panel,
    so panels that meet the same patches share one cached map. Where a
    patch covers most of the ring, uniform angles around the whole ring are
    cheaper and the bumps are ``()``. Counts are rounded up to 32; no
    uniform count falls below the plain rule's.
    """
    r_lo, r_hi = np.sqrt(lo), np.sqrt(hi)
    near = [(c, d) for c, d in zip(centers, radii)
            if r_hi > abs(c) - _NEAR_MARGIN * d and r_lo < abs(c) + _NEAR_MARGIN * d]
    if near:
        width = min((1.0 - _TRANSITION_START) * d for _, d in near)
        need = _POINTS_ACROSS * 2.0 * np.pi * r_hi / width
    else:
        need = _ring_count(r_lo, r_hi, centers)
    uniform = min(_MAX_ANGULAR, 32 * ceil(max(rule.angular_count, need) / 32))
    mapped = 32 * ceil((rule.angular_count + _BUMP_POINTS * len(near)) / 32)
    if not near or mapped >= uniform:
        return uniform, ()
    # around a center at the origin the arc is the whole ring: s = 0, a flat bump
    return mapped, tuple((float(np.angle(c)), float(np.exp(-d / abs(c))) if c else 0.0)
                         for c, d in near)


def _poisson_cdf(x, s):
    """``int_0^x`` of the Poisson kernel ``(1 - s^2) / (1 - 2 s cos y + s^2)``."""
    return x + 2.0 * np.arctan2(s * np.sin(x), 1.0 - s * np.cos(x))


@lru_cache(maxsize=128)
def _ring_angles(count: int, uniform: int, bumps: tuple):
    """Angles and weight shares of one ring of ``count`` trapezoid points in
    a mapped angle.

    The map ``phi = F(theta)`` is the normalized CDF of the density
    ``uniform + _BUMP_POINTS * sum_k P_k(theta - alpha_k)`` over the bumps
    ``(alpha_k, s_k)``, with the Poisson kernel
    ``P_k(x) = (1 - s_k^2) / (1 - 2 s_k cos x + s_k^2)``
    (:func:`_poisson_cdf`). The uniform points ``phi_j = 2 pi j / count``
    give the angles ``theta_j = F^-1(phi_j)`` and the shares ``1 / (count F'(theta_j))`` of the ring's weight. F is
    analytic and ``F(theta) - theta`` is periodic, so the trapezoid rule
    stays geometrically convergent (Trefethen and Weideman, SIAM Review
    56, 2014). No bumps: uniform angles. Cached; the arrays are read-only.
    """
    phi = 2.0 * np.pi * np.arange(count) / count
    if not bumps:
        theta, share = phi, np.full(count, 1.0 / count)
    else:
        total = uniform + _BUMP_POINTS * len(bumps)

        def cdf(x):
            """``F(x)`` and ``F'(x)``."""
            value, slope = uniform * x, np.full_like(x, float(uniform))
            for alpha, s in bumps:
                value = value + _BUMP_POINTS * (_poisson_cdf(x - alpha, s) - _poisson_cdf(-alpha, s))
                slope = slope + _BUMP_POINTS * (1.0 - s * s) / (1.0 - 2.0 * s * np.cos(x - alpha) + s * s)
            return value / total, slope / total

        # interpolation on a grid eight times finer than the ring, whose
        # spacing is below the narrowest bump, then Newton steps
        grid = np.linspace(0.0, 2.0 * np.pi, 8 * count + 1)
        theta = np.interp(phi, cdf(grid)[0], grid)
        for _ in range(3):
            value, slope = cdf(theta)
            theta = theta - (value - phi) / slope
        share = 1.0 / (count * cdf(theta)[1])
    theta.setflags(write=False)
    share.setflags(write=False)
    return theta, share


def _composite_global(centers, radii, rule: QuadratureRule, *, coarse: bool):
    """Global polar nodes/weights on the radial panels of :func:`_radial_panels`,
    each laid out by :func:`_panel_layout` and placed by its angle map
    (:func:`_ring_angles`). The coarse set takes ``_COARSE_SHARE`` of every
    count under the same map, so an angular under-resolution of the fine
    set shows up as a fine-vs-coarse deviation."""
    parts_z, parts_w = [], []
    for lo, hi in _radial_panels(centers, radii):
        t, wt = _gauss(_GLOBAL_GAUSS[coarse], lo, hi)
        count, bumps = _panel_layout(lo, hi, centers, radii, rule)
        if coarse:
            count = int(_COARSE_SHARE * count)
        theta, share = _ring_angles(count, rule.angular_count, bumps)
        parts_z.append((np.sqrt(t)[:, None] * np.exp(1j * theta)[None, :]).ravel())
        parts_w.append((wt[:, None] * share[None, :]).ravel())
    z, w = np.concatenate(parts_z), np.concatenate(parts_w)
    for c, d in zip(centers, radii):
        w = w * (1.0 - _cutoff(np.abs(z - c), d))
    keep = w != 0.0
    return z[keep], w[keep]


def _local_patch(center, radius, *, depth, gauss_order, angular):
    """Graded polar patch around one center carrying the cutoff weight."""
    inner = _TRANSITION_START * radius
    edges = [radius, inner]
    for j in range(1, depth):
        edges.append(inner * 0.5 ** j)
    edges.append(0.0)
    s_nodes, s_weights = [], []
    for hi, lo in zip(edges[:-1], edges[1:]):
        x, w = _gauss(gauss_order, lo, hi)
        s_nodes.append(x)
        s_weights.append(w)
    s = np.concatenate(s_nodes)
    ws = np.concatenate(s_weights) * s * _cutoff(s, radius)

    psi = 2.0 * np.pi * np.arange(angular) / angular
    z = (center + s[:, None] * np.exp(1j * psi)[None, :]).ravel()
    w = np.repeat(ws * 2.0 / angular, angular)
    return z, w


@lru_cache(maxsize=8)
def _singular_nodes_cached(centers, radial, angular, coarse):
    rule = QuadratureRule.build(radial, angular)
    if not centers:
        if coarse:
            rule = QuadratureRule.build(max(8, (3 * radial) // 4), max(8, (3 * angular) // 4))
        z, w = rule.nodes()
        z.setflags(write=False)
        w.setflags(write=False)
        return z, w
    radii = _patch_radii(centers)
    gz, gw = _composite_global(centers, radii, rule, coarse=coarse)
    parts_z, parts_w = [gz], [gw]
    for c, d in zip(centers, radii):
        lz, lw = _local_patch(c, d, depth=_PATCH_DEPTH[coarse], gauss_order=_PATCH_GAUSS[coarse],
                              angular=_PATCH_ANGULAR[coarse])
        parts_z.append(lz)
        parts_w.append(lw)
    z, w = np.concatenate(parts_z), np.concatenate(parts_w)
    z.setflags(write=False)
    w.setflags(write=False)
    return z, w


def singular_nodes(plan: SingularityPlan, rule: QuadratureRule, *, coarse: bool = False):
    """Fixed node/weight set for the plan; ``coarse`` builds the check variant.

    Cached per (plan, rule size) since construction is pure.
    """
    return _singular_nodes_cached(plan.centers, rule.radial_count, rule.angular_count,
                                  bool(coarse))


def disk_integrate(f, rule: QuadratureRule | None = None) -> complex:
    """Integral of a smooth integrand over the disk with dA = dx dy / pi.

    Exact (to roundoff) for bidegree polynomials of radial degree at most
    ``2 * radial - 1`` and angular degree at most ``angular - 2``.
    """
    rule = rule or QuadratureRule.build()
    z, w = rule.nodes()
    return complex(np.sum(w * np.asarray(f(z), dtype=np.complex128)))


#: Fine-vs-coarse deviation above which a singular integral is rejected.
_REFINEMENT_TOL = 1e-6


def _refined(plan: SingularityPlan, rule: QuadratureRule, integrand, functional,
             *, check: bool, what: str):
    """``functional(nodes, integrand(nodes) * weights)`` on the plan's node set.

    With ``check`` the functional is recomputed on the coarse node set; a
    deviation above 1e-6 raises NonConvergence naming ``what``.
    """
    z, w = singular_nodes(plan, rule)
    fine = functional(z, np.asarray(integrand(z), dtype=np.complex128) * w)
    if check:
        cz, cw = singular_nodes(plan, rule, coarse=True)
        coarse = functional(cz, np.asarray(integrand(cz), dtype=np.complex128) * cw)
        delta = float(np.max(np.abs(fine - coarse)))
        if delta > _REFINEMENT_TOL:
            raise NonConvergence(f"{what} refinement mismatch {delta:.3e}")
    return fine


def disk_integrate_singular(f, plan: SingularityPlan, rule: QuadratureRule | None = None,
                            *, check: bool = True) -> complex:
    """Integral of an integrand with log/simple-pole singularities at the
    plan's centers.

    With ``check=True`` the value is recomputed on an independently coarser
    node set; a discrepancy above 1e-6 raises NonConvergence.
    """
    return complex(_refined(plan, rule or QuadratureRule.build(), f,
                            lambda z, values: np.sum(values),
                            check=check, what="singular quadrature"))


def _symbol_parts(u: Symbol):
    """Split ``u`` by linearity into ``(plan, integrand)`` parts.

    The harmonic part, when nonzero, runs on the plain rule. The atoms are
    grouped by their exact center, the node-set cache key, so each group
    integrates once on that center's node set.
    """
    parts = []
    if not (u.holo.is_zero() and u.anti.is_zero()):
        parts.append((SingularityPlan(), lambda z: u.holo.eval(z) + np.conj(u.anti.eval(z))))
    by_center: dict[complex, list] = {}
    for atom in u.atoms:
        by_center.setdefault(atom.center, []).append(atom)
    for center, atoms in by_center.items():
        parts.append((SingularityPlan(centers=(center,)),
                      lambda z, atoms=atoms: sum(atom.eval(z) for atom in atoms)))
    return parts


def integrate_parts(u, functional, rule: QuadratureRule,
                    plan: SingularityPlan | None = None, *, check: bool, what: str):
    """Sum of ``functional(nodes, u(nodes) * weights)`` over the node sets of ``u``.

    A :class:`Symbol` splits as :func:`_symbol_parts` does and declares its
    own centers, so passing a ``plan`` with one raises DomainError. Any
    other callable runs on the node set of ``plan`` (the plain rule when
    ``None``). With ``check`` every part with centers is recomputed on the
    coarse node set (:func:`_refined`); the plain rule is not checked.
    Returns ``0.0`` when ``u`` has no parts.
    """
    if isinstance(u, Symbol):
        if plan is not None:
            raise DomainError("a symbol declares its own singular centers; pass no plan")
        parts = _symbol_parts(u)
    else:
        parts = [(plan or SingularityPlan(), u)]
    total = 0.0
    for part_plan, integrand in parts:
        total = total + _refined(part_plan, rule, integrand, functional,
                                 check=check and bool(part_plan.centers), what=what)
    return total


# ---------------------------------------------------------------------------
# Numeric Berezin transform
# ---------------------------------------------------------------------------

def _check_eval_points(zs: np.ndarray, rule: QuadratureRule):
    mags = np.abs(zs)
    if np.any(mags >= 0.999):
        raise OutOfRange("numeric transform needs |z| < 0.999")
    if np.any(mags > 0.9 + 1e-12) and rule.is_default_size():
        raise OutOfRange(
            "|z| > 0.9 exceeds the default rule's resolution; pass a denser rule"
        )


def berezin_numeric(u, z, rule: QuadratureRule | None = None,
                    plan: SingularityPlan | None = None, *, check: bool = True):
    """Numeric Berezin transform ``B(u)(z)`` by quadrature.

    ``u`` may be a :class:`Symbol` or any callable mapping a node array to
    values whose singularities are declared via ``plan``; a symbol declares
    its own, and a symbol with a ``plan`` raises DomainError. A symbol
    splits as :func:`_symbol_parts` does: the harmonic part on the plain
    rule, the atoms of each distinct center together on that center's
    singular node set (:func:`integrate_parts`). With ``check`` each
    singular part is recomputed on the coarse node set, so the 1e-6
    refinement check guards each center's summed contribution. ``z`` may
    be a scalar or an array; the result matches its shape.
    """
    rule = rule or QuadratureRule.build()
    zs = np.atleast_1d(np.asarray(z, dtype=np.complex128)).ravel()
    _check_eval_points(zs, rule)

    out = np.zeros(len(zs), dtype=np.complex128) + integrate_parts(
        u, lambda nodes, values: _kernels.kernel_sum(nodes, values, zs), rule, plan,
        check=check, what="numeric transform")

    zarr = np.asarray(z, dtype=np.complex128)
    return complex(out[0]) if zarr.ndim == 0 else out.reshape(zarr.shape)
