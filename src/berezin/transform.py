"""Exact Berezin transforms on the atomic symbol basis.

Summable harmonic functions are fixed points of the transform, so the
harmonic part embeds directly into row 0 / column 0 of the coefficient
grid. The atoms have closed-form transforms built from the automorphism
``phi_a`` (written ``phi`` below, ``phib`` for its conjugate):

* ``ln|z - a|``        ->  ``(phi*phib - 1)/2 + ln|1 - conj(a) z|``
* ``1/(z - a)``        ->  ``(conj(a) + 2*phib - phi*phib^2) / (1 - |a|^2)``
* ``1/conj(z - a)``    ->  the index-swapped conjugate of the pole grid

The paired log difference ``2(ln|z-a| - ln|1-conj(a) z|)`` therefore
transforms to ``phi*phib - 1``; adding the constant symbol 1 yields the
pure product ``phi*phib`` (the rank-one building block). This constant
normalization was pinned against the quadrature oracle.

:func:`symbol_values` evaluates these closed forms pointwise;
:func:`symbol_transform` builds the truncated coefficient grid that the
rank, moment, fitting and factoring layers work on.
"""
from __future__ import annotations

import numpy as np

from berezin.core import (
    DEFAULT_TRUNCATION,
    BidegreeSeries,
    DiskAutomorphism,
    PowerSeries,
    log_one_minus_series,
    mobius_eval,
    mobius_inverse,
    mobius_power_series,
    require_finite,
)
from berezin.errors import DomainError
from berezin.quadrature import berezin_numeric, symbol_parts
from berezin.symbols import NodeForm, Symbol, canonicalize


def harmonic_transform(holo: PowerSeries, anti: PowerSeries,
                       truncation: int = DEFAULT_TRUNCATION) -> BidegreeSeries:
    """Grid of ``K + conj(L)``: harmonic functions are transform fixed points.

    Requires the normalization ``L(0) = 0``.
    """
    if anti.coeffs[0] != 0:
        raise DomainError("harmonic part must be normalized with L(0) = 0")
    m = max(truncation, holo.truncation, anti.truncation)
    grid = np.zeros((m + 1, m + 1), dtype=np.complex128)
    grid[: len(holo.coeffs), 0] += holo.coeffs
    grid[0, : len(anti.coeffs)] += np.conj(anti.coeffs)
    return BidegreeSeries(grid)


def log_atom_transform(a: complex, truncation: int = DEFAULT_TRUNCATION) -> BidegreeSeries:
    """Grid of the transform of ``ln|z - a|``."""
    a = require_finite(a, "center")
    t = mobius_power_series(a, 1, truncation)
    grid = 0.5 * np.outer(t.coeffs, np.conj(t.coeffs))
    grid[0, 0] -= 0.5
    # harmonic tail ln|1 - conj(a) z| = (log-series + its conjugate)/2
    ell = log_one_minus_series(np.conj(a), truncation)
    grid[:, 0] += 0.5 * ell.coeffs
    grid[0, :] += 0.5 * np.conj(ell.coeffs)
    return BidegreeSeries(grid)


def pole_atom_transform(a: complex, truncation: int = DEFAULT_TRUNCATION) -> BidegreeSeries:
    """Grid of the transform of ``1/(z - a)``."""
    a = require_finite(a, "center")
    t1 = mobius_power_series(a, 1, truncation)
    t2 = mobius_power_series(a, 2, truncation)
    grid = -np.outer(t1.coeffs, np.conj(t2.coeffs))
    grid[0, 0] += np.conj(a)
    grid[0, :] += 2.0 * np.conj(t1.coeffs)
    return BidegreeSeries(grid / (1.0 - abs(a) ** 2))


def conj_pole_atom_transform(a: complex, truncation: int = DEFAULT_TRUNCATION) -> BidegreeSeries:
    """Grid of the transform of ``1/conj(z - a)``."""
    return pole_atom_transform(a, truncation).conjugate()


_ATOM_GRIDS = {
    "log": log_atom_transform,
    "pole": pole_atom_transform,
    "conjpole": conj_pole_atom_transform,
}


def symbol_transform(s: Symbol, truncation: int = DEFAULT_TRUNCATION) -> BidegreeSeries:
    """Exact transform grid of a symbol, assembled by linearity."""
    s = canonicalize(s)
    grid = harmonic_transform(s.holo, s.anti, truncation)
    for atom in s.atoms:
        grid = grid + _ATOM_GRIDS[atom.kind](atom.center, truncation) * atom.coeff
    return grid


def symbol_values(s: Symbol, z):
    """Exact transform of a symbol at ``z`` (scalar or array, ``|z| < 1``).

    Evaluates the closed forms of the module docstring directly: the
    harmonic part ``K(z) + conj(L(z))`` plus, per atom, a rational function
    of ``phi_a(z)`` and its conjugate (plus ``ln|1 - conj(a) z|`` for a log
    atom). Nothing is truncated, so unlike ``symbol_transform(s).eval(z)``
    the values stay exact for centers and points near the boundary.
    """
    zarr = np.asarray(z, dtype=np.complex128)
    if np.any(np.abs(zarr) >= 1.0):
        raise DomainError("symbol_values requires |z| < 1")
    out = s.harmonic(zarr)
    for atom in s.atoms:
        a = atom.center
        den = 1.0 - np.conj(a) * zarr
        phi = (zarr - a) / den
        phib = np.conj(phi)
        if atom.kind == "log":
            value = (phi * phib - 1.0) / 2.0 + np.log(np.abs(den))
        elif atom.kind == "pole":
            value = (np.conj(a) + 2.0 * phib - phi * phib ** 2) / (1.0 - abs(a) ** 2)
        else:
            value = (a + 2.0 * phi - phi ** 2 * phib) / (1.0 - abs(a) ** 2)
        out = out + atom.coeff * value
    return complex(out) if zarr.ndim == 0 else out


def product_grid(a: complex, holo_power: int, anti_power: int,
                 truncation: int = DEFAULT_TRUNCATION) -> BidegreeSeries:
    """Grid of ``phi_a^j * conj(phi_a)^k`` (an outer product, rank one)."""
    f = mobius_power_series(a, holo_power, truncation)
    g = mobius_power_series(a, anti_power, truncation)
    return BidegreeSeries.outer(f, g)


def node_form_transform(form: NodeForm, truncation: int = DEFAULT_TRUNCATION) -> BidegreeSeries:
    """Exact transform grid of a canonical node form."""
    grid = harmonic_transform(form.holo, form.anti, truncation)
    for (a, c11, c21, c12) in form.nodes:
        if c11 != 0:
            grid = grid + product_grid(a, 1, 1, truncation) * c11
        if c21 != 0:
            grid = grid + product_grid(a, 2, 1, truncation) * c21
        if c12 != 0:
            grid = grid + product_grid(a, 1, 2, truncation) * c12
    return grid


def covariance_residual(s: Symbol, a: complex, z: complex) -> float:
    """Deviation from Moebius covariance at one point.

    Compares the numeric transform of the composed function
    ``w -> s(phi_a(w))`` at ``z`` against the exact transform of ``s`` at
    ``phi_a(z)`` (:func:`symbol_values`). The composition is split by
    linearity along :func:`quadrature.symbol_parts`: each atom group of
    ``s``, composed with ``phi_a``, is integrated purely as a callable whose
    singular center is the preimage of the group's center under ``phi_a``,
    and the harmonic part composed with ``phi_a`` as a callable with no
    center, on the plain rule. Neither the covariance identity nor the
    fixed-point property is used, so the check stays independent of the
    closed forms.
    """
    a = require_finite(a, "automorphism parameter")
    z = require_finite(z, "evaluation point")
    if abs(a) > 0.8 or abs(z) > 0.8:
        raise DomainError("covariance check needs |a| <= 0.8 and |z| <= 0.8")
    phi = DiskAutomorphism(a)
    inverse = mobius_inverse(phi)
    parts = [(inverse(center), part) for center, part in symbol_parts(s)]
    if not (s.holo.is_zero() and s.anti.is_zero()):
        parts.append((None, s.harmonic))
    numeric = sum(berezin_numeric(lambda w, part=part: part(mobius_eval(phi, w)), z, center)
                  for center, part in parts)
    exact = symbol_values(s, mobius_eval(phi, z))
    return abs(numeric - exact)
