"""Exact Berezin transforms on the atomic symbol basis.

Summable harmonic functions are fixed points of the transform, so the
harmonic part embeds directly into row 0 / column 0 of the coefficient
grid. Every atom is a multiple of the atom of one automorphism product's
preimage (the one table :func:`symbols._product_law`) plus a harmonic
function, so every exact grid is a node form's: the harmonic edges plus
``S^T C conj(S)`` (:func:`node_series`). With ``phi = phi_a``, ``phib``
its conjugate, the closed forms that :func:`symbol_values` evaluates are

* ``ln|z - a|``        ->  ``(phi*phib - 1)/2 + ln|1 - conj(a) z|``
* ``1/(z - a)``        ->  ``(conj(a) + 2*phib - phi*phib^2) / (1 - |a|^2)``
* ``1/conj(z - a)``    ->  the complex conjugate of the pole's

(log, pole and conjugate pole go through ``phi*phib``, ``phi*phib^2`` and
``phi^2*phib``). The paired log difference ``2(ln|z-a| - ln|1-conj(a) z|)``
transforms to ``phi*phib - 1``; this normalization was pinned by quadrature.
"""
from __future__ import annotations

import numpy as np

from berezin.core import (
    DEFAULT_TRUNCATION,
    BidegreeSeries,
    DiskAutomorphism,
    PowerSeries,
    _check_truncation,
    mobius_eval,
    mobius_inverse,
    mobius_power_series,
    require_finite,
)
from berezin.errors import DomainError
from berezin.quadrature import berezin_numeric, symbol_parts
from berezin.symbols import _PRODUCTS, NodeForm, Symbol, _canonical, _product_law


def harmonic_transform(holo: PowerSeries, anti: PowerSeries,
                       truncation: int = DEFAULT_TRUNCATION) -> BidegreeSeries:
    """Grid of ``K + conj(L)``: harmonic functions are transform fixed points.

    Requires the normalization ``L(0) = 0`` and a truncation that
    :func:`core._check_truncation` accepts.
    """
    return _assemble(holo.coeffs, anti.coeffs, (), truncation)


def node_series(centers, truncation: int):
    """``(series, fa, gb)``: the 2n x (T+1) rows ``phi_a``, ``phi_a^2`` of
    the n centers, and product ``3*i + s`` (``_PRODUCTS`` entry ``s`` of
    center ``i``) is ``series[fa[3*i + s]] ⊗ conj(series[gb[3*i + s]])``."""
    series = np.empty((2 * len(centers), truncation + 1), dtype=np.complex128)
    for i, a in enumerate(centers):
        phi = mobius_power_series(a, 1, truncation).coeffs
        series[2 * i: 2 * i + 2] = (phi, np.convolve(phi, phi)[: truncation + 1])
    fa = (2 * np.arange(len(centers))[:, None] + [j - 1 for j, _ in _PRODUCTS]).ravel()
    gb = (2 * np.arange(len(centers))[:, None] + [k - 1 for _, k in _PRODUCTS]).ravel()
    return series, fa, gb


def _assemble(holo, anti, nodes, truncation: int) -> BidegreeSeries:
    """Grid of ``K + conj(L)`` plus the ``(a, c11, c21, c12)`` nodes, from
    the coefficient arrays of ``K`` and ``L``: the harmonic edges (each as
    long as its series, at least T+1) plus ``S^T C conj(S)`` on the
    (T+1)^2 corner, with ``S`` the :func:`node_series` rows and ``C`` the
    constants at their row pairs. Raises DomainError unless ``L(0) = 0``;
    the grid's construction is the one finiteness check."""
    truncation = _check_truncation(truncation)
    if anti[0] != 0:
        raise DomainError("harmonic part must be normalized with L(0) = 0")
    m = max(truncation, len(holo) - 1, len(anti) - 1)
    grid = np.zeros((m + 1, m + 1), dtype=np.complex128)
    grid[: len(holo), 0] += holo
    grid[0, : len(anti)] += np.conj(anti)
    if nodes:
        series, fa, gb = node_series([a for a, *_ in nodes], truncation)
        C = np.zeros((len(series), len(series)), dtype=np.complex128)
        C[fa, gb] = [c for _, *cs in nodes for c in cs]
        grid[: truncation + 1, : truncation + 1] += series.T @ C @ np.conj(series)
    return BidegreeSeries(grid)


def symbol_transform(s: Symbol, truncation: int = DEFAULT_TRUNCATION) -> BidegreeSeries:
    """Exact transform grid of a symbol, through the product preimages.

    An atom of coefficient ``w`` is ``c = w / coeff`` times the atom of its
    product's preimage, a row ``(kind, coeff, K, L)`` of
    :func:`symbols._product_law`. So it adds ``c`` to its center's constant
    of that product, and ``-c K`` and ``-conj(c) L`` to the harmonic
    coefficient arrays; the grid is then a node form's. The harmonic part
    is checked once, as part of the grid (:func:`_assemble`).
    """
    t = _check_truncation(truncation)
    holo, anti, atoms = _canonical(s.holo.coeffs, s.anti.coeffs, s.atoms)
    holo, anti = (np.concatenate((x, np.zeros(max(0, t + 1 - len(x))))) for x in (holo, anti))
    nodes = {}
    for atom in atoms:
        if atom.center not in nodes:
            nodes[atom.center] = (_product_law(atom.center, t), [0.0, 0.0, 0.0])
        law, constants = nodes[atom.center]
        slot = [kind for kind, *_ in law].index(atom.kind)
        _, coeff, K, L = law[slot]
        c = atom.coeff / coeff
        constants[slot] += c
        holo[: t + 1] += K * -c
        anti[: t + 1] += L * np.conj(-c)
    return _assemble(holo, anti, [(a, *cs) for a, (_, cs) in nodes.items()], t)


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
    """Exact transform grid of a canonical node form: its harmonic edges
    plus ``S^T C conj(S)`` over its nodes (see :func:`node_series`)."""
    return _assemble(form.holo.coeffs, form.anti.coeffs, form.nodes, truncation)


def covariance_residual(s: Symbol, a: complex, z: complex) -> float:
    """Deviation from Moebius covariance at one point.

    Compares the numeric transform of the composed function
    ``w -> s(phi_a(w))`` at ``z`` against the exact transform of ``s`` at
    ``phi_a(z)`` (:func:`symbol_values`). The composition is split by
    linearity along :func:`quadrature.symbol_parts`: each atom group of
    ``s``, composed with ``phi_a``, is integrated purely as a callable whose
    singular center is the preimage of the group's center under ``phi_a``,
    and the harmonic part composed with ``phi_a`` as a callable with no
    center, on the center-0 polar set. Neither the covariance identity nor
    the fixed-point property is used, so the check stays independent of
    the closed forms.
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
