"""Built-in identity suite behind ``berezin verify``.

Each check computes a residual against a stated tolerance; the report has
one line per check and is byte-identical for a fixed seed.
"""
from __future__ import annotations

import numpy as np

from berezin.core import BidegreeSeries, PowerSeries, mobius_power_series
from berezin.quadrature import berezin_numeric
from berezin.rank import moment_matrix, moment_matrix_from_grid, numerical_rank
from berezin.recovery import decompose_form, factor_rank_one, fit_node_form, recover_nodes
from berezin.symbols import Atom, NodeForm, Symbol, product_preimage_symbol
from berezin.transform import (
    covariance_residual,
    node_form_transform,
    product_grid,
    symbol_transform,
    symbol_values,
)


def _eval_points(count=40, radius=0.9):
    k = np.arange(count)
    return (radius * (k + 1) / count) * np.exp(2j * np.pi * k / count)


def _random_nodes(rng, n, separation=0.2, max_mod=0.7):
    nodes = []
    while len(nodes) < n:
        a = complex(rng.uniform(0, max_mod) * np.exp(2j * np.pi * rng.uniform()))
        if all(abs(a - b) >= separation for b in nodes):
            nodes.append(a)
    return nodes


def _random_coeff(rng, lo=0.3, hi=1.5):
    return complex(rng.uniform(lo, hi) * np.exp(2j * np.pi * rng.uniform()))


def random_node_form(rng, max_nodes=3, harmonic_degree=4) -> NodeForm:
    """Random canonical form: nodes separated by 0.2 inside radius 0.7."""
    n = int(rng.integers(1, max_nodes + 1))
    nodes = tuple(
        (a, _random_coeff(rng), _random_coeff(rng), _random_coeff(rng))
        for a in _random_nodes(rng, n)
    )
    holo = 0.5 * (rng.standard_normal(harmonic_degree + 1)
                  + 1j * rng.standard_normal(harmonic_degree + 1))
    anti = 0.5 * (rng.standard_normal(harmonic_degree + 1)
                  + 1j * rng.standard_normal(harmonic_degree + 1))
    anti[0] = 0.0
    return NodeForm(holo=PowerSeries(holo), anti=PowerSeries(anti), nodes=nodes)


def _check_closed_form_log(rng):
    grid = symbol_transform(Symbol(atoms=(Atom("log", 0.0, 1.0),)))
    zs = _eval_points()
    return float(np.max(np.abs(grid.eval(zs) - (zs * np.conj(zs) - 1) / 2)))


def _check_closed_form_pole(rng):
    grid = symbol_transform(Symbol(atoms=(Atom("pole", 0.0, 1.0),)))
    zs = _eval_points()
    want = 2 * np.conj(zs) - zs * np.conj(zs) ** 2
    return float(np.max(np.abs(grid.eval(zs) - want)))


def _check_numeric_anchors(rng):
    zs = _eval_points(count=5, radius=0.85)
    num_log = np.asarray(berezin_numeric(Symbol(atoms=(Atom("log", 0.0, 1.0),)), zs))
    num_pole = np.asarray(berezin_numeric(Symbol(atoms=(Atom("pole", 0.0, 1.0),)), zs))
    r_log = np.max(np.abs(num_log - (zs * np.conj(zs) - 1) / 2))
    r_pole = np.max(np.abs(num_pole - (2 * np.conj(zs) - zs * np.conj(zs) ** 2)))
    return float(max(r_log, r_pole))


def _check_harmonic_fixed_point(rng):
    zs = _eval_points(count=8, radius=0.8)
    worst = 0.0
    cases = [
        Symbol(holo=PowerSeries([0.3, 0, 1.0]), anti=PowerSeries([0, -0.5j, 0, 0.25])),
        Symbol(holo=PowerSeries(0.6 ** np.arange(24) * np.exp(0.4j * np.arange(24)))),
    ]
    for s in cases:
        # a callable with no center, so the center-0 polar set integrates it
        num = np.asarray(berezin_numeric(s.harmonic, zs))
        direct = s.harmonic(zs)
        worst = max(worst, float(np.max(np.abs(num - direct))))
    return worst


def _check_covariance(rng):
    worst = 0.0
    for _ in range(3):
        kind = ("log", "pole", "conjpole")[int(rng.integers(3))]
        center = complex(rng.uniform(0, 0.4) * np.exp(2j * np.pi * rng.uniform()))
        s = Symbol(
            holo=PowerSeries([_random_coeff(rng, 0.2, 0.8), _random_coeff(rng, 0.2, 0.8)]),
            atoms=(Atom(kind, center, _random_coeff(rng)),),
        )
        a = complex(rng.uniform(0, 0.75) * np.exp(2j * np.pi * rng.uniform()))
        z = complex(rng.uniform(0, 0.75) * np.exp(2j * np.pi * rng.uniform()))
        worst = max(worst, covariance_residual(s, a, z))
    return worst


def _check_products(rng):
    worst = 0.0
    zs = _eval_points(count=8, radius=0.85)
    for jk in ((1, 1), (2, 1), (1, 2)):
        a = complex(rng.uniform(0.2, 0.6) * np.exp(2j * np.pi * rng.uniform()))
        preimage = product_preimage_symbol(a, *jk)
        direct = product_grid(a, *jk)
        worst = max(worst, direct.max_coeff_diff(symbol_transform(preimage)))
        if numerical_rank(direct).rank != 1:
            worst = max(worst, 1.0)
        # the grids agree by construction (symbol_transform reads atoms through
        # the preimages); symbol_values' per-kind closed forms do not
        w = (zs - a) / (1.0 - np.conj(a) * zs)
        want = w ** jk[0] * np.conj(w) ** jk[1]
        worst = max(worst, float(np.max(np.abs(symbol_values(preimage, zs) - want))))
    return worst


def _check_cross_identity(rng):
    symbols = [
        Symbol(atoms=(Atom("log", 0.3, 1.0),)),
        Symbol(atoms=(Atom("pole", -0.2 + 0.4j, 0.8),
                      Atom("conjpole", 0.35j, -0.5 + 0.2j))),
    ]
    worst = 0.0
    for s in symbols:
        quad = moment_matrix(s, 4, 4)
        exact = moment_matrix_from_grid(symbol_transform(s), 4, 4)
        worst = max(worst, float(np.max(np.abs(quad.entries - exact.entries))))
    return worst


def _check_rank_classification(rng):
    worst = 0.0
    for r in (1, 2, 3, 4):
        coeffs = np.zeros((12, 12), dtype=np.complex128)
        for i in range(r):
            coeffs[i, i] = 1.0
        got = numerical_rank(BidegreeSeries(coeffs)).rank
        worst = max(worst, float(abs(got - r)))
    return worst


def _check_node_round_trip(rng):
    worst = 0.0
    for _ in range(2):
        form = random_node_form(rng)
        grid = node_form_transform(form)
        estimate = recover_nodes(moment_matrix_from_grid(grid, 12, 12), rank_bound=8)
        fitted, _ = fit_node_form(grid, estimate.nodes)
        for (a, c11, c21, c12) in form.nodes:
            best = min(
                max(abs(a - b), abs(c11 - d), abs(c21 - e), abs(c12 - f))
                for (b, d, e, f) in fitted.nodes
            )
            worst = max(worst, best)
    return worst


def _check_factorization(rng):
    from berezin.recovery import gauge_fix

    worst = 0.0
    for _ in range(2):
        a = complex(rng.uniform(0, 0.6) * np.exp(2j * np.pi * rng.uniform()))
        dp, dq = ((1, 1), (1, 2), (2, 1))[int(rng.integers(3))]
        p = np.zeros(3, dtype=np.complex128)
        q = np.zeros(3, dtype=np.complex128)
        for j in range(dp + 1):
            p[j] = _random_coeff(rng)
        for j in range(dq + 1):
            q[j] = _random_coeff(rng)
        grid = BidegreeSeries.outer(
            PowerSeries(_poly_series(p, a)), PowerSeries(_poly_series(q, a))
        )
        fac = factor_rank_one(grid)
        pg, qg = gauge_fix(p, q)
        worst = max(worst, abs(fac.a - a),
                    float(np.max(np.abs(fac.p - pg))), float(np.max(np.abs(fac.q - qg))))
    return worst


def _poly_series(coeffs3, a, truncation=80):
    """Series of ``c0 + c1 phi_a + c2 phi_a^2`` from the Moebius power
    series, independent of the numerators the factorization works on."""
    out = np.zeros(truncation + 1, dtype=np.complex128)
    out[0] = coeffs3[0]
    for j in (1, 2):
        if coeffs3[j] != 0:
            out += coeffs3[j] * mobius_power_series(a, j, truncation).coeffs
    return out


def _check_decomposition(rng):
    worst = 0.0
    for _ in range(2):
        form = random_node_form(rng, max_nodes=2)
        grid = node_form_transform(form)
        pieces, remainder, _ = decompose_form(form)
        total = None
        for piece in pieces:
            part = symbol_transform(piece.symbol)
            total = part if total is None else total + part
            if numerical_rank(part).rank != 1:
                worst = max(worst, 1.0)
        if remainder is not None:
            part = symbol_transform(remainder)
            total = part if total is None else total + part
        worst = max(worst, total.max_coeff_diff(grid))
    return worst


CHECKS = (
    ("closed_form_log", _check_closed_form_log, 1e-12),
    ("closed_form_pole", _check_closed_form_pole, 1e-12),
    ("numeric_anchors", _check_numeric_anchors, 1e-6),
    ("harmonic_fixed_point", _check_harmonic_fixed_point, 1e-8),
    ("mobius_covariance", _check_covariance, 1e-5),
    ("automorphism_products", _check_products, 1e-8),
    ("coefficient_cross_identity", _check_cross_identity, 1e-6),
    ("rank_classification", _check_rank_classification, 0.5),
    ("node_round_trip", _check_node_round_trip, 1e-6),
    ("rank_one_factorization", _check_factorization, 1e-7),
    ("decomposition_sum", _check_decomposition, 1e-7),
)


def run_suite(seed: int = 0, tol_override: float | None = None) -> tuple[str, bool]:
    """Run every check; returns (report text, all passed)."""
    lines = ["berezin verification suite", f"seed {seed}"]
    passed = 0
    for name, check, tol in CHECKS:
        rng = np.random.default_rng(seed)
        use_tol = tol_override if tol_override is not None else tol
        residual = check(rng)
        ok = residual <= use_tol
        passed += ok
        lines.append(
            f"{'PASS' if ok else 'FAIL'} {name:28s} residual {residual:.3e}  tol {use_tol:.1e}"
        )
    lines.append(f"{passed}/{len(CHECKS)} passed")
    return "\n".join(lines) + "\n", passed == len(CHECKS)
