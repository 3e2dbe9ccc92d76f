"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import time

import numpy as np

from berezin.core import BidegreeSeries, PowerSeries
from berezin.errors import NotRankOne
from berezin.quadrature import berezin_numeric
from berezin.rank import (
    moment_matrix,
    moment_matrix_from_grid,
    numerical_rank,
)
from berezin.recovery import (
    decompose_form,
    factor_rank_one,
    fit_node_form,
    gauge_fix,
    recover_nodes,
)
from berezin.symbols import Atom, NodeForm, Symbol, product_preimage_symbol
from berezin.transform import (
    covariance_residual,
    node_form_transform,
    product_grid,
    symbol_transform,
    symbol_values,
)

from conftest import random_form, random_unit, rank_one_grid


def report(number, name, ok, detail, started, limit):
    elapsed = time.time() - started
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({detail}; {elapsed:.1f}s / limit {limit:.0f}s)")
    assert ok, f"{name}: {detail}"
    assert elapsed < limit, f"{name} exceeded runtime limit: {elapsed:.1f}s"


def eval_grid_points(count=40, radius=0.9):
    k = np.arange(count)
    return radius * ((k % 5 + 1) / 5.0) * np.exp(2j * np.pi * k / count)


def test_c01_closed_form_anchors():
    started = time.time()
    zs = eval_grid_points()
    log_sym = Symbol(atoms=(Atom("log", 0.0, 1.0),))
    pole_sym = Symbol(atoms=(Atom("pole", 0.0, 1.0),))
    want_log = (zs * np.conj(zs) - 1) / 2
    want_pole = 2 * np.conj(zs) - zs * np.conj(zs) ** 2

    exact_err = max(
        float(np.max(np.abs(symbol_transform(log_sym).eval(zs) - want_log))),
        float(np.max(np.abs(symbol_transform(pole_sym).eval(zs) - want_pole))),
    )
    numeric_err = max(
        float(np.max(np.abs(np.asarray(berezin_numeric(log_sym, zs)) - want_log))),
        float(np.max(np.abs(np.asarray(berezin_numeric(pole_sym, zs)) - want_pole))),
    )
    ok = exact_err <= 1e-12 and numeric_err <= 1e-6
    report(1, "closed-form anchors", ok,
           f"exact {exact_err:.2e} <= 1e-12, numeric {numeric_err:.2e} <= 1e-6",
           started, 10.0)


def test_c02_harmonic_fixed_point():
    started = time.time()
    zs = eval_grid_points(count=24, radius=0.8)
    rng = np.random.default_rng(2)
    cases = []
    coeffs = 0.5 * (rng.standard_normal(7) + 1j * rng.standard_normal(7))
    anti = 0.5 * (rng.standard_normal(7) + 1j * rng.standard_normal(7))
    anti[0] = 0.0
    cases.append(Symbol(holo=PowerSeries(coeffs), anti=PowerSeries(anti)))
    for theta in (0.0, 2.1):
        c = 0.65 * np.exp(1j * theta)
        geometric = c ** np.arange(30)
        anti_g = np.conj(c) ** np.arange(30) * 0.5
        anti_g[0] = 0.0
        cases.append(Symbol(holo=PowerSeries(geometric), anti=PowerSeries(anti_g)))
    worst = 0.0
    for u in cases:
        direct = u.harmonic(zs)
        # as a callable with no center the center-0 polar set integrates it, under
        # its check; as a symbol it is added exactly
        for numeric in (berezin_numeric(u.harmonic, zs), berezin_numeric(u, zs)):
            worst = max(worst, float(np.max(np.abs(np.asarray(numeric) - direct))))
    report(2, "harmonic fixed point", worst <= 1e-8,
           f"max |B(u)-u| {worst:.2e} <= 1e-8", started, 30.0)


def test_c03_mobius_covariance():
    started = time.time()
    rng = np.random.default_rng(3)
    worst = 0.0
    for i in range(20):
        kind = ("log", "pole", "conjpole", "harmonic", "two-atom")[i % 5]
        if kind == "harmonic":
            symbol = Symbol(holo=PowerSeries(
                0.5 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
            ))
        else:
            def small_center():
                return complex(rng.uniform(0, 0.3) * np.exp(2j * np.pi * rng.uniform()))

            if kind == "two-atom":
                atoms = (Atom("log", small_center(), random_unit(rng)),
                         Atom("pole", small_center() + 0.35, random_unit(rng)))
            else:
                atoms = (Atom(kind, small_center(), random_unit(rng)),)
            symbol = Symbol(atoms=atoms)
        while True:
            a = complex(rng.uniform(0, 0.8) * np.exp(2j * np.pi * rng.uniform()))
            from berezin.core import DiskAutomorphism, mobius_inverse
            inverse = mobius_inverse(DiskAutomorphism(a))
            if all(abs(inverse(c)) <= 0.85 for c in symbol.centers):
                break
        z = complex(rng.uniform(0, 0.8) * np.exp(2j * np.pi * rng.uniform()))
        worst = max(worst, covariance_residual(symbol, a, z))
    report(3, "Mobius covariance", worst <= 1e-5,
           f"max residual {worst:.2e} <= 1e-5 over 20 triples", started, 60.0)


def test_c04_product_identities():
    started = time.time()
    worst = 0.0
    ranks_ok = True
    for (a, jk) in ((0.37 - 0.21j, (1, 1)), (0.4, (1, 2))):
        target = product_grid(a, *jk)
        via_symbol = symbol_transform(product_preimage_symbol(a, *jk))
        worst = max(worst, target.max_coeff_diff(via_symbol))
        ranks_ok = ranks_ok and numerical_rank(target).rank == 1
    # symbol_transform reads atoms through the preimages, so the grids agree
    # by construction; the per-kind closed forms of symbol_values do not
    zs = eval_grid_points(count=10, radius=0.85)
    for a in (0.37 - 0.21j, 0.4, -0.5j):
        w = (zs - a) / (1 - np.conj(a) * zs)
        for jk in ((1, 1), (2, 1), (1, 2)):
            values = symbol_values(product_preimage_symbol(a, *jk), zs)
            want = w ** jk[0] * np.conj(w) ** jk[1]
            worst = max(worst, float(np.max(np.abs(values - want))))
    ok = worst <= 1e-8 and ranks_ok
    report(4, "automorphism product identities", ok,
           f"max grid and pointwise deviation {worst:.2e} <= 1e-8, products rank one",
           started, 30.0)


def test_c05_coefficient_cross_identity():
    started = time.time()
    corpus = [
        Symbol(holo=PowerSeries([0.3, 0, 1.0]), anti=PowerSeries([0, -0.5j, 0.25])),
        Symbol(atoms=(Atom("log", 0.3, 1.0),)),
        Symbol(atoms=(Atom("pole", -0.2 + 0.4j, 0.8),)),
        Symbol(atoms=(Atom("conjpole", 0.35j, 1.5),)),
        Symbol(atoms=(Atom("log", 0.3, 1.0), Atom("log", -0.45, -0.6),)),
        Symbol(atoms=(Atom("pole", 0.25 + 0.3j, 1.0), Atom("conjpole", -0.4j, 0.5 - 0.5j),)),
    ]
    worst = 0.0
    for u in corpus:
        quad = moment_matrix(u, 8, 8)
        exact = moment_matrix_from_grid(symbol_transform(u), 8, 8)
        worst = max(worst, float(np.max(np.abs(quad.entries - exact.entries))))
    report(5, "coefficient cross-identity", worst <= 1e-6,
           f"max |quadrature - grid route| {worst:.2e} <= 1e-6 over 6 symbols",
           started, 120.0)


def test_c06_rank_detection():
    started = time.time()
    ok = True
    details = []
    for r in (1, 2, 3, 4):
        coeffs = np.zeros((12, 12), dtype=np.complex128)
        for i in range(r):
            coeffs[i, i] = 1.0
        got = numerical_rank(BidegreeSeries(coeffs)).rank
        ok = ok and got == r
    # a node contributes rank two exactly when both weighted products are
    # present (otherwise its grid collapses to a single outer product)
    structured = [
        (1, NodeForm(nodes=((0.3, 1.0, 0.0, 0.0),))),
        (2, NodeForm(nodes=((0.3, 1.0, 0.5, 0.8),))),
        (3, NodeForm(nodes=((0.3, 1.0, 0.0, 0.0), (-0.4j, 1.0, 0.2, 0.6)))),
        (4, NodeForm(nodes=((0.3, 1.0, 0.5, 0.8), (-0.4j, 1.0, 0.2, 0.6)))),
    ]
    for r, form in structured:
        grid = node_form_transform(form)
        got = numerical_rank(grid).rank
        stable = numerical_rank(node_form_transform(form, 60)).rank
        ok = ok and got == r and stable == r
        details.append(f"form r={r}: got {got}")
    harmonic = Symbol(holo=PowerSeries([0, 0, 1.0]), anti=PowerSeries([0, 0.5]))
    moment_floor = float(np.max(np.abs(moment_matrix(harmonic, 6, 6).entries)))
    ok = ok and moment_floor <= 1e-8
    report(6, "rank detection", ok,
           f"ranks 1-4 classified, harmonic moment floor {moment_floor:.2e} <= 1e-8",
           started, 60.0)


def test_c07_round_trip_recovery():
    started = time.time()
    rng = np.random.default_rng(7)
    worst_node = worst_coeff = 0.0
    max_iters = 0
    for _ in range(10):
        form = random_form(rng)
        grid = node_form_transform(form)
        estimate = recover_nodes(moment_matrix_from_grid(grid, 12, 12), rank_bound=8)
        max_iters = max(max_iters, estimate.iterations)
        fitted, _ = fit_node_form(grid, estimate.nodes)
        assert len(fitted.nodes) == len(form.nodes)
        for (a0, d0, e0, f0) in form.nodes:
            best = min(
                ((abs(a1 - a0), max(abs(d1 - d0), abs(e1 - e0), abs(f1 - f0)))
                 for (a1, d1, e1, f1) in fitted.nodes),
                key=lambda t: t[0],
            )
            worst_node = max(worst_node, best[0])
            worst_coeff = max(worst_coeff, best[1])
    ok = worst_node <= 1e-6 and worst_coeff <= 1e-6 and max_iters <= 50
    report(7, "round-trip recovery", ok,
           f"nodes {worst_node:.2e} <= 1e-6, constants {worst_coeff:.2e} <= 1e-6, "
           f"iterations <= {max_iters}", started, 300.0)


def test_c08_rank_one_factor_recovery():
    started = time.time()
    rng = np.random.default_rng(8)
    worst_a = worst_pq = 0.0
    for _ in range(10):
        a = complex(rng.uniform(0, 0.7) * np.exp(2j * np.pi * rng.uniform()))
        dp, dq = ((1, 1), (1, 2), (2, 1))[int(rng.integers(3))]
        p = np.zeros(3, dtype=np.complex128)
        q = np.zeros(3, dtype=np.complex128)
        for j in range(dp + 1):
            p[j] = random_unit(rng)
        for j in range(dq + 1):
            q[j] = random_unit(rng)
        fac = factor_rank_one(rank_one_grid(a, p, q))
        pg, qg = gauge_fix(p, q)
        worst_a = max(worst_a, abs(fac.a - a))
        worst_pq = max(worst_pq, float(np.max(np.abs(fac.p - pg))),
                       float(np.max(np.abs(fac.q - qg))))
    rejected = False
    try:
        factor_rank_one(product_grid(0.3, 1, 1) + product_grid(-0.4, 1, 1))
    except NotRankOne:
        rejected = True
    ok = worst_a <= 1e-8 and worst_pq <= 1e-7 and rejected
    report(8, "rank-one factor recovery", ok,
           f"center {worst_a:.2e} <= 1e-8, polynomials {worst_pq:.2e} <= 1e-7, "
           f"rank-2 rejected", started, 60.0)


def test_c09_rank_one_decomposition():
    started = time.time()
    rng = np.random.default_rng(9)
    worst_sum = 0.0
    ranks_ok = True
    for _ in range(10):
        form = random_form(rng)
        pieces, remainder, _ = decompose_form(form)
        total = None
        for piece in pieces:
            part = symbol_transform(piece.symbol)
            total = part if total is None else total + part
            ranks_ok = ranks_ok and numerical_rank(part).rank == 1
        if remainder is not None:
            part = symbol_transform(remainder)
            total = part if total is None else total + part
        worst_sum = max(worst_sum, total.max_coeff_diff(node_form_transform(form)))
    ok = worst_sum <= 1e-7 and ranks_ok
    report(9, "rank-one decomposition", ok,
           f"sum deviation {worst_sum:.2e} <= 1e-7, every piece rank one",
           started, 300.0)


def test_c10_verify_determinism(tmp_path):
    started = time.time()
    from berezin.cli import main

    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    code1 = main(["verify", "--seed", "7", "--output", str(out1)])
    code2 = main(["verify", "--seed", "7", "--output", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    ok = code1 == 0 and code2 == 0 and identical
    report(10, "verify determinism", ok,
           "two seeded runs byte-identical and passing", started, 120.0)
