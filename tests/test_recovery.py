import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from berezin import recovery
from berezin.core import BidegreeSeries, PowerSeries
from berezin.errors import (
    BerezinError,
    DegenerateNode,
    DomainError,
    IllConditioned,
    NoDiskDenominator,
    NotRankOne,
    PencilFailure,
    TruncationOverflow,
    ZeroInput,
)
from berezin.rank import MomentMatrix, moment_matrix, moment_matrix_from_grid, numerical_rank
from berezin.recovery import (
    RationalFactor,
    _center_estimates,
    _moment_design,
    _moment_jacobian,
    _moment_model_fit,
    _power_tables,
    _projected_jacobian,
    decompose_form,
    decompose_node,
    factor_rank_one,
    fit_node_form,
    gauge_fix,
    recover_nodes,
)
from berezin.symbols import Atom, NodeForm, Symbol, canonicalize
from berezin.transform import node_form_transform, product_grid, symbol_transform

from conftest import random_form, rank_one_grid


def sorted_nodes(nodes):
    return sorted(nodes, key=lambda t: (complex(t[0]).real, complex(t[0]).imag))


class TestRecoverNodes:
    def test_single_log_atom_from_quadrature(self):
        u = Symbol(atoms=(Atom("log", 0.3, 1.0),))
        M = moment_matrix(u, 8, 8)
        est = recover_nodes(M, rank_bound=4)
        assert len(est.nodes) == 1
        assert abs(est.nodes[0] - 0.3) <= 1e-6

    def test_two_atoms_from_quadrature(self):
        u = Symbol(atoms=(Atom("log", 0.3, 1.0), Atom("log", -0.2 + 0.5j, 1.0)))
        M = moment_matrix(u, 8, 8)
        est = recover_nodes(M, rank_bound=5)
        assert len(est.nodes) == 2
        for target in (0.3, -0.2 + 0.5j):
            assert min(abs(n - target) for n in est.nodes) <= 1e-6

    def test_harmonic_gives_empty(self):
        u = Symbol(holo=PowerSeries([0, 0, 1.0]))
        M = moment_matrix(u, 6, 6)
        est = recover_nodes(M, rank_bound=4)
        assert est.nodes == ()
        assert est.residual <= 1e-7

    def test_confluent_pole_node(self):
        # a pole atom alone produces a defective eigenvalue pair
        u = Symbol(atoms=(Atom("pole", 0.4, 1.0),))
        M = moment_matrix(u, 8, 8)
        est = recover_nodes(M, rank_bound=5)
        assert len(est.nodes) == 1
        assert abs(est.nodes[0] - 0.4) <= 1e-6

    def test_rank_bound_validation(self):
        M = moment_matrix_from_grid(node_form_transform(random_form(np.random.default_rng(1), 1)), 8, 8)
        with pytest.raises(DomainError):
            recover_nodes(M, rank_bound=7)  # above 2*kmax/3
        with pytest.raises(DomainError):
            recover_nodes(M, rank_bound=0)

    def test_pencil_failure_outside_disk(self):
        k = np.arange(9, dtype=float)
        entries = np.outer(1.2 ** k, 0.5 ** k).astype(complex)
        with pytest.raises(PencilFailure):
            recover_nodes(MomentMatrix(entries=entries), rank_bound=4)

    def test_close_nodes_rejected(self):
        k = np.arange(13, dtype=float)
        entries = (np.outer(0.30 ** k, np.conj(0.30) ** k)
                   + np.outer(0.33 ** k, np.conj(0.33) ** k)).astype(complex)
        with pytest.raises(IllConditioned):
            recover_nodes(MomentMatrix(entries=entries), rank_bound=6)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_moments_recover_as_unit_ones(self):
        # unscaled, moments near 1e300 overflow the refinement's norms into
        # a nan residual, which the convergence guard must not pass
        form = NodeForm(nodes=((0.3 + 0.2j, 1.0, 0.4j, -0.6), (-0.4 + 0.1j, 0.8, 0.5, 0.3j)))
        entries = moment_matrix_from_grid(node_form_transform(form), 12, 12).entries
        unit = recover_nodes(MomentMatrix(entries=entries), rank_bound=8)
        huge = recover_nodes(MomentMatrix(entries=entries * 1e300), rank_bound=8)
        assert len(huge.nodes) == len(unit.nodes) == 2
        assert max(abs(a - b) for a, b in zip(huge.nodes, unit.nodes)) <= 1e-12
        assert np.isfinite(huge.residual) and huge.residual <= 1e-12


class TestFitNodeForm:
    def test_pure_product(self):
        grid = product_grid(0.3, 1, 1)
        form, residual = fit_node_form(grid, [0.3])
        (a, c11, c21, c12) = form.nodes[0]
        assert abs(c11 - 1.0) <= 1e-8
        assert abs(c21) <= 1e-8 and abs(c12) <= 1e-8
        assert residual <= 1e-8
        assert float(np.max(np.abs(form.holo.coeffs))) <= 1e-8
        assert float(np.max(np.abs(form.anti.coeffs))) <= 1e-8

    def test_weighted_conjugate_product(self):
        grid = product_grid(0.4, 1, 2)
        form, residual = fit_node_form(grid, [0.4])
        (a, c11, c21, c12) = form.nodes[0]
        assert abs(c12 - 1.0) <= 1e-8
        assert abs(c11) <= 1e-8 and abs(c21) <= 1e-8
        assert residual <= 1e-8

    def test_pure_harmonic(self):
        target = Symbol(holo=PowerSeries([0, 1.0]), anti=PowerSeries([0, 0, 1.0]))
        grid = symbol_transform(target, 30)
        form, residual = fit_node_form(grid, [])
        assert residual <= 1e-12
        assert abs(form.holo.coeffs[1] - 1.0) <= 1e-12
        assert abs(form.anti.coeffs[2] - 1.0) <= 1e-12

    def test_close_nodes_ill_conditioned(self):
        grid = product_grid(0.3, 1, 1, 40)
        with pytest.raises(IllConditioned):
            fit_node_form(grid, [0.3, 0.3 + 1e-6])

    def test_more_unknowns_than_grid_entries_ill_conditioned(self):
        # 2 nodes at T=2: 9 grid entries, 11 unknowns; the Gram matrix of
        # the design is singular, so no least-squares answer is unique
        with pytest.raises(IllConditioned):
            fit_node_form(product_grid(0.3, 1, 1, 2), [0.3, -0.3])

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(DomainError):
            fit_node_form(product_grid(0.3, 1, 1, 20), [0.3, 0.3])

    def test_truncation_and_centers_checked(self):
        # the rows are built unchecked, so the fit checks what they need
        long_grid = BidegreeSeries(product_grid(0.3, 1, 1).padded(199, 199))
        with pytest.raises(TruncationOverflow, match="^truncation 199 exceeds configured maximum 160$"):
            fit_node_form(long_grid, [0.3])
        with pytest.raises(DomainError, match=r"^\|a\|=0.9600 exceeds 0.95"):
            fit_node_form(product_grid(0.3, 1, 1), [0.3, 0.96j])

    @pytest.mark.parametrize("terms", [81, pytest.param(82, marks=pytest.mark.xfail(
        strict=True, reason="the grid's node part stops at T = 80, but the fit runs at the "
                            "edge length, 81 (ROADMAP item 16)"))])
    def test_harmonic_part_longer_than_the_truncation(self, terms):
        # K of 82 terms makes the grid 82 x 82 at T = 80: its constants come
        # out 5.6e-10 off, where 81 terms fit them to 5e-16
        a = 0.85 * np.exp(0.7j)
        form = NodeForm(holo=PowerSeries(0.3 * 0.5 ** np.arange(terms)),
                        nodes=((a, 1.0, 0.5j, -0.3),))
        fitted, _ = fit_node_form(node_form_transform(form), [a])
        assert np.max(np.abs(np.subtract(fitted.nodes[0][1:], (1.0, 0.5j, -0.3)))) <= 1e-12


#: Nodes of the moment-model array tests: the confluent origin, one near
#: the rim and one in between.
MODEL_NODES = np.array([0.0, 0.85 * np.exp(2.1j), 0.3 - 0.4j])


class TestMomentModelArrays:
    def test_design_matches_direct_powers(self):
        kmax, lmax = 9, 7
        design = _moment_design(*_power_tables(MODEL_NODES, kmax, lmax))
        K = np.arange(kmax + 1)[:, None]
        L = np.arange(lmax + 1)[None, :]
        for i, a in enumerate(MODEL_NODES):
            ab = np.conj(a)
            with np.errstate(divide="ignore", invalid="ignore"):
                want = (a ** K * ab ** L,
                        np.where(K >= 1, K * a ** (K - 1) * ab ** L, 0.0),
                        np.where(L >= 1, L * a ** K * ab ** (L - 1), 0.0))
            got = design[:, 3 * i: 3 * i + 3].T.reshape(3, kmax + 1, lmax + 1)
            for column, expected in zip(got, want):
                np.testing.assert_allclose(column, expected, rtol=1e-14, atol=0.0)
            # derivative columns are exact zeros where the exponent is negative
            assert np.all(got[1][0] == 0.0) and np.all(got[2][:, 0] == 0.0)

    def test_jacobian_matches_central_difference(self, rng):
        kmax, lmax = 12, 12
        coeffs = rng.standard_normal(9) + 1j * rng.standard_normal(9)

        def model(nodes):
            return _moment_design(*_power_tables(nodes, kmax, lmax)) @ coeffs

        J = _moment_jacobian(*_power_tables(MODEL_NODES, kmax, lmax), coeffs)
        h = 1e-6
        for i in range(len(MODEL_NODES)):
            for col, direction in ((2 * i, 1.0), (2 * i + 1, 1j)):
                step = np.zeros(len(MODEL_NODES), dtype=np.complex128)
                step[i] = h * direction
                fd = (model(MODEL_NODES + step) - model(MODEL_NODES - step)) / (2 * h)
                assert np.max(np.abs(fd - J[:, col])) <= 1e-7 * np.max(np.abs(J[:, col]))

    @pytest.mark.parametrize("modulus", [0.0, 0.02, 0.3, 0.85, 0.94])
    def test_center_estimates_are_exact(self, modulus):
        # a side of degree 1 in phi_a has a simple pole, so the ratio fit is
        # exact; one of degree 2 has a double pole, so the recurrence fit is
        a = modulus * np.exp(2.3j)
        for numerator, power, estimate in (([0.4 - 0.3j, 1.0], 1, 0),
                                           ([1.0, 0.4 - 0.3j, 0.2 + 0.5j], 2, 1)):
            series = RationalFactor(numerator, a, power).series(80).coeffs
            found = _center_estimates(series, 13)[estimate]
            assert abs(found - np.conj(a)) <= (1e-14, 1e-12)[estimate]


#: The two-node probe of the noise measurements: every node constant nonzero.
PROBE_FORM = NodeForm(nodes=((0.3 + 0.2j, 1.0, 0.5 - 0.3j, 0.4 + 0.2j),
                             (-0.4 + 0.1j, 0.8j, -0.3 + 0.2j, 0.6)))


def node_error(truth, found):
    assert len(found) == len(truth)
    return max(min(abs(a - b) for b in found) for a in truth)


class TestRefineNodes:
    def test_projected_jacobian_is_residual_derivative(self, rng):
        # at exact nodes the projected residual y - Phi Phi^+ y is 0, and
        # there minus the projected Jacobian is its derivative: the central
        # difference matches it to O(h^2), the unprojected Jacobian not at all
        kmax = lmax = 12
        coeffs = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        design = _moment_design(*_power_tables(MODEL_NODES, kmax, lmax))
        entries = (design @ coeffs).reshape(kmax + 1, lmax + 1)
        fitted, res, tables, basis = _moment_model_fit(entries, MODEL_NODES)
        assert np.linalg.norm(res) <= 1e-14 * np.linalg.norm(entries)
        delta = rng.standard_normal(2 * len(MODEL_NODES))
        move = delta[0::2] + 1j * delta[1::2]
        projected = _projected_jacobian(tables, fitted, basis) @ delta
        plain = _moment_jacobian(*tables, fitted) @ delta

        def residual(nodes):
            return _moment_model_fit(entries, nodes)[1]

        for h in (1e-3, 1e-4):
            fd = (residual(MODEL_NODES + h * move) - residual(MODEL_NODES - h * move)) / (2 * h)
            assert np.linalg.norm(fd + projected) <= 200 * h ** 2 * np.linalg.norm(projected)
            assert np.linalg.norm(fd + plain) >= 0.1 * np.linalg.norm(projected)

    def test_exact_moments_converge_in_few_iterations(self, rng):
        forms = [random_form(rng, n_nodes=n) for n in (1, 2, 3, 4)] + [
            NodeForm(nodes=((0.4 - 0.2j, 0.0, 0.7, 0.0),)),
            NodeForm(nodes=((0.0, 1.0, 0.4, -0.3j), (0.45, 0.8, 0.2j, 0.5))),
        ]
        kinds = set()
        for form in forms:
            grid = node_form_transform(form)
            est = recover_nodes(moment_matrix_from_grid(grid, 12, 12), rank_bound=8)
            assert est.iterations <= 5
            assert node_error([a for a, *_ in form.nodes], est.nodes) <= 1e-14
            kinds.update(est.confluent)
        assert kinds == {True, False}   # confluent and simple nodes both met

    def test_noisy_probe_converges_in_few_iterations(self, rng, monkeypatch):
        # at the noise floor no step lowers the residual; a converged step
        # ends the refinement instead of 25 halvings of it, each one a fit
        fits = []

        def counted_fit(*args):
            fits.append(1)
            return _moment_model_fit(*args)

        monkeypatch.setattr(recovery, "_moment_model_fit", counted_fit)
        level = 1e-11
        entries = moment_matrix_from_grid(node_form_transform(PROBE_FORM), 12, 12).entries
        for _ in range(5):
            noise = (rng.standard_normal(entries.shape)
                     + 1j * rng.standard_normal(entries.shape)) / np.sqrt(2)
            noisy = entries + level * np.max(np.abs(entries)) * noise
            fits.clear()
            est = recover_nodes(MomentMatrix(entries=noisy), rank_bound=8)
            assert est.iterations <= 5
            assert len(fits) <= 2 * est.iterations + 1
            assert node_error([a for a, *_ in PROBE_FORM.nodes], est.nodes) <= 3 * level


def full_design(nodes, T):
    """The whole (T+1)^2 x (3n+2T+1) regressor matrix: three product grids
    per node, then unit grids at (m, 0) for m = 0..T and (0, n) for
    n = 1..T."""
    columns = [product_grid(a, *jk, T).coeffs.ravel()
               for a in nodes for jk in ((1, 1), (2, 1), (1, 2))]
    for index in [m * (T + 1) for m in range(T + 1)] + list(range(1, T + 1)):
        unit = np.zeros((T + 1) ** 2, dtype=np.complex128)
        unit[index] = 1.0
        columns.append(unit)
    return np.stack(columns, axis=1)


def fitted_vector(form, T):
    """Form parameters in the column order of :func:`full_design`; the unit
    grid at (0, n) carries ``conj(anti[n])``."""
    constants = [c for (_, *cs) in form.nodes for c in cs]
    return np.concatenate([constants, form.holo.padded(T), np.conj(form.anti.padded(T)[1:])])


class TestFitNodeFormDesign:
    @pytest.mark.parametrize("T", [40, 80])
    def test_matches_full_design_least_squares(self, rng, T):
        for n in range(1, 7):
            form = random_form(rng, n_nodes=n)
            nodes = [a for a, *_ in form.nodes]
            grid = node_form_transform(form, T)
            fitted, residual = fit_node_form(grid, nodes)
            want, *_ = np.linalg.lstsq(full_design(nodes, T), grid.coeffs.ravel(), rcond=None)
            got = fitted_vector(fitted, T)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            assert residual <= 1e-12

    @pytest.mark.parametrize("T", [40, 80])
    def test_guard_measures_full_design(self, T):
        outcomes = set()
        for base in (0.3, -0.5 + 0.2j, 0.7j):
            for gap in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
                nodes = [base, base + gap * np.exp(0.7j)]
                s = np.linalg.svd(full_design(nodes, T), compute_uv=False)
                gram = (s[0] / s[-1]) ** 2
                if gram > 1e12:
                    with pytest.raises(IllConditioned) as info:
                        fit_node_form(product_grid(base, 1, 1, T), nodes)
                    if gram < 1e20:
                        reported = float(re.search(r"condition (\S+)", str(info.value))[1])
                        assert reported == pytest.approx(gram, rel=1e-3)
                else:
                    fit_node_form(product_grid(base, 1, 1, T), nodes)
                outcomes.add(gram > 1e12)
        assert outcomes == {True, False}

    def test_memory_is_bounded(self, rng):
        form = random_form(rng, n_nodes=4)
        grid = node_form_transform(form, 160)
        nodes = [a for a, *_ in form.nodes]
        tracemalloc.start()
        try:
            fit_node_form(grid, nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_six_node_memory_is_projected(self, rng):
        # the projected solve holds O(T^2) memory, about 1.4 MiB here; a
        # T^2 x 3n interior block (22 MiB) would not fit under the bound
        form = random_form(rng, n_nodes=6)
        grid = node_form_transform(form, 160)
        nodes = [a for a, *_ in form.nodes]
        tracemalloc.start()
        try:
            fit_node_form(grid, nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def disk_points(max_modulus):
    return st.builds(lambda r, t: complex(r * np.exp(1j * t)),
                     st.floats(0.0, max_modulus), st.floats(0.0, 2 * np.pi))


@st.composite
def exact_fit_cases(draw):
    """A node form with 1-6 nodes of modulus at most 0.85, pairwise at least
    0.2 apart, constants of modulus at most 1.5 and a degree-4 harmonic part."""
    n = draw(st.integers(1, 6))
    centers = draw(st.lists(disk_points(0.85), min_size=n, max_size=n))
    assume(all(abs(a - b) >= 0.2 for i, a in enumerate(centers) for b in centers[:i]))
    constants = draw(st.lists(disk_points(1.5), min_size=3 * n, max_size=3 * n))
    holo = draw(st.lists(disk_points(1.0), min_size=5, max_size=5))
    anti = [0.0] + draw(st.lists(disk_points(1.0), min_size=4, max_size=4))
    return NodeForm(holo=PowerSeries(holo), anti=PowerSeries(anti), nodes=tuple(
        (a, *constants[3 * i: 3 * i + 3]) for i, a in enumerate(centers)))


class TestFitNodeFormProperty:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(exact_fit_cases())
    def test_exact_grid_fits_or_is_ill_conditioned(self, form):
        T = 80
        nodes = [a for a, *_ in form.nodes]
        try:
            fitted, residual = fit_node_form(node_form_transform(form, T), nodes)
        except IllConditioned:
            return
        want = np.array([c for (_, *cs) in form.nodes for c in cs])
        got = np.array([c for (_, *cs) in fitted.nodes for c in cs])
        assert np.max(np.abs(got - want)) <= 1e-9
        assert np.max(np.abs(fitted.holo.padded(T) - form.holo.padded(T))) <= 1e-9
        assert np.max(np.abs(fitted.anti.padded(T) - form.anti.padded(T))) <= 1e-9
        assert residual <= 1e-12


class TestRoundTrip:
    def test_forms_round_trip(self, rng):
        for n in (1, 2, 3):
            form = random_form(rng, n_nodes=n)
            grid = node_form_transform(form)
            M = moment_matrix_from_grid(grid, 12, 12)
            est = recover_nodes(M, rank_bound=8)
            assert est.iterations <= 50
            fitted, residual = fit_node_form(grid, est.nodes)
            assert residual <= 1e-7
            got = sorted_nodes(fitted.nodes)
            want = sorted_nodes(form.nodes)
            assert len(got) == len(want)
            for (a1, d1, e1, f1), (a0, d0, e0, f0) in zip(got, want):
                assert abs(a1 - a0) <= 1e-6
                assert abs(d1 - d0) <= 1e-6
                assert abs(e1 - e0) <= 1e-6
                assert abs(f1 - f0) <= 1e-6

    def test_four_nodes_with_wider_moments(self, rng):
        from conftest import random_unit

        nodes = []
        while len(nodes) < 4:
            a = complex(rng.uniform(0, 0.75) * np.exp(2j * np.pi * rng.uniform()))
            if all(abs(a - b) >= 0.25 for b in nodes):
                nodes.append(a)
        form = NodeForm(nodes=tuple(
            (a, random_unit(rng), random_unit(rng), random_unit(rng)) for a in nodes
        ))
        grid = node_form_transform(form)
        est = recover_nodes(moment_matrix_from_grid(grid, 16, 16), rank_bound=10)
        assert len(est.nodes) == 4
        for a in nodes:
            assert min(abs(b - a) for b in est.nodes) <= 1e-6

    def test_node_at_origin(self):
        form = NodeForm(nodes=((0.0, 1.0, 0.4, -0.3j), (0.45, 0.8, 0.2j, 0.5)))
        grid = node_form_transform(form)
        est = recover_nodes(moment_matrix_from_grid(grid, 12, 12), rank_bound=8)
        assert len(est.nodes) == 2
        assert min(abs(n) for n in est.nodes) <= 1e-6
        assert min(abs(n - 0.45) for n in est.nodes) <= 1e-6
        fitted, residual = fit_node_form(grid, est.nodes)
        assert residual <= 1e-7

    def test_sparse_coefficient_patterns(self, rng):
        # every nonzero on/off pattern of the three node constants must
        # recover; patterns with only one weighted product leave a confluent
        # rank-one moment block, the case the augmented pencil exists for
        import itertools

        from conftest import random_nodes, random_unit

        patterns = [p for p in itertools.product((0, 1), repeat=3) if any(p)]
        for trial in range(8):
            centers = random_nodes(rng, int(rng.integers(1, 4)))
            nodes = []
            for a in centers:
                pat = patterns[int(rng.integers(len(patterns)))]
                nodes.append((a, random_unit(rng) * pat[0],
                              random_unit(rng) * pat[1], random_unit(rng) * pat[2]))
            form = NodeForm(nodes=tuple(nodes))
            grid = node_form_transform(form)
            est = recover_nodes(moment_matrix_from_grid(grid, 12, 12), rank_bound=8)
            assert len(est.nodes) == len(centers)
            for a in centers:
                assert min(abs(b - a) for b in est.nodes) <= 1e-6

    def test_symbol_level_round_trip_via_quadrature(self):
        # form -> canonical symbol (atoms) -> quadrature moments -> nodes
        form = NodeForm(nodes=((0.35, 1.0, 0.4j, -0.6), (-0.3j, 0.8, 0.0, 0.5)))
        u = form.to_symbol()
        M = moment_matrix(u, 10, 10)
        est = recover_nodes(M, rank_bound=6)
        assert len(est.nodes) == 2
        for (a, _, _, _) in form.nodes:
            assert min(abs(n - a) for n in est.nodes) <= 1e-6

    def test_harmonic_symbol_recovers_no_structure(self):
        # transforms of harmonic symbols carry no nodes: the moment matrix
        # is numerically zero and the fit returns the harmonic part alone
        u = Symbol(holo=PowerSeries([0.3, 0, 1.0]), anti=PowerSeries([0, -0.5j]))
        grid = symbol_transform(u, 40)
        M = moment_matrix_from_grid(grid, 10, 10)
        est = recover_nodes(M, rank_bound=6)
        assert est.nodes == ()
        form, residual = fit_node_form(grid, est.nodes)
        assert residual <= 1e-10
        assert form.nodes == ()


class TestFactorRankOne:
    def test_simple_product(self):
        fac = factor_rank_one(product_grid(0.3, 1, 1))
        assert abs(fac.a - 0.3) <= 1e-8
        p, q = gauge_fix([0, 1.0, 0], [0, 1.0, 0])
        np.testing.assert_allclose(fac.p, p, atol=1e-7)
        np.testing.assert_allclose(fac.q, q, atol=1e-7)

    def test_degree_three_product(self):
        fac = factor_rank_one(product_grid(0.4, 1, 2))
        assert abs(fac.a - 0.4) <= 1e-8
        assert np.flatnonzero(np.abs(fac.p) > 1e-9)[-1] == 1
        assert np.flatnonzero(np.abs(fac.q) > 1e-9)[-1] == 2

    def test_origin_product(self):
        fac = factor_rank_one(product_grid(0.0, 1, 1))
        assert abs(fac.a) <= 1e-10

    def test_random_cases(self, rng):
        from conftest import random_unit

        for _ in range(6):
            a = complex(rng.uniform(0, 0.7) * np.exp(2j * np.pi * rng.uniform()))
            dp, dq = ((1, 1), (1, 2), (2, 1))[int(rng.integers(3))]
            p = np.zeros(3, dtype=np.complex128)
            q = np.zeros(3, dtype=np.complex128)
            for j in range(dp + 1):
                p[j] = random_unit(rng)
            for j in range(dq + 1):
                q[j] = random_unit(rng)
            fac = factor_rank_one(rank_one_grid(a, p, q))
            assert abs(fac.a - a) <= 1e-8
            pg, qg = gauge_fix(p, q)
            assert np.max(np.abs(fac.p - pg)) <= 1e-7
            assert np.max(np.abs(fac.q - qg)) <= 1e-7

    def test_gauge_freedom_invisible(self, rng):
        a = 0.35 - 0.2j
        p = np.array([0.5, 1.0, 0.0], dtype=np.complex128)
        q = np.array([0.0, -0.7j, 0.3], dtype=np.complex128)
        mu = 1.7 * np.exp(0.9j)
        plain = factor_rank_one(rank_one_grid(a, p, q))
        scaled = factor_rank_one(rank_one_grid(a, mu * p, q / np.conj(mu)))
        np.testing.assert_allclose(plain.p, scaled.p, atol=1e-9)
        np.testing.assert_allclose(plain.q, scaled.q, atol=1e-9)

    def test_not_rank_one(self):
        with pytest.raises(NotRankOne):
            factor_rank_one(product_grid(0.3, 1, 1) + product_grid(-0.4, 1, 1))

    def test_degree_violation(self):
        grid = rank_one_grid(0.3, [0, 0, 1.0], [0, 0, 1.0])
        with pytest.raises(NoDiskDenominator, match=r"constraint deg p \+ deg q <= 3"):
            factor_rank_one(grid)

    def test_constant_factor_rejected(self):
        constant = PowerSeries(np.r_[1.0, np.zeros(40)])
        geometric = PowerSeries(0.5 ** np.arange(41))
        with pytest.raises(NoDiskDenominator, match="^holomorphic factor is constant"):
            factor_rank_one(BidegreeSeries.outer(constant, geometric))
        with pytest.raises(NoDiskDenominator, match="^anti-holomorphic factor is constant"):
            factor_rank_one(BidegreeSeries.outer(geometric, constant))

    def test_no_center_reconstructs(self):
        # 1/(1 - 0.4 z)^3 is no numerator of degree <= 2 over a square
        n = np.arange(41)
        cube = PowerSeries((n + 1) * (n + 2) / 2 * 0.4 ** n)
        with pytest.raises(NoDiskDenominator, match="no center inside the disk reconstructs"):
            factor_rank_one(BidegreeSeries.outer(cube, PowerSeries(0.5 ** n)))

    def test_factor_trimmed_to_constant(self):
        # p = 1 + 5e-10 phi clears the constant-factor check (its tail is
        # above 1e-10 of its scale) but its linear term falls to the 1e-9 trim
        grid = rank_one_grid(0.3, [1.0, 5e-10, 0], [0, 1.0, 0])
        with pytest.raises(NoDiskDenominator, match="factor reduces to a constant polynomial"):
            factor_rank_one(grid)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e80, 1e160])
    def test_huge_grid_scaled_by_a_power_of_two(self, scale, capfd):
        # unscaled, the power steps overflow and LAPACK prints an illegal
        # value; scaled by a power of two, the grid factors as at scale 1
        base = factor_rank_one(product_grid(0.3, 1, 2))
        fac = factor_rank_one(product_grid(0.3, 1, 2) * scale)
        assert abs(fac.a - base.a) <= 1e-12
        np.testing.assert_allclose(fac.p / np.sqrt(scale), base.p, atol=1e-12)
        np.testing.assert_allclose(fac.q / np.sqrt(scale), base.q, atol=1e-12)
        assert capfd.readouterr().err == ""

    def test_near_boundary_centers(self):
        for a_mod in (0.85, 0.9, 0.94):
            a = a_mod * np.exp(0.8j)
            fac = factor_rank_one(rank_one_grid(a, [0.4, 1.0, 0], [0, 0.7, -0.5]))
            assert abs(fac.a - a) <= 1e-8

    def test_spurious_candidate_beyond_admissible_disk(self):
        # a piece whose holomorphic side also yields a spurious candidate
        # (|b| = 0.89 from its ratio fit); the true center must still win.
        # Any candidate at or beyond MAX_CENTER_MODULUS, inside the disk but
        # beyond every admissible center, is dropped before scoring
        a = -0.5575249025186464 - 0.597361134544613j
        piece = decompose_node(a, -0.07440965094228542 + 1.339787267246392j,
                               -0.06458948526359198 - 0.33127795684423034j,
                               -0.052087979659456274 + 0.45184063362730165j)[0]
        fac = factor_rank_one(symbol_transform(piece.symbol))
        assert abs(fac.a - a) <= 1e-8

    def test_center_from_holomorphic_side(self):
        # q has a vanishing phi^2 coefficient up to 1e-4, so only the
        # ratio fit on the p side is exact; both sides' roots are conj(a)
        a = 0.5 + 0.5j
        fac = factor_rank_one(rank_one_grid(a, [0.4, 1, 0], [0.2j, 1, 1e-4]))
        assert abs(fac.a - a) <= 1e-14

    @pytest.mark.parametrize("shape", [(10, 81), (7, 81), (81, 10)])
    def test_shorter_side_sizes_the_tail(self, shape):
        grid = rank_one_grid(0.3 + 0.2j, [0.4, 1, 0], [0, 1, 0.5])
        fac = factor_rank_one(BidegreeSeries(grid.coeffs[: shape[0], : shape[1]]))
        assert abs(fac.a - (0.3 + 0.2j)) <= 1e-12

    @pytest.mark.parametrize("shape", [(6, 81), (81, 6)])
    def test_fewer_than_seven_rows_or_columns_rejected(self, shape):
        grid = rank_one_grid(0.3 + 0.2j, [0.4, 1, 0], [0, 1, 0.5])
        with pytest.raises(DomainError, match="grid truncation too small for factorization"):
            factor_rank_one(BidegreeSeries(grid.coeffs[: shape[0], : shape[1]]))

    def test_proven_rank_one_runs_no_svd(self, monkeypatch):
        grid = product_grid(0.4, 1, 2)

        def refuse(*args, **kwargs):
            raise AssertionError("an SVD ran on a proven rank-one grid")

        monkeypatch.setattr(recovery, "numerical_rank", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        fac = factor_rank_one(grid)
        assert abs(fac.a - 0.4) <= 1e-8

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rank_decisions_are_those_of_numerical_rank(self):
        # NotRankOne (with its message) exactly when numerical_rank finds a
        # rank other than one, ZeroInput exactly when numerical_rank raises
        # it, over rank-one grids of every degree pattern, the same with
        # noise around the rank tolerance, sums of two, three shapes, and
        # zero and tiny grids; a huge sum is scaled before the power steps,
        # and the SVD still decides without a warning
        rng = np.random.default_rng(35)

        def noisy(grid, rel, dense):
            C = grid.coeffs
            k0, k1 = min(C.shape[0], 40), min(C.shape[1], 40)
            U, s, Vh = np.linalg.svd(C[:k0, :k1])
            if dense:
                noise = rng.standard_normal(C.shape) + 1j * rng.standard_normal(C.shape)
                noise /= np.linalg.norm(noise[:k0, :k1], 2)
            else:
                # orthogonal to the dominant pair on the corner, so that
                # sigma_2 / sigma_1 of the corner is rel
                u = rng.standard_normal(C.shape[0]) + 1j * rng.standard_normal(C.shape[0])
                v = rng.standard_normal(C.shape[1]) + 1j * rng.standard_normal(C.shape[1])
                u[:k0] -= U[:, 0] * np.vdot(U[:, 0], u[:k0])
                v[:k1] -= Vh[0].conj() * np.vdot(Vh[0].conj(), v[:k1])
                noise = np.outer(u / np.linalg.norm(u[:k0]), np.conj(v / np.linalg.norm(v[:k1])))
            return BidegreeSeries(C + rel * s[0] * noise)

        def decision(grid):
            try:
                factor_rank_one(grid)
            except (NotRankOne, ZeroInput) as exc:
                return type(exc), str(exc)
            except BerezinError:
                pass   # failures after the rank decision
            return None

        def expected(grid):
            try:
                rank = numerical_rank(grid).rank
            except ZeroInput as exc:
                return ZeroInput, str(exc)
            return None if rank == 1 else (NotRankOne, f"numerical rank {rank} != 1")

        rels = (1e-12, 1e-9, 1e-8 * (1 - 1e-3), 1e-8 * (1 + 1e-3), 1e-7, 1e-5)
        grids = []
        for shape in ((7, 7), (13, 81), (81, 81)):
            rank_one = []
            for dp in range(3):
                for dq in range(3):
                    a = 0.9 * rng.uniform() ** 0.5 * np.exp(2j * np.pi * rng.uniform())
                    p = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                    q = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                    full = rank_one_grid(a, np.where(np.arange(3) <= dp, p, 0),
                                         np.where(np.arange(3) <= dq, q, 0))
                    rank_one.append(BidegreeSeries(full.coeffs[: shape[0], : shape[1]]))
            grids += rank_one
            grids += [noisy(g, rel, dense) for g in rank_one for rel in rels
                      for dense in (False, True)]
            grids += [g + h for g, h in zip(rank_one, rank_one[1:])]
            grids += [BidegreeSeries(np.zeros(shape)), BidegreeSeries(np.full(shape, 1e-15)),
                      (rank_one[0] + rank_one[4]) * 1e80]
        outcomes = [(decision(g), expected(g)) for g in grids]
        assert all(got == want for got, want in outcomes)
        # the sweep reaches both sides of every decision
        kinds = {want[0] if want else None for _, want in outcomes}
        assert kinds == {None, NotRankOne, ZeroInput}

    @pytest.mark.parametrize("modulus", [0.0, 1e-12, 1e-8, 1e-4])
    def test_centers_at_the_origin(self, modulus):
        # no candidate is put at 0: there the sides' own estimates are 0
        # (the ratio fit of a side of degree 1, the recurrence fit of one
        # of degree 2), and nearby they are the center
        rng = np.random.default_rng(37)
        a = modulus * np.exp(0.7j)
        for dp in range(3):
            for dq in range(3):
                p, q = (np.where(np.arange(3) <= d, rng.standard_normal(3) + 1j * rng.standard_normal(3), 0)
                        for d in (dp, dq))
                grid = rank_one_grid(a, p, q)
                if dp and dq and dp + dq <= 3:
                    fac = factor_rank_one(grid)
                    assert abs(fac.a - a) <= 1e-12
                    pg, qg = gauge_fix(p, q)
                    assert max(np.max(np.abs(fac.p - pg)), np.max(np.abs(fac.q - qg))) <= 1e-12
                else:
                    message = "factor degrees violate" if dp and dq else "factor is constant"
                    with pytest.raises(NoDiskDenominator, match=message):
                        factor_rank_one(grid)

    def test_gauge_fix_canonical(self, rng):
        p = np.array([0.3 - 1j, 0.8, 0.0])
        q = np.array([0.2, -0.9 + 0.1j, 0.0])
        mu = 2.3 * np.exp(1.2j)
        p1, q1 = gauge_fix(p, q)
        p2, q2 = gauge_fix(mu * p, q / np.conj(mu))
        np.testing.assert_allclose(p1, p2, atol=1e-12)
        np.testing.assert_allclose(q1, q2, atol=1e-12)
        lead = p1[np.flatnonzero(np.abs(p1) > 1e-12)[0]]
        assert abs(lead.imag) <= 1e-14 and lead.real > 0


class TestDecomposeNode:
    def test_both_higher_terms(self):
        pieces = decompose_node(0.3, 0.0, 1.0, 1.0)
        assert len(pieces) == 2
        assert [(p.f.power, p.g.power) for p in pieces] == [(2, 1), (1, 2)]
        # no numerator vanishes at the pole 1/conj(a), so each power is the
        # factor's pole order
        for factor in (factor for p in pieces for factor in (p.f, p.g)):
            value = np.polynomial.polynomial.polyval(1 / 0.3, factor.numerator)
            assert abs(value) > 1e-10 * np.max(np.abs(factor.numerator))

    def test_single_piece_cases(self):
        assert len(decompose_node(0.3, 1.0, 1.0, 0.0)) == 1
        assert len(decompose_node(0.3, 1.0, 0.0, 1.0)) == 1
        assert len(decompose_node(0.3, 1.0, 0.0, 0.0)) == 1

    def test_pieces_match_products(self, rng):
        for (c11, c21, c12) in ((1.0, 0.5j, -0.7), (1.0, 0.0, 0.0), (0.2, 0.9, 0.0), (0.0, 0.0, 1.0)):
            a = complex(rng.uniform(0.1, 0.6) * np.exp(2j * np.pi * rng.uniform()))
            pieces = decompose_node(a, c11, c21, c12)
            total = None
            for piece in pieces:
                got = symbol_transform(piece.symbol, 60)
                want = BidegreeSeries.outer(piece.f.series(60), piece.g.series(60))
                assert got.max_coeff_diff(want) <= 1e-8
                assert numerical_rank(want).rank == 1
                total = got if total is None else total + got
            direct = (product_grid(a, 1, 1, 60) * c11 + product_grid(a, 2, 1, 60) * c21
                      + product_grid(a, 1, 2, 60) * c12)
            assert total.max_coeff_diff(direct) <= 1e-8

    def test_degenerate(self):
        with pytest.raises(DegenerateNode):
            decompose_node(0.3, 0.0, 0.0, 0.0)


class TestDecomposeForm:
    def _total_grid(self, pieces, remainder, truncation=80):
        total = None
        for piece in pieces:
            part = symbol_transform(piece.symbol, truncation)
            total = part if total is None else total + part
        if remainder is not None:
            part = symbol_transform(remainder, truncation)
            total = part if total is None else total + part
        return total

    def test_single_node_all_constants(self):
        form = NodeForm(nodes=((0.3, 1.0, 1.0, 1.0),))
        pieces, remainder, _ = decompose_form(form)
        assert len(pieces) == 2
        assert remainder is None
        total = self._total_grid(pieces, remainder)
        assert total.max_coeff_diff(node_form_transform(form)) <= 1e-7

    def test_absorbable_anti_part(self):
        base = NodeForm(nodes=((0.3, 1.0, 0.5, -0.25j),))
        base_pieces, _, _ = decompose_form(base)
        g1 = base_pieces[0].g.series(40).coeffs
        mu = 0.7 - 0.2j
        anti = g1 * mu
        anti[0] = 0.0
        form = NodeForm(anti=PowerSeries(anti), nodes=base.nodes)
        pieces, remainder, info = decompose_form(form)
        assert info["anti_absorbed"]
        assert remainder is None
        for piece in pieces:
            assert numerical_rank(symbol_transform(piece.symbol, 60)).rank == 1
        total = self._total_grid(pieces, remainder)
        assert total.max_coeff_diff(node_form_transform(form)) <= 1e-7

    def test_absorbable_holo_part(self):
        # K in the span of {1, f_1, f_2}: the pieces take its f_i parts and
        # its constant is left as a final harmonic piece
        base = NodeForm(nodes=((0.3, 1.0, 0.5, -0.25j),))
        base_pieces, _, _ = decompose_form(base)
        f1, f2 = (piece.f.series(80).coeffs for piece in base_pieces)
        holo = 0.6j * f1 - 0.3 * f2
        holo[0] += 0.2
        form = NodeForm(holo=PowerSeries(holo), nodes=base.nodes)
        pieces, remainder, info = decompose_form(form)
        assert info["holo_absorbed"]
        assert remainder is None
        assert len(pieces) == 3 and pieces[-1].harmonic
        for piece in pieces:
            grid = symbol_transform(piece.symbol, 60)
            assert numerical_rank(grid).rank == 1
            # g takes conj(kappa_i) as f_i's multiple joins the symbol
            factors = BidegreeSeries.outer(piece.f.series(60), piece.g.series(60))
            assert grid.max_coeff_diff(factors) <= 1e-14
        total = self._total_grid(pieces, remainder)
        assert total.max_coeff_diff(node_form_transform(form)) <= 1e-7

    def test_anti_part_cut_short_of_the_truncation_is_left(self):
        # mu g1 cut to 40 terms at a node of modulus 0.85: its terms 41 to 80
        # are still 1e-3 of the first, so at the pieces' truncation 80 it is
        # not in their span; absorbed, it leaves a first piece whose grid is
        # not rank one (no center reconstructs both factors)
        base = NodeForm(nodes=((0.85, 1.0, 0.5, -0.25j),))
        base_pieces, _, _ = decompose_form(base)
        anti = (0.7 - 0.2j) * base_pieces[0].g.series(40).coeffs
        anti[0] = 0.0
        form = NodeForm(anti=PowerSeries(anti), nodes=base.nodes)
        pieces, remainder, info = decompose_form(form)
        assert not info["anti_absorbed"]
        assert remainder is not None and not remainder.atoms
        for piece in pieces:
            factor_rank_one(symbol_transform(piece.symbol, 80))
        total = self._total_grid(pieces, remainder)
        assert total.max_coeff_diff(node_form_transform(form)) <= 1e-7

    def test_generic_anti_part_left_as_remainder(self):
        anti = np.zeros(6, dtype=np.complex128)
        anti[5] = 1.0
        form = NodeForm(anti=PowerSeries(anti), nodes=((0.3, 1.0, 0.5, 0.0),))
        pieces, remainder, info = decompose_form(form)
        assert not info["anti_absorbed"]
        assert remainder is not None
        assert not remainder.atoms
        total = self._total_grid(pieces, remainder)
        assert total.max_coeff_diff(node_form_transform(form)) <= 1e-7

    def test_random_forms(self, rng):
        for _ in range(4):
            form = random_form(rng, n_nodes=int(rng.integers(1, 3)))
            pieces, remainder, _ = decompose_form(form)
            for piece in pieces:
                assert numerical_rank(symbol_transform(piece.symbol, 60)).rank == 1
            total = self._total_grid(pieces, remainder)
            assert total.max_coeff_diff(node_form_transform(form)) <= 1e-7

    def test_corollary_style_forward_check(self):
        # a fitted form with negligible node constants comes from a symbol
        # with negligible atom coefficients
        grid = symbol_transform(Symbol(holo=PowerSeries([0, 1.0])), 40)
        form, _ = fit_node_form(grid, [0.3])
        (a, c11, c21, c12) = form.nodes[0]
        assert max(abs(c11), abs(c21), abs(c12)) <= 1e-8
        sym = canonicalize(form.to_symbol(40))
        assert all(abs(atom.coeff) <= 1e-7 for atom in sym.atoms)
