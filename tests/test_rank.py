import tracemalloc

import numpy as np
import pytest

from berezin import _kernels, quadrature
from berezin.core import BidegreeSeries, PowerSeries
from berezin.errors import DomainError, ZeroInput
from berezin.quadrature import _polar_nodes_cached, polar_nodes
from berezin.rank import (
    _assemble,
    calibrated_orientation,
    moment_matrix,
    moment_matrix_from_grid,
    numerical_rank,
    weighted_monomial_moments,
)
from berezin.symbols import Atom, Symbol
from berezin.transform import (
    log_atom_transform,
    product_grid,
    symbol_transform,
)


def simple_grid(entries):
    return BidegreeSeries(np.asarray(entries, dtype=np.complex128))


class TestComplexified:
    def test_two_variable_defining_integral(self):
        # off-diagonal values must match the two-variable kernel integral
        # int u(t) (1 - z w)^2 / ((1 - conj(t) z)^2 (1 - t w)^2) dA(t)
        from berezin.quadrature import disk_integrate_singular

        a = 0.3
        grid = log_atom_transform(a)
        for (z, w) in ((0.4, 0.2j), (0.3 + 0.2j, -0.1 + 0.25j)):
            def integrand(t):
                kern = (1 - z * w) ** 2 / ((1 - np.conj(t) * z) ** 2 * (1 - t * w) ** 2)
                return np.log(np.abs(t - a)) * kern

            want = disk_integrate_singular(integrand, a)
            # the two-variable extension sum c[m, n] z^m w^n of the grid
            got = np.polynomial.polynomial.polyval2d(z, w, grid.coeffs)
            assert got == pytest.approx(want, abs=1e-8)


class TestNumericalRank:
    def test_single_product(self):
        assert numerical_rank(simple_grid([[0, 0], [0, 1.0]])).rank == 1

    def test_log_grid_rank_two(self):
        assert numerical_rank(simple_grid([[-0.5, 0], [0, 0.5]])).rank == 2

    def test_automorphism_product_rank_one(self):
        assert numerical_rank(product_grid(0.3, 1, 1)).rank == 1

    def test_constructed_ranks(self):
        for r in (1, 2, 3, 4):
            coeffs = np.zeros((10, 10), dtype=np.complex128)
            for i in range(r):
                coeffs[i, i] = 1.0
            assert numerical_rank(BidegreeSeries(coeffs)).rank == r

    def test_zero_input(self):
        with pytest.raises(ZeroInput):
            numerical_rank(BidegreeSeries.zero(4))

    def test_tolerance_domain(self):
        with pytest.raises(DomainError):
            numerical_rank(product_grid(0.3, 1, 1), tol_rel=2.0)

    def test_subadditivity(self, rng):
        for _ in range(10):
            a = product_grid(rng.uniform(0.1, 0.7), 1, 1)
            b = product_grid(rng.uniform(0.1, 0.7) * 1j, 1, 2)
            ra = numerical_rank(a).rank
            rb = numerical_rank(b).rank
            assert numerical_rank(a + b).rank <= ra + rb

    @pytest.mark.parametrize("kind", ["log", "pole", "conjpole"])
    def test_svd_corner_keeps_full_grid_rank(self, kind):
        # the 40x40 corner is not small in norm near the boundary, but it
        # spans the same rank as the full exact grid
        for modulus in (0.3, 0.6, 0.85, 0.9, 0.94):
            for angle in (0.4, 2.1, 4.0):
                center = modulus * np.exp(1j * angle)
                grid = symbol_transform(Symbol(atoms=(Atom(kind, center, 1.0),)))
                assert numerical_rank(grid).rank == numerical_rank(grid.coeffs).rank

    def test_report_serialization(self):
        report = numerical_rank(product_grid(0.3, 1, 1))
        doc = report.to_dict()
        assert doc["rank"] == 1
        assert doc["singular_values"][0] > 0


class TestLaplacianWeightedMonomial:
    def test_against_symbolic_differentiation(self, rng):
        # (1 - z w)^2 z^k w^l as a coefficient array (w stands for conj(z)),
        # then d/dz d/dw maps the coefficient at (m, n) to m n at (m-1, n-1);
        # the moment M[k, l] pairs that Laplacian with the monomial moments G
        kmax, lmax = 4, 3
        G = (rng.integers(-9, 10, (kmax + 2, lmax + 2))
             + 1j * rng.integers(-9, 10, (kmax + 2, lmax + 2)))
        got = _assemble(G, kmax, lmax)
        for k in range(kmax + 1):
            for l in range(lmax + 1):
                product = np.zeros((k + 3, l + 3))
                for j, c in enumerate((1.0, -2.0, 1.0)):
                    product[k + j, l + j] = c
                m = np.arange(k + 3)[:, None]
                n = np.arange(l + 3)[None, :]
                laplacian = (m * n * product)[1:, 1:]
                assert got[k, l] == np.sum(laplacian * G[: k + 2, : l + 2])


class TestMomentMatrix:
    def test_orientation_is_calibrated(self):
        assert calibrated_orientation() == "full"

    def test_harmonic_vanishes(self):
        u = Symbol(holo=PowerSeries([0, 0, 0, 1.0]), anti=PowerSeries([0, 0.5]))
        M = moment_matrix(u, 5, 5)
        assert np.max(np.abs(M.entries)) <= 1e-8

    def test_log_atom_node_ratio(self):
        # one log atom gives a rank-one matrix with geometric node structure
        u = Symbol(atoms=(Atom("log", 0.3, 1.0),))
        M = moment_matrix(u, 5, 5).entries
        ratios = M[1:, :] / M[:-1, :]
        np.testing.assert_allclose(ratios, 0.3, atol=1e-7)
        assert numerical_rank(M).rank == 1

    def test_two_log_atoms_rank_two(self):
        u = Symbol(atoms=(Atom("log", 0.3, 1.0), Atom("log", -0.2 + 0.5j, 1.0)))
        M = moment_matrix(u, 6, 6)
        assert numerical_rank(M.entries).rank == 2

    def test_rank_bound_per_center(self):
        u = Symbol(atoms=(
            Atom("log", 0.3, 1.0), Atom("pole", 0.3, 0.5), Atom("conjpole", 0.3, -0.25j),
            Atom("pole", -0.4j, 1.0),
        ))
        M = moment_matrix(u, 8, 8)
        assert numerical_rank(M.entries).rank <= 2 * 2

    def test_shift_minors_rank_one(self):
        u = Symbol(atoms=(Atom("log", 0.35 - 0.1j, 2.0),))
        M = moment_matrix(u, 5, 5).entries
        minors = M[1:, :-1] * M[:-1, 1:] - M[:-1, :-1] * M[1:, 1:]
        scale = np.abs(M[:-1, :-1] * M[1:, 1:])
        assert np.max(np.abs(minors) / np.maximum(scale, 1e-30)) <= 1e-8

    def test_cross_identity(self):
        # the central consistency check: moment entries from quadrature
        # match the derivative coefficients of the exact grid
        corpus = [
            Symbol(atoms=(Atom("log", 0.3, 1.0),)),
            Symbol(atoms=(Atom("pole", -0.2 + 0.4j, 1.0),)),
            Symbol(holo=PowerSeries([0.5, 1.0]), atoms=(Atom("conjpole", 0.45, 2.0),)),
        ]
        for u in corpus:
            quad = moment_matrix(u, 5, 5)
            exact = moment_matrix_from_grid(symbol_transform(u), 5, 5)
            assert np.max(np.abs(quad.entries - exact.entries)) <= 1e-6

    def test_same_center_atoms_share_one_contraction(self):
        atoms = (Atom("log", 0.3 - 0.2j, 1.0), Atom("pole", 0.3 - 0.2j, 0.5 + 0.25j),
                 Atom("conjpole", 0.3 - 0.2j, -0.25j))
        together = weighted_monomial_moments(Symbol(atoms=atoms), 13, 13)
        apart = sum(weighted_monomial_moments(Symbol(atoms=(atom,)), 13, 13) for atom in atoms)
        # relative to the sum of absolute terms, sum |u| w |z|^(p+q): the high
        # moments of this center cancel to under 1e-5 of that, so entrywise relative
        # differences there show rounding, not a change of node set
        z, w = polar_nodes(0.3 - 0.2j)
        weights = sum(np.abs(atom.eval(z)) for atom in atoms) * w
        scale = _kernels.monomial_moments(np.abs(z), weights, 13, 13).real
        assert np.all(np.abs(together - apart) <= 1e-13 * scale)

    def test_moment_memory_is_bounded(self, monkeypatch):
        # three atoms on one 0.75 center contract its moment set (reach 0,
        # degree 26) of 974,336 nodes at scale 17; the two unblocked
        # 14 x 974,336 complex power tables alone would take 416 MiB, 3.25
        # times the bound (the peak was 82.9 MiB)
        a = 0.75 * np.exp(0.3j)
        u = Symbol(atoms=(Atom("log", a, 1.0), Atom("pole", a, 0.5), Atom("conjpole", a, -0.25j)))
        monkeypatch.setattr(quadrature, "_reach_rule", lambda reach: 17)
        assert len(polar_nodes(a, 17, reach=0.0, degree=26)[0]) == 974_336
        tracemalloc.start()
        try:
            moment_matrix(u, 12, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            _polar_nodes_cached.cache_clear()
        assert peak < 128 * 2**20

    def test_grid_route_requires_truncation(self):
        with pytest.raises(DomainError):
            moment_matrix_from_grid(product_grid(0.3, 1, 1, 5), 8, 8)

    def test_serialization(self):
        M = moment_matrix(Symbol(atoms=(Atom("log", 0.2, 1.0),)), 2, 2)
        doc = M.to_dict()
        assert doc["kmax"] == 2 and "orientation" not in doc
        assert len(doc["entries"]) == 3
