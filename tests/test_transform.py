import numpy as np
import pytest

from berezin.core import DEFAULT_TRUNCATION, DiskAutomorphism, PowerSeries, mobius_eval
from berezin.errors import DomainError
from berezin.quadrature import berezin_numeric, disk_integrate_singular
from berezin.symbols import Atom, NodeForm, Symbol, product_preimage_symbol
from berezin.transform import (
    covariance_residual,
    harmonic_transform,
    node_form_transform,
    product_grid,
    symbol_transform,
    symbol_values,
)

from conftest import conjugated_symbol


def phi(a, z):
    return mobius_eval(DiskAutomorphism(a), z)


def atom_grid(kind, a, truncation=DEFAULT_TRUNCATION):
    """Exact grid of one atom of coefficient 1."""
    return symbol_transform(Symbol(atoms=(Atom(kind, a, 1.0),)), truncation)


class TestHarmonic:
    def test_constant(self):
        grid = harmonic_transform(PowerSeries([1.0]), PowerSeries.zero(), 4)
        assert grid.coeffs[0, 0] == 1.0
        assert np.count_nonzero(grid.coeffs) == 1

    def test_holomorphic_cube(self):
        grid = harmonic_transform(PowerSeries([0, 0, 0, 1.0]), PowerSeries.zero(), 5)
        assert grid.coeffs[3, 0] == 1.0
        assert np.count_nonzero(grid.coeffs) == 1

    def test_anti_part(self):
        grid = harmonic_transform(PowerSeries.zero(), PowerSeries([0, 1.0]), 5)
        assert grid.coeffs[0, 1] == 1.0
        assert np.count_nonzero(grid.coeffs) == 1

    def test_requires_normalization(self):
        with pytest.raises(DomainError):
            harmonic_transform(PowerSeries.zero(), PowerSeries([1.0, 1.0]), 4)


class TestLogAtom:
    def test_origin_closed_form(self):
        grid = atom_grid("log", 0.0, 6)
        assert grid.coeffs[0, 0] == pytest.approx(-0.5)
        assert grid.coeffs[1, 1] == pytest.approx(0.5)
        assert np.count_nonzero(np.abs(grid.coeffs) > 1e-14) == 2

    def test_value_at_zero_vs_quadrature(self):
        a = 0.3
        grid = atom_grid("log", a)
        oracle = disk_integrate_singular(lambda z: np.log(np.abs(z - a)), a)
        assert grid.eval(0.0) == pytest.approx(oracle, abs=1e-8)

    def test_matches_numeric_at_point(self):
        a = 0.3
        u = Symbol(atoms=(Atom("log", a, 1.0),))
        z = 0.4j
        assert atom_grid("log", a).eval(z) == pytest.approx(
            berezin_numeric(u, z), abs=1e-6
        )

    def test_closed_form_everywhere(self, rng):
        # (phi*conj(phi) - 1)/2 + ln|1 - conj(a) z|
        for _ in range(5):
            a = rng.uniform(0, 0.8) * np.exp(2j * np.pi * rng.uniform())
            z = rng.uniform(0, 0.85) * np.exp(2j * np.pi * rng.uniform())
            w = phi(a, z)
            want = (w * np.conj(w) - 1) / 2 + np.log(abs(1 - np.conj(a) * z))
            assert atom_grid("log", a).eval(z) == pytest.approx(want, abs=1e-11)


class TestPoleAtom:
    def test_origin_closed_form(self):
        grid = atom_grid("pole", 0.0, 6)
        assert grid.coeffs[0, 1] == pytest.approx(2.0)
        assert grid.coeffs[1, 2] == pytest.approx(-1.0)
        assert np.count_nonzero(np.abs(grid.coeffs) > 1e-14) == 2

    def test_conjugate_variant_value(self):
        grid = atom_grid("conjpole", 0.0, 6)
        # grid of 2z - conj(z) z^2 at z = 1/2
        assert grid.eval(0.5) == pytest.approx(0.875)

    def test_matches_numeric(self):
        a = 0.3
        u = Symbol(atoms=(Atom("pole", a, 1.0),))
        assert atom_grid("pole", a).eval(0.5) == pytest.approx(
            berezin_numeric(u, 0.5), abs=1e-6
        )

    def test_closed_form_everywhere(self, rng):
        for _ in range(5):
            a = rng.uniform(0, 0.8) * np.exp(2j * np.pi * rng.uniform())
            z = rng.uniform(0, 0.85) * np.exp(2j * np.pi * rng.uniform())
            w = phi(a, z)
            want = (np.conj(a) + 2 * np.conj(w) - w * np.conj(w) ** 2) / (1 - abs(a) ** 2)
            assert atom_grid("pole", a).eval(z) == pytest.approx(want, abs=1e-11)


class TestMonomial:
    def test_against_quadrature(self):
        # B(|t|^2)(z) = x + (1 - x)^2 (-ln(1 - x) - x) / x^2 with x = |z|^2, and 1/2 at 0
        for z in (0.0, 0.5, 0.3 - 0.6j):
            x = abs(z) ** 2
            want = 0.5 if x == 0 else x + (1 - x) ** 2 * (-np.log1p(-x) - x) / x ** 2
            assert berezin_numeric(lambda t: abs(t) ** 2, z) == pytest.approx(want, abs=1e-12)


class TestSymbolTransform:
    def test_product_preimages(self, rng):
        # the three closed-form preimages hit the automorphism products
        # exactly; symbol_transform reads atoms through these preimages, so
        # the grids agree by construction, and the per-kind closed forms of
        # symbol_values check the preimages independently
        zs = 0.85 * np.linspace(0.1, 1.0, 12) * np.exp(2.4j * np.arange(12))
        for jk in ((1, 1), (2, 1), (1, 2)):
            a = rng.uniform(0.2, 0.7) * np.exp(2j * np.pi * rng.uniform())
            s = product_preimage_symbol(a, *jk)
            assert symbol_transform(s).max_coeff_diff(product_grid(a, *jk)) <= 1e-12
            w = phi(a, zs)
            want = w ** jk[0] * np.conj(w) ** jk[1]
            assert np.max(np.abs(symbol_values(s, zs) - want)) <= 1e-12

    def test_harmonic_embedding(self):
        s = Symbol(holo=PowerSeries([0, 1.0]), anti=PowerSeries([0, 0, 1.0]))
        grid = symbol_transform(s, 5)
        assert grid.coeffs[1, 0] == 1.0
        assert grid.coeffs[0, 2] == 1.0
        assert np.count_nonzero(grid.coeffs) == 2

    def test_exact_vs_numeric_corpus(self):
        centers = (0.3, -0.5 + 0.6j, 0.8)
        radii = (0.0, 0.25, 0.5, 0.75)
        angles = np.exp(2j * np.pi * np.arange(8) / 8)
        zs = np.array([r * w for r in radii for w in angles])
        for a in centers:
            for kind in ("log", "pole", "conjpole"):
                u = Symbol(atoms=(Atom(kind, a, 1.0),))
                exact = symbol_transform(u).eval(zs)
                numeric = berezin_numeric(u, zs)
                assert np.max(np.abs(exact - numeric)) <= 1e-6

    def test_conjugate_symmetry(self, rng):
        s = Symbol(
            holo=PowerSeries([0.2, 1.0 - 0.5j]),
            anti=PowerSeries([0, 0.4j]),
            atoms=(Atom("pole", 0.3 - 0.2j, 1.0 + 2.0j), Atom("log", -0.1j, 0.7)),
        )
        from berezin.symbols import canonicalize

        direct = symbol_transform(canonicalize(conjugated_symbol(s)))
        swapped = symbol_transform(s).conjugate()
        assert direct.max_coeff_diff(swapped) <= 1e-12

    def test_real_symbol_hermitian_grid(self):
        u = Symbol(atoms=(
            Atom("log", 0.25 - 0.4j, 2.0),
            Atom("pole", 0.3, 1.0 - 0.5j),
            Atom("conjpole", 0.3, 1.0 + 0.5j),
        ))
        grid = symbol_transform(u).coeffs
        assert np.max(np.abs(grid - np.conj(grid.T))) <= 1e-12


def mixed_symbol(rng):
    """1-6 atoms of any kind on 1-6 shared centers with |a| <= 0.7, and K and
    L of 1-240 terms; coefficients 1e-12 to 1e12."""
    n = int(rng.integers(1, 7))
    centers = 0.7 * np.sqrt(rng.uniform(size=int(rng.integers(1, n + 1))))
    centers = centers * np.exp(2j * np.pi * rng.uniform(size=len(centers)))
    atoms = tuple(Atom(("log", "pole", "conjpole")[int(rng.integers(3))],
                       centers[int(rng.integers(len(centers)))],
                       10 ** rng.uniform(-12, 12) * np.exp(2j * np.pi * rng.uniform()))
                  for _ in range(n))

    def series():
        m = int(rng.integers(1, 241))
        return 10 ** rng.uniform(-12, 12) * (rng.standard_normal(m) + 1j * rng.standard_normal(m))

    return Symbol(holo=PowerSeries(series()), anti=PowerSeries(series()), atoms=atoms)


class TestOneLaw:
    def test_mixed_symbols(self, rng):
        # every atom goes through its product's preimage, so the grids must
        # agree with the per-kind closed forms and be linear in the symbol
        zs = 0.5 * np.linspace(0.0, 1.0, 9) * np.exp(2.4j * np.arange(9))
        for _ in range(200):
            s = mixed_symbol(rng)
            want = symbol_values(s, zs)
            got = symbol_transform(s, 160).eval(zs)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            c = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform())
            scaled = symbol_transform(s) * c
            deviation = symbol_transform(s.scaled(c)).max_coeff_diff(scaled)
            assert deviation <= 4e-15 * np.max(np.abs(scaled.coeffs))

    def test_node_form_round_trip(self, rng):
        # to_symbol writes through the table that symbol_transform reads, so
        # the preimages' harmonic parts cancel only if its signs and
        # conjugations are right
        for _ in range(200):
            n = int(rng.integers(1, 5))
            centers = 0.9 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
            constants = ((rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3)))
                         * (rng.uniform(size=(n, 3)) >= 1 / 3))
            degree = int(rng.integers(0, 5))
            holo, anti = rng.standard_normal((2, degree + 1)) + 1j * rng.standard_normal((2, degree + 1))
            anti[0] = 0.0
            form = NodeForm(holo=PowerSeries(holo), anti=PowerSeries(anti),
                            nodes=tuple((a, *cs) for a, cs in zip(centers, constants)))
            T = (40, 80, 160)[int(rng.integers(3))]
            want = node_form_transform(form, T)
            got = symbol_transform(form.to_symbol(T), T)
            assert got.shape == want.shape
            assert got.max_coeff_diff(want) <= 4e-15 * np.max(np.abs(want.coeffs))


class TestSymbolValues:
    @pytest.mark.parametrize("kind", ["log", "pole", "conjpole"])
    def test_matches_fine_grid(self, kind):
        from berezin.cli import _sample_points

        zs = _sample_points()
        for modulus in (0.3, 0.6, 0.85, 0.9):
            for angle in (0.4, 2.1, 4.5):
                u = Symbol(atoms=(Atom(kind, modulus * np.exp(1j * angle), 0.7 - 0.4j),))
                want = symbol_transform(u, 160).eval(zs)
                assert np.max(np.abs(symbol_values(u, zs) - want)) <= 1e-12

    def test_harmonic_part_and_scalar(self):
        s = Symbol(
            holo=PowerSeries([0.2, 1.0 - 0.5j, 0.3]),
            anti=PowerSeries([0.1, 0.4j]),
            atoms=(Atom("pole", 0.3 - 0.2j, 1.0 + 2.0j), Atom("log", -0.1j, 0.7)),
        )
        z = 0.45 + 0.3j
        got = symbol_values(s, z)
        assert isinstance(got, complex)
        assert got == pytest.approx(symbol_transform(s).eval(z), abs=1e-12)

    def test_requires_open_disk(self):
        with pytest.raises(DomainError):
            symbol_values(Symbol.constant(1.0), np.array([0.2, 1.0]))


class TestCovariance:
    def test_constant_symbol(self):
        assert covariance_residual(Symbol.constant(1.0), 0.3, 0.5) <= 1e-12

    def test_log_atom_instance(self):
        s = Symbol(atoms=(Atom("log", 0.0, 1.0),))
        assert covariance_residual(s, 0.3, 0.2) <= 1e-5

    def test_node_form_instance(self):
        # log, pole and conjugate pole share one center, declared once
        s = NodeForm(nodes=((0.3, 1, 0.5, 0.2j),)).to_symbol()
        assert covariance_residual(s, 0.2, 0.1) <= 1e-5

    def test_harmonic_instance(self):
        s = Symbol(holo=PowerSeries([0, 0, 1.0]))
        assert covariance_residual(s, 0.5j, 0.1) <= 1e-5

    def test_range_guard(self):
        with pytest.raises(DomainError):
            covariance_residual(Symbol.constant(1.0), 0.9, 0.1)
