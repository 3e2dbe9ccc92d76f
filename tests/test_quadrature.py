from math import ceil

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from berezin import _kernels, quadrature
from berezin.cli import _sample_points
from berezin.core import PowerSeries
from berezin.errors import DomainError, NonConvergence, OutOfRange
from berezin.quadrature import (
    berezin_numeric,
    disk_integrate_singular,
    polar_nodes,
    symbol_parts,
)
from berezin.rank import moment_matrix, moment_matrix_from_grid, weighted_monomial_moments
from berezin.symbols import Atom, NodeForm, Symbol, symbol_eval
from berezin.transform import symbol_transform, symbol_values

#: Every tenth CLI sample point: all ten radii up to 0.9, rotating angles.
SWEEP_POINTS = _sample_points()[::10]


class TestPlainRule:
    """The rule for plain integrands, those that declare no center: the
    center-0 polar set."""

    @staticmethod
    def _integrate(f):
        z, w = polar_nodes(0j)
        return complex(np.sum(w * f(z)))

    def test_measure_normalization(self):
        _, w = polar_nodes(0j)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-14)
        assert np.all(w > 0)
        assert self._integrate(np.ones_like) == pytest.approx(1.0, abs=1e-14)

    def test_second_moment(self):
        # the mean of |z|^2 over the disk is 1/2
        assert self._integrate(lambda z: np.abs(z) ** 2) == pytest.approx(0.5, abs=1e-14)

    def test_rotational_symmetry(self):
        assert abs(self._integrate(lambda z: z)) <= 1e-15

    def test_polynomial_exactness(self):
        # every z^m conj(z)^n with m, n < 12; the worst error is 1.5e-16
        for m in range(12):
            for n in range(12):
                value = self._integrate(lambda z: z ** m * np.conj(z) ** n)
                want = 1.0 / (m + 1) if m == n else 0.0
                assert value == pytest.approx(want, abs=1e-13), (m, n)


class TestSingular:
    def test_log_at_origin(self):
        # int 2 r ln r dr = -1/2
        value = disk_integrate_singular(lambda z: np.log(np.abs(z)), 0.0)
        assert value == pytest.approx(-0.5, abs=1e-10)

    def test_pole_at_origin_vanishes(self):
        assert abs(disk_integrate_singular(lambda z: 1 / z, 0.0)) <= 1e-12

    def test_log_off_center(self):
        # transform value at 0 equals the plain integral of the symbol
        value = disk_integrate_singular(lambda z: np.log(np.abs(z - 0.3)), 0.3)
        assert value == pytest.approx((0.09 - 1) / 2, abs=1e-8)

    def test_grading_depth_doubling(self, monkeypatch, fresh_node_sets):
        funcs = (lambda z: np.log(np.abs(z - 0.4)), lambda z: 1 / (z - 0.4))
        depth6 = [disk_integrate_singular(f, 0.4) for f in funcs]
        quadrature._polar_nodes_cached.cache_clear()
        monkeypatch.setattr(quadrature, "_POLAR_DEPTH", 12)
        for f, a in zip(funcs, depth6):
            b = disk_integrate_singular(f, 0.4)
            assert abs(a - b) < 1e-8

    def test_multi_center(self):
        # one integral per declared center, summed by linearity
        a = -0.2 + 0.4j
        value = (disk_integrate_singular(lambda z: np.log(np.abs(z - 0.3)), 0.3)
                 + disk_integrate_singular(lambda z: 1 / (z - a), a))
        want_log = (abs(0.3) ** 2 - 1) / 2
        # pole transform at z = 0: (conj(a) + 2*conj(phi(0)) - phi(0)*conj(phi(0))^2)
        # / (1 - |a|^2) with phi(0) = -a collapses to -conj(a)
        want_pole = -np.conj(a)
        assert value == pytest.approx(want_log + want_pole, abs=1e-8)

    def test_undeclared_singularity_detected(self):
        with pytest.raises(NonConvergence):
            disk_integrate_singular(lambda z: 1 / np.abs(z - 0.5) ** 1.5, -0.5)

    def test_center_validation(self):
        with pytest.raises(DomainError):
            disk_integrate_singular(lambda z: np.log(np.abs(z - 0.99)), 0.99)

    def test_center_is_required(self):
        # a smooth integrand declares center 0
        with pytest.raises(DomainError, match="needs a center"):
            disk_integrate_singular(lambda z: np.log(np.abs(z)), None)


class TestBerezinNumeric:
    def test_constant_reproduces(self):
        assert berezin_numeric(Symbol.constant(1.0), 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_log_anchor(self):
        u = Symbol(atoms=(Atom("log", 0.0, 1.0),))
        assert berezin_numeric(u, 0.5) == pytest.approx(-0.375, abs=1e-6)

    def test_pole_anchor(self):
        u = Symbol(atoms=(Atom("pole", 0.0, 1.0),))
        assert berezin_numeric(u, 0.5) == pytest.approx(0.875, abs=1e-6)

    def test_value_at_origin_is_plain_integral(self):
        corpus = [
            Symbol(atoms=(Atom("log", 0.3, 1.0),)),
            Symbol(atoms=(Atom("pole", -0.2 + 0.4j, 0.5),)),
            Symbol(holo=PowerSeries([0.3, 1.0]), atoms=(Atom("conjpole", 0.1j, 1.0),)),
        ]
        for u in corpus:
            direct = disk_integrate_singular(lambda z: symbol_eval(u, z), u.centers[0])
            assert berezin_numeric(u, 0.0) == pytest.approx(direct, abs=1e-8)

    def test_positivity(self):
        for u in (lambda z: np.abs(z) ** 2, lambda z: -np.log(np.abs(z))):
            value = berezin_numeric(u, 0.4 + 0.2j, center=0.0)
            assert value.real >= -1e-10

    def test_conjugation_symmetry(self):
        u = Symbol(atoms=(Atom("pole", 0.3, 1.0 - 0.5j),))
        uc = Symbol(atoms=(Atom("conjpole", 0.3, 1.0 + 0.5j),))
        z = 0.4 - 0.1j
        left = berezin_numeric(uc, z)
        right = np.conj(berezin_numeric(u, z))
        assert left == pytest.approx(right, abs=1e-12)

    def test_out_of_range(self):
        # 0.95 evaluates; beyond 0.99 nothing does
        assert berezin_numeric(Symbol.constant(1.0), 0.95) == pytest.approx(1.0, abs=1e-10)
        for z in (0.991, 0.9989j, np.array([0.5, -0.995])):
            with pytest.raises(OutOfRange):
                berezin_numeric(Symbol.constant(1.0), z)

    def test_empty_points(self):
        # an empty array of any shape gives an empty array of that shape
        u = Symbol(holo=PowerSeries([0.3, 1.0]), atoms=(Atom("log", 0.2, 1.0),))
        for shape in ((0,), (2, 0)):
            out = berezin_numeric(u, np.zeros(shape, dtype=complex))
            assert out.shape == shape and out.dtype == np.complex128

    def test_non_finite_points(self):
        # not an out-of-range point: no reach would take it
        u = Symbol(atoms=(Atom("log", 0.2, 1.0),))
        for z in (np.nan, complex(0.0, np.inf), np.array([0.5, -np.inf])):
            with pytest.raises(DomainError, match="finite"):
                berezin_numeric(u, z)

    def test_array_evaluation_matches_scalar(self):
        u = Symbol(atoms=(Atom("log", 0.2, 1.0),))
        zs = np.array([0.1, 0.5j, -0.3 + 0.3j])
        batch = berezin_numeric(u, zs)
        singles = [berezin_numeric(u, z) for z in zs]
        np.testing.assert_allclose(batch, singles, atol=1e-13)

    def test_same_center_atoms_sum_to_one_atom_calls(self):
        atoms = (Atom("log", 0.3 - 0.2j, 1.0), Atom("pole", 0.3 - 0.2j, 0.5 + 0.25j),
                 Atom("conjpole", 0.3 - 0.2j, -0.25j))
        zs = np.array([0.1, 0.3 - 0.25j, -0.4 + 0.5j])
        together = berezin_numeric(Symbol(atoms=atoms), zs)
        apart = sum(berezin_numeric(Symbol(atoms=(atom,)), zs) for atom in atoms)
        # relative to the sum of absolute terms: the kernel is positive
        z, w = polar_nodes(0.3 - 0.2j)
        weights = sum(np.abs(atom.eval(z)) for atom in atoms) * w
        scale = _kernels.kernel_sum(z, weights, zs).real
        assert np.all(np.abs(together - apart) <= 1e-13 * scale)

    def test_refinement_check_guards_each_center_group(self, monkeypatch, fresh_node_sets):
        # 8 angles on every panel group of the center's polar set: the
        # group's fine and coarse sums disagree by 1.4e-3 (the atoms as a
        # callable; 1.1e-11 unstarved)
        u, center = _as_callable(Symbol(atoms=(Atom("log", 0.5, 1.0),
                                               Atom("pole", 0.5, 0.5 + 0.25j),
                                               Atom("conjpole", 0.5, -0.25j))))
        zs = np.array([0.1, 0.5 + 0.1j])
        berezin_numeric(u, zs, center=center)
        quadrature._polar_nodes_cached.cache_clear()
        layout = quadrature._polar_layout

        def starved(*args):
            return tuple((edges, order, 8) for edges, order, _ in layout(*args))

        monkeypatch.setattr(quadrature, "_polar_layout", starved)
        with pytest.raises(NonConvergence, match="numeric transform refinement mismatch"):
            berezin_numeric(u, zs, center=center)

    def test_polar_check_guards_each_center_group(self, monkeypatch, fresh_node_sets):
        # the default 256 angles at every modulus miss the 0.94 center: its
        # group's fine and coarse sums disagree
        near = 0.94 * np.exp(0.7j)
        atoms = (Atom("log", 0.3, 1.0), Atom("pole", near, 0.5 + 0.25j),
                 Atom("conjpole", near, -0.25j))
        berezin_numeric(Symbol(atoms=atoms), SWEEP_POINTS)
        quadrature._polar_nodes_cached.cache_clear()
        monkeypatch.setattr(quadrature, "_POLAR_ANGLE_GROWTH", 0.0)
        with pytest.raises(NonConvergence, match="numeric transform refinement mismatch"):
            berezin_numeric(Symbol(atoms=atoms), SWEEP_POINTS)

    def test_refinement_check_guards_the_plain_rule(self, monkeypatch, fresh_node_sets):
        # a callable with no center runs on the center-0 set: z^20 is within
        # 1e-10 of its transform and passes the check; with a quarter of each
        # group's angles (at least 16), its fine and coarse sums disagree by
        # 4.8e-2
        u = lambda z: z ** 20
        assert np.max(np.abs(berezin_numeric(u, SWEEP_POINTS) - SWEEP_POINTS ** 20)) <= 1e-10
        quadrature._polar_nodes_cached.cache_clear()
        layout = quadrature._polar_layout

        def starved(*args):
            return tuple((edges, order, max(16, angles // 4))
                         for edges, order, angles in layout(*args))

        monkeypatch.setattr(quadrature, "_polar_layout", starved)
        with pytest.raises(NonConvergence, match="numeric transform refinement mismatch"):
            berezin_numeric(u, SWEEP_POINTS)

    def test_plain_rule_resolves_a_part_of_degree_39(self):
        # sum of z^n for n < 40 as a callable, on the center-0 set: within
        # 1.2e-9 on the CLI points
        u = PowerSeries(np.ones(40)).eval
        zs = _sample_points()
        assert np.max(np.abs(berezin_numeric(u, zs) - u(zs))) <= 1e-8

    def test_plain_rule_rejects_a_part_it_does_not_resolve(self):
        # sum of z^n for n < 200 as a callable: the center-0 set does not
        # resolve it on the CLI points, and the check sees it
        u = lambda z: PowerSeries(np.ones(200)).eval(z)
        with pytest.raises(NonConvergence, match="numeric transform refinement mismatch"):
            berezin_numeric(u, _sample_points())

    def test_symbol_with_center_is_rejected(self):
        # a symbol declares its own centers; a center next to it would be ignored
        u = Symbol(atoms=(Atom("log", 0.5, 1.0),))
        with pytest.raises(DomainError):
            berezin_numeric(u, 0.1, center=0.5)


class TestHarmonicPart:
    """The transform fixes harmonic functions, so a symbol's harmonic part is
    added at the points (``berezin_numeric``) and its moments in closed form
    (``weighted_monomial_moments``); only the atoms are integrated, those of
    each center on that center's polar set, under that set's check."""

    SYMBOL = Symbol(holo=PowerSeries([0.3, -0.5j, 0.2]), anti=PowerSeries([0.0, 0.4]),
                    atoms=(Atom("pole", 0.6j, 0.5), Atom("log", -0.2 + 0.1j, 1.0),
                           Atom("conjpole", 0.6j, 0.3), Atom("log", 0.1 - 0.2j, 0.7)))

    def test_parts_are_polar_and_checked(self):
        # one part per atom center, in order, so each runs on that center's
        # polar set, checked; the harmonic part is no part
        u = self.SYMBOL
        parts = symbol_parts(u)
        assert [center for center, _ in parts] == [0.6j, -0.2 + 0.1j, 0.1 - 0.2j]
        for center, integrand in parts:
            expected = sum(atom.eval(SWEEP_POINTS) for atom in u.atoms if atom.center == center)
            np.testing.assert_allclose(integrand(SWEEP_POINTS), expected, rtol=0, atol=1e-14)

    def test_symbols_build_no_plain_set(self, fresh_node_sets):
        # 200 terms alone, which the center-0 set does not resolve as a
        # callable: exact, and no node set is built
        u = Symbol(holo=PowerSeries(np.ones(200)))
        zs = _sample_points()
        assert np.max(np.abs(berezin_numeric(u, zs) - symbol_values(u, zs))) <= 1e-12
        moment_matrix(u, 12, 12)
        assert quadrature._polar_nodes_cached.cache_info().currsize == 0

    def test_moments_match_the_exact_grid_and_the_plain_rule(self, rng):
        # the three-term assembly cancels the closed-form moments to roundoff
        # (the exact grid's moment matrix of a harmonic part is 0), and the
        # center-0 moment set (reach 0, degree 26) integrates these
        # polynomials to 4.9e-16
        z, w = polar_nodes(0j, reach=0.0, degree=26)
        for degree in range(21):
            holo, anti = (0.5 * (rng.standard_normal(degree + 1)
                                 + 1j * rng.standard_normal(degree + 1)) for _ in range(2))
            anti[0] = 0.0
            h = Symbol(holo=PowerSeries(holo), anti=PowerSeries(anti))
            scale = max(np.max(np.abs(holo)), np.max(np.abs(anti)))
            exact = moment_matrix_from_grid(symbol_transform(h), 12, 12).entries
            assert np.max(np.abs(moment_matrix(h, 12, 12).entries - exact)) <= 1e-14 * scale
            quad = _kernels.monomial_moments(z, symbol_eval(h, z) * w, 13, 13)
            assert np.max(np.abs(weighted_monomial_moments(h, 13, 13) - quad)) <= 1e-14

    @pytest.mark.parametrize("holo, anti", [
        # size 9.5e3 beside the pole; the polar check would raise on it at
        # every modulus (deviations to 5e-5)
        (np.r_[np.zeros(80), 1.0], np.r_[np.zeros(81), 1.0]),
        # size 100 in degree 0; on the polar set of 0.94 the check would
        # raise (deviation 1.3e-6)
        ([100.0], [0.0]),
    ])
    @pytest.mark.parametrize("modulus", [0.0, 0.3, 0.94])
    def test_large_harmonic_part_is_exact(self, holo, anti, modulus):
        # such a part is added exactly and takes no rule
        u = Symbol(holo=PowerSeries(holo), anti=PowerSeries(anti),
                   atoms=(Atom("pole", modulus * np.exp(0.7j), 1.0),))
        zs = _sample_points()
        assert np.max(np.abs(berezin_numeric(u, zs) - symbol_values(u, zs))) <= 1e-7

    @pytest.mark.parametrize("reach", [0.98, 0.99])
    @pytest.mark.parametrize("holo, with_atom", [([0.0, 0.0, 3.0], True), ([1.0, 0.0, 3.0], True),
                                                 ([1.0, 0.0, 3.0], False)])
    def test_matches_closed_form_near_the_edge(self, reach, holo, with_atom, fresh_node_sets):
        # beside a log atom: errors 1.9e-11 and 3.3e-11, the atom's own; alone: 0
        atoms = (Atom("log", 0.3 * np.exp(0.7j), 1.0),) if with_atom else ()
        u = Symbol(holo=PowerSeries(holo), atoms=atoms)
        zs = _ring(reach)
        assert np.max(np.abs(berezin_numeric(u, zs) - symbol_values(u, zs))) <= 1e-9


class TestNodeSets:
    @pytest.mark.parametrize("centers", [(0.0,), (0.3,)])
    @pytest.mark.parametrize("coarse", [False, True])
    def test_cached_sets_are_read_only(self, centers, coarse):
        # the center-0 set, which callables with no center run on, and the
        # polar set of another center
        for z, w in (polar_nodes(c, coarse=coarse) for c in centers):
            assert not z.flags.writeable and not w.flags.writeable


@pytest.fixture
def fresh_node_sets():
    # node sets built under a patched count must not serve later tests
    quadrature._polar_nodes_cached.cache_clear()
    yield
    quadrature._polar_nodes_cached.cache_clear()


def _as_callable(u: Symbol):
    """``u``, whose atoms share one center, as a callable with that center."""
    (center,) = set(u.centers)
    return (lambda z: symbol_eval(u, z)), center


class TestPanelResolution:
    @pytest.mark.parametrize("modulus", [0.3, 0.6, 0.85, 0.9, 0.94])
    def test_matches_closed_form(self, modulus):
        for angle in (0.7, 2.5):
            center = modulus * np.exp(1j * angle)
            for kind in ("log", "pole", "conjpole"):
                u = Symbol(atoms=(Atom(kind, center, 1.0 - 0.5j),))
                error = np.max(np.abs(berezin_numeric(u, SWEEP_POINTS)
                                      - symbol_values(u, SWEEP_POINTS)))
                assert error <= 1e-9, (kind, center, error)

    @pytest.mark.parametrize("modulus", [0.05, 0.1, 0.122, 0.2])
    def test_patch_covering_origin_matches_closed_form(self, modulus):
        # centers near the origin, on all 320 CLI points
        center = modulus * np.exp(0.7j)
        zs = _sample_points()
        for kind in ("log", "pole", "conjpole"):
            u = Symbol(atoms=(Atom(kind, center, 1.0 - 0.5j),))
            error = np.max(np.abs(berezin_numeric(u, zs) - symbol_values(u, zs)))
            assert error <= 1e-10, (kind, error)


def _ring(reach):
    """16 points on ``|z| = reach``, off the real axis."""
    return reach * np.exp(1j * (2.0 * np.pi * np.arange(16) / 16 + 0.1))


class TestDenserRule:
    """Points beyond |z| = 0.9 get denser polar sets, of a scale ``k`` sized
    from their reach (:func:`quadrature._reach_rule`)."""

    def test_sizes_follow_the_reach(self):
        # the CLI grid's outer ring, 0.9000000000000001, keeps scale 1; a
        # ring at 0.99 that rounds above it takes scale 10, not 11
        for reach, k in ((np.max(np.abs(_sample_points())), 1), (0.95, 2), (0.98, 5),
                         (np.max(np.abs(_ring(0.99))), 10)):
            assert quadrature._reach_rule(reach) == k

    @pytest.mark.parametrize("modulus", [0.02, 0.3, 0.72, 0.9])
    def test_matches_closed_form_at_095(self, modulus, fresh_node_sets):
        # scale 2; worst error 2.0e-11
        zs = _ring(0.95)
        for kind in ("log", "pole", "conjpole"):
            u = Symbol(atoms=(Atom(kind, modulus * np.exp(0.7j), 1.0),))
            error = np.max(np.abs(berezin_numeric(u, zs) - symbol_values(u, zs)))
            assert error <= 1e-9, (kind, error)

    @pytest.mark.parametrize("reach", [0.97, 0.98, 0.99])
    @pytest.mark.parametrize("modulus", [0.02, 0.3, 0.72, 0.9, 0.94])
    def test_matches_closed_form_near_the_edge(self, reach, modulus, fresh_node_sets):
        # scales 4 to 10; worst error 1.2e-10. At 0.99 the
        # three kinds share one center, so one call builds its sets once
        center, zs = modulus * np.exp(0.7j), _ring(reach)
        atoms = [Atom(kind, center, 1.0) for kind in ("log", "pole", "conjpole")]
        for group in ([atoms] if reach == 0.99 else [[atom] for atom in atoms]):
            u = Symbol(atoms=tuple(group))
            error = np.max(np.abs(berezin_numeric(u, zs) - symbol_values(u, zs)))
            assert error <= 1e-9, (group, error)

    @pytest.mark.parametrize("modulus", [0.02, 0.3, 0.72, 0.9])
    def test_check_raises_at_098(self, modulus, monkeypatch, fresh_node_sets):
        # 0.98 takes scale 5; at scale 2 the deviations run from 2.5e-5
        # (log at 0.02) to 1.4e-3 (log at 0.9)
        monkeypatch.setattr(quadrature, "_reach_rule", lambda reach: 2)
        zs = _ring(0.98)
        for kind in ("log", "pole", "conjpole"):
            u = Symbol(atoms=(Atom(kind, modulus * np.exp(0.7j), 1.0),))
            with pytest.raises(NonConvergence, match="numeric transform refinement mismatch"):
                berezin_numeric(u, zs)


class TestReachSizedSets:
    """Each polar set is sized for the pole it resolves
    (:func:`quadrature._polar_layout`): the transform's for its points'
    reach, the moments' for none (reach 0) and for their own degree."""

    MODULI = np.linspace(0.02, 0.94, 11)

    def test_base_layout_from_the_base_reach_up(self):
        # the CLI grid's outer ring and a reach within 1e-12 below 0.9 count
        # as the base reach
        for modulus in (0.0, 0.3, 0.75, 0.94):
            center = modulus * np.exp(0.7j)
            base = quadrature._polar_layout(center, 1, 0.9)
            for reach in (0.9000000000000001, np.max(np.abs(_sample_points())), 0.9 - 1e-13):
                assert quadrature._polar_layout(center, 1, reach) == base

    def test_counts_follow_the_pole(self):
        # fine and coarse node counts of a 0.75 center: the transform's sets
        # shrink with the reach, and the moment set (reach 0, degree 26, as
        # at kmax 12) takes the inner count plus the degree on every outer
        # panel
        center = 0.75 * np.exp(0.7j)
        for reach, degree, counts in ((0.9, 0, (20_480, 11_520)), (0.7, 0, (9_984, 5_616)),
                                      (0.5, 0, (7_936, 4_464)), (0.0, 26, (9_216, 5_184))):
            assert tuple(len(polar_nodes(center, reach=reach, degree=degree, coarse=c)[0])
                         for c in (False, True)) == counts
        (_, _, inner), *outer = quadrature._polar_layout(center, 1, 0.0, 26)
        assert inner == 64 and all(angles == 96 for _, _, angles in outer)

    def test_sets_are_shared_by_layout(self, fresh_node_sets):
        # two reaches whose counts round to the same values share one set
        center = 0.75 * np.exp(0.7j)
        assert quadrature._polar_layout(center, 1, 0.7) == quadrature._polar_layout(center, 1, 0.7001)
        assert polar_nodes(center, reach=0.7)[0] is polar_nodes(center, reach=0.7001)[0]
        assert quadrature._polar_nodes_cached.cache_info().currsize == 1

    @pytest.mark.parametrize("reach", [0.05, 0.3, 0.5, 0.7, 0.8, 0.85, 0.89])
    def test_matches_closed_form_inside_the_base_reach(self, reach):
        # 32 points on |z| = reach; worst error 9.7e-12 (at 0.7), below the
        # 2.3e-11 of the 0.9 ring
        zs = reach * np.exp(1j * (2.0 * np.pi * np.arange(32) / 32 + 0.1))
        for modulus in self.MODULI:
            for kind in ("log", "pole", "conjpole"):
                u = Symbol(atoms=(Atom(kind, modulus * np.exp(0.7j), 1.0),))
                error = np.max(np.abs(berezin_numeric(u, zs) - symbol_values(u, zs)))
                assert error <= 1e-10, (kind, modulus, error)

    @staticmethod
    def _base_reach_moments(u, pmax, qmax):
        return quadrature.integrate_parts(
            u, lambda z, values, rows: _kernels.monomial_moments(z, values, pmax, qmax)[None],
            [quadrature._BASE_REACH], check=False, what="monomial moments")[0]

    @staticmethod
    def _three_atoms(center):
        return Symbol(atoms=(Atom("log", center, 1.0), Atom("pole", center, 0.5 + 0.25j),
                             Atom("conjpole", center, -0.25j)))

    def test_moments_match_the_base_reach_set(self):
        # kmax 18 takes G up to (19, 19); the worst gap is 3.9e-16 of max |G|
        for modulus in self.MODULI:
            u = self._three_atoms(modulus * np.exp(0.7j))
            base = self._base_reach_moments(u, 19, 19)
            gap = np.max(np.abs(weighted_monomial_moments(u, 19, 19) - base))
            assert gap <= 1e-15 * np.max(np.abs(base)), (modulus, gap)

    @pytest.mark.parametrize("modulus", [0.3, 0.5, 0.72, 0.85])
    def test_moment_set_covers_the_degree(self, modulus):
        # (40, 40): degree 80 on top of the inner count; without it the
        # outer panels are off by 8.9e-8 (0.3) to 4.5e-3 (0.72)
        u = self._three_atoms(modulus * np.exp(0.7j))
        gap = np.max(np.abs(weighted_monomial_moments(u, 40, 40)
                            - self._base_reach_moments(u, 40, 40)))
        assert gap <= 1e-13


class TestAngleStrides:
    """Each point is contracted against every ``t``-th angle of each panel
    group, as many as its own reach asks for (:func:`quadrature._point_groups`)."""

    MODULI = np.linspace(0.02, 0.94, 11)

    @staticmethod
    def _clouds(rng):
        # the CLI points, and random clouds inside 0.9 and out to 0.97
        disk = lambda n, r: r * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
        return [_sample_points(), disk(40, 0.9), disk(200, 0.9), disk(100, 0.97)]

    @pytest.mark.parametrize("modulus", MODULI)
    def test_strided_counts_cover_each_point(self, modulus, rng):
        # every group's fine and coarse counts over t are at least those the
        # layout of each of its points' own reach asks for, and t divides both
        center, strided = modulus * np.exp(0.7j), False
        for zs in self._clouds(rng):
            reaches = np.abs(zs)
            k = quadrature._reach_rule(float(np.max(reaches)))
            layout_at = lambda r: quadrature._polar_layout(center, k, r)
            layout = layout_at(float(np.max(reaches)))
            groups = quadrature._point_groups(reaches, layout_at)
            rows = np.concatenate([rows for rows, _ in groups])
            assert np.array_equal(np.sort(rows), np.arange(len(zs)))
            for rows, strides in groups:
                strided |= max(strides) > 1
                for r in reaches[rows]:
                    for (_, _, angles), (_, _, need), t in zip(layout, layout_at(r), strides):
                        coarse, coarse_need = int(0.75 * angles), int(0.75 * need)
                        assert angles % t == 0 and coarse % t == 0
                        assert angles // t >= need and coarse // t >= coarse_need
        assert strided

    @pytest.mark.parametrize("angles, need, stride", [(40, 10, 2), (272, 32, 4), (432, 112, 3)])
    def test_stride_divides_the_coarse_count(self, angles, need, stride):
        # the fine count alone would allow 4 of 40 and 8 of 272, but every
        # 4th of 30 coarse angles, or every 8th of 204, is no trapezoid rule
        # (counts of the real layouts, multiples of 16 against needs of at
        # least 64, never come apart so)
        group = ((0.25, 1.0), (16, 12))
        assert quadrature._angle_strides(((*group, angles),), ((*group, need),)) == (stride,)

    @staticmethod
    def _whole_set_contraction(integrand, center, zs):
        # the kernel sum over the whole proxied set of the points' reach:
        # every angle of every group, the geometric panels on their proxy rows
        node_set = quadrature._polar_set(center, 1, float(np.max(np.abs(zs))), 0, False)
        return _kernels.kernel_sum(node_set.contracted, node_set.values(integrand), zs)

    @pytest.mark.parametrize("modulus", [0.02, 0.3, 0.72, 0.94])
    def test_points_at_the_reach_match_a_whole_set_contraction(self, modulus):
        # the CLI grid's 0.9 ring takes every angle: byte-identical
        center, zs = modulus * np.exp(0.7j), _sample_points()
        u = Symbol(atoms=(Atom("log", center, 1.0 - 0.5j),))
        whole = self._whole_set_contraction(u.atoms[0].eval, center, zs)
        values = berezin_numeric(u, zs)
        at = np.abs(zs) >= 0.9 - 1e-12
        assert np.array_equal(values[at], whole[at])
        assert not np.array_equal(values[~at], whole[~at])

    @pytest.mark.parametrize("count", [1, 5, 8, 16, 31])
    def test_fewer_than_32_points_take_one_contraction(self, count, rng):
        # one group with every angle, so the whole-set contraction, byte for
        # byte, at the shapes of --z, verify and the moment workloads
        zs = 0.9 * np.sqrt(rng.uniform(size=count)) * np.exp(2j * np.pi * rng.uniform(size=count))
        for modulus in (0.02, 0.5, 0.94):
            u, center = _as_callable(TestReachSizedSets._three_atoms(modulus * np.exp(2.5j)))
            whole = self._whole_set_contraction(u, center, zs)
            assert np.array_equal(berezin_numeric(u, zs, center=center), whole)

    def test_starved_layout_still_raises_on_320_points(self, monkeypatch, fresh_node_sets):
        # a quarter of every outer panel's angles at every reach: the points
        # still take strides, and each group's fine and coarse sums disagree
        u, center = _as_callable(TestReachSizedSets._three_atoms(0.5))
        zs = _sample_points()
        berezin_numeric(u, zs, center=center)
        quadrature._polar_nodes_cached.cache_clear()
        layout = quadrature._polar_layout

        def starved(*args):
            inner, *outer = layout(*args)
            return (inner, *((edges, order, 16 * ceil(angles / 64))
                             for edges, order, angles in outer))

        monkeypatch.setattr(quadrature, "_polar_layout", starved)
        reaches = np.abs(zs)
        groups = quadrature._point_groups(
            reaches, lambda r: quadrature._polar_layout(center, 1, r))
        assert max(max(strides) for _, strides in groups) > 1
        with pytest.raises(NonConvergence, match="numeric transform refinement mismatch"):
            berezin_numeric(u, zs, center=center)


class TestProxyRows:
    """The geometric panels are contracted on Chebyshev proxy rows, as many
    as the functional's pole leaves their segment of each ray
    (:func:`quadrature._proxy_count`)."""

    @staticmethod
    def _rows(center, reach, degree, coarse):
        node_set = quadrature._polar_set(center, 1, reach, degree, coarse)
        return node_set.blocks[0][0]

    def test_counts_follow_the_pole_and_the_degree(self):
        # at reach 0.9: 13 rows at |a| = 0.02, 15 at 0.3, 20 at 0.72 and 29
        # at 0.94, against 72 Gauss rows; at 0.99 up to 43. The coarse set
        # takes 3/4 of them, always fewer, and neither set takes more rows
        # than its Gauss rows, which serve as the proxies from there on
        for reach, counts in ((0.9, (13, 15, 20, 29)), (0.99, (13, 15, 22, 43))):
            for modulus, count in zip((0.02, 0.3, 0.72, 0.94), counts):
                assert self._rows(modulus * np.exp(0.7j), reach, 0, False) == count
        for modulus in np.linspace(0.0, 0.94, 12):
            center = modulus * np.exp(2.5j)
            for reach, degree in [(r, 0) for r in (0.05, 0.5, 0.9, 0.95, 0.99)] + [
                    (r, d) for r in (0.0, 0.9) for d in (1, 2, 26, 38, 53, 71, 72, 80)]:
                fine, coarse = (self._rows(center, reach, degree, c) for c in (False, True))
                assert 1 <= coarse < fine <= 72 and coarse <= 54, (modulus, reach, degree)
                # a polynomial of degree d in s takes d + 1 rows exactly, and
                # without a pole no more
                assert fine >= min(degree + 1, 72)
                if not reach:
                    assert fine == min(degree + 1, 72)
                    assert coarse == min(int(0.75 * (degree + 1)), 54)

    @pytest.mark.parametrize("modulus", [0.3, 0.72, 0.94])
    def test_starved_proxy_rows_raise_on_320_points(self, modulus, monkeypatch,
                                                    fresh_node_sets):
        # 4 proxy rows (3 coarse) on the geometric panels: fine and coarse
        # sums disagree on the CLI points
        u = TestReachSizedSets._three_atoms(modulus * np.exp(0.7j))
        zs = _sample_points()
        berezin_numeric(u, zs)
        quadrature._polar_nodes_cached.cache_clear()
        monkeypatch.setattr(quadrature, "_proxy_count", lambda modulus, reach, degree: 4)
        with pytest.raises(NonConvergence, match="numeric transform refinement mismatch"):
            berezin_numeric(u, zs)


class TestInsidePatch:
    @pytest.mark.parametrize("modulus", [0.3, 0.72, 0.85, 0.9])
    def test_matches_closed_form(self, modulus):
        # points on circles of radius f * d around the center, f up to 1, with
        # d = min(0.4 (1 - |a|), 0.35): close to the center, where it dominates
        center = modulus * np.exp(0.7j)
        d = min(0.4 * (1.0 - modulus), 0.35)
        psi = 2.0 * np.pi * np.arange(16) / 16
        zs = (center + d * np.multiply.outer([0.3, 0.7, 1.0], np.exp(1j * psi))).ravel()
        zs = zs[np.abs(zs) <= 0.9]
        for kind in ("log", "pole", "conjpole"):
            u = Symbol(atoms=(Atom(kind, center, 1.0 - 0.5j),))
            error = np.max(np.abs(berezin_numeric(u, zs) - symbol_values(u, zs)))
            assert error <= 1e-9, (kind, error)


class TestPolarRule:
    """The polar rule that integrates the atoms of each symbol center."""

    @pytest.mark.parametrize("modulus", [0.0, 0.02, 0.5, 0.85, 0.94])
    @pytest.mark.parametrize("coarse", [False, True])
    def test_weights_integrate_one_inside_the_disk(self, modulus, coarse):
        center = modulus * np.exp(2.5j)
        z, w = polar_nodes(center, coarse=coarse)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-13)
        assert np.all(w > 0.0) and np.all(np.abs(z) < 1.0)
        assert np.min(np.abs(z - center)) > 1e-8

    @pytest.mark.parametrize("modulus", np.linspace(0.02, 0.94, 11))
    def test_matches_closed_form(self, modulus):
        # the worst of the 320 CLI points is 2.5e-11, at 0.756 (7.1e-11 at 0.848
        # on the composite rule)
        for angle in (0.7, 2.5):
            for kind in ("log", "pole", "conjpole"):
                u = Symbol(atoms=(Atom(kind, modulus * np.exp(1j * angle), 1.0),))
                error = np.max(np.abs(berezin_numeric(u, SWEEP_POINTS)
                                      - symbol_values(u, SWEEP_POINTS)))
                assert error <= 1e-10, (kind, angle, error)

    @pytest.mark.parametrize("modulus", np.linspace(0.02, 0.94, 11))
    def test_matches_closed_form_on_every_cli_point(self, modulus):
        # all 320 points, so every ring inside 0.9 takes its own strides; the
        # worst is 2.5e-11, at 0.756
        zs = _sample_points()
        for angle in (0.7, 2.5):
            for kind in ("log", "pole", "conjpole"):
                u = Symbol(atoms=(Atom(kind, modulus * np.exp(1j * angle), 1.0),))
                error = np.max(np.abs(berezin_numeric(u, zs) - symbol_values(u, zs)))
                assert error <= 1e-10, (kind, angle, error)

    @pytest.mark.parametrize("modulus, most", [(0.72, 82_000), (0.94, 103_000)])
    def test_node_count(self, modulus, most):
        # fine and coarse sets together; the composite rule takes 134,095 at 0.72
        center = modulus * np.exp(0.7j)
        fine, coarse = (len(polar_nodes(center, coarse=c)[0]) for c in (False, True))
        assert coarse < fine and fine + coarse <= most

    @pytest.mark.parametrize("modulus, most", [(0.72, 33_000), (0.94, 51_000)])
    def test_per_panel_node_count(self, modulus, most):
        # fine and coarse sets together: 32,000 at 0.72 and 49,600 at 0.94;
        # the full angle count on every panel takes 81,000 and 102,000
        center = modulus * np.exp(0.7j)
        fine, coarse = (len(polar_nodes(center, coarse=c)[0]) for c in (False, True))
        assert coarse < fine and fine + coarse <= most

    @pytest.mark.parametrize("kind", ["log", "pole", "conjpole"])
    def test_check_catches_inner_angular_under_resolution(self, kind, monkeypatch,
                                                          fresh_node_sets):
        # 32 angles on the geometric panels of a 0.94 center, against the 128
        # its branch points need: deviations 2.1e-5 (log) and 6.4e-5 (poles),
        # for the symbol and for the same atom as a callable with its center
        u = Symbol(atoms=(Atom(kind, 0.94 * np.exp(0.7j), 1.0),))
        inputs = ((u, None), _as_callable(u))
        for value, center in inputs:
            berezin_numeric(value, SWEEP_POINTS, center=center)
        quadrature._polar_nodes_cached.cache_clear()
        layout = quadrature._polar_layout

        def starved(*args):
            (edges, order, _), *outer = layout(*args)
            return ((edges, order, 32), *outer)

        monkeypatch.setattr(quadrature, "_polar_layout", starved)
        for value, center in inputs:
            with pytest.raises(NonConvergence, match="numeric transform refinement mismatch"):
                berezin_numeric(value, SWEEP_POINTS, center=center)

    @pytest.mark.parametrize("name, orders, kind, modulus", [
        ("_POLAR_OUTER_GAUSS", (8, 6), "pole", 0.6),  # deviation 2.4e-4
        ("_POLAR_INNER_GAUSS", (4, 3), "log", 0.3),   # deviation 7.8e-6
    ])
    def test_check_catches_radial_under_resolution(self, name, orders, kind, modulus,
                                                   monkeypatch, fresh_node_sets):
        # the symbol, and the same atom as a callable with its center
        u = Symbol(atoms=(Atom(kind, modulus * np.exp(0.7j), 1.0),))
        inputs = ((u, None), _as_callable(u))
        for value, center in inputs:
            berezin_numeric(value, SWEEP_POINTS, center=center)
        quadrature._polar_nodes_cached.cache_clear()
        monkeypatch.setattr(quadrature, name, orders)
        for value, center in inputs:
            with pytest.raises(NonConvergence, match="numeric transform refinement mismatch"):
                berezin_numeric(value, SWEEP_POINTS, center=center)


def disk_point(max_modulus):
    return st.builds(lambda r, t: complex(r * np.exp(1j * t)),
                     st.floats(0.0, max_modulus), st.floats(0.0, 2 * np.pi))


@st.composite
def distinct_centers(draw, max_modulus):
    """1-3 disk points of modulus at most ``max_modulus``, pairwise at least
    1e-3 apart."""
    n = draw(st.integers(1, 3))
    centers = draw(st.lists(disk_point(max_modulus), min_size=n, max_size=n))
    assume(all(abs(a - b) >= 1e-3 for i, a in enumerate(centers) for b in centers[:i]))
    return centers


@st.composite
def harmonic_parts(draw):
    """Holomorphic and antiholomorphic series of degree 0-6, coefficients
    of modulus at most 1.5."""
    degree = draw(st.integers(0, 6))
    return tuple(PowerSeries(draw(st.lists(disk_point(1.5), min_size=degree + 1,
                                           max_size=degree + 1))) for _ in range(2))


@st.composite
def atom_symbols(draw):
    """1-3 atoms of any kind, centers of modulus at most 0.94 and pairwise at
    least 1e-3 apart, coefficients of modulus at most 1.5, and a harmonic
    part (:func:`harmonic_parts`)."""
    centers = draw(distinct_centers(0.94))
    n = len(centers)
    kinds = draw(st.lists(st.sampled_from(("log", "pole", "conjpole")), min_size=n, max_size=n))
    coeffs = draw(st.lists(disk_point(1.5), min_size=n, max_size=n))
    holo, anti = draw(harmonic_parts())
    points = draw(st.lists(disk_point(0.9), min_size=1, max_size=8))
    return (Symbol(holo=holo, anti=anti, atoms=tuple(map(Atom, kinds, centers, coeffs))),
            np.array(points))


@st.composite
def node_form_symbols(draw):
    """Symbols of node forms with 1-3 nodes of modulus at most 0.94, node
    coefficients of modulus at most 1.5 and a harmonic part: each node adds
    the degree-80 series of its product preimages."""
    nodes = tuple((a, *draw(st.lists(disk_point(1.5), min_size=3, max_size=3)))
                  for a in draw(distinct_centers(0.94)))
    holo, anti = draw(harmonic_parts())
    points = draw(st.lists(disk_point(0.9), min_size=1, max_size=8))
    return NodeForm(holo=holo, anti=anti, nodes=nodes).to_symbol(), np.array(points)


class TestSymbolProperty:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(atom_symbols())
    def test_numeric_matches_closed_form(self, case):
        # NonConvergence is a failure: the default rule covers every such input
        u, zs = case
        error = np.max(np.abs(berezin_numeric(u, zs) - symbol_values(u, zs)))
        assert error <= 1e-9

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(node_form_symbols())
    def test_node_form_matches_closed_form_and_grid(self, case):
        u, zs = case
        error = np.max(np.abs(berezin_numeric(u, zs) - symbol_values(u, zs)))
        assert error <= 1e-9
        quad = moment_matrix(u, 12, 12).entries
        exact = moment_matrix_from_grid(symbol_transform(u), 12, 12).entries
        assert np.max(np.abs(quad - exact)) <= 1e-9
