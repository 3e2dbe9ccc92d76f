import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from berezin import _kernels, quadrature
from berezin.cli import _sample_points
from berezin.core import PowerSeries
from berezin.errors import DomainError, NonConvergence, OutOfRange
from berezin.quadrature import (
    QuadratureRule,
    SingularityPlan,
    berezin_numeric,
    disk_integrate,
    disk_integrate_singular,
    plan_for_symbol,
    polar_nodes,
    singular_nodes,
)
from berezin.rank import moment_matrix, moment_matrix_from_grid
from berezin.symbols import Atom, NodeForm, Symbol, symbol_eval
from berezin.transform import symbol_transform, symbol_values

#: Every tenth CLI sample point: all ten radii up to 0.9, rotating angles.
SWEEP_POINTS = _sample_points()[::10]


class TestPlainRule:
    def test_measure_normalization(self):
        rule = QuadratureRule.build()
        assert np.sum(rule.radial_weights) == pytest.approx(1.0, abs=1e-14)
        assert np.all(rule.radial_weights > 0)
        assert disk_integrate(lambda z: np.ones_like(z), rule) == pytest.approx(1.0, abs=1e-14)

    def test_second_moment(self):
        # radial substitution turns |z|^2 into t, whose mean on (0,1) is 1/2
        assert disk_integrate(lambda z: np.abs(z) ** 2) == pytest.approx(0.5, abs=1e-14)

    def test_rotational_symmetry(self):
        assert abs(disk_integrate(lambda z: z)) <= 1e-15

    def test_polynomial_exactness(self, rng):
        rule = QuadratureRule.build(16, 32)
        for _ in range(20):
            m = int(rng.integers(0, 12))
            n = int(rng.integers(0, 12))
            if abs(m - n) > rule.angular_count - 2 or (m + n) // 2 > 2 * 16 - 1:
                continue
            value = disk_integrate(lambda z: z ** m * np.conj(z) ** n, rule)
            want = 1.0 / (m + 1) if m == n else 0.0
            assert value == pytest.approx(want, abs=1e-13)

    def test_refinement_reduces_error_outside_exactness(self):
        # |z|^80 has radial degree beyond the small rule's exactness class
        f = lambda z: np.abs(z) ** 80
        exact = 1.0 / 41.0
        coarse = abs(disk_integrate(f, QuadratureRule.build(8, 16)) - exact)
        fine = abs(disk_integrate(f, QuadratureRule.build(64, 16)) - exact)
        assert fine < coarse
        assert fine <= 1e-14

    def test_size_guard(self):
        with pytest.raises(DomainError):
            QuadratureRule.build(4, 256)


class TestSingular:
    def test_log_at_origin(self):
        # int 2 r ln r dr = -1/2
        plan = SingularityPlan(centers=(0.0,))
        value = disk_integrate_singular(lambda z: np.log(np.abs(z)), plan)
        assert value == pytest.approx(-0.5, abs=1e-10)

    def test_pole_at_origin_vanishes(self):
        plan = SingularityPlan(centers=(0.0,))
        assert abs(disk_integrate_singular(lambda z: 1 / z, plan)) <= 1e-12

    def test_log_off_center(self):
        # transform value at 0 equals the plain integral of the symbol
        plan = SingularityPlan(centers=(0.3,))
        value = disk_integrate_singular(lambda z: np.log(np.abs(z - 0.3)), plan)
        assert value == pytest.approx((0.09 - 1) / 2, abs=1e-8)

    def test_grading_depth_doubling(self, monkeypatch, fresh_node_sets):
        plan = SingularityPlan(centers=(0.4,))
        rule = QuadratureRule.build()
        funcs = (lambda z: np.log(np.abs(z - 0.4)), lambda z: 1 / (z - 0.4))
        depth12 = [disk_integrate_singular(f, plan, rule) for f in funcs]
        quadrature._singular_nodes_cached.cache_clear()
        monkeypatch.setattr(quadrature, "_PATCH_DEPTH", (24, 21))
        for f, a in zip(funcs, depth12):
            b = disk_integrate_singular(f, plan, rule)
            assert abs(a - b) < 1e-8

    def test_multi_center(self):
        plan = SingularityPlan(centers=(0.3, -0.2 + 0.4j))
        a = -0.2 + 0.4j
        f = lambda z: np.log(np.abs(z - 0.3)) + 1 / (z - a)
        value = disk_integrate_singular(f, plan)
        want_log = (abs(0.3) ** 2 - 1) / 2
        # pole transform at z = 0: (conj(a) + 2*conj(phi(0)) - phi(0)*conj(phi(0))^2)
        # / (1 - |a|^2) with phi(0) = -a collapses to -conj(a)
        want_pole = -np.conj(a)
        assert value == pytest.approx(want_log + want_pole, abs=1e-8)

    def test_undeclared_singularity_detected(self):
        plan = SingularityPlan(centers=(-0.5,))
        with pytest.raises(NonConvergence):
            disk_integrate_singular(lambda z: 1 / np.abs(z - 0.5) ** 1.5, plan)

    def test_center_validation(self):
        with pytest.raises(DomainError):
            SingularityPlan(centers=(0.99,))
        with pytest.raises(DomainError):
            SingularityPlan(centers=(0.3, 0.3 + 1e-5))


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
            plan = plan_for_symbol(u)
            direct = disk_integrate_singular(lambda z: symbol_eval(u, z), plan)
            assert berezin_numeric(u, 0.0) == pytest.approx(direct, abs=1e-8)

    def test_positivity(self):
        for u in (lambda z: np.abs(z) ** 2, lambda z: -np.log(np.abs(z))):
            plan = SingularityPlan(centers=(0.0,))
            value = berezin_numeric(u, 0.4 + 0.2j, plan=plan)
            assert value.real >= -1e-10

    def test_conjugation_symmetry(self):
        u = Symbol(atoms=(Atom("pole", 0.3, 1.0 - 0.5j),))
        uc = Symbol(atoms=(Atom("conjpole", 0.3, 1.0 + 0.5j),))
        z = 0.4 - 0.1j
        left = berezin_numeric(uc, z)
        right = np.conj(berezin_numeric(u, z))
        assert left == pytest.approx(right, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            berezin_numeric(Symbol.constant(1.0), 0.95)
        dense = QuadratureRule.build(96, 512)
        assert berezin_numeric(Symbol.constant(1.0), 0.95, dense) == pytest.approx(
            1.0, abs=1e-10
        )

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
        z, w = polar_nodes(0.3 - 0.2j, QuadratureRule.build())
        weights = sum(np.abs(atom.eval(z)) for atom in atoms) * w
        scale = _kernels.kernel_sum(z, weights, zs).real
        assert np.all(np.abs(together - apart) <= 1e-13 * scale)

    def test_refinement_check_guards_each_center_group(self, monkeypatch, fresh_node_sets):
        # patches too coarse for the center: the group's fine and coarse sums
        # disagree (the atoms as a callable run on the composite rule)
        u, plan = _as_callable(Symbol(atoms=(Atom("log", 0.5, 1.0), Atom("pole", 0.5, 0.5 + 0.25j),
                                             Atom("conjpole", 0.5, -0.25j))))
        monkeypatch.setattr(quadrature, "_PATCH_DEPTH", (4, 4))
        monkeypatch.setattr(quadrature, "_PATCH_GAUSS", (4, 8))
        monkeypatch.setattr(quadrature, "_PATCH_ANGULAR", (8, 6))
        with pytest.raises(NonConvergence, match="numeric transform refinement mismatch"):
            berezin_numeric(u, np.array([0.1, 0.5 + 0.1j]), plan=plan)

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

    def test_symbol_with_plan_is_rejected(self):
        # a symbol declares its own centers; a plan next to it would be ignored
        u = Symbol(atoms=(Atom("log", 0.5, 1.0),))
        with pytest.raises(DomainError):
            berezin_numeric(u, 0.1, plan=SingularityPlan(centers=(0.5,)))


class TestHarmonicPart:
    """A symbol with atoms integrates a harmonic part of size at most
    ``_HOSTED_SIZE`` on the polar set of the center nearest the origin,
    under that set's check; a larger one stays on the plain rule."""

    # -0.2 + 0.1j and 0.1 - 0.2j tie for the nearest center; the first listed hosts
    HOST = -0.2 + 0.1j
    SYMBOL = Symbol(holo=PowerSeries([0.3, -0.5j, 0.2]), anti=PowerSeries([0.0, 0.4]),
                    atoms=(Atom("pole", 0.6j, 0.5), Atom("log", HOST, 1.0),
                           Atom("conjpole", 0.6j, 0.3), Atom("log", 0.1 - 0.2j, 0.7)))

    def test_parts_are_polar_and_checked(self):
        u = self.SYMBOL
        parts = quadrature._symbol_parts(u, QuadratureRule.build())
        assert [node_set.func for node_set, _, _ in parts] == [polar_nodes] * 3
        assert [node_set.args[0] for node_set, _, _ in parts] == [0.6j, self.HOST, 0.1 - 0.2j]
        assert all(checked for _, _, checked in parts)
        harmonic = u.holo.eval(SWEEP_POINTS) + np.conj(u.anti.eval(SWEEP_POINTS))
        for node_set, integrand, _ in parts:
            center = node_set.args[0]
            expected = sum(atom.eval(SWEEP_POINTS) for atom in u.atoms if atom.center == center)
            if center == self.HOST:
                expected = expected + harmonic
            np.testing.assert_allclose(integrand(SWEEP_POINTS), expected, rtol=0, atol=1e-14)

    def test_only_symbols_without_atoms_build_a_plain_set(self, fresh_node_sets):
        berezin_numeric(self.SYMBOL, SWEEP_POINTS)
        moment_matrix(self.SYMBOL, 6, 6)
        assert quadrature._singular_nodes_cached.cache_info().currsize == 0
        berezin_numeric(Symbol(holo=self.SYMBOL.holo, anti=self.SYMBOL.anti), SWEEP_POINTS)
        assert quadrature._singular_nodes_cached.cache_info().currsize == 1

    def test_check_guards_the_harmonic_part(self, monkeypatch, fresh_node_sets):
        # 32 angles on every panel group of the host set: the tiny atom alone
        # stays within 3.6e-8 of its closed form and passes the check, while
        # the harmonic part it hosts deviates between fine and coarse sets
        atom = Atom("log", 0.3, 1e-6)
        u = Symbol(holo=self.SYMBOL.holo, anti=self.SYMBOL.anti, atoms=(atom,))
        berezin_numeric(u, SWEEP_POINTS)
        quadrature._polar_nodes_cached.cache_clear()
        layout = quadrature._polar_layout

        def starved(center, radial, angular):
            return tuple((edges, order, 32) for edges, order, _ in layout(center, radial, angular))

        monkeypatch.setattr(quadrature, "_polar_layout", starved)
        berezin_numeric(Symbol(atoms=(atom,)), SWEEP_POINTS)
        with pytest.raises(NonConvergence, match="numeric transform refinement mismatch"):
            berezin_numeric(u, SWEEP_POINTS)

    @pytest.mark.parametrize("holo, anti", [
        # size 9.5e3; hosted, it would raise at every modulus (deviations to 5e-5)
        (np.r_[np.zeros(80), 1.0], np.r_[np.zeros(81), 1.0]),
        # size 100 in degree 0; hosted at 0.94, it would raise (deviation 1.3e-6)
        ([100.0], [0.0]),
    ])
    @pytest.mark.parametrize("modulus", [0.0, 0.3, 0.94])
    def test_large_harmonic_part_stays_on_the_plain_rule(self, holo, anti, modulus):
        u = Symbol(holo=PowerSeries(holo), anti=PowerSeries(anti),
                   atoms=(Atom("pole", modulus * np.exp(0.7j), 1.0),))
        parts = quadrature._symbol_parts(u, QuadratureRule.build())
        assert [(node_set.func, checked) for node_set, _, checked in parts] == [
            (singular_nodes, False), (polar_nodes, True)]
        zs = _sample_points()
        assert np.max(np.abs(berezin_numeric(u, zs) - symbol_values(u, zs))) <= 1e-7


class TestNodeSets:
    def test_weights_integrate_one(self):
        plan = SingularityPlan(centers=(0.3, -0.4j))
        z, w = singular_nodes(plan, QuadratureRule.build())
        assert np.sum(w) == pytest.approx(1.0, abs=1e-10)
        assert np.all(np.abs(z) < 1.0)

    def test_no_node_at_center(self):
        plan = SingularityPlan(centers=(0.3,))
        z, _ = singular_nodes(plan, QuadratureRule.build())
        assert np.min(np.abs(z - 0.3)) > 1e-8

    @pytest.mark.parametrize("centers", [(), (0.3,)])
    @pytest.mark.parametrize("coarse", [False, True])
    def test_cached_sets_are_read_only(self, centers, coarse):
        z, w = singular_nodes(SingularityPlan(centers=centers), QuadratureRule.build(),
                              coarse=coarse)
        assert not z.flags.writeable and not w.flags.writeable
        z, w = polar_nodes(0.3, QuadratureRule.build(), coarse=coarse)
        assert not z.flags.writeable and not w.flags.writeable


@pytest.fixture
def fresh_node_sets():
    # node sets built under a patched count must not serve later tests
    quadrature._singular_nodes_cached.cache_clear()
    quadrature._polar_nodes_cached.cache_clear()
    yield
    quadrature._singular_nodes_cached.cache_clear()
    quadrature._polar_nodes_cached.cache_clear()


def _as_callable(u: Symbol):
    """``u`` as a callable with its plan, so it runs on the composite rule."""
    return (lambda z: symbol_eval(u, z)), plan_for_symbol(u)


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
        # the patch radius d exceeds |a|: panel edges must sit at d - |a| and ||a| - 0.45 d|
        center = modulus * np.exp(0.7j)
        zs = _sample_points()
        for kind in ("log", "pole", "conjpole"):
            u = Symbol(atoms=(Atom(kind, center, 1.0 - 0.5j),))
            error = np.max(np.abs(berezin_numeric(u, zs) - symbol_values(u, zs)))
            assert error <= 1e-10, (kind, error)

    def test_check_catches_angular_under_resolution(self, monkeypatch, fresh_node_sets):
        # far panels on the plain rule's count alone miss a pole at |a| = 0.94
        u, plan = _as_callable(Symbol(atoms=(Atom("pole", 0.7199 + 0.6040j, 1.0),)))
        berezin_numeric(u, SWEEP_POINTS, plan=plan)
        quadrature._singular_nodes_cached.cache_clear()
        monkeypatch.setattr(quadrature, "_ring_count", lambda r_lo, r_hi, centers: 0)
        with pytest.raises(NonConvergence, match="numeric transform refinement mismatch"):
            berezin_numeric(u, SWEEP_POINTS, plan=plan)

    @pytest.mark.parametrize("centers", [(0.3,), (0.7199 + 0.6040j,), (0.96j,), (0.3, -0.4j)])
    def test_coarse_count_below_fine_on_every_panel(self, centers, monkeypatch,
                                                    fresh_node_sets):
        # the ring counts that building each set lays out, panel by panel
        ring_angles = quadrature._ring_angles
        counts = {}

        def recording(count, uniform, bumps):
            counts[coarse].append(count)
            return ring_angles(count, uniform, bumps)

        monkeypatch.setattr(quadrature, "_ring_angles", recording)
        sizes = {}
        for coarse in (False, True):
            counts[coarse] = []
            z, _ = singular_nodes(SingularityPlan(centers=centers), QuadratureRule.build(),
                                  coarse=coarse)
            sizes[coarse] = len(z)
        panels = quadrature._radial_panels(centers, quadrature._patch_radii(centers))
        assert len(counts[False]) == len(counts[True]) == len(panels)
        for panel, n_fine, n_coarse in zip(panels, counts[False], counts[True]):
            assert n_coarse < n_fine, panel
        assert sizes[True] < sizes[False]

    def test_node_count_at_085(self):
        # one angular count for the whole disk gave 1,703,581 nodes here
        z, _ = singular_nodes(SingularityPlan(centers=(0.85 * np.exp(0.7j),)),
                              QuadratureRule.build())
        assert len(z) <= 850_000

    def test_check_catches_unclustered_near_rings(self, monkeypatch, fresh_node_sets):
        # near rings at the mapped count but with uniform angles miss a pole at |a| = 0.85
        u, plan = _as_callable(Symbol(atoms=(Atom("pole", 0.85 * np.exp(0.7j), 1.0),)))
        berezin_numeric(u, SWEEP_POINTS, plan=plan)
        quadrature._singular_nodes_cached.cache_clear()
        ring_angles = quadrature._ring_angles
        monkeypatch.setattr(quadrature, "_ring_angles",
                            lambda count, uniform, bumps: ring_angles(count, uniform, ()))
        with pytest.raises(NonConvergence, match="numeric transform refinement mismatch"):
            berezin_numeric(u, SWEEP_POINTS, plan=plan)

    @pytest.mark.parametrize("modulus, most", [(0.72, 160_000), (0.85, 250_000)])
    def test_fine_node_count(self, modulus, most):
        # uniform near rings gave 279,654 nodes at 0.72 and 632,325 at 0.85
        z, _ = singular_nodes(SingularityPlan(centers=(modulus * np.exp(0.7j),)),
                              QuadratureRule.build())
        assert len(z) <= most

    @pytest.mark.parametrize("centers", [(0.72 * np.exp(0.7j),), (0.94j,), (0.5, -0.5j)])
    def test_ring_angle_map(self, centers):
        rule = QuadratureRule.build()
        radii = quadrature._patch_radii(centers)
        mapped = 0
        for lo, hi in quadrature._radial_panels(centers, radii):
            _, fine, bumps = quadrature._panel_layout(lo, hi, centers, radii, rule)
            mapped += bool(bumps)
            for n in (fine, int(quadrature._COARSE_SHARE * fine)):
                theta, share = quadrature._ring_angles(n, rule.angular_count, bumps)
                assert len(theta) == n and 0.0 <= theta[0] and theta[-1] < 2.0 * np.pi
                assert np.all(np.diff(theta) > 0.0)
                assert abs(np.sum(share) - 1.0) <= 1e-14
                assert not theta.flags.writeable and not share.flags.writeable
        assert mapped > 0

    @pytest.mark.parametrize("centers", [(0.3 * np.exp(0.7j),), (0.72 * np.exp(0.7j),),
                                         (0.85 * np.exp(0.7j),), (0.1,), (0.5, -0.5j)])
    def test_radial_order_per_panel(self, centers):
        # rings of r_lo <= r <= r_hi meet the support |z - c| < d where |r - |c|| < d
        rule = QuadratureRule.build()
        radii = quadrature._patch_radii(centers)
        clear_panels = 0
        for lo, hi in quadrature._radial_panels(centers, radii):
            (fine, coarse), _, _ = quadrature._panel_layout(lo, hi, centers, radii, rule)
            r_lo, r_hi = np.sqrt(lo), np.sqrt(hi)
            meets = any(r_hi > abs(c) - d + 1e-12 and r_lo < abs(c) + d - 1e-12
                        for c, d in zip(centers, radii))
            assert (fine, coarse) == ((20, 14) if meets else (10, 8)), (lo, hi)
            assert coarse < fine
            clear_panels += not meets
        assert clear_panels > 0

    @pytest.mark.parametrize("centers", [(0.3 * np.exp(0.7j),), (0.85 * np.exp(0.7j),),
                                         (0.1,), (0.5, -0.5j)])
    @pytest.mark.parametrize("coarse", [False, True])
    def test_clear_panels_skip_only_a_unit_cutoff(self, centers, coarse):
        # the composite set against one that applies every cutoff on every panel
        rule = QuadratureRule.build()
        radii = quadrature._patch_radii(centers)
        parts_z, parts_w = [], []
        for lo, hi in quadrature._radial_panels(centers, radii):
            order, count, bumps = quadrature._panel_layout(lo, hi, centers, radii, rule)
            t, wt = quadrature._gauss(order[coarse], lo, hi)
            if coarse:
                count = int(quadrature._COARSE_SHARE * count)
            theta, share = quadrature._ring_angles(count, rule.angular_count, bumps)
            parts_z.append((np.sqrt(t)[:, None] * np.exp(1j * theta)[None, :]).ravel())
            parts_w.append((wt[:, None] * share[None, :]).ravel())
        z, w = np.concatenate(parts_z), np.concatenate(parts_w)
        for c, d in zip(centers, radii):
            w = w * (1.0 - quadrature._cutoff(np.abs(z - c), d))
        keep = w != 0.0
        gz, gw = quadrature._composite_global(centers, radii, rule, coarse=coarse)
        assert np.array_equal(gz, z[keep]) and np.array_equal(gw, w[keep])

    def test_check_catches_radial_under_resolution(self, monkeypatch, fresh_node_sets):
        # clear panels at (4, 3) Gauss points miss a pole at |a| = 0.6 (deviation 9.2e-6)
        u, plan = _as_callable(Symbol(atoms=(Atom("pole", 0.6 * np.exp(0.7j), 1.0),)))
        berezin_numeric(u, SWEEP_POINTS, plan=plan)
        quadrature._singular_nodes_cached.cache_clear()
        monkeypatch.setattr(quadrature, "_CLEAR_GAUSS", (4, 3))
        with pytest.raises(NonConvergence, match="numeric transform refinement mismatch"):
            berezin_numeric(u, SWEEP_POINTS, plan=plan)


class TestDenserRule:
    """A denser rule scales the polar rule's angles and outer panels with
    its own sizes: enough for |z| = 0.95, not for 0.98."""

    RULE = (128, 512)

    @pytest.mark.parametrize("modulus", [0.02, 0.3, 0.72, 0.9])
    def test_matches_closed_form_at_095(self, modulus):
        rule = QuadratureRule.build(*self.RULE)
        zs = 0.95 * np.exp(1j * (2.0 * np.pi * np.arange(16) / 16 + 0.1))
        for kind in ("log", "pole", "conjpole"):
            u = Symbol(atoms=(Atom(kind, modulus * np.exp(0.7j), 1.0),))
            error = np.max(np.abs(berezin_numeric(u, zs, rule) - symbol_values(u, zs)))
            assert error <= 1e-9, (kind, error)

    @pytest.mark.parametrize("modulus", [0.02, 0.3, 0.72, 0.9])
    def test_check_raises_at_098(self, modulus):
        # deviations of 2.5e-5 (log at 0.02) to 1.4e-3 (log at 0.9)
        rule = QuadratureRule.build(*self.RULE)
        zs = 0.98 * np.exp(1j * (2.0 * np.pi * np.arange(16) / 16 + 0.1))
        for kind in ("log", "pole", "conjpole"):
            u = Symbol(atoms=(Atom(kind, modulus * np.exp(0.7j), 1.0),))
            with pytest.raises(NonConvergence, match="numeric transform refinement mismatch"):
                berezin_numeric(u, zs, rule)


class TestInsidePatch:
    @pytest.mark.parametrize("modulus", [0.3, 0.72, 0.85, 0.9])
    def test_matches_closed_form(self, modulus):
        # points on circles of radius f * d around the center, f up to the patch radius
        center = modulus * np.exp(0.7j)
        d = quadrature._patch_radii((center,))[0]
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
        z, w = polar_nodes(center, QuadratureRule.build(), coarse=coarse)
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

    @pytest.mark.parametrize("modulus, most", [(0.72, 82_000), (0.94, 103_000)])
    def test_node_count(self, modulus, most):
        # fine and coarse sets together; the composite rule takes 134,095 at 0.72
        rule = QuadratureRule.build()
        center = modulus * np.exp(0.7j)
        fine, coarse = (len(polar_nodes(center, rule, coarse=c)[0]) for c in (False, True))
        assert coarse < fine and fine + coarse <= most

    @pytest.mark.parametrize("modulus, most", [(0.72, 33_000), (0.94, 51_000)])
    def test_per_panel_node_count(self, modulus, most):
        # fine and coarse sets together: 32,000 at 0.72 and 49,600 at 0.94;
        # the full angle count on every panel takes 81,000 and 102,000
        rule = QuadratureRule.build()
        center = modulus * np.exp(0.7j)
        fine, coarse = (len(polar_nodes(center, rule, coarse=c)[0]) for c in (False, True))
        assert coarse < fine and fine + coarse <= most

    @pytest.mark.parametrize("kind", ["log", "pole", "conjpole"])
    def test_check_catches_inner_angular_under_resolution(self, kind, monkeypatch,
                                                          fresh_node_sets):
        # 32 angles on the geometric panels of a 0.94 center, against the 128
        # its branch points need: deviations 2.1e-5 (log) and 6.4e-5 (poles)
        u = Symbol(atoms=(Atom(kind, 0.94 * np.exp(0.7j), 1.0),))
        berezin_numeric(u, SWEEP_POINTS)
        quadrature._polar_nodes_cached.cache_clear()
        layout = quadrature._polar_layout

        def starved(center, radial, angular):
            (edges, order, _), *outer = layout(center, radial, angular)
            return ((edges, order, 32), *outer)

        monkeypatch.setattr(quadrature, "_polar_layout", starved)
        with pytest.raises(NonConvergence, match="numeric transform refinement mismatch"):
            berezin_numeric(u, SWEEP_POINTS)

    @pytest.mark.parametrize("name, orders, kind, modulus", [
        ("_POLAR_OUTER_GAUSS", (8, 6), "pole", 0.6),  # deviation 2.4e-4
        ("_POLAR_INNER_GAUSS", (4, 3), "log", 0.3),   # deviation 7.8e-6
    ])
    def test_check_catches_radial_under_resolution(self, name, orders, kind, modulus,
                                                   monkeypatch, fresh_node_sets):
        u = Symbol(atoms=(Atom(kind, modulus * np.exp(0.7j), 1.0),))
        berezin_numeric(u, SWEEP_POINTS)
        quadrature._polar_nodes_cached.cache_clear()
        monkeypatch.setattr(quadrature, name, orders)
        with pytest.raises(NonConvergence, match="numeric transform refinement mismatch"):
            berezin_numeric(u, SWEEP_POINTS)


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
