import numpy as np
import pytest

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
    singular_nodes,
)
from berezin.symbols import Atom, Symbol, symbol_eval
from berezin.transform import symbol_values

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
        z, w = singular_nodes(SingularityPlan(centers=(0.3 - 0.2j,)), QuadratureRule.build())
        weights = sum(np.abs(atom.eval(z)) for atom in atoms) * w
        scale = _kernels.kernel_sum(z, weights, zs).real
        assert np.all(np.abs(together - apart) <= 1e-13 * scale)

    def test_refinement_check_guards_each_center_group(self, monkeypatch, fresh_node_sets):
        # patches too coarse for the center: the group's fine and coarse sums disagree
        atoms = (Atom("log", 0.5, 1.0), Atom("pole", 0.5, 0.5 + 0.25j),
                 Atom("conjpole", 0.5, -0.25j))
        monkeypatch.setattr(quadrature, "_PATCH_DEPTH", (4, 4))
        monkeypatch.setattr(quadrature, "_PATCH_GAUSS", (4, 8))
        monkeypatch.setattr(quadrature, "_PATCH_ANGULAR", (8, 6))
        with pytest.raises(NonConvergence, match="numeric transform refinement mismatch"):
            berezin_numeric(Symbol(atoms=atoms), np.array([0.1, 0.5 + 0.1j]))

    def test_symbol_with_plan_is_rejected(self):
        # a symbol declares its own centers; a plan next to it would be ignored
        u = Symbol(atoms=(Atom("log", 0.5, 1.0),))
        with pytest.raises(DomainError):
            berezin_numeric(u, 0.1, plan=SingularityPlan(centers=(0.5,)))


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


@pytest.fixture
def fresh_node_sets():
    # node sets built under a patched count must not serve later tests
    quadrature._singular_nodes_cached.cache_clear()
    yield
    quadrature._singular_nodes_cached.cache_clear()


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
        u = Symbol(atoms=(Atom("pole", 0.7199 + 0.6040j, 1.0),))
        berezin_numeric(u, SWEEP_POINTS)
        quadrature._singular_nodes_cached.cache_clear()
        monkeypatch.setattr(quadrature, "_ring_count", lambda r_lo, r_hi, centers: 0)
        with pytest.raises(NonConvergence, match="numeric transform refinement mismatch"):
            berezin_numeric(u, SWEEP_POINTS)

    @pytest.mark.parametrize("centers", [(0.3,), (0.7199 + 0.6040j,), (0.96j,), (0.3, -0.4j)])
    def test_coarse_count_below_fine_on_every_panel(self, centers):
        rule = QuadratureRule.build()
        radii = quadrature._patch_radii(centers)
        for lo, hi in quadrature._radial_panels(centers, radii):
            fine, _ = quadrature._panel_layout(lo, hi, centers, radii, rule)
            assert int(quadrature._COARSE_SHARE * fine) < fine, (lo, hi)

    def test_node_count_at_085(self):
        # one angular count for the whole disk gave 1,703,581 nodes here
        z, _ = singular_nodes(SingularityPlan(centers=(0.85 * np.exp(0.7j),)),
                              QuadratureRule.build())
        assert len(z) <= 850_000

    def test_check_catches_unclustered_near_rings(self, monkeypatch, fresh_node_sets):
        # near rings at the mapped count but with uniform angles miss a pole at |a| = 0.85
        u = Symbol(atoms=(Atom("pole", 0.85 * np.exp(0.7j), 1.0),))
        berezin_numeric(u, SWEEP_POINTS)
        quadrature._singular_nodes_cached.cache_clear()
        ring_angles = quadrature._ring_angles
        monkeypatch.setattr(quadrature, "_ring_angles",
                            lambda count, uniform, bumps: ring_angles(count, uniform, ()))
        with pytest.raises(NonConvergence, match="numeric transform refinement mismatch"):
            berezin_numeric(u, SWEEP_POINTS)

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
            fine, bumps = quadrature._panel_layout(lo, hi, centers, radii, rule)
            mapped += bool(bumps)
            for n in (fine, int(quadrature._COARSE_SHARE * fine)):
                theta, share = quadrature._ring_angles(n, rule.angular_count, bumps)
                assert len(theta) == n and 0.0 <= theta[0] and theta[-1] < 2.0 * np.pi
                assert np.all(np.diff(theta) > 0.0)
                assert abs(np.sum(share) - 1.0) <= 1e-14
                assert not theta.flags.writeable and not share.flags.writeable
        assert mapped > 0


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
