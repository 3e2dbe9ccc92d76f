import tracemalloc

import numpy as np
import pytest

from berezin.core import (
    MAX_TRUNCATION,
    BidegreeSeries,
    DiskAutomorphism,
    PowerSeries,
    mobius_eval,
    mobius_inverse,
    mobius_power_series,
    mobius_series,
)
from berezin.errors import DomainError, TruncationError, TruncationOverflow


class TestMobius:
    def test_basic_values(self):
        phi = DiskAutomorphism(0.5)
        assert mobius_eval(phi, 0.0) == pytest.approx(-0.5)
        assert mobius_eval(phi, 0.5) == pytest.approx(0.0)
        phi0 = DiskAutomorphism(0.0)
        assert mobius_eval(phi0, 0.3 + 0.4j) == pytest.approx(0.3 + 0.4j)

    def test_maps_disk_to_disk(self, rng):
        for _ in range(50):
            a = rng.uniform(0, 0.9) * np.exp(2j * np.pi * rng.uniform())
            z = rng.uniform(0, 0.9) * np.exp(2j * np.pi * rng.uniform())
            assert abs(mobius_eval(DiskAutomorphism(a), z)) < 1.0

    def test_denominator_guard(self):
        phi = DiskAutomorphism(1 - 5e-15)
        with pytest.raises(DomainError):
            mobius_eval(phi, 1.0)

    def test_outside_disk_rejected(self):
        with pytest.raises(DomainError):
            mobius_eval(DiskAutomorphism(0.3), 1.5)
        with pytest.raises(DomainError):
            DiskAutomorphism(1.2)

    def test_inverse_values(self):
        inv = mobius_inverse(DiskAutomorphism(0.5))
        assert inv(-0.5) == pytest.approx(0.0)
        ident = mobius_inverse(DiskAutomorphism(0.0))
        assert ident(0.3 - 0.1j) == pytest.approx(0.3 - 0.1j)
        phi = DiskAutomorphism(0.3j)
        assert mobius_inverse(phi)(mobius_eval(phi, 0.2)) == pytest.approx(0.2, abs=1e-12)

    def test_inverse_round_trip_grid(self, rng):
        for _ in range(40):
            a = rng.uniform(0, 0.9) * np.exp(2j * np.pi * rng.uniform())
            z = rng.uniform(0, 0.9) * np.exp(2j * np.pi * rng.uniform())
            phi = DiskAutomorphism(a)
            assert abs(mobius_inverse(phi)(mobius_eval(phi, z)) - z) <= 1e-12


class TestMobiusSeries:
    def test_pure_square(self):
        series = mobius_power_series(0.0, 2, 4)
        expected = np.zeros(5)
        expected[2] = 1.0
        np.testing.assert_allclose(series.coeffs, expected, atol=1e-15)

    def test_half_center_coefficients(self):
        # expanding (z - a) sum (conj(a) z)^n by hand at a = 1/2
        series = mobius_power_series(0.5, 1, 6)
        np.testing.assert_allclose(
            series.coeffs[:4], [-0.5, 0.75, 0.375, 0.1875], atol=1e-15
        )

    def test_matches_pointwise_square(self):
        a, z = 0.3, 0.2
        series = mobius_power_series(a, 2, 60)
        direct = mobius_eval(DiskAutomorphism(a), z) ** 2
        assert abs(series.eval(z) - direct) <= 1e-10

    def test_residual_on_half_disk(self, rng):
        for a in (0.5, -0.3 + 0.4j, 0.9 * np.exp(1.1j)):
            for j in (1, 2, 3):
                series = mobius_power_series(a, j, 40)
                for _ in range(10):
                    z = rng.uniform(0, 0.5) * np.exp(2j * np.pi * rng.uniform())
                    direct = mobius_eval(DiskAutomorphism(a), z) ** j
                    assert abs(series.eval(z) - direct) <= 1e-10

    def test_power_is_repeated_convolution(self):
        a = 0.4 - 0.2j
        base = mobius_power_series(a, 1, 30).coeffs
        for j in (2, 3):
            series = mobius_power_series(a, j, 30).coeffs
            manual = base
            for _ in range(j - 1):
                manual = np.convolve(manual, base)[:31]
            np.testing.assert_allclose(series, manual, atol=1e-12)

    def test_truncation_too_short(self):
        with pytest.raises(TruncationError):
            mobius_power_series(0.3, 2, 1)

    def test_center_too_large(self):
        with pytest.raises(DomainError):
            mobius_series(0.96)


class TestPowerSeries:
    def test_eval_and_arith(self):
        p = PowerSeries([1.0, 2.0])
        q = PowerSeries([0.0, 0.0, 3.0])
        assert (p + q).eval(0.5) == pytest.approx(1 + 1 + 0.75)
        assert (2.0 * p).eval(0.5) == (p * 2.0).eval(0.5) == pytest.approx(4.0)
        with pytest.raises(TypeError):
            p * q

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            PowerSeries([np.nan])

    def test_eval_is_byte_identical_to_polyval(self, rng):
        # the in-place Horner loop rounds exactly as numpy's polyval does,
        # signed zeros included: conjugating real coefficients gives the
        # -0.0 imaginary parts that conjugated symbol parts carry
        polyval = np.polynomial.polynomial.polyval
        z = 0.9 * np.sqrt(rng.uniform(size=(40, 64))) * np.exp(2j * np.pi * rng.uniform(size=(40, 64)))
        series = [rng.standard_normal(81) + 1j * rng.standard_normal(81),
                  np.conj(rng.standard_normal(17).astype(np.complex128)),
                  [complex(-0.0, -0.0)], [0.5 - 2j]]
        for coeffs in series:
            p = PowerSeries(coeffs)
            got = p.eval(z)
            assert got.shape == z.shape
            assert got.tobytes() == polyval(z, p.coeffs).tobytes()
            for point in (0.3 - 0.6j, 0.0, -0.85j):
                value = p.eval(point)
                assert isinstance(value, complex)
                want = complex(polyval(np.asarray(point, dtype=np.complex128), p.coeffs))
                assert np.array([value]).tobytes() == np.array([want]).tobytes()


class TestBidegree:
    def test_conjugate_swaps(self):
        z_grid = BidegreeSeries(np.array([[0, 0], [1.0, 0]]))  # grid of z
        conj = z_grid.conjugate()
        np.testing.assert_allclose(conj.coeffs, [[0, 1.0], [0, 0]])

    def test_conjugate_involution(self, rng):
        grid = BidegreeSeries(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        np.testing.assert_allclose(
            grid.conjugate().conjugate().coeffs, grid.coeffs, atol=0
        )

    def test_eval_log_transform_value(self):
        # grid of (z conj(z) - 1)/2 evaluated at 1/2
        grid = BidegreeSeries(np.array([[-0.5, 0], [0, 0.5]]))
        assert grid.eval(0.5) == pytest.approx(-0.375)

    def test_truncation_overflow(self):
        with pytest.raises(TruncationOverflow):
            BidegreeSeries.zero(MAX_TRUNCATION + 1)
        with pytest.raises(TruncationOverflow):
            BidegreeSeries.zero(10, MAX_TRUNCATION + 1)

    def test_grid_times_grid_is_undefined(self):
        grid = BidegreeSeries.zero(4)
        with pytest.raises(TypeError):
            grid * grid
        assert (2.0 * grid).shape == (grid * 2.0).shape == (5, 5)

    def test_outer_matches_pointwise(self, rng):
        f = PowerSeries(rng.standard_normal(5) + 1j * rng.standard_normal(5))
        g = PowerSeries(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        grid = BidegreeSeries.outer(f, g)
        z = 0.3 - 0.45j
        assert grid.eval(z) == pytest.approx(f.eval(z) * np.conj(g.eval(z)))

    def test_eval_blocks_match_one_call(self, rng):
        # several point blocks and a 2-d shape: the blocked evaluation is
        # byte-identical to one whole-array Horner pass
        grid = BidegreeSeries(rng.standard_normal((81, 81)) + 1j * rng.standard_normal((81, 81)))
        z = 0.9 * np.exp(2j * np.pi * rng.uniform(size=(100, 97))) * rng.uniform(size=(100, 97))
        whole = np.polynomial.polynomial.polyval2d(np.conj(z), z, grid.coeffs.T)
        got = grid.eval(z)
        assert got.shape == z.shape
        np.testing.assert_array_equal(got, whole)
        assert grid.eval(complex(z[3, 5])) == whole[3, 5]

    def test_eval_memory_is_bounded(self, rng):
        grid = BidegreeSeries(rng.standard_normal((81, 81)) + 1j * rng.standard_normal((81, 81)))
        z = 0.9 * np.exp(2j * np.pi * rng.uniform(size=100_000)) * rng.uniform(size=100_000)
        tracemalloc.start()
        try:
            grid.eval(z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


def test_every_export_resolves():
    import berezin

    namespace = {}
    exec("from berezin import *", namespace)
    assert set(berezin.__all__) <= set(namespace)
