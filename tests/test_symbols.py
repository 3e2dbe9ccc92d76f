import numpy as np
import pytest

from berezin.core import PowerSeries
from berezin.errors import DomainError, NonConvergence, SchemaError, SingularPoint
from berezin.quadrature import disk_integrate_singular
from berezin.symbols import (
    Atom,
    Symbol,
    canonicalize,
    parse_symbol,
    product_preimage_symbol,
    serialize_symbol,
    symbol_eval,
)


class TestEval:
    def test_log_atom(self):
        s = Symbol(atoms=(Atom("log", 0.0, 1.0),))
        assert symbol_eval(s, 0.5) == pytest.approx(np.log(0.5))

    def test_pole_atom(self):
        s = Symbol(atoms=(Atom("pole", 0.0, 1.0),))
        assert symbol_eval(s, 0.5) == pytest.approx(2.0)

    def test_harmonic(self):
        s = Symbol(holo=PowerSeries([1.0, 1.0]))
        assert symbol_eval(s, 0.3j) == pytest.approx(1 + 0.3j)

    def test_singular_point(self):
        s = Symbol(atoms=(Atom("pole", 0.25, 1.0),))
        with pytest.raises(SingularPoint):
            symbol_eval(s, 0.25)

    def test_outside_disk(self):
        with pytest.raises(DomainError):
            symbol_eval(Symbol(), 1.0)

    def test_linearity(self, rng):
        zs = 0.7 * (rng.uniform(0.1, 1, 8) * np.exp(2j * np.pi * rng.uniform(size=8)))
        k = PowerSeries([0.2, -1.0j, 0.5])
        atom = Atom("conjpole", 0.3, 1.0 - 0.5j)
        s1 = Symbol(holo=k, atoms=(atom,))
        s2 = s1.scaled(2.0 - 1.0j)
        np.testing.assert_allclose(
            symbol_eval(s2, zs), (2.0 - 1.0j) * symbol_eval(s1, zs), atol=1e-12
        )

    def test_conjugate_linearity_in_anti_part(self, rng):
        zs = 0.6 * rng.uniform(0.1, 1, 6) * np.exp(2j * np.pi * rng.uniform(size=6))
        base = PowerSeries([0.0, 1.0, 0.5j])
        c = 0.7 - 0.2j
        s1 = Symbol(anti=base)
        s2 = Symbol(anti=base * c)
        np.testing.assert_allclose(
            symbol_eval(s2, zs), np.conj(c) * symbol_eval(s1, zs), atol=1e-12
        )


class TestCanonicalize:
    def test_cancelling_atoms(self):
        s = Symbol(atoms=(Atom("log", 0.3, 1.0), Atom("log", 0.3, -1.0)))
        assert canonicalize(s).atoms == ()

    def test_merge_close_centers(self):
        s = Symbol(atoms=(Atom("log", 0.3, 1.0), Atom("log", 0.3 + 5e-11, 2.0)))
        merged = canonicalize(s)
        assert len(merged.atoms) == 1
        assert merged.atoms[0].coeff == pytest.approx(3.0)

    def test_normalizes_anti_constant(self):
        s = Symbol(anti=PowerSeries([2.0, 1.0]))
        c = canonicalize(s)
        assert c.anti.coeffs[0] == 0
        assert c.holo.coeffs[0] == pytest.approx(2.0)
        # same function before and after
        z = 0.4 - 0.2j
        assert symbol_eval(c, z) == pytest.approx(symbol_eval(s, z))

    def test_idempotent(self):
        s = Symbol(
            holo=PowerSeries([1.0]),
            anti=PowerSeries([0.5, 1.0]),
            atoms=(Atom("pole", 0.2, 1.0), Atom("pole", 0.2, 0.5)),
        )
        once = canonicalize(s)
        twice = canonicalize(once)
        assert once.atoms == twice.atoms
        np.testing.assert_array_equal(once.holo.coeffs, twice.holo.coeffs)
        np.testing.assert_array_equal(once.anti.coeffs, twice.anti.coeffs)


class TestSerialization:
    def test_constant_document(self):
        s = parse_symbol('{"harmonic": {"K": [[1, 0]], "L": []}, "atoms": []}')
        assert symbol_eval(s, 0.2) == pytest.approx(1.0)

    def test_atom_document(self):
        s = parse_symbol(
            '{"harmonic": {"K": [], "L": []},'
            ' "atoms": [{"kind": "log", "a": [0.3, 0], "coeff": [2, 0]}]}'
        )
        assert s.atoms[0].kind == "log"
        assert s.atoms[0].center == pytest.approx(0.3)
        assert s.atoms[0].coeff == pytest.approx(2.0)

    def test_round_trip(self):
        s = Symbol(
            holo=PowerSeries([1.0, 0.25 - 0.125j]),
            anti=PowerSeries([0.0, 1.0 / 3.0]),
            atoms=(Atom("conjpole", 0.1 + 0.2j, -0.7j),),
        )
        doc = serialize_symbol(s)
        back = parse_symbol(doc)
        assert serialize_symbol(back) == doc
        np.testing.assert_array_equal(back.holo.coeffs, s.holo.coeffs)
        np.testing.assert_array_equal(back.anti.coeffs, s.anti.coeffs)
        assert back.atoms == s.atoms

    @pytest.mark.parametrize(
        "text, path_fragment",
        [
            ('{"harmonic": {"K": [[1]]}, "atoms": []}', "harmonic.K[0]"),
            ('{"harmonic": {}, "atoms": [{"kind": "cube", "a": [0,0], "coeff": [1,0]}]}', "atoms[0].kind"),
            ('{"harmonic": {}, "atoms": [{"kind": "log", "a": [2,0], "coeff": [1,0]}]}', "atoms[0]"),
            ('{"harmonic": {}, "atoms": [{"kind": "log", "a": [0,0]}]}', "atoms[0].coeff"),
            ("[1, 2]", "root"),
            ("not json", "invalid JSON"),
        ],
    )
    def test_schema_errors_carry_path(self, text, path_fragment):
        with pytest.raises(SchemaError) as err:
            parse_symbol(text)
        assert path_fragment in str(err.value)


def _majorant_terms(s: Symbol):
    """``(center, term)`` pairs whose sum bounds ``|s|`` on the disk by the
    triangle inequality, each term with at most one singular center."""
    terms = []
    for atom in s.atoms:
        c, a = abs(atom.coeff), atom.center
        if atom.kind == "log":
            # ln|z - a| < ln 2 on the disk, so |ln|z - a|| <= 2 ln 2 - ln|z - a|
            terms.append((a, lambda z, c=c, a=a: c * (2.0 * np.log(2.0) - np.log(np.abs(z - a)))))
        else:
            terms.append((a, lambda z, c=c, a=a: c / np.abs(z - a)))
    terms.append((None, lambda z: sum(np.abs(series.coeffs[n]) * np.abs(z) ** n
                                      for series in (s.holo, s.anti)
                                      for n in range(len(series.coeffs)))))
    return terms


class TestSummability:
    CORPUS = [
        Symbol(atoms=(Atom("log", 0.3, 1.0),)),
        Symbol(atoms=(Atom("pole", -0.4j, 1.0), Atom("conjpole", 0.5, 2.0))),
        product_preimage_symbol(0.4, 1, 2),
    ]

    def test_corpus_integrable(self):
        # |u| of a multi-center symbol cannot be split by center, so each
        # term of its majorant is integrated on its own center's polar set,
        # the harmonic term on the center-0 set
        for s in self.CORPUS:
            value = sum(disk_integrate_singular(term, 0.0 if center is None else center)
                        for center, term in _majorant_terms(s))
            assert np.isfinite(value.real)
            assert abs(value) < 50

    def test_kinked_integrand_raises(self):
        # |u| has kinks on the zero set of u, which the polar rule around 0.4
        # does not resolve: the check fails with a typed error, not a wrong value
        s = product_preimage_symbol(0.4, 1, 2)
        with pytest.raises(NonConvergence):
            disk_integrate_singular(lambda z: np.abs(symbol_eval(s, z)), 0.4)
