"""The canonical symbol class whose transforms have finite rank.

A :class:`Symbol` is a harmonic part plus finitely many singular atoms::

    u(z) = K(z) + conj(L(z)) + sum_i  atom_i(z)

where ``K``, ``L`` are holomorphic series (``L`` stored unconjugated, with
the normalization ``L(0) = 0``) and each atom is one of

* ``log``      -- ``coeff * ln|z - a|``
* ``pole``     -- ``coeff / (z - a)``
* ``conjpole`` -- ``coeff / conj(z - a)``

with center ``|a| < 0.95``. :class:`NodeForm` is the matching canonical
shape on the transform side: a harmonic part plus, per node ``a``, the
combination ``c11*phi*conj(phi) + c21*phi^2*conj(phi) + c12*phi*conj(phi)^2``
of automorphism products.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from berezin.core import (
    MAX_CENTER_MODULUS,
    PowerSeries,
    log_one_minus_series,
    mobius_series,
    require_finite,
)
from berezin.errors import DomainError, SchemaError, SingularPoint

ATOM_KINDS = ("log", "pole", "conjpole")

#: Atoms whose centers agree within this distance are merged.
CENTER_MERGE_TOL = 1e-10

#: Atom coefficients below this magnitude are dropped.
COEFF_DROP_TOL = 1e-14


@dataclass(frozen=True)
class Atom:
    """One singular term: ``kind`` in {log, pole, conjpole}, center, coefficient."""

    kind: str
    center: complex
    coeff: complex

    def __post_init__(self):
        if self.kind not in ATOM_KINDS:
            raise DomainError(f"unknown atom kind {self.kind!r}")
        c = require_finite(self.center, "atom center")
        if abs(c) >= MAX_CENTER_MODULUS:
            raise DomainError(
                f"atom center modulus {abs(c):.4f} must be < {MAX_CENTER_MODULUS}"
            )
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "coeff", require_finite(self.coeff, "atom coeff"))

    def eval(self, z):
        d = np.asarray(z, dtype=np.complex128) - self.center
        if self.kind == "log":
            return self.coeff * np.log(np.abs(d))
        if self.kind == "pole":
            return self.coeff / d
        return self.coeff / np.conj(d)


@dataclass(frozen=True)
class Symbol:
    """Harmonic part plus singular atoms; immutable."""

    holo: PowerSeries = field(default_factory=lambda: PowerSeries.zero())
    anti: PowerSeries = field(default_factory=lambda: PowerSeries.zero())
    atoms: tuple[Atom, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))

    @classmethod
    def constant(cls, c: complex) -> "Symbol":
        return cls(holo=PowerSeries.constant(c), anti=PowerSeries.zero())

    @property
    def centers(self) -> tuple[complex, ...]:
        return tuple(a.center for a in self.atoms)

    def harmonic(self, z):
        """Values ``K(z) + conj(L(z))`` of the harmonic part at ``z``."""
        return self.holo.eval(z) + np.conj(self.anti.eval(z))

    def __add__(self, other: "Symbol") -> "Symbol":
        return Symbol(
            holo=self.holo + other.holo,
            anti=self.anti + other.anti,
            atoms=self.atoms + other.atoms,
        )

    def scaled(self, c: complex) -> "Symbol":
        return Symbol(
            holo=self.holo * c,
            anti=self.anti * np.conj(c),
            atoms=tuple(Atom(a.kind, a.center, a.coeff * c) for a in self.atoms),
        )


def symbol_eval(s: Symbol, z):
    """Evaluate a symbol at ``z`` (scalar or array), ``|z| < 1``.

    Raises SingularPoint when ``z`` is within 1e-12 of an atom center.
    """
    zarr = np.asarray(z, dtype=np.complex128)
    if np.any(np.abs(zarr) >= 1.0):
        raise DomainError("symbol_eval requires |z| < 1")
    for atom in s.atoms:
        if np.any(np.abs(zarr - atom.center) <= 1e-12):
            raise SingularPoint(f"evaluation at singular center {atom.center}")
    out = s.harmonic(zarr)
    for atom in s.atoms:
        out = out + atom.eval(zarr)
    return complex(out) if zarr.ndim == 0 else out


def canonicalize(s: Symbol) -> Symbol:
    """Canonical form: merge coincident atoms, drop zero atoms, force L(0)=0.

    Atoms of the same kind with centers within :data:`CENTER_MERGE_TOL` are
    merged by summing coefficients (first-listed center wins); coefficients
    below :data:`COEFF_DROP_TOL` are dropped. A nonzero ``L(0)`` moves into
    the holomorphic part as ``conj(L(0))``. Idempotent.
    """
    merged: list[Atom] = []
    for atom in s.atoms:
        for i, kept in enumerate(merged):
            if kept.kind == atom.kind and abs(kept.center - atom.center) <= CENTER_MERGE_TOL:
                merged[i] = Atom(kept.kind, kept.center, kept.coeff + atom.coeff)
                break
        else:
            merged.append(atom)
    atoms = tuple(a for a in merged if abs(a.coeff) > COEFF_DROP_TOL)

    holo, anti = s.holo, s.anti
    l0 = anti.coeffs[0]
    if l0 != 0:
        shifted = anti.coeffs.copy()
        shifted[0] = 0.0
        anti = PowerSeries(shifted)
        holo = holo + PowerSeries.constant(np.conj(l0))
    return Symbol(holo=holo, anti=anti, atoms=atoms)


def product_preimage_symbol(a: complex, holo_power: int, anti_power: int,
                            truncation: int | None = None) -> Symbol:
    """Symbol whose transform is exactly ``phi_a^j * conj(phi_a)^k``.

    Supported (j, k): (1,1), (2,1), (1,2). These are the closed-form
    preimages of the automorphism products:

    * (1,1): ``2(ln|z-a| - ln|1 - conj(a) z|) + 1``
    * (1,2): ``conj(a) + 2 conj(phi_a) - (1-|a|^2)/(z-a)``
    * (2,1): the complex conjugate of the (1,2) preimage
    """
    from berezin.core import DEFAULT_TRUNCATION

    t = DEFAULT_TRUNCATION if truncation is None else truncation
    a = require_finite(a, "center")
    jk = (int(holo_power), int(anti_power))
    if jk == (1, 1):
        ell = log_one_minus_series(np.conj(a), t)  # log(1 - conj(a) z)
        holo = PowerSeries.constant(1.0) + (-1.0) * ell
        anti = (-1.0) * ell
        return Symbol(holo=holo, anti=anti, atoms=(Atom("log", a, 2.0),))
    if jk == (1, 2):
        phi = mobius_series(a, t)
        anti = PowerSeries(np.concatenate(([0.0], 2.0 * phi.coeffs[1:])))
        holo = PowerSeries.constant(-np.conj(a))
        return Symbol(holo=holo, anti=anti,
                      atoms=(Atom("pole", a, -(1.0 - abs(a) ** 2)),))
    if jk == (2, 1):
        phi = mobius_series(a, t)
        coeffs = 2.0 * phi.coeffs.copy()
        coeffs[0] = a + 2.0 * phi.coeffs[0]  # K = a + 2*phi, so K(0) = -a
        return Symbol(holo=PowerSeries(coeffs), anti=PowerSeries.zero(),
                      atoms=(Atom("conjpole", a, -(1.0 - abs(a) ** 2)),))
    raise DomainError(f"unsupported product powers {jk}")


@dataclass(frozen=True)
class NodeForm:
    """Canonical finite-rank transform: harmonic part plus node products.

    ``nodes`` is a tuple of ``(a, c11, c21, c12)`` with ``cjk`` multiplying
    ``phi_a^j conj(phi_a)^k``. Serialized with keys D, E, F for c11, c21,
    c12 respectively (see :func:`serialize_node_form`).
    """

    holo: PowerSeries = field(default_factory=lambda: PowerSeries.zero())
    anti: PowerSeries = field(default_factory=lambda: PowerSeries.zero())
    nodes: tuple[tuple[complex, complex, complex, complex], ...] = ()

    def __post_init__(self):
        nodes = []
        for (a, c11, c21, c12) in self.nodes:
            a = require_finite(a, "node center")
            if abs(a) >= MAX_CENTER_MODULUS:
                raise DomainError(f"node center modulus {abs(a):.4f} too large")
            nodes.append((a, require_finite(c11), require_finite(c21), require_finite(c12)))
        for i in range(len(nodes)):
            for j in range(i + 1, len(nodes)):
                if abs(nodes[i][0] - nodes[j][0]) <= CENTER_MERGE_TOL:
                    raise DomainError("node centers must be pairwise distinct")
        object.__setattr__(self, "nodes", tuple(nodes))

    def to_symbol(self, truncation: int | None = None) -> Symbol:
        """The canonical symbol whose transform equals this form."""
        out = Symbol(holo=self.holo, anti=self.anti)
        for (a, c11, c21, c12) in self.nodes:
            for c, (j, k) in ((c11, (1, 1)), (c21, (2, 1)), (c12, (1, 2))):
                if c != 0:
                    out = out + product_preimage_symbol(a, j, k, truncation).scaled(c)
        return canonicalize(out)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def _pair(value: complex) -> list[float]:
    value = complex(value)
    return [value.real, value.imag]


def _series_to_json(p: PowerSeries) -> list[list[float]]:
    coeffs = p.coeffs
    last = len(coeffs)
    while last > 1 and coeffs[last - 1] == 0:
        last -= 1
    return [_pair(c) for c in coeffs[:last]]


def _complex_from(obj, path: str) -> complex:
    if (not isinstance(obj, (list, tuple)) or len(obj) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj)):
        raise SchemaError(f"{path}: expected [re, im] number pair, got {obj!r}")
    return complex(float(obj[0]), float(obj[1]))


def _series_from(obj, path: str) -> PowerSeries:
    if not isinstance(obj, list):
        raise SchemaError(f"{path}: expected a list of [re, im] pairs")
    if not obj:
        return PowerSeries.zero()
    return PowerSeries([_complex_from(v, f"{path}[{i}]") for i, v in enumerate(obj)])


def _harmonic_to_json(holo: PowerSeries, anti: PowerSeries) -> dict:
    return {"K": _series_to_json(holo), "L": _series_to_json(anti)}


def _harmonic_from(doc) -> tuple[PowerSeries, PowerSeries]:
    """``(K, L)`` of a document's root object and its ``harmonic`` block."""
    if not isinstance(doc, dict):
        raise SchemaError("document root must be an object")
    harmonic = doc.get("harmonic", {})
    if not isinstance(harmonic, dict):
        raise SchemaError("harmonic: expected an object")
    return (_series_from(harmonic.get("K", []), "harmonic.K"),
            _series_from(harmonic.get("L", []), "harmonic.L"))


def symbol_to_dict(s: Symbol) -> dict:
    return {
        "harmonic": _harmonic_to_json(s.holo, s.anti),
        "atoms": [
            {"kind": a.kind, "a": _pair(a.center), "coeff": _pair(a.coeff)}
            for a in s.atoms
        ],
    }


def symbol_from_dict(doc: dict) -> Symbol:
    holo, anti = _harmonic_from(doc)
    atoms_doc = doc.get("atoms", [])
    if not isinstance(atoms_doc, list):
        raise SchemaError("atoms: expected a list")
    atoms = []
    for i, entry in enumerate(atoms_doc):
        path = f"atoms[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError(f"{path}: expected an object")
        kind = entry.get("kind")
        if kind not in ATOM_KINDS:
            raise SchemaError(f"{path}.kind: expected one of {ATOM_KINDS}, got {kind!r}")
        center = _complex_from(entry.get("a"), f"{path}.a")
        coeff = _complex_from(entry.get("coeff"), f"{path}.coeff")
        try:
            atoms.append(Atom(kind, center, coeff))
        except DomainError as exc:
            raise SchemaError(f"{path}: {exc}") from exc
    return Symbol(holo=holo, anti=anti, atoms=tuple(atoms))


def serialize_symbol(s: Symbol) -> str:
    return json.dumps(symbol_to_dict(s), indent=2)


def parse_symbol(text: str) -> Symbol:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    return symbol_from_dict(doc)


def node_form_to_dict(form: NodeForm) -> dict:
    return {
        "harmonic": _harmonic_to_json(form.holo, form.anti),
        "nodes": [
            {"a": _pair(a), "D": _pair(c11), "E": _pair(c21), "F": _pair(c12)}
            for (a, c11, c21, c12) in form.nodes
        ],
    }


def node_form_from_dict(doc: dict) -> NodeForm:
    holo, anti = _harmonic_from(doc)
    nodes_doc = doc.get("nodes", [])
    if not isinstance(nodes_doc, list):
        raise SchemaError("nodes: expected a list")
    nodes = []
    for i, entry in enumerate(nodes_doc):
        path = f"nodes[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError(f"{path}: expected an object")
        nodes.append(tuple(
            _complex_from(entry.get(key), f"{path}.{key}")
            for key in ("a", "D", "E", "F")
        ))
    try:
        return NodeForm(holo=holo, anti=anti, nodes=tuple(nodes))
    except DomainError as exc:
        raise SchemaError(str(exc)) from exc


def serialize_node_form(form: NodeForm) -> str:
    return json.dumps(node_form_to_dict(form), indent=2)


def parse_node_form(text: str) -> NodeForm:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    return node_form_from_dict(doc)
