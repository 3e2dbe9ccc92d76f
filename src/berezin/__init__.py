"""Berezin transforms of disk symbols: exact and numeric computation,
finite-rank detection, node recovery, and rank-one decomposition."""

from berezin.core import (
    BidegreeSeries,
    DiskAutomorphism,
    PowerSeries,
    mobius_eval,
    mobius_inverse,
    mobius_power_series,
    mobius_series,
)
from berezin.symbols import (
    Atom,
    NodeForm,
    Symbol,
    canonicalize,
    parse_node_form,
    parse_symbol,
    serialize_node_form,
    serialize_symbol,
    symbol_eval,
)

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "BidegreeSeries",
    "DiskAutomorphism",
    "NodeForm",
    "PowerSeries",
    "Symbol",
    "canonicalize",
    "mobius_eval",
    "mobius_inverse",
    "mobius_power_series",
    "mobius_series",
    "parse_node_form",
    "parse_symbol",
    "serialize_node_form",
    "serialize_symbol",
    "symbol_eval",
    "__version__",
]
