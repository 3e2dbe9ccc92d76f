"""Command-line front end.

Subcommands: ``transform`` (exact grid and/or numeric samples of a symbol),
``rank``, ``moments``, ``recover``, ``decompose``, and ``verify`` (built-in
identity suite). Exit codes: 0 success, 1 verification failure, 2 schema
error, 3 numeric failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

import numpy as np

from berezin.core import DEFAULT_TRUNCATION
from berezin.errors import BerezinError, SchemaError
from berezin.quadrature import berezin_numeric
from berezin.rank import moment_matrix, moment_matrix_from_grid, numerical_rank
from berezin.recovery import decompose_form, fit_node_form, recover_nodes
from berezin.symbols import (
    node_form_from_dict,
    node_form_to_dict,
    symbol_from_dict,
    symbol_to_dict,
)
from berezin.transform import symbol_transform, symbol_values

#: Default polar sampling grid for numeric output.
SAMPLE_RADII = 10
SAMPLE_ANGLES = 32


def _sample_points() -> np.ndarray:
    radii = 0.9 * (np.arange(SAMPLE_RADII) + 1) / SAMPLE_RADII
    angles = 2.0 * np.pi * np.arange(SAMPLE_ANGLES) / SAMPLE_ANGLES
    return (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()


def _parse_point(text: str) -> complex:
    try:
        re_part, im_part = text.split(",")
        point = complex(float(re_part), float(im_part))
    except ValueError as exc:
        raise SchemaError(f"--z expects 're,im', got {text!r}") from exc
    if not np.isfinite(point):
        raise SchemaError(f"--z expects finite 're,im', got {text!r}")
    return point


def _write_output(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_document(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise SchemaError(f"symbol file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON in {path}: {exc}") from exc


def _grid_to_json(grid) -> str:
    doc = {
        "truncation": [grid.coeffs.shape[0] - 1, grid.coeffs.shape[1] - 1],
        "coefficients": [[[v.real, v.imag] for v in row] for row in grid.coeffs],
    }
    return json.dumps(doc)


def _samples_to_csv(zs: np.ndarray, values: np.ndarray) -> str:
    rows = "".join("%.17g,%.17g,%.17g,%.17g\n" % (z.real, z.imag, v.real, v.imag)
                   for z, v in zip(zs.tolist(), values.tolist()))
    return "z_re,z_im,value_re,value_im\n" + rows


def cmd_transform(args) -> int:
    symbol = symbol_from_dict(_load_document(args.symbol))
    zs = np.array([_parse_point(args.z)]) if args.z else _sample_points()

    if args.mode == "exact" and args.format == "json" and args.z is None:
        _write_output(_grid_to_json(symbol_transform(symbol, args.trunc)), args.output)
        return 0

    if args.mode == "exact":
        _write_output(_samples_to_csv(zs, symbol_values(symbol, zs)), args.output)
        return 0
    numeric_vals = np.asarray(berezin_numeric(symbol, zs))
    _write_output(_samples_to_csv(zs, numeric_vals), args.output)
    if args.mode == "both":
        exact = symbol_values(symbol, zs)
        deviation = float(np.max(np.abs(numeric_vals - exact)))
        # an explicit --tol is absolute; the default is relative to the
        # symbol's own scale, the largest |exact value| at the points
        if args.tol is not None:
            tol, rule = args.tol, f"tol {args.tol:.1e}"
        else:
            scale = float(np.max(np.abs(exact)))
            tol, rule = 1e-6 * scale, f"tol 1e-6 x max |exact| {scale:.3e}"
        print(f"max numeric-exact deviation {deviation:.3e} ({rule})", file=sys.stderr)
        if deviation > tol:
            return 3
    return 0


def cmd_rank(args) -> int:
    symbol = symbol_from_dict(_load_document(args.symbol))
    grid = symbol_transform(symbol, args.trunc)
    report = numerical_rank(grid, args.tol if args.tol is not None else 1e-8)
    _write_output(json.dumps(report.to_dict()), args.output)
    return 0


def cmd_moments(args) -> int:
    symbol = symbol_from_dict(_load_document(args.symbol))
    matrix = moment_matrix(symbol, args.kmax, args.kmax)
    _write_output(json.dumps(matrix.to_dict()), args.output)
    return 0


def _recover_form(symbol, trunc):
    grid = symbol_transform(symbol, trunc)
    moments = moment_matrix_from_grid(grid, 12, 12)
    estimate = recover_nodes(moments, rank_bound=8)
    form, residual = fit_node_form(grid, estimate.nodes)
    return estimate, form, residual


def cmd_recover(args) -> int:
    symbol = symbol_from_dict(_load_document(args.symbol))
    estimate, form, residual = _recover_form(symbol, args.trunc)
    doc = node_form_to_dict(form)
    doc["recovery"] = {
        "pencil_residual": estimate.residual,
        "fit_residual": residual,
        "iterations": estimate.iterations,
        "confluent": list(estimate.confluent),
    }
    _write_output(json.dumps(doc), args.output)
    return 0


def cmd_decompose(args) -> int:
    doc = _load_document(args.symbol)
    if "nodes" in doc:
        form = node_form_from_dict(doc)
    else:
        symbol = symbol_from_dict(doc)
        _, form, _ = _recover_form(symbol, args.trunc)
    pieces, remainder, info = decompose_form(form, truncation=args.trunc)
    out = {
        "pieces": [
            {
                "symbol": symbol_to_dict(piece.symbol),
                "f": {
                    "numerator": [[c.real, c.imag] for c in piece.f.numerator],
                    "a": [piece.f.center.real, piece.f.center.imag],
                    "denominator_power": piece.f.power,
                },
                "g": {
                    "numerator": [[c.real, c.imag] for c in piece.g.numerator],
                    "a": [piece.g.center.real, piece.g.center.imag],
                    "denominator_power": piece.g.power,
                },
                "harmonic": piece.harmonic,
            }
            for piece in pieces
        ],
        "remainder": None if remainder is None else symbol_to_dict(remainder),
        "absorption": info,
    }
    _write_output(json.dumps(out), args.output)
    return 0


def cmd_verify(args) -> int:
    from berezin.verify import run_suite

    report, ok = run_suite(seed=args.seed, tol_override=args.tol)
    _write_output(report, args.output)
    return 0 if ok else 1


#: Every command-line flag; each subcommand takes only those it reads.
FLAGS = {
    "symbol": dict(required=True, help="path to a symbol JSON document"),
    "trunc": dict(type=int, default=DEFAULT_TRUNCATION, help="grid truncation degree"),
    "tol": dict(type=float, default=None, help="tolerance override"),
    "output": dict(default=None, help="output path (default stdout)"),
    "format": dict(choices=("json", "csv"), default="json",
                   help="exact grids honor json|csv; numeric samples are always CSV"),
    "z": dict(default=None, help="single evaluation point 're,im', |z| <= 0.99; "
                                 "write --z=-0.7,-0.7 when 're' is negative"),
    "mode": dict(choices=("exact", "numeric", "both"), default="exact"),
    "kmax": dict(type=int, default=8, help="moment index bound"),
    "seed": dict(type=int, default=0, help="seed for randomized suites"),
}

COMMANDS = (
    ("transform", "exact grid and/or numeric samples", cmd_transform,
     ("symbol", "trunc", "tol", "output", "format", "z", "mode")),
    ("rank", "rank report of the exact transform grid", cmd_rank,
     ("symbol", "trunc", "tol", "output")),
    ("moments", "moment matrix by singular quadrature", cmd_moments,
     ("symbol", "output", "kmax")),
    ("recover", "recover node structure from a symbol", cmd_recover,
     ("symbol", "trunc", "output")),
    ("decompose", "rank-one decomposition of a form or symbol", cmd_decompose,
     ("symbol", "trunc", "output")),
    ("verify", "run the built-in identity suite", cmd_verify,
     ("seed", "tol", "output")),
)


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (a build takes about
    1.5 ms); parsing leaves it unchanged, so every call of :func:`main`
    shares it."""
    parser = argparse.ArgumentParser(
        prog="berezin",
        description="Berezin transforms of disk symbols: compute, detect rank, recover structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, func, flags in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(f"--{flag}", **FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except BerezinError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
