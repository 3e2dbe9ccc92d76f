"""Seeded inputs, timed operations and correctness gates of the workloads.

Every workload is a closed loop in one process: one operation after the
other, each on freshly generated inputs. Inputs come in *rounds*, one
operation per size class (atom or node count), and a run measures whole
rounds, so every run times the same mix of sizes whatever its length.
The seed draws everything else: angles, kinds, coefficients, harmonic
parts, evaluation points and the position of each modulus inside its
stratum. Centers are continuous draws, so no two operations share one and
the node-set cache of ``quadrature.singular_nodes`` never serves one
operation from another one's work.

The package is driven only through its public functions, looked up on the
module at call time so that the traced run sees every call. Reference
values and gates run outside the timed region.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import operator
import os
from dataclasses import dataclass

import numpy as np

from berezin import cli, quadrature, rank, recovery, transform
from berezin.core import PowerSeries
from berezin.symbols import Atom, NodeForm, Symbol, symbol_to_dict

#: Contract tolerances of the package (CLI numeric check, node round trip,
#: decomposition sum, rank-one factorization).
NUMERIC_TOL = 1e-6
NODE_TOL = 1e-6
DECOMPOSITION_TOL = 1e-7
CENTER_TOL = 1e-8

#: Minimum pairwise center distance of generated atoms and nodes.
SEPARATION = 0.2

#: The CLI's default polar sample grid: 10 radii up to 0.9 times 32 angles.
SAMPLE_POINTS = (
    0.9 * (np.arange(10)[:, None] + 1) / 10 * np.exp(2j * np.pi * np.arange(32) / 32)[None, :]
).ravel()

#: Center moduli per operation of a round, one ``(lo, hi)`` stratum per
#: atom or node. The cost of a singular node set grows steeply with the
#: modulus (about 0.27M nodes at 0, 0.8M at 0.7 and 2.5M at 0.85, fine and
#: coarse sets together). Narrow fixed strata keep the work of a round the
#: same for every seed while the seed places the centers, and they are
#: chosen so that the operations of a round cost about the same (fewer
#: atoms sit farther out), which makes the median and tail of a few
#: operations steady. The three nodes of ``quadrature_moments`` sit farther
#: out than that for node recovery (see QUADRATURE_MOMENTS_SEPARATION), so
#: that operation costs about 1.5 times the others. ``numeric_grid`` stops
#: at 0.725: one atom at 0.85 alone contracts 8e8 kernel pairs, about 20 s
#: with the NumPy kernels on a 2-vCPU 2 GHz Xeon.
NUMERIC_GRID_MODULI = (
    ((0.715, 0.725),),
    ((0.195, 0.205), (0.645, 0.655)),
    ((0.015, 0.025), (0.195, 0.205), (0.445, 0.455)),
)
QUADRATURE_MOMENTS_MODULI = (
    ((0.745, 0.755),),
    ((0.195, 0.205), (0.645, 0.655)),
    ((0.295, 0.305), (0.445, 0.455), (0.595, 0.605)),
)

#: ``quadrature_moments`` recovers nodes from moments that carry the
#: quadrature error (about 1e-11). ``recover_nodes`` merges a confluent
#: pencil eigenvalue pair only within 1e-4, and that error splits each pair
#: by about the square root of the error over the weakest signal singular
#: value, which is smallest for close nodes near the origin. Three nodes
#: packed there (for example at moduli 0.05, 0.25 and 0.40, separation 0.2)
#: split pairs past 1e-4 in some forms, which then raise IllConditioned.
#: Three nodes at 0.30, 0.45 and 0.60 with separation 0.3 keep every split
#: measured below 1.5e-5.
QUADRATURE_MOMENTS_SEPARATION = 0.3

#: Evaluation points per ``quadrature_moments`` operation, by node count:
#: the shapes of ``--z`` (one point) and of ``verify`` (5 and 8 points).
#: Fixed per size, since every point is contracted against every node.
QUADRATURE_POINTS = (1, 5, 8)

#: ``inverse_exact`` costs little per node, so its moduli are uniform over
#: the supported region of the exact chain.
INVERSE_MAX_MODULUS = 0.85
INVERSE_NODE_COUNTS = (1, 2, 3, 4)


class GateViolation(Exception):
    """An output outside its contract tolerance; ``step`` names the layer."""

    def __init__(self, step: str, message: str):
        super().__init__(f"{step}: {message}")
        self.step = step


@dataclass
class Op:
    """One generated operation: its timed arguments and its references."""

    index: int
    size: int
    args: dict
    reference: dict


def _coeff(rng) -> complex:
    return complex(rng.uniform(0.3, 1.5) * np.exp(2j * np.pi * rng.uniform()))


def _centers(rng, moduli, separation=SEPARATION) -> list[complex]:
    """One center per ``(lo, hi)`` modulus stratum, at a uniform angle,
    redrawn until it is ``separation`` away from the centers before it."""
    centers: list[complex] = []
    for lo, hi in moduli:
        while True:
            a = complex(rng.uniform(lo, hi) * np.exp(2j * np.pi * rng.uniform()))
            if all(abs(a - b) >= separation for b in centers):
                centers.append(a)
                break
    return centers


def _harmonic(rng, degree: int) -> tuple[PowerSeries, PowerSeries]:
    holo = 0.5 * (rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))
    anti = 0.5 * (rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))
    anti[0] = 0.0
    return PowerSeries(holo), PowerSeries(anti)


def _node_form(rng, centers, harmonic_degree: int) -> NodeForm:
    holo, anti = _harmonic(rng, harmonic_degree)
    nodes = tuple((a, _coeff(rng), _coeff(rng), _coeff(rng)) for a in centers)
    return NodeForm(holo=holo, anti=anti, nodes=nodes)


def _node_error(truth, found) -> float:
    """Largest distance from a true node to its nearest found node."""
    if len(found) != len(truth):
        return float("inf")
    return max(min(abs(a - b) for b in found) for a in truth)


def _require(step: str, value: float, tol: float, what: str):
    if not value <= tol:
        raise GateViolation(step, f"{what} {value:.3e} exceeds {tol:.0e}")


class Workload:
    """A round-based stream of operations with a timed body and a gate."""

    name = ""
    sizes: tuple[int, ...] = ()

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.count = 0

    def setup(self):
        """Lazy set-up a fresh process pays before its first operation."""

    def next_round(self) -> list[Op]:
        ops = []
        for size in self.sizes:
            args, reference = self.generate(size)
            ops.append(Op(self.count, size, args, reference))
            self.count += 1
        return ops

    def generate(self, size: int) -> tuple[dict, dict]:
        raise NotImplementedError

    def run(self, op: Op):
        """The timed body; returns what :meth:`check` needs."""
        raise NotImplementedError

    def check(self, op: Op, out):
        """Raise GateViolation when an output misses its tolerance."""
        raise NotImplementedError


class NumericGrid(Workload):
    """``berezin transform --mode both --format csv`` on the default grid."""

    name = "numeric_grid"
    sizes = (1, 2, 3)

    def generate(self, size):
        rng = self.rng
        holo, anti = _harmonic(rng, int(rng.integers(0, 4)))
        kinds = rng.permutation(["log", "pole", "conjpole"])[:size]
        centers = _centers(rng, NUMERIC_GRID_MODULI[size - 1])
        symbol = Symbol(holo=holo, anti=anti, atoms=tuple(
            Atom(str(kind), a, _coeff(rng)) for kind, a in zip(kinds, centers)
        ))
        symbol_path = os.path.join(self.workdir, f"symbol-{self.count}.json")
        with open(symbol_path, "w", encoding="utf-8") as fh:
            json.dump(symbol_to_dict(symbol), fh)
        exact = transform.symbol_transform(symbol).eval(SAMPLE_POINTS)
        args = {"symbol": symbol_path,
                "output": os.path.join(self.workdir, f"samples-{self.count}.csv")}
        return args, {"exact": exact}

    def run(self, op):
        argv = ["transform", "--symbol", op.args["symbol"], "--mode", "both",
                "--format", "csv", "--output", op.args["output"]]
        log = io.StringIO()
        with contextlib.redirect_stderr(log):
            code = cli.main(argv)
        return code, log.getvalue()

    def check(self, op, out):
        code, log = out
        if code != 0:
            raise GateViolation("cli.main", f"exit code {code}: {log.strip()}")
        with open(op.args["output"], encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if lines[:1] != ["z_re,z_im,value_re,value_im"] or len(lines) != len(SAMPLE_POINTS) + 1:
            raise GateViolation("cli.main", "CSV header or row count differs")
        table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        _require("cli.main", float(np.max(np.abs(table[:, 0] + 1j * table[:, 1] - SAMPLE_POINTS))),
                 0.0, "sample point offset")
        _require("quadrature.berezin_numeric",
                 float(np.max(np.abs(table[:, 2] + 1j * table[:, 3] - op.reference["exact"]))),
                 NUMERIC_TOL, "numeric-exact deviation")


class QuadratureMoments(Workload):
    """Moments by singular quadrature, recovery from them, a few point values."""

    name = "quadrature_moments"
    sizes = (1, 2, 3)

    def setup(self):
        rank.calibrated_orientation()

    def generate(self, size):
        rng = self.rng
        centers = _centers(rng, QUADRATURE_MOMENTS_MODULI[size - 1], QUADRATURE_MOMENTS_SEPARATION)
        form = _node_form(rng, centers, 3)
        symbol = form.to_symbol()
        count = QUADRATURE_POINTS[size - 1]
        zs = 0.9 * np.sqrt(rng.uniform(size=count)) * np.exp(2j * np.pi * rng.uniform(size=count))
        grid = transform.symbol_transform(symbol)
        reference = {
            "moments": rank.moment_matrix_from_grid(grid, 12, 12).entries,
            "nodes": [a for a, *_ in form.nodes],
            "values": grid.eval(zs),
        }
        return {"symbol": symbol, "zs": zs}, reference

    def run(self, op):
        symbol = op.args["symbol"]
        moments = rank.moment_matrix(symbol, 12, 12)
        estimate = recovery.recover_nodes(moments, rank_bound=8)
        values = quadrature.berezin_numeric(symbol, op.args["zs"])
        return moments, estimate, values

    def check(self, op, out):
        moments, estimate, values = out
        ref = op.reference
        _require("rank.moment_matrix",
                 float(np.max(np.abs(moments.entries - ref["moments"]))),
                 NUMERIC_TOL, "moment deviation")
        _require("recovery.recover_nodes", _node_error(ref["nodes"], estimate.nodes),
                 NODE_TOL, "node error")
        _require("quadrature.berezin_numeric", float(np.max(np.abs(values - ref["values"]))),
                 NUMERIC_TOL, "numeric-exact deviation")


class InverseExact(Workload):
    """The exact inverse chain: recover, fit, decompose, factor."""

    name = "inverse_exact"
    sizes = INVERSE_NODE_COUNTS

    def generate(self, size):
        form = _node_form(self.rng, _centers(self.rng, [(0.0, INVERSE_MAX_MODULUS)] * size), 4)
        return {"form": form}, {"grid": transform.node_form_transform(form)}

    def run(self, op):
        grid = transform.node_form_transform(op.args["form"])
        moments = rank.moment_matrix_from_grid(grid, 12, 12)
        rank.numerical_rank(grid)
        estimate = recovery.recover_nodes(moments, rank_bound=8)
        fitted, _ = recovery.fit_node_form(grid, estimate.nodes)
        pieces, remainder, _ = recovery.decompose_form(fitted)
        factored = []
        for piece in pieces:
            if piece.harmonic:
                continue
            piece_grid = transform.symbol_transform(piece.symbol)
            factored.append((piece, piece_grid, recovery.factor_rank_one(piece_grid)))
        return grid, estimate, fitted, pieces, remainder, factored

    def check(self, op, out):
        grid, estimate, fitted, pieces, remainder, factored = out
        form = op.args["form"]
        truth = [a for a, *_ in form.nodes]
        _require("transform.node_form_transform", op.reference["grid"].max_coeff_diff(grid),
                 0.0, "grid difference")
        _require("recovery.recover_nodes", _node_error(truth, estimate.nodes),
                 NODE_TOL, "node error")
        if len(fitted.nodes) != len(form.nodes):
            raise GateViolation("recovery.fit_node_form", "node count differs")
        worst = max(
            min(max(abs(a - b), abs(c11 - d), abs(c21 - e), abs(c12 - f))
                for (b, d, e, f) in fitted.nodes)
            for (a, c11, c21, c12) in form.nodes
        )
        _require("recovery.fit_node_form", worst, NODE_TOL, "node or constant error")

        harmonic_parts = [p.symbol for p in pieces if p.harmonic]
        if remainder is not None:
            harmonic_parts.append(remainder)
        grids = [g for _, g, _ in factored] + [transform.symbol_transform(s)
                                               for s in harmonic_parts]
        if not grids:
            raise GateViolation("recovery.decompose_form", "no pieces")
        total = functools.reduce(operator.add, grids)
        _require("recovery.decompose_form", total.max_coeff_diff(op.reference["grid"]),
                 DECOMPOSITION_TOL, "decomposition sum error")
        for piece, _, fac in factored:
            _require("recovery.factor_rank_one", min(abs(fac.a - a) for a in truth),
                     CENTER_TOL, "factored center error")
            _require("recovery.factor_rank_one", abs(fac.a - piece.f.center),
                     CENTER_TOL, "factored center off its piece")


WORKLOADS = {cls.name: cls for cls in (NumericGrid, QuadratureMoments, InverseExact)}


def failure_key(exc: BaseException) -> str:
    """``layer:ErrorType`` of a failed operation, for per-layer failure counts."""
    if isinstance(exc, GateViolation):
        return f"{exc.step}:GateViolation"
    layer = "benchmark"
    tb = exc.__traceback__
    while tb is not None:
        module = tb.tb_frame.f_globals.get("__name__", "")
        if module.startswith("berezin."):
            layer = module.removeprefix("berezin.")
        tb = tb.tb_next
    return f"{layer}:{type(exc).__name__}"

