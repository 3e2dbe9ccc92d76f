"""Layer spans recorded from outside the package.

:func:`install` replaces each traced function with a wrapper, on its home
module and wherever a ``from ... import`` bound it in another ``berezin``
module, and on the class for methods. A wrapper records a span (name,
start, end, parent span, operation id, error type, counts) only while an
operation or the set-up is open, so reference values computed around the
timed region leave no trace. Spans stay in memory until :meth:`Tracer.dump`.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time

import numpy as np

#: Operation id under which the process set-up is recorded.
SETUP = -1


def _size(x) -> int:
    return int(np.size(x))


def _freeze(obj):
    """Hashable stand-in for an argument, to recognise repeated calls."""
    if isinstance(obj, np.ndarray):
        return (obj.shape, obj.tobytes())
    if hasattr(obj, "__dataclass_fields__"):
        return (type(obj).__name__,) + tuple(
            _freeze(getattr(obj, f)) for f in obj.__dataclass_fields__)
    if isinstance(obj, (tuple, list)):
        return tuple(_freeze(v) for v in obj)
    if isinstance(obj, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in obj.items()))
    return obj


def _kernel_counts(args, kwargs, result):
    pairs = _size(args[0]) * _size(args[1])
    return {"pairs": pairs, "bytes_out": 8 * pairs}


def _numeric_counts(args, kwargs, result):
    return {"points": _size(args[1] if len(args) > 1 else kwargs["z"])}


def _recover_counts(args, kwargs, result):
    return {"iterations": int(result.iterations)}


def _fit_counts(args, kwargs, result):
    grid, nodes = args[0], args[1] if len(args) > 1 else kwargs["nodes"]
    t = kwargs.get("truncation")
    t = max(grid.truncation) if t is None else t
    return {"design_cells": (t + 1) ** 2 * (3 * len(nodes) + 2 * t + 1)}


#: Traced callables as ``(module, attribute path, count hook)``.
TARGETS = (
    ("berezin.cli", "main", None),
    ("berezin._kernels", "kernel_matrix", _kernel_counts),
    ("berezin._kernels", "poly_eval_many", None),
    ("berezin._kernels", "bidegree_eval_many", None),
    ("berezin.quadrature", "berezin_numeric", _numeric_counts),
    ("berezin.quadrature", "singular_nodes", None),
    ("berezin.symbols", "Atom.eval", None),
    ("berezin.rank", "weighted_monomial_moments", None),
    ("berezin.rank", "moment_matrix", None),
    ("berezin.rank", "calibrated_orientation", None),
    ("berezin.rank", "numerical_rank", None),
    ("berezin.recovery", "recover_nodes", _recover_counts),
    ("berezin.recovery", "fit_node_form", _fit_counts),
    ("berezin.recovery", "decompose_form", None),
    ("berezin.recovery", "factor_rank_one", None),
    ("berezin.transform", "node_form_transform", None),
    ("berezin.transform", "symbol_transform", None),
    ("berezin.transform", "product_grid", None),
    ("berezin.core", "mobius_power_series", None),
)

#: Span fields, in the order each span tuple stores them.
FIELDS = ("name", "start", "end", "parent", "op", "error", "counts", "key")


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self.missing: list[str] = []

    def begin(self, op: int):
        self._op = op

    def end(self):
        self._op = None

    def wrap(self, name: str, fn, counts=None, keyed=False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            key = hash(_freeze((args, kwargs))) if keyed else None
            self.spans.append(None)
            self._stack.append(index)
            error, result = None, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                extra = counts(args, kwargs, result) if counts and error is None else {}
                self.spans[index] = (name, start, end, parent, self._op, error, extra, key)
        return traced

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(FIELDS, span))) + "\n")


def _noop():
    return None


def span_cost(calls: int = 20000) -> float:
    """Seconds one recorded span adds to a call, measured on a no-op."""
    probe = Tracer()
    probe.begin(0)
    traced = probe.wrap("noop", _noop)
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    middle = time.perf_counter()
    for _ in range(calls):
        _noop()
    end = time.perf_counter()
    return max(0.0, ((middle - start) - (end - middle)) / calls)


def install(tracer: Tracer):
    """Wrap every target that exists; record the ones that do not."""
    for module_name, path, counts in TARGETS:
        module = importlib.import_module(module_name)
        owner_path, _, attr = path.rpartition(".")
        owner = module
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        # metric names start with a letter, so ``_kernels`` is named ``kernels``
        name = f"{module_name.removeprefix('berezin.').lstrip('_')}.{path}"
        if original is None:
            tracer.missing.append(name)
            continue
        wrapper = tracer.wrap(name, original, counts, keyed=attr == "singular_nodes")
        if owner is not module:
            setattr(owner, attr, wrapper)
            continue
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").partition(".")[0] != "berezin":
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, wrapper)


def layer_metrics(spans, ops: int, first_round: int) -> dict[str, float]:
    """Per-layer figures from recorded spans.

    ``*.self_s`` is a layer's self time (span duration minus its child
    spans) per operation, over every operation of the run. The calibration
    runs once, in set-up, so ``rank.calibrated_orientation`` reports its
    process totals instead: ``self_s`` and ``total_s``, which includes the
    quadrature it runs. Counts and shares cover the first round
    (operation ids below ``first_round``), which every run completes, so
    they repeat exactly for a seed.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            child_time[parent] += end - start
    self_time: dict[str, float] = {}
    setup_self: dict[str, float] = {}
    calls: dict[str, int] = {}
    failed: dict[str, int] = {}
    totals: dict[tuple[str, str], int] = {}
    seen, reused = set(), 0
    points = 0
    for i, (name, start, end, parent, op, error, counts, key) in enumerate(spans):
        own = end - start - child_time[i]
        target = setup_self if op == SETUP else self_time
        target[name] = target.get(name, 0.0) + own
        if name == "quadrature.singular_nodes":
            if 0 <= op < first_round and key in seen:
                reused += 1
            seen.add(key)
        if not 0 <= op < first_round:
            continue
        calls[name] = calls.get(name, 0) + 1
        if error is not None:
            failed[name] = failed.get(name, 0) + 1
        for k, v in counts.items():
            totals[name, k] = totals.get((name, k), 0) + v
        if name == "quadrature.berezin_numeric" and error is None:
            points += counts["points"]

    def per_op(name):
        return self_time.get(name, 0.0) / ops

    sn_calls = calls.get("quadrature.singular_nodes", 0)
    pairs = totals.get(("kernels.kernel_matrix", "pairs"), 0)
    out = {
        "kernels.kernel_matrix.self_s": per_op("kernels.kernel_matrix"),
        "kernels.kernel_matrix.calls": calls.get("kernels.kernel_matrix", 0),
        "kernels.kernel_matrix.pairs": pairs,
        "kernels.kernel_matrix.bytes_out": totals.get(("kernels.kernel_matrix", "bytes_out"), 0),
        "kernels.poly_eval_many.self_s": per_op("kernels.poly_eval_many"),
        "kernels.bidegree_eval_many.self_s": per_op("kernels.bidegree_eval_many"),
        "quadrature.berezin_numeric.self_s": per_op("quadrature.berezin_numeric"),
        # kernel_matrix runs only inside berezin_numeric, once per point and
        # contracted node (base rule, fine and coarse sets)
        "quadrature.nodes_per_point": pairs / points if points else 0.0,
        "quadrature.singular_nodes.self_s": per_op("quadrature.singular_nodes"),
        "quadrature.singular_nodes.calls": sn_calls,
        "quadrature.singular_nodes.reuse_share": reused / sn_calls if sn_calls else 0.0,
        "symbols.Atom.eval.self_s": per_op("symbols.Atom.eval"),
        "rank.weighted_monomial_moments.self_s": per_op("rank.weighted_monomial_moments"),
        "rank.moment_matrix.self_s": per_op("rank.moment_matrix"),
        "rank.calibrated_orientation.self_s": (
            self_time.get("rank.calibrated_orientation", 0.0)
            + setup_self.get("rank.calibrated_orientation", 0.0)),
        "rank.calibrated_orientation.total_s": sum(
            end - start for name, start, end, *_ in spans
            if name == "rank.calibrated_orientation"),
        "rank.numerical_rank.self_s": per_op("rank.numerical_rank"),
        "rank.numerical_rank.calls": calls.get("rank.numerical_rank", 0),
        "recovery.recover_nodes.self_s": per_op("recovery.recover_nodes"),
        "recovery.recover_nodes.iterations": totals.get(("recovery.recover_nodes", "iterations"), 0),
        "recovery.recover_nodes.failed": failed.get("recovery.recover_nodes", 0),
        "recovery.fit_node_form.self_s": per_op("recovery.fit_node_form"),
        "recovery.fit_node_form.design_cells": totals.get(("recovery.fit_node_form", "design_cells"), 0),
        "recovery.decompose_form.self_s": per_op("recovery.decompose_form"),
        "recovery.factor_rank_one.self_s": per_op("recovery.factor_rank_one"),
        "recovery.factor_rank_one.failed": failed.get("recovery.factor_rank_one", 0),
        "transform.node_form_transform.self_s": per_op("transform.node_form_transform"),
        "transform.symbol_transform.self_s": per_op("transform.symbol_transform"),
        "transform.product_grid.self_s": per_op("transform.product_grid"),
        "transform.product_grid.calls": calls.get("transform.product_grid", 0),
        "core.mobius_power_series.self_s": per_op("core.mobius_power_series"),
        "core.mobius_power_series.calls": calls.get("core.mobius_power_series", 0),
        "cli.main.self_s": per_op("cli.main"),
    }
    return out

