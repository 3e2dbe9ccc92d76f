"""One measured process: set up, run whole rounds of one workload, report.

Usage: ``python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE [EXTRA]``
with ``src`` on ``PYTHONPATH``. ``MODE`` is ``probe`` (set up, then exit),
``run`` (``EXTRA`` is a pause count) or ``trace`` (``EXTRA`` is the spans
file). The process prints ``ready`` as soon as its set-up is done, so the
parent can time it from spawn, and ends with one JSON line. Only whole
rounds are run; a new round starts while fewer than ``SECONDS`` of
operation time have passed. A running worker pauses that many times, at
even shares of ``SECONDS``, between rounds: it prints ``pause`` and waits
for a line on its standard input, so the parent can time a set-up probe
on an otherwise idle process.
"""
import sys
import time

import berezin.cli  # noqa: F401  (the program's own set-up is what is timed)

import contextlib
import ctypes
import importlib.metadata
import json
import os
import resource
import shutil
import traceback

import numpy as np

import berezin
import spans
import workloads

#: A run starts no new round after this much wall time, to end well inside
#: the three minutes one run may take.
WALL_LIMIT_S = 120.0


def _blas_threads():
    """OpenBLAS thread count from the loaded library, or None if unknown."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _pause():
    print("pause", flush=True)
    sys.stdin.readline()


def _metadata():
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy_version,
        "openblas_threads": _blas_threads(),
        "kernel_impl": getattr(berezin, "KERNEL_IMPL", None),
    }


def main(argv):
    name, seed, seconds, mode = argv[:4]
    seed, seconds = int(seed), float(seconds)
    tracer = None
    if mode == "trace":
        tracer = spans.Tracer()
        spans.install(tracer)
        tracer.begin(spans.SETUP)
    workdir = os.path.join(os.getcwd(), ".perfbench_tmp", str(os.getpid()))
    workload = workloads.WORKLOADS[name](seed, workdir)
    workload.setup()
    if tracer:
        tracer.end()
    print("ready", flush=True)
    if mode == "probe":
        return 0

    os.makedirs(workdir, exist_ok=True)
    times, failures, passed = [], {}, 0
    timed = 0.0
    wall_start = time.perf_counter()
    rounds = []
    pauses = int(argv[4]) if mode == "run" else 0
    pause_at = [seconds * (k + 1) / (pauses + 1) for k in range(pauses)]
    while timed < seconds and time.perf_counter() - wall_start < WALL_LIMIT_S:
        round_passed, round_start = passed, timed
        for op in workload.next_round():
            if tracer:
                tracer.begin(op.index)
            start = time.perf_counter()
            try:
                out = workload.run(op)
            except Exception as exc:  # a failed operation is counted, not fatal
                out, failure = None, exc
                traceback.print_exc()
            elapsed = time.perf_counter() - start
            if tracer:
                tracer.end()
            times.append(elapsed)
            timed += elapsed
            if out is not None:
                try:
                    workload.check(op, out)
                    passed += 1
                    continue
                except workloads.GateViolation as exc:
                    failure = exc
            key = workloads.failure_key(failure)
            failures[key] = failures.get(key, 0) + 1
            print(f"failed op {op.index} (size {op.size}): {key}: {failure}", file=sys.stderr)
        rounds.append((passed - round_passed, timed - round_start))
        while pause_at and timed >= pause_at[0]:
            pause_at.pop(0)
            _pause()
    for _ in pause_at:  # a run cut by the wall limit still pauses every time
        _pause()
    shutil.rmtree(workdir)
    with contextlib.suppress(OSError):
        os.rmdir(os.path.dirname(workdir))

    result = {
        "attempted": len(times),
        "passed": passed,
        "failures": failures,
        "timed_s": timed,
        "times_s": times,
        "round_size": len(workload.sizes),
        "rounds": rounds,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "meta": _metadata(),
    }
    if tracer:
        tracer.dump(argv[4])
        result["layers"] = spans.layer_metrics(tracer.spans, len(times), len(workload.sizes))
        op_spans = sum(1 for span in tracer.spans if span[4] >= 0)
        result["layers"]["trace.overhead_share"] = op_spans * spans.span_cost() / timed
        result["untraced_layers"] = tracer.missing
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
