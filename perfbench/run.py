"""Benchmark of the berezin package: three workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload numeric_grid --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload in turn. Each workload runs in a
fresh worker process (``perfbench/worker.py``) that imports the package
from ``src``, finishes its lazy set-up, then runs whole rounds of
operations until ``--seconds`` of operation time have passed, checking
every output against the package's contract tolerances.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``setup_s``: the shortest time from spawn to ready (``import
  berezin.cli`` plus the workload's lazy set-up) over seven fresh
  processes: two set-up-only ones before the measured worker, the worker
  itself, two while it pauses between rounds and two after it. The
  minimum over probes spread across the run is the figure a slow spell of
  a shared machine moves least;
* ``ops_per_s``: median over rounds of gate-passing operations per second
  of operation time;
* ``op_p50_s`` and ``op_tail_s``: the median operation time and the
  highest percentile with ten samples beyond it (the slowest operation
  when that percentile would fall below the median, that is with fewer
  than twenty operations; the ``meta`` line names the percentile);
* ``peak_rss_mb``: peak resident memory of the worker, in 10^6 bytes;
* ``passed_share``: gate-passing over attempted operations, the
  complement of the failed share, so that it is never zero.

With ``--trace 1`` a traced worker reports per-layer figures from spans
recorded around the package's functions (see ``spans.py``), plus
cumulative import times from ``python -X importtime``. The ``meta`` line
gives each layer's share of the operation time. ``trace.overhead_share``
is the recorded span count times the measured cost of one span, over the
operation time: comparing a traced with an untraced run instead measured
noise (-13% to -6%) on a shared 2-vCPU machine.

Every run prints one line per metric (name, value, unit, sample count), a
``meta`` line (commit, source digest, machine and library versions,
failures by layer) and, last, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 when every
operation passed its gate, 1 when any failed, and 2 when the benchmark
could not run (no package in ``src``, a worker crashed, or the metric
names differ from those declared in ``BENCHMARK.json``).
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("numeric_grid", "quadrature_moments", "inverse_exact")

#: Fresh set-up-only processes before and after the measured worker, and
#: the number of pauses between its rounds in which one more is run.
#: ``setup_s`` is the minimum over them and the worker's own set-up.
SETUP_PROBES = 2
SETUP_PAUSES = 2

#: ``python -X importtime`` processes per traced run; medians are reported.
IMPORT_PROBES = 3
IMPORT_MODULES = ("berezin.core", "berezin.quadrature", "berezin.rank",
                  "berezin.recovery", "berezin.cli", "scipy.signal")

#: ``op_tail_s`` is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10

#: Longest a worker may take after its set-up before the run is abandoned.
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark itself could not produce a result."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def _worker(workload: str, seed: int, seconds: float, mode: str, extra=None,
            on_pause=None):
    """Spawn one worker; return (seconds from spawn to ready, its result).

    ``extra`` is the worker's fifth argument (the spans file of a traced
    worker, the pause count of a running one). Each time the worker pauses
    between rounds, ``on_pause`` runs before it is told to go on.
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
           str(seconds), mode] + ([str(extra)] if extra is not None else [])
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, text=True) as proc:
        first = proc.stdout.readline()
        ready = time.perf_counter()
        watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            lines = []
            for line in proc.stdout:
                if line.strip() != "pause":
                    lines.append(line)
                    continue
                on_pause()
                proc.stdin.write("go\n")
                proc.stdin.flush()
        finally:
            watchdog.cancel()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{workload} worker ({mode}) exited with {proc.returncode}")
    if mode == "probe":
        return ready - start, None
    return ready - start, json.loads(lines[-1])


def _tail(times):
    """Highest percentile with TAIL_BEYOND samples beyond it, and that
    percentile; the slowest operation (100) when that percentile would fall
    below the median, as it does with fewer than 2 * TAIL_BEYOND samples."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _rate(rounds) -> float:
    """Median over rounds of gate-passing operations per second of op time."""
    return statistics.median(passed / seconds for passed, seconds in rounds)


def _import_times() -> dict:
    runs = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import berezin.cli"],
            cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError("import of berezin.cli failed")
        cumulative = {}
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative.setdefault(fields[2].strip(), int(fields[1]) / 1e6)
        runs.append(cumulative)
    return {f"import.{m}_s": statistics.median(r.get(m, 0.0) for r in runs)
            for m in IMPORT_MODULES}


def _git_commit():
    try:
        proc = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse",
                               "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    package = os.path.join(SRC, "berezin")
    for base, dirs, files in sorted(os.walk(package)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def _end_to_end(workload, seed, seconds):
    """Untraced worker plus set-up probes: the end-to-end metrics."""
    def probe():
        setups.append(_worker(workload, seed, seconds, "probe")[0])

    setups = []
    for _ in range(SETUP_PROBES):
        probe()
    worker_setup, result = _worker(workload, seed, seconds, "run", SETUP_PAUSES, probe)
    setups.append(worker_setup)
    for _ in range(SETUP_PROBES):
        probe()
    times = result["times_s"]
    tail, pct = _tail(times)
    metrics = {
        "setup_s": (min(setups), "s", len(setups)),
        "ops_per_s": (_rate(result["rounds"]), "1/s", len(result["rounds"])),
        "op_p50_s": (statistics.median(times), "s", len(times)),
        "op_tail_s": (tail, "s", len(times)),
        "peak_rss_mb": (result["peak_rss_kib"] * 1024 / 1e6, "MB", 1),
        "passed_share": (result["passed"] / result["attempted"], "ratio", len(times)),
    }
    notes = {"op_tail_percentile": pct, "rounds": len(result["rounds"]),
             "setup_samples_s": setups}
    return result, metrics, notes


def _per_layer(workload, seed, seconds):
    """Traced worker plus import probes: the per-layer metrics."""
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.jsonl")
    _, traced = _worker(workload, seed, seconds, "trace", spans_path)
    ops = len(traced["times_s"])
    metrics = {}
    for name, value in traced["layers"].items():
        unit = ("s" if name.endswith("_s") else "B" if name.endswith("bytes_out")
                else "ratio" if name.endswith("_share") else "count")
        if name.startswith("rank.calibrated_orientation"):
            samples = 1  # totals of the one calibration in set-up
        elif name.endswith(("self_s", "overhead_share")):
            samples = ops
        else:
            samples = traced["round_size"]
        metrics[name] = (value, unit, samples)
    for name, value in _import_times().items():
        metrics[name] = (value, "s", IMPORT_PROBES)
    mean_op = traced["timed_s"] / ops
    split = {name.removesuffix(".self_s"): round(value / mean_op, 4)
             for name, value in traced["layers"].items()
             if name.endswith(".self_s") and value >= 0.01 * mean_op
             and not name.startswith("rank.calibrated_orientation")}  # a set-up total
    notes = {"op_time_share": dict(sorted(split.items(), key=lambda kv: -kv[1])),
             "traced_ops_per_s": _rate(traced["rounds"]),
             "untraced_layers": traced["untraced_layers"], "spans": spans_path}
    return traced, metrics, notes


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _declared(trace: bool) -> dict:
    return {m["name"]: m["unit"] for m in _spec()["per_layer" if trace else "end_to_end"]}


def run_workload(workload, seed, seconds, trace):
    """Run one workload; print its metric lines; return its result object."""
    measure = _per_layer if trace else _end_to_end
    result, metrics, notes = measure(workload, seed, seconds)
    declared = _declared(trace)
    produced = {name: unit for name, (_, unit, _) in metrics.items()}
    if produced != declared:
        raise BenchError(f"metrics differ from BENCHMARK.json: produced {sorted(produced)}, "
                         f"declared {sorted(declared)}")
    for name, (value, unit, samples) in metrics.items():
        print(f"{workload:18s} {name:42s} {value:14.6g} {unit:6s} n={samples}")
    meta = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "commit": _git_commit(), "source_sha256": _source_digest(),
            "nproc": len(os.sched_getaffinity(0)), **result["meta"],
            "failures": result["failures"], **notes}
    print("meta " + json.dumps(meta))
    failed = result["attempted"] - result["passed"]
    return {
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="operation time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "berezin", "__init__.py")):
        print(f"no berezin package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(_spec()["run_seconds"])
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
