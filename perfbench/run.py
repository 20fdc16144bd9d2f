"""End-to-end benchmark of the ISDC reproduction, timed layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload isdc-table1 --seed 1 --seconds 25 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``isdc-table1`` -- the paper's ISDC loop on six Table-I rows and four
  seeded ``gen:`` designs (closed loop, one caller);
* ``dse-minclock`` -- minimum-clock searches on four Table-I rows and two
  seeded ``gen:`` designs (closed loop, one caller);
* ``serve-replay`` -- open-loop ``schedule`` traffic to an in-process
  scheduling service (fixed rate, then a rate sweep).

With ``--trace 0`` the run prints the end-to-end metrics; set-up time is
the median of :data:`SETUP_SAMPLES` fresh processes that set up exactly as
this one does.  With ``--trace 1`` it wraps the library's layer functions
(:mod:`layers`), alternates untraced and traced passes, and prints the
per-layer metrics; spans are written to ``.perfbench/`` at the end.
Every op's output is checked, and the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import importlib
import json
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import layers
from common import peak_rss_mb
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent

#: Workload name -> (module, class).
WORKLOADS = {
    "isdc-table1": ("isdc_table1", "IsdcTable1"),
    "dse-minclock": ("dse_minclock", "DseMinClock"),
    "serve-replay": ("serve_replay", "ServeReplay"),
}

#: End-to-end metrics, printed by every ``--trace 0`` run: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
    "op_s": "s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "max_rps": "1/s",
}

#: Per-layer metrics, printed by every ``--trace 1`` run: name -> unit.
#: A layer the workload does not reach reads 0.
PER_LAYER = {
    "netlist.lower_s": "s", "netlist.optimize_s": "s", "netlist.sta_s": "s",
    "netlist.gates_in": "count", "netlist.gates_out": "count",
    "kernel.view_builds": "count", "kernel.view_s": "s",
    "synth.evaluate_calls": "count", "synth.cache_hit_ratio": "ratio",
    "sdc.report_s": "s",
    "sdc.delays_s": "s", "sdc.build_s": "s", "sdc.assemble_s": "s",
    "sdc.lp_s": "s", "sdc.lp_calls": "count", "sdc.rebase_s": "s",
    "sdc.solve_s": "s",
    "isdc.extract_s": "s", "isdc.subgraphs": "count",
    "isdc.feedback_s": "s", "isdc.propagate_s": "s",
    "isdc.iterations": "count", "isdc.registers": "count",
    "dse.probes": "count", "dse.probe_s": "s", "dse.context_s": "s",
    "dse.warm_hit_ratio": "ratio", "dse.lp_rebuilds": "count",
    "dse.patched_solves": "count", "dse.min_clock_ps": "ps",
    "service.warm_hits": "count", "service.coalesced": "count",
    "service.cold": "count", "service.batches": "count",
    "service.mean_batch": "count", "service.rejected": "count",
    "service.warm_p50_ms": "ms", "service.cold_p50_ms": "ms",
    "service.late_p99_ms": "ms",
    "store.put_calls": "count", "store.put_s": "s",
    "setup.import_s": "s", "setup.pool_s": "s",
    "trace.coverage": "ratio", "trace.overhead": "ratio",
}

#: Fresh processes whose set-up time gives the median ``setup_s``.
SETUP_SAMPLES = 3
READY = "perfbench-setup-ready"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the measured passes may run")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="one small design per workload (smoke test)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_workload(name: str):
    """Import the workload module (and with it the library) from ``src/``.

    Raises:
        ImportError: the library is missing from this checkout's ``src/``
            (an installed copy elsewhere does not count).
    """
    source = ROOT / "src"
    sys.path.insert(0, str(source))
    module_name, class_name = WORKLOADS[name]
    workload = getattr(importlib.import_module(module_name), class_name)
    library = Path(sys.modules["repro"].__file__).resolve()
    if source not in library.parents:
        raise ImportError(f"repro was imported from {library}, not {source}")
    return workload


def setup_seconds(args: argparse.Namespace) -> list[float]:
    """Wall time fresh processes take to set up, start to ready line."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0", "--setup-only"]
    if args.smoke:
        command.append("--smoke")
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        ready = None
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as child:
            for line in child.stdout:
                if ready is None and line.strip() == READY:
                    ready = time.perf_counter() - started
            code = child.wait(timeout=60)
        if code != 0 or ready is None:
            raise RuntimeError(f"set-up process exited {code} before it "
                               "was ready")
        samples.append(ready)
    return samples


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    try:
        workload_type = import_workload(args.workload)
    except ImportError as error:
        print(f"perfbench: cannot import the library from {ROOT / 'src'}: "
              f"{error}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - started
    workload = workload_type(args.seed, smoke=args.smoke)
    if args.setup_only:
        workload.setup_only(lambda: print(READY, flush=True))
        workload.close()
        return 0
    try:
        return report(args, workload, import_s)
    finally:
        workload.close()


def report(args: argparse.Namespace, workload, import_s: float) -> int:
    """Measure, check and print; returns the exit code."""
    tracer = Tracer()
    expected = layers.install(tracer) if args.trace else {}
    setup = [] if args.trace else setup_seconds(args)
    try:
        measurement = workload.measure(args.seconds, tracer, bool(args.trace))
    finally:
        tracer.restore()
    problems = list(measurement.problems)
    problems += [f"{op.name}: {'; '.join(op.problems)}"
                 for op in measurement.ops if op.problems]
    problems += check_digest(args, measurement.digest)

    attempted = len(measurement.ops)
    failed = sum(1 for op in measurement.ops if op.failed)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} ops, {failed} failed, digest {measurement.digest}")
    for table in measurement.tables:
        print(table)
    errors = Counter(op.error for op in measurement.ops if op.error)
    for error, count in errors.items():
        print(f"{count} ops raised {error}")

    if args.trace:
        unfired = layers.unfired_sites(tracer, expected, args.workload)
        problems += [f"traced site {site} never fired" for site in unfired]
        values = {name: 0.0 for name in PER_LAYER}
        values.update(layers.span_metrics(
            tracer, measurement.traced_s, max(1, measurement.traced_passes)))
        values.update(measurement.layers)
        values["setup.import_s"] = import_s
        values["trace.overhead"] = measurement.overhead
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
        spans_path = write_spans(args, tracer)
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        values = {"peak_rss_mb": peak_rss_mb()}
        values.update(measurement.metrics)
        values["setup_s"] = statistics.median(setup)
        values["ok_rate"] = ((attempted - failed) / attempted
                             if attempted else 0.0)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        print(f"fail_rate {failed / attempted if attempted else 0.0:.4f} "
              f"(base: {attempted} ops); latency samples "
              f"{attempted - failed}; set-up samples "
              + ", ".join(f"{sample:.3f}" for sample in setup))
    for name, entry in metrics.items():
        print(f"{args.workload:13s} {name:24s} {entry['value']:14.6g} "
              f"{entry['unit']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def code_version() -> str:
    """Hash of the library and benchmark sources this run executes."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"),
                        *Path(__file__).resolve().parent.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_digest(args: argparse.Namespace, digest: str) -> list[str]:
    """Compare the deterministic-value digest with earlier runs' digests.

    Runs of the same code, workload, seed and size in one checkout, traced
    or not, must agree on every deterministic value; the first run records
    the digest under ``.perfbench/`` and later runs are held to it.
    """
    directory = ROOT / ".perfbench"
    directory.mkdir(exist_ok=True)
    path = directory / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    key = (f"{code_version()}|{args.workload}|{args.seed}|{args.seconds:g}"
           f"|{args.smoke}")
    if known.setdefault(key, digest) != digest:
        return [f"deterministic values differ from an earlier run with the "
                f"same seed (digest {digest}, earlier {known[key]})"]
    path.write_text(json.dumps(known, indent=1, sort_keys=True))
    return []


def write_spans(args: argparse.Namespace, tracer) -> Path:
    """Write the recorded spans (gzip JSON) under ``.perfbench/``."""
    directory = ROOT / ".perfbench"
    directory.mkdir(exist_ok=True)
    path = directory / f"spans-{args.workload}-seed{args.seed}.json.gz"
    with gzip.open(path, "wt") as handle:
        json.dump(tracer.dump(), handle)
    return path


if __name__ == "__main__":
    sys.exit(main())
