#!/usr/bin/env python3
"""paraself benchmark: one closed-loop client runs one workload and prints
its metrics.

    python3 bench/run.py --workload cli-session --seed 1 --seconds 30 --trace 0

Run it from the root of a paraself checkout (it needs ``src/paraself``).
The client repeats whole cycles of the workload's operations until the time
spent in operations reaches ``--seconds`` (or for ``--cycles`` cycles), checks
every output, and prints a record line followed by the result line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` installs span wrappers around every layer
and reports the per-layer metrics instead.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

WORKLOAD_NAMES = ("cli-session", "library-certify", "percopy-files")
IN_PROCESS = ("library-certify",)   # its import is timed here, before numpy loads
SETUP_REPEATS = 5
IMPORT_PROBES = 3
TAIL_MIN_SAMPLES = 40

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_s", "s"), ("peak_rss_mb", "MB"))

# Per-layer metrics, all per attempted operation unless noted.
COMMANDS = ("simulate", "certify", "sweep", "bounds")          # mean seconds per command
SELF_TIMES = (
    "cli.json_dumps", "cli.json_loads",
    "bell.table_to_json_dict", "bell.table_from_json_dict",
    "bell.conditional_slice", "bell.j_value", "bell.generalized_j_value",
    "bell.averaged_j_percopy", "strategies.tilted_chsh_reference",
    "certify.certify_theorem1", "certify.certify_theorem2",
    "certify.certify_theorem3", "certify.certify_theorem4", "certify.sweep_noise",
    "strategies.single_copy_table", "qcore.born_probability", "strategies.compose",
)
CALL_COUNTS = (
    "bell.conditional_slice", "bell.copy_marginal", "bell.averaged_j_percopy",
    "bell.bell_operator", "strategies.single_copy_table", "qcore.born_probability",
    "qcore.max_eigenvalue",
)
COMPUTED_MB = {                                                 # from counters, not timed
    "bell.kernel_read_mb": "bell.kernel_read_bytes",
    "strategies.compose.table_mb": "strategies.compose.table_bytes",
}


def per_layer_names() -> list:
    """``(name, unit)`` of every per-layer metric, in report order."""
    names = [("cli.import_s", "s")]
    names += [(f"cli.{c}_s", "s") for c in COMMANDS]
    names += [("cli.table_file_mb", "MB")]
    names += [(f"{n}.self_s", "s") for n in SELF_TIMES]
    names += [(f"{n}.calls", "count") for n in CALL_COUNTS]
    names += [(n, "MB") for n in COMPUTED_MB]
    return names


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="time spent in operations before the run stops at the end of a cycle")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--cycles", type=int, default=None,
                   help="run exactly this many cycles instead (short mode for tests)")
    return p.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "seed": seed,
    }


def import_probe(ctx) -> float:
    """Median seconds a fresh interpreter spends importing ``paraself.cli``."""
    code = ("import time; t = time.perf_counter(); import paraself.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_PROBES):
        proc = ctx.python("-c", code)
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout))
    return statistics.median(samples)


def per_layer_metrics(stats: dict, counters: dict, ops: int, table_bytes: int,
                      import_s: float) -> dict:
    def stat(name, key):
        return stats.get(name, {}).get(key, 0)

    values = {"cli.import_s": import_s}
    for c in COMMANDS:
        calls = stat(f"cli.{c}", "calls")
        values[f"cli.{c}_s"] = stat(f"cli.{c}", "total_s") / calls if calls else 0.0
    values["cli.table_file_mb"] = table_bytes / 1e6 / ops
    for n in SELF_TIMES:
        values[f"{n}.self_s"] = stat(n, "self_s") / ops
    for n in CALL_COUNTS:
        values[f"{n}.calls"] = stat(n, "calls") / ops
    for metric, counter in COMPUTED_MB.items():
        values[metric] = counters.get(counter, 0) / 1e6 / ops
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()}


def tail(latencies: list) -> dict | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(latencies)
    if n < TAIL_MIN_SAMPLES:
        return None
    ordered = sorted(latencies)
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n}


def run_cycles(workload, seconds: float, max_cycles: int | None):
    """Run whole cycles until the time inside operations reaches ``seconds``
    (or ``max_cycles`` cycles).  Returns the latencies of each cycle, the
    attempted and failed counts of each operation kind, and the first failure
    of each kind as ``(kind, message)``."""
    import checks

    failures = []
    cycles: list[list[float]] = []
    kinds: dict[str, dict] = {}
    busy = 0.0
    while (len(cycles) < max_cycles) if max_cycles else (busy < seconds):
        latencies = []
        for op in workload.cycle():
            start = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a crash or hang of the program fails the operation
                out = exc
            latencies.append(time.perf_counter() - start)
            message = None
            if isinstance(out, Exception):
                message = f"raised {type(out).__name__}: {out}"
            else:
                try:
                    op.check(out)
                except (checks.CheckError, ValueError, LookupError, TypeError, OSError) as exc:
                    message = f"{type(exc).__name__}: {exc}"
            counts = kinds.setdefault(op.kind, {"attempted": 0, "failed": 0, "latency_s": []})
            counts["attempted"] += 1
            counts["latency_s"].append(latencies[-1])
            if message is not None:
                counts["failed"] += 1
                if counts["failed"] == 1:
                    failures.append((op.kind, message))
        cycles.append(latencies)
        busy += sum(latencies)
    for counts in kinds.values():
        counts["p50_s"] = statistics.median(counts.pop("latency_s"))
    return cycles, kinds, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "paraself" / "__init__.py").is_file():
        print("error: src/paraself not found; run from the root of a paraself checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    in_process = args.workload in IN_PROCESS
    import_s = 0.0
    if in_process:
        start = time.perf_counter()
        import paraself  # noqa: F401  (the import is part of set-up)
        import_s = time.perf_counter() - start

    import checks
    import tracing
    import workloads

    work = root / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = workloads.Context(root=root, work=work, rng=random.Random(args.seed),
                            trace=bool(args.trace))
    workload = workloads.WORKLOADS[args.workload](ctx)
    tracer = None
    if args.trace and in_process:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
    failures = []
    try:
        workload.verify_setup()
    except checks.CheckError as exc:
        failures.append(("setup", str(exc)))

    cycles, kinds, op_failures = run_cycles(workload, args.seconds, args.cycles)
    failures += op_failures

    latencies = [x for c in cycles for x in c]
    attempted = len(latencies)
    failed = sum(k["failed"] for k in kinds.values())
    usage = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    end_to_end = {
        "setup_s": import_s + statistics.median(setup_times),
        "ops_per_s": len(cycles[0]) / statistics.median(sum(c) for c in cycles),
        "op_p50_s": statistics.median(statistics.median(c) for c in cycles),
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
    }
    correct = all(kind in workloads.KNOWN_FAULTS for kind, _ in failures)

    if args.trace:
        spans = list(ctx.span_files)
        if tracer is not None:
            spans.append(work / "spans-main.npz")
            tracer.write(spans[-1])
        stats, counters = tracing.summarize(p for p in spans if p.exists())
        metrics = per_layer_metrics(stats, counters, attempted, ctx.table_bytes, import_probe(ctx))
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "params": workload.params,
        "environment": environment(args.seed),
        "seconds_in_operations": sum(latencies),
        "cycles": len(cycles),
        "cycle_s": [sum(c) for c in cycles],
        "setup_samples_s": setup_times,
        "import_s": import_s,
        "end_to_end": end_to_end,
        "op_tail_s": tail(latencies),
        "operations": kinds,
        "failures": [{"kind": k, "message": m, "known_fault": workloads.KNOWN_FAULTS.get(k)}
                     for k, m in failures],
        "computed_metrics": sorted(COMPUTED_MB),
    }
    shutil.rmtree(work / "tables", ignore_errors=True)
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
