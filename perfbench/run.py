"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload flow_tiny --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics on unmodified code.
``--trace 1`` alternates untraced and traced operations, prints the
per-layer inclusive/self-time table, the share of an operation's wall
time no named layer covers and the tracing overhead, and reports the
per-layer metrics.  ``--smoke`` shrinks every workload to ``tiny`` size
for the benchmark's own tests.  ``--record`` stores this run's output
records in ``expected.json`` as the reference later runs must match.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every earlier
line is for people: the host/provenance block, each metric by name and
unit, and (traced) the layer table.  Spans of a traced run are written
to ``perfbench/.work/`` when the run ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

#: Set-ups per run: at least SETUP_REPS and until SETUP_SECONDS have
#: passed, so a cheap set-up is repeated often; ``setup_s`` is their
#: median.
SETUP_REPS = 3
SETUP_SECONDS = 3.0

#: (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("patterns", "count"),
    ("test_coverage", "fraction"),
]

#: (name, unit) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = [
    ("soc.build_s", "s"),
    ("drc.gate_s", "s"),
    ("atpg.podem_primary_s", "s"),
    ("atpg.podem_primary_calls", "count"),
    ("atpg.podem_merge_s", "s"),
    ("atpg.podem_merge_calls", "count"),
    ("atpg.podem_backtracks", "count"),
    ("atpg.podem_decisions", "count"),
    ("atpg.merge_accept_ratio", "fraction"),
    ("atpg.primary_abort_ratio", "fraction"),
    ("atpg.fill_s", "s"),
    ("atpg.engine_self_s", "s"),
    ("atpg.fsim_drop_s", "s"),
    ("atpg.fsim_grade_s", "s"),
    ("atpg.fsim_fault_patterns", "count"),
    ("pgrid.calibrate_s", "s"),
    ("pgrid.dynamic_ir_s", "s"),
    ("power.scap_profile_s", "s"),
    ("power.scap_patterns", "count"),
    ("power.thresholds_s", "s"),
    ("power.static_bound_s", "s"),
    ("timing.prescreen_s", "s"),
    ("timing.pruned_endpoint_fraction", "fraction"),
    ("timing.patterns_resimulated", "count"),
    ("sim.ir_rescale_s", "s"),
    ("sched.schedule_s", "s"),
    ("sched.makespan_us", "us"),
    ("service.submit_s", "s"),
    ("service.queue_wait_s", "s"),
    ("service.shard_exec_s", "s"),
    ("service.shard_gap_s", "s"),
    ("service.http_requests", "count"),
    ("service.shard_retries", "count"),
    ("service.leases_expired", "count"),
    ("service.submits_rejected", "count"),
    ("trace.uncovered_fraction", "fraction"),
    ("trace.overhead_s", "s"),
]


def provenance(workload: str, seed: int, smoke: bool) -> Dict[str, Any]:
    """Host and source identity recorded with every result."""
    import numpy
    import scipy

    src = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "repro")):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                src.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    src.update(fh.read())
    return {
        "workload": workload,
        "seed": seed,
        "smoke": smoke,
        "usable_cpus": len(os.sched_getaffinity(0)),
        "total_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": git_revision(),
        "src_digest": src.hexdigest()[:16],
    }


def git_revision() -> Any:
    """HEAD's commit id read from ``.git`` (``None`` outside a clone)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def timed_setups(wl, workdir: str) -> Tuple[Any, List[float]]:
    """Set up repeatedly from scratch; keep the last state."""
    times: List[float] = []
    state = None
    while len(times) < SETUP_REPS or sum(times) < SETUP_SECONDS:
        if state is not None and hasattr(wl, "teardown"):
            wl.teardown(state)
        t0 = time.perf_counter()
        state = wl.setup(os.path.join(workdir, f"setup{len(times)}"))
        times.append(time.perf_counter() - t0)
    return state, times


def run_in_process(wl, state, seconds: float, trace: bool, out_dir: str):
    """Run one warm-up op, then ops until *seconds* of op time elapsed
    (traced runs alternate untraced and traced ops, at least one of
    each)."""
    from repro.perf.kernel_cache import use_kernel_cache
    from tracer import Tracer
    from workloads import install_probes

    tracer = Tracer()
    untraced: List[Any] = []
    traced: List[Tuple[Any, Dict[str, float], Dict, Dict]] = []
    failures: List[str] = []
    attempted = failed = 0
    busy = 0.0
    while True:
        attempted += 1
        # The first op warms lazy imports and first-call caches; it is
        # checked like any other but its time is not measured.
        warm_up = attempted == 1
        use_trace = trace and attempted % 2 == 0
        wall = 0.0
        try:
            with use_kernel_cache(state["cache"]):
                if use_trace:
                    install_probes(tracer)
                    try:
                        t0 = time.perf_counter()
                        out, root = tracer.op(lambda: wl.op(state))
                        wall = time.perf_counter() - t0
                    finally:
                        tracer.uninstall()
                else:
                    t0 = time.perf_counter()
                    out = wl.op(state)
                    wall = time.perf_counter() - t0
                errors = wl.check(state, out)
                # Keep only the record, so peak RSS is one op's, not the
                # sum of every op the run kept.
                out.extra.clear()
        except Exception:  # noqa: BLE001 - a failed op is counted
            errors = [traceback.format_exc()]
            wall = wall or time.perf_counter() - t0
        if not warm_up:
            busy += wall
        if errors:
            failed += 1
            failures.extend(errors)
        elif use_trace:
            names, layers = tracer.op_summary(root)
            traced.append((out, wall, names, layers))
        elif not warm_up:
            untraced.append((out, wall))
        if busy >= seconds and (
            not trace or (untraced and traced) or failed
        ):
            break
    if trace and tracer.spans:
        tracer.dump(os.path.join(out_dir, f"trace-{wl.key.replace('/', '-')}"
                                 ".jsonl"), {"workload": wl.key})
    return untraced, traced, attempted, failed, failures, busy


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def report_in_process(setup_times, untraced, traced, busy,
                      trace: bool) -> Dict[str, float]:
    from workloads import layer_metrics

    if not trace:
        return {
            "setup_s": median(setup_times),
            "wall_s": median(w for _, w in untraced),
            "ops_per_s": len(untraced) / busy if busy else 0.0,
            "peak_rss_mb": peak_rss_mb(),
            "patterns": median(o.patterns for o, _ in untraced),
            "test_coverage": median(o.test_coverage for o, _ in untraced),
        }
    if not traced:
        return {}
    per_op = [layer_metrics(names) for _, _, names, _ in traced]
    metrics = {name: median(m[name] for m in per_op) for name in per_op[0]}
    uncovered = [layers["op"]["self_s"] / wall
                 for _, wall, _, layers in traced]
    metrics["trace.uncovered_fraction"] = median(uncovered)
    metrics["trace.overhead_s"] = (
        median(w for _, w, _, _ in traced) - median(w for _, w in untraced)
    )
    print_layer_table(traced, untraced)
    return metrics


def print_layer_table(traced, untraced) -> None:
    """Per-layer and per-span inclusive/self table of the median op."""
    walls = sorted(traced, key=lambda t: t[1])
    _, wall, names, layers = walls[len(walls) // 2]
    print(f"traced op wall {wall:.4f} s "
          f"(untraced median {median(w for _, w in untraced):.4f} s)")
    print(f"{'layer / span':32s} {'calls':>8s} {'incl_s':>10s} "
          f"{'self_s':>10s} {'self%':>7s}")
    for layer, agg in sorted(layers.items(),
                             key=lambda kv: -kv[1]["self_s"]):
        label = "(uncovered: op self)" if layer == "op" else layer
        print(f"{label:32s} {'':>8s} {agg['incl_s']:10.4f} "
              f"{agg['self_s']:10.4f} {100 * agg['self_s'] / wall:6.2f}%")
        for name, row in sorted(names.items()):
            if name.split(".", 1)[0] == layer and name != "op":
                print(f"  {name:30s} {int(row['calls']):8d} "
                      f"{row['incl_s']:10.4f} {row['self_s']:10.4f}")
    print(f"uncovered share of wall_s: "
          f"{100 * layers['op']['self_s'] / wall:.2f}%")


def run_service(wl, state, seconds: float, trace: bool):
    scrape_s = 0.0
    try:
        # Warm-up: one checked job per client before the window, so the
        # workers' first-job costs fall outside it.
        warm, _ = wl.run_window(state, seconds, jobs_per_client=1)
        records, window = wl.run_window(state, seconds)
        if trace:
            t0 = time.perf_counter()
            counters = wl.scrape_metrics(state)
            scrape_s = time.perf_counter() - t0
    finally:
        # Stops the server and the fleet and waits for every worker.
        wl.teardown(state)
    mismatched = wl.reference_check(state)
    failures = []
    for rec in warm + records:
        error = rec.error or mismatched.get(rec.spec_index, "")
        if error:
            failures.append(f"job (spec {rec.spec_index}): {error}")
    good = [r for r in records
            if not (r.error or mismatched.get(r.spec_index))]
    metrics: Dict[str, float] = {}
    if not trace:
        metrics = {
            "wall_s": median([r.latency_s for r in good]),
            "ops_per_s": len(good) / window if window else 0.0,
        }
    else:
        split = [r for r in good if r.queue_wait_s is not None]
        covered = [(r.submit_s + r.queue_wait_s + r.exec_s + r.gap_s)
                   / r.latency_s for r in split]
        metrics = {
            "service.submit_s": median([r.submit_s for r in good]),
            "service.queue_wait_s": median([r.queue_wait_s for r in split]),
            "service.shard_exec_s": median([r.exec_s for r in good]),
            "service.shard_gap_s": median([r.gap_s for r in good]),
            **counters,
            "trace.uncovered_fraction": 1.0 - median(covered),
            # Nothing is wrapped (spans come from /events timestamps);
            # the only work tracing adds is the /metrics scrape.
            "trace.overhead_s": scrape_s,
        }
        print_service_table(good, metrics)
    return warm + records, failures, metrics


def print_service_table(good, metrics) -> None:
    lat = median(r.latency_s for r in good)
    print(f"service jobs {len(good)}, median job latency {lat:.4f} s")
    print(f"{'layer / span':32s} {'median_s':>10s} {'share%':>7s}")
    for name in ("service.submit_s", "service.queue_wait_s",
                 "service.shard_exec_s", "service.shard_gap_s"):
        value = metrics[name]
        print(f"  {name:30s} {value:10.4f} {100 * value / lat:6.2f}%")
    print(f"uncovered share of job latency: "
          f"{100 * metrics['trace.uncovered_fraction']:.2f}%")
    print(f"tracing overhead: {metrics['trace.overhead_s']:.4f} s "
          "(the /metrics scrape; spans come from /events timestamps)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    # One BLAS thread per process: the host has few cores, and threads
    # competing for them would measure the scheduler, not the program.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(os.path.join(workdir, "tmp"))
    # Caches, stores and temp files of this run and its worker
    # processes stay inside the checkout.
    os.environ["REPRO_KERNEL_CACHE_DIR"] = os.path.join(workdir, "kcache")
    os.environ["TMPDIR"] = os.path.join(workdir, "tmp")
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: str) -> int:
    from workloads import WORKLOADS, ServiceHttpTiny, load_expected

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(one of {sorted(WORKLOADS)})", file=sys.stderr)
        return 2
    prov = provenance(args.workload, args.seed, args.smoke)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    wl = WORKLOADS[args.workload](args.seed, args.smoke)
    state, setup_times = timed_setups(wl, workdir)
    trace = bool(args.trace)
    if isinstance(wl, ServiceHttpTiny):
        records, failures, metrics = run_service(
            wl, state, args.seconds, trace
        )
        attempted = len(records)
        failed = len(failures)
        if not trace:
            metrics.update({
                "setup_s": median(setup_times),
                "peak_rss_mb": peak_rss_mb(),
                "patterns": median(int(m.shape[0])
                                   for _, m in state["matrices"]),
                "test_coverage": median(state["coverage"][i]
                                        for i, _ in state["matrices"]),
            })
        outputs = [{"spec": i, "patterns": int(m.shape[0])}
                   for i, m in state["matrices"]]
    else:
        untraced, traced, attempted, failed, failures, busy = (
            run_in_process(wl, state, args.seconds, trace, WORK)
        )
        metrics = report_in_process(setup_times, untraced, traced, busy,
                                    trace)
        outputs = [o.record for o, _ in untraced] + [
            o.record for o, *_ in traced
        ]

    if outputs:
        print("output: " + json.dumps(outputs[0], sort_keys=True))
    for failure in failures:
        print("CHECK FAILED: " + failure.rstrip())
    if args.record and not failures and outputs and not isinstance(
        wl, ServiceHttpTiny
    ):
        expected = load_expected()
        expected[wl.key] = outputs[0]
        from workloads import EXPECTED_PATH

        with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
            json.dump(expected, fh, indent=1, sort_keys=True)
            fh.write("\n")

    names = PER_LAYER if trace else END_TO_END
    result = {}
    for name, unit in names:
        value = float(metrics.get(name, 0.0))
        result[name] = {"value": value, "unit": unit}
        print(f"{name:34s} {value:14.6f} {unit}")
    if not attempted:
        attempted = failed = 1
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
