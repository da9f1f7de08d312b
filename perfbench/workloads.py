"""The benchmark's three workloads.

Each puts most of its work in a different layer of ``repro``:

``flow_tiny``
    The paper's staged noise-aware flow in process at ``tiny`` scale:
    SOC build, DRC gate, staged fill-0 LOC ATPG, cross-stage grading
    and the power-constrained schedule stage.  PODEM is about 99% of
    it, so this is where ATPG-core work shows.  The workload seed is
    the ATPG engine seed (target order and fill RNG); the design is the
    case-study SOC (generator seed 2007).
    ``tiny`` rather than ``small``: one ``small`` flow takes about 24 s,
    so a run measured a single operation and its figures swung with
    every burst of host load; a ``tiny`` flow takes about 2.3 s, so a
    run reports the median of ten or more.
``signoff_small``
    Pattern sign-off at ``small`` scale with no ATPG search: grid
    calibration, SCAP thresholds and screening, dynamic IR of the
    P1/P2 picks, the IR-scaled endpoint re-check, the static-timing
    pre-screen, fault grading of the whole set and a bin-packed
    schedule.  The seed generates the pattern set of 128 patterns:
    half random-fill (conventional-like), half care bits on fill-0
    (staged-like), at the care density of the staged flow's own
    patterns at ``small``.  128 rather than 512 patterns keeps an
    operation near 3 s, so a run reports the median of eight or more.
    ``small`` rather than ``bench``: at ``bench`` the chain's
    memory-heavy work swung twice as much with host load as the flow
    did, and its three cold kernel compiles per run (about 10 s each)
    left no time budget for a longer measured window.
``service_http_tiny``
    The job service over HTTP: one server, a tenant fleet of two
    worker subprocesses and a closed loop of two client threads, each
    submitting a ``tiny`` job and streaming its ``/events`` until it
    ends.  The seed picks the jobs' ATPG seeds; the design stays the
    case-study SOC so per-job work does not swing with the seed.

Each workload sets up in a directory the runner owns, so no cache or
store outside the checkout is read or written, and warms a fresh kernel
cache there, so the cone-kernel compile lands in ``setup_s`` rather
than in the measured window.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

#: Design generator seed of the case-study SOC every workload uses.
DESIGN_SEED = 2007


def digest(obj: Any) -> str:
    """Short stable digest of a JSON-able object or an ndarray."""
    h = hashlib.sha256()
    if isinstance(obj, np.ndarray):
        h.update(str(obj.shape).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    else:
        h.update(json.dumps(obj, sort_keys=True).encode())
    return h.hexdigest()[:16]


def load_expected() -> Dict[str, Any]:
    if not os.path.exists(EXPECTED_PATH):
        return {}
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def schedule_budget_mw(powers: Dict[str, float]) -> float:
    """Test-power envelope: the hungriest block plus half again, so the
    packer has real choices without any block being infeasible."""
    return 1.5 * max(powers.values())


@dataclass
class OpResult:
    """One operation's outcome: a digestable record plus summary values
    the end-to-end metrics read."""

    record: Dict[str, Any]
    patterns: int
    test_coverage: float
    extra: Dict[str, Any] = field(default_factory=dict)


# ----------------------------------------------------------------------
# tracing targets shared by the in-process workloads
# ----------------------------------------------------------------------
def install_probes(tracer: Tracer) -> None:
    """Wrap every layer entry point the in-process workloads reach."""
    from repro.atpg import fill, podem
    from repro.atpg.engine import AtpgEngine
    from repro.atpg.fsim import FaultSimulator
    from repro.core import flow, irscale, thresholds
    from repro.core.scheduling.strategies import (
        BinPackingScheduler,
        GreedyScheduler,
    )
    from repro.pgrid import dynamic_ir
    from repro.pgrid.grid import GridModel
    from repro.power.calculator import ScapCalculator
    from repro.power.static_bound import StaticScapBound
    from repro.soc import generator
    from repro.timing import prescreen

    def podem_kind(args, kwargs, result):
        # Primary calls carry no base cube (the flow sets no forced
        # bits); merge calls carry the cube under construction.
        base = args[2] if len(args) > 2 else kwargs.get("base")
        counts = {"backtracks": result.backtracks,
                  "decisions": result.decisions}
        if base:
            counts["accepted"] = int(result.success)
            return "atpg.podem_merge", counts
        counts["aborted"] = int(result.status is podem.PodemStatus.ABORT)
        return "atpg.podem_primary", counts

    def fsim_kind(args, kwargs, result):
        patterns = args[1] if len(args) > 1 else kwargs["patterns"]
        faults = args[2] if len(args) > 2 else kwargs["faults"]
        name = ("atpg.fsim_drop" if tracer.inside("atpg.engine")
                else "atpg.fsim_grade")
        return name, {"fault_patterns": len(faults) * len(patterns)}

    def scap_count(args, kwargs, result):
        return "power.scap_profile", {"patterns": len(result)}

    def prescreen_count(args, kwargs, result):
        return "timing.prescreen", {
            "endpoints": result.endpoints_total,
            "pruned": result.endpoints_total
            - result.endpoint_counts["at_risk"],
            "resimulated": result.patterns_resimulated,
        }

    def schedule_count(args, kwargs, result):
        if tracer.inside("sched.schedule"):
            return "sched.schedule", {}
        return "sched.schedule", {"makespan_us": result.makespan_us}

    tracer.patch_function(generator.build_turbo_eagle, "soc.build")
    tracer.patch_function(flow.run_drc_gate, "drc.gate")
    tracer.patch_method(AtpgEngine, "run", "atpg.engine")
    tracer.patch_function(podem.generate_test, "atpg.podem", podem_kind)
    tracer.patch_function(fill.apply_fill, "atpg.fill")
    tracer.patch_method(FaultSimulator, "run_batch", "atpg.fsim", fsim_kind)
    tracer.patch_method(GridModel, "calibrated", "pgrid.calibrate")
    tracer.patch_function(dynamic_ir.dynamic_ir_for_pattern,
                          "pgrid.dynamic_ir")
    tracer.patch_method(ScapCalculator, "profile_patterns",
                        "power.scap_profile", scap_count)
    tracer.patch_function(thresholds.derive_scap_thresholds,
                          "power.thresholds")
    tracer.patch_method(StaticScapBound, "__init__", "power.static_bound")
    tracer.patch_method(StaticScapBound, "test_power_bounds_mw",
                        "power.static_bound")
    tracer.patch_function(prescreen.prescreen_pattern_set,
                          "timing.prescreen", prescreen_count)
    tracer.patch_function(irscale.ir_scaled_endpoint_comparison,
                          "sim.ir_rescale")
    tracer.patch_method(GreedyScheduler, "schedule", "sched.schedule",
                        schedule_count)
    tracer.patch_method(BinPackingScheduler, "schedule", "sched.schedule",
                        schedule_count)


def layer_metrics(names: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Per-layer metric values from one traced op's by-name table."""

    def row(name: str) -> Dict[str, float]:
        return names.get(name, {})

    def incl(name: str) -> float:
        return row(name).get("incl_s", 0.0)

    def count(name: str, key: str) -> float:
        return row(name).get(key, 0)

    primary, merge = row("atpg.podem_primary"), row("atpg.podem_merge")
    endpoints = count("timing.prescreen", "endpoints")
    return {
        "soc.build_s": incl("soc.build"),
        "drc.gate_s": incl("drc.gate"),
        "atpg.podem_primary_s": incl("atpg.podem_primary"),
        "atpg.podem_primary_calls": primary.get("calls", 0),
        "atpg.podem_merge_s": incl("atpg.podem_merge"),
        "atpg.podem_merge_calls": merge.get("calls", 0),
        "atpg.podem_backtracks": primary.get("backtracks", 0)
        + merge.get("backtracks", 0),
        "atpg.podem_decisions": primary.get("decisions", 0)
        + merge.get("decisions", 0),
        "atpg.merge_accept_ratio": (
            merge.get("accepted", 0) / merge["calls"] if merge else 0.0
        ),
        "atpg.primary_abort_ratio": (
            primary.get("aborted", 0) / primary["calls"] if primary else 0.0
        ),
        "atpg.fill_s": incl("atpg.fill"),
        "atpg.engine_self_s": row("atpg.engine").get("self_s", 0.0),
        "atpg.fsim_drop_s": incl("atpg.fsim_drop"),
        "atpg.fsim_grade_s": incl("atpg.fsim_grade"),
        "atpg.fsim_fault_patterns": count("atpg.fsim_drop", "fault_patterns")
        + count("atpg.fsim_grade", "fault_patterns"),
        "pgrid.calibrate_s": incl("pgrid.calibrate"),
        "pgrid.dynamic_ir_s": incl("pgrid.dynamic_ir"),
        "power.scap_profile_s": incl("power.scap_profile"),
        "power.scap_patterns": count("power.scap_profile", "patterns"),
        "power.thresholds_s": incl("power.thresholds"),
        "power.static_bound_s": incl("power.static_bound"),
        "timing.prescreen_s": incl("timing.prescreen"),
        "timing.pruned_endpoint_fraction": (
            count("timing.prescreen", "pruned") / endpoints
            if endpoints else 0.0
        ),
        "timing.patterns_resimulated": count("timing.prescreen",
                                             "resimulated"),
        "sim.ir_rescale_s": incl("sim.ir_rescale"),
        "sched.schedule_s": incl("sched.schedule"),
        "sched.makespan_us": count("sched.schedule", "makespan_us"),
    }


# ----------------------------------------------------------------------
# flow_tiny
# ----------------------------------------------------------------------
class FlowTiny:
    """Staged noise-aware flow, in process."""

    name = "flow_tiny"

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.scale = "tiny"
        self.key = f"{self.name}/{self.scale}/{seed}"

    def setup(self, workdir: str) -> Dict[str, Any]:
        from repro.atpg.faults import build_fault_universe
        from repro.atpg.fsim import FaultSimulator
        from repro.perf.kernel_cache import KernelCache
        from repro.power.static_bound import StaticScapBound
        from repro.soc import build_turbo_eagle

        cache = KernelCache(fresh_dir(os.path.join(workdir, "kcache")))
        design = build_turbo_eagle(self.scale, seed=DESIGN_SEED)
        domain = design.dominant_domain()
        powers = StaticScapBound(design, domain).test_power_bounds_mw()
        FaultSimulator(design.netlist, domain, kernel_cache=cache) \
            .warm_kernels(build_fault_universe(design.netlist))
        return {"cache": cache, "budget_mw": schedule_budget_mw(powers)}

    def op(self, state: Dict[str, Any]) -> OpResult:
        import repro.core.flow as flow_mod
        import repro.soc as soc_mod

        design = soc_mod.build_turbo_eagle(self.scale, seed=DESIGN_SEED)
        result, report = flow_mod.run_noise_tolerant_flow(
            design, seed=self.seed, drc=True,
            schedule_budget_mw=state["budget_mw"],
        )
        if result is None:
            raise RuntimeError(f"flow failed: {report.error}")
        matrix = result.pattern_set.as_matrix()
        aborted = sum(len(r.aborted) for r in result.step_results)
        record = {
            "status": report.status,
            "patterns_digest": digest(matrix),
            "patterns": int(matrix.shape[0]),
            "detected": result.detected_faults,
            "aborted": aborted,
            "untestable": result.untestable_faults,
            "makespan_us": (report.schedule or {}).get("makespan_us"),
        }
        return OpResult(record, int(matrix.shape[0]), result.test_coverage,
                        {"design": design, "result": result,
                         "report": report})

    def check(self, state: Dict[str, Any], out: OpResult) -> List[str]:
        from repro.atpg.fsim import FaultSimulator

        errors: List[str] = []
        rec, result = out.record, out.extra["result"]
        if rec["status"] != "completed":
            errors.append(f"flow status {rec['status']}")
        if not rec["makespan_us"]:
            errors.append("schedule stage produced no makespan")
        # fill-0: every bit ATPG left as don't-care must be 0
        for pattern in result.pattern_set:
            if np.any(pattern.v1[~pattern.care]):
                errors.append(f"pattern {pattern.index} breaks fill-0")
                break
        # every fault the flow claims detected is detected by its own
        # final pattern matrix (independent re-grade)
        claimed = set(result.cross_detected)
        for step in result.step_results:
            claimed.update(step.detected)
        fsim = FaultSimulator(out.extra["design"].netlist, result.domain)
        words = fsim.run_batch(result.pattern_set.as_matrix(),
                               list(claimed), drop=True)
        if len(words) != len(claimed):
            errors.append(
                f"re-grade detects {len(words)} of {len(claimed)} "
                "claimed faults"
            )
        return errors + check_expected(self.key, rec)


# ----------------------------------------------------------------------
# signoff_small
# ----------------------------------------------------------------------
#: Range of a sign-off pattern's care-bit density: the 10th to 90th
#: percentile of the per-pattern care ratio of the staged flow's own
#: output at ``small`` (ATPG seeds 1-3: 0.12 to 0.32, mean 0.225).
CARE_DENSITY = (0.12, 0.32)


def signoff_patterns(design, domain: str, n: int, seed: int):
    """The sign-off input: *n* patterns from *seed*.

    First half: random fill, like conventional ATPG output.  Second
    half: care bits on fill-0, like the staged flow's.  Each pattern's
    care density is drawn from CARE_DENSITY, so toggle activity spans
    quiet to busy.
    """
    from repro.atpg.patterns import Pattern, PatternSet

    rng = np.random.default_rng(seed)
    n_flops = design.netlist.n_flops
    out = PatternSet(domain, fill="random")
    for i in range(n):
        care = rng.random(n_flops) < rng.uniform(*CARE_DENSITY)
        bits = rng.integers(0, 2, n_flops, dtype=np.uint8)
        if i < n // 2:
            v1, fill = bits, "random"
        else:
            v1, fill = np.where(care, bits, 0).astype(np.uint8), "0"
        out.append(Pattern(index=i, v1=v1, care=care, domain=domain,
                           fill=fill))
    return out


class SignoffSmall:
    """Sign-off chain over a fixed external pattern set."""

    name = "signoff_small"
    #: Patterns whose endpoints the pre-screen also fully re-simulates.
    audit_patterns = 3

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.scale = "tiny" if smoke else "small"
        self.n_patterns = 16 if smoke else 128
        self.key = f"{self.name}/{self.scale}/{self.n_patterns}/{seed}"

    def setup(self, workdir: str) -> Dict[str, Any]:
        from repro.atpg.faults import build_fault_universe, collapse_faults
        from repro.atpg.fsim import FaultSimulator
        from repro.perf.kernel_cache import KernelCache
        from repro.soc import build_turbo_eagle

        cache = KernelCache(fresh_dir(os.path.join(workdir, "kcache")))
        design = build_turbo_eagle(self.scale, seed=DESIGN_SEED)
        domain = design.dominant_domain()
        universe, _ = collapse_faults(
            design.netlist, build_fault_universe(design.netlist)
        )
        FaultSimulator(design.netlist, domain, kernel_cache=cache) \
            .warm_kernels(universe)
        return {
            "cache": cache, "design": design, "domain": domain,
            "universe": list(universe),
            "patterns": signoff_patterns(design, domain, self.n_patterns,
                                         self.seed),
        }

    def op(self, state: Dict[str, Any]) -> OpResult:
        from repro.atpg.fsim import FaultSimulator
        from repro.core import irscale, thresholds, validation
        from repro.core.scheduling import (
            ScheduleBudget,
            get_scheduler,
            specs_from_design,
        )
        from repro.pgrid import dynamic_ir
        from repro.pgrid.grid import GridModel
        from repro.power.calculator import ScapCalculator
        from repro.power.static_bound import StaticScapBound
        from repro.timing import prescreen

        design, domain = state["design"], state["domain"]
        patterns = state["patterns"]
        model = GridModel.calibrated(design)
        calc = ScapCalculator(design, domain)
        limits = thresholds.derive_scap_thresholds(model, domain)
        report = validation.validate_pattern_set(calc, patterns, limits)
        picks = report.extreme_patterns("B5")
        worst_ir = {}
        for label, idx in sorted(picks.items()):
            _profile, timing = calc.profile_pattern_with_timing(
                patterns[idx]
            )
            ir = dynamic_ir.dynamic_ir_for_pattern(model, timing,
                                                   domain=domain)
            rescaled = irscale.ir_scaled_endpoint_comparison(
                calc, model, patterns[idx]
            )
            worst_ir[label] = [round(ir.worst_vdd_v, 9),
                               round(max(rescaled.scaled_ns.values()), 9)]
        screen = prescreen.prescreen_pattern_set(
            calc, model, patterns, audit_patterns=self.audit_patterns
        )
        matrix = patterns.as_matrix()
        words = FaultSimulator(design.netlist, domain).run_batch(
            matrix, state["universe"], drop=True
        )
        bound = StaticScapBound(design, domain)
        powers = bound.test_power_bounds_mw()
        budget = ScheduleBudget(power_mw=schedule_budget_mw(powers),
                                tam_width=design.tam_width)
        specs = specs_from_design(
            design, powers, {b: len(patterns) for b in design.blocks()}
        )
        schedule = get_scheduler("binpack").schedule(specs, budget)
        schedule.validate()
        violations = sorted(
            (v.pattern_index, v.block) for v in report.violations
        )
        record = {
            "violations": digest(violations),
            "violating_patterns": len(report.violating_patterns()),
            "picks": picks,
            "worst_ir": worst_ir,
            "misses": digest(sorted(screen.misses)),
            "soundness_checked": screen.soundness_checked,
            "soundness_violations": screen.soundness_violations,
            "graded": len(words),
            "makespan_us": schedule.makespan_us,
        }
        coverage = len(words) / max(1, len(state["universe"]))
        return OpResult(record, len(patterns), coverage, {
            "calc": calc, "model": model, "report": report,
            "screen": screen, "bound": bound, "specs": specs,
            "budget": budget,
        })

    def check(self, state: Dict[str, Any], out: OpResult) -> List[str]:
        from repro.core import irscale
        from repro.core.scheduling import get_scheduler
        from repro.timing.bound import SETUP_NS

        errors: List[str] = []
        x, rec = out.extra, out.record
        patterns = state["patterns"]
        if rec["soundness_checked"] == 0 or rec["soundness_violations"]:
            errors.append(
                f"pre-screen soundness {rec['soundness_violations']} of "
                f"{rec['soundness_checked']}"
            )
        # pre-screen misses == full IR-scaled path on the audited patterns
        limit = x["calc"].period_ns - SETUP_NS
        audited = range(min(self.audit_patterns, len(patterns)))
        full = sorted(
            (pi, fi)
            for pi in audited
            for fi, delay in irscale.ir_scaled_endpoint_comparison(
                x["calc"], x["model"], patterns[pi]
            ).scaled_ns.items()
            if delay > limit
        )
        screened = sorted(m for m in x["screen"].misses if m[0] in audited)
        if full != screened:
            errors.append(f"pre-screen misses {screened} != full {full}")
        # batch SCAP profiles match the per-pattern reference path
        for idx in set(rec["picks"].values()):
            ref = x["calc"].profile_pattern(patterns[idx])
            got = x["report"].profiles[idx]
            if ref.scap_mw() != got.scap_mw():
                errors.append(f"pattern {idx}: batch SCAP != reference")
        # the static bounds cover the simulated block SCAP: the
        # all-pattern bound for every pattern, the per-pattern bound for
        # the picks
        profiles = x["report"].profiles
        for block, limit_mw in x["bound"].block_upper_bounds_mw().items():
            worst = max(p.scap_mw(block) for p in profiles)
            if worst > limit_mw * (1 + 1e-9):
                errors.append(f"{block}: SCAP {worst} above bound {limit_mw}")
        for idx in set(rec["picks"].values()):
            v1 = patterns[idx].v1_dict()
            for block, limit_mw in \
                    x["bound"].pattern_upper_bounds_mw(v1).items():
                if profiles[idx].scap_mw(block) > limit_mw * (1 + 1e-9):
                    errors.append(f"pattern {idx}: {block} SCAP above its "
                                  f"bound {limit_mw}")
        greedy = get_scheduler("greedy").schedule(x["specs"], x["budget"])
        if rec["makespan_us"] > greedy.makespan_us:
            errors.append("binpack makespan worse than greedy")
        return errors + check_expected(self.key, rec)


# ----------------------------------------------------------------------
# service_http_tiny
# ----------------------------------------------------------------------
@dataclass
class JobRecord:
    """One job as its client saw it.  Latency uses the monotonic clock;
    the queue/exec/gap split uses wall-clock time, the clock the
    server stamps ``/events`` with."""

    spec_index: int
    submit_start: float
    submit_s: float = 0.0
    #: Wall-clock time the submit call returned.
    submitted_at: float = 0.0
    end: float = 0.0
    state: str = ""
    queue_wait_s: Optional[float] = None
    exec_s: float = 0.0
    gap_s: float = 0.0
    error: str = ""

    @property
    def latency_s(self) -> float:
        return self.end - self.submit_start


def shard_timeline(rec: JobRecord, events: List[Dict[str, Any]]) -> None:
    """Fill *rec*'s queue/exec/gap split from ``/events`` timestamps."""
    started: Dict[str, float] = {}
    done: Dict[str, float] = {}
    order: List[str] = []
    for event in events:
        for shard in event.get("shards", ()):
            name = shard["name"]
            if name not in order:
                order.append(name)
            if shard["state"] in ("leased", "running"):
                started.setdefault(name, event["ts"])
            if shard["state"] == "done":
                done.setdefault(name, event["ts"])
                started.setdefault(name, event["ts"])
    if not started:
        return
    rec.queue_wait_s = min(started.values()) - rec.submitted_at
    rec.exec_s = sum(done[n] - started[n] for n in order if n in done)
    rec.gap_s = sum(
        started[b] - done[a]
        for a, b in zip(order, order[1:])
        if a in done and b in started
    )


class ServiceHttpTiny:
    """Closed loop of HTTP clients against a worker fleet."""

    name = "service_http_tiny"
    tenant = "bench"
    n_clients = 2
    n_workers = 2
    #: Distinct job specs per run; the in-process reference flow runs
    #: once per spec during the output check.
    n_specs = 2

    def __init__(self, seed: int, smoke: bool) -> None:
        from repro.service import JobSpec

        self.seed = seed
        self.smoke = smoke
        self.key = f"{self.name}/tiny/{seed}"
        rng = np.random.default_rng(seed)
        self.specs = [
            JobSpec(scale="tiny", seed=DESIGN_SEED,
                    flow_seed=int(rng.integers(1, 1 << 30)))
            for _ in range(self.n_specs)
        ]

    def setup(self, workdir: str) -> Dict[str, Any]:
        from repro.atpg.faults import build_fault_universe
        from repro.atpg.fsim import FaultSimulator
        from repro.perf.kernel_cache import KernelCache
        from repro.service import (
            HttpServerThread,
            HttpServiceClient,
            TenantFleet,
            TenantManager,
        )
        from repro.soc import build_turbo_eagle

        # The workers inherit this set-up's warm kernel cache.
        kcache = fresh_dir(os.path.join(workdir, "kcache"))
        design = build_turbo_eagle("tiny", seed=DESIGN_SEED)
        FaultSimulator(design.netlist, design.dominant_domain(),
                       kernel_cache=KernelCache(kcache)) \
            .warm_kernels(build_fault_universe(design.netlist))
        os.environ["REPRO_KERNEL_CACHE_DIR"] = kcache
        tenants = TenantManager(fresh_dir(os.path.join(workdir, "service")))
        tenants.store(self.tenant)
        fleet = TenantFleet(tenants, n_workers=self.n_workers,
                            inline_fallback=False)
        server = HttpServerThread(tenants, fleet=fleet).start()
        client = HttpServiceClient(server.base_url, tenant=self.tenant)
        store = tenants.store(self.tenant)
        deadline = time.monotonic() + 30.0
        # Ready once every worker has imported and registered itself.
        while len(store.alive_workers()) < self.n_workers:
            if time.monotonic() > deadline:
                server.stop()
                raise RuntimeError("service workers did not start")
            time.sleep(0.005)
        client.healthz()
        return {"server": server, "fleet": fleet, "client": client,
                "lock": threading.Lock(), "matrices": []}

    def teardown(self, state: Dict[str, Any]) -> None:
        state["server"].stop()

    def run_window(self, state: Dict[str, Any], seconds: float,
                   jobs_per_client: Optional[int] = None
                   ) -> Tuple[List[JobRecord], float]:
        """Closed loop: each client submits its next job only after the
        previous one ended; no client starts a job after *seconds* or
        after its *jobs_per_client*-th.  Returns the job records and the
        window's wall time."""
        from repro.service import HttpServiceClient

        base_url = state["server"].base_url
        records: List[JobRecord] = []
        lock = threading.Lock()
        max_jobs = 1 if self.smoke else jobs_per_client
        t0 = time.perf_counter()
        deadline = t0 + seconds

        def client_loop(index: int) -> None:
            client = HttpServiceClient(base_url, tenant=self.tenant,
                                       request_timeout_s=120.0)
            n = 0
            while time.perf_counter() < deadline and (
                max_jobs is None or n < max_jobs
            ):
                spec_index = (index + n) % len(self.specs)
                rec = JobRecord(spec_index, time.perf_counter())
                n += 1
                try:
                    job_id = client.submit(self.specs[spec_index])
                    rec.submit_s = time.perf_counter() - rec.submit_start
                    rec.submitted_at = time.time()
                    events = list(client.events(job_id, timeout_s=150.0))
                    rec.end = time.perf_counter()
                    rec.state = events[-1].get("state", "") if events else ""
                    shard_timeline(rec, events)
                    if rec.state == "done":
                        rec.error = self._check_job(client, job_id,
                                                    spec_index, state)
                    else:
                        rec.error = f"job ended {rec.state or 'without state'}"
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    rec.end = rec.end or time.perf_counter()
                    rec.error = repr(exc)
                with lock:
                    records.append(rec)

        threads = [threading.Thread(target=client_loop, args=(i,))
                   for i in range(self.n_clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=170.0)
        if any(t.is_alive() for t in threads):
            raise RuntimeError("service clients did not finish")
        last_end = max((r.end for r in records), default=time.perf_counter())
        return records, last_end - t0

    def _check_job(self, client, job_id: str, spec_index: int,
                   state: Dict[str, Any]) -> str:
        """Fetch the result (outside the job's latency) and keep it for
        the comparison against the in-process flow."""
        matrix = client.result(job_id)["matrix"]
        with state["lock"]:
            state["matrices"].append((spec_index, matrix))
        return ""

    def reference_check(self, state: Dict[str, Any]) -> Dict[int, str]:
        """Compare every job's matrix to the in-process flow of its spec.

        Returns ``{spec_index: error}`` for specs whose jobs disagree and
        stores each spec's test coverage in ``state["coverage"]``.
        """
        from repro import run_noise_tolerant_flow

        errors: Dict[int, str] = {}
        state["coverage"] = {}
        for index in sorted({i for i, _ in state["matrices"]}):
            spec = self.specs[index]
            design, plan = spec.build_design_and_plan()
            result, _ = run_noise_tolerant_flow(
                design, max_patterns=spec.max_patterns,
                seed=spec.flow_seed, stage_plan=plan,
            )
            state["coverage"][index] = result.test_coverage
            ref = result.pattern_set.as_matrix()
            for i, matrix in state["matrices"]:
                if i == index and not np.array_equal(matrix, ref):
                    errors[index] = "job patterns != in-process flow"
        return errors

    def scrape_metrics(self, state: Dict[str, Any]) -> Dict[str, float]:
        """Counters from the server's ``/metrics`` exposition."""
        text = state["client"].metrics()
        wanted = {
            "repro_http_requests_total": "service.http_requests",
            "repro_service_shard_retries_total": "service.shard_retries",
            "repro_service_leases_expired_total": "service.leases_expired",
            "repro_service_submits_rejected_total":
                "service.submits_rejected",
        }
        out = {name: 0.0 for name in wanted.values()}
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            metric = line.split("{", 1)[0].split(" ", 1)[0]
            if metric in wanted:
                out[wanted[metric]] += float(line.rsplit(" ", 1)[1])
        return out


# ----------------------------------------------------------------------
def check_expected(key: str, record: Dict[str, Any]) -> List[str]:
    """Compare *record* with the parent-commit record for *key*, when
    one was recorded; seeds without a record rely on the invariant
    checks alone."""
    expected = load_expected().get(key)
    if expected is None or expected == record:
        return []
    diff = sorted(k for k in set(expected) | set(record)
                  if expected.get(k) != record.get(k))
    return [f"output differs from the recorded parent output in {diff}"]


WORKLOADS: Dict[str, Callable[[int, bool], Any]] = {
    FlowTiny.name: FlowTiny,
    SignoffSmall.name: SignoffSmall,
    ServiceHttpTiny.name: ServiceHttpTiny,
}
