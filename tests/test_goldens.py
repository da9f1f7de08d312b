"""Recorded output goldens, computed in a fresh interpreter.

The probe below runs in a separate Python process (with its own random
hash seed), so the test checks two things at once: the engines still
produce the exact values recorded when the goldens were taken, and the
same (scale, seed, config) gives the same output in a process that
shares nothing with the test runner.

Covered: the generator (netlist fingerprints), staged LOC ATPG
(pattern matrix, detected/aborted/untestable counts), batched SCAP
grading and batched fault simulation.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

PROBE = r"""
import hashlib, json, sys
import numpy as np
from repro.atpg.faults import build_fault_universe, collapse_faults
from repro.atpg.fsim import FaultSimulator
from repro.atpg.patterns import Pattern, PatternSet
from repro.core.flow import run_noise_tolerant_flow
from repro.perf.kernel_cache import netlist_fingerprint
from repro.power.calculator import ScapCalculator
from repro.soc import build_turbo_eagle

DESIGN_SEED = 2007


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def fixed_matrix(n_patterns, n_flops, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, (n_patterns, n_flops), dtype=np.uint8)


out = {"fingerprint": {}, "flow": {}}
designs = {s: build_turbo_eagle(s, seed=DESIGN_SEED) for s in ("tiny", "small")}
for scale, design in designs.items():
    out["fingerprint"][scale] = netlist_fingerprint(design.netlist)

tiny = designs["tiny"]
for seed in (1, 2):
    result, report = run_noise_tolerant_flow(tiny, seed=seed, drc=True)
    matrix = np.ascontiguousarray(result.pattern_set.as_matrix(),
                                  dtype=np.uint8)
    out["flow"][str(seed)] = {
        "status": report.status,
        "shape": list(matrix.shape),
        "matrix": hashlib.sha256(matrix.tobytes()).hexdigest()[:20],
        "detected": result.detected_faults,
        "aborted": sum(len(r.aborted) for r in result.step_results),
        "untestable": result.untestable_faults,
    }

small = designs["small"]
domain = small.dominant_domain()
n_flops = small.netlist.n_flops

matrix = fixed_matrix(24, n_flops, 11)
patterns = PatternSet(domain, fill="random")
for i, row in enumerate(matrix):
    patterns.append(Pattern(index=i, v1=row, care=np.ones(n_flops, bool),
                            domain=domain, fill="random"))
profiles = ScapCalculator(small, domain).profile_patterns(patterns)
out["scap"] = sha(json.dumps([
    [p.pattern_index, repr(p.stw_ns), p.n_transitions,
     repr(p.energy_fj_total), sorted((b, repr(e)) for b, e in
                                     p.energy_fj_by_block.items())]
    for p in profiles
]))

faults, _ = collapse_faults(small.netlist, build_fault_universe(small.netlist))
matrix = fixed_matrix(128, n_flops, 12)
words = FaultSimulator(small.netlist, domain).run_batch(matrix, list(faults))
out["fsim"] = {
    "faults": len(faults),
    "detected": len(words),
    "words": sha(json.dumps(sorted(
        [f.net, f.kind, hex(w)] for f, w in words.items()
    ))),
}
json.dump(out, sys.stdout, sort_keys=True)
"""

#: Values the probe printed at the commit that recorded them.
GOLDEN = {
    "fingerprint": {
        "small": "2c72e28302130195e62065ad1c71717fc114a34c",
        "tiny": "7e0eeac01eff6e40a11d7fa2496a1490ae499410",
    },
    "flow": {
        "1": {
            "aborted": 80,
            "detected": 411,
            "matrix": "841195ec2c583ba6e640",
            "shape": [89, 62],
            "status": "completed",
            "untestable": 155,
        },
        "2": {
            "aborted": 85,
            "detected": 406,
            "matrix": "a7ab059835b16ff93347",
            "shape": [90, 62],
            "status": "completed",
            "untestable": 155,
        },
    },
    "scap": "ec94e33286f4a230f47b",
    "fsim": {
        "detected": 2200,
        "faults": 3474,
        "words": "c8f776e71f179d62a69a",
    },
}


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_KERNEL_CACHE_DIR"] = str(tmp_path_factory.mktemp("kcache"))
    env.pop("PYTHONHASHSEED", None)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True,
        text=True, timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def test_netlist_fingerprints(probe):
    assert probe["fingerprint"] == GOLDEN["fingerprint"]


@pytest.mark.parametrize("seed", ["1", "2"])
def test_staged_flow_tiny(probe, seed):
    assert probe["flow"][seed] == GOLDEN["flow"][seed]


def test_batched_scap_profiles(probe):
    assert probe["scap"] == GOLDEN["scap"]


def test_fault_sim_words(probe):
    assert probe["fsim"] == GOLDEN["fsim"]
