"""The benchmark's own tests: smoke runs of every workload.

Run from the repository root with ``python3 -m pytest perfbench -q``
(about a minute).  Smoke mode shrinks every workload to ``tiny`` size,
so these check the plumbing — output checks, the result line, the
traced layer table — not performance.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*extra, cwd=ROOT):
    cmd = list(SPEC["command"]) + list(extra)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_checks_outputs_and_reports(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert lines[0].startswith("provenance: ")
    prov = json.loads(lines[0].split(": ", 1)[1])
    assert prov["seed"] == 3 and prov["usable_cpus"] >= 1
    if trace:
        assert any(line.startswith("uncovered share") for line in lines)
        assert result["metrics"]["trace.uncovered_fraction"]["value"] < 0.1
    else:
        for name in ("setup_s", "wall_s", "ops_per_s", "patterns"):
            assert result["metrics"][name]["value"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_restores_every_patched_attribute():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import repro.atpg.engine as engine
    import repro.atpg.podem as podem
    from repro.atpg.fsim import FaultSimulator
    from tracer import Tracer
    from workloads import install_probes

    before = (engine.generate_test, FaultSimulator.run_batch)
    tracer = Tracer()
    install_probes(tracer)
    assert engine.generate_test is podem.generate_test
    assert engine.generate_test.__wrapped__ is before[0]
    tracer.uninstall()
    assert (engine.generate_test, FaultSimulator.run_batch) == before
    assert engine.generate_test is podem.generate_test
