"""Equivalence tests for the batched performance paths.

The caches in :mod:`repro.perf`, the multi-word fault simulation and the
batched SCAP grading are pure speed levers: these tests pin the
bit-for-bit contract against naive references — the quadratic pack loop,
a full-cone interpreted fault simulation, and per-pattern profiling.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg.faults import build_fault_universe, collapse_faults
from repro.atpg.fsim import FaultSimulator, first_detection_index
from repro.netlist.cells import CELL_FUNCTIONS
from repro.perf.cache import PatternProfileCache, digest_key
from repro.power.calculator import ScapCalculator
from repro.sim.logic import loc_launch_capture, pack_matrix
from repro.soc import build_turbo_eagle

from .strategies import pattern_matrix, random_netlist


@pytest.fixture(scope="module")
def study():
    design = build_turbo_eagle("tiny", seed=2007)
    return design, design.dominant_domain()


@pytest.fixture(scope="module")
def graded(study):
    """Design + collapsed faults + a 150-pattern batch (3 partial lanes)."""
    design, domain = study
    nl = design.netlist
    reps, _ = collapse_faults(nl, build_fault_universe(nl))
    rng = np.random.default_rng(3)
    matrix = rng.integers(0, 2, size=(150, nl.n_flops), dtype=np.int8)
    return design, domain, list(reps), matrix


def reference_fault_sim(nl, domain, fsim, matrix, faults):
    """The seed algorithm: full-width words, whole-cone interpreted
    evaluation, no activation restriction."""
    packed, mask = pack_matrix(matrix)
    cyc = loc_launch_capture(fsim.sim, packed, domain, mask=mask)
    f1, g2 = cyc.frame1, cyc.frame2
    detections = {}
    for fault in faults:
        site = fault.net
        if fault.initial_value == 1:
            act = f1[site] & mask
            forced = mask
        else:
            act = ~f1[site] & mask
            forced = 0
        if act == 0:
            continue
        gates, captures = fsim.cone_of(site)
        if not captures:
            continue
        faulty = {site: forced}
        for gi in gates:
            g = nl.gates[gi]
            vals = [faulty.get(p, g2[p]) for p in g.inputs]
            faulty[g.output] = CELL_FUNCTIONS[g.kind](vals, mask)
        diff = 0
        for c in captures:
            diff |= faulty.get(c, g2[c]) ^ g2[c]
        det = diff & act
        if det:
            detections[fault] = det
    return detections


class TestPackMatrix:
    def test_matches_bit_loop_reference(self):
        rng = np.random.default_rng(0)
        m = rng.integers(0, 2, size=(67, 9), dtype=np.int8)
        packed, mask = pack_matrix(m)
        assert mask == (1 << 67) - 1
        for col in range(9):
            ref = 0
            for row in range(67):
                if m[row, col]:
                    ref |= 1 << row
            assert packed[col] == ref

    def test_empty_shapes(self):
        packed, mask = pack_matrix(np.zeros((0, 4), dtype=np.int8))
        assert packed == {0: 0, 1: 0, 2: 0, 3: 0} and mask == 0
        packed, mask = pack_matrix(np.zeros((5, 0), dtype=np.int8))
        assert packed == {} and mask == (1 << 5) - 1

    @given(m=pattern_matrix(n_flops=5, max_patterns=80))
    @settings(max_examples=30, deadline=None)
    def test_pack_roundtrip_hypothesis(self, m):
        packed, mask = pack_matrix(m)
        n_pat = m.shape[0]
        assert mask == (1 << n_pat) - 1
        for col in range(m.shape[1]):
            for row in range(n_pat):
                assert (packed[col] >> row) & 1 == int(m[row, col])


class TestFaultSimEquivalence:
    def test_run_matches_seed_reference(self, graded):
        design, domain, faults, matrix = graded
        nl = design.netlist
        fsim = FaultSimulator(nl, domain)
        ref = reference_fault_sim(nl, domain, fsim, matrix, faults)
        assert fsim.run(matrix, faults) == ref
        assert ref  # the batch actually detects something

    def test_multiword_lanes_bit_identical(self, graded):
        design, domain, faults, matrix = graded
        fsim = FaultSimulator(design.netlist, domain)
        full = fsim.run(matrix, faults)
        for lane_width in (7, 32, 64, 256):
            assert fsim.run_batch(
                matrix, faults, lane_width=lane_width
            ) == full

    def test_drop_preserves_detection_set_and_first_index(self, graded):
        design, domain, faults, matrix = graded
        fsim = FaultSimulator(design.netlist, domain)
        full = fsim.run_batch(matrix, faults, lane_width=32)
        dropped = fsim.run_batch(matrix, faults, lane_width=32, drop=True)
        assert set(dropped) == set(full)
        for fault, word in dropped.items():
            assert word & full[fault] == word  # subset of true detections
            assert first_detection_index(word) == first_detection_index(
                full[fault]
            )

    def test_los_and_es_protocols_batch(self, graded):
        design, domain, faults, matrix = graded
        fsim = FaultSimulator(design.netlist, domain)
        los_run = fsim.run(matrix, faults, protocol="los", scan=design.scan)
        assert fsim.run_batch(
            matrix, faults, protocol="los", scan=design.scan, lane_width=64
        ) == los_run
        v2 = np.roll(matrix, 1, axis=0)
        es_run = fsim.run(matrix, faults, protocol="es", v2_matrix=v2)
        assert fsim.run_batch(
            matrix, faults, protocol="es", v2_matrix=v2, lane_width=64
        ) == es_run

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_random_netlists_lanes_match_reference(self, data):
        nl = data.draw(random_netlist())
        from repro.atpg.fsim import FaultSimulator as FS

        fsim = FS(nl, "clka")
        faults = list(build_fault_universe(nl))
        matrix = data.draw(pattern_matrix(n_flops=nl.n_flops))
        ref = reference_fault_sim(nl, "clka", fsim, matrix, faults)
        assert fsim.run(matrix, faults) == ref
        assert fsim.run_batch(matrix, faults, lane_width=16) == ref


class TestScapBatchEquivalence:
    @pytest.mark.parametrize("engine", ["event", "fast"])
    def test_batch_matches_per_pattern(self, graded, engine):
        design, domain, _faults, matrix = graded
        calc = ScapCalculator(design, domain, engine=engine)
        m = matrix[:70]  # two lanes, second partial
        per = [
            calc.profile_pattern(
                {fi: int(b) for fi, b in enumerate(row)}, i
            )
            for i, row in enumerate(m)
        ]
        assert calc.profile_patterns(m) == per
        assert calc.profile_patterns(m, lane_width=5) == per

    def test_pattern_set_and_matrix_agree(self, graded):
        design, domain, _faults, matrix = graded
        from repro.atpg.patterns import Pattern, PatternSet

        ps = PatternSet(domain)
        for i, row in enumerate(matrix[:10]):
            ps.append(
                Pattern(
                    index=i,
                    v1=np.asarray(row, dtype=np.uint8),
                    care=np.ones(len(row), dtype=bool),
                    domain=domain,
                    fill="random",
                )
            )
        calc = ScapCalculator(design, domain)
        assert calc.profile_patterns(ps) == calc.profile_patterns(matrix[:10])

    def test_cache_hits_preserve_results_and_restamp_index(self, graded):
        design, domain, _faults, matrix = graded
        cache = PatternProfileCache()
        calc = ScapCalculator(design, domain, cache=cache)
        plain = ScapCalculator(design, domain)
        first = calc.profile_patterns(matrix[:20])
        assert first == plain.profile_patterns(matrix[:20])
        assert cache.hits == 0
        again = calc.profile_patterns(matrix[:20])
        assert again == first
        assert cache.hits >= 20
        # same launch state under a different index: profile re-stamped
        import dataclasses

        single = calc.profile_pattern(
            {fi: int(b) for fi, b in enumerate(matrix[0])}, 99
        )
        assert single.pattern_index == 99
        assert single == dataclasses.replace(first[0], pattern_index=99)

    def test_in_batch_duplicates_alias_one_simulation(self, graded):
        design, domain, _faults, matrix = graded
        dup = np.vstack([matrix[:4]] * 3)
        cache = PatternProfileCache()
        calc = ScapCalculator(design, domain, cache=cache)
        got = calc.profile_patterns(dup)
        assert len(cache) == 4  # 12 rows, 4 distinct launch states
        plain = ScapCalculator(design, domain)
        assert got == plain.profile_patterns(dup)


class TestPerfUtilities:
    def test_digest_key_sensitivity(self):
        a = digest_key(b"abc", ("ctx", 1))
        assert a == digest_key(b"abc", ("ctx", 1))
        assert a != digest_key(b"abd", ("ctx", 1))
        assert a != digest_key(b"abc", ("ctx", 2))

    def test_cache_lru_eviction(self):
        cache = PatternProfileCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 1 and cache.get("c") == 3
