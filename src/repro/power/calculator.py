"""The SCAP calculator — the paper's Figure 5 flow as working code.

The paper plugs a PLI routine into Synopsys VCS gate-level timing
simulation: it watches every net transition inside the launch-to-capture
window, charges the instance's extracted output capacitance, tracks the
switching time frame window and reports per-pattern SCAP without writing
VCD files.  :class:`ScapCalculator` is the same measurement loop built
on our own simulators:

``design (netlist) + patterns  ->  timing simulation (event/fast)
+ extracted parasitics (C_i)   ->  per-pattern power profile``

It also returns the raw :class:`~repro.sim.event.TimingResult` when the
caller needs arrivals (endpoint delays, dynamic IR-drop).

Throughput: :meth:`ScapCalculator.profile_patterns` grades a whole
pattern set at once — the launch-to-capture logic simulation runs
bit-parallel over machine-word lanes (so its cost is amortised across
the lane instead of paid twice per pattern), and a digest-keyed profile
cache short-circuits launch states that were already simulated.  Both
are bit-exact with per-pattern :meth:`profile_pattern`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import VDD_NOMINAL
from ..errors import ConfigError
from ..obs import current_telemetry
from ..perf.cache import PatternProfileCache, digest_key
from ..sim.delays import DelayModel
from ..sim.event import EventTimingSim, TimingResult, build_launch_events
from ..sim.fasttiming import FastTimingSim
from ..sim.logic import (
    LogicSim,
    launch_capture_with_state,
    loc_launch_capture,
    pack_matrix,
)
from ..soc.design import SocDesign
from .scap import PatternPowerProfile

ENGINES = ("event", "fast")

#: Lane width for batched grading: one machine word keeps the packed
#: bigints in CPython's fast small-int paths and lets the per-pattern
#: frame extraction vectorise through uint64 numpy shifts.
MAX_LANE_WIDTH = 64


class ScapCalculator:
    """Per-pattern SCAP measurement for one design + clock domain."""

    def __init__(
        self,
        design: SocDesign,
        domain: Optional[str] = None,
        engine: str = "event",
        vdd: float = VDD_NOMINAL,
        delays: Optional[DelayModel] = None,
        cache: Optional[PatternProfileCache] = None,
    ):
        if engine not in ENGINES:
            raise ConfigError(f"engine must be one of {ENGINES}")
        self.design = design
        self.domain = domain if domain is not None else design.dominant_domain()
        if self.domain not in design.domains:
            raise ConfigError(f"unknown domain {self.domain!r}")
        self.engine = engine
        self.vdd = vdd
        self.period_ns = design.domains[self.domain].period_ns
        self.cache = cache

        netlist = design.netlist
        self.logic = LogicSim(netlist)
        self.delays = (
            delays if delays is not None
            else DelayModel(netlist, design.parasitics)
        )
        self._event = EventTimingSim(
            netlist, self.delays, design.parasitics, vdd
        )
        self._fast = FastTimingSim(
            netlist, self.delays, design.parasitics, vdd
        )

        # Launch-edge clock arrival per pulsed flop.  Negative-edge cells
        # (dedicated chain) are masked during the at-speed cycle and do
        # not launch.
        tree = design.clock_trees[self.domain]
        self.launch_time: Dict[int, float] = {}
        for fi, flop in enumerate(netlist.flops):
            if flop.clock_domain != self.domain or flop.edge != "pos":
                continue
            self.launch_time[fi] = tree.insertion_delay_ns(fi)

        # Cache context: anything that changes the simulation result
        # must key the digest (the design token keeps one shared cache
        # safe across calculators).
        self._cache_context = (
            netlist.name,
            netlist.n_nets,
            netlist.n_gates,
            netlist.n_flops,
            self.domain,
            self.engine,
            round(self.vdd, 9),
            round(self.period_ns, 9),
        )

    # ------------------------------------------------------------------
    def simulate_pattern(
        self,
        v1: Dict[int, int],
        record_trace: bool = False,
        protocol: str = "loc",
        v2: Optional[Dict[int, int]] = None,
    ) -> TimingResult:
        """Timing-simulate one pattern's launch-to-capture cycle.

        ``protocol`` selects the launch mechanism: ``"loc"`` (default),
        ``"los"`` (V2 = V1 shifted along the scan chains; the design
        must carry a scan config) or ``"es"`` (explicit ``v2``).
        """
        if protocol == "loc":
            cyc = loc_launch_capture(self.logic, v1, self.domain)
        elif protocol == "los":
            cyc = launch_capture_with_state(
                self.logic, v1, self._los_shift(v1), self.domain
            )
        elif protocol == "es":
            if v2 is None:
                raise ConfigError("enhanced-scan simulation needs v2")
            cyc = launch_capture_with_state(self.logic, v1, v2, self.domain)
        else:
            raise ConfigError(f"unknown protocol {protocol!r}")
        launch = {fi: cyc.launch_state[fi] for fi in self.launch_time}
        if self.engine == "event":
            events = build_launch_events(
                self.design.netlist,
                cyc.frame1,
                launch,
                self.launch_time,
                self.delays.flop_ck2q_ns,
            )
            return self._event.simulate(
                cyc.frame1,
                events,
                capture_time_ns=self.period_ns,
                record_trace=record_trace,
            )
        return self._fast.simulate(
            cyc.frame1,
            cyc.frame2,
            launch,
            self.launch_time,
            capture_time_ns=self.period_ns,
        )

    def profile_pattern(
        self, pattern, index: Optional[int] = None
    ) -> PatternPowerProfile:
        """SCAP/CAP profile of one pattern (Pattern object or v1 dict)."""
        v1, idx = _as_v1(pattern, index)
        if self.cache is not None:
            key = self._profile_key(self._v1_array(v1), "loc")
            hit = self.cache.get(key)
            if hit is not None:
                return dataclasses.replace(hit, pattern_index=idx)
        result = self.simulate_pattern(v1)
        profile = PatternPowerProfile.from_timing(idx, self.period_ns, result)
        if self.cache is not None:
            self.cache.put(key, profile)
        return profile

    def profile_pattern_with_timing(
        self, pattern, index: Optional[int] = None
    ) -> Tuple[PatternPowerProfile, TimingResult]:
        """Profile plus the raw timing result (arrivals for IR/endpoints)."""
        v1, idx = _as_v1(pattern, index)
        result = self.simulate_pattern(v1)
        return (
            PatternPowerProfile.from_timing(idx, self.period_ns, result),
            result,
        )

    def profile_set(self, pattern_set) -> List[PatternPowerProfile]:
        """Profile every pattern of a :class:`PatternSet` in order."""
        return self.profile_patterns(pattern_set)

    # ------------------------------------------------------------------
    # batched grading
    # ------------------------------------------------------------------
    def profile_patterns(
        self,
        patterns,
        *,
        lane_width: int = MAX_LANE_WIDTH,
        protocol: str = "loc",
        v2_matrix: Optional[np.ndarray] = None,
    ) -> List[PatternPowerProfile]:
        """Grade a whole pattern batch; profiles in input order.

        *patterns* is a :class:`~repro.atpg.patterns.PatternSet`, a
        sequence of :class:`~repro.atpg.patterns.Pattern` objects, or a
        raw ``(n_patterns, n_flops)`` 0/1 matrix (row number = pattern
        index).  The results are bit-exact with calling
        :meth:`profile_pattern` per pattern.

        Parameters
        ----------
        lane_width:
            Patterns per bit-parallel logic-simulation lane (clamped to
            one machine word).
        protocol:
            ``"loc"`` (default), ``"los"``, or ``"es"`` (pass
            *v2_matrix*).
        """
        indices, matrix = _normalize_patterns(
            patterns, self.design.netlist.n_flops
        )
        n_pat = matrix.shape[0]
        if n_pat == 0:
            return []
        if protocol == "es":
            v2_matrix = np.asarray(v2_matrix) if v2_matrix is not None else None
            if v2_matrix is None or v2_matrix.shape != matrix.shape:
                raise ConfigError(
                    "enhanced-scan grading needs a v2_matrix matching the "
                    "pattern matrix"
                )
        elif protocol not in ("loc", "los"):
            raise ConfigError(f"unknown protocol {protocol!r}")
        lane_width = max(1, min(int(lane_width), MAX_LANE_WIDTH))
        cache = self.cache if protocol == "loc" and v2_matrix is None else None

        tel = current_telemetry()
        with tel.span(
            "scap.profile_patterns",
            domain=self.domain,
            engine=self.engine,
            n_patterns=n_pat,
        ):
            # Resolve cache hits first; only misses are simulated
            # (identical launch states inside the batch collapse to one
            # simulation).
            out: List[Optional[PatternPowerProfile]] = [None] * n_pat
            keys: List[Optional[str]] = [None] * n_pat
            miss_rows: List[int] = []
            if cache is not None:
                first_row_of_key: Dict[str, int] = {}
                for row in range(n_pat):
                    key = self._profile_key(matrix[row], protocol)
                    keys[row] = key
                    hit = cache.get(key)
                    if hit is not None:
                        out[row] = dataclasses.replace(
                            hit, pattern_index=indices[row]
                        )
                    elif key in first_row_of_key:
                        out[row] = first_row_of_key[key]  # placeholder row
                    else:
                        first_row_of_key[key] = row
                        miss_rows.append(row)
                tel.count(
                    "scap.cache_hits", n_pat - len(miss_rows)
                )
                tel.count("scap.cache_misses", len(miss_rows))
            else:
                miss_rows = list(range(n_pat))

            if miss_rows:
                miss_matrix = matrix[miss_rows]
                miss_indices = [indices[r] for r in miss_rows]
                miss_v2 = (
                    v2_matrix[miss_rows] if v2_matrix is not None else None
                )
                profiles = self._profile_lanes(
                    miss_indices, miss_matrix, protocol, miss_v2, lane_width
                )
                for row, profile in zip(miss_rows, profiles):
                    out[row] = profile
                    if cache is not None:
                        cache.put(keys[row], profile)

            # Second pass: rows that aliased an in-batch duplicate.
            for row in range(n_pat):
                if isinstance(out[row], int):
                    out[row] = dataclasses.replace(
                        out[out[row]], pattern_index=indices[row]
                    )
            tel.count("scap.patterns_profiled", n_pat)
            return out  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _profile_lanes(
        self,
        indices: Sequence[int],
        matrix: np.ndarray,
        protocol: str,
        v2_matrix: Optional[np.ndarray],
        lane_width: int,
    ) -> List[PatternPowerProfile]:
        tel = current_telemetry()
        profiles: List[PatternPowerProfile] = []
        for start in range(0, matrix.shape[0], lane_width):
            stop = start + lane_width
            with tel.span(
                "scap.lane", start=start, width=min(stop, matrix.shape[0]) - start
            ):
                profiles.extend(
                    self._profile_lane(
                        indices[start:stop],
                        matrix[start:stop],
                        protocol,
                        v2_matrix[start:stop]
                        if v2_matrix is not None
                        else None,
                    )
                )
        return profiles

    def _profile_lane(
        self,
        indices: Sequence[int],
        lane: np.ndarray,
        protocol: str,
        v2_lane: Optional[np.ndarray],
    ) -> List[PatternPowerProfile]:
        """One machine-word lane: bit-parallel logic simulation, then a
        per-pattern timing simulation on the extracted frames."""
        n_lane = lane.shape[0]
        packed, mask = pack_matrix(lane)
        if protocol == "loc":
            cyc = loc_launch_capture(self.logic, packed, self.domain, mask=mask)
        elif protocol == "los":
            cyc = launch_capture_with_state(
                self.logic, packed, self._los_shift(packed), self.domain,
                mask=mask,
            )
        else:  # "es"
            v2_packed, _ = pack_matrix(v2_lane)
            cyc = launch_capture_with_state(
                self.logic, packed, v2_packed, self.domain, mask=mask
            )
        one = np.uint64(1)
        f1_words = np.array(cyc.frame1, dtype=np.uint64)
        f2_words = (
            np.array(cyc.frame2, dtype=np.uint64)
            if self.engine == "fast"
            else None
        )
        launch_items = [
            (fi, cyc.launch_state[fi]) for fi in self.launch_time
        ]
        netlist = self.design.netlist
        ck2q = self.delays.flop_ck2q_ns
        profiles: List[PatternPowerProfile] = []
        for p in range(n_lane):
            pbit = np.uint64(p)
            frame1 = ((f1_words >> pbit) & one).astype(np.int64).tolist()
            launch = {fi: (word >> p) & 1 for fi, word in launch_items}
            if self.engine == "event":
                events = build_launch_events(
                    netlist, frame1, launch, self.launch_time, ck2q
                )
                result = self._event.simulate(
                    frame1, events, capture_time_ns=self.period_ns
                )
            else:
                frame2 = ((f2_words >> pbit) & one).astype(np.int64).tolist()
                result = self._fast.simulate(
                    frame1, frame2, launch, self.launch_time,
                    capture_time_ns=self.period_ns,
                )
            profiles.append(
                PatternPowerProfile.from_timing(
                    indices[p], self.period_ns, result
                )
            )
        return profiles

    # ------------------------------------------------------------------
    def _los_shift(self, v1: Dict[int, int]) -> Dict[int, int]:
        """V2 = V1 shifted one chain position (packed or single-bit)."""
        if self.design.scan is None:
            raise ConfigError("LOS simulation needs scan chains")
        shifted: Dict[int, int] = {}
        for chain in self.design.scan.chains:
            for pos, fi in enumerate(chain.flops):
                shifted[fi] = (
                    0 if pos == 0 else v1.get(chain.flops[pos - 1], 0)
                )
        return shifted

    def _v1_array(self, v1: Dict[int, int]) -> np.ndarray:
        arr = np.zeros(self.design.netlist.n_flops, dtype=np.uint8)
        for fi, bit in v1.items():
            arr[fi] = bit & 1
        return arr

    def _profile_key(self, v1_row: np.ndarray, protocol: str) -> str:
        payload = np.ascontiguousarray(
            np.asarray(v1_row, dtype=np.uint8)
        ).tobytes()
        return digest_key(payload, self._cache_context + (protocol,))


# ----------------------------------------------------------------------
def _normalize_patterns(
    patterns, n_flops: int
) -> Tuple[List[int], np.ndarray]:
    """(indices, (n_patterns, n_flops) uint8 matrix) from any input form."""
    if isinstance(patterns, np.ndarray):
        if patterns.ndim != 2:
            raise ConfigError("pattern matrix must be 2-D")
        if patterns.shape[1] != n_flops and patterns.shape[0]:
            raise ConfigError(
                f"pattern matrix covers {patterns.shape[1]} flops, design "
                f"has {n_flops}"
            )
        matrix = (patterns != 0).astype(np.uint8)
        return list(range(matrix.shape[0])), matrix
    indices: List[int] = []
    rows: List[np.ndarray] = []
    for pos, pattern in enumerate(patterns):
        v1 = getattr(pattern, "v1", None)
        if v1 is None:
            raise ConfigError(
                "profile_patterns needs Pattern objects or a matrix"
            )
        indices.append(int(getattr(pattern, "index", pos)))
        rows.append(np.asarray(v1, dtype=np.uint8))
    if not rows:
        return [], np.zeros((0, n_flops), dtype=np.uint8)
    return indices, np.stack(rows)


def _as_v1(pattern, index: Optional[int]) -> Tuple[Dict[int, int], int]:
    if isinstance(pattern, dict):
        if index is None:
            raise ConfigError("pass index= when profiling a raw v1 dict")
        return pattern, index
    v1 = pattern.v1_dict()
    return v1, pattern.index if index is None else index
