"""Bit-parallel zero-delay logic simulation.

Net values for a whole batch of patterns are packed into Python
arbitrary-precision integers (bit *k* of a net's word is the net's value
under pattern *k*), so one pass over the levelised gate list simulates
every pattern in the batch simultaneously.  This is the engine behind
launch-state computation, fault simulation and coverage measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import SimulationError
from ..netlist.cells import CELL_FUNCTIONS
from ..netlist.levelize import levelize
from ..netlist.netlist import Netlist


def pack_matrix(matrix: np.ndarray) -> Tuple[Dict[int, int], int]:
    """Pack an ``(n_patterns, n_columns)`` bit matrix into words.

    Bit *p* of column *c*'s word is set when ``matrix[p, c]`` is
    non-zero — the packed form every bit-parallel engine consumes.
    Vectorised: :func:`numpy.packbits` lays each column out as little-
    endian bytes and ``int.from_bytes`` lifts them to Python bigints,
    so the Python-level work is one cheap call per column instead of
    one branch per (pattern, column) pair.

    Returns ``(column -> word, mask)`` with ``mask = (1 << n_patterns)
    - 1``.
    """
    m = np.asarray(matrix)
    if m.ndim != 2:
        raise SimulationError("pack_matrix needs an (n_patterns, n_cols) matrix")
    n_pat, n_cols = m.shape
    mask = (1 << n_pat) - 1
    if n_pat == 0 or n_cols == 0:
        return {c: 0 for c in range(n_cols)}, mask
    bits = (m != 0).astype(np.uint8, copy=False)
    # (ceil(n_pat / 8), n_cols): byte k of a column covers patterns
    # 8k..8k+7, bit p-within-byte = pattern p (little bit order).
    col_bytes = np.packbits(bits, axis=0, bitorder="little").T
    col_bytes = np.ascontiguousarray(col_bytes)
    from_bytes = int.from_bytes
    return (
        {c: from_bytes(col_bytes[c].tobytes(), "little") for c in range(n_cols)},
        mask,
    )


class LogicSim:
    """Reusable zero-delay simulator bound to one netlist.

    The levelised evaluation order and per-gate function pointers are
    computed once; each call then runs in one linear pass.
    """

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        netlist.freeze()
        order, _ = levelize(netlist)
        # Pre-resolve function pointers and connectivity into flat lists.
        self._fns = [CELL_FUNCTIONS[netlist.gates[gi].kind] for gi in order]
        self._ins = [netlist.gates[gi].inputs for gi in order]
        self._outs = [netlist.gates[gi].output for gi in order]

    def propagate(self, values: List[int], mask: int) -> List[int]:
        """Evaluate all gates in place given source nets already set.

        ``values`` is indexed by net id and must hold the packed words of
        every primary input and flop Q net; the combinational interior is
        overwritten.  Returns ``values`` for chaining.
        """
        fns = self._fns
        ins = self._ins
        outs = self._outs
        for i in range(len(fns)):
            pins = ins[i]
            values[outs[i]] = fns[i]([values[p] for p in pins], mask)
        return values

    def blank_values(self) -> List[int]:
        """A zeroed value array sized for this netlist."""
        return [0] * self.netlist.n_nets

    def run(
        self,
        flop_q: Mapping[int, int],
        pi: Optional[Mapping[int, int]] = None,
        mask: int = 1,
    ) -> List[int]:
        """Simulate the combinational logic from a register/PI state.

        Parameters
        ----------
        flop_q:
            Packed Q value per flop index.  Flops not mentioned default
            to 0.
        pi:
            Packed value per primary-input *net id*; defaults to 0
            (the paper holds primary inputs constant during test).
        mask:
            ``(1 << n_patterns) - 1``.
        """
        values = self.blank_values()
        for fi, word in flop_q.items():
            values[self.netlist.flops[fi].q] = word & mask
        if pi:
            for net, word in pi.items():
                values[net] = word & mask
        return self.propagate(values, mask)

    def next_state(self, values: Sequence[int]) -> Dict[int, int]:
        """Read every flop's D net from a settled value array."""
        return {
            fi: values[f.d] for fi, f in enumerate(self.netlist.flops)
        }


@dataclass(frozen=True)
class LocCycle:
    """All artefacts of one launch-off-capture cycle (batched).

    ``frame1`` / ``frame2`` are full net-value arrays; ``launch_state``
    is the per-flop state after the launch edge; ``captured`` is the
    response captured by the pulsed-domain flops at the capture edge.
    """

    frame1: List[int]
    frame2: List[int]
    launch_state: Dict[int, int]
    captured: Dict[int, int]
    pulsed_flops: Tuple[int, ...]


def loc_launch_capture(
    sim: LogicSim,
    v1: Mapping[int, int],
    domain: str,
    pi: Optional[Mapping[int, int]] = None,
    mask: int = 1,
) -> LocCycle:
    """Simulate a full LOC cycle for a batch of patterns.

    V1 is the shifted-in scan state.  At the launch edge every
    positive-edge flop of *domain* captures its functional D input
    (launch state S2); other domains hold V1 (their clocks are off), and
    the negative-edge cells — which sit on their own scan chain in the
    case study — are masked during the at-speed cycle, as is standard
    practice, so they hold as well.  Frame 2 settles from S2 and the
    capture edge loads the pulsed flops with the response.

    Raises
    ------
    SimulationError
        If the domain has no flops.
    """
    netlist = sim.netlist
    pulsed = tuple(
        fi
        for fi, f in enumerate(netlist.flops)
        if f.clock_domain == domain and f.edge == "pos"
    )
    if not pulsed:
        raise SimulationError(f"no flops in clock domain {domain!r}")

    frame1 = sim.run(v1, pi, mask)
    launch_state = dict(v1)
    for fi in pulsed:
        launch_state[fi] = frame1[netlist.flops[fi].d] & mask
    frame2 = sim.run(launch_state, pi, mask)
    captured = {fi: frame2[netlist.flops[fi].d] & mask for fi in pulsed}
    return LocCycle(frame1, frame2, launch_state, captured, pulsed)


def launch_capture_with_state(
    sim: LogicSim,
    v1: Mapping[int, int],
    v2: Mapping[int, int],
    domain: str,
    pi: Optional[Mapping[int, int]] = None,
    mask: int = 1,
) -> LocCycle:
    """Launch/capture cycle with an *explicitly supplied* launch state.

    This models launch-off-shift (V2 = V1 shifted one chain position —
    during the last shift *every* scan cell shifts, whatever its clock
    domain) and enhanced scan (V2 arbitrary): frame 1 settles from V1,
    the launch edge forces every flop mentioned in ``v2`` to its V2 bit,
    and the capture edge samples the pulsed (positive-edge, target
    domain) flops.

    Flops absent from ``v2`` hold their V1 value.
    """
    netlist = sim.netlist
    pulsed = tuple(
        fi
        for fi, f in enumerate(netlist.flops)
        if f.clock_domain == domain and f.edge == "pos"
    )
    if not pulsed:
        raise SimulationError(f"no flops in clock domain {domain!r}")
    frame1 = sim.run(v1, pi, mask)
    launch_state = dict(v1)
    for fi, word in v2.items():
        launch_state[fi] = word & mask
    frame2 = sim.run(launch_state, pi, mask)
    captured = {fi: frame2[netlist.flops[fi].d] & mask for fi in pulsed}
    return LocCycle(frame1, frame2, launch_state, captured, pulsed)
