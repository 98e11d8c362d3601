"""Nearest-neighbor line mapping of the flat construction.

Each half H(m, s) of the flat circuit (ir.HALVES) runs as three segments on
the first m positions; README gives their depths:

1. fan (C1 + C2): m - 1 rotation/SWAP pipelines, one per target, each
   walking its wire from the right edge to the left, firing the next
   rotation of its column just before each SWAP. The line leaves reversed.
2. mirror (C3): the fan's pipeline geometry on width m - 1, with the control
   on the right of each pair. The line leaves as the identity rotated by one.
3. restore: wire 0 walks back from position m - 1 to 0.

Gates act on line positions (wire index = position), always adjacent. Slot
parity alternates rotation/SWAP, so per-slot supports are disjoint by
construction. Every rotation's operands are read off the live layout, which
moves as each SWAP slot is emitted, and its angle is synth.rotation_angle's
for the logical (control, target) pair, so every gate is valid by
construction. A fence checks the layout after each segment, so a misplaced
pipeline raises AssertionError naming its segment, under python -O too, not
a silently wrong circuit. The fences leave the identity: the first half's
restore fence pins all n positions, and the second half never moves
position n - 1.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Iterator
from typing import NamedTuple

from .ir import CRX, HALVES, SWAP, Circuit, DyadicAngle, Gate, circuit_to_json, json_block, swap
from .synth import gate_count, rotation_angle

__all__ = [
    "SEGMENT_LABELS",
    "RoutedCircuit",
    "route_lnn",
    "routed_metrics",
    "routed_to_json",
]

# per half: fan, mirror, restore
SEGMENT_LABELS = tuple(
    label
    for k, (*_, fan, mirror) in enumerate(HALVES, 1)
    for label in ("+".join(fan), "+".join(mirror), f"restore{k}")
)


class RoutedCircuit(NamedTuple):
    circuit: Circuit
    trace: tuple[tuple[int, tuple[int, ...]], ...]  # (slot, layout after it) per SWAP slot
    slot_starts: tuple[int, ...]  # gate index where each slot begins, then the gate count
    segment_bounds: tuple[int, ...]  # 7 cumulative slot offsets, one per fence

    @property
    def slots(self) -> tuple[tuple[Gate, ...], ...]:
        """The circuit's gates cut into time slots (a view, rebuilt per access)."""
        g, s = self.circuit.gates, self.slot_starts
        return tuple(g[s[k] : s[k + 1]] for k in range(len(s) - 1))


def _pipeline(width: int, fire, swaps: list[Gate]) -> Iterator[list[Gate]]:
    """Slot-major walk of width - 1 rotation/SWAP pipelines on positions
    0..width-1, yielding each slot in turn. In slot pair r the active pairs
    are (p, p + 1) for p = |width - r - 2|, ..., width - 2 in steps of 2:
    fire(those p) gives their rotations, then they swap. The caller applies
    each SWAP slot to the layout before asking for the next rotation slot.
    swaps[p] is the shared swap(p, p + 1)."""
    for r in range(2 * width - 3):
        lo = abs(width - r - 2)
        yield fire(range(lo, width - 1, 2))
        yield swaps[lo : width - 1 : 2]


def route_lnn(n: int) -> RoutedCircuit:
    if n < 3:
        raise ValueError("n must be >= 3")
    layout = list(range(n))
    swaps = [swap(p, p + 1) for p in range(n - 1)]
    # Per position p, the fan's CRX(p -> p + 1) and the mirror's
    # CRX(p + 1 -> p): one shared gate per angle, keyed by that angle.
    fan_at: list[dict[DyadicAngle, Gate]] = [{} for _ in swaps]
    mirror_at: list[dict[DyadicAngle, Gate]] = [{} for _ in swaps]

    gates: list[Gate] = []
    starts = [0]
    bounds = [0]
    trace = []
    rotations = 0

    def emit(slots: Iterable[list[Gate]], fence: list[int]) -> None:
        nonlocal rotations
        for sl in slots:
            gates.extend(sl)
            starts.append(len(gates))
            if sl[0].kind == SWAP:
                # a SWAP slot is swap(p, p + 1) for every other p from lo on
                lo, hi = sl[0].target, sl[-1].target2 + 1
                layout[lo:hi:2], layout[lo + 1 : hi : 2] = layout[lo + 1 : hi : 2], layout[lo:hi:2]
                trace.append((len(starts) - 2, tuple(layout)))
            else:
                rotations += len(sl)
        bounds.append(len(starts) - 1)
        if layout[: len(fence)] != fence:
            raise AssertionError(f"after {SEGMENT_LABELS[len(bounds) - 2]}: layout {layout}")

    for narrower, sign, *_ in HALVES:
        m = n - narrower

        def fan(ps: range) -> list[Gate]:
            out = []
            for p, c, t in zip(ps, layout[ps.start :: 2], layout[ps.start + 1 :: 2]):
                if c >= t:
                    raise AssertionError((c, t))
                # C2 (control wire 0) carries the half's sign, C1 is positive
                angle = rotation_angle(c, t, sign if c == 0 else 1)
                table = fan_at[p]
                out.append(table.get(angle) or table.setdefault(angle, Gate(CRX, p, p + 1, None, angle)))
            return out

        def mirror(ps: range) -> list[Gate]:
            out = []
            for p, t, c in zip(ps, layout[ps.start :: 2], layout[ps.start + 1 :: 2]):
                if not 1 <= c < t:
                    raise AssertionError((c, t))
                angle = rotation_angle(c, t, -1)
                table = mirror_at[p]
                out.append(table.get(angle) or table.setdefault(angle, Gate(CRX, p + 1, p, None, angle)))
            return out

        emit(_pipeline(m, fan, swaps), list(range(m - 1, -1, -1)))
        emit(_pipeline(m - 1, mirror, swaps), [*range(1, m), 0])
        emit(([swaps[p]] for p in range(m - 2, -1, -1)), list(range(m)))
    if rotations != gate_count(n):
        raise AssertionError(f"{rotations} rotations, not {gate_count(n)}")

    return RoutedCircuit(
        circuit=Circuit(n, tuple(gates)),
        trace=tuple(trace),
        slot_starts=tuple(starts),
        segment_bounds=tuple(bounds),
    )


def routed_metrics(r: RoutedCircuit) -> dict:
    """Depth/size record: totals plus per-segment depths and SWAP time steps."""
    b, gates = r.segment_bounds, r.circuit.gates
    swap_slots = [k for k, _ in r.trace]  # one entry per SWAP slot; no slot mixes kinds
    return {
        "depth": b[-1],
        "crx_count": sum(1 for g in gates if g.kind == CRX),
        "swap_count": sum(1 for g in gates if g.kind == SWAP),
        "per_group_depths": tuple(hi - lo for lo, hi in zip(b, b[1:])),
        "per_group_swap_steps": tuple(bisect_left(swap_slots, hi) - bisect_left(swap_slots, lo)
                                      for lo, hi in zip(b, b[1:])),
        "segments": SEGMENT_LABELS,
    }


_TRACE_JSON = '{\n      "layer": %d,\n      "layout": %s\n    }'


def routed_to_json(r: RoutedCircuit) -> str:
    """The circuit object with a "trace" member appended, as
    json.dumps(indent=2) writes it."""
    wires = list(map(str, range(r.circuit.n_qubits)))  # each wire number formatted once
    trace = json_block((_TRACE_JSON % (k, json_block(map(wires.__getitem__, layout), 4))
                        for k, layout in r.trace), 2)
    return circuit_to_json(r.circuit, [f'"trace": {trace}'])
