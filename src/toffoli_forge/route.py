"""Nearest-neighbor line mapping of the flat construction.

The flat circuit is two halves, flat = H(n, +) . H(n - 1, -) (see synth),
and each half H(m, s) runs as three segments on the first m positions:

1. fan (C1 + C2): m - 1 rotation/SWAP pipelines, one per target, each
   walking its wire from the right edge to the left, firing the next
   rotation of its column just before each SWAP; depth 4m - 6. The line
   leaves reversed.
2. mirror (C3): the fan's pipeline geometry on width m - 1, with the control
   on the right of each pair; depth 4m - 10. The line leaves as the identity
   rotated by one.
3. restore: odd-even transposition rounds back to the identity; depth m - 1.

Segment depths are thus 4n-6, 4n-10, n-1, 4n-10, 4n-14 and n-2, a total of
18n - 43. Gates in the emitted circuit act on line positions (wire index =
position), always adjacent. Slot parity alternates rotation/SWAP, so
per-slot supports are disjoint by construction. Every rotation's operands
are read off the live layout and its angle chosen by the logical (control,
target) pair, so a misplaced pipeline shows up as an assertion, not a
silently wrong circuit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .ir import CRX, SWAP, Circuit, Gate, Permutation, circuit_to_json, json_block, swap
from .synth import HALVES, gate_count, rotation_angle

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
    for k, (fan, mirror) in enumerate(HALVES, 1)
    for label in ("+".join(fan), "+".join(mirror), f"restore{k}")
)


@dataclass(frozen=True)
class RoutedCircuit:
    circuit: Circuit
    trace: tuple[tuple[int, tuple[int, ...]], ...]  # (slot, layout after it) per SWAP slot
    final_layout: Permutation
    slot_starts: tuple[int, ...]  # gate index where each slot begins, then the gate count
    segment_bounds: tuple[int, ...]  # 7 cumulative slot offsets, one per fence

    @property
    def slots(self) -> tuple[tuple[Gate, ...], ...]:
        """The circuit's gates cut into time slots (a view, rebuilt per access)."""
        g, s = self.circuit.gates, self.slot_starts
        return tuple(g[s[k] : s[k + 1]] for k in range(len(s) - 1))


def _pipeline(width: int, layout: list[int], fire, swaps: list[Gate]) -> list[list[Gate]]:
    """Slot-major walk of width - 1 rotation/SWAP pipelines on positions
    0..width-1. In slot pair r the active pairs are (p, p + 1) for
    p = |width - r - 2|, ..., width - 2 in steps of 2: each fires the rotation
    fire(p), then swaps. swaps[p] is the shared swap(p, p + 1)."""
    slots: list[list[Gate]] = []
    for r in range(2 * width - 3):
        lo = abs(width - r - 2)
        slots.append(list(map(fire, range(lo, width - 1, 2))))
        left, right = slice(lo, width - 1, 2), slice(lo + 1, width, 2)
        layout[left], layout[right] = layout[right], layout[left]
        slots.append(swaps[left])
    return slots


def _oddeven_slots(layout: list[int], swaps: list[Gate]) -> list[list[Gate]]:
    """Sort the layout with odd-even transposition rounds; only rounds that
    actually swap become slots. swaps[p] is the shared swap(p, p + 1)."""
    width = len(layout)
    identity = list(range(width))
    slots: list[list[Gate]] = []
    for r in range(width):
        if layout == identity:
            break
        round_gates: list[Gate] = []
        for p in range(r % 2, width - 1, 2):
            if layout[p] > layout[p + 1]:
                layout[p], layout[p + 1] = layout[p + 1], layout[p]
                round_gates.append(swaps[p])
        if round_gates:
            slots.append(round_gates)
    assert layout == identity
    return slots


def route_lnn(n: int) -> RoutedCircuit:
    if n < 3:
        raise ValueError("n must be >= 3")
    layout = list(range(n))
    swaps = [swap(p, p + 1) for p in range(n - 1)]
    # one shared CRX gate per (control position, target position, angle)
    rotation = functools.cache(lambda cp, tp, angle: Gate(CRX, cp, tp, None, angle))
    gates: list[Gate] = []
    starts = [0]
    bounds = [0]

    def emit(slots: list[list[Gate]]) -> None:
        for sl in slots:
            gates.extend(sl)
            starts.append(len(gates))
        bounds.append(len(starts) - 1)

    for m, sign in ((n, 1), (n - 1, -1)):

        def fan(p: int) -> Gate:
            c, t = layout[p], layout[p + 1]
            assert c < t, (c, t)
            # C2 (control wire 0) carries the half's sign, C1 is positive
            return rotation(p, p + 1, rotation_angle(c, t, sign if c == 0 else 1))

        def mirror(p: int) -> Gate:
            t, c = layout[p], layout[p + 1]
            assert 1 <= c < t, (c, t)
            return rotation(p + 1, p, rotation_angle(c, t, -1))

        emit(_pipeline(m, layout, fan, swaps))
        assert layout[:m] == list(range(m - 1, -1, -1))
        emit(_pipeline(m - 1, layout, mirror, swaps))
        assert layout[:m] == [*range(1, m), 0]
        emit(_oddeven_slots(layout, swaps))
    assert layout == list(range(n))

    # replay the SWAP slots (slots are all-rotation or all-SWAP) on a fresh
    # layout, reading the emitted gates: independent check + trace
    replay = list(range(n))
    snapshots = []
    rotations = len(gates)
    for k, (a, b) in enumerate(zip(starts, starts[1:])):
        if gates[a].kind == SWAP:
            for g in gates[a:b]:
                assert g.kind == SWAP, (k, g)
                replay[g.target], replay[g.target2] = replay[g.target2], replay[g.target]
            rotations -= b - a
            snapshots.append((k, tuple(replay)))
    final = Permutation(tuple(replay))
    assert final.is_identity()
    assert rotations == gate_count(n)

    circuit = Circuit(n, tuple(gates))
    circuit.validate()
    return RoutedCircuit(
        circuit=circuit,
        trace=tuple(snapshots),
        final_layout=final,
        slot_starts=tuple(starts),
        segment_bounds=tuple(bounds),
    )


def routed_metrics(r: RoutedCircuit) -> dict:
    """Depth/size record: totals plus per-segment depths and SWAP time steps."""
    b = r.segment_bounds
    slots = r.slots
    seg_depths = tuple(b[k + 1] - b[k] for k in range(len(b) - 1))
    seg_swap_steps = tuple(
        sum(1 for sl in slots[b[k] : b[k + 1]] if any(g.kind == SWAP for g in sl))
        for k in range(len(b) - 1)
    )
    gates = r.circuit.gates
    return {
        "depth": len(slots),
        "crx_count": sum(1 for g in gates if g.kind == CRX),
        "swap_count": sum(1 for g in gates if g.kind == SWAP),
        "per_group_depths": seg_depths,
        "per_group_swap_steps": seg_swap_steps,
        "segments": SEGMENT_LABELS,
    }


_TRACE_JSON = '{\n      "layer": %d,\n      "layout": %s\n    }'


def routed_to_json(r: RoutedCircuit) -> str:
    """The circuit object with a "trace" member appended, as
    json.dumps(indent=2) writes it."""
    trace = json_block((_TRACE_JSON % (k, json_block(map(str, layout), 4))
                        for k, layout in r.trace), 2)
    # circuit_to_json ends with the object's closing "\n}"
    return f'{circuit_to_json(r.circuit)[:-2]},\n  "trace": {trace}\n}}'
