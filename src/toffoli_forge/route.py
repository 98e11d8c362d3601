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

import json
from dataclasses import dataclass

from .ir import CRX, Circuit, Gate, Permutation, circuit_to_json, swap
from .synth import HALVES, rotation_angle

__all__ = [
    "SEGMENT_LABELS",
    "LayoutTrace",
    "RoutedCircuit",
    "route_lnn",
    "restore_permutation",
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
class LayoutTrace:
    """(slot index, layout after that slot) for every slot containing SWAPs."""

    snapshots: tuple[tuple[int, Permutation], ...]


@dataclass(frozen=True)
class RoutedCircuit:
    circuit: Circuit
    trace: LayoutTrace
    final_layout: Permutation
    slots: tuple[tuple[Gate, ...], ...]
    segment_bounds: tuple[int, ...]  # 7 cumulative slot offsets, one per fence


def _pipeline(width: int, layout: list[int], fire) -> list[list[Gate]]:
    """Slot-major walk of width - 1 rotation/SWAP pipelines on positions
    0..width-1. In slot pair r the active pairs are (p, p + 1) for
    p = |width - r - 2|, ..., width - 2 in steps of 2: each fires the rotation
    fire(p), then swaps."""
    slots: list[list[Gate]] = []
    for r in range(2 * width - 3):
        ps = range(abs(width - r - 2), width - 1, 2)
        slots.append([fire(p) for p in ps])
        for p in ps:
            layout[p], layout[p + 1] = layout[p + 1], layout[p]
        slots.append([swap(p, p + 1) for p in ps])
    return slots


def _oddeven_slots(layout: list[int]) -> list[list[Gate]]:
    """Sort the layout with odd-even transposition rounds; only rounds that
    actually swap become slots."""
    width = len(layout)
    slots: list[list[Gate]] = []
    for r in range(width):
        if all(layout[p] == p for p in range(width)):
            break
        round_gates: list[Gate] = []
        for p in range(r % 2, width - 1, 2):
            if layout[p] > layout[p + 1]:
                layout[p], layout[p + 1] = layout[p + 1], layout[p]
                round_gates.append(swap(p, p + 1))
        if round_gates:
            slots.append(round_gates)
    assert all(layout[p] == p for p in range(width))
    return slots


def restore_permutation(p: Permutation) -> Circuit:
    """Adjacent-SWAP circuit that turns layout p into the identity layout."""
    layout = list(p.mapping)
    slots = _oddeven_slots(layout)
    return Circuit(len(p.mapping), tuple(g for sl in slots for g in sl))


def route_lnn(n: int) -> RoutedCircuit:
    if n < 3:
        raise ValueError("n must be >= 3")
    layout = list(range(n))
    slots: list[list[Gate]] = []
    bounds = [0]
    for m, sign in ((n, 1), (n - 1, -1)):

        def fan(p: int) -> Gate:
            c, t = layout[p], layout[p + 1]
            assert c < t, (c, t)
            # C2 (control wire 0) carries the half's sign, C1 is positive
            angle = rotation_angle(c, t, sign if c == 0 else 1)
            return Gate(CRX, p, p + 1, None, angle)

        def mirror(p: int) -> Gate:
            t, c = layout[p], layout[p + 1]
            assert 1 <= c < t, (c, t)
            return Gate(CRX, p + 1, p, None, rotation_angle(c, t, -1))

        slots += _pipeline(m, layout, fan)
        assert layout[:m] == list(range(m - 1, -1, -1))
        bounds.append(len(slots))
        slots += _pipeline(m - 1, layout, mirror)
        assert layout[:m] == [*range(1, m), 0]
        bounds.append(len(slots))
        slots += _oddeven_slots(layout)
        bounds.append(len(slots))
    assert layout == list(range(n))

    # replay the slots on a fresh layout: independent check + trace
    replay = list(range(n))
    snapshots = []
    for k, sl in enumerate(slots):
        swapped = False
        for g in sl:
            if g.kind == "swap":
                replay[g.target], replay[g.target2] = replay[g.target2], replay[g.target]
                swapped = True
        if swapped:
            snapshots.append((k, Permutation(tuple(replay))))
    final = Permutation(tuple(replay))
    assert final.is_identity()

    circuit = Circuit(n, tuple(g for sl in slots for g in sl))
    circuit.validate()
    return RoutedCircuit(
        circuit=circuit,
        trace=LayoutTrace(tuple(snapshots)),
        final_layout=final,
        slots=tuple(tuple(sl) for sl in slots),
        segment_bounds=tuple(bounds),
    )


def routed_metrics(r: RoutedCircuit) -> dict:
    """Depth/size record: totals plus per-segment depths and SWAP time steps."""
    b = r.segment_bounds
    seg_depths = tuple(b[k + 1] - b[k] for k in range(len(b) - 1))
    seg_swap_steps = tuple(
        sum(1 for sl in r.slots[b[k] : b[k + 1]] if any(g.kind == "swap" for g in sl))
        for k in range(len(b) - 1)
    )
    gates = r.circuit.gates
    return {
        "depth": len(r.slots),
        "crx_count": sum(1 for g in gates if g.kind == CRX),
        "swap_count": sum(1 for g in gates if g.kind == "swap"),
        "per_group_depths": seg_depths,
        "per_group_swap_steps": seg_swap_steps,
        "segments": SEGMENT_LABELS,
    }


def routed_to_json(r: RoutedCircuit) -> str:
    obj = json.loads(circuit_to_json(r.circuit))
    obj["trace"] = [
        {"layer": k, "layout": list(p.mapping)} for k, p in r.trace.snapshots
    ]
    return json.dumps(obj, indent=2)
