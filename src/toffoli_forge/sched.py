"""Commutation-aware ASAP layering of the flat construction.

Gates are packed into layers of disjoint support, group by group;
compaction never crosses a group boundary. The groups are the fan and the
mirror of each half (synth.HALVES): {C1+C2 | C3 | C4+C5 | C6}. A half of
width m layers to depth (2m - 3) + (2m - 5), so synth_toffoli(n) =
H(n, +) . H(n - 1, -) has group depths 2n-3, 2n-5, 2n-5, 2n-7, a total of
8n-20 once n >= 4.

Dependency edges come from one sequencing relation: an earlier gate h
blocks g iff they share a qubit and the pair is not a same-control rotation
pair. Same-target pairs stay ordered even though same-kind ones commute;
letting them float repacks columns so tightly that the per-group depth
formulas above no longer hold, and those exact depths are the contract. Every
pair the layers reorder commutes by the oracle in tests/circuit_helpers.py.
"""

from __future__ import annotations

from typing import NamedTuple

from .ir import SWAP, Circuit, Gate, json_block
from .synth import HALVES

__all__ = [
    "Schedule",
    "asap_schedule",
    "depth",
    "group_depths",
    "schedule_to_json",
]


class Schedule(NamedTuple):
    """layers hold gate indices into the source circuit; group_barriers are
    the layer indices where each group after the first begins."""

    layers: tuple[tuple[int, ...], ...]
    group_barriers: tuple[int, ...]


def _group_ranges(c: Circuit) -> list[tuple[int, int]]:
    if c.sections is None:
        return [(0, len(c.gates))]
    bounds = {s.label: s for s in c.sections}
    ranges = []
    for group in (g for half in HALVES for g in half):
        present = [bounds[label] for label in group if label in bounds]
        if present:
            ranges.append((present[0].start, present[-1].end))
    return ranges


def _schedule_group(gates: tuple[Gate, ...], lo: int, hi: int) -> list[tuple[int, ...]]:
    m = hi - lo
    succ: list[list[int]] = [[] for _ in range(m)]
    indeg = [0] * m

    # Per-qubit run scan. A "run" is a maximal stretch of rotations sharing
    # one control; each gate gets edges from every member of the previous
    # run on each of its qubits (transitivity covers older runs). SWAPs are
    # their own run, so they order against everything they touch.
    prev_run: dict[int, list[int]] = {}
    cur_cls: dict[int, object] = {}
    cur_run: dict[int, list[int]] = {}
    for i in range(m):
        g = gates[lo + i]
        cls: object = ("swap", i) if g.kind == SWAP else g.control
        parents: set[int] = set()
        for q in g.qubits():
            if cur_cls.get(q) == cls:
                cur_run[q].append(i)
            else:
                prev_run[q] = cur_run.get(q, [])
                cur_cls[q] = cls
                cur_run[q] = [i]
            parents.update(prev_run.get(q, ()))
        for j in parents:
            succ[j].append(i)
            indeg[i] += 1

    # Critical-path priority: longest chain of dependent gates below each node.
    chain = [1] * m
    for i in range(m - 1, -1, -1):
        best = 0
        for s in succ[i]:
            if chain[s] > best:
                best = chain[s]
        chain[i] = 1 + best

    ready = [(-chain[i], i) for i in range(m) if indeg[i] == 0]
    layers: list[tuple[int, ...]] = []
    while ready:
        layer: list[int] = []
        used: set[int] = set()
        blocked: list[tuple[int, int]] = []
        for item in sorted(ready):
            a, b = gates[lo + item[1]].qubits()
            if a in used or b in used:
                blocked.append(item)
                continue
            layer.append(item[1])
            used.add(a)
            used.add(b)
        for i in layer:
            for s in succ[i]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    blocked.append((-chain[s], s))
        ready = blocked
        layers.append(tuple(lo + i for i in layer))
    return layers


def asap_schedule(c: Circuit) -> Schedule:
    """Layer the circuit per group; see the module docstring for the rules."""
    layers: list[tuple[int, ...]] = []
    barriers: list[int] = []
    for k, (lo, hi) in enumerate(_group_ranges(c)):
        if k > 0:
            barriers.append(len(layers))
        layers.extend(_schedule_group(c.gates, lo, hi))
    s = Schedule(tuple(layers), tuple(barriers))
    _check_layers(c, s)
    return s


def _check_layers(c: Circuit, s: Schedule) -> None:
    seen: set[int] = set()
    for layer in s.layers:
        used: set[int] = set()
        for i in layer:
            a, b = c.gates[i].qubits()
            if a in used or b in used or i in seen:
                raise AssertionError("schedule produced an invalid layer")
            used.add(a)
            used.add(b)
            seen.add(i)
    if len(seen) != len(c.gates):
        raise AssertionError("schedule dropped or duplicated gates")


def depth(s: Schedule) -> int:
    return len(s.layers)  # _schedule_group places the first ready gate: no layer is empty


def group_depths(s: Schedule) -> tuple[int, ...]:
    cuts = [0, *s.group_barriers, len(s.layers)]
    return tuple(b - a for a, b in zip(cuts, cuts[1:]))


def schedule_to_json(s: Schedule) -> str:
    """Layers, group barriers and depth, as json.dumps(indent=2) writes them."""
    layers = json_block((json_block(map(str, l), 3) for l in s.layers), 2)
    barriers = json_block(map(str, s.group_barriers), 2)
    return json_block((f'"layers": {layers}', f'"group_barriers": {barriers}',
                       f'"depth": {depth(s)}'), 1, "{}")
