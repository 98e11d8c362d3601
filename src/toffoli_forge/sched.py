"""Commutation-aware ASAP layering of the flat construction.

Gates are packed into layers of disjoint support, group by group;
compaction never crosses a group boundary. The groups are the fan and the
mirror of each half (synth.HALVES): {C1+C2 | C3 | C4+C5 | C6}. A half of
width m layers to depth (2m - 3) + (2m - 5), so synth_toffoli(n) =
H(n, +) . H(n - 1, -) has group depths 2n-3, 2n-5, 2n-5, 2n-7, a total of
8n-20 once n >= 4.

Two relations matter here and they are deliberately distinct:

* commutes(g, h): the semantic test. Same-control rotations commute, and so
  do same-kind rotations sharing a target (common-axis blocks).
* the sequencing relation used to build dependency edges: an earlier gate h
  blocks g iff they share a qubit and the pair is not a same-control
  rotation pair. Same-target pairs stay ordered even though they commute;
  letting them float repacks columns so tightly that the per-group depth
  formulas above no longer hold, and those exact depths are the contract.
  Any flattening of the resulting layers is still one of the orders the
  commutes() relation proves equivalent.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .ir import SWAP, Circuit, Gate, json_block
from .synth import HALVES

__all__ = [
    "Schedule",
    "commutes",
    "asap_schedule",
    "depth",
    "group_depths",
    "schedule_to_json",
]


@dataclass(frozen=True)
class Schedule:
    """layers hold gate indices into the source circuit; group_barriers are
    the layer indices where each group after the first begins."""

    layers: tuple[tuple[int, ...], ...]
    group_barriers: tuple[int, ...]


def commutes(g: Gate, h: Gate) -> bool:
    """Conservative commutation test for the gate kinds in this IR."""
    if set(g.qubits()).isdisjoint(h.qubits()):
        return True
    if g.kind == SWAP or h.kind == SWAP:
        return False
    if g.control == h.control and g.target != h.target:
        return True
    if g.target == h.target and g.kind == h.kind:
        return True
    return False


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
    if m == 0:
        return []
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
    heapq.heapify(ready)
    layers: list[tuple[int, ...]] = []
    placed = 0
    while placed < m:
        layer: list[int] = []
        used: set[int] = set()
        blocked: list[tuple[int, int]] = []
        while ready:
            item = heapq.heappop(ready)
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
        heapq.heapify(ready)
        layers.append(tuple(lo + i for i in layer))
        placed += len(layer)
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
    return sum(1 for layer in s.layers if layer)


def group_depths(s: Schedule) -> tuple[int, ...]:
    cuts = [0, *s.group_barriers, len(s.layers)]
    return tuple(
        sum(1 for layer in s.layers[cuts[k] : cuts[k + 1]] if layer)
        for k in range(len(cuts) - 1)
    )


def schedule_to_json(s: Schedule) -> str:
    """Layers, group barriers and depth, as json.dumps(indent=2) writes them."""
    layers = json_block((json_block(map(str, l), 3) for l in s.layers), 2)
    barriers = json_block(map(str, s.group_barriers), 2)
    return json_block((f'"layers": {layers}', f'"group_barriers": {barriers}',
                       f'"depth": {depth(s)}'), 1, "{}")
