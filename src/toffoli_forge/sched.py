"""Commutation-aware ASAP layering of the flat construction.

Gates are packed into layers of disjoint support, group by group;
compaction never crosses a group boundary. The groups are the fan and the
mirror of each half (ir.HALVES): {C1+C2 | C3 | C4+C5 | C6}; README gives
their depths.

The sequencing relation works on runs. On each qubit, a run is a maximal
stretch of consecutive gates with one control; a SWAP is a run of its own.
Every gate of a run waits for every gate of the run before it on that
qubit, and gates of one run never wait for each other. Same-target pairs
with different controls stay ordered even though same-kind ones commute;
letting them float repacks columns so tightly that the per-group depth
formulas no longer hold, and those exact depths are the contract. Every
pair the layers reorder commutes by the oracle in tests/circuit_helpers.py.

Runs are only counters, and gates are the only nodes. Each run counts its
unplaced gates; when the count reaches 0, each gate of the next run on
that qubit has one wait fewer, and a gate with none left is ready. A gate's
priority is its chain, 1 + the largest chain in the next run on either of
its qubits (one reverse pass). Each layer takes the ready gates in order of
(-chain, index) and keeps those whose qubits are still free in it.
_check_layers rebuilds the relation from the gate list alone and checks
every layer against it.
"""

from __future__ import annotations

from typing import NamedTuple

from .ir import HALVES, SWAP, Circuit, Gate, json_block

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
    for group in (g for *_, fan, mirror in HALVES for g in (fan, mirror)):
        present = [bounds[label] for label in group if label in bounds]
        if present:
            ranges.append((present[0].start, present[-1].end))
    return ranges


def _schedule_group(gates: tuple[Gate, ...], lo: int, hi: int, n: int) -> list[tuple[int, ...]]:
    # Per gate: its two qubits (control first), its run on each, and how
    # many runs before those still hold unplaced gates. Flat int lists, not
    # tuples: a tuple per gate costs a seventh of the whole in allocation.
    m = hi - lo
    qa, qb, run_a, run_b, wait = ([0] * m for _ in range(5))
    # Per run: its gates, whether a run precedes it on its qubit, and the
    # run after it there. Run 0 holds no gate and stands for "none".
    members: list[list[int]] = [[]]
    preceded = [False]
    nxt = [0]
    cls_of = [-1] * n  # control of each qubit's current run; n + i for SWAP i
    run_of = [0] * n
    # The two qubits are unrolled here and in the release loop below: a loop
    # over them costs a third of the whole.
    for i in range(m):
        kind, a, b, b2, _ = gates[lo + i]
        if kind == SWAP:
            a, b, cls = b, b2, n + i
        else:
            cls = a
        if cls_of[a] != cls:
            cls_of[a], r = cls, run_of[a]
            preceded.append(r > 0)
            nxt[r] = run_of[a] = len(members)
            members.append([])
            nxt.append(0)
        if cls_of[b] != cls:
            cls_of[b], r = cls, run_of[b]
            preceded.append(r > 0)
            nxt[r] = run_of[b] = len(members)
            members.append([])
            nxt.append(0)
        ra, rb = run_of[a], run_of[b]
        qa[i], qb[i], run_a[i], run_b[i] = a, b, ra, rb
        members[ra].append(i)
        members[rb].append(i)
        wait[i] = preceded[ra] + preceded[rb]

    # Critical-path priority: 1 + the largest chain in the next run on
    # either qubit (best[0] stays 0).
    left = list(map(len, members))  # unplaced gates per run
    best = [0] * len(members)
    chain = [0] * m
    for i in range(m - 1, -1, -1):
        ra, rb = run_a[i], run_b[i]
        ca, cb = best[nxt[ra]], best[nxt[rb]]
        c = chain[i] = 1 + (ca if ca > cb else cb)
        if c > best[ra]:
            best[ra] = c
        if c > best[rb]:
            best[rb] = c

    ready = [(-chain[i], i) for i in range(m) if not wait[i]]
    stamp = [-1] * n  # the last layer that uses each qubit
    layers: list[tuple[int, ...]] = []
    while ready:
        k = len(layers)
        layer: list[int] = []
        blocked: list[tuple[int, int]] = []
        ready.sort()
        for item in ready:
            i = item[1]
            a, b = qa[i], qb[i]
            if stamp[a] == k or stamp[b] == k:
                blocked.append(item)
            else:
                stamp[a] = stamp[b] = k
                layer.append(i)
        for i in layer:
            ra, rb = run_a[i], run_b[i]
            left[ra] -= 1
            if not left[ra]:
                for j in members[nxt[ra]]:
                    wait[j] -= 1
                    if not wait[j]:
                        blocked.append((-chain[j], j))
            left[rb] -= 1
            if not left[rb]:
                for j in members[nxt[rb]]:
                    wait[j] -= 1
                    if not wait[j]:
                        blocked.append((-chain[j], j))
        ready = blocked
        layers.append(tuple([lo + i for i in layer]))
    return layers


def asap_schedule(c: Circuit) -> Schedule:
    """Layer the circuit per group; see the module docstring for the rules."""
    if c.n_qubits > 2 * len(c.gates):  # wider than its gates: size per-qubit lists by theirs
        label = {q: i for i, q in enumerate(dict.fromkeys(q for g in c.gates for q in g.qubits()))}
        label[None] = None  # an injective relabel: the layers only tell qubits apart
        c = Circuit(len(label), tuple(g._replace(control=label[g.control], target=label[g.target],
                                                 target2=label[g.target2]) for g in c.gates), c.sections)
    layers: list[tuple[int, ...]] = []
    barriers: list[int] = []
    for k, (lo, hi) in enumerate(_group_ranges(c)):
        if k > 0:
            barriers.append(len(layers))
        layers.extend(_schedule_group(c.gates, lo, hi, c.n_qubits))
    s = Schedule(tuple(layers), tuple(barriers))
    _check_layers(c, s)
    return s


def _check_layers(c: Circuit, s: Schedule) -> None:
    n = c.n_qubits
    ends = [g.qubits() for g in c.gates]
    layer_of = [-1] * len(ends)
    stamp = [-1] * n  # the last layer that uses each qubit
    if min(map(min, filter(None, s.layers)), default=0) < 0:  # would alias a gate
        raise AssertionError("schedule produced an invalid layer")
    for k, layer in enumerate(s.layers):
        for i in layer:
            a, b = ends[i]
            if stamp[a] == k or stamp[b] == k or layer_of[i] >= 0:
                raise AssertionError("schedule produced an invalid layer")
            stamp[a] = stamp[b] = k
            layer_of[i] = k
    if -1 in layer_of:
        raise AssertionError("schedule dropped or duplicated gates")
    # The sequencing relation, rebuilt from the gate list: on each qubit,
    # each run lies in later layers than every gate of the run before it.
    cls_of = [-1] * n  # control of each qubit's current run; n + i for SWAP i
    last = [-1] * n  # latest layer of each qubit's current run
    floor = [-1] * n  # latest layer of the run before it
    for i, g, (a, b), k in zip(range(len(ends)), c.gates, ends, layer_of):
        cls = n + i if g.kind == SWAP else a
        if cls_of[a] != cls:
            cls_of[a], floor[a] = cls, last[a]
        if cls_of[b] != cls:
            cls_of[b], floor[b] = cls, last[b]
        if k <= floor[a] or k <= floor[b]:
            raise AssertionError(f"schedule places gate {i} before a gate it must follow")
        if k > last[a]:
            last[a] = k
        if k > last[b]:
            last[b] = k


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
