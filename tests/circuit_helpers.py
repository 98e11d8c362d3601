"""Circuit transforms the tests share; the library does not need them."""

from __future__ import annotations

from toffoli_forge.ir import SWAP, Circuit, DyadicAngle, Gate, dyadic


def angle_add(a: DyadicAngle, b: DyadicAngle) -> DyadicAngle:
    """Exact sum of two dyadic angles, canonicalized."""
    e = max(a.den_exp, b.den_exp)
    return dyadic((a.num << (e - a.den_exp)) + (b.num << (e - b.den_exp)), e)


def commutes(g: Gate, h: Gate) -> bool:
    """Conservative commutation test for the gate kinds in the IR: gates on
    disjoint wires, rotations with one control, and rotations of one kind on
    one target commute; a SWAP commutes with nothing it touches. It is the
    oracle that asap_schedule's sequencing relation is checked against."""
    if set(g.qubits()).isdisjoint(h.qubits()):
        return True
    if g.kind == SWAP or h.kind == SWAP:
        return False
    if g.control == h.control and g.target != h.target:
        return True
    return g.target == h.target and g.kind == h.kind


def reference_schedule_group(gates: tuple[Gate, ...], lo: int, hi: int) -> list[tuple[int, ...]]:
    """The edge-list form of sched._schedule_group, kept as its oracle: the
    same runs, but every gate gets an edge from every member of the run
    before it on each of its qubits, and a layer tracks its qubits in a set."""
    m = hi - lo
    succ: list[list[int]] = [[] for _ in range(m)]
    indeg = [0] * m

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

    chain = [1] * m
    for i in range(m - 1, -1, -1):
        chain[i] = 1 + max((chain[s] for s in succ[i]), default=0)

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


def inverse(c: Circuit) -> Circuit:
    """Reverse gate order and negate rotation angles. Sections are dropped."""
    inv = tuple(
        g if g.kind == SWAP else g._replace(angle=-g.angle) for g in reversed(c.gates)
    )
    return Circuit(c.n_qubits, inv, None, c.basis_layer)


def permute_outputs(c: Circuit, m: tuple[int, ...]) -> Circuit:
    """Relabel wires: wire w becomes m[w] in every gate."""
    if sorted(m) != list(range(c.n_qubits)):
        raise ValueError(f"not a permutation of the {c.n_qubits} wires: {m}")

    def remap(g: Gate) -> Gate:
        if g.kind == SWAP:
            return Gate(SWAP, None, m[g.target], m[g.target2], None)
        return Gate(g.kind, m[g.control], m[g.target], None, g.angle)

    layer = None
    if c.basis_layer is not None:
        out = [0] * c.n_qubits
        for w, e in enumerate(c.basis_layer):
            out[m[w]] = e
        layer = tuple(out)
    return Circuit(c.n_qubits, tuple(remap(g) for g in c.gates), c.sections, layer)

