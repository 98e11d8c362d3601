"""Circuit transforms the tests share; the library does not need them."""

from __future__ import annotations

from toffoli_forge.ir import SWAP, Circuit, DyadicAngle, Gate, Permutation, dyadic


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


def inverse(c: Circuit) -> Circuit:
    """Reverse gate order and negate rotation angles. Sections are dropped."""
    inv = tuple(
        g if g.kind == SWAP else g._replace(angle=-g.angle) for g in reversed(c.gates)
    )
    return Circuit(c.n_qubits, inv, None, c.basis_layer)


def permute_outputs(c: Circuit, p: Permutation) -> Circuit:
    """Relabel wires: wire w becomes p.mapping[w] in every gate."""
    if len(p.mapping) != c.n_qubits:
        raise ValueError("permutation width mismatch")
    m = p.mapping

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

