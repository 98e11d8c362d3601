"""Circuit transforms the tests share; the library does not need them."""

from __future__ import annotations

from toffoli_forge import route
from toffoli_forge.ir import SWAP, Circuit, DyadicAngle, Gate, Permutation, dyadic, swap


def angle_add(a: DyadicAngle, b: DyadicAngle) -> DyadicAngle:
    """Exact sum of two dyadic angles, canonicalized."""
    e = max(a.den_exp, b.den_exp)
    return dyadic((a.num << (e - a.den_exp)) + (b.num << (e - b.den_exp)), e)


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


def restore_permutation(p: Permutation) -> Circuit:
    """Adjacent-SWAP circuit that turns layout p into the identity layout,
    from the odd-even rounds that close each half of route_lnn."""
    n = len(p.mapping)
    slots = route._oddeven_slots(list(p.mapping), [swap(q, q + 1) for q in range(n - 1)])
    return Circuit(n, tuple(g for sl in slots for g in sl))
