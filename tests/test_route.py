"""Line mapping: golden slots, segment formulas, restores, equivalence."""

import numpy as np
import pytest

from toffoli_forge import ir, route, sim, synth

from circuit_helpers import restore_permutation


def test_n5_golden_opening_slots():
    r = route.route_lnn(5)
    s = r.slots
    assert s[0] == (ir.Gate(ir.CRX, 3, 4, None, ir.dyadic(1, 1)),)
    assert s[1] == (ir.swap(3, 4),)
    assert s[2] == (ir.Gate(ir.CRX, 2, 3, None, ir.dyadic(1, 2)),)
    assert s[3] == (ir.swap(2, 3),)
    assert s[4] == (
        ir.Gate(ir.CRX, 1, 2, None, ir.dyadic(1, 3)),
        ir.Gate(ir.CRX, 3, 4, None, ir.dyadic(1, 1)),
    )


def test_n5_first_group_metrics():
    r = route.route_lnn(5)
    m = route.routed_metrics(r)
    assert m["per_group_depths"][0] == 14
    assert m["per_group_swap_steps"][0] == 7  # time steps containing SWAPs
    first = [g for sl in r.slots[: r.segment_bounds[1]] for g in sl]
    assert sum(1 for g in first if g.kind == ir.SWAP) == 10
    assert sum(1 for g in first if g.kind == ir.CRX) == 10


def test_n5_layout_after_first_group_is_reversed():
    r = route.route_lnn(5)
    end = r.segment_bounds[1] - 1
    layouts = dict(r.trace)
    assert layouts[end] == (4, 3, 2, 1, 0)


def test_last_wire_pipeline_angles():
    # the a_n pipeline fires pi/2, pi/4, ..., pi/2^{n-2}, pi/2^{n-2}; it owns
    # the leftmost rotation of every other slot (slots are position-sorted)
    n = 6
    r = route.route_lnn(n)
    exps = [r.slots[2 * i - 2][0].angle.den_exp for i in range(1, n)]
    assert exps == [1, 2, 3, 4, 4]


@pytest.mark.parametrize("n", range(5, 21))
def test_segment_formulas(n):
    m = route.routed_metrics(route.route_lnn(n))
    assert m["per_group_depths"] == (
        4 * n - 6, 4 * n - 10, n - 1, 4 * n - 10, 4 * n - 14, n - 2,
    )
    assert m["depth"] == 18 * n - 43
    assert m["crx_count"] == synth.gate_count(n)
    swaps = (
        n * (n - 1) // 2
        + (n - 1) * (n - 2) // 2 * 2
        + (n - 2) * (n - 3) // 2
        + (n - 1)
        + (n - 2)
    )
    assert m["swap_count"] == swaps


@pytest.mark.parametrize("n", (3, 4, 5, 8, 13))
def test_all_gates_adjacent_and_layout_restored(n):
    r = route.route_lnn(n)
    for g in r.circuit.gates:
        a, b = g.qubits()
        assert abs(a - b) == 1
    assert r.final_layout.is_identity()


def test_trace_consistent_with_swaps():
    r = route.route_lnn(6)
    layout = list(range(6))
    snaps = dict(r.trace)
    for k, sl in enumerate(r.slots):
        swapped = False
        for g in sl:
            if g.kind == ir.SWAP:
                layout[g.target], layout[g.target2] = layout[g.target2], layout[g.target]
                swapped = True
        if swapped:
            assert snaps[k] == tuple(layout)
        else:
            assert k not in snaps
    assert layout == list(range(6))


@pytest.mark.parametrize("n", range(3, 8))
def test_routed_unitary_matches_reference(n):
    dev = sim.global_phase_deviation(
        sim.unitary_of(route.route_lnn(n).circuit), sim.reference_unitary(n)
    )
    assert dev <= 1e-9


def test_slots_have_disjoint_support():
    r = route.route_lnn(7)
    for sl in r.slots:
        used = [q for g in sl for q in g.qubits()]
        assert len(used) == len(set(used))


def test_restore_identity_is_empty():
    c = restore_permutation(ir.Permutation((0, 1, 2, 3)))
    assert c.gates == ()


def test_restore_rotation():
    p = ir.Permutation((1, 2, 3, 4, 0))
    c = restore_permutation(p)
    assert len(c.gates) == 4
    layout = list(p.mapping)
    for g in c.gates:
        layout[g.target], layout[g.target2] = layout[g.target2], layout[g.target]
    assert layout == [0, 1, 2, 3, 4]


def test_restore_reversal_size_and_depth():
    c = restore_permutation(ir.Permutation((4, 3, 2, 1, 0)))
    assert len(c.gates) == 10
    assert all(abs(g.target - g.target2) == 1 for g in c.gates)


@pytest.mark.parametrize("n", (8, 64))
def test_route_shares_gate_objects(n):
    # equal gates are one object: a SWAP per position, a rotation per
    # (position pair, angle), so the gate list costs a pointer per gate
    gates = route.route_lnn(n).circuit.gates
    assert len({id(g) for g in gates}) == len(set(gates)) < len(gates) // 4


def test_rejects_n2():
    with pytest.raises(ValueError):
        route.route_lnn(2)


def test_routed_json_contains_trace():
    import json

    r = route.route_lnn(4)
    obj = json.loads(route.routed_to_json(r))
    assert len(obj["gates"]) == len(r.circuit.gates)
    assert obj["trace"][-1]["layout"] == [0, 1, 2, 3]
    assert [t["layer"] for t in obj["trace"]] == sorted(t["layer"] for t in obj["trace"])
