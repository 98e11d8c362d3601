"""Layering: depth formulas, commutation soundness, semantics preservation."""

import numpy as np
import pytest

from toffoli_forge import ir, sched, sim, synth


def test_commutes_spec_cases():
    assert sched.commutes(ir.crx(ir.dyadic(1, 1), 0, 1), ir.crx(ir.dyadic(1, 2), 0, 2))
    assert sched.commutes(ir.crx(ir.dyadic(1, 1), 0, 2), ir.crx(ir.dyadic(1, 2), 1, 2))
    assert not sched.commutes(ir.crx(ir.dyadic(1, 1), 0, 1), ir.crx(ir.PI, 2, 0))
    assert sched.commutes(ir.crx(ir.PI, 0, 1), ir.crx(ir.PI, 2, 3))
    # mixed kinds: same control yes, same target no
    assert sched.commutes(ir.crx(ir.PI, 0, 1), ir.cprx(ir.PI, 0, 2))
    assert not sched.commutes(ir.crx(ir.PI, 0, 2), ir.cprx(ir.PI, 1, 2))
    assert sched.commutes(ir.cprx(ir.PI, 0, 2), ir.cprx(ir.PI, 1, 2))
    # swaps only commute when disjoint
    assert not sched.commutes(ir.swap(0, 1), ir.crx(ir.PI, 1, 2))
    assert not sched.commutes(ir.swap(0, 1), ir.swap(1, 2))
    assert sched.commutes(ir.swap(0, 1), ir.swap(2, 3))


def _order_free(g: ir.Gate, h: ir.Gate, n: int = 4) -> bool:
    a = sim.unitary_of(ir.Circuit(n, (g, h)))
    b = sim.unitary_of(ir.Circuit(n, (h, g)))
    return bool(np.max(np.abs(a - b)) <= 1e-12)


def test_commutes_is_sound_on_random_pairs():
    rng = np.random.default_rng(11)
    makers = (ir.crx, ir.cprx)
    for _ in range(100):
        mk1, mk2 = makers[rng.integers(2)], makers[rng.integers(2)]
        q = rng.permutation(4)
        a1 = ir.dyadic(int(rng.integers(-7, 8)) or 3, int(rng.integers(0, 4)))
        a2 = ir.dyadic(int(rng.integers(-7, 8)) or 5, int(rng.integers(0, 4)))
        g = mk1(a1, int(q[0]), int(q[1]))
        pick = rng.integers(4)
        if pick == 0:
            h = mk2(a2, int(q[0]), int(q[2]))
        elif pick == 1:
            h = mk2(a2, int(q[2]), int(q[1]))
        elif pick == 2:
            h = mk2(a2, int(q[1]), int(q[2]))
        else:
            h = mk2(a2, int(q[2]), int(q[3]))
        if sched.commutes(g, h):
            assert _order_free(g, h), (g, h)


@pytest.mark.parametrize("n", range(4, 33))
def test_depth_formula(n):
    s = sched.asap_schedule(synth.synth_toffoli(n))
    assert sched.depth(s) == 8 * n - 20
    assert sched.group_depths(s) == (2 * n - 3, 2 * n - 5, 2 * n - 5, 2 * n - 7)


def test_small_widths():
    s2 = sched.asap_schedule(synth.synth_toffoli(2))
    assert sched.depth(s2) == 1
    s3 = sched.asap_schedule(synth.synth_toffoli(3))
    assert sched.depth(s3) == 5
    assert sched.group_depths(s3) == (3, 1, 1, 0)


def test_fig5_c1_c2_group_depth():
    s = sched.asap_schedule(synth.synth_toffoli(5))
    assert sched.group_depths(s)[0] == 7
    assert s.group_barriers == (7, 12, 17)


def test_layers_partition_gates():
    c = synth.synth_toffoli(6)
    s = sched.asap_schedule(c)
    seen = sorted(i for layer in s.layers for i in layer)
    assert seen == list(range(len(c.gates)))
    for layer in s.layers:
        used = [q for i in layer for q in c.gates[i].qubits()]
        assert len(used) == len(set(used))


def test_gates_stay_inside_their_group():
    c = synth.synth_toffoli(6)
    s = sched.asap_schedule(c)
    bounds = {lbl: (sec.start, sec.end) for lbl, sec in zip(
        ("C1", "C2", "C3", "C4", "C5", "C6"), c.sections)}
    cuts = [0, *s.group_barriers, len(s.layers)]
    spans = [
        (bounds["C1"][0], bounds["C2"][1]),
        bounds["C3"],
        (bounds["C4"][0], bounds["C5"][1]),
        bounds["C6"],
    ]
    for k, (lo, hi) in enumerate(spans):
        for layer in s.layers[cuts[k] : cuts[k + 1]]:
            assert all(lo <= i < hi for i in layer)


@pytest.mark.parametrize("n", (3, 4, 5))
def test_flattened_layers_preserve_semantics(n):
    rng = np.random.default_rng(n)
    c = synth.synth_toffoli(n)
    s = sched.asap_schedule(c)
    u0 = sim.unitary_of(c)
    for _ in range(10):
        order = []
        for layer in s.layers:
            perm = list(layer)
            rng.shuffle(perm)
            order.extend(perm)
        u = sim.unitary_of(ir.Circuit(n, tuple(c.gates[i] for i in order)))
        assert sim.global_phase_deviation(u, u0) <= 1e-10


def test_unsectioned_circuit_is_one_group():
    c = ir.Circuit(3, synth.synth_toffoli(3).gates)  # tags stripped
    s = sched.asap_schedule(c)
    assert s.group_barriers == ()
    assert sched.depth(s) <= 5


def test_depth_of_empty_schedule():
    assert sched.depth(sched.Schedule((), ())) == 0
