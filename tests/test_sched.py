"""Layering: depth formulas, commutation soundness, semantics preservation."""

import numpy as np
import pytest

from toffoli_forge import baseline, ir, route, sched, sim, synth

from circuit_helpers import commutes


def test_commutes_spec_cases():
    assert commutes(ir.crx(ir.dyadic(1, 1), 0, 1), ir.crx(ir.dyadic(1, 2), 0, 2))
    assert commutes(ir.crx(ir.dyadic(1, 1), 0, 2), ir.crx(ir.dyadic(1, 2), 1, 2))
    assert not commutes(ir.crx(ir.dyadic(1, 1), 0, 1), ir.crx(ir.PI, 2, 0))
    assert commutes(ir.crx(ir.PI, 0, 1), ir.crx(ir.PI, 2, 3))
    # mixed kinds: same control yes, same target no
    assert commutes(ir.crx(ir.PI, 0, 1), ir.cprx(ir.PI, 0, 2))
    assert not commutes(ir.crx(ir.PI, 0, 2), ir.cprx(ir.PI, 1, 2))
    assert commutes(ir.cprx(ir.PI, 0, 2), ir.cprx(ir.PI, 1, 2))
    # swaps only commute when disjoint
    assert not commutes(ir.swap(0, 1), ir.crx(ir.PI, 1, 2))
    assert not commutes(ir.swap(0, 1), ir.swap(1, 2))
    assert commutes(ir.swap(0, 1), ir.swap(2, 3))


def _order_free(g: ir.Gate, h: ir.Gate, n: int = 4) -> bool:
    a = sim.unitary_of(ir.Circuit(n, (g, h)))
    b = sim.unitary_of(ir.Circuit(n, (h, g)))
    return bool(np.max(np.abs(a - b)) <= 1e-12)


def test_commutes_is_sound_on_all_placements():
    # every kind and wire placement of h against a fixed g on 4 wires: by
    # symmetry these are all the overlap patterns a pair can have
    angles = (ir.PI, ir.dyadic(1, 1), ir.dyadic(-1, 2), ir.dyadic(3, 3))
    pairs = [(a, b) for a in range(4) for b in range(4) if a != b]
    firsts = [ir.crx(t, 0, 1) for t in angles] + [ir.cprx(t, 0, 1) for t in angles]
    seconds = [mk(t, a, b) for mk in (ir.crx, ir.cprx) for t in angles for a, b in pairs]
    seconds += [ir.swap(a, b) for a, b in pairs if a < b]
    checked = 0
    for g in firsts + [ir.swap(0, 1)]:
        for h in seconds:
            if commutes(g, h):
                assert _order_free(g, h), (g, h)
                checked += 1
    assert checked > 0


@pytest.mark.parametrize("build", [synth.synth_toffoli, synth.synth_recursive,
                                   baseline.barenco_toffoli, lambda n: route.route_lnn(n).circuit])
def test_schedule_reorders_only_commuting_pairs(build):
    # a gate placed in a layer no later than an earlier gate's may run
    # before it in a flattening: the oracle must prove that pair commutes
    for n in (4, 5, 8):
        c = build(n)
        layer_of = {i: k for k, layer in enumerate(sched.asap_schedule(c).layers) for i in layer}
        for j, h in enumerate(c.gates):
            for i in range(j):
                if layer_of[j] <= layer_of[i]:
                    assert commutes(c.gates[i], h), (n, i, j)


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
    # no layer is empty, so depth and group_depths count layers
    for c in (synth.synth_toffoli(6), baseline.barenco_toffoli(5),
              synth.synth_recursive(5), route.route_lnn(6).circuit):
        s = sched.asap_schedule(c)
        seen = sorted(i for layer in s.layers for i in layer)
        assert seen == list(range(len(c.gates)))
        for layer in s.layers:
            used = [q for i in layer for q in c.gates[i].qubits()]
            assert used and len(used) == len(set(used))


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


@pytest.mark.parametrize("layers, message", [
    (lambda lo, hi: [tuple(range(lo, hi))], "schedule produced an invalid layer"),
    (lambda lo, hi: [(i,) for i in range(lo, hi)] + [(lo,)], "schedule produced an invalid layer"),
    (lambda lo, hi: [(i,) for i in range(lo, hi - 1)], "schedule dropped or duplicated gates"),
])
def test_check_layers_rejects_a_bad_schedule(layers, message, monkeypatch):
    # one layer sharing wires, a gate placed twice, a gate left out
    monkeypatch.setattr(sched, "_schedule_group", lambda gates, lo, hi: layers(lo, hi))
    with pytest.raises(AssertionError, match=message):
        sched.asap_schedule(synth.synth_toffoli(5))
