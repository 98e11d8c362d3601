"""Line mapping: golden slots, segment formulas, trace replay, fences, equivalence."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from toffoli_forge import ir, route, sim, synth


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


@pytest.mark.parametrize("n", (3, 4, 5, 8, 13, 40))
def test_trace_consistent_with_swaps(n):
    # replays the emitted SWAPs independently of route_lnn's own layout
    r = route.route_lnn(n)
    layout = list(range(n))
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
    assert layout == list(range(n))


def test_fence_names_the_segment(monkeypatch):
    # the first half's fan keeps all but the last of its 2(2w - 3) slots, a
    # SWAP slot; the fence after it must fail and say which segment and
    # layout it saw. islice stays lazy, so every rotation slot is still built
    # from the layout the SWAPs before it left
    pipeline = route._pipeline
    calls = []

    def drop_fans_last_slot(width, fire, swaps):
        calls.append(width)
        slots = pipeline(width, fire, swaps)
        return itertools.islice(slots, 4 * width - 7) if len(calls) == 1 else slots

    monkeypatch.setattr(route, "_pipeline", drop_fans_last_slot)
    with pytest.raises(AssertionError, match=r"after C1\+C2: layout \[4, 3, 2, 0, 1\]"):
        route.route_lnn(5)


# route_lnn with the last slot (a SWAP slot) of its call-th pipeline dropped;
# prints __debug__ and the AssertionError, if any
_DROP_LAST_SLOT = """
import itertools, sys
from toffoli_forge import route
n, call = map(int, sys.argv[1:])
pipeline, calls = route._pipeline, []

def drop_last_slot(width, fire, swaps):
    calls.append(width)
    slots = pipeline(width, fire, swaps)
    return itertools.islice(slots, 4 * width - 7) if len(calls) == call else slots

route._pipeline = drop_last_slot
try:
    route.route_lnn(n)
except AssertionError as exc:
    print(__debug__, exc)
"""


@pytest.mark.parametrize("n, call, segment", [(5, 1, "C1+C2"), (7, 4, "C6")])
def test_fences_hold_under_python_O(n, call, segment):
    # pytest keeps the asserts of test modules under -O, not those of src/, so
    # the corrupted route runs in a child: the first half's fan, then the second
    # half's mirror, each short of its last SWAP slot
    env = dict(os.environ)
    src = str(Path(route.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-O", "-c", _DROP_LAST_SLOT, str(n), str(call)],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith(f"False after {segment}: layout ["), run.stdout


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
