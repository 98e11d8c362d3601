"""Flat/recursive/approximate generators against the dense oracle."""

import numpy as np
import pytest

from toffoli_forge import baseline, ir, sim, synth

from circuit_helpers import angle_add

GOLDEN_3 = (
    ir.crx(ir.dyadic(1, 1), 1, 2),
    ir.crx(ir.dyadic(1, 0), 0, 1),
    ir.crx(ir.dyadic(1, 1), 0, 2),
    ir.crx(ir.dyadic(-1, 1), 1, 2),
    ir.crx(ir.dyadic(-1, 0), 0, 1),
)


def test_golden_n3():
    assert synth.synth_toffoli(3).gates == GOLDEN_3


@pytest.mark.parametrize("n", range(2, 24))
def test_gate_count_and_sections(n):
    c = synth.synth_toffoli(n)
    c.validate()
    assert len(c.gates) == synth.gate_count(n) == 2 * n * n - 6 * n + 5
    sizes = tuple(s.end - s.start for s in c.sections)
    tri1 = (n - 1) * (n - 2) // 2
    tri2 = (n - 2) * (n - 3) // 2
    assert sizes == (tri1, n - 1, tri1, tri2, n - 2, tri2)


def test_rejects_small_n():
    for fn in (synth.synth_toffoli, synth.synth_recursive, synth.gate_count):
        with pytest.raises(ValueError):
            fn(1)
    with pytest.raises(ValueError):  # exponential size: barenco's cap applies
        synth.synth_recursive(baseline.MAX_BARENCO_QUBITS + 1)


@pytest.mark.parametrize("n", (5, 8, 13))
def test_angle_sums_telescope(n):
    """Exact dyadic bookkeeping: every (control, target) pair cancels except
    the first-wire rotation onto the last wire."""
    c = synth.synth_toffoli(n)
    sums: dict[tuple[int, int], ir.DyadicAngle] = {}
    for g in c.gates:
        key = (g.control, g.target)
        sums[key] = angle_add(sums.get(key, ir.dyadic(0)), g.angle)
    nonzero = {k: v for k, v in sums.items() if v.num != 0}
    assert nonzero == {(0, n - 1): ir.dyadic(1, n - 2)}


@pytest.mark.parametrize("n", (4, 6, 9))
def test_c1_c2_last_wire_angles_sum_to_pi(n):
    c = synth.synth_toffoli(n)
    end = c.sections[1].end
    total = ir.dyadic(0)
    for g in c.gates[:end]:
        if g.target == n - 1:
            total = angle_add(total, g.angle)
    assert total == ir.PI


@pytest.mark.parametrize("n", range(2, 9))
def test_flat_matches_reference(n):
    dev = sim.global_phase_deviation(
        sim.unitary_of(synth.synth_toffoli(n)), sim.reference_unitary(n)
    )
    assert dev <= 1e-10


def test_same_control_order_is_free():
    # swapping two gates that share a control leaves the unitary unchanged
    c = synth.synth_toffoli(3)
    g = list(c.gates)
    assert g[1].control == g[2].control == 0
    g[1], g[2] = g[2], g[1]
    dev = sim.global_phase_deviation(
        sim.unitary_of(ir.Circuit(3, tuple(g))), sim.unitary_of(c)
    )
    assert dev <= 1e-12


def test_recursive_counts():
    assert [len(synth.synth_recursive(n).gates) for n in range(2, 9)] == [
        1, 5, 17, 53, 161, 485, 1457,
    ]


def test_recursive_n3_same_multiset_as_flat():
    assert sorted(synth.synth_recursive(3).gates) == sorted(GOLDEN_3)


@pytest.mark.parametrize("n", range(2, 7))
def test_recursive_matches_flat(n):
    dev = sim.global_phase_deviation(
        sim.unitary_of(synth.synth_recursive(n)),
        sim.unitary_of(synth.synth_toffoli(n)),
    )
    assert dev <= 1e-10


def test_approx_noop_when_kmax_large():
    assert synth.synth_approx(5, 3).gates == synth.synth_toffoli(5).gates
    assert synth.synth_approx(5, 9).gates == synth.synth_toffoli(5).gates


def test_approx_drops_exactly_fine_angles():
    full = synth.synth_toffoli(8)
    cut = synth.synth_approx(8, 3)
    cut.validate()
    kept = [g for g in full.gates if g.angle.den_exp <= 3]
    assert list(cut.gates) == kept
    dropped = {g.angle.den_exp for g in full.gates} - {g.angle.den_exp for g in cut.gates}
    assert dropped == {4, 5, 6}
    assert len(cut.gates) < 2 * 64 - 48 + 5


def test_approx_error_monotone_n6():
    errs = [sim.op_norm_error(synth.synth_approx(6, k), 6) for k in range(1, 5)]
    assert all(e1 <= e0 + 1e-12 for e0, e1 in zip(errs, errs[1:]))
    assert errs[-1] <= 1e-9  # kmax = n-2 drops nothing


def test_approx_rejects_bad_kmax():
    with pytest.raises(ValueError):
        synth.synth_approx(5, -1)


def _toffoli_image(x: int, n: int) -> int:
    controls = (1 << (n - 1)) - 1
    return x ^ 1 if x >> 1 == controls else x


@pytest.mark.parametrize("n", range(2, 7))
def test_wrapped_circuit_permutes_basis_states(n):
    u = sim.unitary_of(synth.basis_conjugate(synth.synth_toffoli(n)))
    for x in range(1 << n):
        assert abs(abs(u[_toffoli_image(x, n), x]) - 1) <= 1e-10


def test_wrapper_metadata():
    c = synth.basis_conjugate(synth.synth_toffoli(3))
    assert c.basis_layer == (-1, -1, -1)
    assert c.gates == synth.synth_toffoli(3).gates
    twice = synth.basis_conjugate(c)
    assert twice.basis_layer == (2, 2, 2)  # exponents add mod 4


def test_wrapped_json_round_trip():
    c = synth.basis_conjugate(synth.synth_toffoli(4))
    back = ir.circuit_from_json(ir.circuit_to_json(c))
    assert back.basis_layer == c.basis_layer
    dev = sim.global_phase_deviation(sim.unitary_of(back), sim.unitary_of(c))
    assert dev == 0.0
