"""Dense-simulation oracle: reference unitary, gate application, metrics."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toffoli_forge import baseline, cli, ir, sim, synth

from sim_helpers import is_unitary, random_state


def test_reference_unitary_block():
    u = sim.reference_unitary(3)
    assert u.shape == (8, 8)
    expect = np.eye(8, dtype=complex)
    expect[6, 6] = expect[7, 7] = 0.0
    expect[6, 7] = expect[7, 6] = -1.0j
    assert np.array_equal(u, expect)


def test_reference_unitary_rejects_width():
    with pytest.raises(ValueError):
        sim.reference_unitary(1)


def test_reference_unitary_squares_to_minus_one_on_block():
    # (-iX)^2 = -I on the controlled block, identity elsewhere
    for n in (2, 3, 4):
        u = sim.reference_unitary(n)
        sq = u @ u
        d = 2**n
        expect = np.eye(d, dtype=complex)
        expect[d - 2, d - 2] = expect[d - 1, d - 1] = -1.0
        assert np.allclose(sq, expect, atol=1e-15)


def test_apply_matches_unitary():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4, 5, 6):
        c = synth.synth_toffoli(n)
        u = sim.unitary_of(c)
        v = random_state(n, rng)
        assert np.linalg.norm(sim.apply(c, v) - u @ v) <= 1e-11


def test_apply_handles_swap_and_cprx():
    gates = (
        ir.cprx(ir.dyadic(1, 0), 0, 1),
        ir.swap(0, 2),
        ir.crx(ir.dyadic(1, 2), 2, 1),
    )
    c = ir.Circuit(n_qubits=3, gates=gates)
    u = sim.unitary_of(c)
    assert is_unitary(u)
    v = random_state(3, np.random.default_rng(3))
    assert np.linalg.norm(sim.apply(c, v) - u @ v) <= 1e-12


def test_apply_many_matches_columns():
    n = 4
    c = synth.synth_recursive(n)
    rng = np.random.default_rng(5)
    states = np.stack([random_state(n, rng) for _ in range(6)], axis=1)
    before = states.copy()
    out = sim.apply_many(c, states)
    for k in range(6):
        assert np.linalg.norm(out[:, k] - sim.apply(c, states[:, k])) <= 1e-12
    # the simulator works in place on its own copy, whatever the input layout
    assert np.array_equal(states, before)
    assert np.array_equal(sim.apply_many(c, np.asfortranarray(states)), out)
    assert np.array_equal(sim.apply_many(c, np.repeat(states, 2, axis=1)[:, ::2]), out)


def test_apply_shape_mismatch():
    c = synth.synth_toffoli(3)
    with pytest.raises(ValueError):
        sim.apply(c, np.zeros(4, dtype=complex))
    with pytest.raises(ValueError):
        sim.apply_many(c, np.zeros((4, 2), dtype=complex))


def test_global_phase_deviation_needs_pivot():
    # the phase is read off v, so a v with no large entry is rejected
    with pytest.raises(ValueError):
        sim.global_phase_deviation(np.eye(4), np.zeros((4, 4)))
    with pytest.raises(ValueError):
        sim.global_phase_deviation(np.eye(4), np.eye(2))


def test_equiv_global_phase_honors_phase():
    u = sim.unitary_of(synth.synth_toffoli(3))
    assert sim.global_phase_deviation(u, np.exp(1.0j * np.pi / 3) * u) <= 1e-9
    assert sim.global_phase_deviation(np.exp(-0.7j) * u, u) <= 1e-9


def test_equiv_global_phase_detects_x_vs_minus_ix():
    # plain X on the controlled block is NOT the reference up to one phase
    d = 8
    x_emb = np.eye(d, dtype=complex)
    x_emb[d - 2, d - 2] = x_emb[d - 1, d - 1] = 0.0
    x_emb[d - 2, d - 1] = x_emb[d - 1, d - 2] = 1.0
    assert sim.global_phase_deviation(x_emb, sim.reference_unitary(3)) > 1e-6


def test_op_norm_error_against_svd():
    for n, kmax in ((5, 2), (6, 2)):
        c = synth.synth_approx(n, kmax)
        delta = sim.unitary_of(c) - sim.unitary_of(synth.synth_toffoli(n))
        expect = np.linalg.svd(delta, compute_uv=False)[0]
        got = sim.op_norm_error(c, n)
        assert abs(got - expect) <= 1e-6 * max(expect, 1.0)


def test_op_norm_error_zero_for_exact():
    assert sim.op_norm_error(synth.synth_toffoli(4), 4) <= 1e-12


def test_op_norm_error_limits():
    c = synth.synth_toffoli(3)
    with pytest.raises(ValueError):
        sim.op_norm_error(c, 11)


def test_basis_layer_round_trip_in_simulation():
    c = synth.basis_conjugate(synth.synth_toffoli(3))
    u = sim.unitary_of(c)
    # wrapped circuit must be the Toffoli permutation in modulus
    perm = np.abs(u)
    expect = np.eye(8)
    expect[[6, 7]] = expect[[7, 6]]
    assert np.allclose(perm, expect, atol=1e-12)


def test_qubit_caps_env(monkeypatch):
    monkeypatch.setenv(sim.ENV_MAX_SIM_QUBITS, "4")
    with pytest.raises(ValueError):
        sim.unitary_of(synth.synth_toffoli(5))
    for raw in ("not-a-number", "", "4.0", "1", "0", "-3"):
        monkeypatch.setenv(sim.ENV_MAX_SIM_QUBITS, raw)
        with pytest.raises(ValueError):
            sim.max_matrix_qubits()
        with pytest.raises(ValueError):
            sim.max_state_qubits()
    monkeypatch.setenv(sim.ENV_MAX_SIM_QUBITS, "25")
    with pytest.warns(RuntimeWarning):
        assert sim.max_state_qubits() == 25


def test_unitary_of_is_unitary():
    for builder in (synth.synth_toffoli, synth.synth_recursive, baseline.barenco_toffoli):
        assert is_unitary(sim.unitary_of(builder(4)))


# ---------------------------------------------------------------- kernel
# A dense reference built here from 4x4 gate matrices and np.kron, sharing
# no code with the simulator, checks the fused kernel on random circuits.

_SWAP4 = np.eye(4, dtype=complex)[[0, 2, 1, 3]]


def _gate4(g) -> np.ndarray:
    """The gate's matrix on (control, target), control the high bit; SWAP
    on (target, target2)."""
    if g.kind == ir.SWAP:
        return _SWAP4
    half = g.angle.to_radians() / 2
    rx = np.array([[np.cos(half), -1j * np.sin(half)], [-1j * np.sin(half), np.cos(half)]])
    if g.kind == ir.CPRX:
        rx = rx * np.exp(1j * half)
    m = np.eye(4, dtype=complex)
    m[2:, 2:] = rx
    return m


def _wires_first(n: int, a: int, b: int) -> np.ndarray:
    """Permutation matrix moving wire a to position 0 and wire b to 1."""
    order = [a, b] + [w for w in range(n) if w not in (a, b)]
    p = np.zeros((1 << n, 1 << n))
    for i in range(1 << n):
        bits = [(i >> (n - 1 - w)) & 1 for w in order]
        p[int("".join(map(str, bits)), 2), i] = 1
    return p


def _dense(c: ir.Circuit) -> np.ndarray:
    n = c.n_qubits
    layer = np.eye(1, dtype=complex)
    for e in c.basis_layer or (0,) * n:
        layer = np.kron(layer, np.diag([1, 1j**e]))
    u = layer
    for g in c.gates:
        a, b = (g.target, g.target2) if g.kind == ir.SWAP else (g.control, g.target)
        p = _wires_first(n, a, b)
        u = p.T @ np.kron(_gate4(g), np.eye(1 << (n - 2))) @ p @ u
    return layer.conj() @ u


@st.composite
def kernel_circuits(draw):
    """Random CRX/CPRX/SWAP circuits on 2..6 wires. Runs of one control
    rotate wires whose current axes (after the SWAPs so far) are consecutive,
    so the simulator's fused blocks are exercised; interleaved runs give one
    control its targets in any order, with gates between them that are
    disjoint, that rotate the control (blocking the regroup), or that repeat a
    (control, target) pair."""
    n = draw(st.integers(2, 6))
    angle = st.builds(ir.dyadic, st.integers(-64, 64), st.integers(0, 6))
    kinds = st.sampled_from((ir.CRX, ir.CPRX))
    axis = list(range(n))  # wire -> position after the SWAPs so far
    gates = []
    for _ in range(draw(st.integers(0, 10))):
        op = draw(st.sampled_from(("gate", "swap", "run", "interleaved")))
        a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        if op == "swap":
            gates.append(ir.swap(a, b))
            axis[a], axis[b] = axis[b], axis[a]
            continue
        kind = draw(kinds)
        if op == "gate":
            gates.append(ir.Gate(kind, a, b, None, draw(angle)))
            continue
        if op == "interleaved":
            targets = draw(st.permutations([w for w in range(n) if w != a]))
            if draw(st.booleans()):
                targets = sorted(targets, reverse=True)
            for t in targets[:draw(st.integers(1, n - 1))]:
                gates.append(ir.Gate(kind, a, t, None, draw(angle)))
                between = draw(st.sampled_from(("none", "disjoint", "block", "repeat")))
                rest = [w for w in range(n) if w not in (a, t)]
                if between == "disjoint" and len(rest) >= 2:
                    c2, t2 = draw(st.permutations(rest))[:2]
                    gates.append(ir.Gate(draw(kinds), c2, t2, None, draw(angle)))
                elif between == "block":
                    gates.append(ir.Gate(draw(kinds), t, a, None, draw(angle)))
                elif between == "repeat":
                    gates.append(ir.Gate(kind, a, t, None, draw(angle)))
            continue
        # control a on the wires at positions axis[b], axis[b] + 1, ...
        wire_at = {p: w for w, p in enumerate(axis)}
        for p in range(axis[b], n):
            if p == axis[a]:
                break
            gates.append(ir.Gate(kind, a, wire_at[p], None, draw(angle)))
    layer = draw(st.none() | st.tuples(*[st.integers(-3, 3)] * n))
    return ir.Circuit(n, tuple(gates), basis_layer=layer)


@settings(deadline=None)
@given(
    kernel_circuits(),
    st.integers(1, 5),
    st.sampled_from((2, 3, sim._FUSE_WIDTH)),
    st.sampled_from((1, sim._MIN_MATMUL_INNER, 1 << 30)),
    st.integers(0, 2**32 - 1),
)
def test_kernel_matches_dense_reference(c, k, width, inner, seed):
    rng = np.random.default_rng(seed)
    dim = 1 << c.n_qubits
    states = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
    expect = _dense(c) @ states
    inputs = (states, np.asfortranarray(states), np.repeat(states, 2, axis=1)[:, ::2])
    # narrow fusion widths give runs longer than the width on few wires; the
    # inner-run switch is forced both ways
    with mock.patch.object(sim, "_FUSE_WIDTH", width), \
            mock.patch.object(sim, "_MIN_MATMUL_INNER", inner):
        for x in inputs:
            before = x.copy()
            assert np.max(np.abs(sim.apply_many(c, x) - expect)) <= 1e-12
            assert np.array_equal(x, before)
        assert np.max(np.abs(sim.apply(c, states[:, 0]) - expect[:, 0])) <= 1e-12


def test_sched_and_route_fuse_like_synth(monkeypatch):
    # the regroup undoes the interleaving of controls that scheduling and
    # routing introduce, so those stages cost no more fused blocks than synth
    calls = []
    apply_run = sim._apply_run

    def counting(*args):
        calls.append(args[1])
        apply_run(*args)

    monkeypatch.setattr(sim, "_apply_run", counting)
    for n in range(6, 11):
        blocks = {}
        for stage in ("synth", "sched", "route"):
            calls.clear()
            sim.apply(cli._stage_circuit(stage, n), np.eye(1 << n, 1, dtype=complex)[:, 0])
            blocks[stage] = len(calls)
        assert blocks["sched"] <= blocks["synth"], (n, blocks)
        assert blocks["route"] <= blocks["synth"], (n, blocks)
