"""Dense-simulation oracle: reference unitary, gate application, metrics."""

from __future__ import annotations

import itertools
import operator
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toffoli_forge import baseline, cli, ir, sim, synth

from sim_helpers import gate_by_gate, is_unitary, random_state, unfolded_deviation


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
    assert sim.apply is sim.apply_many  # one entry for a state or a batch, under both names
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
    with pytest.raises(ValueError):
        sim.apply_many(c, np.zeros((8, 2, 1), dtype=complex))


def test_global_phase_deviation_needs_pivot():
    # the phase is read off v, so a v with no large entry is rejected
    with pytest.raises(ValueError):
        sim.global_phase_deviation(np.eye(4), np.zeros((4, 4)))
    with pytest.raises(ValueError):
        sim.global_phase_deviation(np.eye(4), np.eye(2))


def test_global_phase_deviation_splits_rows_bit_for_bit(monkeypatch):
    # the rows go through in chunks of _COMPARE_AMPLITUDES // columns; the
    # figure must not depend on where they split
    rng = np.random.default_rng(3)
    for shape in ((64,), (64, 3)):
        u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        u0, v0 = u.copy(), v.copy()
        col = v.reshape(64, -1)[:, 0]
        i = int(np.argmax(np.abs(col)))  # the pivot: v's first column at its largest
        for phase in (None, np.exp(0.3j)):
            want = u.reshape(64, -1)[i, 0] / col[i] if phase is None else phase
            expect = np.max(np.abs(u - want * v))
            for amplitudes in (1 << 16, 16, 5, 1):  # 1-D: 1, 4, 13, 64 chunks; 2-D: 1, 13, 64, 64
                monkeypatch.setattr(sim, "_COMPARE_AMPLITUDES", amplitudes)
                assert sim.global_phase_deviation(u, v, phase) == expect, (shape, amplitudes)
        assert np.array_equal(u, u0) and np.array_equal(v, v0)


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


def test_wrapped_circuits_pass_against_their_reference():
    # a circuit with basis layer L implements L^dag R L; wrapping twice makes
    # every exponent 2, so both signs of the Rx(pi) block flip
    for n in range(3, 9):
        once = synth.basis_conjugate(synth.synth_toffoli(n))
        twice = synth.basis_conjugate(once)
        assert twice.basis_layer == (2,) * n
        dim = 1 << n
        for c in (once, twice):
            phases = np.ones(dim, dtype=complex)  # L's diagonal, built bit by bit
            for w, e in enumerate(c.basis_layer):
                phases[np.arange(dim) >> (n - 1 - w) & 1 == 1] *= 1j ** e
            expect = phases.conj()[:, None] * sim.reference_unitary(n) * phases
            assert np.allclose(sim.reference_apply(np.eye(dim), c.basis_layer), expect,
                               rtol=0, atol=1e-15)
            dev = sim.max_deviations([c])[0]
            assert dev == unfolded_deviation(c) and dev < 1e-12, (n, c.basis_layer)


def test_basis_layer_round_trip_in_simulation():
    c = synth.basis_conjugate(synth.synth_toffoli(3))
    u = sim.unitary_of(c)
    # wrapped circuit must be the Toffoli permutation in modulus
    perm = np.abs(u)
    expect = np.eye(8)
    expect[[6, 7]] = expect[[7, 6]]
    assert np.allclose(perm, expect, atol=1e-12)


def test_qubit_caps(monkeypatch):
    monkeypatch.setattr(sim, "MAX_MATRIX_QUBITS", 4)
    monkeypatch.setattr(sim, "MAX_STATE_QUBITS", 4)
    c = synth.synth_toffoli(5)
    with pytest.raises(ValueError):
        sim.unitary_of(c)
    with pytest.raises(ValueError, match="exceeds matrix cap 4"):
        sim.reference_unitary(5)
    with pytest.raises(ValueError, match="exceeds statevector cap 4"):
        sim.apply_many(c, np.zeros((32, 2), dtype=complex))


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


def _in_place(updates, copies: list | None = None):
    """updates, checking that every one writes through a view of arr or of
    the one chunk buffer that np.copyto fills from arr, never through a
    copy; copies, if given, collects the np.copyto updates."""
    def checked(p, arr):
        buffer = None
        for views, update, arg in updates(p, arr):
            if update is np.copyto:  # (destination, source): a chunk of arr and the buffer
                (chunk,) = [v for v in views if np.may_share_memory(v, arr)]
                (buf,) = [v for v in views if v is not chunk]
                assert buffer is None or np.shares_memory(buf, buffer)  # reused
                buffer = buf
                if copies is not None:
                    copies.append(views)
            assert all(np.may_share_memory(v, arr) or buffer is not None
                       and np.may_share_memory(v, buffer) for v in views)
            assert np.getbufsize() == sim._BUFFER  # one buffer for the whole sweep
            yield views, update, arg

    return checked


@settings(deadline=None)
@given(
    kernel_circuits(),
    st.integers(1, 5),
    st.sampled_from((16, sim._MIN_RUN, 1 << 30)),
    st.sampled_from((16, 256, 8192)),
    st.integers(0, 2**32 - 1),
)
def test_kernel_matches_dense_reference(c, k, min_run, buffer_size, seed):
    rng = np.random.default_rng(seed)
    dim = 1 << c.n_qubits
    states = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
    expect = _dense(c) @ states
    assert np.max(np.abs(gate_by_gate(c, states) - expect)) <= 1e-12  # the wide test's reference
    inputs = (states, np.asfortranarray(states), np.repeat(states, 2, axis=1)[:, ::2])
    updates, checked = sim._updates, _in_place(sim._updates)

    def failing(p, arr):  # the first update applies, the next one raises
        yield from itertools.islice(updates(p, arr), 1)
        yield (1,), operator.truediv, 0  # 1 / 0

    # the phase-vector repeat forced both ways: 16 repeats vectors only along
    # runs shorter than 16, 1 << 30 along every run with a target after its
    # control
    buffer = np.getbufsize()
    with mock.patch.object(sim, "_MIN_RUN", min_run), mock.patch.object(sim, "_updates", checked):
        for x in inputs:
            before = x.copy()
            out = sim.apply_many(c, x)
            assert np.max(np.abs(out - expect)) <= 1e-12
            with mock.patch.object(sim, "_BUFFER", buffer_size):  # it changes no arithmetic
                assert np.array_equal(sim.apply_many(c, x), out)
            assert np.array_equal(x, before)
        assert np.max(np.abs(sim.apply(c, states[:, 0]) - expect[:, 0])) <= 1e-12
    with mock.patch.object(sim, "_updates", failing), pytest.raises(ZeroDivisionError):
        sim.apply_many(c, states)
    assert np.getbufsize() == buffer


@pytest.mark.parametrize("build", [synth.synth_toffoli, lambda n: cli._stage_circuit("route", n),
                                   lambda n: synth.basis_conjugate(synth.synth_toffoli(n)),
                                   baseline.barenco_toffoli])
def test_seeded_random_states_are_pinned(build):
    # verify --mode random --trials 5 --seed 3 draws these states: real parts,
    # then imaginary parts, from one generator, each column normalized
    c = build(6)
    rng = np.random.default_rng(3)
    block = rng.standard_normal((64, 5)) + 1j * rng.standard_normal((64, 5))
    block /= np.linalg.norm(block, axis=0, keepdims=True)
    expect = sim.global_phase_deviation(sim.apply_many(c, block),
                                        sim.reference_apply(block, c.basis_layer))
    assert sim.max_deviations([c], 5, 3) == [expect]


@pytest.mark.parametrize("stage", ["synth", "route"])
def test_kernel_matches_gate_by_gate_at_real_widths(stage):
    # the widths where runs get short, every axis flips several times, and
    # route's SWAPs relabel axes; the dense reference above stops at 6 wires
    rng = np.random.default_rng(11)
    for n in (12, 13, 14):
        c = cli._stage_circuit(stage, n)
        states = rng.standard_normal((1 << n, 4)) + 1j * rng.standard_normal((1 << n, 4))
        assert np.max(np.abs(sim.apply_many(c, states) - gate_by_gate(c, states))) <= 1e-12


# The trailing-axis stretches run chunk by chunk only where a state holds
# more than one chunk; with these constants patched, the small circuits above
# do too. _SHORT = k << s makes the last s axes the short ones for k columns.


def _blocked_and_unblocked(c: ir.Circuit, x: np.ndarray, s: int, min_stretch: int = 1):
    """apply_many(c, x) with the last s axes blocked into chunks of 2^4
    amplitudes (or one row of 2^s * k), without blocking, and the np.copyto
    updates that moved chunks."""
    copies, k = [], x.size >> c.n_qubits
    with mock.patch.multiple(sim, _CHUNK=1 << 4, _SHORT=k << s, _MIN_STRETCH=min_stretch), \
            mock.patch.object(sim, "_updates", _in_place(sim._updates, copies)):
        blocked = sim.apply_many(c, x)
    with mock.patch.object(sim, "_SHORT", 1):  # no axis is short
        return blocked, sim.apply_many(c, x), copies


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:  # -0.0 and 0.0 differ here
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(deadline=None)
@given(kernel_circuits(), st.sampled_from((1, 3, 4, 16)), st.integers(1, 4),
       st.sampled_from((1, sim._MIN_STRETCH)), st.booleans(), st.integers(0, 2**32 - 1))
def test_blocked_stretches_match_unblocked_bit_for_bit(c, k, s, min_stretch, fortran, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((1 << c.n_qubits, k)) + 1j * rng.standard_normal((1 << c.n_qubits, k))
    before = (x := np.asfortranarray(x) if fortran else x).copy()
    blocked, unblocked, _ = _blocked_and_unblocked(c, x, min(s, c.n_qubits - 1), min_stretch)
    assert _same_bits(blocked, unblocked)
    assert _same_bits(x, before)


_BLOCKED_CASES = {  # circuit, columns
    # axis n - 1 goes back to Z sign-symmetrically inside the last stretch
    "mirror axis": (synth.synth_toffoli(9), 2),
    "basis layer": (synth.basis_conjugate(synth.synth_toffoli(9)), 3),
    "route's SWAP relabel": (cli._stage_circuit("route", 9), 4),
    "barenco's CPRX gates": (baseline.barenco_toffoli(7), 1),
}


@pytest.mark.parametrize("case", _BLOCKED_CASES)
def test_blocked_cases_match_unblocked_bit_for_bit(case):
    c, k = _BLOCKED_CASES[case]
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1 << c.n_qubits, k)) + 1j * rng.standard_normal((1 << c.n_qubits, k))
    for s in (2, 4):
        blocked, unblocked, copies = _blocked_and_unblocked(c, x, s)
        assert copies  # chunks were moved
        assert _same_bits(blocked, unblocked)
    assert np.max(np.abs(blocked - gate_by_gate(c, x))) <= 1e-12


def test_blocked_mirror_columns_are_exact_row_mirrors():
    c = synth.synth_toffoli(6)
    copies = []
    with mock.patch.multiple(sim, _CHUNK=1 << 4, _SHORT=64 << 3), \
            mock.patch.object(sim, "_updates", _in_place(sim._updates, copies)):
        _assert_exact_row_mirrors(c)  # 64 columns, the last 3 axes blocked
    assert copies


@pytest.mark.parametrize("stage, n, k, chunks", [
    ("route", 13, 3, 0),  # 24,576 amplitudes: one chunk, so nothing is blocked
    ("route", 15, 3, 4), ("synth", 14, 16, 8), ("route", 16, 1, 2)])
def test_real_widths_block_the_trailing_stretches(stage, n, k, chunks):
    # verify-states' shapes: chunks of at most 2^15 amplitudes
    c = cli._stage_circuit(stage, n)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((1 << n, k)) + 1j * rng.standard_normal((1 << n, k))
    copies = []
    with mock.patch.object(sim, "_updates", _in_place(sim._updates, copies)):
        blocked = sim.apply_many(c, x)
    with mock.patch.object(sim, "_SHORT", 1):
        assert _same_bits(blocked, sim.apply_many(c, x))
    assert len(copies) == 2 * 3 * chunks  # in and out, per chunk of each of three stretches
    assert all(v.size <= 1 << 15 for views in copies for v in views)


def test_verify_deviations_stay_at_rounding(capsys):
    # the basis changes are exact butterflies, halved on the way back, so the
    # shipped circuits miss the reference by rounding only
    runs = [["--n", str(n)] for n in range(2, 11)]
    runs += [["--n", "16", "--stage", s, "--mode", "random", "--trials", "4"]
             for s in ("synth", "route")]
    for argv in runs:
        assert cli.main(["verify", *argv]) == 0
    deviations = re.findall(r"max deviation (\S+) ", capsys.readouterr().out)
    assert len(deviations) == 28
    assert max(map(float, deviations)) <= 1e-13


def _recorded_widths(monkeypatch) -> list[int]:
    """The column count of every block the sweep hands to sim.apply_many."""
    widths = []
    apply_many = sim.apply_many

    def recording(c, block, **kwargs):
        widths.append(block.shape[1])
        return apply_many(c, block, **kwargs)

    monkeypatch.setattr(sim, "apply_many", recording)
    return widths


def _recorded_phases(monkeypatch) -> list[tuple[int, complex]]:
    """The rows and phase of every comparison the sweep hands to
    sim.global_phase_deviation, the name perfbench's tracer wraps."""
    phases = []
    deviation = sim.global_phase_deviation

    def recording(u, v, phase=None):
        phases.append((len(u), phase))
        return deviation(u, v, phase)

    monkeypatch.setattr(sim, "global_phase_deviation", recording)
    return phases


def test_sweep_blocks_give_one_block_deviation_under_one_phase(monkeypatch):
    # an exhaustive n = 10 sweep is two blocks of 2^17 amplitudes; the one
    # block that 2^22 amplitudes allow must give the same deviation
    widths, phases = _recorded_widths(monkeypatch), _recorded_phases(monkeypatch)
    monkeypatch.setattr(np.random, "default_rng", None)  # exhaustive: np.random stays unloaded
    c = synth.synth_toffoli(10)
    blocked = sim.max_deviations([c])
    monkeypatch.setattr(sim, "_SWEEP_AMPLITUDES", 1 << 22)
    assert sim.max_deviations([c]) == blocked  # bit for bit
    assert widths == [128] * 2 + [256]  # wire 0 folded, wire 9 mirrored: 256 columns
    # two comparisons per block, the body and the two rows R moves, each
    # under its sweep's one phase
    assert [rows for rows, _ in phases] == [1022, 2] * 3
    assert phases[:4] == [(rows, phases[0][1]) for rows, _ in phases[:4]]
    assert phases[4:] == [(rows, phases[4][1]) for rows, _ in phases[4:]]
    assert None not in [phase for _, phase in phases]
    # crx(2 pi) 1 -> 2 is Z on wire 1: the circuit is the reference on the
    # wire-1 = 0 half of the basis and minus it on the other half. Each half
    # alone passes with its own phase; the sweep's one phase must FAIL it.
    # Wire 1 is not folded, so with two columns per block the halves fall in
    # the sweep's two blocks.
    z = ir.Circuit(4, synth.synth_toffoli(4).gates + (ir.crx(ir.dyadic(2), 1, 2),))
    wire1 = np.arange(16) >> 2 & 1
    for bit in (0, 1):
        half = np.eye(16, dtype=complex)[:, wire1 == bit]
        out, ref = sim.apply_many(z, half), sim.reference_apply(half)
        assert sim.global_phase_deviation(out, ref) <= 1e-12
    blocks, apply_many = [], sim.apply_many
    monkeypatch.setattr(sim, "apply_many", lambda c, block, **kwargs: blocks.append(
        block.copy()) or apply_many(c, block, **kwargs))
    phases.clear()
    monkeypatch.setattr(sim, "_BLOCK_AMPLITUDES", 16 * 2)
    assert sim.max_deviations([z]) == [pytest.approx(2.0)]
    assert [b.shape[1] for b in blocks] == [2, 2]
    # the first block's phase, read from the whole block, in all four comparisons
    first = sim._global_phase((sim.apply_many(z, blocks[0]), sim.reference_apply(blocks[0])))
    assert phases == [(14, first), (2, first)] * 2
    with pytest.raises(ValueError):
        sim.max_deviations([z], trials=0)


@pytest.mark.parametrize("stage", ["synth", "sched", "route"])
def test_exhaustive_deviations_do_not_depend_on_the_block_size(stage, monkeypatch):
    # n = 10 and 11 sweep in blocks of 128 and 64 columns; with 2^22
    # amplitudes every width up to 11 is one block
    circuits = [cli._stage_circuit(stage, n) for n in range(2 if stage != "route" else 3, 12)]
    widths = _recorded_widths(monkeypatch)
    blocked = [sim.max_deviations([c]) for c in circuits]
    assert widths[-10:] == [128] * 2 + [64] * 8
    widths.clear()
    monkeypatch.setattr(sim, "_SWEEP_AMPLITUDES", 1 << 22)
    assert [sim.max_deviations([c]) for c in circuits] == blocked  # bit for bit
    assert widths == [1 << (c.n_qubits - 2) for c in circuits]  # wire 0 folded, n - 1 mirrored


def test_exhaustive_sweep_memory_stays_within_one_complex_block():
    # one complex block of 2 MiB is alive at a time, the circuit's output:
    # the basis states take a byte each and the reference only its two
    # rows. All 1,024 folded columns in one block would take 32 MiB.
    c = synth.synth_toffoli(11)
    sim.max_deviations([c])  # numpy loaded and the kept chunk buffer made before tracing
    tracemalloc.start()
    try:
        sim.max_deviations([c])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 << 20


@pytest.mark.parametrize("n", [2, 3])
def test_random_sweep_matches_the_full_reference_copy_bit_for_bit(n):
    # the sweep compares the body of a block with the block itself and only
    # the two rows R moves with reference_apply; at n = 2 and 3 the phase
    # row often falls in those two rows
    circuits = [synth.synth_toffoli(n), synth.basis_conjugate(synth.synth_toffoli(n)),
                _negate_first_angle(synth.synth_toffoli(n))]
    dim, tails = 1 << n, [0] * len(circuits)
    for seed in range(50):
        for k, c in enumerate(circuits):
            rng = np.random.default_rng(seed)  # drawn as the sweep draws one block
            a, b = rng.standard_normal((dim, 5)), rng.standard_normal((dim, 5))
            block = a + 1j * b
            block /= np.linalg.norm(block, axis=0, keepdims=True)
            out, ref = sim.apply_many(c, block), sim.reference_apply(block, c.basis_layer)
            expect = sim.global_phase_deviation(out, ref, sim._global_phase((out, ref)))
            assert sim.max_deviations([c], trials=5, seed=seed) == [expect], (n, seed)
            tails[k] += int(np.argmax(np.abs(ref[:, 0]))) >= dim - 2
    # each circuit reads its phase from R's two rows in some seeds, not all
    assert all(5 <= t <= 45 for t in tails), tails


def test_global_phase_reads_the_first_maximum_across_pieces():
    # equal maxima in both pieces, as in an exhaustive n = 2 sweep's column
    # 0: the first piece's row, as in the whole column
    u, v = np.array([[2.0], [0], [0], [3]]), np.array([[1], [0], [0], [-1j]])
    assert sim._global_phase((u[:2], v[:2]), (u[2:], v[2:])) == sim._global_phase((u, v)) == 2


def test_a_sweep_fuses_each_circuit_once(monkeypatch):
    # every block goes through sim.apply_many with the program max_deviations
    # holds: n = 10 is two blocks per sweep, and a corrupted circuit is a
    # second sweep
    fuse, fused = sim.fused_program, []

    def counting(c):
        fused.append(c)
        return fuse(c)

    circuits = [cli._stage_circuit(s, 10) for s in ("synth", "sched", "route")]
    circuits.append(_negate_first_angle(circuits[0]))
    expect = [unfolded_deviation(c) for c in circuits]
    monkeypatch.setattr(sim, "fused_program", counting)
    widths = _recorded_widths(monkeypatch)
    assert sim.max_deviations(circuits) == expect
    assert fused == circuits
    assert widths == [128] * 4


@settings(deadline=None)
@given(kernel_circuits())
def test_folded_sweep_matches_unfolded_bit_for_bit(c):
    assert sim.max_deviations([c]) == [unfolded_deviation(c)]


def _shifted(c: ir.Circuit, n: int, wire) -> ir.Circuit:
    """c's rotations on n wires, wire w moved to wire(w)."""
    return ir.Circuit(n, tuple(g._replace(control=wire(g.control), target=wire(g.target))
                               for g in c.gates))


def _negate_first_angle(c: ir.Circuit) -> ir.Circuit:
    g = c.gates[0]
    return c._replace(gates=(g._replace(angle=-g.angle),) + c.gates[1:])


_PAPER5 = synth.synth_toffoli(5)
_FOLD_CASES = {  # circuit, columns the exhaustive sweep evolves (of 32); all FAIL
    # wrapped circuits pass (test_wrapped_circuits_pass_against_their_reference);
    # their exponent -1 on wire n - 1 keeps the mirror off
    "wrapped": (_negate_first_angle(synth.basis_conjugate(_PAPER5)), 16),
    "wire 0 left on axis 2": (ir.Circuit(5, _PAPER5.gates + (ir.swap(0, 2),)), 16),
    "wire 0 targeted once": (ir.Circuit(5, _PAPER5.gates + (ir.crx(ir.dyadic(1, 3), 1, 0),)), 16),
    # the paper's Toffoli aimed at wire 0: wire 4 only controls, but the
    # reference acts on it, so it stays unfolded
    "control-only wire n - 1": (_shifted(_PAPER5, 5, lambda w: 4 - w), 32),
    # the 4-wire Toffoli on wires 1..4: wires 0 and 1 only control
    "two control-only wires": (_shifted(synth.synth_toffoli(4), 5, lambda w: w + 1), 4),
    # the mirror needs axis n - 1 never a control, wire n - 1 back on it at
    # the end, and an even exponent there
    "wire n - 1 controls once": (ir.Circuit(5, _PAPER5.gates + (ir.crx(ir.dyadic(1, 3), 4, 1),)), 16),
    "wire n - 1 left on axis 3": (ir.Circuit(5, _PAPER5.gates + (ir.swap(3, 4),)), 16),
    "exponent -1 on wire n - 1 only": (_negate_first_angle(_PAPER5)._replace(
        basis_layer=(0, 0, 0, 0, -1)), 16),
    "exponent 2 (wrapped twice)": (
        _negate_first_angle(synth.basis_conjugate(synth.basis_conjugate(_PAPER5))), 8),
    "negated angle on a gate that targets wire n - 1": (_negate_first_angle(_PAPER5), 8),
}


@pytest.mark.parametrize("case", _FOLD_CASES)
def test_fold_cases_match_unfolded_bit_for_bit(case, monkeypatch):
    c, cols = _FOLD_CASES[case]
    expect = unfolded_deviation(c)
    widths = _recorded_widths(monkeypatch)
    assert sim.max_deviations([c]) == [expect]
    assert widths == [cols]
    assert expect > 0.1  # a failing figure, not rounding, must come through the fold


def _mirror_holds(c: ir.Circuit) -> bool:
    """The mirror's three conditions, read off the fused program."""
    p, n = sim.fused_program(c), c.n_qubits
    return (p.axis[-1] == n - 1 and all(a != n - 1 for a, _ in p.runs)
            and (c.basis_layer or (0,))[-1] % 2 == 0)


def _assert_exact_row_mirrors(c: ir.Circuit) -> None:
    # the image of |x ^ 1> is the image of |x> with rows r and r ^ 1
    # exchanged, to the bit
    dim = 1 << c.n_qubits
    out = sim.apply_many(c, np.eye(dim, dtype=complex))
    odd, mirrored = out[:, 1::2], out[np.arange(dim) ^ 1, 0::2]
    assert np.array_equal(odd, mirrored)


def test_mirror_columns_are_exact_row_mirrors():
    circuits = [cli._stage_circuit(s, n) for s in ("synth", "sched", "route") for n in (3, 6, 9)]
    circuits += [baseline.barenco_toffoli(6), synth.synth_recursive(6)]
    circuits += [c for c, _ in _FOLD_CASES.values() if _mirror_holds(c)]
    assert len(circuits) == 16
    for c in circuits:
        _assert_exact_row_mirrors(c)
    # a control on wire n - 1 breaks the symmetry, not just its rounding
    c = _FOLD_CASES["wire n - 1 controls once"][0]
    out = sim.apply_many(c, np.eye(32, dtype=complex))
    assert np.max(np.abs(out[:, 1::2] - out[np.arange(32) ^ 1, 0::2])) > 0.1


@settings(deadline=None)
@given(kernel_circuits())
def test_mirror_is_exact_on_random_circuits(c):
    if _mirror_holds(c):
        _assert_exact_row_mirrors(c)


def test_constructions_sweep_a_quarter_of_the_basis_and_wrapped_half(monkeypatch):
    # wire 0 is only a control and wire n - 1 only a target in every
    # construction verify checks; a wrapped circuit's exponent -1 on wire
    # n - 1 keeps its mirror off
    builders = {(lambda n, s=s: cli._stage_circuit(s, n)): 2 for s in ("synth", "sched", "route")}
    builders |= {baseline.barenco_toffoli: 2, synth.synth_recursive: 2,
                 lambda n: synth.basis_conjugate(synth.synth_toffoli(n)): 1}
    expect = {(b, n): unfolded_deviation(b(n)) for b in builders for n in range(5, 9)}
    widths = _recorded_widths(monkeypatch)
    for (build, n), deviation in expect.items():
        widths.clear()
        assert sim.max_deviations([build(n)]) == [deviation]
        assert widths == [1 << (n - builders[build])]


def test_stages_share_one_fused_program():
    # the regroup undoes the interleaving of controls that scheduling and
    # routing introduce, so all three stages fuse to synth's program; verify
    # sweeps it once (the sharing is a speedup, not a correctness condition)
    for n in range(3, 13):
        program = sim.fused_program(cli._stage_circuit("synth", n))
        for stage in ("sched", "route"):
            assert sim.fused_program(cli._stage_circuit(stage, n)) == program, (n, stage)


@st.composite
def regrouped_pairs(draw):
    """(a, b): a from kernel_circuits, b from a by exchanging adjacent gates
    under the regroup's two rules: disjoint wires, or one control and
    different targets."""
    a = draw(kernel_circuits())
    gates = list(a.gates)
    for _ in range(draw(st.integers(0, 3 * len(gates)))):
        if len(gates) < 2:
            break
        i = draw(st.integers(0, len(gates) - 2))
        g, h = gates[i], gates[i + 1]
        same_control = ir.SWAP not in (g.kind, h.kind) and g.control == h.control
        if (same_control and g.target != h.target) or not set(g.qubits()) & set(h.qubits()):
            gates[i], gates[i + 1] = h, g
    return a, a._replace(gates=tuple(gates))


@settings(deadline=None)
@given(regrouped_pairs())
def test_equal_programs_give_equal_unitaries(pair):
    a, b = pair
    ua, ub = sim.unitary_of(a), sim.unitary_of(b)
    if sim.fused_program(a) == sim.fused_program(b):
        assert np.array_equal(ua, ub)
    else:  # runs on disjoint axes in another order: the same operator, other rounding
        assert np.max(np.abs(ua - ub)) <= 1e-12


def test_programs_differ_with_what_the_kernel_applies():
    c = synth.synth_toffoli(5)
    g = c.gates[3]
    program = sim.fused_program(c)
    # sections do not reach the simulator
    assert sim.fused_program(ir.Circuit(5, c.gates)) == program
    changed = [
        c.gates[:3] + (g._replace(angle=ir.dyadic(g.angle.num, g.angle.den_exp + 1)),)
        + c.gates[4:],
        c.gates[:3] + (g._replace(kind=ir.CPRX),) + c.gates[4:],
        c.gates + (ir.swap(0, 1),),
    ]
    for gates in changed:
        assert sim.fused_program(ir.Circuit(5, gates)) != program
    wrapped = synth.basis_conjugate(c)
    assert sim.fused_program(wrapped) != program
    layer = (wrapped.basis_layer[0] + 1,) + wrapped.basis_layer[1:]
    assert sim.fused_program(wrapped._replace(basis_layer=layer)) != sim.fused_program(wrapped)
