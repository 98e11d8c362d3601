"""Dense statevector/unitary simulation used as the verification oracle.

The reference operator R is built directly from its block definition
(identity except an Rx(pi) block on the last two basis indices), never from
gates, so circuit checks have an independent path. Matrices and states are
plain numpy arrays; wire 0 is the most significant bit of a basis index.
numpy is imported when a simulation first reads np, so building circuits
alone never loads it.

unitary_of and apply_many share _evolve, which applies a Program:
fused_program turns SWAPs into a wire -> axis map and regroups rotations into
runs of one control, moving a gate only past gates on disjoint wires or
with its control and another target. Equal programs applied to equal arrays
give bit-identical results.

max_deviations is the one verification sweep. It fuses each circuit once and
feeds basis states or seeded random states to apply_many in column blocks
made one at a time. It undoes R on each output and compares the output with
its own input through global_phase_deviation, under the first block's phase.
Circuits that fuse to one program share a sweep. An exhaustive sweep folds
control-only wires and mirrors wire n - 1; README's verification section
argues why both keep deviations bit-exact, and gives the block sizes.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import NamedTuple

from .ir import CPRX, SWAP, Circuit, DyadicAngle

__all__ = [
    "MAX_MATRIX_QUBITS",
    "MAX_STATE_QUBITS",
    "Program",
    "fused_program",
    "reference_unitary",
    "reference_apply",
    "unitary_of",
    "apply",
    "apply_many",
    "max_deviations",
    "global_phase_deviation",
    "op_norm_error",
]

MAX_MATRIX_QUBITS = 13
MAX_STATE_QUBITS = 20


class _DeferredNumpy:
    """np until its first attribute read, which imports numpy as np itself."""

    def __getattr__(self, name: str):
        global np
        import numpy as np
        return getattr(np, name)


np = _DeferredNumpy()


def reference_unitary(n: int) -> np.ndarray:
    """The n-qubit target operator: identity except Rx(pi) = -iX on the
    2-dimensional block spanned by |1..10> and |1..11>."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if n > MAX_MATRIX_QUBITS:
        raise ValueError(f"n={n} exceeds matrix cap {MAX_MATRIX_QUBITS}")
    u = np.eye(1 << n, dtype=complex)
    u[:, -2:] = reference_apply(u[:, -2:])
    return u


def reference_apply(state: np.ndarray, basis_layer: tuple[int, ...] | None = None) -> np.ndarray:
    """Apply the reference operator to a statevector (or a (2^n, k) batch of
    columns) without materializing the matrix. With a circuit's basis_layer
    L it applies L^dag R L, what that circuit implements: the layer's phases
    cancel except wire n - 1's exponent e inside the Rx(pi) block."""
    out = state.astype(complex)
    out[-2:] = -1j * state[[-1, -2]]
    if e := (basis_layer[-1] % 4 if basis_layer else 0):
        out[-2] *= 1j**e
        out[-1] *= 1j**-e
    return out


# numpy copies strided operands through its ufunc buffer, which changes no
# arithmetic. With numpy 2.4 on 2 cores, flips over runs of 4..32 contiguous
# amplitudes took 20-40 % less time under 256 elements than under the default
# 8192, and longer runs as little as under 64; 128 and 512 did no better.
# Re-measure these constants after a numpy upgrade.
_BUFFER = 256  # for every update _evolve applies (numpy 1.x wants a multiple of 16)
_MIN_RUN = 64  # shorter runs repeat phase vectors (broadcast ran slower), to _CHUNK amplitudes
# Updates on axes whose contiguous parts are under _SHORT amplitudes cost
# 2-4x more per amplitude. Chunks of 2^13 amplitudes ran up to 19 % slower
# than none and 2^17 slower than 2^15. A chunk's two copies cost about a flip
# there and back on a long axis, which four updates on the short axes repay.
_SHORT, _CHUNK, _MIN_STRETCH = 1 << 9, 1 << 15, 4
_SPARE = []  # chunk buffers kept between calls: fresh ones raised peak RSS


def _flip(u: np.ndarray, v: np.ndarray, to_x: bool | None) -> None:
    """Hadamard butterfly in place: (u, v) -> (u + v, u - v) into the X
    eigenbasis, and half that back to Z, so a round trip is exact. to_x None
    goes back to Z with each half from one rounding, so that (u, -v) comes
    back as the two halves exchanged: the mirror in max_deviations."""
    if to_x is None:
        d = u - v
        u += v
        u *= 0.5
        np.multiply(d, 0.5, out=v)
        return
    u += v
    if to_x:
        v *= -2
        v += u
    else:
        u *= 0.5
        np.subtract(u, v, out=v)


def _updates(p: Program, arr: np.ndarray):
    """The in-place updates that apply p to arr, basis layer included, as
    (views, update, arg): update(*views, arg).

    Each axis is held in Z or in the X eigenbasis. With its control in Z and
    its targets in X a run is one phase multiply on the control = 1 slice. A
    target whose next use is as a control is flipped on that slice only and
    back after the multiply, half the cost of flipping the whole axis there
    and back. All axes end in Z.

    The last s axes hold contiguous parts of arr under _SHORT amplitudes. A
    stretch of updates that touch only them runs chunk by chunk: np.copyto
    moves rows of arr into a buffer of at most _CHUNK amplitudes that holds
    those axes outermost, the stretch applies to views of it, and np.copyto
    moves them back. Every update is elementwise on amplitudes that differ in
    those axes only, so each one goes through the same operations as unblocked."""
    n = p.n
    nd = arr.reshape((2,) * n + (-1,))
    k = nd.shape[-1]
    s = min(n, ((_SHORT - 1) // k).bit_length())
    rows = 1 << max(1, (_CHUNK >> s) // k).bit_length() - 1  # of 2^s * k amplitudes per chunk
    chunks = (1 << n - s) // rows
    first = n - s if chunks > 1 else n  # updates on axes from first on may run chunk by chunk
    size = rows * k << s  # at most _CHUNK, or one row if that is more
    in_x = [False] * n
    # a target's factors on |+>, |-> where its control is 1, once per (kind,
    # angle): Rx(theta) = exp(-i theta/2 X), times e^{i theta/2} for CPRX
    pair = functools.cache(lambda kind, angle: np.exp(
        0.5j * angle.to_radians() * np.array([0, 2] if kind == CPRX else [-1, 1])))
    later, ahead = {}, []  # axis -> whether its next use is as a target
    for a, rotations in reversed(p.runs):
        ahead.append([t for t, _, _ in rotations if not later.get(t)])
        later |= {a: False} | {t: True for t, _, _ in rotations}

    # an update is (whether it touches only axes from first on, a key per view,
    # views, update, arg); a key holds (axis, bit) pairs. Views are built once.
    def at(base: np.ndarray, key: tuple) -> np.ndarray:
        return base[tuple(dict(key).get(i, slice(None)) for i in range(n + 1 - base.ndim, n))]

    view = functools.cache(lambda key: at(nd, key))
    one = functools.cache(lambda axis: ((((axis, 1),),), (view(((axis, 1),)),)))  # keys, views

    @functools.cache
    def flip(axis: int, to_x: bool, *control: int) -> tuple:  # on control = 1, if given
        keys = tuple(tuple((c, 1) for c in control) + ((axis, bit),) for bit in (0, 1))
        return min((axis, *control)) >= first, keys, tuple(map(view, keys)), _flip, to_x or (
            None if axis == n - 1 else False)  # axis n - 1 back to Z sign-symmetrically

    def layer(axes, sign: int):  # diag(1, i^e) on each wire's axis
        for axis, e in zip(axes, p.basis_layer or ()):
            if e := sign * e % 4:
                yield axis >= first, *one(axis), operator.imul, 1j**e

    def planned():
        yield from layer(range(n), 1)
        for (a, rotations), last_use in zip(p.runs, reversed(ahead)):
            targets = [t for t, _, _ in rotations]
            local = [t for t in last_use if not in_x[t]]
            for axis, to_x in ((a, False), *((t, True) for t in targets if t not in local)):
                if in_x[axis] != to_x:
                    in_x[axis] = to_x
                    yield flip(axis, to_x)
            yield from (flip(t, True, a) for t in local)
            (keys, (x,)), last, chunked = one(a), targets[-1], min(a, targets[0]) >= first
            vec = functools.reduce(np.multiply.outer, [pair(k, g) for _, k, g in rotations])
            vec = vec.reshape([2 if i in targets else 1 for i in range(n) if i != a] + [1])
            # x is contiguous from last on: on a short run outside the chunks, repeat vec there
            run = arr.size >> (max(a, last) + 1)
            if run < _MIN_RUN and a < last and not chunked and vec.size * run <= _CHUNK:
                vec = np.ascontiguousarray(np.broadcast_to(vec, vec.shape[:last] + x.shape[last:]))
            yield chunked, keys, (x,), operator.imul, vec
            yield from (flip(t, False, a) for t in local)
        yield from (flip(axis, False) for axis in range(n) if in_x[axis])
        yield from layer(p.axis, -1)  # on the axes that hold the wires at the end

    def stretch(steps):
        if len(steps) < _MIN_STRETCH:
            yield from (step[2:] for step in steps)
            return
        spare = _SPARE.pop() if _SPARE else np.empty(0, dtype=complex)
        spare = spare if spare.size >= size else np.empty(max(size, _CHUNK), dtype=complex)
        buf = spare[:size].reshape((2,) * s + (-1,))  # the last s axes outermost
        on_buf = functools.cache(lambda key: at(buf, key))
        steps = [(tuple(map(on_buf, keys)), update,
                  arg.reshape(arg.shape[n - s:]) if np.ndim(arg) else arg)
                 for _, keys, _, update, arg in steps]
        b = buf.reshape(1 << s, rows, k)
        for chunk in arr.reshape(chunks, rows, 1 << s, k):
            yield (b, chunk.transpose(1, 0, 2)), np.copyto, "no"
            yield from steps
            yield (chunk.transpose(1, 0, 2), b), np.copyto, "no"
        _SPARE.append(spare)

    return itertools.chain.from_iterable(
        stretch(list(steps)) if chunked else map(operator.itemgetter(slice(2, None)), steps)
        for chunked, steps in itertools.groupby(planned(), operator.itemgetter(0)))


class Program(NamedTuple):
    """What the simulator applies for a circuit, as a hashable value.

    runs holds (control axis, ((target axis, kind, angle), ...)) in the
    order applied, targets sorted; axis maps each wire to the axis that holds
    it after the gates. _evolve reads nothing else.
    """

    n: int
    basis_layer: tuple[int, ...] | None
    axis: tuple[int, ...]
    runs: tuple[tuple[int, tuple[tuple[int, str, DyadicAngle], ...]], ...]


def fused_program(c: Circuit) -> Program:
    """Relabel c's SWAPs and regroup its rotations into runs of one control."""
    n = c.n_qubits
    axis = list(range(n))  # wire -> the axis of arr that holds it
    # A rotation joins the latest run of its control axis unless a later run
    # touches its control or target axis, or that run already rotates its
    # target: it only moves past disjoint gates, into a run of distinct targets.
    last = [-1] * n  # axis -> index of the last run that touched it
    runs: list[tuple[int, dict]] = []  # (control axis, {target axis: (kind, angle)})
    for g in c.gates:
        if g.kind == SWAP:
            axis[g.target], axis[g.target2] = axis[g.target2], axis[g.target]
            continue
        a, t = axis[g.control], axis[g.target]
        r = last[a]
        if r < 0 or runs[r][0] != a or last[t] >= r:
            r = last[a] = len(runs)
            runs.append((a, {}))
        runs[r][1][t] = (g.kind, g.angle)
        last[t] = r
    return Program(n, c.basis_layer, tuple(axis),
                   tuple((a, tuple((t, *rot[t]) for t in sorted(rot))) for a, rot in runs))


def _evolve(p: Program, arr: np.ndarray) -> np.ndarray:
    """Apply p to a C-contiguous (2^n, ...) complex array, basis layer
    included. Works in place and returns arr, or a reordered copy of it when
    the SWAPs leave the wires on other axes."""
    default = np.setbufsize(_BUFFER)  # returns the caller's size, restored below
    try:
        for views, update, arg in _updates(p, arr):
            update(*views, arg)
    finally:
        np.setbufsize(default)
    if p.axis != tuple(range(p.n)):
        shape = (2,) * p.n + arr.shape[1:]
        order = list(p.axis) + list(range(p.n, len(shape)))
        arr = np.ascontiguousarray(arr.reshape(shape).transpose(order)).reshape(arr.shape)
    return arr


def unitary_of(c: Circuit) -> np.ndarray:
    """Dense unitary of a circuit, basis_layer conjugation included."""
    n = c.n_qubits
    if n > MAX_MATRIX_QUBITS:
        raise ValueError(f"n={n} exceeds matrix cap {MAX_MATRIX_QUBITS}")
    return _evolve(fused_program(c), np.eye(1 << n, dtype=complex))


def apply_many(c: Circuit, states: np.ndarray, program: Program | None = None) -> np.ndarray:
    """Apply a circuit to a statevector of matching width, or to a (2^n, k)
    matrix of statevector columns at once. A caller that already holds
    fused_program(c) passes it as program, and c is not fused again."""
    n = c.n_qubits
    if n > MAX_STATE_QUBITS:
        raise ValueError(f"n={n} exceeds statevector cap {MAX_STATE_QUBITS}")
    if states.shape[:1] != (1 << n,) or states.ndim > 2:
        raise ValueError(f"shape must be ({1 << n},) or ({1 << n}, k), got {states.shape}")
    return _evolve(program or fused_program(c), states.astype(complex, order="C"))


apply = apply_many  # one function under both names; perfbench's tracer wraps each


# amplitudes (2^n x columns) per block of random states, which bounds every
# sweep block: the grouping decides which normal draws make which state
_BLOCK_AMPLITUDES = 1 << 22
# amplitudes per exhaustive block: 1 MiB of complex128 in apply_many's copy,
# but at least _MIN_COLUMNS columns, since narrower blocks make shorter runs
# (n = 14: 8 columns ran 5-20 % slower). No deviation depends on the size. Up
# to n = 16 a sweep holds a block, its output and arrays of at most a chunk.
_SWEEP_AMPLITUDES = 1 << 16
_MIN_COLUMNS = 16
_COMPARE_AMPLITUDES = 1 << 13  # per step of global_phase_deviation: no block-sized temporary


def max_deviations(circuits, trials: int | None = None, seed: int = 0) -> list[float]:
    """Worst |c(x) - phase * reference(x)| for each circuit c, the reference
    under c's basis layer, over x in all basis states if trials is None, else
    trials random states drawn from seed."""
    if trials is not None and trials < 1:
        raise ValueError("trials must be >= 1")  # none would pass vacuously
    deviations: dict[Program, float] = {}
    programs = []
    for c in circuits:
        programs.append(p := fused_program(c))
        if p in deviations:
            continue
        n, dim = p.n, 1 << p.n
        if trials is None:  # fold the control-only wires: column col[x] holds basis state x
            targets = {t for _, rotations in p.runs for t, _, _ in rotations}
            fold = [a for a in range(n - 1) if a not in targets and p.axis[a] == a]
            mirror = (p.axis[-1] == n - 1 and all(a != n - 1 for a, _ in p.runs)
                      and (p.basis_layer or (0,))[-1] % 2 == 0)
            cols = dim >> len(fold) >> mirror
            col = np.broadcast_to(np.arange(cols << mirror).reshape(
                [1 if a in fold else 2 for a in range(n)]), (2,) * n).reshape(dim)
            if mirror:  # x_{n-1} = 1 gets no column (-1): it is x_{n-1} = 0's mirror
                col = np.where(col & 1, -1, col >> 1)
            amplitudes = min(_BLOCK_AMPLITUDES, max(_SWEEP_AMPLITUDES, _MIN_COLUMNS * dim))
        else:
            cols, amplitudes = trials, _BLOCK_AMPLITUDES
        chunk = max(1, min(cols, amplitudes // dim))
        rng = None if trials is None else np.random.default_rng(seed)  # np.random loads 6 MB
        phase, worst = None, 0.0
        for lo in range(0, cols, chunk):
            k = min(chunk, cols - lo)
            if trials is None:  # 0s and 1s, a byte each: apply_many's copy is the complex one
                block = np.zeros((dim, k), dtype=np.uint8)
                x = np.flatnonzero((col >= lo) & (col < lo + k))
                block[x, col[x] - lo] = 1
            else:
                a, b = rng.standard_normal((dim, k)), rng.standard_normal((dim, k))
                block = np.empty((dim, k), dtype=complex)  # a + 1j * b without temporaries
                block.real, block.imag = a, b
                del a, b  # block made after them: measured to keep peak RSS as before
                block /= np.linalg.norm(block, axis=0, keepdims=True)
            out = apply_many(c, block, program=p)  # calls by module name, for perfbench's tracer
            # undo R: on its two rows L^dag R L is B, B^2 = -I; factors +-1, +-i round exactly
            out[-2:] = -reference_apply(out[-2:], p.basis_layer)
            phase = _global_phase(out, block) if phase is None else phase
            worst = max(worst, global_phase_deviation(out, block, phase))
            del out, block  # free before the next block is made
        deviations[p] = worst
    return [deviations[p] for p in programs]


def _global_phase(u: np.ndarray, v: np.ndarray) -> complex:
    """u[i, 0] / v[i, 0] for the first row i where v's first column is largest."""
    i = int(np.argmax(np.abs(v[:, 0])))
    if v[i, 0] == 0:
        raise ValueError("v's first column is zero: no entry to read a phase from")
    return u[i, 0] / v[i, 0]


def global_phase_deviation(u: np.ndarray, v: np.ndarray, phase: complex | None = None) -> float:
    """max |u - phase * v| over a bounded number of rows at a time, for states
    or column blocks; phase defaults to u/v where v's first column is largest."""
    if u.shape != v.shape:
        raise ValueError("shape mismatch")
    u, v = u.reshape(len(u), -1), v.reshape(len(v), -1)
    if phase is None:
        phase = _global_phase(u, v)
    rows = max(1, _COMPARE_AMPLITUDES // u.shape[1])
    return float(np.max([np.max(np.abs(u[lo:lo + rows] - phase * v[lo:lo + rows]))
                         for lo in range(0, len(u), rows)]))


def op_norm_error(c: Circuit, n: int) -> float:
    """Spectral norm of unitary_of(c) - reference_unitary(n), from an SVD.
    Capped at n = 10, a 1024 x 1024 SVD."""
    if n > 10:
        raise ValueError("op_norm_error is limited to n <= 10")
    return float(np.linalg.norm(unitary_of(c) - reference_unitary(n), 2))
