"""Dense statevector/unitary simulation used as the verification oracle.

The reference operator is built directly from its block definition (identity
except an Rx(pi) block on the last two basis indices), never from gates, so
circuit checks have an independent path. Matrices and states are plain numpy
arrays; wire 0 is the most significant bit of a basis index.

unitary_of, apply and apply_many share one in-place loop in two steps.
fused_program turns a circuit into a Program, a hashable value: SWAPs
become a wire -> axis map, swapped on the way and applied as one transpose
at the end if it is not the identity, and rotations are regrouped into runs
of one control, using only two commutation rules: gates on disjoint wires
commute, and so do gates with one control and different targets. Scheduled
and routed circuits interleave controls, so this recovers the runs synth
emits, and the three stages reduce to one program. _evolve then applies
only the program: each run's targets, sorted, are cut into consecutive
chunks of up to _FUSE_WIDTH, and each chunk is applied as one dense kron of
their 2x2 blocks, one matmul on the control = 1 slice; a lone gate over a
short contiguous inner run keeps the elementwise update, which is faster
there. Equal programs applied to equal arrays give bit-identical results,
so a caller may key results on the program. Fusion and reordering round
differently from gate-by-gate, so deviations can move in their last digits.

Default widths are capped: the matrix cap (13 qubits) bounds unitary_of and
reference_unitary, and the statevector cap (20) bounds apply/apply_many and
so every verify sweep. The env var TOFFOLI_FORGE_MAX_SIM_QUBITS (an integer
>= 2) overrides both caps.
"""

from __future__ import annotations

import functools
import math
import os
import warnings
from typing import NamedTuple

import numpy as np

from .ir import CPRX, SWAP, Circuit, DyadicAngle

__all__ = [
    "DEFAULT_MAX_MATRIX_QUBITS",
    "DEFAULT_MAX_STATE_QUBITS",
    "ENV_MAX_SIM_QUBITS",
    "Program",
    "fused_program",
    "max_matrix_qubits",
    "max_state_qubits",
    "reference_unitary",
    "reference_apply",
    "unitary_of",
    "apply",
    "apply_many",
    "global_phase_deviation",
    "op_norm_error",
]

DEFAULT_MAX_MATRIX_QUBITS = 13
DEFAULT_MAX_STATE_QUBITS = 20
ENV_MAX_SIM_QUBITS = "TOFFOLI_FORGE_MAX_SIM_QUBITS"


def _cap(default: int, what: str, need: str) -> int:
    """The qubit cap for one kind of array: the default, or the env override."""
    raw = os.environ.get(ENV_MAX_SIM_QUBITS)
    if raw is None:
        return default
    try:
        cap = int(raw)
        if cap < 2:
            raise ValueError
    except ValueError:
        raise ValueError(f"{ENV_MAX_SIM_QUBITS} must be an integer >= 2, got {raw!r}") from None
    if cap > default:
        warnings.warn(f"{what} cap raised to {cap} qubits; {need}", RuntimeWarning,
                      stacklevel=3)
    return cap


def max_matrix_qubits() -> int:
    return _cap(DEFAULT_MAX_MATRIX_QUBITS, "matrix simulation",
                "a dense unitary needs 16 * 4**n bytes")


def max_state_qubits() -> int:
    return _cap(DEFAULT_MAX_STATE_QUBITS, "statevector", "a state needs 16 * 2**n bytes")


def reference_unitary(n: int) -> np.ndarray:
    """The n-qubit target operator: identity except Rx(pi) = -iX on the
    2-dimensional block spanned by |1..10> and |1..11>."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if n > max_matrix_qubits():
        raise ValueError(f"n={n} exceeds matrix cap {max_matrix_qubits()}")
    dim = 1 << n
    u = np.eye(dim, dtype=complex)
    u[dim - 2, dim - 2] = 0.0
    u[dim - 1, dim - 1] = 0.0
    u[dim - 2, dim - 1] = -1j
    u[dim - 1, dim - 2] = -1j
    return u


def reference_apply(state: np.ndarray) -> np.ndarray:
    """Apply the reference operator to a statevector (or a (2^n, k) batch of
    columns) without materializing the matrix."""
    dim = state.shape[0]
    out = state.astype(complex)
    out[dim - 2] = -1j * state[dim - 1]
    out[dim - 1] = -1j * state[dim - 2]
    return out


# Runs of up to this many same-control gates on consecutive target axes are
# applied as one dense 2^K x 2^K block; no K in 3..7 measured faster than 5.
_FUSE_WIDTH = 5
# A lone gate whose contiguous inner run (the amplitudes after its last
# axis) is shorter than this is applied elementwise: there one matmul per
# short row costs more than the strided arithmetic (64..1024 measured alike,
# 16 and 4096 slower).
_MIN_MATMUL_INNER = 64


def _rx_block(kind: str, angle: DyadicAngle) -> np.ndarray:
    """The 2x2 matrix a CRX/CPRX gate applies to its target where its control is 1."""
    theta = angle.to_radians()
    co = math.cos(theta / 2)
    si = -1j * math.sin(theta / 2)
    block = np.array([[co, si], [si, co]])
    if kind == CPRX:
        block *= complex(math.cos(theta / 2), math.sin(theta / 2))
    return block


def _apply_gate(x: np.ndarray, block: np.ndarray) -> None:
    """Elementwise 2x2 update in place of a (..., 2, inner) view."""
    (u00, u01), (u10, u11) = block
    a0 = x[..., 0, :].copy()
    a1 = x[..., 1, :]
    new0 = u00 * a0 + u01 * a1
    new1 = u10 * a0 + u11 * a1
    x[..., 0, :] = new0
    x[..., 1, :] = new1


def _apply_run(arr: np.ndarray, control: int, first: int, blocks: list) -> None:
    """Apply kron(blocks) in place to the target axes first, first + 1, ... of
    the C-contiguous (2^n, ...) array arr, where axis `control` is 1. Axis 0
    is the most significant bit of the leading index."""
    k = len(blocks)
    if control < first:
        x = arr.reshape(1 << control, 2, 1 << (first - control - 1), 1 << k, -1)[:, 1]
    else:
        x = arr.reshape(1 << first, 1 << k, 1 << (control - first - k), 2, -1)[:, :, :, 1]
        x = x.swapaxes(1, 2)
    if k == 1 and x.shape[-1] < _MIN_MATMUL_INNER:
        _apply_gate(x, blocks[0])
    else:
        x[...] = functools.reduce(np.kron, blocks) @ x


def _apply_basis_layer(arr: np.ndarray, layer, adjoint: bool) -> None:
    for w, e in enumerate(layer):
        k = (-e if adjoint else e) % 4
        if k == 0:
            continue
        sl: list = [slice(None)] * arr.ndim
        sl[w] = 1
        arr[tuple(sl)] = arr[tuple(sl)] * (1j**k)


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
    n = p.n
    shape = (2,) * n + arr.shape[1:]
    if p.basis_layer is not None:
        _apply_basis_layer(arr.reshape(shape), p.basis_layer, adjoint=False)
    block = functools.cache(_rx_block)  # each distinct (kind, angle) once per call
    # each run's targets, cut into consecutive chunks of <= _FUSE_WIDTH
    for a, rotations in p.runs:
        lo = 0
        for i in range(1, len(rotations) + 1):
            if (i == len(rotations) or rotations[i][0] != rotations[i - 1][0] + 1
                    or i - lo == _FUSE_WIDTH):
                _apply_run(arr, a, rotations[lo][0],
                           [block(kind, angle) for _, kind, angle in rotations[lo:i]])
                lo = i
    if p.axis != tuple(range(n)):
        order = list(p.axis) + list(range(n, len(shape)))
        arr = np.ascontiguousarray(arr.reshape(shape).transpose(order)).reshape(arr.shape)
    if p.basis_layer is not None:
        _apply_basis_layer(arr.reshape(shape), p.basis_layer, adjoint=True)
    return arr


def unitary_of(c: Circuit) -> np.ndarray:
    """Dense unitary of a circuit, basis_layer conjugation included."""
    n = c.n_qubits
    if n > max_matrix_qubits():
        raise ValueError(f"n={n} exceeds matrix cap {max_matrix_qubits()}")
    return _evolve(fused_program(c), np.eye(1 << n, dtype=complex))


def apply(c: Circuit, state: np.ndarray) -> np.ndarray:
    """Apply a circuit to a statevector of matching width."""
    n = c.n_qubits
    if n > max_state_qubits():
        raise ValueError(f"n={n} exceeds statevector cap {max_state_qubits()}")
    if state.shape != (1 << n,):
        raise ValueError(f"state must have shape ({1 << n},), got {state.shape}")
    return _evolve(fused_program(c), state.astype(complex, order="C"))


def apply_many(c: Circuit, states: np.ndarray) -> np.ndarray:
    """Apply a circuit to a (2^n, k) matrix of statevector columns at once."""
    n = c.n_qubits
    if n > max_state_qubits():
        raise ValueError(f"n={n} exceeds statevector cap {max_state_qubits()}")
    if states.ndim != 2 or states.shape[0] != 1 << n:
        raise ValueError(f"states must have shape ({1 << n}, k), got {states.shape}")
    return _evolve(fused_program(c), states.astype(complex, order="C"))


def global_phase_deviation(u: np.ndarray, v: np.ndarray) -> float:
    """max |u - phi*v| with phi read off the first well-conditioned entry of v."""
    if u.shape != v.shape:
        raise ValueError("shape mismatch")
    dim = v.shape[0]
    thresh = 0.5 / math.sqrt(dim)
    flat_v = v.reshape(-1)
    pivots = np.flatnonzero(np.abs(flat_v) > thresh)
    if pivots.size == 0:
        raise ValueError("no entry of v exceeds the pivot threshold")
    i = int(pivots[0])
    phi = u.reshape(-1)[i] / flat_v[i]
    return float(np.max(np.abs(u - phi * v)))


def op_norm_error(c: Circuit, n: int) -> float:
    """Spectral norm of unitary_of(c) - reference_unitary(n), from an SVD.
    Capped at n = 10, a 1024 x 1024 SVD."""
    if n > 10:
        raise ValueError("op_norm_error is limited to n <= 10")
    return float(np.linalg.norm(unitary_of(c) - reference_unitary(n), 2))
