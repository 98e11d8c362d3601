"""Dense statevector/unitary simulation used as the verification oracle.

The reference operator is built directly from its block definition (identity
except an Rx(pi) block on the last two basis indices), never from gates, so
circuit checks have an independent path. Matrices and states are plain numpy
arrays; wire 0 is the most significant bit of a basis index.

unitary_of, apply and apply_many share one in-place loop (_evolve). Default
widths are capped: the matrix cap (13 qubits) bounds unitary_of and
reference_unitary, and the statevector cap (20) bounds apply/apply_many and
so every verify sweep. The env var TOFFOLI_FORGE_MAX_SIM_QUBITS (an integer
>= 2) overrides both caps.
"""

from __future__ import annotations

import math
import os
import warnings

import numpy as np

from .ir import CPRX, CRX, SWAP, Circuit

__all__ = [
    "DEFAULT_MAX_MATRIX_QUBITS",
    "DEFAULT_MAX_STATE_QUBITS",
    "ENV_MAX_SIM_QUBITS",
    "max_matrix_qubits",
    "max_state_qubits",
    "reference_unitary",
    "reference_apply",
    "unitary_of",
    "apply",
    "random_state",
    "equiv_global_phase",
    "global_phase_deviation",
    "op_norm_error",
    "is_unitary",
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


def _apply_gate(arr: np.ndarray, gate) -> None:
    """Apply one gate in place; arr's leading axes are its qubit axes."""
    idx0: list = [slice(None)] * arr.ndim
    if gate.kind == SWAP:
        a, b = gate.target, gate.target2
        i01 = list(idx0)
        i01[a], i01[b] = 0, 1
        i10 = list(idx0)
        i10[a], i10[b] = 1, 0
        tmp = arr[tuple(i01)].copy()
        arr[tuple(i01)] = arr[tuple(i10)]
        arr[tuple(i10)] = tmp
        return
    theta = gate.angle.to_radians()
    c, t = gate.control, gate.target
    s0 = list(idx0)
    s0[c], s0[t] = 1, 0
    s1 = list(idx0)
    s1[c], s1[t] = 1, 1
    a0 = arr[tuple(s0)].copy()
    a1 = arr[tuple(s1)]
    co = math.cos(theta / 2)
    si = -1j * math.sin(theta / 2)
    new0 = co * a0 + si * a1
    new1 = si * a0 + co * a1
    if gate.kind == CPRX:
        ph = complex(math.cos(theta / 2), math.sin(theta / 2))
        new0 = ph * new0
        new1 = ph * new1
    arr[tuple(s0)] = new0
    arr[tuple(s1)] = new1


def _apply_basis_layer(arr: np.ndarray, layer, adjoint: bool) -> None:
    for w, e in enumerate(layer):
        k = (-e if adjoint else e) % 4
        if k == 0:
            continue
        sl: list = [slice(None)] * arr.ndim
        sl[w] = 1
        arr[tuple(sl)] = arr[tuple(sl)] * (1j**k)


def _evolve(c: Circuit, arr: np.ndarray) -> np.ndarray:
    """Apply c in place to a (2^n, ...) complex array, basis layer included."""
    view = arr.reshape((2,) * c.n_qubits + arr.shape[1:])
    if c.basis_layer is not None:
        _apply_basis_layer(view, c.basis_layer, adjoint=False)
    for g in c.gates:
        _apply_gate(view, g)
    if c.basis_layer is not None:
        _apply_basis_layer(view, c.basis_layer, adjoint=True)
    return arr


def unitary_of(c: Circuit) -> np.ndarray:
    """Dense unitary of a circuit, basis_layer conjugation included."""
    n = c.n_qubits
    if n > max_matrix_qubits():
        raise ValueError(f"n={n} exceeds matrix cap {max_matrix_qubits()}")
    return _evolve(c, np.eye(1 << n, dtype=complex))


def apply(c: Circuit, state: np.ndarray) -> np.ndarray:
    """Apply a circuit to a statevector of matching width."""
    n = c.n_qubits
    if n > max_state_qubits():
        raise ValueError(f"n={n} exceeds statevector cap {max_state_qubits()}")
    if state.shape != (1 << n,):
        raise ValueError(f"state must have shape ({1 << n},), got {state.shape}")
    return _evolve(c, state.astype(complex))


def apply_many(c: Circuit, states: np.ndarray) -> np.ndarray:
    """Apply a circuit to a (2^n, k) matrix of statevector columns at once."""
    n = c.n_qubits
    if n > max_state_qubits():
        raise ValueError(f"n={n} exceeds statevector cap {max_state_qubits()}")
    if states.ndim != 2 or states.shape[0] != 1 << n:
        raise ValueError(f"states must have shape ({1 << n}, k), got {states.shape}")
    return _evolve(c, states.astype(complex))


def random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return v / np.linalg.norm(v)


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


def equiv_global_phase(u: np.ndarray, v: np.ndarray, tol: float) -> bool:
    if tol <= 0:
        raise ValueError("tol must be positive")
    return global_phase_deviation(u, v) <= tol


def is_unitary(u: np.ndarray, tol: float = 1e-10) -> bool:
    dim = u.shape[0]
    return bool(np.max(np.abs(u.conj().T @ u - np.eye(dim))) <= tol)


def op_norm_error(c: Circuit, n: int, rel_tol: float = 1e-6, max_iter: int = 10_000) -> float:
    """Spectral norm of unitary_of(c) - reference_unitary(n).

    Power iteration on D†D; raises RuntimeError if the eigenvalue estimate
    has not stabilized to rel_tol within max_iter iterations. Capped at
    n = 10: the iteration keeps three dense matrices live.
    """
    if n > 10:
        raise ValueError("op_norm_error is limited to n <= 10")
    delta = unitary_of(c) - reference_unitary(n)
    dim = delta.shape[0]
    rng = np.random.default_rng(0)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    lam_prev = -1.0
    for _ in range(max_iter):
        w = delta.conj().T @ (delta @ v)
        lam = float(np.real(np.vdot(v, w)))
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            return 0.0
        v = w / norm_w
        if lam_prev >= 0 and abs(lam - lam_prev) <= rel_tol * max(lam, 1e-300):
            return math.sqrt(max(lam, 0.0))
        lam_prev = lam
    raise RuntimeError(f"power iteration did not converge in {max_iter} iterations")
