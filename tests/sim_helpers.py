"""Small numpy helpers the simulator tests share; the library does not need them."""

from __future__ import annotations

import numpy as np

from toffoli_forge import ir, sim


def random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    """A normalized random n-qubit statevector."""
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return v / np.linalg.norm(v)


def is_unitary(u: np.ndarray, tol: float = 1e-10) -> bool:
    dim = u.shape[0]
    return bool(np.max(np.abs(u.conj().T @ u - np.eye(dim))) <= tol)


def gate_by_gate(c: ir.Circuit, states: np.ndarray) -> np.ndarray:
    """c applied to a (2^n, k) batch one gate at a time, sharing no code with
    the simulator: each rotation as its 2x2 matrix on the control = 1 slice,
    each SWAP as an exchange of two axes, no regrouping."""
    n = c.n_qubits
    x = states.astype(complex).reshape((2,) * n + states.shape[1:])  # axis w holds wire w

    def layer(sign: int) -> None:
        for w, e in enumerate(c.basis_layer or ()):
            x[(slice(None),) * w + (1,)] *= 1j ** (sign * e % 4)

    layer(1)
    for g in c.gates:
        if g.kind == ir.SWAP:
            x = x.swapaxes(g.target, g.target2)
            continue
        half = g.angle.to_radians() / 2
        co, si = np.cos(half), -1j * np.sin(half)
        if g.kind == ir.CPRX:
            co, si = co * np.exp(1j * half), si * np.exp(1j * half)
        pair = np.moveaxis(x[(slice(None),) * g.control + (1,)],
                           g.target - (g.target > g.control), 0)
        u, v = pair[0].copy(), pair[1].copy()
        pair[0] = co * u + si * v
        pair[1] = si * u + co * v
    layer(-1)
    return np.ascontiguousarray(x).reshape(states.shape)


def unfolded_deviation(c: ir.Circuit) -> float:
    """sim.max_deviations' exhaustive figure without its fold: the full
    identity through sim.apply_many and sim.reference_apply as one block, the
    phase read where the reference's column 0 is largest."""
    eye = np.eye(1 << c.n_qubits, dtype=complex)
    out, ref = sim.apply_many(c, eye), sim.reference_apply(eye, c.basis_layer)
    i = int(np.argmax(np.abs(ref[:, 0])))
    return float(np.max(np.abs(out - out[i, 0] / ref[i, 0] * ref)))
