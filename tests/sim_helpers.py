"""Small numpy helpers the simulator tests share; the library does not need them."""

from __future__ import annotations

import numpy as np


def random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    """A normalized random n-qubit statevector."""
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return v / np.linalg.norm(v)


def is_unitary(u: np.ndarray, tol: float = 1e-10) -> bool:
    dim = u.shape[0]
    return bool(np.max(np.abs(u.conj().T @ u - np.eye(dim))) <= tol)
