"""Reference constructions the main generator is compared against.

barenco_toffoli expands the classic controlled-root-of-NOT recursion into
2-qubit CPRX gates only. The expansion is exponential in n (3x per wire), so
it is capped at n = 12 and used for correctness checks and small-n size
comparisons. Because CPRX(pi) is exactly X, the result equals the textbook
permutation Toffoli, not the Rx(pi)-target variant the flat generator
produces; tests compare against the right operator for each.
"""

from __future__ import annotations

from .ir import CPRX, Circuit, DyadicAngle, Gate

__all__ = [
    "MAX_BARENCO_QUBITS",
    "barenco_toffoli",
    "barenco_gate_count",
]

MAX_BARENCO_QUBITS = 12


def barenco_toffoli(n: int) -> Circuit:
    """Controlled^{n-1} X via V/V-dagger ladders, V_e = CPRX(pi/2^e)."""
    if not 2 <= n <= MAX_BARENCO_QUBITS:
        raise ValueError(f"n must be in [2, {MAX_BARENCO_QUBITS}]")
    gates: list[Gate] = []

    def emit(wires: tuple[int, ...], d: int) -> None:
        # controlled^{len(wires)-1} PRx(pi/2^d), target = last wire
        if len(wires) == 2:
            gates.append(Gate(CPRX, wires[0], wires[1], None, DyadicAngle(1, d)))
            return
        a, b = wires[-2], wires[-1]
        gates.append(Gate(CPRX, a, b, None, DyadicAngle(1, d + 1)))
        emit(wires[:-1], 0)
        gates.append(Gate(CPRX, a, b, None, DyadicAngle(-1, d + 1)))
        emit(wires[:-1], 0)
        emit(wires[:-2] + (wires[-1],), d + 1)

    emit(tuple(range(n)), 0)
    return Circuit(n, tuple(gates))


def barenco_gate_count(n: int) -> int:
    """Gate total of barenco_toffoli(n), within its cap: the closed form of the
    expansion recursion T(m) = 3 T(m-1) + 2, T(2) = 1."""
    if not 2 <= n <= MAX_BARENCO_QUBITS:
        raise ValueError(f"n must be in [2, {MAX_BARENCO_QUBITS}]")
    return 2 * 3 ** (n - 2) - 1

