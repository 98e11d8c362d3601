"""Ancilla-free synthesis of the n-qubit Toffoli over controlled x-rotations.

Three generators share one target operator (identity except Rx(pi) on the
last two basis states):

* synth_toffoli: the flat form, sections C1..C6.
* synth_recursive: the textbook recursion the flat form compresses. Same
  operator, exponentially many gates; kept as a cross-check.
* synth_approx: the flat form with rotations finer than pi/2^kmax dropped.

The flat form is two halves, flat = H(n, +) . H(n - 1, -). A half H(m, s)
on wires 0..m-1 is a fan, C1 then C2 (wire 0 as control, angles signed s),
followed by a mirror, C3. C4..C6 are C1..C3 of synth_toffoli(n - 1) with C2
negated. README gives the gate counts and depths.

Wires are 0-based. Within a section, gates sharing a control commute, so the
emitted target order (ascending) is one valid representative.

Each gate is fixed by its (control, target, sign), so sections are cut from a
shared table of rows, one per (control, sign), grown on demand to the widest
n built so far; circuits share these immutable Gate objects.
"""

from __future__ import annotations

import functools
from itertools import chain

from .baseline import MAX_BARENCO_QUBITS
from .ir import CRX, HALVES, SECTION_LABELS, Circuit, DyadicAngle, Gate, Section

__all__ = [
    "rotation_angle",
    "gate_count",
    "synth_toffoli",
    "synth_approx",
    "synth_recursive",
    "basis_conjugate",
]

_angle = functools.cache(DyadicAngle)  # few distinct angles, shared by all gates


def rotation_angle(c: int, t: int, sign: int) -> DyadicAngle:
    """Angle of the logical rotation control c -> target t in a part of the
    given sign: pi/2^(t-1) from wire 0, pi/2^(t-c) from any other wire."""
    return _angle(sign, t - 1 if c == 0 else t - c)


def gate_count(n: int) -> int:
    """Gate total of the flat construction, (n-1)^2 + (n-2)^2 = 2n^2 - 6n + 5."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return 2 * n * n - 6 * n + 5


# Row table: (control c, sign) -> the gates c -> t for t = c + 1, c + 2, ...
# in target order. A row is extended by storing a new, longer list under its
# key, never by mutating the stored one, and callers get slices only, so
# concurrent or re-entrant callers see complete rows and cannot alter them.
_rows: dict[tuple[int, int], list[Gate]] = {}


def _row(c: int, sign: int, m: int) -> list[Gate]:
    """The gates c -> c + 1 .. m - 1 with angles rotation_angle(c, t, sign)."""
    row = _rows.get((c, sign), [])
    built = c + 1 + len(row)  # first target not yet in the row
    if built < m:
        row = row + [
            Gate(CRX, c, t, None, rotation_angle(c, t, sign)) for t in range(built, m)
        ]
        _rows[c, sign] = row
    return row[: m - c - 1]


def _half(m: int, sign: int) -> list[list[Gate]]:
    """H(m, sign) as three sections: the fan's C1 (controls descending, each
    rotating every later wire) and C2 (from wire 0, angles signed `sign`, a
    full pi onto wire 1), then the mirror C3, C1 negated with controls
    ascending."""
    return [
        list(chain.from_iterable(_row(c, 1, m) for c in range(m - 2, 0, -1))),
        _row(0, sign, m),
        list(chain.from_iterable(_row(c, -1, m) for c in range(1, m - 1))),
    ]


def _sections(n: int) -> list[list[Gate]]:
    """C1..C6: H(n, +) then H(n - 1, -) (ir.HALVES), cut from the shared row table."""
    return [part for narrower, sign, *_ in HALVES for part in _half(n - narrower, sign)]


def _sectioned(n: int, sections: list[list[Gate]]) -> Circuit:
    gates: list[Gate] = []
    tags = []
    for label, part in zip(SECTION_LABELS, sections):
        tags.append(Section(label, len(gates), len(gates) + len(part)))
        gates += part
    return Circuit(n, tuple(gates), tuple(tags))


def synth_toffoli(n: int) -> Circuit:
    """Flat linear-depth-schedulable construction on n >= 2 wires."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return _sectioned(n, _sections(n))


def synth_approx(n: int, kmax: int) -> Circuit:
    """Flat construction with every rotation finer than pi/2^kmax removed."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    return _sectioned(
        n, [[g for g in part if g.angle.den_exp <= kmax] for part in _sections(n)]
    )


def synth_recursive(n: int) -> Circuit:
    """Unfolded recursion: T(m) = prod_k [CRX(pi/2^{m-k}) T(k) CRX(-..) T(k)^-1]
    followed by CRX(pi/2^{m-2}) from the first wire, so T(2), with an empty
    product, is a single CRX(pi).
    Same operator as synth_toffoli, exponentially longer: 2 * 3^(n-2) - 1
    gates, as many as barenco_toffoli, so it shares that construction's cap."""
    if not 2 <= n <= MAX_BARENCO_QUBITS:
        raise ValueError(f"n must be in [2, {MAX_BARENCO_QUBITS}]")

    @functools.cache
    def build(m: int) -> list[Gate]:
        out: list[Gate] = []
        for k in range(m - 1, 1, -1):
            sub = build(k)
            out.append(Gate(CRX, k - 1, m - 1, None, DyadicAngle(1, m - k)))
            out.extend(sub)
            out.append(Gate(CRX, k - 1, m - 1, None, DyadicAngle(-1, m - k)))
            out.extend(
                Gate(CRX, g.control, g.target, None, -g.angle) for g in reversed(sub)
            )
        out.append(Gate(CRX, 0, m - 1, None, DyadicAngle(1, m - 2)))
        return out

    return Circuit(n, tuple(build(n)))


def basis_conjugate(c: Circuit) -> Circuit:
    """Sandwich the circuit between per-wire diag(1, -i) and its adjoint.

    In the conjugated frame every computational basis state |x> is sent to
    the Toffoli image of x up to a unit phase, so the circuit reads as a
    classical bit flip on basis labels. The layer lives in metadata
    (basis_layer exponent -1 per wire); the simulator applies it.
    """
    if c.basis_layer is not None:
        layer = tuple((e - 1) % 4 for e in c.basis_layer)
    else:
        layer = (-1,) * c.n_qubits
    return Circuit(c.n_qubits, c.gates, c.sections, layer)
