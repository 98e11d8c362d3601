"""Exact intermediate representation for controlled x-rotation circuits.

Angles are dyadic multiples of pi, s * pi / 2**e with integer s and e >= 0,
kept in canonical form so structural checks (cancellation, telescoping sums,
serialization round-trips) are bit-exact. Floating point enters only at the
simulation boundary.

Wire convention: wires are 0-based; wire 0 is the most significant bit of a
basis index, so at n=2 the state |10> has index 2. Controls are standard
|1>-controls.
"""

from __future__ import annotations

import functools
import json
import math
from typing import Iterable, NamedTuple

__all__ = [
    "FORMAT_VERSION",
    "HALVES",
    "SECTION_LABELS",
    "CRX",
    "CPRX",
    "SWAP",
    "DyadicAngle",
    "dyadic",
    "Gate",
    "crx",
    "cprx",
    "swap",
    "Section",
    "Circuit",
    "circuit_to_json",
    "circuit_from_json",
]

FORMAT_VERSION = "1"
# The flat construction's two halves, H(n, +) then H(n - 1, -): per half, how
# many wires it is narrower than n, its sign, and the section labels of its
# fan and of its mirror.
HALVES = ((0, 1, ("C1", "C2"), ("C3",)), (1, -1, ("C4", "C5"), ("C6",)))
SECTION_LABELS = tuple(label for *_, fan, mirror in HALVES for label in fan + mirror)

# Gate kinds. crx is the controlled x-rotation Rx(theta) = exp(-i theta X / 2);
# cprx is the controlled phased x-rotation PRx(theta) = e^{i theta/2} Rx(theta),
# whose theta=pi instance is exactly X; swap is a first-class two-qubit SWAP.
CRX = "crx"
CPRX = "cprx"
SWAP = "swap"


class DyadicAngle(NamedTuple):
    """Angle s * pi / 2**e. Canonical: s == 0 implies e == 0, else s is odd."""

    num: int
    den_exp: int

    def __neg__(self) -> "DyadicAngle":
        return DyadicAngle(-self.num, self.den_exp)

    def to_radians(self) -> float:
        """s * pi / 2**e as a float, for any s and e: an s past 1000 bits is
        first reduced mod 4 pi (the period of crx and cprx) if that shortens it,
        and only its top 1000 bits are scaled, so 2**e is never built."""
        num, e = self.num, self.den_exp
        if num.bit_length() > max(e + 2, 1000):  # |s| >= 2**(e + 2)
            num %= 1 << (e + 2)
        shift = max(num.bit_length() - 1000, 0)
        return math.ldexp((num >> shift) * math.pi, shift - e)  # 0.0 below the least double

    def is_canonical(self) -> bool:
        if self.den_exp < 0:
            return False
        if self.num == 0:
            return self.den_exp == 0
        return self.num % 2 == 1 or self.den_exp == 0


def dyadic(num: int, den_exp: int = 0) -> DyadicAngle:
    """Build a canonical DyadicAngle, reducing s/2^e by s's trailing zero bits,
    at most e of them, in one shift."""
    if den_exp < 0:
        raise ValueError("den_exp must be >= 0")
    if num == 0:
        return DyadicAngle(0, 0)
    tz = min((num & -num).bit_length() - 1, den_exp)
    return DyadicAngle(num >> tz, den_exp - tz)


PI = DyadicAngle(1, 0)


class Gate(NamedTuple):
    """A two-qubit gate. target2 is used by SWAP only; angle by CRX/CPRX only."""

    kind: str
    control: int | None
    target: int
    target2: int | None
    angle: DyadicAngle | None

    def qubits(self) -> tuple[int, ...]:
        if self.kind == SWAP:
            return (self.target, self.target2)
        return (self.control, self.target)


def crx(angle: DyadicAngle, control: int, target: int) -> Gate:
    return Gate(CRX, control, target, None, angle)


def cprx(angle: DyadicAngle, control: int, target: int) -> Gate:
    return Gate(CPRX, control, target, None, angle)


def swap(a: int, b: int) -> Gate:
    return Gate(SWAP, None, a, b, None)


class Section(NamedTuple):
    """Half-open gate-index range [start, end) tagged with a construction label."""

    label: str
    start: int
    end: int


def _gate_problem(g: Gate, n: int) -> str | None:
    """What makes g malformed on n wires, or None."""
    if g.kind not in (CRX, CPRX, SWAP):
        return f"unknown kind {g.kind!r}"
    if g.kind == SWAP:
        if g.control is not None or g.angle is not None:
            return "swap carries no control/angle"
        if not (0 <= g.target < n and 0 <= g.target2 < n):
            return "qubit index out of range"
        return "swap qubits must differ" if g.target == g.target2 else None
    if g.control is None or g.angle is None or g.target2 is not None:
        return "malformed rotation gate"
    if not (0 <= g.control < n and 0 <= g.target < n):
        return "qubit index out of range"
    if g.control == g.target:
        return "control equals target"
    if not g.angle.is_canonical():
        return f"non-canonical angle {g.angle}"
    return None


class Circuit(NamedTuple):
    """An ordered list of gates on n_qubits wires.

    sections, when present, must be contiguous, non-overlapping, ordered
    C1..C6, and jointly cover every gate. basis_layer, when present, is a
    per-wire exponent k: the simulator applies diag(1, i**k) on each wire
    before the gates and the adjoint after.
    """

    n_qubits: int
    gates: tuple[Gate, ...]
    sections: tuple[Section, ...] | None = None
    basis_layer: tuple[int, ...] | None = None

    def validate(self) -> None:
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        n = self.n_qubits
        # equal gates pass or fail alike: check each at its first use, in order
        for g in dict.fromkeys(self.gates):
            problem = _gate_problem(g, n)
            if problem is not None:
                raise ValueError(f"gate {self.gates.index(g)}: {problem}")
        if self.sections is not None:
            labels = [s.label for s in self.sections]
            if labels != [l for l in SECTION_LABELS if l in labels]:
                raise ValueError("sections must be ordered C1..C6 without repeats")
            pos = 0
            for s in self.sections:
                if s.start != pos or s.end < s.start:
                    raise ValueError("sections must be contiguous and non-overlapping")
                pos = s.end
            if pos != len(self.gates):
                raise ValueError("sections must jointly cover all gates")
        if self.basis_layer is not None and len(self.basis_layer) != n:
            raise ValueError("basis_layer must list one exponent per wire")


# The writer joins strings into exactly the bytes json.dumps(obj, indent=2)
# gives, without the pure-Python encoder that indent= selects: %d and str()
# write an int as json does, and kinds and names are ASCII, needing no escapes.
_SWAP_JSON = '{\n      "kind": "swap",\n      "a": %d,\n      "b": %d\n    }'
_ROTATION_JSON = (
    '{\n      "kind": "%s",\n      "control": %d,\n      "target": %d,\n'
    '      "angle": {\n        "num": %d,\n        "den_exp": %d\n      }\n    }'
)
_SECTION_JSON = '{\n      "label": %s,\n      "start": %d,\n      "end": %d\n    }'


def json_block(items: Iterable[str], level: int, brackets: str = "[]") -> str:
    """A JSON array (or, with brackets "{}", object) of encoded items (or
    '"name": value' members) that sit `level` indents deep."""
    pad = "\n" + "  " * level
    body = ("," + pad).join(items)
    return f"{brackets[0]}{pad}{body}\n{'  ' * (level - 1)}{brackets[1]}" if body else brackets


def _gate_json(g: Gate) -> str:
    """g as an item of "gates"."""
    if g.kind == SWAP:
        return _SWAP_JSON % (g.target, g.target2)
    return _ROTATION_JSON % (g.kind, g.control, g.target, g.angle.num, g.angle.den_exp)


def _int(value: object) -> int:
    if type(value) is not int:  # a bool, float or string is not coerced
        raise ValueError(f"expected a JSON integer, not {json.dumps(value)}")
    return value


def _gate_from_obj(obj: object) -> Gate:
    if not isinstance(obj, dict):
        raise ValueError(f"gate must be an object, not {obj!r}")
    kind = obj.get("kind")
    if kind == "swap":
        return swap(_int(obj["a"]), _int(obj["b"]))
    if kind in (CRX, CPRX):
        a = obj["angle"]
        ang = dyadic(_int(a["num"]), _int(a["den_exp"]))
        return Gate(kind, _int(obj["control"]), _int(obj["target"]), None, ang)
    raise ValueError(f"unknown gate kind {kind!r}")


def circuit_to_json(c: Circuit, members: Iterable[str] = ()) -> str:
    """The circuit as json.dumps(obj, indent=2) writes it, byte for byte;
    `members` are encoded '"name": value' members to append to the object."""
    head = f'{{\n  "version": "{FORMAT_VERSION}",\n  "n_qubits": {c.n_qubits},\n  "gates": '
    tail = []
    if c.sections is not None:
        sections = (_SECTION_JSON % (json.dumps(s.label), s.start, s.end) for s in c.sections)
        tail.append(f'"sections": {json_block(sections, 2)}')
    if c.basis_layer is not None:
        tail.append(f'"basis_layer": {json_block(map(str, c.basis_layer), 2)}')
    end = "".join(",\n  " + m for m in (*tail, *members)) + "\n}"
    if not c.gates:
        return head + "[]" + end
    # The gates take one join, with the text before and after them folded
    # into the first and last fragments; a cache local to the call formats
    # each distinct gate once.
    gates = list(map(functools.cache(_gate_json), c.gates))
    gates[0] = head + "[\n    " + gates[0]
    gates[-1] += "\n  ]" + end
    return ",\n    ".join(gates)


def circuit_from_json(text: str) -> Circuit:
    """Parse and validate a circuit; any malformed input raises ValueError."""
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"invalid circuit JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError("circuit JSON must be an object")
    version = obj.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version!r}")
    try:
        gates = tuple(_gate_from_obj(g) for g in obj["gates"])
        sections = None
        if "sections" in obj:
            sections = tuple(
                Section(s["label"], _int(s["start"]), _int(s["end"])) for s in obj["sections"]
            )
        layer = None
        if "basis_layer" in obj:
            layer = tuple(_int(e) for e in obj["basis_layer"])
        c = Circuit(_int(obj["n_qubits"]), gates, sections, layer)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed circuit JSON: {exc!r}") from exc
    c.validate()
    return c
