"""Angle arithmetic, gate/circuit validation, serialization."""

import json
import math
import operator
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from toffoli_forge import baseline, ir, route, sched, synth

from circuit_helpers import angle_add, inverse, permute_outputs

angles = st.builds(ir.dyadic, st.integers(-4096, 4096), st.integers(0, 12))


@given(angles)
def test_dyadic_always_canonical(a):
    assert a.is_canonical()
    if a.num == 0:
        assert a.den_exp == 0
    elif a.den_exp > 0:
        assert a.num % 2 == 1


@given(st.integers(-4096, 4096), st.integers(0, 12))
def test_canonicalization_preserves_value(num, e):
    a = ir.dyadic(num, e)
    assert math.isclose(a.to_radians(), num * math.pi / 2**e, abs_tol=1e-15)


@given(angles, angles)
def test_angle_add_is_exact(a, b):
    s = angle_add(a, b)
    assert s.is_canonical()
    # compare in the common denominator, no floats involved
    e = max(a.den_exp, b.den_exp, s.den_exp)
    lhs = s.num << (e - s.den_exp)
    rhs = (a.num << (e - a.den_exp)) + (b.num << (e - b.den_exp))
    assert lhs == rhs


@given(angles)
def test_neg_cancels(a):
    assert angle_add(a, -a) == ir.dyadic(0)
    assert (-a).is_canonical()


def _dyadic_by_halving(num: int, den_exp: int) -> ir.DyadicAngle:
    """The canonical form by its definition: halve s/2^e while s is even and e > 0."""
    if num == 0:
        return ir.DyadicAngle(0, 0)
    while num % 2 == 0 and den_exp > 0:
        num //= 2
        den_exp -= 1
    return ir.DyadicAngle(num, den_exp)


@given(st.builds(operator.lshift, st.integers(-2**64, 2**64), st.integers(0, 130)),
       st.integers(0, 130))
def test_dyadic_matches_halving(num, e):
    assert ir.dyadic(num, e) == _dyadic_by_halving(num, e)


def test_many_trailing_zeros_parse_in_linear_time():
    # 200 angles 2^14000 pi / 2^14000, 0.86 MB of JSON: halving one bit at a
    # time took about 10 s to parse it; json.loads alone takes about 20 ms
    angle = {"num": 1 << 14000, "den_exp": 14000}
    gate = {"kind": ir.CRX, "control": 0, "target": 1, "angle": angle}
    text = json.dumps({"version": ir.FORMAT_VERSION, "n_qubits": 2, "gates": [gate] * 200})
    t0 = time.perf_counter()
    c = ir.circuit_from_json(text)
    assert time.perf_counter() - t0 < 1.0
    assert set(c.gates) == {ir.crx(ir.PI, 0, 1)}


def test_dyadic_rejects_negative_exponent():
    with pytest.raises(ValueError):
        ir.dyadic(1, -1)


def test_pi_constant():
    assert ir.PI == ir.DyadicAngle(1, 0)
    assert math.isclose(ir.PI.to_radians(), math.pi)


def test_to_radians_keeps_the_float_of_every_library_angle():
    # num * pi / 2**e, the float the simulator has always used where it exists
    angles = {g.angle for n in range(2, 65) for g in synth.synth_toffoli(n).gates}
    angles |= {g.angle for k in range(1, 7) for g in synth.synth_approx(16, k).gates}
    angles |= {g.angle for g in baseline.barenco_toffoli(8).gates}
    angles |= {ir.DyadicAngle(s, e) for s in range(-9, 10, 2) for e in range(0, 1001, 37)}
    for a in angles:
        assert a.to_radians() == a.num * math.pi / (1 << a.den_exp), a


def test_to_radians_of_angles_past_a_float():
    assert ir.DyadicAngle(1, 2000).to_radians() == 0.0
    assert ir.DyadicAngle(1, 10**12).to_radians() == 0.0
    assert ir.DyadicAngle(3**700, 0).to_radians() == math.pi  # 3**700 = 1 mod 4
    for a in (ir.DyadicAngle(3, 5), ir.DyadicAngle(-1, 0), ir.DyadicAngle(5, 998)):
        shifted = a._replace(num=a.num + (1 << (a.den_exp + 3002)))  # + 4 pi * 2**3000
        assert shifted.to_radians() == a.to_radians() % (4 * math.pi)


def test_gate_factories():
    g = ir.crx(ir.PI, 0, 2)
    assert g.qubits() == (0, 2) and g.kind == ir.CRX
    s = ir.swap(3, 1)
    assert s.qubits() == (3, 1) and s.control is None and s.angle is None


@pytest.mark.parametrize(
    "gates",
    [
        (ir.crx(ir.PI, 0, 0),),                      # control equals target
        (ir.swap(1, 1),),                            # swap needs two wires
        (ir.crx(ir.PI, 0, 5),),                      # out of range
        (ir.Gate(ir.CRX, 0, 1, None, ir.DyadicAngle(2, 1)),),  # non-canonical
        (ir.Gate("h", None, 0, None, None),),        # unknown kind
        (ir.Gate(ir.SWAP, 0, 1, 2, None),),          # swap with control set
        (ir.Gate(ir.CRX, 0, 1, 2, ir.PI),),          # rotation with a second target
    ],
)
def test_validate_rejects_malformed_gates(gates):
    with pytest.raises(ValueError):
        ir.Circuit(3, gates).validate()


def test_validate_names_first_bad_gate():
    # validate checks each distinct gate once; the error still names the
    # first offending index
    ok, self_loop, out_of_range = ir.crx(ir.PI, 0, 1), ir.crx(ir.PI, 2, 2), ir.swap(0, 7)
    c = ir.Circuit(3, (ok, ok, self_loop, out_of_range, self_loop, ok))
    with pytest.raises(ValueError, match=r"^gate 2: control equals target$"):
        c.validate()
    c = ir.Circuit(3, (ok, out_of_range, ok, self_loop, out_of_range))
    with pytest.raises(ValueError, match=r"^gate 1: qubit index out of range$"):
        c.validate()


def test_validate_sections_must_cover():
    gates = (ir.crx(ir.PI, 0, 1), ir.crx(ir.PI, 1, 2))
    bad = ir.Circuit(3, gates, (ir.Section("C1", 0, 1),))
    with pytest.raises(ValueError):
        bad.validate()
    ok = ir.Circuit(3, gates, (ir.Section("C1", 0, 1), ir.Section("C2", 1, 2)))
    ok.validate()


def test_validate_sections_order():
    gates = (ir.crx(ir.PI, 0, 1),)
    with pytest.raises(ValueError):
        ir.Circuit(2, gates, (ir.Section("C2", 0, 1), ir.Section("C1", 1, 1))).validate()


def test_validate_rejects_overlapping_sections():
    gates = (ir.crx(ir.PI, 0, 1), ir.crx(ir.PI, 1, 2))
    c = ir.Circuit(3, gates, (ir.Section("C1", 0, 2), ir.Section("C2", 1, 2)))
    with pytest.raises(ValueError, match="contiguous and non-overlapping"):
        c.validate()


def test_validate_rejects_no_wires():
    with pytest.raises(ValueError, match="n_qubits must be >= 1"):
        ir.Circuit(0, ()).validate()


def test_basis_layer_width_checked():
    with pytest.raises(ValueError):
        ir.Circuit(3, (), basis_layer=(-1, -1)).validate()


# (build a record, one field to change, a value that differs from the built one)
RECORDS = {
    "Circuit": (lambda: synth.synth_toffoli(4), "basis_layer", (0, 0, 0, 0)),
    "Schedule": (lambda: sched.asap_schedule(synth.synth_toffoli(4)), "group_barriers", ()),
    "RoutedCircuit": (lambda: route.route_lnn(4), "trace", ()),
}


@pytest.mark.parametrize("build,field,other", RECORDS.values(), ids=RECORDS)
def test_records_compare_and_hash_by_value(build, field, other):
    a, b = build(), build()
    assert a == b and hash(a) == hash(b)
    assert a == tuple(b)  # a NamedTuple equals the plain tuple of its fields
    changed = a._replace(**{field: other})
    assert changed != a and getattr(changed, field) == other
    for name in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, other)


def test_circuit_defaults():
    c = ir.Circuit(2, ())
    assert c.sections is None and c.basis_layer is None
    assert c == (2, (), None, None)


def test_inverse_reverses_and_negates():
    c = ir.Circuit(3, (ir.crx(ir.dyadic(1, 2), 0, 1), ir.swap(1, 2)))
    inv = inverse(c)
    assert inv.gates[0] == ir.swap(1, 2)
    assert inv.gates[1].angle == ir.dyadic(-1, 2)


def test_permute_outputs_relabels():
    c = ir.Circuit(3, (ir.crx(ir.PI, 0, 2),), basis_layer=(1, 0, 3))
    out = permute_outputs(c, (1, 2, 0))
    assert out.gates[0].control == 1 and out.gates[0].target == 0
    assert out.basis_layer == (3, 1, 0)
    for bad in ((1, 0), (0, 0, 2)):
        with pytest.raises(ValueError):
            permute_outputs(c, bad)


@st.composite
def small_circuits(draw):
    n = draw(st.integers(2, 6))
    gates = []
    for _ in range(draw(st.integers(0, 12))):
        q = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        kind = draw(st.sampled_from(("crx", "cprx", "swap")))
        if kind == "swap":
            gates.append(ir.swap(q[0], q[1]))
        else:
            a = draw(angles.filter(lambda x: x.num != 0))
            gates.append(ir.Gate(kind, q[0], q[1], None, a))
    layer = draw(
        st.none()
        | st.tuples(*[st.integers(-3, 3) for _ in range(n)]).map(tuple)
    )
    return ir.Circuit(n, tuple(gates), basis_layer=layer)


@given(small_circuits())
def test_json_round_trip(c):
    back = ir.circuit_from_json(ir.circuit_to_json(c))
    assert back.n_qubits == c.n_qubits
    assert back.gates == c.gates
    assert back.basis_layer == c.basis_layer


def test_json_round_trip_keeps_sections():
    gates = (ir.crx(ir.PI, 0, 1), ir.crx(ir.dyadic(1, 1), 0, 2))
    c = ir.Circuit(3, gates, (ir.Section("C1", 0, 0), ir.Section("C2", 0, 2)))
    back = ir.circuit_from_json(ir.circuit_to_json(c))
    assert back.sections == c.sections


def _reference_obj(c):
    """The circuit object json.dumps(indent=2) is the writer's reference for."""
    def gate(g):
        if g.kind == ir.SWAP:
            return {"kind": "swap", "a": g.target, "b": g.target2}
        return {"kind": g.kind, "control": g.control, "target": g.target,
                "angle": {"num": g.angle.num, "den_exp": g.angle.den_exp}}

    obj = {"version": ir.FORMAT_VERSION, "n_qubits": c.n_qubits, "gates": [gate(g) for g in c.gates]}
    if c.sections is not None:
        obj["sections"] = [{"label": s.label, "start": s.start, "end": s.end}
                           for s in c.sections]
    if c.basis_layer is not None:
        obj["basis_layer"] = list(c.basis_layer)
    return obj


big_angles = st.builds(ir.DyadicAngle, st.integers(-(2**70), 2**70), st.integers(0, 80))


@st.composite
def writer_circuits(draw):
    n = draw(st.integers(1, 8))
    pool = []  # gates repeat, as shared gates do in synth and route output
    for _ in range(draw(st.integers(0, 6)) if n > 1 else 0):
        a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        kind = draw(st.sampled_from((ir.CRX, ir.CPRX, ir.SWAP)))
        pool.append(ir.swap(a, b) if kind == ir.SWAP
                    else ir.Gate(kind, a, b, None, draw(big_angles)))
    gates = tuple(draw(st.lists(st.sampled_from(pool), max_size=20))) if pool else ()
    sections = draw(st.sampled_from((None, "empty", "cut")))
    if sections == "empty":
        sections = ()
    elif sections == "cut":
        labels = draw(st.lists(st.sampled_from(ir.SECTION_LABELS), min_size=1, unique=True))
        cuts = sorted(draw(st.lists(st.integers(0, len(gates)), min_size=len(labels) - 1,
                                    max_size=len(labels) - 1)))
        edges = [0, *cuts, len(gates)]
        sections = tuple(ir.Section(l, edges[k], edges[k + 1])
                         for k, l in enumerate(sorted(labels)))
    layer = draw(st.none() | st.lists(st.integers(-5, 5), min_size=n, max_size=n).map(tuple))
    return ir.Circuit(n, gates, sections, basis_layer=layer)


@given(writer_circuits())
def test_circuit_json_is_byte_identical_to_stdlib(c):
    assert ir.circuit_to_json(c) == json.dumps(_reference_obj(c), indent=2)


@pytest.mark.parametrize("n", range(3, 21))
def test_routed_json_is_byte_identical_to_stdlib(n):
    r = route.route_lnn(n)
    obj = _reference_obj(r.circuit)
    obj["trace"] = [{"layer": k, "layout": list(layout)} for k, layout in r.trace]
    assert route.routed_to_json(r) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("n", range(4, 21))
def test_schedule_json_is_byte_identical_to_stdlib(n):
    flat = sched.asap_schedule(synth.synth_toffoli(n))
    for s in (flat, sched.Schedule((), ()), sched.Schedule(((), (2, 0)), (1,))):
        obj = {"layers": [list(l) for l in s.layers],
               "group_barriers": list(s.group_barriers), "depth": sched.depth(s)}
        assert sched.schedule_to_json(s) == json.dumps(obj, indent=2)


def _one_gate_json(num: int, den_exp: int) -> str:
    angle = {"num": num, "den_exp": den_exp}
    return json.dumps({"version": ir.FORMAT_VERSION, "n_qubits": 2,
                       "gates": [{"kind": ir.CRX, "control": 0, "target": 1, "angle": angle}]})


def test_json_canonicalizes_file_angles():
    # a file may write an angle in any dyadic form: 2 pi / 2 reads as pi
    (g,) = ir.circuit_from_json(_one_gate_json(2, 1)).gates
    assert g.angle == ir.PI and g.angle.is_canonical()
    with pytest.raises(ValueError, match="den_exp must be >= 0"):
        ir.circuit_from_json(_one_gate_json(1, -1))


def test_json_rejects_unparsable_text():
    with pytest.raises(ValueError, match="^invalid circuit JSON"):
        ir.circuit_from_json("{")


def test_json_rejects_bad_version():
    text = ir.circuit_to_json(ir.Circuit(2, (ir.crx(ir.PI, 0, 1),)))
    with pytest.raises(ValueError):
        ir.circuit_from_json(text.replace('"version": "1"', '"version": "9"'))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda kids: (
        st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=5), kids, max_size=4)
    ),
    max_leaves=12,
)


def _object(required, optional):
    """Objects shaped like the circuit format, or any JSON value instead, so
    the fuzz reaches past the top-level checks."""
    return st.fixed_dictionaries(required, optional=optional) | json_values


small_ints = st.integers(-2, 4) | json_values
angle_like = _object({}, {"num": small_ints, "den_exp": small_ints})
gate_like = _object(
    {"kind": st.sampled_from([ir.CRX, ir.CPRX, ir.SWAP]) | json_values},
    {"control": small_ints, "target": small_ints, "a": small_ints, "b": small_ints,
     "angle": angle_like},
)
section_like = _object(
    {"label": st.sampled_from(ir.SECTION_LABELS) | json_values},
    {"start": small_ints, "end": small_ints},
)
circuit_like = _object(
    {"version": st.just(ir.FORMAT_VERSION) | json_values},
    {
        "n_qubits": small_ints,
        "gates": st.lists(gate_like, max_size=4) | json_values,
        "sections": st.lists(section_like, max_size=3) | json_values,
        "basis_layer": st.lists(small_ints, max_size=4) | json_values,
    },
)


@given(circuit_like)
def test_json_parse_gives_circuit_or_value_error(obj):
    try:
        c = ir.circuit_from_json(json.dumps(obj))
    except ValueError:
        return
    assert isinstance(c, ir.Circuit)
