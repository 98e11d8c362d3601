"""Output checks. Expected values come from the paper's closed forms and from
the standard-library JSON/CSV parsers, never from the code under test; the
one exception is the JSON round trip, which by definition runs the
program's own parser and writer (the harness passes the untraced originals).

check(req, rc, stdout, tmp, roundtrip) returns None when the output meets
the request's expectation and a one-line reason otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import re


def flat_gates(n: int) -> int:
    return 2 * n * n - 6 * n + 5


def sched_depth(n: int) -> int:
    return 8 * n - 20


def routed_depth(n: int) -> int:
    return 18 * n - 43


def barenco_gates(n: int) -> int:
    return 2 * 3 ** (n - 2) - 1


def recursive_gates(n: int) -> int:
    # T(2) = 1; T(m) = sum over k = m-1..2 of [R, T(k), R^-1, T(k)^-1], then one R
    t = {2: 1}
    for m in range(3, n + 1):
        t[m] = sum(2 + 2 * t[k] for k in range(2, m)) + 1
    return t[n]


_EXPECTED_GATES = {"paper": flat_gates, "barenco": barenco_gates, "recursive": recursive_gates}

_VERIFY_LINE = re.compile(r"^stage (\w+): max deviation (\S+) \(tol (\S+), (.+)\) (PASS|FAIL)$")


def _check_synth(e: dict, text: str, roundtrip) -> str | None:
    obj = json.loads(text)
    n = e["n"]
    if obj.get("n_qubits") != n:
        return f"n_qubits {obj.get('n_qubits')} != {n}"
    want = _EXPECTED_GATES[e["construction"]](n)
    if len(obj["gates"]) != want:
        return f"{e['construction']} gate count {len(obj['gates'])} != {want}"
    if e["construction"] == "paper":
        labels = [s["label"] for s in obj.get("sections", ())]
        if labels != ["C1", "C2", "C3", "C4", "C5", "C6"]:
            return f"sections {labels}"
    layer = obj.get("basis_layer")
    if (e["basis"] == "wrapped") != (layer is not None and len(layer) == n):
        return f"basis_layer {layer!r} for basis {e['basis']}"
    if roundtrip(text) != text:
        return "circuit JSON does not round-trip"
    return None


def _check_route(e: dict, text: str) -> str | None:
    obj = json.loads(text)
    n = e["n"]
    if obj.get("n_qubits") != n:
        return f"n_qubits {obj.get('n_qubits')} != {n}"
    rotations = 0
    for g in obj["gates"]:
        a, b = (g["a"], g["b"]) if g["kind"] == "swap" else (g["control"], g["target"])
        if abs(a - b) != 1:
            return f"non-adjacent gate {g}"
        rotations += g["kind"] == "crx"
    if rotations != flat_gates(n):
        return f"rotation count {rotations} != {flat_gates(n)}"
    last = obj["trace"][-1]
    if last["layer"] + 1 != routed_depth(n):
        return f"routed depth {last['layer'] + 1} != {routed_depth(n)}"
    if last["layout"] != list(range(n)):
        return "final layout is not the identity"
    return None


def _check_schedule(e: dict, out: str) -> str | None:
    obj = json.loads(out)
    n = e["n"]
    layers = [layer for layer in obj["layers"] if layer]
    if obj["depth"] != sched_depth(n) or len(layers) != sched_depth(n):
        return f"depth {obj['depth']} ({len(layers)} layers) != {sched_depth(n)}"
    if sorted(i for layer in layers for i in layer) != list(range(flat_gates(n))):
        return "layers do not cover every gate exactly once"
    if len(obj["group_barriers"]) != 3:
        return f"group_barriers {obj['group_barriers']}"
    return None


def _check_bench(e: dict, out: str) -> str | None:
    rows = {(int(r["n"]), r["construction"], r["arch"]): r
            for r in csv.DictReader(io.StringIO(out))}
    for n in range(e["n_min"], e["n_max"] + 1):
        want = {
            (n, "paper", "full"): (flat_gates(n), sched_depth(n)),
            (n, "paper", "line"): (flat_gates(n), routed_depth(n)),
        }
        for key, (count, depth) in want.items():
            r = rows.get(key)
            if r is None:
                return f"missing bench row {key}"
            got = (int(r["crx_count"]), int(r["depth"]), r["matches_formula"])
            if got != (count, depth, "true"):
                return f"bench row {key}: {r}"
        if n <= 12:
            for key, count in (((n, "barenco", "full"), barenco_gates(n)),
                               ((n, "recursive", "full"), recursive_gates(n))):
                r = rows.get(key)
                if r is None or int(r["crx_count"]) != count:
                    return f"bench row {key}: {r} != {count}"
    return None


def _check_verify(e: dict, rc: int, out: str) -> str | None:
    lines = out.splitlines()
    names = []
    for line in lines:
        m = _VERIFY_LINE.match(line)
        if m is None:
            return f"unparsable verify line {line!r}"
        name, dev, tol, method, verdict = m.groups()
        names.append(name)
        if method != e["method"]:
            return f"stage {name}: method {method!r} != {e['method']!r}"
        if verdict != "PASS" or not float(dev) <= float(tol):
            return f"stage {name}: {verdict} (deviation {dev}, tol {tol})"
    if names != e["stages"]:
        return f"stages {names} != {e['stages']}"
    if rc != 0:
        return f"verify exit {rc} with all stages PASS"
    return None


def check(req: dict, rc, out: str, tmp: str, roundtrip) -> str | None:
    e = req["expect"]
    kind = e["kind"]
    if kind == "verify":
        return _check_verify(e, rc, out)
    if rc != 0:
        return f"exit {rc}"
    if kind in ("synth", "route"):
        with open(e["file"].replace("{tmp}", tmp)) as f:
            text = f.read()
        return _check_synth(e, text, roundtrip) if kind == "synth" else _check_route(e, text)
    if kind == "schedule":
        return _check_schedule(e, out)
    return _check_bench(e, out)
