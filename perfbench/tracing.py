"""Span tracing from outside the program.

install() replaces the public functions of ir, synth, baseline, sched,
route, sim and cli with timing wrappers, at the module attributes through
which the CLI resolves them (cli and route import the ir JSON functions by
name, so those names are wrapped there too), and uninstall() puts the
originals back. The program's source is not touched.

A span is (name, start, end, parent, request, counts). Spans stay in memory
until the run ends. A layer's self time is its span durations minus those
of its direct children.

README.md maps every per-layer metric to the end-to-end metrics and
workloads it should move.
"""

from __future__ import annotations

import functools
from time import perf_counter

METRICS = (
    "route.s", "route.to_json_s", "route.gates", "route.slots",
    "ir.to_json_s", "ir.from_json_s", "ir.validate_s", "ir.json_bytes",
    "sched.s", "sched.gates", "sched.layers",
    "synth.s", "synth.gates", "baseline.s", "baseline.gates",
    "sim.s", "sim.amp_gates", "sim.ns_per_amp_gate", "sim.ref_s", "sim.dev_s",
    "cli.self_s", "cli.out_bytes",
)

# span name -> per-layer metric holding its self time
SELF_TIME = {
    "cli": "cli.self_s",
    "synth": "synth.s",
    "baseline": "baseline.s",
    "sched": "sched.s",
    "route": "route.s",
    "route.to_json": "route.to_json_s",
    "ir.to_json": "ir.to_json_s",
    "ir.from_json": "ir.from_json_s",
    "ir.validate": "ir.validate_s",
    "sim": "sim.s",
    "sim.ref": "sim.ref_s",
    "sim.dev": "sim.dev_s",
}

def _gates(out, *args, **kwargs):
    return {"gates": len(out.gates)}


def _text_bytes(out, *args, **kwargs):
    return {"json_bytes": len(out)}


def _arg_bytes(out, text, *args, **kwargs):
    return {"json_bytes": len(text)}


def _schedule(out, c, *args, **kwargs):
    return {"gates": len(c.gates), "layers": len(out.layers)}


def _route(out, *args, **kwargs):
    return {"gates": len(out.circuit.gates), "slots": len(out.slots)}


def _amp_gates(out, c, *args, **kwargs):
    return {"amp_gates": len(c.gates) * out.size}


def _targets(mods):
    """(span name, owners, attribute, count function) for every wrapped name."""
    ir, synth, baseline, sched, route, sim, cli = (
        mods[k] for k in ("ir", "synth", "baseline", "sched", "route", "sim", "cli"))
    out = [("cli", [cli], "main", None)]
    out += [("synth", [synth], a, _gates)
            for a in ("synth_toffoli", "synth_approx", "synth_recursive", "basis_conjugate")]
    out += [
        ("baseline", [baseline], "barenco_toffoli", _gates),
        ("sched", [sched], "asap_schedule", _schedule),
        ("route", [route], "route_lnn", _route),
        ("route", [route], "routed_metrics", None),
        ("route.to_json", [route], "routed_to_json", None),
        ("ir.to_json", [ir, cli, route], "circuit_to_json", _text_bytes),
        ("ir.from_json", [ir, cli], "circuit_from_json", _arg_bytes),
        ("ir.validate", [ir.Circuit], "validate", None),
        ("sim", [sim], "unitary_of", _amp_gates),
        ("sim", [sim], "apply_many", _amp_gates),
        ("sim", [sim], "apply", _amp_gates),
        ("sim.ref", [sim], "reference_unitary", None),
        ("sim.ref", [sim], "reference_apply", None),
        ("sim.dev", [sim], "global_phase_deviation", None),
    ]
    return out


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), None, stack[-1] if stack else None, self.request, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if count is not None:
                rec[5] = count(out, *args, **kwargs)
            return out

        return wrapper

    def install(self, mods: dict) -> None:
        for name, owners, attr, count in _targets(mods):
            wrapper = self._wrap(name, getattr(owners[0], attr), count)
            for owner in owners:
                self._saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def add_count(self, span: int, key: str, value: int) -> None:
        counts = self.spans[span][5] or {}
        counts[key] = counts.get(key, 0) + value
        self.spans[span][5] = counts

    def layer_metrics(self, requests: int) -> dict[str, float]:
        """Per-request means of self time and counts, plus sim.ns_per_amp_gate."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = dict.fromkeys(METRICS, 0.0)
        for i, (name, start, end, _, _, counts) in enumerate(self.spans):
            totals[SELF_TIME[name]] += end - start - child_time[i]
            for key, value in (counts or {}).items():
                totals[f"{name.split('.')[0]}.{key}"] += value
        amp = totals["sim.amp_gates"]
        out = {m: v / requests for m, v in totals.items()}
        out["sim.ns_per_amp_gate"] = totals["sim.s"] * 1e9 / amp if amp else 0.0
        return out
