"""The benchmark's per-layer tracer still fits the program.

perfbench/tracing.py wraps named attributes of seven modules; a deleted or
renamed one makes Tracer.install raise AttributeError. The tracer is loaded
from its file, unchanged, so a change to the program that breaks it fails
here and not only in the traced benchmark runs.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from toffoli_forge import cli, sim

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = ("ir", "synth", "baseline", "sched", "route", "sim", "cli")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_wraps_and_restores_every_name():
    tracing = _load_tracing()
    mods = {m: importlib.import_module(f"toffoli_forge.{m}") for m in MODULES}
    targets = [(owner, attr) for _, owners, attr, _ in tracing._targets(mods) for owner in owners]
    originals = [getattr(owner, attr) for owner, attr in targets]
    apply_many = sim.apply_many
    tracer = tracing.Tracer()
    tracer.install(mods)
    try:
        assert sim.apply_many is not apply_many and sim.apply_many.__wrapped__ is apply_many
        assert all(getattr(o, a) is not f for (o, a), f in zip(targets, originals))
        assert cli.main(["verify", "--n", "4"]) == 0
    finally:
        tracer.uninstall()
    assert sim.apply_many is apply_many
    assert all(getattr(o, a) is f for (o, a), f in zip(targets, originals))
    # the sweep reaches the simulator and the comparison through the wrapped names
    metrics = tracer.layer_metrics(1)
    assert metrics["sim.amp_gates"] > 0 and metrics["sim.dev_s"] > 0
