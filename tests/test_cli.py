"""End-to-end CLI coverage: argument validation, formats, exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from toffoli_forge import cli, ir, route, sim, synth
from toffoli_forge.ir import circuit_from_json, circuit_to_json


def run_cli(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--n", "1"],
        ["synth", "--n", "13", "--construction", "barenco"],
        ["synth", "--n", "13", "--construction", "recursive"],
        ["synth", "--n", "4", "--construction", "recursive", "--approx-k", "2"],
        ["synth", "--n", "4", "--approx-k", "-1"],
        ["schedule"],
        ["route", "--n", "2"],
        ["verify", "--n", "1"],
        ["verify", "--n", "2", "--stage", "route"],
        ["bench", "--n-min", "6", "--n-max", "4"],
        ["bench", "--n-min", "1", "--n-max", "4"],
        ["verify", "--n", "5", "--mode", "random", "--trials", "0"],
        ["verify", "--n", "3", "--tol", "-1"],
        ["verify", "--n", "4", "--tol", "inf"],
        ["verify", "--n", "4", "--mode", "random", "--seed", "-1"],
        # a readable --in file must not silently win over --n or --stage
        ["verify", "--in", "{f5}", "--stage", "route", "--n", "9"],
        ["verify", "--in", "{f5}", "--n", "5"],
        ["verify", "--in", "{f5}", "--stage", "all"],
        ["schedule", "--in", "{f5}", "--n", "5"],
        ["route", "--in", "{f5}", "--n", "5"],
        # an output path that cannot be written: a missing directory, a directory
        ["synth", "--n", "5", "--out", "{missing}/c.json"],
        ["synth", "--n", "5", "--format", "qasm", "--out", "{missing}/c.qasm"],
        ["schedule", "--n", "5", "--out", "{missing}/s.json"],
        ["route", "--n", "5", "--out", "{missing}/r.json"],
        ["bench", "--n-min", "4", "--n-max", "5", "--out", "{missing}/b.csv"],
        ["bench", "--n-min", "4", "--n-max", "5", "--arch", "line",
         "--per-group", "{missing}/p.csv"],
        ["synth", "--n", "5", "--out", "{dir}"],
    ],
)
def test_usage_errors_exit_2(argv, tmp_path, capsys):
    f5 = tmp_path / "f5.json"
    f5.write_text(circuit_to_json(synth.synth_toffoli(5)))
    with pytest.raises(SystemExit) as ei:
        cli.main([a.format(f5=f5, missing=tmp_path / "missing", dir=tmp_path) for a in argv])
    assert ei.value.code == 2
    # the usage line is the subcommand's, also for errors its cmd_* raises
    err = capsys.readouterr().err
    assert err.startswith(f"usage: toffoli-forge {argv[0]} ") and "Traceback" not in err


def test_synth_json_round_trips(capsys):
    code, out = run_cli(["synth", "--n", "4"], capsys)
    assert code == 0
    c = circuit_from_json(out)
    assert c.gates == synth.synth_toffoli(4).gates
    assert [s.label for s in c.sections] == ["C1", "C2", "C3", "C4", "C5", "C6"]


def test_synth_qasm_is_deterministic(capsys):
    argvs = (
        ["synth", "--n", "4", "--format", "qasm"],
        ["synth", "--n", "4", "--format", "qasm", "--basis", "wrapped"],
        ["synth", "--n", "4", "--construction", "barenco", "--format", "qasm"],
    )
    for argv in argvs:
        _, first = run_cli(argv, capsys)
        _, second = run_cli(argv, capsys)
        assert first == second


def test_qasm_shape(capsys):
    _, out = run_cli(["synth", "--n", "3", "--format", "qasm"], capsys)
    lines = out.splitlines()
    assert lines[0] == "OPENQASM 3.0;"
    assert lines[1] == 'include "stdgates.inc";'
    assert "qubit[3] q;" in lines
    assert "crx(pi/2) q[1], q[2];" in lines
    assert "crx(pi) q[0], q[1];" in lines
    assert "crx(-pi/2) q[1], q[2];" in lines
    assert "gate cprx" not in out


def test_qasm_cprx_prologue_only_when_used(capsys):
    _, out = run_cli(["synth", "--n", "3", "--construction", "barenco",
                      "--format", "qasm"], capsys)
    assert "gate cprx(theta) a, b { p(theta/2) a; crx(theta) a, b; }" in out
    assert "cprx(pi) q[0], q[1];" in out


def test_qasm_wrapped_emits_phase_layers(capsys):
    _, out = run_cli(["synth", "--n", "3", "--basis", "wrapped",
                      "--format", "qasm"], capsys)
    assert out.count("p(-pi/2)") >= 3


@pytest.mark.parametrize("angle, text", [(ir.PI, "pi"), (ir.dyadic(-1, 3), "-pi/8"),
                                         (ir.dyadic(3, 2), "3*pi/4"), (ir.dyadic(-5), "-5*pi")])
def test_angle_str(angle, text):
    assert cli.angle_str(angle) == text


def test_qasm_of_a_routed_circuit():
    # SWAPs are only in routed circuits, which the CLI writes as JSON alone
    c = route.route_lnn(5).circuit
    swaps = [g for g in c.gates if g.kind == ir.SWAP]
    lines = cli.circuit_to_qasm(c).splitlines()
    assert [l for l in lines if l.startswith("swap")] == [
        f"swap q[{g.target}], q[{g.target2}];" for g in swaps]


def test_out_writes_file(tmp_path, capsys):
    path = tmp_path / "c.json"
    code, out = run_cli(["synth", "--n", "5", "--out", str(path)], capsys)
    assert code == 0 and out == ""
    assert circuit_from_json(path.read_text()).n_qubits == 5
    # a file gets stdout's bytes: JSON gains its one newline, text formats none
    for argv in (["synth", "--n", "5"], ["synth", "--n", "5", "--format", "qasm"],
                 ["schedule", "--n", "5"], ["route", "--n", "5"]):
        _, out = run_cli(argv + ["--out", str(path)], capsys)
        assert out == ""
        _, out = run_cli(argv, capsys)
        assert path.read_text() == out and out.endswith("\n") and not out.endswith("\n\n")


def test_schedule_json(capsys):
    _, out = run_cli(["schedule", "--n", "5"], capsys)
    obj = json.loads(out)
    assert obj["depth"] == 20
    assert obj["group_barriers"] == [7, 12, 17]
    assert sorted(i for layer in obj["layers"] for i in layer) == list(range(25))


def test_schedule_accepts_file(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(circuit_to_json(synth.synth_recursive(3)))
    _, out = run_cli(["schedule", "--in", str(path)], capsys)
    assert json.loads(out)["group_barriers"] == []


def test_schedule_sizes_its_state_by_the_touched_qubits(tmp_path, capsys):
    # a valid file may declare far more qubits than its gates touch; no
    # per-qubit list of n_qubits entries is built
    gates = (ir.crx(ir.dyadic(1, 1), 0, 1), ir.swap(0, 1), ir.crx(ir.dyadic(-1, 2), 1, 0),
             ir.crx(ir.dyadic(1, 3), 0, 1))
    layers = []
    for n in (10**12, 2):
        path = tmp_path / f"c{n}.json"
        path.write_text(circuit_to_json(ir.Circuit(n, gates)))
        code, out = run_cli(["schedule", "--in", str(path)], capsys)
        assert code == 0
        layers.append(json.loads(out)["layers"])
    assert layers[0] == layers[1] == [[0], [1], [2], [3]]


def test_route_json_trace(capsys):
    _, out = run_cli(["route", "--n", "5"], capsys)
    obj = json.loads(out)
    assert obj["n_qubits"] == 5
    assert obj["trace"][-1]["layout"] == [0, 1, 2, 3, 4]
    for snap in obj["trace"]:
        assert isinstance(snap["layer"], int)
        assert sorted(snap["layout"]) == [0, 1, 2, 3, 4]
    for g in obj["gates"]:
        if g["kind"] == "swap":
            assert abs(g["a"] - g["b"]) == 1
        else:
            assert abs(g["control"] - g["target"]) == 1


def test_route_rejects_unsectioned_and_foreign(tmp_path, capsys):
    flat = synth.synth_toffoli(4)
    bare = tmp_path / "bare.json"
    bare.write_text(circuit_to_json(ir.Circuit(4, flat.gates)))
    with pytest.raises(SystemExit) as ei:
        cli.main(["route", "--in", str(bare)])
    assert ei.value.code == 2

    altered = tmp_path / "altered.json"
    gates = (flat.gates[0]._replace(angle=-flat.gates[0].angle),) + flat.gates[1:]
    altered.write_text(circuit_to_json(ir.Circuit(4, gates, sections=flat.sections)))
    with pytest.raises(SystemExit) as ei:
        cli.main(["route", "--in", str(altered)])
    assert ei.value.code == 2


def test_route_rejects_oversized_header_before_building(tmp_path, monkeypatch, capsys):
    # six empty sections and no gates: only the claimed n_qubits is large
    sections = [{"label": l, "start": 0, "end": 0} for l in ir.SECTION_LABELS]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"version": "1", "n_qubits": 100000, "gates": [],
                                "sections": sections}))

    def refuse(n):
        raise AssertionError(f"built a comparison circuit for n={n}")

    monkeypatch.setattr(synth, "synth_toffoli", refuse)
    with pytest.raises(SystemExit) as ei:
        cli.main(["route", "--in", str(path)])
    assert ei.value.code == 2
    assert capsys.readouterr().err.startswith("usage: toffoli-forge route")


def test_route_accepts_matching_file(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(circuit_to_json(synth.synth_toffoli(4)))
    code, out = run_cli(["route", "--in", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["trace"]


def test_route_keeps_a_wrapped_files_basis_layer(tmp_path, capsys):
    # the routed layout starts and ends as the identity, so the file's basis
    # layer applies on the line unchanged
    wrapped, routed = tmp_path / "w.json", tmp_path / "rw.json"
    assert run_cli(["synth", "--n", "6", "--basis", "wrapped", "--out", str(wrapped)], capsys)[0] == 0
    assert run_cli(["route", "--in", str(wrapped), "--out", str(routed)], capsys)[0] == 0
    text = routed.read_text()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    c, r = circuit_from_json(wrapped.read_text()), circuit_from_json(text)
    assert r.basis_layer == c.basis_layer == (-1,) * 6
    assert sim.global_phase_deviation(sim.unitary_of(r), sim.unitary_of(c)) <= 1e-9


def test_verify_all_stages(monkeypatch, capsys):
    # n = 5 over a lowered matrix cap takes the all-basis-states label
    for n, matrix_cap, method in ((4, sim.MAX_MATRIX_QUBITS, "matrix"),
                                  (5, 4, "all basis states")):
        monkeypatch.setattr(sim, "MAX_MATRIX_QUBITS", matrix_cap)
        code, out = run_cli(["verify", "--n", str(n)], capsys)
        assert code == 0
        lines = out.splitlines()
        assert [l.split(":")[0] for l in lines] == ["stage synth", "stage sched", "stage route"]
        assert all(l.endswith(f"(tol 1e-09, {method}) PASS") for l in lines)


def _exchange_noncommuting(c: ir.Circuit) -> ir.Circuit:
    """c with its first adjacent pair of non-commuting rotations exchanged."""
    g = list(c.gates)
    i = next(i for i in range(len(g) - 1)
             if g[i].target == g[i + 1].control or g[i].control == g[i + 1].target)
    g[i], g[i + 1] = g[i + 1], g[i]
    return ir.Circuit(c.n_qubits, tuple(g))


def _negate_one_angle(c: ir.Circuit) -> ir.Circuit:
    i = next(i for i, g in enumerate(c.gates) if g.kind != ir.SWAP)
    g = c.gates[i]
    return ir.Circuit(c.n_qubits, c.gates[:i] + (g._replace(angle=-g.angle),) + c.gates[i + 1:])


@pytest.mark.parametrize("broken, corrupt", [(None, None),
                                             ("sched", _exchange_noncommuting),
                                             ("route", _negate_one_angle)])
def test_verify_sweeps_each_fused_program_once(broken, corrupt, monkeypatch, capsys):
    # stages that fuse to one program share a sweep; a stage that does not
    # (here a corrupted one) gets its own sweep and its own verdict. A sweep
    # is one block at these widths, and so one call of the module attribute
    # sim.apply_many, the name a tracer wraps.
    stage_circuit, apply_many = cli._stage_circuit, sim.apply_many
    sweeps = []

    def stage(name, n):
        c = stage_circuit(name, n)
        return corrupt(c) if name == broken else c

    def counting(c, block, **kwargs):
        sweeps.append(c)
        return apply_many(c, block, **kwargs)

    monkeypatch.setattr(cli, "_stage_circuit", stage)
    monkeypatch.setattr(sim, "apply_many", counting)
    n = 8 if broken is None else 6
    code, out = run_cli(["verify", "--n", str(n)], capsys)
    verdicts = [(l.split(":")[0], l.split()[-1]) for l in out.splitlines()]
    assert verdicts == [(f"stage {s}", "FAIL" if s == broken else "PASS")
                        for s in ("synth", "sched", "route")]
    assert code == (0 if broken is None else 1)
    assert len(sweeps) == (1 if broken is None else 2)


def _child_env() -> dict:
    """The environment of a fresh interpreter that imports this package."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _child(*args: str) -> subprocess.CompletedProcess:
    """Run python with args in a fresh interpreter that imports this package."""
    return subprocess.run([sys.executable, *args], env=_child_env(), capture_output=True,
                          text=True, timeout=120)


def test_closed_stdout_exits_141_without_a_traceback():
    # route --n 64 writes about 2 MB, far more than a pipe holds, so the
    # child is still writing when the reader leaves after 100 bytes
    proc = subprocess.Popen([sys.executable, "-m", "toffoli_forge.cli", "route", "--n", "64"],
                            env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    try:
        err = proc.stderr.read().decode()
    finally:
        proc.stderr.close()
        code = proc.wait(timeout=120)
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
    assert code == 141


_WITHOUT_MODULE = """
import contextlib, io, json, sys
sys.modules[sys.argv[1]] = None  # from here on, importing it raises ImportError
from toffoli_forge import cli
codes = []
for argv in json.loads(sys.argv[2]):
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(cli.main(argv))
    except SystemExit as exc:
        codes.append(exc.code)
print(json.dumps(codes))
"""


def _check_runs_without(module: str, tmp_path) -> None:
    """Every call that simulates nothing, in a child (this process has
    imported numpy and dataclasses already) where `module` is unimportable."""
    flat, missing = str(tmp_path / "flat.json"), str(tmp_path / "missing.json")
    calls = [
        (["synth", "--n", "6", "--out", flat], 0),
        (["synth", "--n", "5", "--format", "qasm"], 0),
        (["synth", "--n", "5", "--format", "ascii"], 2),  # a format no longer offered
        (["synth", "--n", "5", "--construction", "barenco"], 0),
        (["synth", "--n", "5", "--construction", "recursive"], 0),
        (["synth", "--n", "6", "--approx-k", "2", "--basis", "wrapped"], 0),
        (["schedule", "--n", "7"], 0),
        (["schedule", "--in", flat], 0),
        (["route", "--n", "9"], 0),
        (["route", "--in", flat], 0),
        (["bench", "--n-min", "3", "--n-max", "6", "--arch", "both",
          "--per-group", str(tmp_path / "groups.csv")], 0),
        # verify rejects these before it simulates
        (["verify", "--n", "21"], 2),
        (["verify", "--in", missing], 2),
    ]
    run = _child("-c", _WITHOUT_MODULE, module, json.dumps([argv for argv, _ in calls]))
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == [code for _, code in calls]


def test_only_simulation_imports_numpy(tmp_path):
    _check_runs_without("numpy", tmp_path)

    run = _child("-c", "import numpy; from toffoli_forge import cli, sim; "
                 "code = cli.main(['verify', '--n', '4']); assert sim.np is numpy; print(code)")
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "0"


def test_package_never_imports_dataclasses(tmp_path):
    # dataclasses would bring inspect, ast, dis and tokenize into every cold start
    _check_runs_without("dataclasses", tmp_path)
    run = _child("-c", "import sys, toffoli_forge.cli; "
                 "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [["verify", "--n", "21"],
                                  ["verify", "--n", "600", "--stage", "route"]])
def test_verify_checks_caps_before_building(argv, monkeypatch, capsys):
    def refuse(stage, n):
        raise AssertionError(f"built the {stage} circuit for n={n}")

    monkeypatch.setattr(cli, "_stage_circuit", refuse)
    with pytest.raises(SystemExit) as ei:
        cli.main(argv)
    assert ei.value.code == 2
    assert capsys.readouterr().err.startswith("usage: toffoli-forge verify")


def test_verify_skips_route_below_3(capsys):
    code, out = run_cli(["verify", "--n", "2"], capsys)
    assert code == 0
    assert [l.split(":")[0] for l in out.splitlines()] == ["stage synth", "stage sched"]


def test_verify_random_mode(capsys):
    code, out = run_cli(["verify", "--n", "3", "--stage", "synth", "--mode", "random",
                         "--trials", "20", "--seed", "1"], capsys)
    assert code == 0
    assert "(tol 1e-09, 20 random states) PASS" in out


def test_verify_file_pass_and_fail(tmp_path, monkeypatch, capsys):
    good = tmp_path / "good.json"
    good.write_text(circuit_to_json(synth.synth_recursive(3)))
    c = synth.synth_toffoli(3)
    gates = (c.gates[0]._replace(angle=-c.gates[0].angle),) + c.gates[1:]
    bad = tmp_path / "bad.json"
    bad.write_text(circuit_to_json(ir.Circuit(3, gates)))
    # one case per sweep: matrix label, all basis states, random states
    for matrix_cap, extra, method in (
        (sim.MAX_MATRIX_QUBITS, [], "matrix"),
        (2, [], "all basis states"),
        (sim.MAX_MATRIX_QUBITS, ["--mode", "random", "--trials", "5"],
         "5 random states"),
    ):
        monkeypatch.setattr(sim, "MAX_MATRIX_QUBITS", matrix_cap)
        code, out = run_cli(["verify", "--in", str(good)] + extra, capsys)
        assert code == 0
        assert out.startswith("stage file:")
        assert f"(tol 1e-09, {method}) PASS" in out

        code, out = run_cli(["verify", "--in", str(bad)] + extra, capsys)
        assert code == 1
        assert f"(tol 1e-09, {method}) FAIL" in out


def test_verify_file_with_extreme_angles(tmp_path, capsys):
    # a numerator or 2**den_exp past any float: a verdict, not a traceback
    path = tmp_path / "c.json"
    for num, den_exp in ((1, 2000), (3**700, 0), (1, 10**12)):
        rotation = ir.crx(ir.DyadicAngle(num, den_exp), 0, 1)
        path.write_text(circuit_to_json(ir.Circuit(3, (rotation,))))
        code, out = run_cli(["verify", "--in", str(path)], capsys)
        assert code == 1
        assert len(out.splitlines()) == 1 and out.endswith("(tol 1e-09, matrix) FAIL\n")
    # a shift by 4 pi * 2**3000 leaves the rotation and its float as they were
    c = synth.synth_toffoli(4)
    i = next(i for i, g in enumerate(c.gates) if g.angle.num > 0)
    g = c.gates[i]
    runs = []
    for num in (g.angle.num, g.angle.num + (1 << (g.angle.den_exp + 3002))):
        gates = c.gates[:i] + (g._replace(angle=g.angle._replace(num=num)),) + c.gates[i + 1:]
        path.write_text(circuit_to_json(ir.Circuit(4, gates)))
        runs.append(run_cli(["verify", "--in", str(path)], capsys))
    assert runs[1] == runs[0] and runs[0][0] == 0


def test_verify_rejects_unreadable_file(tmp_path, capsys):
    path = tmp_path / "nope.json"
    with pytest.raises(SystemExit) as ei:
        cli.main(["verify", "--in", str(path)])
    assert ei.value.code == 2

    for text, commands in (
        ('{"version": "1"}', ("verify", "route", "schedule")),
        ('{"version": "1", "n_qubits": 3, "gates": [1]}', ("verify", "route", "schedule")),
        ('{"version": "1", "n_qubits": 3, "gates": [{"kind": "crx", "angle": 1}]}',
         ("verify", "route", "schedule")),
        ('{"version": "1", "n_qubits": 3, "gates": [], "sections": [5]}',
         ("verify", "route", "schedule")),
        ('{"version": "1", "n_qubits": 1, "gates": []}', ("verify",)),
        # JSON integers only, and "gates" is required: none of these is coerced
        ('{"version": "1", "n_qubits": 3, "gates": [{"kind": "crx", "control": 0.5, '
         '"target": 1, "angle": {"num": 1, "den_exp": 0}}]}', ("verify", "route", "schedule")),
        ('{"version": "1", "n_qubits": "3", "gates": []}', ("verify", "route", "schedule")),
        ('{"version": "1", "n_qubits": 3, "gates": [{"kind": "crx", "control": 0, '
         '"target": 1, "angle": {"num": true, "den_exp": 0}}]}', ("verify", "route", "schedule")),
        ('{"version": "1", "n_qubits": 3}', ("verify", "route", "schedule")),
    ):
        path.write_text(text)
        for command in commands:
            with pytest.raises(SystemExit) as ei:
                cli.main([command, "--in", str(path)])
            assert ei.value.code == 2
            assert "Traceback" not in capsys.readouterr().err


def test_verify_routed_file(tmp_path, capsys):
    # and a wrapped file, checked against the reference under its basis layer
    path = tmp_path / "c.json"
    for argv in (["route", "--n", "4"], ["synth", "--n", "5", "--basis", "wrapped"]):
        code, _ = run_cli(argv + ["--out", str(path)], capsys)
        assert code == 0
        code, out = run_cli(["verify", "--in", str(path)], capsys)
        assert code == 0
        assert "PASS" in out


def test_bench_csv(capsys):
    code, out = run_cli(["bench", "--n-min", "5", "--n-max", "5", "--arch", "both"],
                        capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == cli.BENCH_HEADER
    assert lines[1:] == [
        "5,approx,full,25,0,20,,25,true",
        "5,barenco,full,53,0,53,,25,false",
        "5,paper,full,25,0,20,20,25,true",
        "5,paper,line,25,32,47,47,25,true",
        "5,recursive,full,53,0,53,,25,false",
    ]


def test_bench_line_rows_check_the_routed_depth(monkeypatch, capsys):
    # 18n - 43 from n = 4 on; route n = 3 takes 13 slots, so that row has no formula
    _, out = run_cli(["bench", "--n-min", "3", "--n-max", "9", "--arch", "line"], capsys)
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [r[6] for r in rows] == ["", *(str(18 * n - 43) for n in range(4, 10))]
    assert [r[5] for r in rows] == ["13", *(r[6] for r in rows[1:])]
    assert {r[8] for r in rows} == {"true"}
    # a routed depth off the formula reads false
    real = route.routed_metrics
    monkeypatch.setattr(route, "routed_metrics", lambda r: {**real(r), "depth": 48})
    _, out = run_cli(["bench", "--n-min", "5", "--n-max", "5", "--arch", "line"], capsys)
    assert out.splitlines()[1] == "5,paper,line,25,32,48,47,25,false"


def test_bench_per_group(tmp_path, capsys):
    per = tmp_path / "groups.csv"
    code, out = run_cli(["bench", "--n-min", "5", "--n-max", "6", "--arch", "line",
                         "--per-group", str(per)], capsys)
    assert code == 0
    lines = per.read_text().splitlines()
    assert lines[0] == "n,segment,depth,swap_steps"
    assert lines[1] == "5,C1+C2,14,7"
    assert len(lines) == 1 + 12


def test_bench_caps_small_constructions(capsys):
    _, out = run_cli(["bench", "--n-min", "13", "--n-max", "13"], capsys)
    constructions = {line.split(",")[1] for line in out.splitlines()[1:]}
    assert constructions == {"paper", "approx"}


def test_console_script_wiring():
    parser = cli.build_parser()
    assert parser.prog == "toffoli-forge"


def test_main_reuses_one_parser(monkeypatch, capsys):
    # main parses with one cached parser; calls in a row, a usage error
    # among them, give what fresh parsers give, and no defaults leak
    argvs = (["verify", "--n", "3", "--stage", "synth"], ["verify", "--n", "3", "--stage", "x"],
             ["verify", "--n", "3"], ["synth", "--n", "4", "--format", "qasm"], ["synth"],
             ["synth", "--n", "4"], ["schedule", "--n", "4"])

    def run_all():
        seen = []
        for argv in argvs:
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            seen.append((code, *capsys.readouterr()))
        return seen

    cached = run_all()
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    assert [c for c, _, _ in cached] == [0, 2, 0, 0, 2, 0, 0]
    assert len(cached[2][1].splitlines()) == 3  # all stages again after --stage synth
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert run_all() == cached
