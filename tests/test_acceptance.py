"""Acceptance gate: every shipped guarantee, one pass/fail line per criterion.

Run with -s (or read captured stdout) to see the lines. Each criterion is a
separate test so a single regression cannot hide the rest.
"""

from __future__ import annotations

import math
import time

import numpy as np

from toffoli_forge import baseline, cli, ir, route, sched, sim, synth

from sim_helpers import random_state


def check(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num:02d} [{name}] {detail}".rstrip()


def _tri(m: int) -> int:
    return m * (m - 1) // 2


def test_criterion_01_flat_gate_counts():
    t0 = time.perf_counter()
    ok = True
    detail = ""
    for n in range(2, 129):
        c = synth.synth_toffoli(n)
        expect = 2 * n * n - 6 * n + 5
        sizes = tuple(s.end - s.start for s in c.sections)
        want = (_tri(n - 1), n - 1, _tri(n - 1), _tri(n - 2), n - 2, _tri(n - 2))
        if (
            len(c.gates) != expect
            or any(g.kind != ir.CRX for g in c.gates)
            or sizes != want
        ):
            ok, detail = False, f"n={n}"
            break
    elapsed = time.perf_counter() - t0
    check(1, "flat-gate-counts", ok and elapsed < 1.0,
          detail or f"took {elapsed:.2f}s")


def test_criterion_02_three_qubit_golden():
    t0 = time.perf_counter()
    c = synth.synth_toffoli(3)
    golden = (
        ir.crx(ir.dyadic(1, 1), 1, 2),
        ir.crx(ir.dyadic(1, 0), 0, 1),
        ir.crx(ir.dyadic(1, 1), 0, 2),
        ir.crx(ir.dyadic(-1, 1), 1, 2),
        ir.crx(ir.dyadic(-1, 0), 0, 1),
    )
    dev = sim.global_phase_deviation(sim.unitary_of(c), sim.reference_unitary(3))
    elapsed = time.perf_counter() - t0
    check(2, "three-qubit-golden",
          c.gates == golden and dev <= 1e-12 and elapsed < 1.0,
          f"dev={dev:.3e} took {elapsed:.2f}s")


def test_criterion_03_depth_formula():
    t0 = time.perf_counter()
    ok = True
    detail = ""
    for n in range(4, 129):
        s = sched.asap_schedule(synth.synth_toffoli(n))
        if sched.depth(s) != 8 * n - 20:
            ok, detail = False, f"n={n} depth {sched.depth(s)}"
            break
        if n >= 5 and sched.group_depths(s) != (2 * n - 3, 2 * n - 5, 2 * n - 5, 2 * n - 7):
            ok, detail = False, f"n={n} groups {sched.group_depths(s)}"
            break
    elapsed = time.perf_counter() - t0
    check(3, "depth-formula", ok and elapsed < 10.0, detail or f"took {elapsed:.2f}s")


def test_criterion_04_five_qubit_first_group():
    s = sched.asap_schedule(synth.synth_toffoli(5))
    first = sched.group_depths(s)[0]
    check(4, "five-qubit-first-group", first == 7, f"got {first}")


def test_criterion_05_flat_equivalence():
    ok = True
    detail = ""
    for n in range(2, 11):
        t0 = time.perf_counter()
        dev = sim.global_phase_deviation(
            sim.unitary_of(synth.synth_toffoli(n)), sim.reference_unitary(n)
        )
        elapsed = time.perf_counter() - t0
        if dev > 1e-9 or (n == 10 and elapsed >= 120.0):
            ok, detail = False, f"n={n} dev={dev:.3e} took {elapsed:.1f}s"
            break
    if ok:
        for n in range(11, 15):
            dim = 1 << n
            rng = np.random.default_rng(0)
            block = rng.standard_normal((dim, 100)) + 1j * rng.standard_normal((dim, 100))
            block /= np.linalg.norm(block, axis=0, keepdims=True)
            out = sim.apply_many(synth.synth_toffoli(n), block)
            ref = sim.reference_apply(block)
            i = int(np.argmax(np.abs(ref[:, 0])))
            phase = out[i, 0] / ref[i, 0]
            dev = float(np.max(np.abs(out - phase * ref)))
            if dev > 1e-8:
                ok, detail = False, f"n={n} dev={dev:.3e}"
                break
    check(5, "flat-equivalence", ok, detail)


def test_criterion_06_recursive_equivalence():
    ok = True
    detail = ""
    for n in range(2, 9):
        dev = sim.global_phase_deviation(
            sim.unitary_of(synth.synth_recursive(n)),
            sim.unitary_of(synth.synth_toffoli(n)),
        )
        if dev > 1e-10:
            ok, detail = False, f"n={n} dev={dev:.3e}"
            break
    check(6, "recursive-equivalence", ok, detail)


def test_criterion_07_schedule_semantics():
    rng = np.random.default_rng(42)
    ok = True
    detail = ""
    for n in range(3, 9):
        c = synth.synth_toffoli(n)
        s = sched.asap_schedule(c)
        v = random_state(n, rng)
        want = sim.apply(c, v)
        for _ in range(50):
            order = []
            for layer in s.layers:
                picks = list(layer)
                rng.shuffle(picks)
                order.extend(picks)
            shuffled = ir.Circuit(n, tuple(c.gates[i] for i in order))
            dev = float(np.max(np.abs(sim.apply(shuffled, v) - want)))
            if dev > 1e-10:
                ok, detail = False, f"n={n} dev={dev:.3e}"
                break
        if not ok:
            break
    check(7, "schedule-semantics", ok, detail)


def test_criterion_08_line_routing():
    ok = True
    detail = ""

    m5 = route.routed_metrics(route.route_lnn(5))
    if m5["per_group_depths"][0] != 14 or m5["per_group_swap_steps"][0] != 7:
        ok, detail = False, f"n=5 first group {m5}"

    if ok:
        for n in range(5, 65):
            m = route.routed_metrics(route.route_lnn(n))
            pattern = tuple(m["per_group_depths"][i] for i in (0, 1, 3, 4))
            if pattern != (4 * n - 6, 4 * n - 10, 4 * n - 10, 4 * n - 14):
                ok, detail = False, f"n={n} pattern groups {pattern}"
                break

    if ok:
        for n in (3, 4, 5, 9, 17):
            r = route.route_lnn(n)
            for g in r.circuit.gates:
                q = g.qubits()
                if len(q) == 2 and abs(q[0] - q[1]) != 1:
                    ok, detail = False, f"n={n} non-adjacent {g}"
                    break
            if r.trace[-1][1] != tuple(range(n)):
                ok, detail = False, f"n={n} final layout {r.trace[-1][1]}"
            if not ok:
                break

    if ok:
        for n in range(3, 9):
            dev = sim.global_phase_deviation(
                sim.unitary_of(route.route_lnn(n).circuit), sim.reference_unitary(n)
            )
            if dev > 1e-9:
                ok, detail = False, f"n={n} dev={dev:.3e}"
                break

    if ok:
        for n in range(5, 257):
            depth = len(route.route_lnn(n).slots)
            if depth > 19 * n:
                ok, detail = False, f"n={n} depth {depth} > {19 * n}"
                break

    check(8, "line-routing", ok, detail)


def test_criterion_09_barenco_baseline():
    golden = (
        ir.cprx(ir.dyadic(1, 1), 1, 2),
        ir.cprx(ir.dyadic(1, 0), 0, 1),
        ir.cprx(ir.dyadic(-1, 1), 1, 2),
        ir.cprx(ir.dyadic(1, 0), 0, 1),
        ir.cprx(ir.dyadic(1, 1), 0, 2),
    )
    ok = baseline.barenco_toffoli(3).gates == golden
    detail = "golden mismatch" if not ok else ""
    if ok:
        for n in range(2, 9):
            dim = 1 << n
            x_toffoli = np.eye(dim)
            x_toffoli[[dim - 2, dim - 1]] = x_toffoli[[dim - 1, dim - 2]]
            u = sim.unitary_of(baseline.barenco_toffoli(n))
            tol = 1e-12 if n == 3 else 1e-10
            dev = float(np.max(np.abs(u - x_toffoli)))
            if dev > tol:
                ok, detail = False, f"n={n} dev={dev:.3e}"
                break
    check(9, "barenco-baseline", ok, detail)


def test_criterion_10_approximation_error():
    ok = True
    detail = ""
    for n in (8, 10):
        kmax = math.ceil(math.log2(n))
        eps = sim.op_norm_error(synth.synth_approx(n, kmax), n)
        if not (0.0 < eps <= 4.0 * math.pi / n):
            ok, detail = False, f"n={n} eps={eps:.4f}"
            break
    if ok:
        eps = sim.op_norm_error(synth.synth_approx(8, 6), 8)
        if eps > 1e-12:
            ok, detail = False, f"kmax=n-2 eps={eps:.3e}"
    if ok:
        errs = [sim.op_norm_error(synth.synth_approx(8, k), 8) for k in range(1, 7)]
        if any(b > a + 1e-12 for a, b in zip(errs, errs[1:])):
            ok, detail = False, f"not non-increasing: {errs}"
    check(10, "approximation-error", ok, detail)


def test_criterion_11_basis_wrapper():
    ok = True
    detail = ""
    for n in range(2, 9):
        u = sim.unitary_of(synth.basis_conjugate(synth.synth_toffoli(n)))
        dim = 1 << n
        perm = np.eye(dim)
        perm[[dim - 2, dim - 1]] = perm[[dim - 1, dim - 2]]
        dev = float(np.max(np.abs(np.abs(u) - perm)))
        if dev > 1e-10:
            ok, detail = False, f"n={n} dev={dev:.3e}"
            break
    check(11, "basis-wrapper", ok, detail)


def test_criterion_12_serialization():
    ok = True
    detail = ""
    for n in range(2, 33):
        c = synth.synth_toffoli(n)
        back = ir.circuit_from_json(ir.circuit_to_json(c))
        if back.gates != c.gates or back.sections != c.sections:
            ok, detail = False, f"flat n={n}"
            break
    if ok:
        for n in (3, 6):
            w = synth.basis_conjugate(synth.synth_toffoli(n))
            back = ir.circuit_from_json(ir.circuit_to_json(w))
            if back != w:
                ok, detail = False, f"wrapped n={n}"
                break
    if ok:
        b = baseline.barenco_toffoli(5)
        if ir.circuit_from_json(ir.circuit_to_json(b)).gates != b.gates:
            ok, detail = False, "barenco n=5"
    if ok:
        circuits = [
            synth.synth_toffoli(3),
            synth.synth_toffoli(8),
            synth.basis_conjugate(synth.synth_toffoli(4)),
            baseline.barenco_toffoli(5),
        ]
        for c in circuits:
            if cli.circuit_to_qasm(c).encode() != cli.circuit_to_qasm(c).encode():
                ok, detail = False, "qasm nondeterminism"
                break
            back = ir.circuit_from_json(ir.circuit_to_json(c))
            if cli.circuit_to_qasm(back) != cli.circuit_to_qasm(c):
                ok, detail = False, "qasm differs after round trip"
                break
    check(12, "serialization", ok, detail)
