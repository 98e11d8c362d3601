"""Record one BENCH_<LABEL>.json at the repository root.

    python3 tools/bench_record.py LABEL

Runs, from the checkout this file sits in:

- perfbench/run.py --workload W --seed 7 --seconds 30 --trace 0 for every
  workload BENCHMARK.json lists, keeping each run's result line;
- the Tier-1 suite (PYTHONPATH=src python -m pytest -q
  --continue-on-collection-errors), timed as a whole;
- toffoli_forge.cli verify --n 12, and verify --n 16 --stage synth --mode
  random --trials 4, each in a child process, with the wall time, the peak
  RSS and the minor page faults (ru_minflt) taken from that child's own
  rusage (os.wait4);
- the tracemalloc peak of one sim.max_deviations call per sweep: exhaustive
  synth at n = 10, 11 and 12, and random synth 16 x 4 and 13 x 16 trials,
  each traced after one untraced call of the same sweep, so numpy's import
  and the chunk buffer sim keeps between calls are not counted;
- layer timings: the min of 5 in-process runs of sched.asap_schedule on
  synth_toffoli(n), route.route_lnn(n) and route.routed_to_json at n = 32,
  64 and 128, and of sim.apply_many on seeded random states at
  verify-states' shapes (synth 13 x 16 columns, route 15 x 4, synth 16 x 4),
  with its ns per amplitude per gate (gates x amplitudes, as perfbench's
  sim.amp_gates counts them), imported from the checkout's src/; and
  acceptance criterion 03's loop (asap_schedule(synth_toffoli(n)) and its
  depth checks for n = 4..128) timed in a fresh child process.

The record also holds the checkout's commit from git rev-parse HEAD (None
without git; unlike perfbench's meta.commit, it is also set in a git
worktree), perfbench's meta line (commit, src_lines, nproc, load, Python
and numpy versions), numpy's BLAS and the OPENBLAS_NUM_THREADS and
OMP_NUM_THREADS values in effect. Host speed drifts between sessions, so
only records made in one session compare; a perf change commits its
parent's record beside its own.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH_ARGS = ("--seed", "7", "--seconds", "30", "--trace", "0")
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")
VERIFY = ("-m", "toffoli_forge.cli", "verify", "--n", "12")
VERIFY_RANDOM = ("-m", "toffoli_forge.cli", "verify", "--n", "16", "--stage", "synth",
                 "--mode", "random", "--trials", "4")
LAYER_NS = (32, 64, 128)
LAYER_RUNS = 5
SIM_SHAPES = (("synth", 13, 16), ("route", 15, 4), ("synth", 16, 4))  # (stage, n, columns)
SWEEPS = ((10, None), (11, None), (12, None), (16, 4), (13, 16))  # synth (n, trials)
# criterion 03's loop as tests/test_acceptance.py runs it; prints its seconds
CRITERION_03 = """
import time
from toffoli_forge import sched, synth
t0 = time.perf_counter()
for n in range(4, 129):
    s = sched.asap_schedule(synth.synth_toffoli(n))
    assert sched.depth(s) == 8 * n - 20, n
    assert n < 5 or sched.group_depths(s) == (2 * n - 3, 2 * n - 5, 2 * n - 5, 2 * n - 7), n
print(time.perf_counter() - t0)
"""


def src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return env


def perfbench(workload: str) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           *PERFBENCH_ARGS], cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench {workload} exited {proc.returncode}")
    lines = proc.stdout.splitlines()
    meta = next(json.loads(line[5:]) for line in lines if line.startswith("meta "))
    return {"result": json.loads(lines[-1]), "meta": meta}


def tier1() -> dict:
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=ROOT, env=src_env(),
                          capture_output=True, text=True)
    seconds = perf_counter() - t0
    return {"wall_s": seconds, "exit": proc.returncode, "summary": proc.stdout.splitlines()[-1]}


def verify_child(args: tuple) -> dict:
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=src_env(),
                            stdout=subprocess.PIPE, text=True)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    proc.stdout.close()
    return {"wall_s": seconds, "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
            "minor_faults": usage.ru_minflt, "exit": proc.returncode,
            "stdout": out.splitlines()}


def best_of(f, *args) -> float:
    times = []
    for _ in range(LAYER_RUNS):
        t0 = perf_counter()
        f(*args)
        times.append(perf_counter() - t0)
    return min(times)


def checkout_modules():
    """route, sched, sim and synth, imported from the checkout's src/."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from toffoli_forge import route, sched, sim, synth
    finally:
        sys.path.pop(0)
    return route, sched, sim, synth


def sweep_peaks() -> dict:
    _, _, sim, synth = checkout_modules()
    out = {}
    for n, trials in SWEEPS:
        circuits = [synth.synth_toffoli(n)]
        sim.max_deviations(circuits, trials)
        tracemalloc.start()
        try:
            sim.max_deviations(circuits, trials)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out[f"synth {n}" + (f" x {trials}" if trials else "")] = {"peak_mib": peak / 2**20}
    return out


def layer_timings() -> dict:
    route, sched, sim, synth = checkout_modules()
    out = {}
    for n in LAYER_NS:
        routed = route.route_lnn(n)
        out[str(n)] = {
            "asap_schedule_s": best_of(sched.asap_schedule, synth.synth_toffoli(n)),
            "route_lnn_s": best_of(route.route_lnn, n),
            "routed_to_json_s": best_of(route.routed_to_json, routed),
        }
    rng, apply_many = np.random.default_rng(0), {}
    for stage, n, k in SIM_SHAPES:
        c = synth.synth_toffoli(n) if stage == "synth" else route.route_lnn(n).circuit
        states = rng.standard_normal((1 << n, k)) + 1j * rng.standard_normal((1 << n, k))
        seconds = best_of(sim.apply_many, c, states, sim.fused_program(c))
        apply_many[f"{stage} {n} x {k}"] = {
            "s": seconds, "ns_per_amp_gate": seconds * 1e9 / (len(c.gates) * states.size)}
    proc = subprocess.run([sys.executable, "-c", CRITERION_03], cwd=ROOT, env=src_env(),
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"criterion 03 loop exited {proc.returncode}")
    return {"runs": LAYER_RUNS, "by_n": out, "apply_many": apply_many,
            "criterion_03_loop_s": float(proc.stdout)}


def git_head() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
    except OSError:  # no git on this host
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def blas() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.26 has no mode argument
        return {"name": None, "version": None}
    return {"name": deps.get("name"), "version": deps.get("version")}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("label", help="names the output file BENCH_<label>.json")
    args = p.parse_args(argv)
    if not re.fullmatch(r"[\w.-]+", args.label):
        p.error("label may hold only letters, digits, '_', '.' and '-'")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = {w["name"]: perfbench(w["name"]) for w in spec["workloads"]}
    record = {
        "label": args.label,
        "commit": git_head(),
        "meta": next(iter(runs.values()))["meta"],
        "blas": blas(),
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "perfbench": {"args": list(PERFBENCH_ARGS), "workloads": runs},
        "tier1": tier1(),
        "verify_n12": verify_child(VERIFY),
        "verify_n16_random": verify_child(VERIFY_RANDOM),
        "sweep_tracemalloc": sweep_peaks(),
        "layers": layer_timings(),
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
