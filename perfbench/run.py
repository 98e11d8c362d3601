"""toffoli-forge benchmark: seeded, closed-loop, single-client CLI workloads.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the program is imported from its
src/ directory, never from an installed copy. Requests go in-process through
the public entry point toffoli_forge.cli.main(argv) with stdout captured,
one at a time, whole rounds at a time, until --seconds have passed and at
least MIN_REQUESTS requests have completed. Every output is checked (see
checks.py).

--trace 0 reports the end-to-end metrics named in BENCHMARK.json. --trace 1
spends half of --seconds untraced and half traced (see tracing.py) and reports
the per-layer metrics, including the tracing overhead. The last line of
stdout is the JSON result; the lines before it list every metric with its
unit, failed_frac, and the run's metadata. Spans and metadata are also
written to .bench_out/. Exit 2: the program cannot be imported; exit 3: the
benchmark's own self-check failed. Neither prints a result.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
MODULES = ("ir", "synth", "baseline", "sched", "route", "sim", "cli")
MIN_REQUESTS = 100  # ten samples beyond p90
SETUP_PROBES = 5
PLAN_ROUNDS = 40  # reused from the start if a run gets through all of them


def import_program() -> dict:
    if not (SRC / "toffoli_forge" / "__init__.py").is_file():
        print(f"benchmark: no program source at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    mods = {m: importlib.import_module(f"toffoli_forge.{m}") for m in MODULES}
    if SRC not in Path(mods["cli"].__file__).resolve().parents:
        print(f"benchmark: toffoli_forge imported from outside {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return mods


def setup(workload: str, seed: int) -> tuple[float, dict, list]:
    """Import the program and generate the request list; returns its duration."""
    t0 = perf_counter()
    mods = import_program()
    plan = workloads.rounds(workload, seed, PLAN_ROUNDS)
    return perf_counter() - t0, mods, plan


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time over fresh interpreters, so imports are paid each time."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload,
             "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


class Loop:
    """One closed-loop pass over the plan: latencies, per-round rates, failures."""

    def __init__(self, mods: dict, plan: list, tmp: str, tracer: tracing.Tracer | None = None):
        self.cli = mods["cli"]
        ir = mods["ir"]
        # untraced originals: the round-trip check must not show up in spans
        to_json, from_json = ir.circuit_to_json, ir.circuit_from_json
        self.roundtrip = lambda text: to_json(from_json(text)) + "\n"
        self.plan, self.tmp, self.tracer = plan, tmp, tracer
        self.latencies: list[float] = []
        self.round_rates: list[float] = []
        self.failures: list[tuple[dict, str]] = []

    def call(self, argv: list[str]) -> tuple[object, str]:
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = self.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed request, not a failed run
            rc = f"{type(exc).__name__}: {exc}"
        return rc, out.getvalue()

    def request(self, req: dict) -> None:
        argv = [a.replace("{tmp}", self.tmp) for a in req["argv"]]
        tracer = self.tracer
        if tracer is not None:
            tracer.request = len(self.latencies)
            span = len(tracer.spans)
        t0 = perf_counter()
        rc, out = self.call(argv)
        self.latencies.append(perf_counter() - t0)
        if tracer is not None:
            files = [argv[i + 1] for i, a in enumerate(argv) if a in ("--out", "--per-group")]
            tracer.add_count(span, "out_bytes",
                             len(out.encode()) + sum(os.path.getsize(f) for f in files
                                                     if os.path.exists(f)))
        try:
            reason = checks.check(req, rc, out, self.tmp, self.roundtrip)
        except Exception as exc:  # malformed output that the parsers reject
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            self.failures.append((req, reason))

    def run(self, seconds: float, min_requests: int) -> "Loop":
        start = perf_counter()
        while True:
            first = len(self.latencies)
            for unit in self.plan[len(self.round_rates) % len(self.plan)]:
                for req in unit:
                    self.request(req)
            done = self.latencies[first:]
            self.round_rates.append(len(done) / sum(done))
            if perf_counter() - start >= seconds and len(self.latencies) >= min_requests:
                return self

    @property
    def throughput(self) -> float:
        """Median over rounds of requests per second spent inside main(); the
        client's checks are not charged, and one disturbed round does not
        move the median."""
        return statistics.median(self.round_rates)


def self_check(mods: dict, workload: str, seed: int, plan: list, tmp: str) -> list[str]:
    """Problems with the benchmark itself: the plan must be reproducible and a
    corrupted input or expectation must be counted as failed."""
    problems = []
    again = workloads.rounds(workload, seed, PLAN_ROUNDS)
    if workloads.serialize(again) != workloads.serialize(plan):
        problems.append("the same seed gave a different request list")
    loop = Loop(mods, plan, tmp)
    path = os.path.join(tmp, "corrupt.json")
    loop.call(["synth", "--n", "5", "--out", path])
    with open(path) as f:
        obj = json.load(f)
    obj["gates"][0]["angle"]["num"] *= -1
    with open(path, "w") as f:
        json.dump(obj, f, indent=2)
    loop.request({"argv": ["verify", "--in", path],
                  "expect": {"kind": "verify", "stages": ["file"], "method": "matrix"}})
    loop.request({"argv": ["schedule", "--n", "6"], "expect": {"kind": "schedule", "n": 7}})
    if len(loop.failures) != 2:
        problems.append(f"{2 - len(loop.failures)} of 2 corrupted requests counted as passing")
    return problems


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def metadata() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.setup_probe:
        print(setup(args.workload, args.seed)[0])
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _, mods, plan = setup(args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    tmp = str(OUT_DIR / f"tmp-{os.getpid()}")
    os.makedirs(tmp)
    try:
        if args.trace:
            untraced = Loop(mods, plan, tmp).run(args.seconds / 2, 1)
            tracer = tracing.Tracer()
            tracer.install(mods)
            try:
                traced = Loop(mods, plan, tmp, tracer).run(args.seconds / 2, 1)
            finally:
                tracer.uninstall()
            loops = [untraced, traced]
            values = tracer.layer_metrics(len(traced.latencies))
            values["trace.overhead_rps"] = traced.throughput - untraced.throughput
            wanted = spec["per_layer"]
        else:
            setup_s = setup_seconds(args.workload, args.seed)
            loop = Loop(mods, plan, tmp).run(args.seconds, MIN_REQUESTS)
            loops = [loop]
            values = {
                "setup_s": setup_s,
                "throughput_rps": loop.throughput,
                "latency_p50_s": statistics.median(loop.latencies),
                "latency_p90_s": statistics.quantiles(loop.latencies, n=10, method="inclusive")[8],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            }
            wanted = spec["end_to_end"]
        problems = self_check(mods, args.workload, args.seed, plan, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(len(l.latencies) for l in loops)
    failures = [f for l in loops for f in l.failures]
    unexpected = [(req, why) for req, why in failures if "known_defect" not in req]
    if attempted == 0:
        problems.append("no request was checked")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        problems.append(f"metrics in BENCHMARK.json that the run did not produce: {missing}")
    if problems:
        for msg in problems:
            print(f"benchmark self-check: {msg}", file=sys.stderr)
        return 3
    for req, why in unexpected[:20]:
        print(f"failed: {' '.join(req['argv'])}: {why}", file=sys.stderr)
    known = collections.Counter(req["known_defect"] for req, _ in failures if "known_defect" in req)
    for defect, count in known.items():
        print(f"failed as known: {count} x {defect}", file=sys.stderr)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    meta = metadata()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} requests, {len(failures)} failed "
          f"({len(failures) - len(unexpected)} known defects)")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  failed_frac = {len(failures) / attempted:.6g} frac")
    if args.trace:
        shares: dict[str, float] = {}
        for m in tracing.SELF_TIME.values():
            layer = m.split(".")[0]
            shares[layer] = shares.get(layer, 0.0) + values[m]
        total = sum(shares.values())
        print("  self-time share: " + ", ".join(f"{k} {v / total:.1%}" for k, v in shares.items()))
    print("meta " + json.dumps(meta))
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "meta": meta,
              "metrics": metrics, "failures": [[r["argv"], why] for r, why in failures],
              "round_rates": [l.round_rates for l in loops]}
    if args.trace:
        record["spans"] = tracer.spans
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record))
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
