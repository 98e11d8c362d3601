"""Command-line frontend.

Subcommands: synth (emit circuits as JSON/QASM), schedule (layered
JSON), route (line-mapped circuit with layout trace), verify (oracle
equivalence checks with exit code 1 on failure), bench (CSV size/depth
metrics). Exit codes: 0 success, 1 verification failure, 2 usage error, 141
(128 + SIGPIPE) when stdout is closed before the output is written, as by
`| head`. A subcommand raises ValueError for input it rejects, such as an
unreadable --in or an unwritable --out or --per-group path; main alone turns
that into a usage error under the subcommand's usage line.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from . import baseline, route, sched, sim, synth
from .ir import CPRX, SWAP, Circuit, DyadicAngle, circuit_from_json, circuit_to_json

__all__ = ["main", "build_parser", "angle_str", "circuit_to_qasm"]


# ---------------------------------------------------------------- formats


def angle_str(a: DyadicAngle) -> str:
    """Exact text form: pi, -pi/8, 3*pi/4, ..."""
    core = "pi" if a.den_exp == 0 else f"pi/{1 << a.den_exp}"
    if abs(a.num) != 1:
        core = f"{abs(a.num)}*{core}"
    return ("-" if a.num < 0 else "") + core


_LAYER_PHASE = {1: "pi/2", 2: "pi", 3: "-pi/2"}


def circuit_to_qasm(c: Circuit) -> str:
    lines = ["OPENQASM 3.0;", 'include "stdgates.inc";']
    if any(g.kind == CPRX for g in c.gates):
        lines.append("gate cprx(theta) a, b { p(theta/2) a; crx(theta) a, b; }")
    lines.append(f"qubit[{c.n_qubits}] q;")

    def layer_lines(sign: int) -> list[str]:  # diag(1, i^e) per wire, or its adjoint
        return [f"p({_LAYER_PHASE[k]}) q[{w}];"
                for w, e in enumerate(c.basis_layer or ()) if (k := sign * e % 4)]

    lines += layer_lines(1)
    for g in c.gates:
        if g.kind == SWAP:
            lines.append(f"swap q[{g.target}], q[{g.target2}];")
        else:
            lines.append(f"{g.kind}({angle_str(g.angle)}) q[{g.control}], q[{g.target}];")
    lines += layer_lines(-1)
    return "\n".join(lines) + "\n"


def _write(text: str, path: str | None, end: str = "") -> None:
    """Write text, then end, to path or stdout; end spares a copy of a long text."""
    if path is None:
        sys.stdout.write(text)
        sys.stdout.write(end)
        return
    try:
        with open(path, "w") as f:
            f.write(text)
            f.write(end)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------- verify


def _stage_circuit(stage: str, n: int) -> Circuit:
    if stage == "synth":
        return synth.synth_toffoli(n)
    if stage == "sched":
        c = synth.synth_toffoli(n)
        s = sched.asap_schedule(c)
        order = [i for layer in s.layers for i in layer]
        return Circuit(n, tuple(c.gates[i] for i in order))
    return route.route_lnn(n).circuit  # "route": argparse's choices allow no other stage


def cmd_verify(args) -> int:
    stages: dict[str, Circuit] = {}
    if args.infile is not None:
        if args.stage is not None:
            raise ValueError("--in cannot be combined with --stage")
        c = _load_circuit(args.infile)
        if c.n_qubits < 2:
            raise ValueError("verify requires n ≥ 2")
        n, names = c.n_qubits, ()
        stages["file"] = c
    else:
        n = args.n
        names = (args.stage,) if args.stage not in (None, "all") else ("synth", "sched", "route")
    if n > sim.MAX_STATE_QUBITS:  # before any circuit is built
        raise ValueError(f"{args.mode} mode supports n <= {sim.MAX_STATE_QUBITS}")
    for name in names:
        try:
            stages[name] = _stage_circuit(name, n)
        except ValueError:  # all stages: route only from route_lnn's minimum width
            if name != "route" or args.stage not in (None, "all"):
                raise
    trials = args.trials if args.mode == "random" else None
    method = (f"{trials} random states" if trials else
              "matrix" if n <= sim.MAX_MATRIX_QUBITS else "all basis states")
    failed = False
    for name, dev in zip(stages, sim.max_deviations(stages.values(), trials, args.seed)):
        ok = dev <= args.tol
        failed |= not ok
        print(
            f"stage {name}: max deviation {dev:.3e} "
            f"(tol {args.tol:g}, {method}) {'PASS' if ok else 'FAIL'}"
        )
    return 1 if failed else 0


# ---------------------------------------------------------------- synth


def _load_circuit(path: str) -> Circuit:
    try:
        with open(path) as f:
            return circuit_from_json(f.read())
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read circuit from {path}: {exc}") from exc


def cmd_synth(args) -> int:
    if args.approx_k is not None:
        if args.construction != "paper":
            raise ValueError("--approx-k applies to the paper construction only")
        c = synth.synth_approx(args.n, args.approx_k)
    else:
        c = {"paper": synth.synth_toffoli, "recursive": synth.synth_recursive,
             "barenco": baseline.barenco_toffoli}[args.construction](args.n)
    if args.basis == "wrapped":
        c = synth.basis_conjugate(c)
    if args.format == "json":
        _write(circuit_to_json(c), args.out, "\n")
    else:
        _write(circuit_to_qasm(c), args.out)
    return 0


# ---------------------------------------------------------------- schedule/route


def cmd_schedule(args) -> int:
    if args.infile is not None:
        c = _load_circuit(args.infile)
    else:
        c = synth.synth_toffoli(args.n)
    _write(sched.schedule_to_json(sched.asap_schedule(c)), args.out, "\n")
    return 0


def cmd_route(args) -> int:
    n, layer = args.n, None
    if args.infile is not None:
        c = _load_circuit(args.infile)
        if c.sections is None:
            raise ValueError("input circuit has no section tags; only the flat construction is routable")
        n, layer = c.n_qubits, c.basis_layer
        # the count first: the file's n alone must not size the comparison circuit
        if len(c.gates) != synth.gate_count(n) or c.gates != synth.synth_toffoli(n).gates:
            raise ValueError("input is not the flat construction; only that family is routable")
    r = route.route_lnn(n)
    # the layout starts and ends as the identity, so the file's basis layer holds on the line too
    r = r._replace(circuit=r.circuit._replace(basis_layer=layer))
    _write(route.routed_to_json(r), args.out, "\n")
    return 0


# ---------------------------------------------------------------- bench


BENCH_HEADER = "n,construction,arch,crx_count,swap_count,depth,formula_depth,formula_size,matches_formula"


def _bench_rows(n_min: int, n_max: int, arch: str) -> tuple[list[tuple], list[tuple]]:
    rows: list[tuple] = []
    groups: list[tuple] = []

    def row(n, name, on, crx, swaps, depth, fdepth=None) -> tuple:  # a CSV row, matches_formula last
        fsize = synth.gate_count(n)
        return (n, name, on, crx, swaps, depth, fdepth, fsize, crx == fsize and fdepth in (None, depth))

    for n in range(n_min, n_max + 1):
        if arch in ("full", "both"):
            c = synth.synth_toffoli(n)
            rows.append(row(n, "paper", "full", len(c.gates), 0, sched.depth(sched.asap_schedule(c)),
                            8 * n - 20 if n >= 4 else None))
            ca = synth.synth_approx(n, math.ceil(math.log2(n)))
            rows.append(row(n, "approx", "full", len(ca.gates), 0, sched.depth(sched.asap_schedule(ca))))
            if n <= baseline.MAX_BARENCO_QUBITS:  # both serial forms: 2 * 3^(n-2) - 1 gates
                cnt = baseline.barenco_gate_count(n)
                rows += [row(n, name, "full", cnt, 0, cnt) for name in ("recursive", "barenco")]

        if arch in ("line", "both") and n >= 3:
            m = route.routed_metrics(route.route_lnn(n))
            ldepth = 18 * n - 43 if n >= 4 else None  # route n = 3 takes 13 slots, not 11
            rows.append(row(n, "paper", "line", m["crx_count"], m["swap_count"], m["depth"], ldepth))
            for label, d, s in zip(m["segments"], m["per_group_depths"],
                                   m["per_group_swap_steps"]):
                groups.append((n, label, d, s))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return rows, groups


def cmd_bench(args) -> int:
    if args.n_min > args.n_max:
        raise ValueError("need n-min ≤ n-max")
    synth.gate_count(args.n_min)  # rejects a width below the smallest the rows need
    rows, groups = _bench_rows(args.n_min, args.n_max, args.arch)
    lines = [BENCH_HEADER]
    for r in rows:
        cells = [("" if v is None else str(v).lower() if isinstance(v, bool) else str(v))
                 for v in r]
        lines.append(",".join(cells))
    _write("\n".join(lines) + "\n", args.out)
    if args.per_group is not None:
        glines = ["n,segment,depth,swap_steps"]
        glines += [f"{n},{label},{d},{s}" for n, label, d, s in groups]
        _write("\n".join(glines) + "\n", args.per_group)
    return 0


# ---------------------------------------------------------------- parser


def _checked(kind, ok, need: str):
    """An argparse type: the text read by `kind`, rejected unless ok(value)."""
    def convert(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {need}")
        return value
    convert.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return convert


def _add_source(p: argparse.ArgumentParser, in_help: str) -> None:
    """--n N (a generated circuit) or --in FILE, exactly one of them."""
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--n", type=int)
    source.add_argument("--in", dest="infile", help=in_help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toffoli-forge",
        description="Synthesize, schedule, route, and verify n-qubit Toffoli circuits "
        "built from 2-qubit controlled x-rotations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="emit a Toffoli circuit")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--construction", choices=("paper", "recursive", "barenco"),
                   default="paper")
    p.add_argument("--approx-k", type=int, default=None,
                   help="drop rotations finer than pi/2^K")
    p.add_argument("--basis", choices=("hat", "wrapped"), default="hat")
    p.add_argument("--format", choices=("json", "qasm"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_synth, parser=p)

    p = sub.add_parser("schedule", help="layer a circuit; emit schedule JSON")
    _add_source(p, "circuit JSON file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_schedule, parser=p)

    p = sub.add_parser("route", help="map to the nearest-neighbor line")
    _add_source(p, "circuit JSON file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_route, parser=p)

    p = sub.add_parser("verify", help="check stages against the dense oracle")
    _add_source(p, "verify a circuit JSON file instead of generated stages")
    p.add_argument("--stage", choices=("synth", "sched", "route", "all"), default=None,
                   help="default: all")
    p.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    p.add_argument("--trials", type=_checked(int, lambda v: v >= 1, "≥ 1"), default=100)
    p.add_argument("--seed", type=_checked(int, lambda v: v >= 0, "≥ 0"), default=0)
    p.add_argument("--tol", default=1e-9, type=_checked(  # the test is false for nan
        float, lambda v: 0 < v < math.inf, "finite and > 0"))
    p.set_defaults(func=cmd_verify, parser=p)

    p = sub.add_parser("bench", help="size/depth metrics as CSV")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--arch", choices=("full", "line", "both"), default="full")
    p.add_argument("--out", default=None)
    p.add_argument("--per-group", dest="per_group", default=None,
                   help="companion CSV of per-segment line depths")
    p.set_defaults(func=cmd_bench, parser=p)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process, built on first use: parse_args keeps no state in it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not in the interpreter's last flush
        return code
    except ValueError as exc:  # rejected input: the subcommand's usage line, exit 2
        args.parser.error(str(exc))
    except BrokenPipeError:  # the reader left: what is still buffered goes to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
