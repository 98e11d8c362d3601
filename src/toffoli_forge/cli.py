"""Command-line frontend.

Subcommands: synth (emit circuits as JSON/QASM/ASCII), schedule (layered
JSON), route (line-mapped circuit with layout trace), verify (oracle
equivalence checks with exit code 1 on failure), bench (CSV size/depth
metrics). Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import baseline, route, sched, sim, synth
from .ir import CPRX, SWAP, Circuit, DyadicAngle, circuit_from_json, circuit_to_json

__all__ = ["main", "build_parser", "angle_str", "circuit_to_qasm", "circuit_to_ascii"]


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

    def layer_lines(adjoint: bool) -> list[str]:
        out = []
        for w, e in enumerate(c.basis_layer or ()):
            k = (-e if adjoint else e) % 4
            if k:
                out.append(f"p({_LAYER_PHASE[k]}) q[{w}];")
        return out

    lines += layer_lines(adjoint=False)
    for g in c.gates:
        if g.kind == SWAP:
            lines.append(f"swap q[{g.target}], q[{g.target2}];")
        else:
            lines.append(f"{g.kind}({angle_str(g.angle)}) q[{g.control}], q[{g.target}];")
    lines += layer_lines(adjoint=True)
    return "\n".join(lines) + "\n"


def circuit_to_ascii(c: Circuit) -> str:
    """One row per qubit, one column per schedule layer. Presentation only."""
    layers = sched.asap_schedule(c).layers
    n = c.n_qubits
    label = max(len(f"q{w}:") for w in range(n)) + 1
    rows = [f"q{w}:".ljust(label) for w in range(n)]
    for layer in layers:
        cells = [""] * n
        spans = []
        for gi in layer:
            g = c.gates[gi]
            if g.kind == SWAP:
                cells[g.target] = "×"
                cells[g.target2] = "×"
                spans.append(sorted((g.target, g.target2)))
            else:
                cells[g.control] = "●"
                cells[g.target] = f"[{angle_str(g.angle)}]"
                spans.append(sorted((g.control, g.target)))
        for lo, hi in spans:
            for w in range(lo + 1, hi):
                if not cells[w]:
                    cells[w] = "┼"
        width = max(len(x) for x in cells)
        for w in range(n):
            cell = cells[w] or "─"
            pad = width - len(cell)
            rows[w] += "─" + "─" * (pad // 2) + cell + "─" * (pad - pad // 2)
    return "\n".join(rows) + "\n"


def _write(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
            f.write(text)


# ---------------------------------------------------------------- verify


# amplitudes (2^n x columns) per verify sweep block; bounds a check's memory
_BLOCK_AMPLITUDES = 1 << 22


def _stage_circuit(stage: str, n: int) -> Circuit:
    if stage == "synth":
        return synth.synth_toffoli(n)
    if stage == "sched":
        c = synth.synth_toffoli(n)
        s = sched.asap_schedule(c)
        order = [i for layer in s.layers for i in layer]
        return Circuit(n, tuple(c.gates[i] for i in order))
    if stage == "route":
        return route.route_lnn(n).circuit
    raise ValueError(stage)


def _sweep(c: Circuit, blocks) -> float:
    """Worst |out - phase*ref| over column blocks, one phase for all of them."""
    phase = None
    worst = 0.0
    for block in blocks:
        out = sim.apply_many(c, block)
        ref = sim.reference_apply(block)
        if phase is None:
            i = int(np.argmax(np.abs(ref[:, 0])))
            phase = out[i, 0] / ref[i, 0]
        # in place (a block is up to 64 MB), in the operand order of phase * ref
        out -= np.multiply(phase, ref, out=ref)
        worst = max(worst, float(np.max(np.abs(out))))
        del block, out, ref  # free before the next block is drawn
    return worst


def _basis_blocks(dim: int):
    chunk = max(1, min(dim, _BLOCK_AMPLITUDES // dim))
    for lo in range(0, dim, chunk):
        k = min(chunk, dim - lo)
        block = np.zeros((dim, k), dtype=complex)
        cols = np.arange(k)
        block[lo + cols, cols] = 1
        yield block
        del block  # the consumer's reference is the only one left


def _random_blocks(dim: int, trials: int, seed: int):
    rng = np.random.default_rng(seed)
    chunk = max(1, min(trials, _BLOCK_AMPLITUDES // dim))
    for done in range(0, trials, chunk):
        k = min(chunk, trials - done)
        block = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
        block /= np.linalg.norm(block, axis=0, keepdims=True)
        yield block
        del block


def _deviation(c: Circuit, mode: str, trials: int, seed: int,
               parser: argparse.ArgumentParser) -> tuple[float, str]:
    n = c.n_qubits
    try:
        matrix_cap, state_cap = sim.max_matrix_qubits(), sim.max_state_qubits()
    except ValueError as exc:
        parser.error(str(exc))
    if n > state_cap:
        parser.error(f"{mode} mode supports n <= {state_cap}")
    if mode == "random":
        return _sweep(c, _random_blocks(1 << n, trials, seed)), f"{trials} random states"
    method = "matrix" if n <= matrix_cap else "all basis states"
    return _sweep(c, _basis_blocks(1 << n)), method


def cmd_verify(args, parser: argparse.ArgumentParser) -> int:
    if args.trials < 1:
        parser.error("--trials must be ≥ 1")
    if not 0 < args.tol < math.inf:  # also rejects nan
        parser.error("--tol must be finite and > 0")
    if args.seed < 0:
        parser.error("--seed must be ≥ 0")
    stages: list[tuple[str, Circuit]] = []
    if args.infile is not None:
        c = _load_circuit(args, parser, "n", "stage")
        if c.n_qubits < 2:
            parser.error("verify requires n ≥ 2")
        stages.append(("file", c))
    else:
        if args.n is None:
            parser.error("--n or --in is required")
        if args.n < 2:
            parser.error("n must be ≥ 2")
        names = (args.stage,) if args.stage not in (None, "all") else ("synth", "sched", "route")
        for name in names:
            if name == "route" and args.n < 3:
                if args.stage == "route":
                    parser.error("route requires n ≥ 3")
                continue
            stages.append((name, _stage_circuit(name, args.n)))
    failed = False
    for name, c in stages:
        dev, method = _deviation(c, args.mode, args.trials, args.seed, parser)
        ok = dev <= args.tol
        failed |= not ok
        print(
            f"stage {name}: max deviation {dev:.3e} "
            f"(tol {args.tol:g}, {method}) {'PASS' if ok else 'FAIL'}"
        )
    return 1 if failed else 0


# ---------------------------------------------------------------- synth


def _load_circuit(args, parser: argparse.ArgumentParser, *options: str) -> Circuit:
    """The circuit in --in. Each of `options` picks a generated circuit, so
    giving one alongside --in is a usage error."""
    for name in options:
        if getattr(args, name) is not None:
            parser.error(f"--in cannot be combined with --{name}")
    try:
        with open(args.infile) as f:
            return circuit_from_json(f.read())
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read circuit from {args.infile}: {exc}")
        raise AssertionError("unreachable")


def cmd_synth(args, parser: argparse.ArgumentParser) -> int:
    if args.n < 2:
        parser.error("n must be ≥ 2")
    if args.approx_k is not None:
        if args.construction != "paper":
            parser.error("--approx-k applies to the paper construction only")
        if args.approx_k < 0:
            parser.error("--approx-k must be ≥ 0")
    if args.construction == "paper":
        if args.approx_k is not None:
            c = synth.synth_approx(args.n, args.approx_k)
        else:
            c = synth.synth_toffoli(args.n)
    elif args.n > baseline.MAX_BARENCO_QUBITS:  # both serial forms have 2 * 3^(n-2) - 1 gates
        parser.error(f"{args.construction} construction is limited to "
                     f"n ≤ {baseline.MAX_BARENCO_QUBITS}")
    elif args.construction == "recursive":
        c = synth.synth_recursive(args.n)
    else:
        c = baseline.barenco_toffoli(args.n)
    if args.basis == "wrapped":
        c = synth.basis_conjugate(c)
    if args.format == "json":
        text = circuit_to_json(c) + "\n"
    elif args.format == "qasm":
        text = circuit_to_qasm(c)
    else:
        text = circuit_to_ascii(c)
    _write(text, args.out)
    return 0


# ---------------------------------------------------------------- schedule/route


def cmd_schedule(args, parser: argparse.ArgumentParser) -> int:
    if args.infile is not None:
        c = _load_circuit(args, parser, "n")
    else:
        if args.n is None:
            parser.error("--n or --in is required")
        if args.n < 2:
            parser.error("n must be ≥ 2")
        c = synth.synth_toffoli(args.n)
    _write(sched.schedule_to_json(sched.asap_schedule(c)) + "\n", args.out)
    return 0


def cmd_route(args, parser: argparse.ArgumentParser) -> int:
    if args.infile is not None:
        c = _load_circuit(args, parser, "n")
        if c.sections is None:
            parser.error("input circuit has no section tags; only the flat construction is routable")
        n = c.n_qubits
        if n < 3:
            parser.error("route requires n ≥ 3")
        # the count first: the file's n alone must not size the comparison circuit
        if len(c.gates) != synth.gate_count(n) or c.gates != synth.synth_toffoli(n).gates:
            parser.error("input is not the flat construction; only that family is routable")
    else:
        if args.n is None:
            parser.error("--n or --in is required")
        n = args.n
        if n < 3:
            parser.error("route requires n ≥ 3")
    r = route.route_lnn(n)
    _write(route.routed_to_json(r) + "\n", args.out)
    return 0


# ---------------------------------------------------------------- bench


BENCH_HEADER = "n,construction,arch,crx_count,swap_count,depth,formula_depth,formula_size,matches_formula"


def _bench_rows(n_min: int, n_max: int, arch: str) -> tuple[list[tuple], list[tuple]]:
    rows: list[tuple] = []
    groups: list[tuple] = []
    for n in range(n_min, n_max + 1):
        fsize = synth.gate_count(n)
        fdepth = 8 * n - 20 if n >= 4 else None
        if arch in ("full", "both"):
            c = synth.synth_toffoli(n)
            d = sched.depth(sched.asap_schedule(c))
            ok = len(c.gates) == fsize and (fdepth is None or d == fdepth)
            rows.append((n, "paper", "full", len(c.gates), 0, d, fdepth, fsize, ok))

            kmax = math.ceil(math.log2(n))
            ca = synth.synth_approx(n, kmax)
            da = sched.depth(sched.asap_schedule(ca))
            rows.append((n, "approx", "full", len(ca.gates), 0, da, None, fsize,
                         len(ca.gates) == fsize))

            if n <= baseline.MAX_BARENCO_QUBITS:
                cnt = synth.recursive_gate_count(n)
                rows.append((n, "recursive", "full", cnt, 0, cnt, None, fsize, cnt == fsize))
                cnt = baseline.barenco_gate_count(n)
                rows.append((n, "barenco", "full", cnt, 0, cnt, None, fsize, cnt == fsize))
        if arch in ("line", "both") and n >= 3:
            m = route.routed_metrics(route.route_lnn(n))
            rows.append((n, "paper", "line", m["crx_count"], m["swap_count"],
                         m["depth"], None, fsize, m["crx_count"] == fsize))
            for label, d, s in zip(m["segments"], m["per_group_depths"],
                                   m["per_group_swap_steps"]):
                groups.append((n, label, d, s))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return rows, groups


def cmd_bench(args, parser: argparse.ArgumentParser) -> int:
    if args.n_min < 2 or args.n_min > args.n_max:
        parser.error("need 2 ≤ n-min ≤ n-max")
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
    p.add_argument("--format", choices=("json", "qasm", "ascii"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_synth, parser=p)

    p = sub.add_parser("schedule", help="layer a circuit; emit schedule JSON")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--in", dest="infile", default=None, help="circuit JSON file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_schedule, parser=p)

    p = sub.add_parser("route", help="map to the nearest-neighbor line")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--in", dest="infile", default=None, help="circuit JSON file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_route, parser=p)

    p = sub.add_parser("verify", help="check stages against the dense oracle")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--in", dest="infile", default=None,
                   help="verify a circuit JSON file instead of generated stages")
    p.add_argument("--stage", choices=("synth", "sched", "route", "all"), default=None,
                   help="default: all")
    p.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9)
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # usage errors a subcommand raises print that subcommand's usage line
    return args.func(args, args.parser)


if __name__ == "__main__":
    sys.exit(main())
