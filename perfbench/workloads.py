"""Seeded request lists for the three workloads.

A workload is an endless sequence of rounds. Every round holds the same
mix of request shapes, so every run has the same mix whatever its seed; the
seed shuffles the order of units inside a round and draws the parameters
that do not move a request out of its cost tier (see below): sizes of the
cheaper requests, the stage of cheap random-mode checks and the seeds of
random-mode verification. The most expensive request of each workload
(route n=128, verify n=10, verify n=16) is in every round, so peak memory
is the same on every run.

A unit is one request, or a request that writes a file followed by the
request that reads it back. Arguments refer to the run's scratch directory
as "{tmp}", so the list itself is independent of where it runs and the same
seed gives a byte-identical list.

Each request carries the expectation its output is checked against; see
checks.py. A request whose expected answer the program is known to get
wrong carries `known_defect`: it stays in the mix and counts as failed.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("compile", "verify-matrix", "verify-states")

WRAPPED_DEFECT = "verify --in knows only the Rx(pi) reference; wrapped-basis files FAIL"
BARENCO_DEFECT = "verify --in knows only the Rx(pi) reference; barenco files FAIL"


def _req(argv: list, **expect) -> dict:
    defect = expect.pop("known_defect", None)
    req = {"argv": [str(a) for a in argv], "expect": expect}
    if defect is not None:
        req["known_defect"] = defect
    return req


def _near(rng: random.Random, centre: int, spread: int) -> int:
    return centre + rng.randint(-spread, spread)


# Every round has 20 requests in five cost tiers, cheapest first: 7 low,
# 6 alike (the p50 block, 35-65 % of the sorted latencies), 3 mid, 3 alike
# (the p90 block, 80-95 %) and 1 top. p50 and p90 then fall inside a block
# of identical requests rather than on the edge between two request kinds,
# and seed-drawn parameters only move requests within their tier.


def _synth(n: int, f: str, construction: str = "paper", basis: str = "hat") -> dict:
    extra = [] if construction == "paper" else ["--construction", construction]
    extra += [] if basis == "hat" else ["--basis", basis]
    return _req(["synth", "--n", n, *extra, "--out", f], kind="synth", n=n,
                construction=construction, basis=basis, file=f)


def _route(n: int, f: str, src: str | None = None) -> dict:
    argv = ["route", "--in", src] if src else ["route", "--n", n]
    return _req([*argv, "--out", f], kind="route", n=n, file=f)


def _schedule(n: int) -> dict:
    return _req(["schedule", "--n", n], kind="schedule", n=n)


def _bench(rng: random.Random) -> dict:
    lo = rng.randint(4, 6)
    hi = lo + rng.randint(4, 6)
    return _req(["bench", "--n-min", lo, "--n-max", hi, "--arch", "both"],
                kind="bench", n_min=lo, n_max=hi)


def _compile_round(rng: random.Random) -> list[list[dict]]:
    n_in = _near(rng, 40, 2)
    return [
        # low: synth for route --in, bench x2, baseline x2, schedule, synth
        # mid: the route --in, synth, schedule
        [_synth(n_in, "{tmp}/flat.json"),
         _route(n_in, "{tmp}/flat_routed.json", "{tmp}/flat.json")],
        [_bench(rng)],
        [_bench(rng)],
        [_synth(rng.randint(6, 8), "{tmp}/barenco.json", "barenco")],
        [_synth(rng.randint(6, 8), "{tmp}/recursive.json", "recursive")],
        [_schedule(_near(rng, 24, 8))],
        [_synth(_near(rng, 20, 4), "{tmp}/small.json")],
        [_synth(_near(rng, 88, 4), "{tmp}/large.json")],
        [_schedule(_near(rng, 120, 4))],
        *([_route(24, "{tmp}/route24.json")] for _ in range(6)),  # p50
        *([_route(56, "{tmp}/route56.json")] for _ in range(3)),  # p90
        [_route(128, "{tmp}/route128.json")],  # top
    ]


def _verify(n: int, stage: str = "all") -> dict:
    stages = ["synth", "sched", "route"] if stage == "all" else [stage]
    return _req(["verify", "--n", n, "--stage", stage], kind="verify", stages=stages,
                method="matrix")


def _synth_verify(n: int, f: str, construction: str = "paper", basis: str = "hat") -> list[dict]:
    defect = BARENCO_DEFECT if construction == "barenco" else (
        WRAPPED_DEFECT if basis == "wrapped" else None)
    return [_synth(n, f, construction, basis),
            _req(["verify", "--in", f], kind="verify", stages=["file"], method="matrix",
                 known_defect=defect)]


def _verify_matrix_round(rng: random.Random) -> list[list[dict]]:
    return [
        # low: the synth of every pair, the paper and wrapped verify --in,
        # one small verify; mid: the barenco verify --in x2, verify n=9 synth
        _synth_verify(rng.randint(5, 8), "{tmp}/paper.json"),
        _synth_verify(rng.randint(5, 8), "{tmp}/wrapped.json", basis="wrapped"),
        _synth_verify(8, "{tmp}/barenco0.json", "barenco"),
        _synth_verify(8, "{tmp}/barenco1.json", "barenco"),
        [_verify(rng.randint(5, 7))],
        [_verify(9, "synth")],
        *([_verify(8)] for _ in range(6)),  # p50
        *([_verify(9)] for _ in range(3)),  # p90
        [_verify(10)],  # top: the 16 MB unitary
    ]


def _verify_random(n: int, stage: str, trials: int, rng: random.Random) -> list[dict]:
    s = rng.randrange(1 << 31)
    return [_req(["verify", "--n", n, "--stage", stage, "--mode", "random",
                  "--trials", trials, "--seed", s],
                 kind="verify", stages=[stage], method="%d random states" % trials)]


def _verify_states_round(rng: random.Random) -> list[list[dict]]:
    def stage() -> str:
        return rng.choice(("synth", "route"))

    return [
        *(_verify_random(13, stage(), rng.randint(4, 8), rng) for _ in range(6)),  # low
        _verify_random(14, "synth", 4, rng),  # low
        *(_verify_random(13, "synth", 16, rng) for _ in range(6)),  # p50
        _verify_random(14, "synth", 8, rng),  # mid
        _verify_random(15, "synth", 4, rng),  # mid
        _verify_random(14, "route", 8, rng),  # mid
        *(_verify_random(15, "route", 4, rng) for _ in range(3)),  # p90
        _verify_random(16, "synth", 4, rng),  # top: 16 qubits
    ]


_ROUNDS = {
    "compile": _compile_round,
    "verify-matrix": _verify_matrix_round,
    "verify-states": _verify_states_round,
}


def rounds(workload: str, seed: int, count: int) -> list[list[list[dict]]]:
    """The first `count` rounds of a workload; each round is a list of units."""
    make = _ROUNDS[workload]
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for _ in range(count):
        units = make(rng)
        rng.shuffle(units)
        out.append(units)
    return out


def serialize(plan: list) -> bytes:
    return json.dumps(plan, sort_keys=True, separators=(",", ":")).encode()
