"""Linear-depth n-qubit Toffoli circuits over 2-qubit controlled x-rotations:
synthesis, depth scheduling, nearest-neighbor line routing, and a dense
simulation oracle to verify every stage.

The top level re-exports the names the README's Library example uses; the
rest lives in its module (ir, synth, baseline, sched, route, sim, cli)."""

from .route import route_lnn, routed_metrics
from .sched import asap_schedule, depth
from .sim import op_norm_error, reference_unitary, unitary_of
from .synth import synth_approx, synth_toffoli

__version__ = "0.1.0"

__all__ = [
    "asap_schedule",
    "depth",
    "op_norm_error",
    "reference_unitary",
    "route_lnn",
    "routed_metrics",
    "synth_approx",
    "synth_toffoli",
    "unitary_of",
    "__version__",
]
