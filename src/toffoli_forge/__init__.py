"""Linear-depth n-qubit Toffoli circuits over 2-qubit controlled x-rotations:
synthesis, depth scheduling, nearest-neighbor line routing, and a dense
simulation oracle to verify every stage."""

from .baseline import barenco_toffoli
from .ir import (
    Circuit,
    DyadicAngle,
    Gate,
    Permutation,
    circuit_from_json,
    circuit_to_json,
    cprx,
    crx,
    dyadic,
    swap,
)
from .route import RoutedCircuit, route_lnn, routed_metrics
from .sched import Schedule, asap_schedule, commutes, depth, group_depths
from .sim import (
    apply,
    apply_many,
    op_norm_error,
    reference_unitary,
    unitary_of,
)
from .synth import (
    basis_conjugate,
    gate_count,
    synth_approx,
    synth_recursive,
    synth_toffoli,
)

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "DyadicAngle",
    "Gate",
    "Permutation",
    "RoutedCircuit",
    "Schedule",
    "apply",
    "apply_many",
    "asap_schedule",
    "barenco_toffoli",
    "basis_conjugate",
    "circuit_from_json",
    "circuit_to_json",
    "commutes",
    "cprx",
    "crx",
    "depth",
    "dyadic",
    "gate_count",
    "group_depths",
    "op_norm_error",
    "reference_unitary",
    "route_lnn",
    "routed_metrics",
    "swap",
    "synth_approx",
    "synth_recursive",
    "synth_toffoli",
    "unitary_of",
    "__version__",
]
