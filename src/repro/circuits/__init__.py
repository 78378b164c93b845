"""Circuit IR: operations, circuits, layers, encoders, ansatze, transpiler."""

from repro.circuits.amplitude import (
    encode_amplitude,
    encode_amplitude16,
    multiplexed_ry,
)
from repro.circuits.ansatz import (
    ARCHITECTURES,
    QnnArchitecture,
    get_architecture,
)
from repro.circuits.batch import CircuitBatch, group_by_structure
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.drawer import draw
from repro.circuits.fingerprint import circuit_fingerprint
from repro.circuits.encoders import (
    ENCODERS,
    encode_image16,
    encode_vowel10,
    get_encoder,
)
from repro.circuits.layers import (
    LAYER_BUILDERS,
    build_layered_ansatz,
    chain_pairs,
    ring_pairs,
)
from repro.circuits.operation import BoundOp, OpTemplate
from repro.circuits.sweep import Sweep, SweepTemplate
from repro.circuits.transpile import (
    BASIS_GATES,
    CX_COST,
    TranspileResult,
    decompose_to_basis,
    route,
    transpile,
)

__all__ = [
    "ARCHITECTURES",
    "BASIS_GATES",
    "BoundOp",
    "CX_COST",
    "CircuitBatch",
    "ENCODERS",
    "LAYER_BUILDERS",
    "OpTemplate",
    "QnnArchitecture",
    "QuantumCircuit",
    "Sweep",
    "SweepTemplate",
    "TranspileResult",
    "build_layered_ansatz",
    "chain_pairs",
    "circuit_fingerprint",
    "draw",
    "encode_amplitude",
    "encode_amplitude16",
    "decompose_to_basis",
    "encode_image16",
    "encode_vowel10",
    "get_architecture",
    "get_encoder",
    "group_by_structure",
    "multiplexed_ry",
    "ring_pairs",
    "route",
    "transpile",
]
