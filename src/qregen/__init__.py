"""Entanglement-assisted exact-repair regenerating codes at desk scale.

Encode a file across n nodes with a product-matrix code over GF(p),
retrieve it from any k nodes, and regenerate a failed node exactly from
d helpers by classically simulating CSS stabilizer syndrome extraction.
At the simultaneous optimum both the per-node storage and the repair
download equal B/k.
"""

from .css import RepairCSS, build_repair_css, check_dual_containment, grs_dual_weights
from .gf import GF
from .matrix import Mat, vandermonde, vandermonde_inv
from .pmcode import (
    SystemParams,
    encode_file,
    make_params,
    pack_file,
    retrieve,
    retrieve_file,
    unpack_file,
)
from .repair import (
    RepairTranscript,
    bandwidth_report,
    helper_encode,
    run_repair,
)
from .rng import SplitMix64
from .stabilizer import (
    StabGroup,
    prepare_codespace,
    syndrome_linear,
    syndrome_statevector,
    syndrome_symplectic,
)
from .tradeoff import (
    TradeoffPoint,
    classical_msr_bandwidth,
    optimal_point,
    tradeoff_table,
)

__version__ = "0.1.0"

__all__ = [
    "GF",
    "Mat",
    "RepairCSS",
    "RepairTranscript",
    "SplitMix64",
    "StabGroup",
    "SystemParams",
    "TradeoffPoint",
    "bandwidth_report",
    "build_repair_css",
    "check_dual_containment",
    "classical_msr_bandwidth",
    "encode_file",
    "grs_dual_weights",
    "helper_encode",
    "make_params",
    "optimal_point",
    "pack_file",
    "prepare_codespace",
    "retrieve",
    "retrieve_file",
    "run_repair",
    "syndrome_linear",
    "syndrome_statevector",
    "syndrome_symplectic",
    "tradeoff_table",
    "unpack_file",
    "vandermonde",
    "vandermonde_inv",
]
