"""Desk-scale simulator and harness for a quantum privacy-preserving price
negotiation protocol: price-loading oracles, a reversible comparator,
counting by phase estimation, fingerprint bit-string commitment, and a
six-step two-party negotiation with full message-cost accounting.
"""

from .analysis import cost_table, detection_curve, holevo_bound
from .circuits import (
    PriceScenario,
    brute_force_count,
    build_comparator,
    classical_f,
    comparison_layout,
)
from .commitment import (
    CodeParams,
    CommitmentRecord,
    cheat_detection_probability,
    commit,
    make_random_code,
    parity_repetition_code,
    verify,
)
from .counting import (
    CountEstimate,
    CountingParams,
    build_state_preparation,
    error_bound,
    quantum_count,
)
from .protocol import (
    NegotiationTranscript,
    measurement_attack_statistics,
    run_negotiation,
    run_with_adversary,
    transcript_costs,
)
from .statevec import (
    CapacityError,
    Gate,
    RegisterLayout,
    Segment,
    StateVector,
    inner_product,
    prepare_basis,
    von_neumann_entropy,
)

__version__ = "0.1.0"
