"""Quantitative checks around the protocol: information leakage, message
costs, and commitment cheat detection.

* ``holevo_bound`` bounds what any measurement can learn from a price-
  loaded state: the announced state is an equal mixture of N orthogonal
  basis projectors from the receiver's point of view, so the accessible
  information is capped at log2(N) bits -- one (index, price) pair.
* ``cost_table`` compares total exchanged qubits+cbits against the two
  all-classical baselines C05 (2*N*d cbits) and A07 (4*N*d cbits); the
  quantum protocol needs 4*ceil(log2(N+1)) + 2*d, logarithmic in N.
* ``detection_curve`` tabulates 1 - 2^-(m - log2 n), the probability a
  commitment-stealing cheater is caught.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .circuits import PriceScenario, prepare_announced_state
from .commitment import cheat_detection_probability, check_expansion
from .statevec import CapacityError, von_neumann_entropy

DENSITY_MATRIX_QUBIT_LIMIT = 10  # entropy needs eigenvalues; keep it desk-sized


# ---------------------------------------------------------------------------
# cost models


def q3pen_cost(N: int, d: int) -> int:
    """Total qubits+cbits exchanged: 2(n+d) qubits and 2n cbits."""
    n = N.bit_length()
    return 4 * n + 2 * d


def c05_cost(N: int, d: int) -> int:
    return 2 * N * d


def a07_cost(N: int, d: int) -> int:
    return 4 * N * d


def cost_table(n_values: Iterable[int], d: int, split_units: bool = False) -> list[tuple]:
    """Rows (N, q3pen, c05, a07); with split_units also the qubit/cbit split.

    The headline columns mix qubits and cbits into one total to stay
    comparable with the all-classical baselines; ``split_units`` appends
    q3pen_qubits and q3pen_cbits columns for readers who want them apart.
    """
    if d < 1:
        raise ValueError("price width d must be >= 1")
    rows = []
    for N in n_values:
        N = int(N)
        if N < 1:
            raise ValueError("product count N must be >= 1")
        row = (N, q3pen_cost(N, d), c05_cost(N, d), a07_cost(N, d))
        if split_units:
            n = N.bit_length()
            row = row + (2 * (n + d), 2 * n)
        rows.append(row)
    return rows


def cost_table_csv(n_values: Iterable[int], d: int, split_units: bool = False) -> str:
    header = "N,q3pen,c05,a07"
    if split_units:
        header += ",q3pen_qubits,q3pen_cbits"
    lines = [header]
    for row in cost_table(n_values, d, split_units):
        lines.append(",".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# detection curve


def detection_curve(c: float, n_values: Iterable[int]) -> list[tuple[int, float, float]]:
    """Rows (n, m, detection probability) for commitment length m = c*n."""
    check_expansion(c)
    rows = []
    for n in n_values:
        n = int(n)
        if n < 1:
            raise ValueError("message length n must be >= 1")
        m = c * n
        rows.append((n, m, cheat_detection_probability(n, m)))
    return rows


def detection_curve_csv(c: float, n_values: Iterable[int]) -> str:
    lines = ["n,m,p_detect"]
    for n, m, p in detection_curve(c, n_values):
        lines.append(f"{n},{m:g},{p:.6f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the leakage bound


def holevo_bound(scenario: PriceScenario, owner: str = "alice") -> float:
    """Accessible-information cap, in bits, on the announced state.

    Computes S(rho) - (1/N) sum_i S(rho_i) term by term: the mixture entropy
    minus the average member entropy (zero for pure members, but evaluated
    rather than assumed).  The members are the projectors ``|x><x|`` onto
    the basis indices x of the Step-1 support (``prepare_announced_state``),
    each with weight 1/N.  Distinct index values make them orthogonal, so the
    result equals log2(N) up to eigensolver precision.
    """
    state = prepare_announced_state(scenario, owner)
    if state.num_qubits > DENSITY_MATRIX_QUBIT_LIMIT:
        raise CapacityError(
            f"density matrix would span {state.num_qubits} qubits; "
            f"limit is {DENSITY_MATRIX_QUBIT_LIMIT}"
        )
    dim = 1 << state.num_qubits
    p = 1.0 / scenario.N
    rho = np.zeros((dim, dim), dtype=np.complex128)
    member_entropy = 0.0
    for index in state.indices.tolist():
        rho_k = np.zeros((dim, dim), dtype=np.complex128)
        rho_k[index, index] = 1.0
        member_entropy += p * von_neumann_entropy(rho_k)
        rho += p * rho_k
    return von_neumann_entropy(rho) - member_entropy
