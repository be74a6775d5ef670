"""Independent oracles shared by the test modules.

The dense-matrix builders here deliberately avoid the simulator's vectorized
application path: they assemble operators column by column from projector
algebra, so agreement between the two is a real check and not a tautology.

The gate-level reference simulator lives here as well: ``apply_gate`` runs
one NOT gate on a full amplitude array and ``gate_images`` runs a gate list
on basis indices, both reading the firing condition from ``gate.controls``
(never from the ``mask``/``value`` the gate computed when it was built,
which ``Circuit.images`` uses), and ``GroverIterate`` runs the counting
iterate on the full ``2**work``-amplitude register.  ``reference_price_gates``
builds, from a price list, the NOT list a price oracle stands for (the
package compiles the list to a table and never builds these gates).
``plane_fft_distribution`` gives the phase-register law from the rows
``Q^k psi`` in the plane of the held state's flagged and unflagged parts,
filled by doubling and transformed by a real-input FFT (the package computes
the law in closed form).  ``dense_state`` expands a state given as its
support into the full register, ``prepare_amplitudes`` builds a dense state
from any amplitudes, and ``measure`` measures one segment of a dense state.  The package's fast
paths are tested against them.
"""

import numpy as np

from q3pen.statevec import Gate, Segment, StateVector, sample_outcomes


def dense_gate_matrix(gate, num_qubits: int) -> np.ndarray:
    """Full 2^q x 2^q permutation matrix of a controlled NOT, built classically."""
    dim = 1 << num_qubits
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for x in range(dim):
        fires = all(((x >> q) & 1) == pol for q, pol in gate.controls)
        mat[x ^ (1 << gate.target) if fires else x, x] = 1.0
    return mat


def dense_circuit_matrix(circuit, num_qubits: int | None = None) -> np.ndarray:
    """Matrix of a whole circuit: later gates multiply from the left."""
    q = circuit.layout.num_qubits if num_qubits is None else num_qubits
    mat = np.eye(1 << q, dtype=np.complex128)
    for gate in circuit.gates:
        mat = dense_gate_matrix(gate, q) @ mat
    return mat


def basis_component(layout, **values) -> int:
    """Basis-state index with the named segments set to the given values."""
    x = 0
    for name, value in values.items():
        seg = layout[name]
        if not 0 <= value < 1 << seg.width:
            raise ValueError(f"{value} does not fit segment {name}")
        x |= value << seg.offset
    return x


def dense_state(state) -> StateVector:
    """The full-register ``StateVector`` of a state given as its support
    (``num_qubits``, ``indices``, ``amplitudes``)."""
    amps = np.zeros(1 << state.num_qubits, dtype=np.complex128)
    amps[state.indices] = state.amplitudes
    return StateVector(state.num_qubits, amps)


def prepare_amplitudes(num_qubits: int, amplitudes) -> StateVector:
    """State with the given amplitudes, renormalized.

    Used to inject superpositions that have no convenient gate construction,
    e.g. a uniform superposition over index values 1..N when N is not a
    power of two.  Raises on an all-zero input.
    """
    amps = np.asarray(amplitudes, dtype=np.complex128)
    if amps.shape != (1 << num_qubits,):
        raise ValueError(f"expected {1 << num_qubits} amplitudes, got shape {amps.shape}")
    if not np.all(np.isfinite(amps.view(np.float64))):
        raise ValueError("amplitudes must be finite")
    norm = float(np.linalg.norm(amps))
    if norm < 1e-12:
        raise ValueError("cannot normalize an all-zero amplitude vector")
    return StateVector(num_qubits, amps / norm)


# ---------------------------------------------------------------------------
# gate-level reference


def _control_mask(gate, dim: int) -> np.ndarray:
    """Boolean mask of basis indices whose target bit is 0 and controls fire."""
    idx = np.arange(dim)
    mask = (idx >> gate.target) & 1 == 0
    for qubit, polarity in gate.controls:
        mask &= ((idx >> qubit) & 1) == polarity
    return mask


def apply_gate_inplace(amplitudes: np.ndarray, gate) -> None:
    """Apply one NOT gate to a raw amplitude array, in place: the amplitudes
    of each firing pair of basis states swap."""
    i0 = np.nonzero(_control_mask(gate, amplitudes.size))[0]
    i1 = i0 | (1 << gate.target)
    amplitudes[i0], amplitudes[i1] = amplitudes[i1], amplitudes[i0]


def reference_price_gates(prices, layout, target):
    """The NOT list a price oracle stands for, built as gates: for each
    product i and each set bit of price_i, in that order, one NOT on that
    target bit whose controls spell out i across the index register."""
    index, tgt = layout["index"], layout[target]
    gates = []
    for i, price in enumerate(prices, start=1):
        controls = tuple((index.offset + j, (i >> j) & 1) for j in range(index.width))
        gates += [Gate(tgt.offset + b, controls) for b in range(tgt.width) if (price >> b) & 1]
    return tuple(gates)


def gate_images(gates, indices) -> np.ndarray:
    """Basis index each input index is sent to, the gates run one by one."""
    x = np.array(indices, dtype=np.int64)
    for gate in gates:
        fires = np.ones(x.shape, dtype=bool)
        for qubit, polarity in gate.controls:
            fires &= ((x >> qubit) & 1) == polarity
        x ^= fires.astype(np.int64) << gate.target
    return x


def apply_gate(state: StateVector, gate) -> StateVector:
    """Return the new state after applying one (controlled) NOT gate."""
    top = max([gate.target] + [q for q, _ in gate.controls])
    if top >= state.num_qubits:
        raise ValueError(f"gate touches qubit {top} but state has {state.num_qubits} qubits")
    amps = state.amplitudes.copy()
    apply_gate_inplace(amps, gate)
    return StateVector(state.num_qubits, amps)


def extend_with_zeros(state: StateVector, extra_qubits: int) -> StateVector:
    """Tensor |0>^extra onto the top (most significant) end of the register."""
    if extra_qubits < 0:
        raise ValueError("extra_qubits must be >= 0")
    if extra_qubits == 0:
        return state.copy()
    amps = np.zeros(state.dim << extra_qubits, dtype=np.complex128)
    amps[: state.dim] = state.amplitudes
    return StateVector(state.num_qubits + extra_qubits, amps)


def _segment_bounds(segment) -> tuple[int, int]:
    if isinstance(segment, Segment):
        return segment.offset, segment.width
    offset, width = segment
    return int(offset), int(width)


def measure(state: StateVector, segment, rng=0) -> tuple[int, StateVector]:
    """Projectively measure one register segment.

    Returns ``(outcome, collapsed_state)`` where outcome is the integer read
    from the segment (qubit ``offset`` is its least significant bit).  The
    outcome is sampled from the marginal distribution of the segment and the
    remaining amplitudes are renormalized.  ``rng`` is an integer seed or a
    numpy Generator; identical seeds give identical outcome sequences.
    """
    offset, width = _segment_bounds(segment)
    if width < 1:
        raise ValueError("cannot measure an empty segment")
    if offset + width > state.num_qubits:
        raise ValueError("segment lies outside the state's qubits")
    gen = np.random.default_rng(rng)  # a Generator is returned as it is

    idx = np.arange(state.dim)
    values = (idx >> offset) & ((1 << width) - 1)
    weights = state.probabilities()
    probs = np.bincount(values, weights=weights, minlength=1 << width)
    outcome = int(sample_outcomes(np.clip(probs, 0.0, None), gen.random()))

    amps = np.where(values == outcome, state.amplitudes, 0.0)
    norm = np.linalg.norm(amps)
    if norm == 0.0:  # numerically impossible outcome; guard anyway
        raise RuntimeError("measurement collapsed to a zero state")
    return outcome, StateVector(state.num_qubits, amps / norm)


def ancillas_clean(circuit, basis_index: int) -> bool:
    """True if a basis input with zeroed ancillas leaves them zeroed."""
    if circuit.ancilla is None:
        return True
    seg = circuit.layout[circuit.ancilla]
    if seg.value(basis_index) != 0:
        raise ValueError("ancillas_clean expects an input with zeroed ancillas")
    dim = 1 << circuit.layout.num_qubits
    amps = np.zeros(dim, dtype=np.complex128)
    amps[basis_index] = 1.0
    circuit.apply_to_array(amps)
    support = np.nonzero(np.abs(amps) > 1e-12)[0]
    return all(seg.value(int(x)) == 0 for x in support)


class GroverIterate:
    """Q = A . S_0 . A^-1 . S_f over a given state preparation, on the full
    ``2**work``-amplitude register."""

    def __init__(self, state_prep, flag_qubit: int):
        for attr in ("apply_to_array", "inverse_to_array", "num_qubits"):
            if not hasattr(state_prep, attr):
                raise ValueError("state preparation must expose an exact inverse")
        if not 0 <= flag_qubit < state_prep.num_qubits:
            raise ValueError(f"flag qubit {flag_qubit} outside the prepared register")
        self.state_prep = state_prep
        self.flag_qubit = flag_qubit
        self.num_qubits = state_prep.num_qubits
        idx = np.arange(1 << self.num_qubits)
        self._flag_sign = np.where((idx >> flag_qubit) & 1, -1.0, 1.0)

    def apply_to_array(self, amps: np.ndarray) -> np.ndarray:
        """Q on a raw amplitude array; returns a new array, ``amps`` is kept."""
        amps = amps * self._flag_sign         # S_f
        amps = self.state_prep.inverse_to_array(amps)
        amps[0] *= -1.0                       # S_0
        return self.state_prep.apply_to_array(amps)

    def apply(self, state: StateVector) -> StateVector:
        if state.num_qubits != self.num_qubits:
            raise ValueError("state size does not match the iterate")
        return StateVector(self.num_qubits, self.apply_to_array(state.amplitudes.copy()))


def plane_fft_distribution(marked_weight: float, t: int) -> np.ndarray:
    """Phase-register outcome probabilities from the joint state's rows.

    ``marked_weight`` is the squared norm of the held state's flagged part
    (M/N for the honest state).  In the plane of its flagged and unflagged
    parts the held state is ``psi = [sqrt(marked_weight), sqrt(1 -
    marked_weight)]`` and the iterate is the 2 x 2 matrix
    ``Q = (I - 2 psi psi^T) . diag(-1, 1)``.  Row k holds ``Q^k psi``, filled
    by doubling (``rows[m:2m] = rows[:m] . Q^m`` with ``Q^m`` squared after
    each step); the inverse QFT on the counting register is an FFT along the
    rows.  The rows are real, so outcomes ``omega`` and ``2**t - omega`` have
    equal mass, and a real-input FFT computes each pair once.
    """
    psi = np.sqrt([marked_weight, 1.0 - marked_weight])
    q = (np.eye(2) - 2.0 * np.outer(psi, psi)) * [-1.0, 1.0]
    # rows hold Q^k psi as row vectors, so they multiply by Q transposed
    power = q.T
    rows = np.empty((1 << t, 2))
    rows[0] = psi
    for k in range(t):
        m = 1 << k
        rows[m : 2 * m] = rows[:m] @ power  # rows m..2m-1 from rows 0..m-1
        power = power @ power
    # omega = 0 .. 2**(t-1), then the mirror
    half = np.fft.rfft(rows, axis=0, norm="forward").view(np.float64)  # (re, im) x 2 per row
    h = len(half) - 1  # 2**(t-1)
    probs = np.empty(1 << t)
    probs[: h + 1] = np.einsum("ij,ij->i", half, half)
    probs[h + 1 :] = probs[h - 1 : 0 : -1]  # p[omega] = p[2**t - omega]
    return probs / probs.sum()
