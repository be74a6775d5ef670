"""Bit-string commitment through small phase-fingerprint states.

A party commits an n-bit value by encoding it with a binary linear code of
length m = c*n (c > 1) and handing over the log2(m)-qubit state

    |tau_x> = (1/sqrt(m)) * sum_j (-1)^(E(x)_j) |j>        j = 0..m-1

where E is the code's encoding.  When m is not a power of two the register
is sized up to the next power and the padded positions carry no amplitude,
so overlaps follow the exact law

    <tau_x | tau_y> = 1 - 2 * dist(E(x), E(y)) / m.

Unveiling is classical; the receiver verifies by projecting the held
fingerprint onto the state matching the unveiled value.  An honest unveil
projects onto itself (accept probability exactly 1); a cheating unveil is
accepted only with probability (1 - 2*dist/m)^2, which the code's distance
window pins below (1 - 2*delta_code)^2.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .statevec import StateVector

PHASE_COMMITTED = "committed"
PHASE_UNVEILED = "unveiled"
PHASE_ACCEPT = "verified-accept"
PHASE_REJECT = "verified-reject"

CODE_SEARCH_TRIES = 20000  # random generators drawn before make_random_code gives up


def _bits(value: int, n: int) -> np.ndarray:
    if not 0 <= value < 1 << n:
        raise ValueError(f"value {value} does not fit {n} bits")
    return np.array([(value >> k) & 1 for k in range(n)], dtype=np.uint8)


@functools.cache
def _nonzero_messages(n: int) -> np.ndarray:
    """The 2**n - 1 nonzero n-bit messages as rows (bit k in column k), built
    once per n and shared read-only by every code search at that n."""
    values = np.arange(1, 1 << n)
    msgs = ((values[:, None] >> np.arange(n)) & 1).astype(np.uint8)
    msgs.flags.writeable = False
    return msgs


def _codeword_weights(g: np.ndarray) -> np.ndarray:
    """Hamming weights of all nonzero codewords of the 0/1 generator ``g``
    (n rows), enumerated exhaustively, so n <= 16."""
    n = g.shape[0]
    if n > 16:
        raise ValueError("exhaustive weight enumeration limited to n <= 16")
    return ((_nonzero_messages(n) @ g) % 2).sum(axis=1)


def _in_window(weights: np.ndarray, m: int, delta: float) -> bool:
    """True if every weight lies in [delta*m, (1-delta)*m]."""
    return bool(weights.min() >= math.ceil(delta * m)
                and weights.max() <= math.floor((1.0 - delta) * m))


@dataclass(frozen=True, eq=False)
class CodeParams:
    """A binary linear code used to fingerprint n-bit messages.

    ``delta_code`` is the declared relative-distance window: every pair of
    distinct codewords differs in at least delta_code*m and at most
    (1-delta_code)*m positions.  The upper bound matters as much as the
    lower one, since a cheating-unveil accept probability (1 - 2*dist/m)^2
    grows again once distances pass m/2.
    """

    n: int
    m: int
    generator: np.ndarray  # shape (n, m) over GF(2)
    delta_code: float

    def __post_init__(self):
        g = np.asarray(self.generator, dtype=np.uint8) % 2
        object.__setattr__(self, "generator", g)
        if g.shape != (self.n, self.m):
            raise ValueError(f"generator shape {g.shape} != ({self.n}, {self.m})")
        if self.m <= self.n:
            raise ValueError("code must expand the message (m > n)")
        if not 0.0 < self.delta_code < 0.5:
            raise ValueError("delta_code must lie in (0, 1/2)")

    def encode(self, value: int) -> np.ndarray:
        return (_bits(value, self.n) @ self.generator) % 2

    @property
    def num_fingerprint_qubits(self) -> int:
        return max(1, math.ceil(math.log2(self.m)))

    def codeword_weights(self) -> np.ndarray:
        """Hamming weights of all nonzero codewords (exhaustive, n <= 16)."""
        return _codeword_weights(self.generator)

    def check_distance_window(self) -> bool:
        """True if all pairwise distances lie in [delta*m, (1-delta)*m].

        For a linear code pairwise distances are codeword weights, so the
        check is exhaustive over the nonzero codewords.
        """
        return _in_window(self.codeword_weights(), self.m, self.delta_code)


def check_expansion(c: float) -> None:
    """Refuse an expansion constant c = m/n that is not a finite number
    above 1 (NaN included), before any length is computed from it."""
    if not 1.0 < c < math.inf:
        raise ValueError(f"expansion constant c must be a finite number above 1, got {c!r}")


def make_random_code(n: int, c: float = 2.0, delta: float = 0.25, seed: int = 0) -> CodeParams:
    """Seeded random generator matrix, resampled until the distance window
    holds, at most ``CODE_SEARCH_TRIES`` times.

    The window also guarantees injectivity (no nonzero message may encode to
    weight zero).  Deterministic for a fixed seed.
    """
    check_expansion(c)
    m = int(round(c * n))
    if m <= n:
        raise ValueError(f"m = round(c*n) = {m} does not expand {n} message bits")
    if not 0.0 < delta < 0.5:
        raise ValueError("delta_code must lie in (0, 1/2)")
    rng = np.random.default_rng(seed)
    for _ in range(CODE_SEARCH_TRIES):
        g = rng.integers(0, 2, size=(n, m), dtype=np.uint8)
        if _in_window(_codeword_weights(g), m, delta):
            return CodeParams(n=n, m=m, generator=g, delta_code=delta)
    raise RuntimeError(f"no [{m},{n}] code with distance window {delta} in {CODE_SEARCH_TRIES} tries")


def parity_repetition_code(n: int) -> CodeParams:
    """Deterministic fallback code with m = 2n: the message followed by its
    cyclic parity stream p_j = x_j XOR x_(j+1 mod n).

    Reproducible without a seed (useful for documentation examples).  Its
    minimum weight stays at 3 once n grows, so the declared distance floor
    is taken from the measured weights (capped at 0.25) rather than assumed.
    """
    m = 2 * n
    g = np.zeros((n, m), dtype=np.uint8)
    for i in range(n):
        g[i, i] = 1
        g[i, n + i] ^= 1
        g[i, n + (i - 1) % n] ^= 1  # at n=1 both XORs cancel: the parity bit vanishes
    w = _codeword_weights(g)
    balanced = min(int(w.min()), m - int(w.max())) / m
    code = CodeParams(n=n, m=m, generator=g, delta_code=min(0.25, balanced))
    if not code.check_distance_window():
        raise RuntimeError(f"parity repetition code fails its distance window at n={n}")
    return code


# ---------------------------------------------------------------------------
# commit / unveil / verify


def _fingerprint_signs(value: int, code: CodeParams) -> np.ndarray:
    """The signs ``(-1)**E(value)_j`` of the m codeword positions; |tau_value>
    carries them over sqrt(m), and zero on the padded positions."""
    return 1.0 - 2.0 * code.encode(value)


def fingerprint_state(value: int, code: CodeParams) -> StateVector:
    """The phase-fingerprint state |tau_value> for this code."""
    q = code.num_fingerprint_qubits
    amps = np.zeros(1 << q, dtype=np.complex128)
    amps[: code.m] = _fingerprint_signs(value, code) / math.sqrt(code.m)
    return StateVector(q, amps)


@dataclass
class CommitmentRecord:
    """Receiver-side view of one commitment.

    Holds the fingerprint handed over at commit time; the committed value
    itself is deliberately absent (the record knows only what a receiver
    would know).  The phase only moves forward:
    committed -> unveiled -> verified-accept | verified-reject.
    """

    fingerprint: StateVector
    code: CodeParams
    phase: str = PHASE_COMMITTED


def commit(value: int, code: CodeParams) -> CommitmentRecord:
    """Commit an n-bit value; returns the record the receiver holds."""
    return CommitmentRecord(fingerprint=fingerprint_state(value, code), code=code)


def accept_probability(record: CommitmentRecord, unveiled: int) -> float:
    """Probability that projecting onto |tau_unveiled> yields eigenvalue 1.

    The overlap ``<tau_unveiled|held>`` is the held fingerprint's first m
    amplitudes summed with the signs ``(-1)**E(unveiled)_j`` of the unveiled
    codeword, over sqrt(m); no state is built for the unveiled value.
    Probabilities within 1e-9 of 0 or 1 snap exactly (honest unveils accept
    with probability exactly 1, orthogonal fingerprints never).
    """
    code = record.code
    held = record.fingerprint.amplitudes[: code.m]
    overlap = np.dot(_fingerprint_signs(unveiled, code), held) / math.sqrt(code.m)
    p = min(1.0, max(0.0, abs(overlap) ** 2))
    if p > 1.0 - 1e-9:
        return 1.0
    if p < 1e-9:
        return 0.0
    return p


def verify(record: CommitmentRecord, unveiled: int, rng=0) -> bool:
    """Projective check of an unveiled value against the held fingerprint.

    Mutates the record's phase; a record can be unveiled and verified only
    once.  ``rng`` is an integer seed or numpy Generator driving the
    measurement outcome.  A Generator always advances by one draw; a seed
    builds no generator when the probability is exactly 0 or 1, since a
    uniform draw in [0, 1) cannot change a certain outcome.
    """
    if record.phase != PHASE_COMMITTED:
        raise RuntimeError(f"record already {record.phase}; cannot unveil twice")
    record.phase = PHASE_UNVEILED
    p = accept_probability(record, unveiled)
    if p in (0.0, 1.0) and isinstance(rng, numbers.Integral) and rng >= 0:
        accepted = p == 1.0
    else:
        accepted = bool(np.random.default_rng(rng).random() < p)  # a Generator is used as it is
    record.phase = PHASE_ACCEPT if accepted else PHASE_REJECT
    return accepted


def empirical_accept_rate(committed: int, unveiled: int, code: CodeParams,
                          trials: int, seed: int = 0) -> float:
    """Accept frequency over repeated commit/unveil/verify rounds.

    Each trial is an independent projective measurement of a fresh
    commitment of ``committed`` checked against ``unveiled``; the rounds are
    iid, so they are sampled in one vectorized draw.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    p = accept_probability(commit(committed, code), unveiled)
    gen = np.random.default_rng(seed)
    return float(np.mean(gen.random(trials) < p))


def cheat_detection_probability(n: int, m: float) -> float:
    """Chance that stealing all n committed bits from an m-bit commitment fails.

    1 - 2^-(m - log2 n); requires m > log2(n).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    log_n = math.log2(n)
    if m <= log_n:
        raise ValueError(f"m = {m} must exceed log2(n) = {log_n}")
    return 1.0 - 2.0 ** (-(m - log_n))
