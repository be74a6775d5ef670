"""State-vector simulation: dense states and states given as their
support, multi-controlled NOT gates, inverse-CDF sampling, inner products,
and density-matrix entropy.

Conventions used throughout the package:

* Qubit 0 is the least significant bit of a basis-state index.  The basis
  state ``|x>`` lives at position ``x`` of the amplitude array, and a
  register segment ``[offset, offset + width)`` holds the integer value
  ``(x >> offset) & (2**width - 1)``.
* Input validation uses a tolerance of 1e-8 (``ATOL_INPUT``), checked in
  one place, ``check_tolerance``, which refuses NaN as well.  A NOT gate
  permutes amplitudes exactly, so gates and circuits need no tolerance of
  their own.

This is a desk-scale exact simulator; there is no mixed-state evolution
and no noise model.  A ``StateVector`` holds all ``2**num_qubits``
amplitudes, so it suits small registers; a ``SupportState`` holds only its
nonzero ones, and its basis indices are ``np.intp``, so a layout may span
at most ``INDEX_BITS`` (63) qubits.  All operations either return
fresh StateVector values or work on caller-owned arrays; nothing here locks
or shares mutable state, so distinct states can be processed concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

import numpy as np

ATOL_INPUT = 1e-8

INDEX_BITS = np.iinfo(np.intp).bits - 1  # basis indices are non-negative np.intp


class CapacityError(RuntimeError):
    """A requested simulation exceeds what the simulator can represent."""


def check_tolerance(deviation: float, message: str) -> None:
    """Raise ``ValueError(message)`` unless ``deviation`` is at most
    ``ATOL_INPUT``.  NaN compares false to everything, so it is refused."""
    if not deviation <= ATOL_INPUT:
        raise ValueError(message)


# ---------------------------------------------------------------------------
# register bookkeeping


@dataclass(frozen=True)
class Segment:
    """A named contiguous block of qubits."""

    name: str
    offset: int
    width: int

    def __post_init__(self):
        if self.offset < 0 or self.width < 1:
            raise ValueError(f"bad segment {self.name}: offset={self.offset} width={self.width}")

    def value(self, basis_index: int) -> int:
        """Integer held by this segment within a basis-state index."""
        return (basis_index >> self.offset) & ((1 << self.width) - 1)


class RegisterLayout:
    """Named, disjoint qubit segments packed upward from qubit 0.

    Built from ``(name, width)`` pairs; offsets are assigned cumulatively,
    which makes the segments disjoint and covering by construction.  A
    layout wider than ``INDEX_BITS`` qubits raises ``CapacityError``: its
    basis indices would not fit an ``np.intp``.
    """

    def __init__(self, *segments: tuple[str, int]):
        if not segments:
            raise ValueError("layout needs at least one segment")
        offset = 0
        self._segments: dict[str, Segment] = {}
        for name, width in segments:
            if name in self._segments:
                raise ValueError(f"duplicate segment name {name!r}")
            self._segments[name] = Segment(name, offset, width)
            offset += width
        if offset > INDEX_BITS:
            raise CapacityError(f"a {offset}-qubit layout does not fit a {INDEX_BITS}-bit basis index")
        self.num_qubits = offset

    def __getitem__(self, name: str) -> Segment:
        return self._segments[name]

    def __contains__(self, name: str) -> bool:
        return name in self._segments

    def __repr__(self):
        parts = ", ".join(f"{s.name}[{s.offset}:{s.offset + s.width}]" for s in self._segments.values())
        return f"RegisterLayout({parts})"


# ---------------------------------------------------------------------------
# states


class StateVector:
    """Normalized complex amplitudes over the 2**num_qubits basis states."""

    __slots__ = ("num_qubits", "amplitudes")

    def __init__(self, num_qubits: int, amplitudes: np.ndarray):
        amplitudes = np.asarray(amplitudes, dtype=np.complex128)
        if amplitudes.shape != (1 << num_qubits,):
            raise ValueError(
                f"expected {1 << num_qubits} amplitudes for {num_qubits} qubits, "
                f"got shape {amplitudes.shape}"
            )
        norm = float(np.linalg.norm(amplitudes))
        check_tolerance(abs(norm - 1.0),
                        f"state norm {norm} deviates from 1 by more than {ATOL_INPUT}")
        self.num_qubits = num_qubits
        self.amplitudes = amplitudes

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self.amplitudes.copy())

    def __repr__(self):
        kept = [
            f"{a:.4g}|{i:0{self.num_qubits}b}>"
            for i, a in enumerate(self.amplitudes)
            if abs(a) > 1e-6
        ]
        if len(kept) > 8:
            kept = kept[:8] + ["..."]
        return " + ".join(kept) or "0"


class SupportState(NamedTuple):
    """A ``num_qubits``-qubit state as its support: basis indices and their
    amplitudes; every other amplitude is zero.  The indices are in no fixed
    order unless the producer says so."""

    num_qubits: int
    indices: np.ndarray
    amplitudes: np.ndarray


def prepare_basis(num_qubits: int, basis_index: int) -> StateVector:
    """Computational basis state |basis_index> on num_qubits qubits."""
    dim = 1 << num_qubits
    if not 0 <= basis_index < dim:
        raise ValueError(f"basis index {basis_index} out of range for {num_qubits} qubits")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[basis_index] = 1.0
    return StateVector(num_qubits, amps)


# ---------------------------------------------------------------------------
# gates


class Gate(tuple):
    """A NOT on one target qubit, fired by polarity-tagged controls.

    ``controls`` is a tuple of (qubit, polarity) pairs; polarity 1 means the
    gate fires when that qubit is |1> (a solid control), polarity 0 when it
    is |0> (a negative control).  Every circuit in the package is built from
    these, so each is a permutation of basis states and a gate is its own
    inverse.  ``mask`` and ``value`` are computed once, when the gate is
    built: basis index ``x`` fires the gate iff ``x & mask == value``.

    Build one with ``Gate(target, controls)``; a control given as a bare
    qubit is solid.  The fields are read-only and always agree with
    ``controls``.
    """

    # A tuple subclass and not a NamedTuple, whose ``_make`` and ``_replace``
    # would build a gate whose mask disagrees with its controls.
    __slots__ = ()

    target = property(itemgetter(0))
    controls = property(itemgetter(1))
    mask = property(itemgetter(2))
    value = property(itemgetter(3))

    def __new__(cls, target: int, controls=()):
        if target < 0:
            raise ValueError("qubit indices must be non-negative")
        mask = value = 0
        pairs = []
        for c in controls:
            if isinstance(c, (tuple, list)):
                qubit, polarity = int(c[0]), int(c[1])
            else:
                qubit, polarity = int(c), 1
            if polarity not in (0, 1):
                raise ValueError(f"control polarity must be 0 or 1, got {polarity}")
            if qubit < 0:
                raise ValueError("qubit indices must be non-negative")
            bit = 1 << qubit
            if mask & bit or qubit == target:
                raise ValueError(f"target/control qubits overlap on {qubit}")
            mask |= bit
            value |= polarity << qubit
            pairs.append((qubit, polarity))
        return super().__new__(cls, (target, tuple(pairs), mask, value))

    def __repr__(self):
        return f"Gate({self.target}, {self.controls})"


# ---------------------------------------------------------------------------
# sampling


def sample_outcomes(probs: np.ndarray, uniforms):
    """Inverse-CDF sampling: the outcome for each uniform in [0, 1); ``probs``
    need not be normalized."""
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    return np.searchsorted(cdf, uniforms, side="right")


# ---------------------------------------------------------------------------
# inner products and entropy


def inner_product(s1: StateVector, s2: StateVector) -> complex:
    """<s1|s2> (conjugate-linear in the first argument)."""
    if s1.num_qubits != s2.num_qubits:
        raise ValueError("inner product needs equal qubit counts")
    return complex(np.vdot(s1.amplitudes, s2.amplitudes))


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy -sum(lambda log2 lambda) of a density matrix, in bits.

    Validates hermiticity and unit trace within 1e-8 and tolerates
    eigenvalues down to -1e-10 (clipped to zero); 0*log(0) is taken as 0.
    The eigensolve runs on the principal submatrix of the rows and columns
    holding a nonzero entry, which is exact: the rest is a zero block.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    check_tolerance(np.max(np.abs(rho - rho.conj().T)),
                    "density matrix is not Hermitian within 1e-8")
    trace = complex(np.trace(rho))
    check_tolerance(abs(trace - 1.0), f"density matrix trace {trace} is not 1 within 1e-8")
    nonzero = rho != 0
    support = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
    evals = np.linalg.eigvalsh(rho[np.ix_(support, support)])
    if evals.min() < -1e-10:
        raise ValueError(f"density matrix has negative eigenvalue {evals.min()}")
    evals = evals[evals > 0.0]
    return float(-(evals * np.log2(evals)).sum())
