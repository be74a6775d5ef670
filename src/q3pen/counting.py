"""Counting marked items by phase estimation on the search iterate.

The count of products whose comparison flag is 1 is estimated without
measuring the flag directly.  With ``A`` the unitary that prepares the
comparison-ready state ``psi = A|0...0>`` and ``S_f``/``S_0`` the sign flips
on flag-set components and on the all-zeros state, the iterate

    Q = A . S_0 . A^-1 . S_f

acts on the span of the marked and unmarked components as a reflection
composed with a rotation by 2*theta, where sin^2(theta) = M/N.  Its
eigenphases are therefore pi +/- 2*theta, and a phase register outcome
``omega`` (t qubits) converts as

    theta_hat = |pi - 2*pi*omega / 2**t|        (the 2*theta estimate)
    m_hat     = round(N * sin^2(theta_hat / 2))

This convention is pinned by tests against brute-force counts rather than
trusted from any single statement of the algorithm.  Outcomes ``omega`` and
``2**t - omega`` fold to the same estimate.

``A . S_0 . A^-1`` is the reflection ``I - 2|psi><psi|`` and ``S_f``
negates the flagged part of a state, so ``Q`` never leaves the plane
spanned by the flagged and unflagged parts of ``psi`` (Brassard, Hoyer,
Mosca and Tapp, "Quantum amplitude amplification and estimation", 2000,
section 2).  With those two parts normalised as its basis, ``psi`` is the
real vector ``[||flagged||, ||unflagged||]`` and ``Q`` is the 2 x 2 matrix
``(I - 2 psi psi^T) . diag(-1, 1)``.  The held state is a
``statevec.SupportState`` (basis indices on the comparison layout, and
their amplitudes); the protocol passes the state a party holds after
Steps 2-3, and without one ``honest_held_state`` runs those same steps
(``circuits.prepare_announced_state``, ``load_received_state`` and
``write_comparison_flag``) honestly.  Either way the flag bits are read
from the flag oracle's gate-level images, not from the classical
comparison.  In that plane ``Q`` is a rotation by ``pi - 2*theta``, and the
real ``psi`` has weight 1/2 on each of its two eigenvectors, so the
outcome law is two half Fejer kernels, ``F(omega - x)/2 + F(omega + x)/2``
with ``x = 2**t (pi - 2*theta) / (2*pi)`` and
``F(delta) = sin^2(pi delta) / (2**t sin(pi delta / 2**t))^2`` (Cleve,
Ekert, Macchiavello and Mosca, "Quantum algorithms revisited", Proc. R.
Soc. A 454, 1998): exactly the measurement distribution of the gate-level
circuit, in closed form.  A count costs O(N + 2**t); ``MAX_T`` bounds t,
checked when ``CountingParams`` is built and again by the distribution.
The held state must be ``A|0...0>``: a collapsed state is not, and counting
one would need the reflection about the honest state.

``StatePreparation`` runs ``A`` on the full ``2**work``-amplitude register,
with ``A = P . (W (x) I)``: a Householder reflection ``W`` on the index
register, then the oracles' basis permutation ``P``.  The protocol does not
use it; the tests build the full-register iterate ``Q`` from it as the
reference the reduced computation is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import circuits
from .circuits import OTHER, REGISTER, PriceScenario
from .statevec import (ATOL_INPUT, CapacityError, StateVector, SupportState, check_tolerance,
                       sample_outcomes)

# The largest phase register counted: the distribution and the CDF its
# shots are drawn through are two 2**t float64 arrays (16 << t bytes, 32 MiB
# at t = 21); drawing each shot from the closed form would need neither.
MAX_T = 21


def _check_t(t: int) -> None:
    """Raise ``CapacityError`` for ``t > MAX_T``, before anything is allocated."""
    if t > MAX_T:
        raise CapacityError(f"t = {t} needs a {1 << t}-outcome distribution and its CDF "
                            f"({16 << t} bytes); the limit is t = {MAX_T}")


@dataclass(frozen=True)
class CountingParams:
    """Phase-estimation knobs: precision qubits, shots, and the seed.

    ``rng_seed`` seeds a direct ``quantum_count`` call only: a negotiation
    (``protocol.run_negotiation``, ``run_with_adversary``) seeds each count
    from its master seed and ignores it.
    """

    t: int = 6
    shots: int = 11
    rng_seed: int = 42

    def __post_init__(self):
        if self.t < 1:
            raise ValueError("need at least one precision qubit")
        _check_t(self.t)
        if self.shots < 1:
            raise ValueError("need at least one shot")


@dataclass(frozen=True)
class CountEstimate:
    """Result of one counting run (possibly a median over several shots)."""

    m_hat: int
    theta_hat: float
    delta: float
    outcomes: tuple[int, ...]


# ---------------------------------------------------------------------------
# state preparation


class StatePreparation:
    """Unitary taking |0...0> to the comparison-ready superposition.

    Composition: a Householder reflection rotates the index register from
    |0...0> onto the uniform superposition over values 1..N, then the two
    price oracles and the flag oracle run.  The oracles' composed basis map
    (``images`` of every index) is applied as a gather through its inverse;
    the reflection is self-inverse, so the exact inverse is a gather through
    the map itself followed by the reflection.

    The ``*_to_array`` methods may hand back a different array than they
    were given (the index rotation is a reshape-matmul); always use the
    return value.
    """

    def __init__(self, layout, index_matrix: np.ndarray, oracle_circuits):
        if layout["index"].offset != 0:
            raise ValueError("index register must start at qubit 0")
        self.layout = layout
        self.num_qubits = layout.num_qubits
        # right-hand operands of the index-register matmul, cast once
        self._forward = index_matrix.T.astype(np.complex128)
        self._backward = index_matrix.conj().astype(np.complex128)
        self._index_width = layout["index"].width
        dim = 1 << self.num_qubits
        images = np.arange(dim)
        for c in oracle_circuits:
            images = c.images(images)
        self._images = images
        self._sources = np.empty_like(images)
        self._sources[images] = np.arange(dim)

    def _apply_index_matrix(self, amps: np.ndarray, operand: np.ndarray) -> np.ndarray:
        block = 1 << self._index_width
        return (amps.reshape(-1, block) @ operand).reshape(-1)

    def apply_to_array(self, amps: np.ndarray) -> np.ndarray:
        return self._apply_index_matrix(amps, self._forward)[self._sources]

    def inverse_to_array(self, amps: np.ndarray) -> np.ndarray:
        return self._apply_index_matrix(amps[self._images], self._backward)

    def apply(self, state: StateVector) -> StateVector:
        if state.num_qubits != self.num_qubits:
            raise ValueError("state size does not match the preparation layout")
        return StateVector(self.num_qubits, self.apply_to_array(state.amplitudes.copy()))


def uniform_index_unitary(n: int, N: int) -> np.ndarray:
    """Householder reflection sending |0> to the uniform state over 1..N.

    The target vector has no overlap with |0> (index 0 is excluded), so the
    reflection through (|0> - |u>)/sqrt(2) maps one onto the other and is
    real, symmetric, and self-inverse.
    """
    dim = 1 << n
    if N >= dim:
        raise ValueError(f"{N} index values do not fit {n} qubits")
    u = np.zeros(dim)
    u[1 : N + 1] = 1.0 / math.sqrt(N)
    v = np.zeros(dim)
    v[0] = 1.0
    v = (v - u) / np.linalg.norm(v - u)
    return np.eye(dim) - 2.0 * np.outer(v, v)


def comparison_oracles(scenario: PriceScenario, announced_by: str) -> tuple:
    """The announcer's price oracle, the receiver's, then the flag oracle,
    on the comparison layout of the state ``announced_by`` sends."""
    layout = circuits.comparison_layout(scenario, announced_by)
    oracles = [circuits.PriceOracle(scenario.tables[role], layout, REGISTER[role])
               for role in (announced_by, OTHER[announced_by])]
    return (*oracles, circuits.flag_oracle(scenario.n, scenario.d, announced_by))


def build_state_preparation(scenario: PriceScenario, announced_by: str = "alice") -> StatePreparation:
    """Preparation of the comparison-ready state announced by one party.

    ``announced_by="alice"`` yields the state the seller works on (buyer
    prices loaded first), ``"bob"`` the mirror image; both carry the same
    flag values, so both count the same M.
    """
    oracles = comparison_oracles(scenario, announced_by)
    return StatePreparation(oracles[0].layout, uniform_index_unitary(scenario.n, scenario.N), oracles)


def honest_held_state(scenario: PriceScenario, announced_by: str = "alice") -> SupportState:
    """``A|0...0>`` on the comparison layout, as its support: Steps 1-3 run
    honestly on the state ``announced_by`` sends."""
    state = circuits.prepare_announced_state(scenario, announced_by)
    loaded = circuits.load_received_state(scenario, announced_by, state)
    return circuits.write_comparison_flag(scenario, announced_by, loaded)


# ---------------------------------------------------------------------------
# phase estimation


def outcome_to_theta(omega: int, t: int) -> float:
    """Fold a phase-register outcome to the 2*theta rotation estimate."""
    return abs(math.pi - 2.0 * math.pi * omega / (1 << t))


def theta_to_count(theta: float, N: int) -> int:
    """Round the rotation estimate to an integer count in [0, N]."""
    m = N * math.sin(theta / 2.0) ** 2
    return min(N, max(0, int(round(m))))


def error_bound(t: int, N: int, m_hat: int) -> float:
    """Worst-case counting error after t-qubit phase estimation.

    The bound 2*pi*sqrt(m_hat*N)/2**t + pi^2*N/2**(2t) is the standard
    estimate-dependent form; it is monotone decreasing in t, and once it
    drops below 0.5 the rounded estimate is exact with high probability.
    """
    if t < 1:
        raise ValueError("need at least one precision qubit")
    if N < 1 or m_hat < 0:
        raise ValueError("N must be >= 1 and m_hat >= 0")
    grid = float(1 << t)
    return 2.0 * math.pi * math.sqrt(m_hat * N) / grid + math.pi**2 * N / grid**2


def phase_register_distribution(scenario: PriceScenario, t: int,
                                announced_by: str = "alice",
                                held: SupportState | None = None) -> np.ndarray:
    """Outcome probabilities of the t-qubit phase register.

    Works in the plane of the flagged and unflagged parts of ``held`` (the
    honest state of ``honest_held_state`` when omitted), which ``Q`` never
    leaves, and returns the closed-form law of the module docstring: the
    measurement distribution of the gate-level circuit on the full
    register.  ``t > MAX_T`` raises ``CapacityError`` before anything is
    allocated; a held state whose norm is not 1 raises ``ValueError``.
    """
    _check_t(t)
    if held is None:
        held = honest_held_state(scenario, announced_by)
    flagged = circuits.comparison_layout(scenario, announced_by)["flag"].value(held.indices) == 1
    amps = held.amplitudes
    marked, unmarked = np.linalg.norm(amps[flagged]), np.linalg.norm(amps[~flagged])
    norm = math.hypot(marked, unmarked)
    check_tolerance(abs(norm - 1.0),
                    f"held state norm {norm} deviates from 1 by more than {ATOL_INPUT}")
    size, half = 1 << t, 1 << (t - 1)
    # Q turns the plane by pi - 2 theta, tan(theta) = ||flagged|| / ||unflagged||;
    # x is that angle in outcome units, r the outcome nearest to it
    x = size * (0.5 - math.atan2(marked, unmarked) / math.pi)
    r = round(x)
    f = x - r  # exact, and sin^2(pi (omega - x)) = sin^2(pi f) for every omega
    # the Fejer kernel about x at omega = r + k, -half <= k < half (it has period
    # 2**t): folded, sin's argument stays off +/-pi, where its rounding grows with 2**t.
    # It is built in place, sin^2(pi f) / (2**t sin(pi (k - f) / 2**t))^2 one
    # operation at a time, so a count holds two 2**t arrays at most: the
    # kernel and the law, then the law and its CDF
    kernel = np.arange(-half, half, dtype=np.float64)
    if f == 0.0:  # x on the grid (M = 0, N/2 or N): a point mass, not 0/0
        kernel.fill(0.0)
        kernel[half] = 1.0
    else:
        kernel -= f
        kernel *= np.pi
        kernel /= size
        np.sin(kernel, out=kernel)
        kernel *= size
        np.square(kernel, out=kernel)
        np.divide(math.sin(math.pi * f) ** 2, kernel, out=kernel)
    # half the kernel rolled to x (index half to r), plus half the kernel
    # about -x, which is the same array read at -omega (reversed, then rolled)
    law = np.empty(size)
    shift = (r - half) % size
    law[shift:], law[:shift] = kernel[: size - shift], kernel[size - shift :]
    mirror, shift = kernel[::-1], (half - r + 1) % size
    law[shift:] += mirror[: size - shift]
    law[:shift] += mirror[size - shift :]
    law *= 0.5
    return law


def quantum_count(scenario: PriceScenario, params: CountingParams = CountingParams(),
                  announced_by: str = "alice",
                  held: SupportState | None = None) -> CountEstimate:
    """Estimate the number of products whose comparison flag is set, from
    the state ``held`` (by default the honest one; see
    ``phase_register_distribution``).

    Draws ``params.shots`` phase-register samples as i.i.d. draws from one
    stream, ``default_rng(params.rng_seed).random(params.shots)`` pushed
    through the distribution's inverse CDF, folds them to rotation
    estimates, and reports their median (the mean of the two middle ones
    for an even number of shots).  Deterministic for fixed inputs.
    """
    probs = phase_register_distribution(scenario, params.t, announced_by, held)
    uniforms = np.random.default_rng(params.rng_seed).random(params.shots)
    outcomes = tuple(sample_outcomes(probs, uniforms).tolist())
    thetas = sorted(outcome_to_theta(w, params.t) for w in outcomes)
    mid = params.shots // 2
    theta_hat = thetas[mid] if params.shots % 2 else (thetas[mid - 1] + thetas[mid]) / 2
    m_hat = theta_to_count(theta_hat, scenario.N)
    return CountEstimate(
        m_hat=m_hat,
        theta_hat=theta_hat,
        delta=error_bound(params.t, scenario.N, m_hat),
        outcomes=outcomes,
    )
