"""Six-step two-party negotiation harness with message-cost accounting.

The run alternates between the buyer ("alice") and the seller ("bob"):

1. each party injects the uniform index superposition, loads its own prices,
   and sends the resulting (n+d)-qubit state to the other; the state travels
   as its support, a ``statevec.SupportState``: the N basis indices
   ``i | price_i << n`` (the images of index values 1..N under the party's
   price oracle) in ascending order, and their amplitudes ``1/sqrt(N)``;
2. the receiver pushes those indices through its own price oracle
   (extending the register by zeros on top leaves them unchanged);
3. the receiver writes the comparison flag by pushing the same indices
   through the flag oracle; what it holds is again a ``SupportState``, now
   on the comparison layout.  Steps 1-3 are table lookups and index
   permutations of N basis states: no negotiation allocates a
   ``2**(n+d)`` or ``2**work`` array or builds a gate to load prices.
   They live in ``circuits`` (``prepare_announced_state``,
   ``load_received_state`` and ``write_comparison_flag``), and the honest
   held state of ``counting`` is their composition;
4. each party counts the state it holds, in the plane of its flagged and
   unflagged parts;
5. the counts are exchanged under bit-string commitment (fingerprint state,
   classical unveil, projective verification) and checked for consistency
   |t_A - t_B| <= delta;
6. trade happens iff both counts reach the threshold.

Every transmission is recorded as a ``ChannelMessage`` with its cost: a
quantum state (the Step-1 support, the Step-5 fingerprint) costs its qubit
count, classical messages their bit length.  The states themselves pass
between the steps as values.  The headline cost of an honest run is
2(n+d) qubits plus 2n cbits, with the Step-5 fingerprint qubits accounted
as a separate line item.

Adversarial behaviors are scripted, not emergent: "measure-and-cheat"
measures every qubit of the received state in Step 2 (``measure_announced``,
learning exactly one (i, price_i) pair and destroying its own ability to
count), then unveils a copy of the honest party's count to survive the
consistency check, which the commitment verification catches;
"false-unveil" counts honestly but unveils a different value.  Counting
assumes the held state is ``A|0...0>``, so a collapsed state is never
counted, nor taken through Steps 2-3: the measuring cheater reports a
scripted guess instead.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import circuits, commitment, counting
from .circuits import (OTHER, REGISTER, PriceScenario, load_received_state,
                       prepare_announced_state, write_comparison_flag)
from .commitment import CodeParams
from .counting import CountEstimate, CountingParams
from .statevec import SupportState, sample_outcomes

TRANSCRIPT_SCHEMA = "q3pen.transcript/2"

BEHAVIOR_HONEST = "honest"
BEHAVIOR_MEASURE = "measure-and-cheat"
BEHAVIOR_FALSE_UNVEIL = "false-unveil"
BEHAVIORS = (BEHAVIOR_HONEST, BEHAVIOR_MEASURE, BEHAVIOR_FALSE_UNVEIL)

# the child seeds a negotiation draws from its master seed, in draw order
SEED_NAMES = ("count_alice", "count_bob", "verify_alice", "verify_bob", "adversary", "code")

QUANTUM = "quantum-state"
CLASSICAL = "classical-bits"


@dataclass(frozen=True)
class ChannelMessage:
    """One transmission, priced in qubits or cbits."""

    step: int
    sender: str
    recipient: str
    kind: str          # QUANTUM or CLASSICAL
    label: str         # "price-state" | "fingerprint" | "unveil"
    qubit_cost: int
    cbit_cost: int
    value: int | None = None

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "from": self.sender,
            "to": self.recipient,
            "kind": self.kind,
            "label": self.label,
            "qubits": self.qubit_cost,
            "cbits": self.cbit_cost,
            "value": self.value,
        }


class CostSummary(NamedTuple):
    qubits: int
    cbits: int
    fingerprint_qubits: int


@dataclass
class NegotiationTranscript:
    """Everything observable about one run, plus per-step wall times.

    Timings stay in memory only; the serialized form is deterministic for a
    fixed seed, so repeated runs emit byte-identical JSON.
    """

    scenario_summary: dict
    params_summary: dict
    messages: list[ChannelMessage] = field(default_factory=list)
    estimates: dict[str, CountEstimate] = field(default_factory=dict)  # keyed by role
    unveiled: dict[str, int] = field(default_factory=dict)
    verifications: dict[str, bool] = field(default_factory=dict)
    delta: float = 0.0
    consistent: bool = False
    trade: bool = False
    timings: dict[int, float] = field(default_factory=dict)
    adversary: dict | None = None
    complete: bool = False

    @property
    def t_A(self) -> CountEstimate:
        """The buyer's counting estimate."""
        return self.estimates["alice"]

    @property
    def t_B(self) -> CountEstimate:
        """The seller's counting estimate."""
        return self.estimates["bob"]

    def to_dict(self) -> dict:
        est = {
            role: {
                "m_hat": e.m_hat,
                "theta_hat": e.theta_hat,
                "delta": e.delta,
                "outcomes": list(e.outcomes),
            }
            for role, e in self.estimates.items()
        }
        costs = transcript_costs(self)
        return {
            "schema": TRANSCRIPT_SCHEMA,
            "scenario": self.scenario_summary,
            "params": self.params_summary,
            "messages": [m.to_dict() for m in self.messages],
            "estimates": est,
            "t_A": self.estimates["alice"].m_hat,
            "t_B": self.estimates["bob"].m_hat,
            "unveiled": self.unveiled,
            "delta": self.delta,
            "consistent": self.consistent,
            "verifications": self.verifications,
            "trade": self.trade,
            "costs": {
                "qubits": costs.qubits,
                "cbits": costs.cbits,
                "fingerprint_qubits": costs.fingerprint_qubits,
            },
            "adversary": self.adversary,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def transcript_costs(transcript: NegotiationTranscript) -> CostSummary:
    """Headline (qubits, cbits) plus fingerprint qubits as a separate item.

    The headline follows the protocol's cost claim: only the Step-1 state
    exchange counts as qubit traffic and only the unveils as cbit traffic;
    commitment fingerprints are real traffic too, so they are totalled on
    their own line rather than silently dropped or silently added.
    """
    if not transcript.complete:
        raise RuntimeError("transcript is incomplete; run the negotiation to the end")
    qubits = cbits = fingerprints = 0
    for msg in transcript.messages:
        if msg.kind == QUANTUM and msg.label == "fingerprint":
            fingerprints += msg.qubit_cost
        elif msg.kind == QUANTUM:
            qubits += msg.qubit_cost
        else:
            cbits += msg.cbit_cost
    return CostSummary(qubits, cbits, fingerprints)


# ---------------------------------------------------------------------------
# the measurement attack


def measure_announced(state: SupportState, rng: np.random.Generator) -> tuple[int, SupportState]:
    """Measure every qubit of an announced state: ``(outcome, collapsed)``.

    ``state.indices`` must be ascending, as Step 1 builds them.  One
    ``rng.random()`` picks a support entry by inverse CDF over ``|a|**2`` in
    that order.  Zero amplitudes add nothing to a CDF, so the outcome and
    the collapsed state are those a projective measurement of the dense
    register gives for the same draw.
    """
    k = int(sample_outcomes(np.abs(state.amplitudes) ** 2, rng.random()))
    amplitude = state.amplitudes[k : k + 1]
    collapsed = state._replace(indices=state.indices[k : k + 1],
                               amplitudes=amplitude / np.linalg.norm(amplitude))
    return int(state.indices[k]), collapsed


# ---------------------------------------------------------------------------
# the negotiation


def run_negotiation(scenario: PriceScenario,
                    params: CountingParams = CountingParams(),
                    code: CodeParams | None = None,
                    master_seed: int = 42) -> NegotiationTranscript:
    """Honest end-to-end run; deterministic for a fixed master seed.

    Every draw comes from ``master_seed`` (``negotiation_seeds``): each
    party's count is seeded with its ``count_*`` child seed, so
    ``params.rng_seed`` has no effect on a negotiation, here or in
    ``run_with_adversary``.
    """
    return _run(scenario, params, code, master_seed)


def run_with_adversary(scenario: PriceScenario,
                       cheater: str,
                       behavior: str,
                       params: CountingParams = CountingParams(),
                       code: CodeParams | None = None,
                       master_seed: int = 42,
                       false_unveil_value: int | None = None) -> NegotiationTranscript:
    """Run with exactly one scripted dishonest party.

    The returned transcript's ``adversary`` field is the detection verdict:
    what the cheater learned, what they committed and unveiled, and whether
    the honest party's verification or the consistency check flagged them.
    """
    if cheater not in OTHER:
        raise ValueError(f"unknown party {cheater!r}")
    if behavior not in BEHAVIORS:
        raise ValueError(f"unknown behavior {behavior!r}")
    return _run(scenario, params, code, master_seed, cheater, behavior, false_unveil_value)


def negotiation_seeds(master_seed: int) -> dict[str, int]:
    """The child seeds of one negotiation, keyed by ``SEED_NAMES``: one draw
    each from ``default_rng(master_seed)``.  A run given no code builds its
    commitment code from the ``code`` seed, and so does ``q3pen run``."""
    draws = np.random.default_rng(master_seed).integers(0, 2**31 - 1, size=len(SEED_NAMES))
    return {name: int(s) for name, s in zip(SEED_NAMES, draws)}


def _run(scenario, params, code, master_seed, cheater=None,
         behavior=BEHAVIOR_HONEST, false_unveil_value=None) -> NegotiationTranscript:
    """One negotiation; ``cheater`` is the scripted role, if any, and
    ``behavior`` its script."""
    seeds = negotiation_seeds(master_seed)
    # only a measuring cheater draws: its measurement outcome and its guess
    adversary_rng = (np.random.default_rng(seeds["adversary"])
                     if behavior == BEHAVIOR_MEASURE else None)
    if code is None:
        code = commitment.make_random_code(scenario.n, c=2.0, seed=seeds["code"])

    transcript = NegotiationTranscript(
        scenario_summary={
            "N": scenario.N, "epsilon": scenario.epsilon,
            "n": scenario.n, "d": scenario.d,
        },
        params_summary={
            "t": params.t, "shots": params.shots, "seed": master_seed,
            "code_n": code.n, "code_m": code.m,
        },
        # a scripted party gets a verdict even when its script is "honest"
        adversary=None if cheater is None else {
            "party": cheater, "behavior": behavior,
            "learned": None, "committed": None, "unveiled": None,
            "detected": False, "detected_by": {"verification": False, "consistency": False},
        },
    )
    msgs = transcript.messages
    clock = time.perf_counter

    # Step 1: both parties announce their price-loaded states.
    t0 = clock()
    announced = {}
    for owner, other in OTHER.items():
        state = prepare_announced_state(scenario, owner)
        announced[owner] = state
        msgs.append(ChannelMessage(1, owner, other, QUANTUM, "price-state",
                                   qubit_cost=state.num_qubits, cbit_cost=0))
    transcript.timings[1] = clock() - t0

    # Step 2: a measuring adversary strikes on receipt, before doing any
    # work; the collapsed state is never counted, so Steps 2-3 skip it.
    # Every other receiver takes the support and loads its own prices.
    t0 = clock()
    if behavior == BEHAVIOR_MEASURE:
        victim = OTHER[cheater]
        outcome, _ = measure_announced(announced.pop(victim), adversary_rng)
        layout = circuits.announcement_layout(scenario, victim)
        transcript.adversary["learned"] = {"index": layout["index"].value(outcome),
                                           "price": layout[REGISTER[victim]].value(outcome)}

    loaded = {announced_by: load_received_state(scenario, announced_by, state)
              for announced_by, state in announced.items()}
    transcript.timings[2] = clock() - t0

    # Step 3: each receiver writes the comparison flag.
    t0 = clock()
    held = {announced_by: write_comparison_flag(scenario, announced_by, state)
            for announced_by, state in loaded.items()}  # keyed by the announcer
    transcript.timings[3] = clock() - t0

    # Step 4: independent counting runs, each on the state its party holds.
    # t_B is the seller's estimate made on the buyer-announced state, and
    # vice versa.
    t0 = clock()
    estimates = {}
    for announced_by, role in OTHER.items():
        if behavior == BEHAVIOR_MEASURE and role == cheater:
            # the measurement destroyed the superposition and a collapsed
            # state is not counted, so the cheater improvises an uninformed
            # guess dressed up as a report
            guess = int(adversary_rng.integers(0, scenario.N + 1))
            estimates[role] = CountEstimate(
                m_hat=guess,
                theta_hat=2.0 * np.arcsin(np.sqrt(guess / scenario.N)),
                delta=counting.error_bound(params.t, scenario.N, guess), outcomes=())
        else:
            estimates[role] = counting.quantum_count(
                scenario, replace(params, rng_seed=seeds[f"count_{role}"]),
                announced_by=announced_by, held=held[announced_by])
    transcript.estimates = dict(estimates)
    transcript.timings[4] = clock() - t0

    # Step 5: commitments, unveils, verification, consistency.
    t0 = clock()
    committed = {role: est.m_hat for role, est in estimates.items()}
    records = {}
    for owner, other in OTHER.items():
        records[owner] = commitment.commit(committed[owner], code)
        msgs.append(ChannelMessage(5, owner, other, QUANTUM, "fingerprint",
                                   qubit_cost=code.num_fingerprint_qubits, cbit_cost=0))

    # unveil order: the honest party goes first so a measuring cheater can
    # try to parrot the honest count (that is the lie verification catches)
    unveil_order = ("alice", "bob") if cheater is None else (OTHER[cheater], cheater)
    unveiled = {}
    for owner in unveil_order:
        value = committed[owner]
        if owner == cheater and behavior == BEHAVIOR_MEASURE:
            value = unveiled[OTHER[owner]]  # parrot the count revealed first
        elif owner == cheater and behavior == BEHAVIOR_FALSE_UNVEIL:
            value = ((committed[owner] + 1) % (1 << scenario.n) if false_unveil_value is None
                     else false_unveil_value)
        unveiled[owner] = value
        msgs.append(ChannelMessage(5, owner, OTHER[owner], CLASSICAL, "unveil",
                                   qubit_cost=0, cbit_cost=scenario.n, value=value))
    transcript.unveiled = unveiled

    verifications = {
        # verifier "bob" checks the record alice committed, against her unveil
        "bob_accepts_alice": commitment.verify(records["alice"], unveiled["alice"],
                                               seeds["verify_bob"]),
        "alice_accepts_bob": commitment.verify(records["bob"], unveiled["bob"],
                                               seeds["verify_alice"]),
    }
    transcript.verifications = verifications

    delta = max(estimates["alice"].delta, estimates["bob"].delta)
    consistent = abs(unveiled["alice"] - unveiled["bob"]) <= delta
    transcript.delta = delta
    transcript.consistent = consistent
    transcript.timings[5] = clock() - t0

    if cheater is not None:
        transcript.adversary["committed"] = committed[cheater]
        transcript.adversary["unveiled"] = unveiled[cheater]
        honest_accepts = verifications[f"{OTHER[cheater]}_accepts_{cheater}"]
        transcript.adversary["detected_by"] = {
            "verification": not honest_accepts,
            "consistency": not consistent,
        }
        transcript.adversary["detected"] = (not honest_accepts) or (not consistent)

    # Step 6: the trade decision.
    t0 = clock()
    transcript.trade = bool(
        consistent
        and verifications["bob_accepts_alice"]
        and verifications["alice_accepts_bob"]
        and unveiled["alice"] >= scenario.epsilon
        and unveiled["bob"] >= scenario.epsilon
    )
    transcript.timings[6] = clock() - t0
    transcript.complete = True
    return transcript


# ---------------------------------------------------------------------------
# attack statistics


@dataclass(frozen=True)
class AttackStatistics:
    """Aggregate of many measure-and-cheat attacks on the Step-1 state."""

    trials: int
    index_counts: dict[int, int]
    pairs_valid: bool  # every observed (index, price) matched the victim's list

    def frequency(self, index: int) -> float:
        return self.index_counts.get(index, 0) / self.trials


def measurement_attack_statistics(scenario: PriceScenario, trials: int,
                                  seed: int = 0, victim: str = "alice") -> AttackStatistics:
    """Replay the Step-2 measurement attack many times.

    The pre-measurement state is identical on every run (preparation is
    deterministic), so each trial is one full projective measurement of a
    fresh copy, drawn on the Step-1 support as ``measure_announced`` draws
    it; a run reveals exactly one (index, price) pair and nothing else.
    Sampling and the check of every observed pair against the victim's
    price list are vectorized over trials.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    state = prepare_announced_state(scenario, victim)
    rng = np.random.default_rng(seed)
    outcomes = state.indices[sample_outcomes(np.abs(state.amplitudes) ** 2, rng.random(trials))]

    layout = circuits.announcement_layout(scenario, victim)
    prices = np.array((0, *scenario.prices(victim)))  # index 1..N
    indices = layout["index"].value(outcomes)
    valid = bool(np.all((indices >= 1) & (indices <= scenario.N))
                 and np.array_equal(prices[indices], layout[REGISTER[victim]].value(outcomes)))
    counts = np.bincount(indices, minlength=scenario.N + 1)
    return AttackStatistics(
        trials=trials,
        index_counts={i: int(counts[i]) for i in range(1, scenario.N + 1)},
        pairs_valid=valid,
    )
