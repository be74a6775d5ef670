"""Six-step two-party negotiation harness with message-cost accounting.

The run alternates between the buyer ("alice") and the seller ("bob"):

1. each party injects the uniform index superposition, loads its own prices,
   and sends the resulting (n+d)-qubit state to the other;
2. the receiver takes the support of the received state (at most N basis
   indices and their amplitudes; extending the register by zeros on top
   leaves those indices unchanged) and pushes it through its own price
   oracle;
3. the receiver writes the comparison flag by pushing the same indices
   through the flag oracle; what it holds is a ``HeldState``, indices on the
   comparison layout with their amplitudes, and no ``2**work`` array is
   ever allocated;
4. each party counts the state it holds, in the span of that support;
5. the counts are exchanged under bit-string commitment (fingerprint state,
   classical unveil, projective verification) and checked for consistency
   |t_A - t_B| <= delta;
6. trade happens iff both counts reach the threshold.

Sending a quantum state is modeled as transferring ownership of a
StateVector through an in-process channel at a cost equal to its qubit
count; classical messages cost their bit length.  The headline cost of an
honest run is 2(n+d) qubits plus 2n cbits, with the Step-5 fingerprint
qubits accounted as a separate line item.

Adversarial behaviors are scripted, not emergent: "measure-and-cheat"
measures the received state in Step 2 (learning exactly one (i, price_i)
pair and destroying its own ability to count), then unveils a copy of the
honest party's count to survive the consistency check, which the
commitment verification catches; "false-unveil" counts honestly but
unveils a different value.  Counting assumes the held state is
``A|0...0>``, so a collapsed state is never counted: the measuring cheater
reports a scripted guess instead.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import circuits, commitment, counting
from .circuits import PriceScenario
from .commitment import CodeParams
from .counting import CountEstimate, CountingParams, HeldState
from .statevec import (
    ATOL_INPUT,
    DEFAULT_MAX_QUBITS,
    CapacityError,
    Segment,
    StateVector,
    measure,
    prepare_amplitudes,
    sample_outcomes,
)

TRANSCRIPT_SCHEMA = "q3pen.transcript/1"

BEHAVIOR_HONEST = "honest"
BEHAVIOR_MEASURE = "measure-and-cheat"
BEHAVIOR_FALSE_UNVEIL = "false-unveil"
BEHAVIORS = (BEHAVIOR_HONEST, BEHAVIOR_MEASURE, BEHAVIOR_FALSE_UNVEIL)

QUANTUM = "quantum-state"
CLASSICAL = "classical-bits"


@dataclass
class Party:
    """One negotiation participant: its role and its scripted behaviour."""

    role: str  # "alice" (buyer) or "bob" (seller)
    behavior: str = BEHAVIOR_HONEST

    def __post_init__(self):
        if self.role not in ("alice", "bob"):
            raise ValueError(f"unknown role {self.role!r}")
        if self.behavior not in BEHAVIORS:
            raise ValueError(f"unknown behavior {self.behavior!r}")


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
    payload: StateVector | None = field(default=None, repr=False, compare=False)

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

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


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
# state construction helpers


def prepare_announced_state(scenario: PriceScenario, owner: str) -> StateVector:
    """The (n+d)-qubit state a party sends in Step 1: uniform index
    superposition with its own prices XOR-loaded alongside."""
    layout = circuits.announcement_layout(scenario, owner)
    amps = np.zeros(1 << layout.num_qubits, dtype=np.complex128)
    amps[1 : scenario.N + 1] = 1.0  # price bits zero, index values 1..N
    state = prepare_amplitudes(layout.num_qubits, amps)
    prices = scenario.A if owner == "alice" else scenario.B
    target = "priceA" if owner == "alice" else "priceB"
    oracle = circuits.build_price_oracle(prices, layout, target)
    return oracle.apply(state)


def load_received_state(scenario: PriceScenario, announced_by: str,
                        state: StateVector) -> HeldState:
    """Step 2 on a received state: its support, with the receiver's prices
    loaded alongside, as indices on the comparison layout."""
    width = circuits.announcement_layout(scenario, announced_by).num_qubits
    if state.num_qubits != width:
        raise ValueError(f"received a {state.num_qubits}-qubit state; the announcement has {width}")
    indices = np.flatnonzero(state.amplitudes)
    amplitudes = state.amplitudes[indices]
    norm = float(np.linalg.norm(amplitudes))
    if abs(norm - 1.0) > ATOL_INPUT:
        raise ValueError(f"received state norm {norm} deviates from 1 by more than {ATOL_INPUT}")
    layout = circuits.comparison_layout(scenario, announced_by)
    receiver_prices = scenario.B if announced_by == "alice" else scenario.A
    receiver_target = "priceB" if announced_by == "alice" else "priceA"
    oracle = circuits.build_price_oracle(receiver_prices, layout, receiver_target)
    return HeldState(oracle.images(indices), amplitudes)


def write_comparison_flag(scenario: PriceScenario, announced_by: str,
                          held: HeldState) -> HeldState:
    """Step 3 on a held state: the flag oracle applied to its indices."""
    layout = circuits.comparison_layout(scenario, announced_by)
    return held._replace(indices=circuits.build_flag_oracle(layout).images(held.indices))


# ---------------------------------------------------------------------------
# the negotiation


def run_negotiation(scenario: PriceScenario,
                    params: CountingParams = CountingParams(),
                    code: CodeParams | None = None,
                    master_seed: int = 42,
                    max_qubits: int = DEFAULT_MAX_QUBITS) -> NegotiationTranscript:
    """Honest end-to-end run; deterministic for a fixed master seed."""
    alice = Party("alice")
    bob = Party("bob")
    return _run(scenario, alice, bob, params, code, master_seed, max_qubits)


def run_with_adversary(scenario: PriceScenario,
                       cheater: str,
                       behavior: str,
                       params: CountingParams = CountingParams(),
                       code: CodeParams | None = None,
                       master_seed: int = 42,
                       max_qubits: int = DEFAULT_MAX_QUBITS,
                       false_unveil_value: int | None = None) -> NegotiationTranscript:
    """Run with exactly one scripted dishonest party.

    The returned transcript's ``adversary`` field is the detection verdict:
    what the cheater learned, what they committed and unveiled, and whether
    the honest party's verification or the consistency check flagged them.
    """
    if cheater not in ("alice", "bob"):
        raise ValueError(f"unknown party {cheater!r}")
    if behavior not in BEHAVIORS:
        raise ValueError(f"unknown behavior {behavior!r}")
    alice = Party("alice", behavior if cheater == "alice" else BEHAVIOR_HONEST)
    bob = Party("bob", behavior if cheater == "bob" else BEHAVIOR_HONEST)
    return _run(scenario, alice, bob, params, code, master_seed, max_qubits,
                scripted_role=cheater, false_unveil_value=false_unveil_value)


def _run(scenario, alice, bob, params, code, master_seed, max_qubits,
         scripted_role=None, false_unveil_value=None) -> NegotiationTranscript:
    # capacity: the counting layout is the largest register anyone touches
    total = circuits.comparison_layout(scenario, "alice", t=params.t).num_qubits
    if total > max_qubits:
        raise CapacityError(f"{total} qubits exceed the budget of {max_qubits}")

    seeder = np.random.default_rng(master_seed)
    seeds = {
        name: int(s)
        for name, s in zip(
            ("count_alice", "count_bob", "verify_alice", "verify_bob", "adversary", "code"),
            seeder.integers(0, 2**31 - 1, size=6),
        )
    }
    adversary_rng = np.random.default_rng(seeds["adversary"])
    # a scripted party gets a verdict even when its script is "honest"
    cheater = None
    if scripted_role is not None:
        cheater = alice if scripted_role == "alice" else bob
    elif alice.behavior != BEHAVIOR_HONEST:
        cheater = alice
    elif bob.behavior != BEHAVIOR_HONEST:
        cheater = bob
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
        adversary=None if cheater is None else {
            "party": cheater.role, "behavior": cheater.behavior,
            "learned": None, "committed": None, "unveiled": None,
            "detected": False, "detected_by": {"verification": False, "consistency": False},
        },
    )
    msgs = transcript.messages
    clock = time.perf_counter

    # Step 1: both parties announce their price-loaded states.
    t0 = clock()
    announced = {}
    for owner, other in (("alice", "bob"), ("bob", "alice")):
        state = prepare_announced_state(scenario, owner)
        announced[owner] = state
        msgs.append(ChannelMessage(1, owner, other, QUANTUM, "price-state",
                                   qubit_cost=state.num_qubits, cbit_cost=0, payload=state))
    transcript.timings[1] = clock() - t0

    # Step 2: a measuring adversary strikes on receipt, before doing any
    # work; then each receiver takes the support and loads its own prices.
    t0 = clock()
    if cheater is not None and cheater.behavior == BEHAVIOR_MEASURE:
        victim = "alice" if cheater.role == "bob" else "bob"
        received = announced[victim]
        outcome, collapsed = measure(
            received, Segment("all", 0, received.num_qubits), adversary_rng
        )
        announced[victim] = collapsed  # the superposition is gone for good
        idx_width = scenario.n
        learned_index = outcome & ((1 << idx_width) - 1)
        learned_price = outcome >> idx_width
        transcript.adversary["learned"] = {"index": learned_index, "price": learned_price}

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
    for role, announced_by in (("bob", "alice"), ("alice", "bob")):
        if cheater is not None and cheater.behavior == BEHAVIOR_MEASURE and role == cheater.role:
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
                announced_by=announced_by, max_qubits=max_qubits, held=held[announced_by])
    transcript.estimates = dict(estimates)
    transcript.timings[4] = clock() - t0

    # Step 5: commitments, unveils, verification, consistency.
    t0 = clock()
    committed = {role: est.m_hat for role, est in estimates.items()}
    records = {}
    for owner, other in (("alice", "bob"), ("bob", "alice")):
        records[owner] = commitment.commit(committed[owner], code)
        msgs.append(ChannelMessage(5, owner, other, QUANTUM, "fingerprint",
                                   qubit_cost=code.num_fingerprint_qubits, cbit_cost=0,
                                   payload=records[owner].fingerprint))

    # unveil order: the honest party goes first so a measuring cheater can
    # try to parrot the honest count (that is the lie verification catches)
    unveil_order = ["alice", "bob"]
    if cheater is not None and cheater.role == "alice":
        unveil_order = ["bob", "alice"]
    unveiled = {}
    for owner in unveil_order:
        value = committed[owner]
        if cheater is not None and owner == cheater.role:
            if cheater.behavior == BEHAVIOR_MEASURE:
                victim = "alice" if owner == "bob" else "bob"
                value = unveiled[victim]  # parrot the count revealed first
            elif cheater.behavior == BEHAVIOR_FALSE_UNVEIL:
                if false_unveil_value is not None:
                    value = false_unveil_value
                else:
                    value = (committed[owner] + 1) % (1 << scenario.n)
        unveiled[owner] = value
        other = "bob" if owner == "alice" else "alice"
        msgs.append(ChannelMessage(5, owner, other, CLASSICAL, "unveil",
                                   qubit_cost=0, cbit_cost=scenario.n, value=value))
    transcript.unveiled = unveiled

    verifications = {
        # verifier "bob" checks the record alice committed, against her unveil
        "bob_accepts_alice": commitment.verify(
            records["alice"], unveiled["alice"], np.random.default_rng(seeds["verify_bob"])),
        "alice_accepts_bob": commitment.verify(
            records["bob"], unveiled["bob"], np.random.default_rng(seeds["verify_alice"])),
    }
    transcript.verifications = verifications

    delta = max(estimates["alice"].delta, estimates["bob"].delta)
    consistent = abs(unveiled["alice"] - unveiled["bob"]) <= delta
    transcript.delta = delta
    transcript.consistent = consistent
    transcript.timings[5] = clock() - t0

    if cheater is not None:
        transcript.adversary["committed"] = committed[cheater.role]
        transcript.adversary["unveiled"] = unveiled[cheater.role]
        honest_accepts = (verifications["alice_accepts_bob"] if cheater.role == "bob"
                          else verifications["bob_accepts_alice"])
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
    fresh copy; a run reveals exactly one (index, price) pair and nothing
    else.  Sampling is vectorized over trials.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    state = prepare_announced_state(scenario, victim)
    rng = np.random.default_rng(seed)
    outcomes = sample_outcomes(state.probabilities(), rng.random(trials))

    prices = scenario.A if victim == "alice" else scenario.B
    mask = (1 << scenario.n) - 1
    indices = outcomes & mask
    observed_prices = outcomes >> scenario.n
    valid = bool(
        np.all((indices >= 1) & (indices <= scenario.N))
        and all(observed_prices[k] == prices[indices[k] - 1] for k in range(trials))
    )
    counts = np.bincount(indices, minlength=scenario.N + 1)
    return AttackStatistics(
        trials=trials,
        index_counts={i: int(counts[i]) for i in range(1, scenario.N + 1)},
        pairs_valid=valid,
    )
