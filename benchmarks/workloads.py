"""The four benchmark workloads, built from a seed, and their output checks.

A workload is one *pass*: a fixed list of operations run back to back (a
closed loop, one caller).  The seed draws the prices, thresholds and
protocol seeds; the shape of a pass (how many scenarios, their N, d and t,
and how many price bits are set) is fixed per workload, so that passes
built from different seeds cost the same and only the data differ.  The
package receives nothing but the generated scenarios.

Every operation calls the package through module attributes looked up at
call time, so the tracer's wrappers see the calls.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from q3pen import analysis, circuits, commitment, protocol
from q3pen.counting import CountingParams

PAPER_EXAMPLE = dict(A=(3, 2, 5, 4, 7, 6), B=(2, 2, 5, 5, 6, 6), epsilon=5)
SHOTS = 11

# Generated sizes of each workload, printed with every result; build() must match.
SIZES = {
    "worked": "N=5-7 d=3 t=6: 13 working + 6 counting qubits; 4 negotiations per pass "
              "(the paper's example and three drawn ones)",
    "deep-t": "N=2-3 d=2 t=10-11: 9 working + 10-11 counting qubits; 4 negotiations per pass, "
              "three of them at t=11",
    "wide-d": "N=2-3 d=5 t=2: 18 working + 2 counting qubits; 2 negotiations per pass",
    "audit": "N=6 d=3 t=6 adversarial runs (4 per pass); holevo_bound at 8 and 9 qubits; "
             "2 attack replays; 1 commitment accept-rate op",
}


@dataclass
class Op:
    """One timed call.  ``run`` returns the result that ``check`` inspects
    (for a negotiation: the transcript and its JSON); ``fingerprint`` turns
    it into text that must repeat from pass to pass."""

    kind: str  # "negotiation", "holevo", "attack" or "accept-rate"
    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    fingerprint: Callable[[object], str]


def _prices(rng, N: int, d: int) -> tuple[int, ...]:
    """N prices of exactly d bits, with half of the N*d bits (rounded up) set.

    Fixing the number of set bits fixes the number of oracle gates, so the
    cost of a scenario does not depend on the seed.  The top bit column is
    never empty, so the register width is d.
    """
    ones = (N * d + 1) // 2
    while True:
        bits = np.zeros(N * d, dtype=np.int64)
        bits[rng.choice(N * d, size=ones, replace=False)] = 1
        bits = bits.reshape(N, d)
        if bits[:, d - 1].any():
            return tuple(int(row @ (1 << np.arange(d))) for row in bits)


def _scenario(rng, N: int, d: int) -> circuits.PriceScenario:
    return circuits.PriceScenario(A=_prices(rng, N, d), B=_prices(rng, N, d),
                                  epsilon=int(rng.integers(1, N + 1)))


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


# ---------------------------------------------------------------------------
# checks


def _expected_trade(tr, scenario) -> tuple[bool, bool]:
    """(consistent, trade) recomputed from the unveiled counts."""
    u = tr.unveiled
    consistent = abs(u["alice"] - u["bob"]) <= max(tr.t_A.delta, tr.t_B.delta)
    trade = (consistent and all(tr.verifications.values())
             and u["alice"] >= scenario.epsilon and u["bob"] >= scenario.epsilon)
    return consistent, trade


def _count_problems(tr, scenario, roles) -> list[str]:
    truth = circuits.brute_force_count(scenario)
    return [f"{role} counted {tr.estimates[role].m_hat}, true {truth}, "
            f"delta {tr.estimates[role].delta:.3f}"
            for role in roles
            if abs(tr.estimates[role].m_hat - truth) > tr.estimates[role].delta]


def _rule_problems(tr, scenario) -> list[str]:
    consistent, trade = _expected_trade(tr, scenario)
    problems = []
    if tr.consistent != consistent:
        problems.append(f"consistent={tr.consistent}, rule gives {consistent}")
    if tr.trade != trade:
        problems.append(f"trade={tr.trade}, rule on the unveiled counts gives {trade}")
    return problems


def _check_honest(scenario):
    def check(result) -> list[str]:
        tr, _ = result
        problems = _count_problems(tr, scenario, ("alice", "bob")) + _rule_problems(tr, scenario)
        for role in ("alice", "bob"):
            if tr.unveiled[role] != tr.estimates[role].m_hat:
                problems.append(f"honest {role} unveiled {tr.unveiled[role]}")
        if not all(tr.verifications.values()):
            problems.append(f"honest unveil rejected: {tr.verifications}")
        if tr.adversary is not None:
            problems.append("honest run reports an adversary")
        return problems

    return check


def _check_adversarial(scenario, cheater):
    honest = "bob" if cheater == "alice" else "alice"

    def check(result) -> list[str]:
        tr, _ = result
        verdict = tr.adversary
        problems = _count_problems(tr, scenario, (honest,)) + _rule_problems(tr, scenario)
        if verdict is None or verdict["party"] != cheater:
            return problems + [f"no verdict on {cheater}"]
        lied = verdict["unveiled"] != verdict["committed"]
        # The audit code's fingerprints of distinct values are orthogonal, so
        # an unveil that differs from the commitment is rejected with
        # certainty; an unveil equal to it (a measure-and-cheat guess that hit
        # the true count) is not a commitment lie and must be accepted.
        if lied and not (verdict["detected"] and verdict["detected_by"]["verification"]):
            problems.append(f"cheater {cheater} unveiled {verdict['unveiled']} over a commitment "
                            f"to {verdict['committed']} and was not detected")
        if not lied and verdict["detected_by"]["verification"]:
            problems.append(f"{cheater}'s truthful unveil was rejected")
        return problems

    return check


def _negotiation_fingerprint(result) -> str:
    return result[1]


# ---------------------------------------------------------------------------
# operations


def _honest_op(scenario, t, master_seed, label) -> Op:
    params = CountingParams(t=t, shots=SHOTS)

    def run():
        tr = protocol.run_negotiation(scenario, params, master_seed=master_seed)
        return tr, tr.to_json()

    return Op("negotiation", label, run, _check_honest(scenario), _negotiation_fingerprint)


def orthogonal_code(n: int) -> commitment.CodeParams:
    """The [2**n, n] Hadamard code: every nonzero codeword has weight 2**n / 2,
    so the fingerprints of distinct values are orthogonal."""
    m = 1 << n
    generator = [[(j >> i) & 1 for j in range(m)] for i in range(n)]
    return commitment.CodeParams(n=n, m=m, generator=np.array(generator), delta_code=0.25)


def _adversarial_op(scenario, cheater, behavior, code, master_seed) -> Op:
    params = CountingParams(t=6, shots=SHOTS)

    def run():
        tr = protocol.run_with_adversary(scenario, cheater, behavior, params, code=code,
                                         master_seed=master_seed)
        return tr, tr.to_json()

    return Op("negotiation", f"{cheater}:{behavior}", run, _check_adversarial(scenario, cheater),
              _negotiation_fingerprint)


def _holevo_op(scenario, owner) -> Op:
    def check(bound) -> list[str]:
        expected = math.log2(scenario.N)
        return ([] if abs(bound - expected) <= 1e-9
                else [f"holevo_bound {bound!r} differs from log2 N = {expected!r}"])

    qubits = scenario.n + scenario.d
    return Op("holevo", f"holevo-{qubits}q", lambda: analysis.holevo_bound(scenario, owner),
              check, repr)


def _attack_op(scenario, victim, trials, seed) -> Op:
    def check(stats) -> list[str]:
        problems = [] if stats.pairs_valid else ["attack observed an invalid (index, price) pair"]
        if sum(stats.index_counts.values()) != trials:
            problems.append(f"attack counts sum to {sum(stats.index_counts.values())}, not {trials}")
        return problems

    def fingerprint(stats) -> str:
        return repr((stats.trials, sorted(stats.index_counts.items()), stats.pairs_valid))

    return Op("attack", f"attack-{victim}",
              lambda: protocol.measurement_attack_statistics(scenario, trials, seed=seed,
                                                             victim=victim),
              check, fingerprint)


def _accept_rate_op(n, value, trials, seed) -> Op:
    """Builds a random code, then measures the accept rate of an honest and
    of a false unveil of ``value``."""
    false_value = (value + 1) % (1 << n)

    def run():
        code = commitment.make_random_code(n, c=2.0, seed=seed)
        honest = commitment.empirical_accept_rate(value, value, code, trials, seed=seed)
        cheating = commitment.empirical_accept_rate(value, false_value, code, trials, seed=seed + 1)
        return code, honest, cheating

    def check(result) -> list[str]:
        code, honest, cheating = result
        problems = [] if honest == 1.0 else [f"honest unveil accept rate {honest}"]
        # <tau_x|tau_y> = 1 - 2 dist / m, computed here without the package's
        # own accept_probability (and without calls the tracer would record).
        dist = int(np.sum(code.encode(value) != code.encode(false_value)))
        p = (1.0 - 2.0 * dist / code.m) ** 2
        tolerance = 6.0 * math.sqrt(p * (1.0 - p) / trials) + 1.0 / trials
        if abs(cheating - p) > tolerance:
            problems.append(f"false unveil accepted at rate {cheating}, expected {p:.4f}")
        return problems

    return Op("accept-rate", "accept-rate", run, check, lambda result: repr(result[1:]))


def build(workload: str, seed: int) -> list[Op]:
    """The operations of one pass of ``workload`` (a key of SIZES), drawn
    from ``seed``."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    if workload == "worked":
        paper = circuits.PriceScenario(**PAPER_EXAMPLE)
        ops = [_honest_op(paper, 6, _seed(rng), "paper-example")]
        for N in (5, 6, 7):
            ops.append(_honest_op(_scenario(rng, N, 3), 6, _seed(rng), f"N={N}"))
        return ops
    if workload == "deep-t":
        return [_honest_op(_scenario(rng, N, 2), t, _seed(rng), f"N={N} t={t}")
                for N, t in ((2, 10), (2, 11), (3, 11), (3, 11))]
    if workload == "wide-d":
        return [_honest_op(_scenario(rng, N, 5), 2, _seed(rng), f"N={N}") for N in (2, 3)]
    scenario = _scenario(rng, 6, 3)
    code = orthogonal_code(scenario.n)
    ops = [_adversarial_op(scenario, cheater, behavior, code, _seed(rng))
           for behavior in ("measure-and-cheat", "false-unveil")
           for cheater in ("alice", "bob")]
    ops += [_holevo_op(_scenario(rng, 6, 5), "alice"), _holevo_op(_scenario(rng, 7, 6), "bob")]
    ops += [_attack_op(scenario, victim, 2000, _seed(rng)) for victim in ("alice", "bob")]
    ops.append(_accept_rate_op(scenario.n, int(rng.integers(0, scenario.N + 1)), 4000, _seed(rng)))
    return ops
