import json
import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_scenario
from helpers import dense_state
from q3pen.circuits import PriceScenario, brute_force_count, comparison_layout
from q3pen.commitment import empirical_accept_rate, fingerprint_state, parity_repetition_code
from q3pen import circuits, counting, protocol
from q3pen.counting import CountingParams, outcome_to_theta, phase_register_distribution, theta_to_count
from q3pen.protocol import (
    NegotiationTranscript,
    load_received_state,
    measurement_attack_statistics,
    prepare_announced_state,
    run_negotiation,
    run_with_adversary,
    transcript_costs,
)
from q3pen.statevec import CapacityError, Gate, inner_product, sample_outcomes

PARAMS = CountingParams(t=6, shots=11)


# ---------------------------------------------------------------------------
# honest runs


def test_worked_example_trades(worked_example):
    tr = run_negotiation(worked_example, PARAMS, master_seed=42)
    assert tr.t_A.m_hat == 5
    assert tr.t_B.m_hat == 5
    assert tr.consistent
    assert tr.trade
    assert tr.verifications == {"bob_accepts_alice": True, "alice_accepts_bob": True}


def test_raised_threshold_cancels_trade(worked_example):
    sc = PriceScenario(A=worked_example.A, B=worked_example.B, epsilon=6)
    tr = run_negotiation(sc, PARAMS, master_seed=42)
    assert tr.t_A.m_hat == 5 and tr.t_B.m_hat == 5
    assert not tr.trade


def test_nothing_marked_means_no_trade():
    sc = PriceScenario(A=(0, 1, 2), B=(1, 2, 3), epsilon=1)
    tr = run_negotiation(sc, CountingParams(t=5, shots=5), master_seed=3)
    assert tr.t_A.m_hat == 0 and tr.t_B.m_hat == 0
    assert tr.consistent  # both agree on zero
    assert not tr.trade


def test_estimates_are_symmetric_under_good_precision():
    rng = np.random.default_rng(41)
    for _ in range(6):
        sc = random_scenario(rng, max_n=6, max_price=3)
        tr = run_negotiation(sc, CountingParams(t=8, shots=11),
                             master_seed=int(rng.integers(2**31)))
        assert tr.t_A.m_hat == tr.t_B.m_hat == brute_force_count(sc)


def test_trade_verdict_matches_classical_verdict():
    rng = np.random.default_rng(99)
    for _ in range(6):
        sc = random_scenario(rng, max_n=6, max_price=3)
        tr = run_negotiation(sc, CountingParams(t=8, shots=11),
                             master_seed=int(rng.integers(2**31)))
        assert tr.trade == (brute_force_count(sc) >= sc.epsilon)


def test_transcript_deterministic_per_seed(worked_example):
    a = run_negotiation(worked_example, PARAMS, master_seed=7).to_json()
    b = run_negotiation(worked_example, PARAMS, master_seed=7).to_json()
    assert a == b
    c = run_negotiation(worked_example, PARAMS, master_seed=8).to_json()
    assert a != c


def test_counting_params_seed_does_not_reach_a_negotiation(worked_example):
    # each count is seeded from the master seed, so params.rng_seed changes nothing
    for run in (run_negotiation,
                lambda *args, **kwargs: run_with_adversary(worked_example, "bob", "false-unveil",
                                                           *args[1:], **kwargs)):
        jsons = {run(worked_example, replace(PARAMS, rng_seed=seed), master_seed=7).to_json()
                 for seed in (1, 2)}
        assert len(jsons) == 1


def test_transcript_timings_recorded(worked_example, monkeypatch):
    tr = run_negotiation(worked_example, PARAMS, master_seed=1)
    assert set(tr.timings) == {1, 2, 3, 4, 5, 6}
    assert all(v >= 0 for v in tr.timings.values())
    # wall times stay out of the serialized form
    assert "timings" not in tr.to_dict()
    # each step is its own measurement: with a clock that advances one unit
    # per reading, every step (Steps 2 and 3 included) spans exactly one unit
    ticks = iter(range(10**6))
    monkeypatch.setattr(protocol.time, "perf_counter", lambda: float(next(ticks)))
    for tr in (run_negotiation(worked_example, PARAMS, master_seed=1),
               run_with_adversary(worked_example, "bob", "measure-and-cheat", PARAMS)):
        assert tr.timings == {step: 1.0 for step in range(1, 7)}


# ---------------------------------------------------------------------------
# Steps 2-4 on the held state


def test_negotiation_builds_each_circuit_once(worked_example, monkeypatch):
    # A scenario compiles each role's price table once, when it is built, and
    # no negotiation compiles a price list again: Steps 1-3 wrap the tables.
    # The flag oracle (the comparator) of each announcer is built once per
    # register shape, and no gate is built to load prices.
    calls = Counter()
    for name in ("price_table", "build_comparator"):
        def counted(*args, _name=name, _build=getattr(circuits, name), **kwargs):
            calls[_name] += 1
            return _build(*args, **kwargs)
        monkeypatch.setattr(circuits, name, counted)

    class CountedGate(Gate):
        __slots__ = ()

        def __new__(cls, *args, **kwargs):
            calls["Gate"] += 1
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(circuits, "Gate", CountedGate)
    circuits.flag_oracle.cache_clear()
    try:
        scenario = PriceScenario(A=worked_example.A, B=worked_example.B,
                                 epsilon=worked_example.epsilon)
        assert calls == {"price_table": 2}
        calls.clear()
        run_negotiation(scenario, PARAMS, master_seed=1)
        assert set(calls) == {"build_comparator", "Gate"} and calls["build_comparator"] == 2
        calls.clear()
        run_negotiation(scenario, PARAMS, master_seed=2)
        assert calls == {}  # no table, no oracle, no Gate
    finally:
        circuits.flag_oracle.cache_clear()  # drop the oracles built from CountedGate


@pytest.mark.parametrize("cheater", ["alice", "bob"])
def test_collapsed_state_is_not_counted(worked_example, monkeypatch, cheater):
    announcers = []

    def counted(*args, _count=counting.quantum_count, **kwargs):
        announcers.append(kwargs["announced_by"])
        return _count(*args, **kwargs)

    monkeypatch.setattr(counting, "quantum_count", counted)
    calls = Counter()
    for module, name in ((protocol, "load_received_state"), (protocol, "write_comparison_flag"),
                         (circuits, "price_table")):
        def called(*args, _name=name, _call=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)
        monkeypatch.setattr(module, name, called)
    tr = run_with_adversary(worked_example, cheater, "measure-and-cheat", PARAMS, master_seed=4)
    # only the honest party counts: the state the cheater announced
    assert announcers == [cheater]
    assert tr.estimates[cheater].outcomes == ()
    # nor does the collapsed state go through Steps 2-3; no step compiles a
    # price list, since the scenario holds both tables
    assert calls == {"load_received_state": 1, "write_comparison_flag": 1}


def test_negotiation_allocates_no_working_register():
    # 18 working qubits: one dense register would take 4 MiB
    sc = PriceScenario(A=(31, 5, 17), B=(12, 30, 1), epsilon=1)
    work = comparison_layout(sc, "alice").num_qubits
    run_negotiation(sc, CountingParams(t=2), master_seed=1)  # first-call imports
    tracemalloc.start()
    try:
        run_negotiation(sc, CountingParams(t=2), master_seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << work


def test_negotiation_allocates_no_announcement_register():
    # prices of 18 bits: a dense announced state of 2 + 18 qubits would take
    # 16 MiB; Steps 1-3 keep the 3 basis indices of its support
    sc = PriceScenario(A=(2**18 - 1, 5, 17), B=(12, 2**17, 1), epsilon=1)
    announced = sc.n + sc.d
    params = CountingParams(t=8)
    run_negotiation(sc, params, master_seed=1)  # first-call imports, caches
    tracemalloc.start()
    try:
        tr = run_negotiation(sc, params, master_seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << announced
    assert tr.t_A.m_hat == tr.t_B.m_hat == brute_force_count(sc)


def test_received_state_is_checked(worked_example):
    state = prepare_announced_state(worked_example, "alice")
    with pytest.raises(ValueError, match="announcement has"):
        load_received_state(worked_example, "alice", prepare_announced_state(
            PriceScenario(A=(9,), B=(1,), epsilon=1), "alice"))
    state.amplitudes[state.amplitudes != 0] *= 2.0
    with pytest.raises(ValueError, match="norm"):
        load_received_state(worked_example, "alice", state)


def test_received_state_with_nan_amplitudes_is_refused(worked_example):
    state = prepare_announced_state(worked_example, "alice")
    state.amplitudes[0] = np.nan
    with pytest.raises(ValueError, match="received state norm nan deviates"):
        load_received_state(worked_example, "alice", state)


# ---------------------------------------------------------------------------
# message accounting


def test_worked_example_costs(worked_example):
    tr = run_negotiation(worked_example, PARAMS, master_seed=42)
    costs = transcript_costs(tr)
    assert (costs.qubits, costs.cbits) == (12, 6)  # 2(n+d), 2n at n = d = 3
    code_m = tr.params_summary["code_m"]
    assert costs.fingerprint_qubits == 2 * int(np.ceil(np.log2(code_m)))


def test_smallest_scenario_costs():
    sc = PriceScenario(A=(1,), B=(1,), epsilon=1)
    tr = run_negotiation(sc, CountingParams(t=4, shots=3), master_seed=0)
    costs = transcript_costs(tr)
    assert (costs.qubits, costs.cbits) == (4, 2)  # n = d = 1


def test_doubling_price_width_adds_two_qubits_per_bit():
    base = PriceScenario(A=(3, 1), B=(2, 2), epsilon=1)          # d = 2
    wide = PriceScenario(A=(15, 1), B=(2, 2), epsilon=1)         # d = 4
    params = CountingParams(t=4, shots=3)
    c0 = transcript_costs(run_negotiation(base, params, master_seed=0))
    c1 = transcript_costs(run_negotiation(wide, params, master_seed=0))
    assert c1.qubits - c0.qubits == 2 * (4 - 2)
    assert c1.cbits == c0.cbits


def test_incomplete_transcript_refuses_costs():
    tr = NegotiationTranscript(scenario_summary={}, params_summary={})
    with pytest.raises(RuntimeError):
        transcript_costs(tr)


def test_privacy_ledger_of_classical_traffic(worked_example):
    # the only classical payloads are the two n-bit count unveils
    tr = run_negotiation(worked_example, PARAMS, master_seed=11)
    classical = [m for m in tr.messages if m.kind == "classical-bits"]
    assert len(classical) == 2
    assert all(m.label == "unveil" and m.cbit_cost == worked_example.n for m in classical)
    quantum = [m for m in tr.messages if m.kind == "quantum-state"]
    assert all(m.value is None for m in quantum)


def test_transcript_json_round_trip(worked_example):
    tr = run_negotiation(worked_example, PARAMS, master_seed=5)
    doc = json.loads(tr.to_json())
    assert doc["schema"] == "q3pen.transcript/2"
    assert doc["t_A"] == 5 and doc["t_B"] == 5 and doc["trade"] is True
    assert doc["costs"] == {"qubits": 12, "cbits": 6,
                            "fingerprint_qubits": transcript_costs(tr).fingerprint_qubits}
    steps = [m["step"] for m in doc["messages"]]
    assert steps == sorted(steps)


def test_capacity_guard(worked_example):
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="bytes"):
            run_negotiation(worked_example, CountingParams(t=22))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # refused before the 64 MiB rows array is allocated


def test_negotiation_counts_thirty_thousand_products_exactly():
    # N = 30000, d = 10: 46 working qubits, and an N x N iterate would take
    # 14 GB; counting in the plane transforms 2**18 x 2 real rows (4 MiB)
    rng = np.random.default_rng(5)
    A, B = (tuple(int(p) for p in rng.integers(0, 1 << 10, size=30000)) for _ in range(2))
    sc = PriceScenario(A=A, B=B, epsilon=1)
    assert (sc.n, sc.d) == (15, 10)
    code = parity_repetition_code(sc.n)  # make_random_code finds no code for n >= 9
    tracemalloc.start()
    try:
        tr = run_negotiation(sc, CountingParams(t=18), code=code, master_seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tr.t_A.m_hat == tr.t_B.m_hat == brute_force_count(sc)
    assert peak < 48 << 20


# ---------------------------------------------------------------------------
# party hygiene


def test_party_validation():
    sc = PriceScenario(A=(1,), B=(1,), epsilon=1)
    with pytest.raises(ValueError, match="unknown party 'carol'"):
        run_with_adversary(sc, "carol", "honest")
    with pytest.raises(ValueError, match="unknown behavior 'improvise'"):
        run_with_adversary(sc, "bob", "improvise")


# ---------------------------------------------------------------------------
# adversaries


def test_honest_adversary_is_degenerate(worked_example):
    honest = run_negotiation(worked_example, PARAMS, master_seed=21)
    via_harness = run_with_adversary(worked_example, "bob", "honest", PARAMS, master_seed=21)
    assert via_harness.adversary["detected"] is False
    assert via_harness.adversary["learned"] is None
    assert via_harness.trade == honest.trade
    assert via_harness.t_A.m_hat == honest.t_A.m_hat


def test_measurement_attack_learns_exactly_one_valid_pair(worked_example):
    for seed in range(8):
        tr = run_with_adversary(worked_example, "bob", "measure-and-cheat",
                                PARAMS, master_seed=seed)
        learned = tr.adversary["learned"]
        i = learned["index"]
        assert 1 <= i <= 6
        assert learned["price"] == worked_example.A[i - 1]


def test_measurement_attack_statistics(worked_example):
    stats = measurement_attack_statistics(worked_example, trials=2000, seed=8)
    assert stats.pairs_valid
    assert sum(stats.index_counts.values()) == 2000
    for i in range(1, 7):
        assert abs(stats.frequency(i) - 1 / 6) < 0.03


@pytest.mark.parametrize("victim", ["alice", "bob"])
def test_measurement_attack_statistics_match_dense_sampling(worked_example, victim):
    # the same uniforms, drawn over the dense register's probabilities
    stats = measurement_attack_statistics(worked_example, trials=2000, seed=8, victim=victim)
    dense = dense_state(prepare_announced_state(worked_example, victim))
    outcomes = sample_outcomes(dense.probabilities(), np.random.default_rng(8).random(2000))
    counts = np.bincount(outcomes & 7, minlength=7)
    assert stats.index_counts == {i: int(counts[i]) for i in range(1, 7)}


@pytest.mark.parametrize("index, price", [(0, 0), (7, 0), (4, 5)],
                         ids=["index-0", "index-above-N", "wrong-price"])
def test_measurement_attack_statistics_flags_invalid_pairs(worked_example, monkeypatch,
                                                           index, price):
    # one support entry of the replayed state is forged; with 2000 trials it
    # is observed (probability 1/6 each) and the pair check must reject it
    honest = prepare_announced_state(worked_example, "alice")
    indices = honest.indices.copy()
    indices[0] = index | price << worked_example.n
    forged = honest._replace(indices=np.sort(indices))
    monkeypatch.setattr(protocol, "prepare_announced_state", lambda *args, **kwargs: forged)
    assert not measurement_attack_statistics(worked_example, trials=2000, seed=8).pairs_valid


def test_parroting_cheater_is_caught_by_verification(worked_example):
    # the measuring cheater guesses at commit time, then parrots the honest
    # count at unveil time; with a mismatched commitment the verification
    # rejects with probability 1 - |<tau_g|tau_t>|^2
    detected = 0
    mismatch = 0
    for seed in range(30):
        tr = run_with_adversary(worked_example, "bob", "measure-and-cheat",
                                CountingParams(t=5, shots=5), master_seed=seed)
        assert tr.adversary["unveiled"] == tr.t_A.m_hat  # parroted
        if tr.adversary["committed"] != tr.adversary["unveiled"]:
            mismatch += 1
            detected += tr.adversary["detected_by"]["verification"]
        assert tr.consistent  # parroting always passes the consistency check
    assert mismatch > 10
    assert detected / mismatch > 0.5


def test_false_unveil_detection_rate_matches_overlap():
    sc = PriceScenario(A=(1, 0, 1), B=(0, 1, 1), epsilon=2)  # true count 2
    code = parity_repetition_code(sc.n)
    committed, unveiled = 2, 3
    expected_accept = abs(inner_product(fingerprint_state(committed, code),
                                        fingerprint_state(unveiled, code))) ** 2
    assert expected_accept == pytest.approx(0.25)

    # measurement-sampling oracle at full precision
    rate = empirical_accept_rate(committed, unveiled, code, trials=10_000, seed=3)
    assert abs(rate - expected_accept) < 0.02

    # the full protocol loop reproduces it within a coarser Monte Carlo band.
    # At t = 4 a median of 3 shots misses the true count with a small exact
    # probability: theta_to_count is monotone, so the median shot's count is
    # the median count, which misses when 2 or 3 of the shots land on one side.
    params = CountingParams(t=4, shots=3)
    probs = phase_register_distribution(sc, params.t, "alice")  # what bob counts
    counts = np.array([theta_to_count(outcome_to_theta(w, params.t), sc.N)
                       for w in range(1 << params.t)])
    p_miss = sum(3 * p**2 - 2 * p**3 for p in (probs[counts < committed].sum(),
                                               probs[counts > committed].sum()))
    # a single shot is right with probability 0.943, 0.036 low and 0.022 high
    assert p_miss == pytest.approx(0.00510, abs=1e-5)
    runs = 400
    # the smallest bound a Binomial(400, p_miss) count exceeds with
    # probability under 1e-6: 12 misses (2.0 expected)
    pmf = [math.comb(runs, j) * p_miss**j * (1 - p_miss) ** (runs - j) for j in range(runs + 1)]
    bound = next(k for k in range(runs + 1) if sum(pmf[k + 1 :]) < 1e-6)
    assert bound == 12
    caught = exact = 0
    for seed in range(runs):
        tr = run_with_adversary(sc, "bob", "false-unveil", params, code=code,
                                master_seed=seed, false_unveil_value=unveiled)
        assert tr.adversary["unveiled"] == unveiled
        if tr.adversary["committed"] == committed:  # detection is measured on exact runs
            exact += 1
            caught += tr.adversary["detected_by"]["verification"]
    assert runs - exact <= bound
    assert abs(caught / exact - (1 - expected_accept)) < 0.08


def test_false_unveil_by_alice_detected_by_bob():
    sc = PriceScenario(A=(3, 3), B=(1, 1), epsilon=1)
    tr = run_with_adversary(sc, "alice", "false-unveil",
                            CountingParams(t=5, shots=5), master_seed=2)
    assert tr.adversary["party"] == "alice"
    assert tr.adversary["unveiled"] != tr.adversary["committed"]
    assert tr.unveiled["alice"] == tr.adversary["unveiled"]


def test_announced_state_structure(worked_example):
    state = prepare_announced_state(worked_example, "bob")
    support = state.indices[np.abs(state.amplitudes) > 1e-12]
    assert len(support) == 6
    n = worked_example.n
    pairs = {(int(x) & ((1 << n) - 1), int(x) >> n) for x in support}
    assert pairs == {(i, b) for i, b in enumerate(worked_example.B, start=1)}
    # sent as its support: n + d qubits, ascending indices, amplitude 1/sqrt(N)
    assert state.num_qubits == n + worked_example.d
    assert np.all(np.diff(state.indices) > 0)
    assert np.array_equal(state.amplitudes, np.full(6, 1 / np.sqrt(6), dtype=complex))
