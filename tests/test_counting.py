import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_scenario
from helpers import GroverIterate, plane_fft_distribution
from q3pen.circuits import PriceScenario, brute_force_count, comparison_layout
from q3pen.counting import (
    MAX_T,
    CountingParams,
    build_state_preparation,
    error_bound,
    honest_held_state,
    outcome_to_theta,
    phase_register_distribution,
    quantum_count,
    theta_to_count,
    uniform_index_unitary,
)
from q3pen.statevec import CapacityError, prepare_basis, sample_outcomes


def marked_weight(prep, state):
    flag = prep.layout["flag"]
    idx = np.arange(state.dim)
    mask = ((idx >> flag.offset) & 1) == 1
    return float(np.sum(np.abs(state.amplitudes[mask]) ** 2))


# ---------------------------------------------------------------------------
# the iterate


def test_index_unitary_is_self_inverse_and_prepares_uniform():
    w = uniform_index_unitary(3, 6)
    assert np.max(np.abs(w @ w - np.eye(8))) < 1e-12
    col = w @ np.eye(8)[0]
    assert np.allclose(col[1:7], 1 / math.sqrt(6))
    assert abs(col[0]) < 1e-12 and abs(col[7]) < 1e-12


def test_iterate_on_unmarked_state_is_global_phase():
    # nothing marked: Q acts as -identity on the prepared state
    sc = PriceScenario(A=(0, 0, 0), B=(1, 1, 1), epsilon=1)
    prep = build_state_preparation(sc)
    q = GroverIterate(prep, prep.layout["flag"].offset)
    psi = prep.apply(prepare_basis(prep.num_qubits, 0))
    out = q.apply(psi)
    phase = np.vdot(psi.amplitudes, out.amplitudes)
    assert abs(abs(phase) - 1.0) < 1e-9
    assert np.max(np.abs(out.amplitudes - phase * psi.amplitudes)) < 1e-9


def test_iterate_rotation_angle_matches_marked_fraction(worked_example):
    # weight of the marked subspace after k iterations follows
    # sin^2((2k+1) theta) with sin^2(theta) = M/N = 5/6
    prep = build_state_preparation(worked_example)
    q = GroverIterate(prep, prep.layout["flag"].offset)
    theta = math.asin(math.sqrt(5 / 6))
    state = prep.apply(prepare_basis(prep.num_qubits, 0))
    assert marked_weight(prep, state) == pytest.approx(5 / 6, abs=1e-9)
    for k in range(1, 6):
        state = q.apply(state)
        assert marked_weight(prep, state) == pytest.approx(
            math.sin((2 * k + 1) * theta) ** 2, abs=1e-9), k


def test_iterate_power_matches_dense_matrix_power():
    sc = PriceScenario(A=(1, 0), B=(0, 1), epsilon=1)  # 6 system qubits
    prep = build_state_preparation(sc)
    q = GroverIterate(prep, prep.layout["flag"].offset)
    mat = np.stack([q.apply_to_array(col) for col in np.eye(1 << q.num_qubits, dtype=complex)],
                   axis=1)
    assert np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0]))) < 1e-9
    power = np.linalg.matrix_power(mat, 16)
    psi = prep.apply(prepare_basis(prep.num_qubits, 0)).amplitudes
    repeated = psi.copy()
    for _ in range(16):
        repeated = q.apply_to_array(repeated)
    assert np.max(np.abs(power @ psi - repeated)) < 1e-8


def test_iterate_requires_invertible_preparation():
    with pytest.raises(ValueError):
        GroverIterate(object(), 0)


def test_iterate_rejects_bad_flag_qubit(worked_example):
    prep = build_state_preparation(worked_example)
    with pytest.raises(ValueError):
        GroverIterate(prep, prep.num_qubits + 3)


# ---------------------------------------------------------------------------
# phase-to-count conversion


def test_outcome_symmetry_maps_to_same_count():
    t, N = 6, 6
    for omega in range(1, 1 << t):
        a = theta_to_count(outcome_to_theta(omega, t), N)
        b = theta_to_count(outcome_to_theta((1 << t) - omega, t), N)
        assert a == b


def test_extreme_outcomes():
    t = 5
    assert theta_to_count(outcome_to_theta(0, t), 6) == 6          # eigenphase 0
    assert theta_to_count(outcome_to_theta(1 << (t - 1), t), 6) == 0  # eigenphase pi


# ---------------------------------------------------------------------------
# the error bound


def test_error_bound_tight_at_large_t():
    assert error_bound(20, 6, 5) < 0.5


def test_error_bound_single_product():
    for t in (1, 3, 9):
        assert error_bound(t, 1, 0) == pytest.approx(math.pi**2 / 4**t)


def test_error_bound_monotone_in_t():
    for N in (1, 6, 12):
        for m in (0, 1, N // 2, N):
            for t in range(1, 10):
                assert error_bound(t + 1, N, m) < error_bound(t, N, m)


def test_error_bound_validates():
    with pytest.raises(ValueError):
        error_bound(0, 6, 1)
    with pytest.raises(ValueError):
        error_bound(3, 6, -1)


# ---------------------------------------------------------------------------
# full counting runs


def test_worked_example_count(worked_example):
    est = quantum_count(worked_example, CountingParams(t=6, shots=11, rng_seed=42))
    assert est.m_hat == 5
    assert est.delta == error_bound(6, 6, 5)
    assert len(est.outcomes) == 11


def test_all_marked_scenario_counts_exactly():
    sc = PriceScenario(A=(3, 3, 3), B=(1, 2, 3), epsilon=1)
    for t in (3, 5, 7):
        est = quantum_count(sc, CountingParams(t=t, shots=1, rng_seed=0))
        assert est.m_hat == 3


def test_none_marked_scenario_counts_exactly():
    sc = PriceScenario(A=(0, 0, 0), B=(1, 1, 1), epsilon=1)
    for t in (3, 5, 7):
        est = quantum_count(sc, CountingParams(t=t, shots=1, rng_seed=0))
        assert est.m_hat == 0


def test_seed_determinism(worked_example):
    p = CountingParams(t=5, shots=7, rng_seed=99)
    assert quantum_count(worked_example, p) == quantum_count(worked_example, p)


def test_both_perspectives_agree(worked_example):
    p = CountingParams(t=6, shots=11, rng_seed=5)
    a = quantum_count(worked_example, p, announced_by="alice")
    b = quantum_count(worked_example, p, announced_by="bob")
    assert a.m_hat == b.m_hat == 5


def test_majority_vote_matches_brute_force_on_random_scenarios():
    # t = 8 keeps the error bound below 1/2 for N <= 6, so the median
    # estimate must reproduce the classical count
    rng = np.random.default_rng(777)
    for _ in range(12):
        sc = random_scenario(rng, max_n=6, max_price=3)
        est = quantum_count(sc, CountingParams(t=8, shots=11,
                                               rng_seed=int(rng.integers(2**31))))
        assert est.delta < (2 * math.pi * math.sqrt(6 * 6) / 2**8
                            + math.pi**2 * 6 / 2**16) + 1e-12
        assert est.m_hat == brute_force_count(sc), sc


def test_phase_distribution_concentrates_correctly(worked_example):
    # the two eigenphase peaks for M/N = 5/6 sit near omega = 8.57 and 55.43
    probs = phase_register_distribution(worked_example, t=6)
    top = np.argsort(probs)[-4:]
    assert set(top) <= {8, 9, 55, 56}
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_phase_distribution_counts_the_held_state(worked_example):
    # keep only the flag-set (or only the flag-clear) components of the
    # honest state: the held state is then all marked (phase 0, m_hat = N)
    # or all unmarked (phase pi, m_hat = 0), whatever the scenario says
    honest = honest_held_state(worked_example)
    flagged = ((honest.indices >> comparison_layout(worked_example, "alice")["flag"].offset) & 1) == 1
    t = 6
    for keep, omega in ((flagged, 0), (~flagged, 1 << (t - 1))):
        amps = honest.amplitudes[keep]
        held = honest._replace(indices=honest.indices[keep], amplitudes=amps / np.linalg.norm(amps))
        probs = phase_register_distribution(worked_example, t, held=held)
        assert probs[omega] == pytest.approx(1.0, abs=1e-12)


def test_capacity_guard(worked_example):
    assert CountingParams(t=MAX_T).t == MAX_T
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=f"{16 << (MAX_T + 1)} bytes"):
            CountingParams(t=MAX_T + 1)
        # callers that pass t directly are refused by the distribution itself
        with pytest.raises(CapacityError, match="bytes"):
            phase_register_distribution(worked_example, MAX_T + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # refused before the 64 MiB distribution and CDF are allocated


def test_a_count_holds_at_most_two_outcome_arrays(worked_example):
    # the 16 << t bytes the CapacityError message counts: the kernel, built in
    # place, and the law it is folded into; then the law and its CDF
    t = 16
    held = honest_held_state(worked_example)
    quantum_count(worked_example, CountingParams(t=t), held=held)  # first-call imports
    tracemalloc.start()
    try:
        quantum_count(worked_example, CountingParams(t=t), held=held)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 17 << t  # well short of a third 2**t float64 array


def test_held_state_norm_is_checked(worked_example):
    held = honest_held_state(worked_example)
    scaled = held._replace(amplitudes=1.01 * held.amplitudes)
    with pytest.raises(ValueError, match="held state norm"):
        phase_register_distribution(worked_example, 6, held=scaled)


def test_held_state_with_nan_amplitudes_is_refused(worked_example):
    held = honest_held_state(worked_example)
    held.amplitudes[0] = np.nan
    with pytest.raises(ValueError, match="held state norm nan deviates"):
        quantum_count(worked_example, held=held)


def fejer(delta, t):
    """The Fejer kernel ``|2**-t sum_k exp(2 pi i k delta / 2**t)|**2``."""
    size = 1 << t
    delta = (np.asarray(delta) + size / 2) % size - size / 2  # the kernel has period 2**t
    small = np.abs(delta) < 1e-9
    ratio = np.sin(np.pi * delta) / np.where(small, 1.0, size * np.sin(np.pi * delta / size))
    return np.where(small, 1.0, ratio**2)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3000), st.integers(1, 10), st.integers(0, 2**32 - 1), st.integers(1, 16),
       st.sampled_from(["alice", "bob"]))
@example(6, 3, 0, 16, "bob")
def test_honest_distribution_is_the_fejer_closed_form(N, d, seed, t, announced_by):
    # the honest state is an equal mix of the eigenvectors of phases
    # pi +/- 2*theta, sin^2(theta) = M/N (Nielsen and Chuang, section 5.2)
    rng = np.random.default_rng(seed)
    A, B = (tuple(int(p) for p in rng.integers(0, 1 << d, size=N)) for _ in range(2))
    sc = PriceScenario(A=A, B=B, epsilon=1)
    theta = math.asin(math.sqrt(brute_force_count(sc) / N))
    omega = np.arange(1 << t)
    closed = sum(0.5 * fejer(omega - (1 << t) * (math.pi + s * 2 * theta) / (2 * math.pi), t)
                 for s in (1, -1))
    probs = phase_register_distribution(sc, t, announced_by)
    assert np.max(np.abs(probs - closed)) < 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3000), st.integers(1, 10), st.integers(0, 2**32 - 1), st.integers(1, 16),
       st.sampled_from(["alice", "bob"]))
@example(6, 3, 0, 1, "alice")
@example(6, 3, 0, 2, "bob")
@example(6, 3, 0, MAX_T, "alice")
def test_closed_form_matches_the_plane_fft_reference(N, d, seed, t, announced_by):
    # the rows Q^k psi, transformed along the counting axis, are the joint
    # state of the phase register; the closed form must give their law
    rng = np.random.default_rng(seed)
    A, B = (tuple(int(p) for p in rng.integers(0, 1 << d, size=N)) for _ in range(2))
    sc = PriceScenario(A=A, B=B, epsilon=1)
    reference = plane_fft_distribution(brute_force_count(sc) / N, t)
    probs = phase_register_distribution(sc, t, announced_by)
    assert np.max(np.abs(probs - reference)) < 1e-9


@pytest.mark.parametrize("t", [1, 2, 6])
@pytest.mark.parametrize("A, B, turn", [((0, 0), (1, 1), 0.5),   # M = 0
                                        ((3, 3), (1, 2), 0.0),   # M = N
                                        ((3, 0), (1, 1), 0.25)])  # M = N / 2
def test_degenerate_phases_are_exact(A, B, turn, t):
    # the eigenphases are +/- turn * 2 pi; on the outcome grid each is a
    # point mass of 1/2, with no rounding left over anywhere
    sc = PriceScenario(A=A, B=B, epsilon=1)
    size = 1 << t
    probs = phase_register_distribution(sc, t)
    peaks = [turn * size, -turn * size]
    if all(p.is_integer() for p in peaks):
        expected = np.bincount([int(p) % size for p in peaks], minlength=size) / 2
        assert np.array_equal(probs, expected)
    else:  # a quarter turn at t = 1 lies halfway between the two outcomes
        assert np.max(np.abs(probs - 0.5)) < 1e-15
    assert abs(probs.sum() - 1.0) < 1e-15
    reference = plane_fft_distribution(brute_force_count(sc) / sc.N, t)
    assert np.max(np.abs(probs - reference)) < 1e-9


# ---------------------------------------------------------------------------
# sampling


@pytest.mark.parametrize("t, shots, seed", [(6, 11, 42), (8, 5, 7), (4, 1, 0), (10, 4, 2**31 - 2)])
def test_shots_are_one_stream_through_the_inverse_cdf(worked_example, t, shots, seed):
    est = quantum_count(worked_example, CountingParams(t=t, shots=shots, rng_seed=seed))
    probs = phase_register_distribution(worked_example, t)
    expected = sample_outcomes(probs, np.random.default_rng(seed).random(shots))
    assert est.outcomes == tuple(int(w) for w in expected)


def test_single_shots_follow_the_phase_distribution(worked_example):
    # one shot per count, one count per seed; the empirical distribution
    # over k = 2**t outcomes from n seeds exceeds L1 distance eps with
    # probability at most (2**k - 2) exp(-n eps**2 / 2) (Weissman, Ordentlich,
    # Seroussi, Verdu and Weinberger, HP Labs HPL-2003-97, 2003); the eps
    # below makes that under 1e-6: 0.158 in L1, a total variation of 0.079
    t, n = 4, 2000
    k = 1 << t
    eps = math.sqrt(2 * (k * math.log(2) + math.log(1e6)) / n)
    assert eps == pytest.approx(0.158, abs=5e-4)
    counts = np.zeros(k)
    for seed in range(n):
        est = quantum_count(worked_example, CountingParams(t=t, shots=1, rng_seed=seed))
        counts[est.outcomes[0]] += 1
    probs = phase_register_distribution(worked_example, t)
    assert np.abs(counts / n - probs).sum() < eps


def test_even_shots_take_the_mean_of_the_two_middle_thetas(worked_example):
    split = 0
    for seed in range(20):
        params = CountingParams(t=6, shots=4, rng_seed=seed)
        est = quantum_count(worked_example, params)
        thetas = sorted(outcome_to_theta(w, params.t) for w in est.outcomes)
        assert est.theta_hat == (thetas[1] + thetas[2]) / 2 == float(np.median(thetas))
        assert est.m_hat == theta_to_count(est.theta_hat, worked_example.N)
        split += thetas[1] != thetas[2]
    assert split > 0  # some seed's middle thetas differ, so the mean is tested
