import math

import numpy as np
import pytest

from helpers import (
    apply_gate,
    dense_gate_matrix,
    dense_state,
    extend_with_zeros,
    measure,
    prepare_amplitudes,
)
from q3pen.statevec import (
    Gate,
    RegisterLayout,
    Segment,
    StateVector,
    inner_product,
    prepare_basis,
    von_neumann_entropy,
)


# ---------------------------------------------------------------------------
# state preparation


def test_prepare_basis_single_qubit():
    s = prepare_basis(1, 0)
    assert np.allclose(s.amplitudes, [1, 0])


def test_prepare_basis_two_qubits():
    s = prepare_basis(2, 3)
    assert np.allclose(s.amplitudes, [0, 0, 0, 1])


def test_prepare_basis_rejects_out_of_range():
    with pytest.raises(ValueError):
        prepare_basis(3, 8)


def test_prepare_amplitudes_uniform_over_six_indices():
    amps = np.zeros(8)
    amps[1:7] = 1.0 / math.sqrt(6)
    s = prepare_amplitudes(3, amps)
    assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-12
    assert np.allclose(np.abs(s.amplitudes[1:7]) ** 2, 1 / 6)
    assert s.amplitudes[0] == 0 and s.amplitudes[7] == 0


def test_prepare_amplitudes_identity():
    s = prepare_amplitudes(1, (1, 0))
    assert np.allclose(s.amplitudes, [1, 0])


def test_prepare_amplitudes_rejects_zero_vector():
    with pytest.raises(ValueError):
        prepare_amplitudes(2, (0, 0, 0, 0))


def test_prepare_amplitudes_renormalizes():
    s = prepare_amplitudes(1, (3, 4))
    assert np.allclose(s.amplitudes, [0.6, 0.8])


# ---------------------------------------------------------------------------
# gates


def test_not_gate_flips_qubit():
    s = apply_gate(prepare_basis(1, 0), Gate(0))
    assert np.allclose(s.amplitudes, [0, 1])


def test_toffoli_truth_table():
    # |110> = 6 with controls on qubits 1 and 2 flips qubit 0 -> |111>
    tof = Gate(0, controls=[(1, 1), (2, 1)])
    s = apply_gate(prepare_basis(3, 6), tof)
    assert np.allclose(s.amplitudes, np.eye(8)[7])
    # control not satisfied: |010> stays put
    s = apply_gate(prepare_basis(3, 2), tof)
    assert np.allclose(s.amplitudes, np.eye(8)[2])


def test_negative_control_not_is_self_inverse():
    # independent check by direct matrix multiplication
    gate = Gate(1, controls=[(0, 0)])
    mat = dense_gate_matrix(gate, 2)
    assert np.max(np.abs(mat @ mat - np.eye(4))) < 1e-12

    rng = np.random.default_rng(11)
    raw = rng.normal(size=4) + 1j * rng.normal(size=4)
    state = prepare_amplitudes(2, raw)
    twice = apply_gate(apply_gate(state, gate), gate)
    assert np.max(np.abs(twice.amplitudes - state.amplitudes)) < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_gate_application_matches_dense_matrix(seed):
    rng = np.random.default_rng(seed)
    q = 4
    state = prepare_amplitudes(q, rng.normal(size=1 << q) + 1j * rng.normal(size=1 << q))
    qubits = list(rng.permutation(q))
    target = qubits[0]
    controls = [(qubits[1], int(rng.integers(2))), (qubits[2], int(rng.integers(2)))]
    gate = Gate(target, controls)
    expected = dense_gate_matrix(gate, q) @ state.amplitudes
    got = apply_gate(state, gate).amplitudes
    assert np.max(np.abs(got - expected)) < 1e-12


def test_gate_rejects_overlapping_indices():
    with pytest.raises(ValueError):
        Gate(0, controls=[(0, 1)])


def test_gate_rejects_negative_qubits_and_bad_polarities():
    for target, controls in [(-1, ()), (0, [(-2, 1)]), (0, [-2]), (0, [(1, 2)]), (0, [(1, -1)])]:
        with pytest.raises(ValueError):
            Gate(target, controls)


def test_gate_mask_and_value_follow_controls():
    gate = Gate(2, [(0, 1), 3, (4, 0)])
    assert gate.controls == ((0, 1), (3, 1), (4, 0))
    assert (gate.mask, gate.value) == (0b11001, 0b01001)
    assert (Gate(5).mask, Gate(5).value) == (0, 0)
    # the fields are read-only, and the mask and value cannot be given
    with pytest.raises(AttributeError):
        gate.mask = 0
    with pytest.raises(TypeError):
        Gate(2, [(0, 1)], 0, 0)


def test_apply_gate_rejects_out_of_range_target():
    with pytest.raises(ValueError):
        apply_gate(prepare_basis(2, 0), Gate(5))


def test_norm_preserved_over_random_circuits():
    rng = np.random.default_rng(3)
    q = 5
    state = prepare_amplitudes(q, rng.normal(size=1 << q) + 1j * rng.normal(size=1 << q))
    for _ in range(60):
        target = int(rng.integers(q))
        others = [x for x in range(q) if x != target]
        ctrl = [(int(rng.choice(others)), int(rng.integers(2)))]
        state = apply_gate(state, Gate(target, ctrl))
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-10


def test_unitarity_round_trip():
    rng = np.random.default_rng(4)
    q = 4
    gates = []
    for _ in range(40):
        target = int(rng.integers(q))
        others = [x for x in range(q) if x != target]
        ctrl = [(int(rng.choice(others)), int(rng.integers(2)))]
        gates.append(Gate(target, ctrl))
    state = prepare_amplitudes(q, rng.normal(size=1 << q) + 1j * rng.normal(size=1 << q))
    out = state
    for g in gates:
        out = apply_gate(out, g)
    for g in reversed(gates):  # a NOT is its own inverse
        out = apply_gate(out, g)
    assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-9


# ---------------------------------------------------------------------------
# measurement


def test_measure_definite_state():
    outcome, collapsed = measure(prepare_basis(3, 5), Segment("all", 0, 3), rng=0)
    assert outcome == 5
    assert np.allclose(collapsed.amplitudes, np.eye(8)[5])


def test_measure_index_register_of_announced_state(worked_example):
    from q3pen.protocol import prepare_announced_state

    state = dense_state(prepare_announced_state(worked_example, "alice"))
    layout_index = Segment("index", 0, worked_example.n)
    rng = np.random.default_rng(123)
    seen = set()
    for _ in range(200):
        outcome, collapsed = measure(state, layout_index, rng)
        assert 1 <= outcome <= 6
        seen.add(outcome)
        # collapse keeps only the matching index, price register intact
        support = np.nonzero(np.abs(collapsed.amplitudes) > 1e-12)[0]
        assert len(support) == 1
    assert seen == {1, 2, 3, 4, 5, 6}


def test_measure_frequencies_within_binomial_band(worked_example):
    # 60000 seeded trials; 1/6 +- 0.01 is a ~6.6 sigma band
    from q3pen.protocol import prepare_announced_state

    state = dense_state(prepare_announced_state(worked_example, "alice"))
    seg = Segment("index", 0, worked_example.n)
    rng = np.random.default_rng(2024)
    counts = np.zeros(8, dtype=int)
    for _ in range(60000):
        outcome, _ = measure(state, seg, rng)
        counts[outcome] += 1
    freqs = counts / 60000
    for i in range(1, 7):
        assert abs(freqs[i] - 1 / 6) < 0.01


def test_measure_deterministic_per_seed():
    state = prepare_amplitudes(3, np.ones(8))
    seq1 = [measure(state, Segment("all", 0, 3), rng=77)[0] for _ in range(10)]
    seq2 = [measure(state, Segment("all", 0, 3), rng=77)[0] for _ in range(10)]
    assert seq1 == seq2


def test_measure_rejects_empty_or_oversized_segment():
    state = prepare_basis(2, 0)
    with pytest.raises(ValueError):
        measure(state, (0, 0), rng=0)
    with pytest.raises(ValueError):
        measure(state, (1, 5), rng=0)


# ---------------------------------------------------------------------------
# inner products / entropy


def test_inner_product_of_state_with_itself():
    rng = np.random.default_rng(9)
    s = prepare_amplitudes(3, rng.normal(size=8) + 1j * rng.normal(size=8))
    assert abs(inner_product(s, s) - 1.0) < 1e-12


def test_inner_product_orthogonal_basis_states():
    assert inner_product(prepare_basis(1, 0), prepare_basis(1, 1)) == 0


def test_inner_product_size_mismatch():
    with pytest.raises(ValueError):
        inner_product(prepare_basis(1, 0), prepare_basis(2, 0))


def test_inner_product_of_half_distance_phase_states():
    # +-1 phase patterns differing on exactly half the positions: overlap 0
    m = 8
    a = np.ones(m) / math.sqrt(m)
    b = a.copy()
    b[:m // 2] *= -1
    assert abs(inner_product(prepare_amplitudes(3, a), prepare_amplitudes(3, b))) < 1e-10


def test_entropy_of_pure_state_is_zero():
    a = prepare_basis(2, 1).amplitudes
    rho = np.outer(a, a.conj())
    assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)


def test_entropy_of_maximally_mixed_qubit():
    assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)


def test_entropy_of_rank6_uniform_mixture(worked_example):
    # mixture of the six orthogonal (index, price) projectors
    n, d = worked_example.n, worked_example.d
    dim = 1 << (n + d)
    rho = np.zeros((dim, dim), dtype=complex)
    for i, a in enumerate(worked_example.A, start=1):
        x = i | (a << n)
        rho[x, x] += 1 / 6
    assert von_neumann_entropy(rho) == pytest.approx(math.log2(6), abs=1e-9)


def test_entropy_validates_input():
    with pytest.raises(ValueError):
        von_neumann_entropy(np.array([[0, 1], [0, 0]]))  # not Hermitian
    with pytest.raises(ValueError):
        von_neumann_entropy(np.eye(2))  # trace 2


def test_entropy_rejects_a_nan_matrix():
    with pytest.raises(ValueError, match="not Hermitian"):
        von_neumann_entropy(np.full((2, 2), np.nan))


def test_entropy_rejects_a_nan_trace():
    # a real diagonal, so Hermitian, whose trace is NaN: numpy sums it in
    # interleaved partial sums, one overflowing to +inf and one to -inf
    big = np.finfo(np.float64).max
    rho = np.diag([big, -big] * 4)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(np.trace(rho.astype(np.complex128)))
        with pytest.raises(ValueError, match="trace .* is not 1"):
            von_neumann_entropy(rho)


def test_entropy_bounds_for_random_density_matrices():
    rng = np.random.default_rng(5)
    q = 3
    dim = 1 << q
    for _ in range(20):
        k = int(rng.integers(1, 5))
        weights = rng.dirichlet(np.ones(k))
        rho = np.zeros((dim, dim), dtype=complex)
        for w in weights:
            v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            v /= np.linalg.norm(v)
            rho += w * np.outer(v, v.conj())
        s = von_neumann_entropy(rho)
        assert -1e-9 <= s <= q + 1e-9


def test_entropy_on_support_equals_full_eigensolve():
    # a mixed state on scattered basis states, zero elsewhere: the eigensolve
    # on the nonzero rows and columns gives the full matrix's entropy
    rng = np.random.default_rng(11)
    dim = 64
    for _ in range(10):
        support = rng.choice(dim, size=int(rng.integers(1, 9)), replace=False)
        v = rng.normal(size=(support.size, 3)) + 1j * rng.normal(size=(support.size, 3))
        block = v @ v.conj().T
        rho = np.zeros((dim, dim), dtype=complex)
        rho[np.ix_(support, support)] = block / np.trace(block).real
        evals = np.linalg.eigvalsh(rho)
        evals = evals[evals > 1e-12]
        assert von_neumann_entropy(rho) == pytest.approx(-(evals * np.log2(evals)).sum(), abs=1e-9)
    # the checks still read the whole matrix, zero block included
    rho = np.zeros((dim, dim), dtype=complex)
    rho[3, 3] = 1.0
    rho[7, 40] = 1e-6
    with pytest.raises(ValueError):
        von_neumann_entropy(rho)  # not Hermitian outside the support
    rho[7, 40] = rho[40, 7] = 0.5  # zero diagonal there: eigenvalues +-0.5
    with pytest.raises(ValueError, match="negative eigenvalue"):
        von_neumann_entropy(rho)


# ---------------------------------------------------------------------------
# layout plumbing


def test_layout_segments_are_packed_and_disjoint():
    lay = RegisterLayout(("index", 3), ("priceA", 3), ("flag", 1))
    assert lay["index"].offset == 0
    assert lay["priceA"].offset == 3
    assert lay["flag"].offset == 6
    assert lay.num_qubits == 7
    assert lay["priceA"].value(0b1_101_010) == 0b101


def test_layout_rejects_duplicates():
    with pytest.raises(ValueError):
        RegisterLayout(("a", 1), ("a", 2))


def test_extend_with_zeros_keeps_amplitudes():
    s = prepare_amplitudes(2, (0.6, 0, 0.8, 0))
    big = extend_with_zeros(s, 2)
    assert big.num_qubits == 4
    assert np.allclose(big.amplitudes[:4], s.amplitudes)
    assert np.allclose(big.amplitudes[4:], 0)


def test_statevector_rejects_unnormalized():
    with pytest.raises(ValueError):
        StateVector(1, np.array([1.0, 1.0]))


def test_statevector_rejects_nan_amplitudes():
    with pytest.raises(ValueError, match="state norm nan deviates"):
        StateVector(1, np.array([np.nan, 0.0]))
