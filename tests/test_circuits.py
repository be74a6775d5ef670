import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_scenario
from helpers import ancillas_clean, basis_component, dense_circuit_matrix, prepare_amplitudes
from q3pen.circuits import (
    OTHER,
    PriceOracle,
    PriceScenario,
    announcement_layout,
    as_int,
    brute_force_count,
    build_comparator,
    classical_f,
    comparison_layout,
    flag_oracle,
    prepare_announced_state,
)
from q3pen.counting import comparison_oracles
from q3pen.statevec import CapacityError, prepare_basis


# ---------------------------------------------------------------------------
# scenario validation


def test_widths_of_worked_example(worked_example):
    assert worked_example.N == 6
    assert worked_example.n == 3
    assert worked_example.d == 3
    assert brute_force_count(worked_example) == 5


def test_scenario_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        PriceScenario(A=(1, 2), B=(1,), epsilon=1)


def test_scenario_rejects_bad_threshold():
    with pytest.raises(ValueError):
        PriceScenario(A=(1,), B=(1,), epsilon=2)
    with pytest.raises(ValueError):
        PriceScenario(A=(1,), B=(1,), epsilon=0)


def test_scenario_rejects_negative_prices():
    with pytest.raises(ValueError):
        PriceScenario(A=(-1,), B=(0,), epsilon=1)


def test_zero_prices_still_get_a_register():
    sc = PriceScenario(A=(0, 0), B=(0, 0), epsilon=1)
    assert sc.d == 1


def elementwise_scenario(A, B, epsilon):
    """``(A, B, epsilon, n, d)`` of a scenario, checked one price at a time in
    the order ``PriceScenario`` checks them; raises the error it must raise."""
    A = tuple(as_int(a, "price") for a in A)
    B = tuple(as_int(b, "price") for b in B)
    epsilon = as_int(epsilon, "threshold")
    if len(A) == 0 or len(A) != len(B):
        raise ValueError(f"price lists must be equal-length and non-empty: {len(A)} vs {len(B)}")
    if any(p < 0 for p in A + B):
        raise ValueError("prices must be non-negative")
    if not 1 <= epsilon <= len(A):
        raise ValueError(f"threshold {epsilon} outside 1..{len(A)}")
    return A, B, epsilon, len(A).bit_length(), max(1, max(A + B).bit_length())


PRICES = st.one_of(st.integers(0, 15), st.integers(-2**70, 2**70),
                   st.integers(0, 2**20).map(np.int64), st.integers(0, 255).map(np.uint8))
NON_INTEGERS = st.one_of(st.booleans(), st.just(np.bool_(True)), st.floats(0, 9), st.just("3"))


@st.composite
def scenario_arguments(draw):
    """Price lists and a threshold, mostly valid: a list may be one longer, and
    up to two non-integers may be slipped into the lists."""
    N = draw(st.integers(0, 5))
    A = draw(st.lists(PRICES, min_size=N, max_size=N))
    B = draw(st.lists(PRICES, min_size=N + draw(st.sampled_from((0, 0, 0, 1))),
                      max_size=N + 1))
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):
        prices = draw(st.sampled_from((A, B)))
        prices.insert(draw(st.integers(0, len(prices))), draw(NON_INTEGERS))
    epsilon = draw(st.one_of(st.integers(1, 6), st.sampled_from((0, -1, True, 2.0))))
    return A, B, epsilon


@settings(max_examples=300, deadline=None)
@given(scenario_arguments())
def test_scenario_checks_match_the_elementwise_reference(arguments):
    # one vectorised pass gives the message, and the check order, of checking
    # one price at a time; numpy integers are accepted and stored as ints
    A, B, epsilon = arguments
    try:
        expected = elementwise_scenario(A, B, epsilon)
    except ValueError as err:
        with pytest.raises(ValueError) as raised:
            PriceScenario(A=tuple(A), B=tuple(B), epsilon=epsilon)
        assert str(raised.value) == str(err)
        return
    sc = PriceScenario(A=tuple(A), B=tuple(B), epsilon=epsilon)
    assert (sc.A, sc.B, sc.epsilon, sc.n, sc.d) == expected
    assert all(type(p) is int for p in sc.A + sc.B)


def test_scenario_compiles_each_price_list_once(worked_example):
    tables = worked_example.tables
    for role in ("alice", "bob"):
        table = tables[role]
        assert table.dtype == np.intp and not table.flags.writeable
        with pytest.raises(ValueError):
            table[1] = 0
        # index values 1..6 hold the prices; 0 and 7 (> N) hold 0
        assert table.tolist() == [0, *worked_example.prices(role), 0]
    # every oracle wraps the scenario's own arrays: nothing is copied or rebuilt
    for _ in range(2):
        for announced_by in ("alice", "bob"):
            announcer, receiver, _ = comparison_oracles(worked_example, announced_by)
            assert announcer.table is tables[announced_by]
            assert receiver.table is tables[OTHER[announced_by]]


def test_price_wider_than_a_basis_index_is_a_capacity_limit():
    # a 71-bit price overflows no integer: the scenario holds it, and Step 1
    # refuses the 2 + 71 qubits its announcement needs
    sc = PriceScenario(A=(2**70, 1), B=(1, 1), epsilon=1)
    assert sc.d == 71 and sc.A == (2**70, 1)
    with pytest.raises(CapacityError, match="a 73-qubit layout does not fit"):
        prepare_announced_state(sc, "alice")


# ---------------------------------------------------------------------------
# classical comparison


def test_classical_f_values():
    assert classical_f(7, 6) == 1
    assert classical_f(0, 0) == 1
    assert classical_f(2, 3) == 0


# ---------------------------------------------------------------------------
# price oracle


def uniform_index_state(layout, N):
    amps = np.zeros(1 << layout.num_qubits)
    amps[1 : N + 1] = 1.0
    return prepare_amplitudes(layout.num_qubits, amps)


def test_price_oracle_loads_worked_example_components(worked_example):
    layout = announcement_layout(worked_example, "alice")
    oracle = PriceOracle(worked_example.tables["alice"], layout, "priceA")
    state = oracle.apply(uniform_index_state(layout, 6))
    # component |1>|3> and friends each at amplitude 1/sqrt(6)
    for i, a in enumerate(worked_example.A, start=1):
        x = basis_component(layout, index=i, priceA=a)
        assert abs(state.amplitudes[x] - 1 / math.sqrt(6)) < 1e-12
    assert np.count_nonzero(np.abs(state.amplitudes) > 1e-12) == 6


def test_price_oracle_with_zero_prices_is_identity():
    sc = PriceScenario(A=(0, 0, 0), B=(0, 0, 0), epsilon=1)
    layout = announcement_layout(sc, "alice")
    oracle = PriceOracle(sc.tables["alice"], layout, "priceA")
    assert len(oracle) == 0
    rng = np.random.default_rng(0)
    state = prepare_amplitudes(layout.num_qubits,
                               rng.normal(size=1 << layout.num_qubits))
    assert np.allclose(oracle.apply(state).amplitudes, state.amplitudes)


def test_price_oracle_applied_twice_is_identity():
    # XOR loads are involutions; verified against the dense matrix
    sc = PriceScenario(A=(3, 1, 2, 0), B=(1, 1, 1, 1), epsilon=1)
    layout = announcement_layout(sc, "alice")
    oracle = PriceOracle(sc.tables["alice"], layout, "priceA")
    mat = np.eye(1 << layout.num_qubits, dtype=np.complex128)
    for column in mat.T:  # column x becomes the image of |x>
        oracle.apply_to_array(column)
    assert np.max(np.abs(mat @ mat - np.eye(mat.shape[0]))) < 1e-9


def test_price_oracle_identity_outside_index_range():
    sc = PriceScenario(A=(3, 2), B=(1, 1), epsilon=1)
    layout = announcement_layout(sc, "alice")
    oracle = PriceOracle(sc.tables["alice"], layout, "priceA")
    for idx in (0, 3):  # index 0 and index > N
        s = oracle.apply(prepare_basis(layout.num_qubits, idx))
        assert np.allclose(s.amplitudes, np.eye(s.dim)[idx])


def test_price_oracle_matches_classical_xor_map():
    # brute-force oracle: the circuit must permute basis states exactly like
    # the classical map (i, t) -> (i, t ^ price_i)
    sc = PriceScenario(A=(2, 3, 1), B=(0, 0, 0), epsilon=1)
    layout = announcement_layout(sc, "alice")
    oracle = PriceOracle(sc.tables["alice"], layout, "priceA")
    n, d = layout["index"].width, layout["priceA"].width
    for i in range(1 << n):
        for t in range(1 << d):
            x = basis_component(layout, index=i, priceA=t)
            expected_t = t ^ sc.A[i - 1] if 1 <= i <= sc.N else t
            expected = basis_component(layout, index=i, priceA=expected_t)
            out = oracle.apply(prepare_basis(layout.num_qubits, x))
            assert abs(out.amplitudes[expected] - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# comparator


def comparator_fixture(d):
    sc = PriceScenario(A=((1 << d) - 1,), B=(0,), epsilon=1)
    layout = comparison_layout(sc, "alice")
    return layout, build_comparator(d, layout)


def test_comparator_specific_pairs():
    layout, circ = comparator_fixture(3)
    cases = [(3, 2, 1), (4, 5, 0), (0, 0, 1), (7, 6, 1), (2, 3, 0), (5, 5, 1)]
    for a, b, expected in cases:
        x = basis_component(layout, priceA=a, priceB=b)
        out = circ.apply(prepare_basis(layout.num_qubits, x))
        y = basis_component(layout, priceA=a, priceB=b, flag=expected)
        assert abs(out.amplitudes[y] - 1.0) < 1e-12, (a, b, expected)


@pytest.mark.parametrize("d", range(1, 9))
def test_comparator_full_truth_table(d):
    # every (a, b, flag-in) basis index at once; at d = 8 the layout has 26
    # qubits, too many for a dense register, so the indices go through images
    layout, circ = comparator_fixture(d)
    a, b, flag_in = (v.ravel() for v in np.meshgrid(
        np.arange(1 << d), np.arange(1 << d), np.arange(2), indexing="ij"))
    x = (a << layout["priceA"].offset) | (b << layout["priceB"].offset) | (flag_in << layout["flag"].offset)
    y = circ.images(x)
    expected = np.array([classical_f(int(p), int(q)) for p, q in zip(a, b)]) ^ flag_in
    assert np.array_equal(layout["flag"].value(y), expected)
    assert np.array_equal(layout["priceA"].value(y), a)  # inputs restored
    assert np.array_equal(layout["priceB"].value(y), b)
    assert not layout["ancilla"].value(y).any()  # scratch uncomputed
    assert not layout["index"].value(y).any()


def test_comparator_equal_inputs_always_flag_one():
    layout, circ = comparator_fixture(3)
    for x_val in range(8):
        x = basis_component(layout, priceA=x_val, priceB=x_val)
        out = circ.apply(prepare_basis(layout.num_qubits, x))
        y = basis_component(layout, priceA=x_val, priceB=x_val, flag=1)
        assert abs(out.amplitudes[y] - 1.0) < 1e-12


def test_comparator_ancilla_hygiene():
    layout, circ = comparator_fixture(2)
    for a in range(4):
        for b in range(4):
            for f in range(2):
                x = basis_component(layout, priceA=a, priceB=b, flag=f)
                assert ancillas_clean(circ, x)


def test_comparator_requires_enough_ancilla():
    from q3pen.statevec import RegisterLayout

    tight = RegisterLayout(("index", 1), ("priceA", 3), ("priceB", 3),
                           ("flag", 1), ("ancilla", 2))
    with pytest.raises(ValueError):
        build_comparator(3, tight)


def test_comparator_rejects_width_mismatch():
    layout, _ = comparator_fixture(3)
    with pytest.raises(ValueError):
        build_comparator(2, layout)


# ---------------------------------------------------------------------------
# flag oracle on superpositions


def step3_state(scenario, announced_by="alice"):
    from q3pen.counting import build_state_preparation

    prep = build_state_preparation(scenario, announced_by)
    return prep.layout, prep.apply(prepare_basis(prep.num_qubits, 0))


def test_flag_oracle_worked_example_pattern(worked_example):
    layout, state = step3_state(worked_example)
    expected_flags = (1, 1, 1, 0, 1, 1)
    for i, (a, b) in enumerate(zip(worked_example.A, worked_example.B), start=1):
        x = basis_component(layout, index=i, priceA=a, priceB=b, flag=expected_flags[i - 1])
        assert abs(abs(state.amplitudes[x]) - 1 / math.sqrt(6)) < 1e-9


def test_flag_oracle_xor_semantics():
    sc = PriceScenario(A=(3,), B=(2,), epsilon=1)
    layout = comparison_layout(sc, "alice")
    circ = flag_oracle(sc.n, sc.d, "alice")
    # f(3, 2) = 1, so a pre-set flag is flipped back to 0
    x = basis_component(layout, index=1, priceA=3, priceB=2, flag=1)
    out = circ.apply(prepare_basis(layout.num_qubits, x))
    y = basis_component(layout, index=1, priceA=3, priceB=2, flag=0)
    assert abs(out.amplitudes[y] - 1.0) < 1e-12


def test_flag_oracle_applied_twice_is_identity():
    sc = PriceScenario(A=(2, 1), B=(1, 3), epsilon=1)
    layout = comparison_layout(sc, "alice")
    circ = flag_oracle(sc.n, sc.d, "alice")
    mat = dense_circuit_matrix(circ)
    assert np.max(np.abs(mat @ mat - np.eye(mat.shape[0]))) < 1e-9


# ---------------------------------------------------------------------------
# whole-pipeline structure and reversibility properties


def test_step3_state_structure_random_scenarios():
    rng = np.random.default_rng(321)
    for _ in range(20):
        sc = random_scenario(rng, max_n=8, max_price=7)
        layout, state = step3_state(sc)
        expected = set()
        for i, (a, b) in enumerate(zip(sc.A, sc.B), start=1):
            expected.add(basis_component(layout, index=i, priceA=a, priceB=b,
                                         flag=classical_f(a, b)))
        amp = np.abs(state.amplitudes)
        support = set(int(x) for x in np.nonzero(amp > 1e-9)[0])
        assert support == expected
        assert np.all(np.abs(amp[list(support)] - 1 / math.sqrt(sc.N)) < 1e-9)


def test_circuit_inverse_restores_all_basis_states():
    # exhaustive reversibility at 10 qubits (d = 3 comparator layout)
    layout, circ = comparator_fixture(3)
    inv = circ.inverse()
    dim = 1 << layout.num_qubits
    for x in range(dim):
        amps = np.zeros(dim, dtype=complex)
        amps[x] = 1.0
        circ.apply_to_array(amps)
        inv.apply_to_array(amps)
        assert abs(amps[x] - 1.0) < 1e-9
        assert np.sum(np.abs(amps) > 1e-9) == 1


def test_circuit_rejects_gates_outside_layout():
    from q3pen.circuits import Circuit
    from q3pen.statevec import Gate, RegisterLayout

    lay = RegisterLayout(("a", 2))
    with pytest.raises(ValueError):
        Circuit((Gate(5),), lay)
