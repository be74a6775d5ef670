"""Property tests: the fast paths agree with the gate-level reference.

* a circuit moves amplitudes, dense or sparse, exactly as applying its NOT
  gates one by one with ``apply_gate_inplace``, and the inverse circuit's
  images undo its images;
* a price oracle's table images equal the images of the NOT gates it stands
  for (``reference_price_gates``, built from the price list), run one by
  one, on every basis index of both layouts it is built on;
* measuring an announced state on its support gives the outcome and the
  collapsed state that ``helpers.measure`` gives on the dense register;
* a state preparation's inverse undoes its forward map;
* Steps 2-3 run on the support of the received state hold exactly the
  nonzero amplitudes of the dense register those steps used to build gate
  by gate, also after a measured announcement;
* the phase-register distribution, computed in closed form in the plane of
  the held state's flagged and unflagged parts that the iterate never
  leaves, equals a dense all-column FFT over full-register rows built gate by
  gate.  The honest held state it counts by default is Steps 1-3 run by
  the protocol's own functions, which the previous property checks.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from helpers import (
    apply_gate_inplace,
    dense_state,
    extend_with_zeros,
    gate_images,
    measure,
    reference_price_gates,
)
from q3pen.circuits import (
    Circuit,
    PriceOracle,
    PriceScenario,
    announcement_layout,
    comparison_layout,
    load_received_state,
    prepare_announced_state,
    write_comparison_flag,
)
from q3pen.counting import (
    build_state_preparation,
    comparison_oracles,
    phase_register_distribution,
    uniform_index_unitary,
)
from q3pen.protocol import measure_announced
from q3pen.statevec import Gate, RegisterLayout, Segment, SupportState

SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def not_circuits(draw):
    """A NOT circuit with mixed-polarity controls on at most 10 qubits."""
    q = draw(st.integers(1, 10))
    gates = []
    for _ in range(draw(st.integers(0, 24))):
        target = draw(st.integers(0, q - 1))
        others = [k for k in range(q) if k != target]
        chosen = draw(st.lists(st.sampled_from(others), unique=True, max_size=len(others))
                      if others else st.just([]))
        gates.append(Gate(target, [(k, draw(st.integers(0, 1))) for k in chosen]))
    return Circuit(tuple(gates), RegisterLayout(("all", q)))


def random_amplitudes(seed: int, dim: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=dim) + 1j * rng.normal(size=dim)


@st.composite
def scenarios(draw, max_n=6, max_price=7):
    N = draw(st.integers(1, max_n))
    prices = st.lists(st.integers(0, max_price), min_size=N, max_size=N)
    return PriceScenario(A=tuple(draw(prices)), B=tuple(draw(prices)),
                         epsilon=draw(st.integers(1, N)))


@SETTINGS
@given(not_circuits(), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_compiled_permutation_matches_gate_by_gate(circuit, seed, density):
    amps = random_amplitudes(seed, 1 << circuit.layout.num_qubits)
    # a random subset of the amplitudes is zeroed: only the rest move
    amps[np.random.default_rng([seed, 1]).random(amps.size) >= density] = 0.0
    reference = amps.copy()
    for gate in circuit.gates:
        apply_gate_inplace(reference, gate)
    circuit.apply_to_array(amps)
    assert np.max(np.abs(amps - reference)) == 0.0
    # the inverse circuit sends every image back to its source
    x = np.arange(amps.size)
    assert np.array_equal(circuit.inverse().images(circuit.images(x)), x)


@SETTINGS
@given(scenarios(), st.sampled_from(["alice", "bob"]), st.integers(0, 2**32 - 1))
def test_price_oracle_table_matches_its_gates(scenario, announced_by, seed):
    receiver = "bob" if announced_by == "alice" else "alice"
    cases = [(announcement_layout(scenario, announced_by), announced_by)]
    cases += [(comparison_layout(scenario, announced_by), who) for who in (announced_by, receiver)]
    for layout, owner in cases:
        prices, target = (scenario.A, "priceA") if owner == "alice" else (scenario.B, "priceB")
        oracle = PriceOracle(scenario.tables[owner], layout, target)
        gates = reference_price_gates(prices, layout, target)
        assert len(oracle) == len(gates)
        # every basis index: index 0 and values above N, any target bits set
        x = np.arange(1 << layout.num_qubits)
        assert np.max(np.abs(oracle.images(x) - gate_images(gates, x))) == 0
        assert np.array_equal(oracle.inverse().images(oracle.images(x)), x)
        amps = random_amplitudes(seed, x.size)
        reference = amps.copy()
        for gate in gates:
            apply_gate_inplace(reference, gate)
        oracle.apply_to_array(amps)
        assert np.max(np.abs(amps - reference)) == 0.0


@st.composite
def supports(draw):
    """A normalized state on at most 8 qubits as its ascending support; some
    amplitudes may be zero."""
    q = draw(st.integers(1, 8))
    indices = sorted(draw(st.sets(st.integers(0, (1 << q) - 1), min_size=1, max_size=1 << q)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=len(indices)) + 1j * rng.normal(size=len(indices))
    amps[rng.random(len(indices)) < draw(st.floats(0.0, 0.5))] = 0.0
    if not amps.any():
        amps[-1] = 1.0
    return SupportState(q, np.array(indices), amps / np.linalg.norm(amps))


@SETTINGS
@given(supports(), st.integers(0, 2**32 - 1))
def test_support_measurement_matches_dense_measure(state, seed):
    dense = dense_state(state)
    everything = Segment("all", 0, state.num_qubits)
    on_support, on_dense = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(20):
        outcome, collapsed = measure_announced(state, on_support)
        expected, expected_collapsed = measure(dense, everything, on_dense)
        assert outcome == expected
        assert np.max(np.abs(dense_state(collapsed).amplitudes - expected_collapsed.amplitudes)) == 0.0


@SETTINGS
@given(scenarios(), st.sampled_from(["alice", "bob"]), st.integers(0, 2**32 - 1))
def test_state_preparation_inverse_undoes_forward(scenario, announced_by, seed):
    prep = build_state_preparation(scenario, announced_by)
    x = random_amplitudes(seed, 1 << prep.num_qubits)
    back = prep.inverse_to_array(prep.apply_to_array(x.copy()))
    assert np.max(np.abs(back - x)) < 1e-9


def price_gates(scenario, oracle):
    """The reference NOT list of a price oracle on ``scenario``, built from
    the price list it loads, not from its table."""
    prices = scenario.A if oracle.target == "priceA" else scenario.B
    return reference_price_gates(prices, oracle.layout, oracle.target)


def received_state(scenario, announced_by, collapse_seed):
    """The announced state, measured in full first when a seed is given."""
    state = prepare_announced_state(scenario, announced_by)
    if collapse_seed is not None:
        _, state = measure_announced(state, np.random.default_rng(collapse_seed))
    return state


def held_state(scenario, announced_by, state):
    """Steps 2-3 as the protocol runs them."""
    loaded = load_received_state(scenario, announced_by, state)
    return write_comparison_flag(scenario, announced_by, loaded)


@SETTINGS
@given(scenarios(), st.sampled_from(["alice", "bob"]),
       st.one_of(st.none(), st.integers(0, 2**32 - 1)))
def test_sparse_steps_23_match_dense_gate_by_gate(scenario, announced_by, collapse_seed):
    state = received_state(scenario, announced_by, collapse_seed)
    held = held_state(scenario, announced_by, state)

    # reference: extend by zeros, then the receiver's price oracle and the
    # flag oracle gate by gate on the whole working register
    layout = comparison_layout(scenario, announced_by)
    dense = extend_with_zeros(dense_state(state), layout.num_qubits - state.num_qubits).amplitudes
    _, receiver_oracle, flag_oracle = comparison_oracles(scenario, announced_by)
    for gate in price_gates(scenario, receiver_oracle) + flag_oracle.gates:
        apply_gate_inplace(dense, gate)

    support = np.flatnonzero(dense)
    assert held.num_qubits == layout.num_qubits
    order = np.argsort(held.indices)
    assert np.array_equal(held.indices[order], support)
    assert np.max(np.abs(held.amplitudes[order] - dense[support])) == 0.0
    # each held index keeps the index value it was received with, and the
    # comparator's scratch is clean
    assert np.array_equal(layout["index"].value(held.indices), layout["index"].value(state.indices))
    assert not layout["ancilla"].value(held.indices).any()


def dense_reference_distribution(scenario, t, announced_by):
    """Rows Q^k A|0> built gate by gate, then an FFT over every column."""
    *price_oracles, flag_oracle = comparison_oracles(scenario, announced_by)
    layout = flag_oracle.layout
    gates = [g for c in price_oracles for g in price_gates(scenario, c)] + list(flag_oracle.gates)
    w = uniform_index_unitary(scenario.n, scenario.N)
    block = 1 << scenario.n
    flag = layout["flag"].offset
    dim = 1 << layout.num_qubits
    flagged = ((np.arange(dim) >> flag) & 1) == 1

    def prepare(amps):
        amps = (amps.reshape(-1, block) @ w.T).reshape(-1)
        for g in gates:
            apply_gate_inplace(amps, g)
        return amps

    def unprepare(amps):
        for g in reversed(gates):
            apply_gate_inplace(amps, g)
        return (amps.reshape(-1, block) @ w.conj()).reshape(-1)

    rows = np.empty((1 << t, dim), dtype=np.complex128)
    start = np.zeros(dim, dtype=np.complex128)
    start[0] = 1.0
    rows[0] = prepare(start)
    for k in range(1, 1 << t):
        amps = rows[k - 1].copy()
        amps[flagged] *= -1.0
        amps = unprepare(amps)
        amps[0] *= -1.0
        rows[k] = prepare(amps)
    rows = np.fft.fft(rows, axis=0, norm="forward")
    probs = np.einsum("ij,ij->i", rows, rows.conj()).real
    return probs / probs.sum()


@settings(max_examples=25, deadline=None)
@given(scenarios(max_n=4, max_price=3), st.integers(1, 8), st.sampled_from(["alice", "bob"]))
@example(PriceScenario(A=(3, 2, 0), B=(2, 2, 3), epsilon=1), 8, "bob")  # 0 < M < N at t = 8
def test_support_distribution_matches_dense_fft(scenario, t, announced_by):
    fast = phase_register_distribution(scenario, t, announced_by)
    dense = dense_reference_distribution(scenario, t, announced_by)
    # the closed form is the law of the full rows, one iterate at a time,
    # after the FFT: they agree to rounding
    assert np.max(np.abs(fast - dense)) < 1e-12
