"""Property tests: the compiled fast paths agree with the gate-level reference.

* a circuit's compiled permutation moves amplitudes exactly as applying its
  NOT gates one by one with ``apply_gate_inplace``;
* a state preparation's fused inverse undoes its fused forward map;
* the phase-register distribution, which transforms only the columns that
  ever hold amplitude, equals a dense all-column FFT over rows built gate
  by gate.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from q3pen import circuits
from q3pen.circuits import Circuit, PriceScenario
from q3pen.counting import build_state_preparation, phase_register_distribution, uniform_index_unitary
from q3pen.statevec import Gate, RegisterLayout, apply_gate_inplace

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
        gates.append(Gate.x(target, [(k, draw(st.integers(0, 1))) for k in chosen]))
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
@given(not_circuits(), st.integers(0, 2**32 - 1))
def test_compiled_permutation_matches_gate_by_gate(circuit, seed):
    amps = random_amplitudes(seed, 1 << circuit.layout.num_qubits)
    reference = amps.copy()
    for gate in circuit.gates:
        apply_gate_inplace(reference, gate)
    circuit.apply_to_array(amps)
    assert np.max(np.abs(amps - reference)) == 0.0
    # the inverse circuit's permutation is the inverse permutation
    dim = amps.size
    assert np.array_equal(circuit.permutation(dim)[circuit.inverse().permutation(dim)],
                          np.arange(dim))


@SETTINGS
@given(scenarios(), st.sampled_from(["alice", "bob"]), st.integers(0, 2**32 - 1))
def test_state_preparation_inverse_undoes_forward(scenario, announced_by, seed):
    prep = build_state_preparation(scenario, announced_by)
    x = random_amplitudes(seed, 1 << prep.num_qubits)
    back = prep.inverse_to_array(prep.apply_to_array(x.copy()))
    assert np.max(np.abs(back - x)) < 1e-9


def dense_reference_distribution(scenario, t, announced_by):
    """Rows Q^k A|0> built gate by gate, then an FFT over every column."""
    layout = circuits.comparison_layout(scenario, announced_by)
    loads = [("priceA", scenario.A), ("priceB", scenario.B)]
    if announced_by == "bob":
        loads.reverse()
    oracles = [circuits.build_price_oracle(prices, layout, target) for target, prices in loads]
    oracles.append(circuits.build_flag_oracle(layout))
    gates = [g for c in oracles for g in c.gates]
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
@given(scenarios(max_n=4, max_price=3), st.integers(1, 6), st.sampled_from(["alice", "bob"]))
def test_support_distribution_matches_dense_fft(scenario, t, announced_by):
    fast = phase_register_distribution(scenario, t, announced_by)
    dense = dense_reference_distribution(scenario, t, announced_by)
    # only the summation order over the (zero) columns outside the support
    # can differ, so the two agree to rounding
    assert np.max(np.abs(fast - dense)) < 1e-12
