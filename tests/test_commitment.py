import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from q3pen.commitment import (
    CodeParams,
    accept_probability,
    cheat_detection_probability,
    commit,
    empirical_accept_rate,
    fingerprint_state,
    make_random_code,
    parity_repetition_code,
    verify,
)
from q3pen.statevec import inner_product


def hamming(u, v):
    return int(np.sum(u != v))


# ---------------------------------------------------------------------------
# code construction


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_random_code_distance_window(n):
    code = make_random_code(n, c=2.0, seed=n)
    w = code.codeword_weights()
    lo = math.ceil(0.25 * code.m)
    hi = math.floor(0.75 * code.m)
    assert w.min() >= lo and w.max() <= hi
    # injectivity: distinct messages encode differently
    words = {tuple(code.encode(x)) for x in range(1 << n)}
    assert len(words) == 1 << n


def test_random_code_deterministic_per_seed():
    a = make_random_code(4, seed=9)
    b = make_random_code(4, seed=9)
    assert np.array_equal(a.generator, b.generator)


def test_code_generators_are_pinned():
    # SHA-256 of the codes that the exhaustive search picked when it built its
    # message matrix from Python lists: a faster search must pick the same ones.
    # n = 7 gets few seeds, since each of its searches takes thousands of tries.
    digest = hashlib.sha256()
    codes = [make_random_code(n, seed=s) for n in range(1, 8) for s in range(40 if n < 7 else 5)]
    codes += [parity_repetition_code(n) for n in range(1, 10)]
    for code in codes:
        digest.update(code.generator.tobytes())
        digest.update(repr((code.n, code.m, code.delta_code)).encode())
    assert digest.hexdigest() == "df9b19a0269b97cbf6773f013462e099a82729574a0bff72d6062e39b1ae717b"


def test_random_code_rejects_non_expanding():
    for c in (1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            make_random_code(3, c=c)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8])
def test_parity_repetition_code_window(n):
    code = parity_repetition_code(n)
    assert code.m == 2 * n
    assert code.check_distance_window()
    if n <= 6:
        assert code.delta_code == 0.25


def test_code_params_validation():
    with pytest.raises(ValueError):
        CodeParams(n=3, m=3, generator=np.eye(3, dtype=np.uint8), delta_code=0.25)
    with pytest.raises(ValueError):
        CodeParams(n=2, m=4, generator=np.zeros((2, 4), dtype=np.uint8), delta_code=0.6)


# ---------------------------------------------------------------------------
# fingerprints


def test_zero_message_gives_uniform_positive_fingerprint():
    code = parity_repetition_code(3)  # m = 6, register of 3 qubits
    fp = fingerprint_state(0, code)
    assert fp.num_qubits == 3
    assert np.allclose(fp.amplitudes[:6], 1 / math.sqrt(6))
    assert np.allclose(fp.amplitudes[6:], 0.0)  # padded positions carry nothing


def test_commit_is_deterministic():
    code = make_random_code(3, seed=1)
    a = commit(5, code).fingerprint
    b = commit(5, code).fingerprint
    assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-12


def test_overlap_follows_distance_law_exhaustively():
    # <tau_x|tau_y> = 1 - 2*dist/m, checked for every pair at n = 3, c = 2
    code = parity_repetition_code(3)
    for x in range(8):
        for y in range(8):
            dist = hamming(code.encode(x), code.encode(y))
            overlap = inner_product(fingerprint_state(x, code), fingerprint_state(y, code))
            assert overlap.imag == 0
            assert overlap.real == pytest.approx(1 - 2 * dist / code.m, abs=1e-12)


def test_fingerprint_register_is_logarithmic():
    for n, c in ((3, 2.0), (4, 2.0), (5, 3.0)):
        code = make_random_code(n, c=c, seed=n)
        assert code.num_fingerprint_qubits == math.ceil(math.log2(code.m))
        fp = fingerprint_state(0, code)
        assert fp.num_qubits == code.num_fingerprint_qubits
        # the register can hold at least m positions but far fewer than 2^n
        assert fp.dim >= code.m


# ---------------------------------------------------------------------------
# verification


def test_honest_unveil_always_accepts():
    code = make_random_code(3, seed=2)
    for x in range(8):
        assert accept_probability(commit(x, code), x) == 1.0
    rng = np.random.default_rng(0)
    accepted = [verify(commit(3, code), 3, rng) for _ in range(500)]
    assert all(accepted)


def test_half_distance_cheat_never_accepts():
    code = parity_repetition_code(2)
    # E(3) has weight 2 = m/2, so unveiling 3 against a commitment of 0 is
    # an exactly orthogonal projection
    assert hamming(code.encode(0), code.encode(3)) == code.m // 2
    assert accept_probability(commit(0, code), 3) == 0.0
    rng = np.random.default_rng(1)
    assert not any(verify(commit(0, code), 3, rng) for _ in range(500))


def test_cheating_accept_rate_tracks_overlap():
    code = make_random_code(3, c=2.0, seed=4)
    for x, y in ((0, 1), (2, 5), (7, 3)):
        expected = abs(inner_product(fingerprint_state(x, code),
                                     fingerprint_state(y, code))) ** 2
        rate = empirical_accept_rate(x, y, code, trials=10_000, seed=42)
        assert abs(rate - expected) < 0.02


def test_binding_bound_exhaustive():
    for n in (2, 3, 4, 5, 6):
        code = make_random_code(n, c=2.0, seed=10 + n)
        bound = (1 - 2 * code.delta_code) ** 2
        for x in range(1 << n):
            for y in range(1 << n):
                if x == y:
                    continue
                p = accept_probability(commit(x, code), y)
                assert p <= bound + 1e-12


def test_accept_probability_is_the_distance_law_exhaustively():
    # (1 - 2 dist/m)**2 for every committed and unveiled value, n <= 4; c = 3
    # leaves padded positions in the fingerprint register
    for n in (1, 2, 3, 4):
        codes = (make_random_code(n, seed=n), make_random_code(n, c=3.0, seed=n),
                 parity_repetition_code(n))
        for code in codes:
            for x in range(1 << n):
                record = commit(x, code)
                for y in range(1 << n):
                    dist = hamming(code.encode(x), code.encode(y))
                    law = (1 - 2 * dist / code.m) ** 2
                    assert accept_probability(record, y) == pytest.approx(law, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**16), st.integers(0, 31), st.integers(0, 31),
       st.integers(0, 2**32 - 1))
@example(n=3, code_seed=4, committed=2, unveiled=2, seed=9)   # p snapped to 1
@example(n=2, code_seed=0, committed=0, unveiled=3, seed=9)   # p snapped to 0
@example(n=3, code_seed=4, committed=0, unveiled=1, seed=9)   # p fractional
def test_a_seed_and_its_generator_verify_alike(n, code_seed, committed, unveiled, seed):
    code = make_random_code(n, seed=code_seed)
    committed, unveiled = committed % (1 << n), unveiled % (1 << n)
    by_seed = verify(commit(committed, code), unveiled, seed)
    generator = np.random.default_rng(seed)
    assert verify(commit(committed, code), unveiled, generator) == by_seed
    # a Generator advances by exactly one draw, also when the outcome is certain
    reference = np.random.default_rng(seed)
    reference.random()
    assert generator.bit_generator.state == reference.bit_generator.state


def test_record_phase_moves_forward_only():
    code = make_random_code(3, seed=3)
    rec = commit(1, code)
    assert rec.phase == "committed"
    verify(rec, 1, np.random.default_rng(0))
    assert rec.phase == "verified-accept"
    with pytest.raises(RuntimeError):
        verify(rec, 1, np.random.default_rng(0))


def test_reject_phase_recorded():
    code = parity_repetition_code(2)
    rec = commit(0, code)
    verify(rec, 3, np.random.default_rng(0))  # orthogonal: always rejects
    assert rec.phase == "verified-reject"


def test_commit_rejects_oversized_value():
    code = make_random_code(3, seed=5)
    with pytest.raises(ValueError):
        commit(8, code)


# ---------------------------------------------------------------------------
# detection probability


def test_detection_probability_reference_value():
    assert cheat_detection_probability(3, 6) == pytest.approx(61 / 64, abs=1e-12)


def test_detection_probability_approaches_one():
    assert cheat_detection_probability(3, 200) > 1 - 1e-9
    prev = 0.0
    for m in range(3, 30):
        p = cheat_detection_probability(3, m)
        assert p > prev
        prev = p


def test_detection_probability_boundary():
    with pytest.raises(ValueError):
        cheat_detection_probability(2, 1)  # m = log2(n) exactly
    with pytest.raises(ValueError):
        cheat_detection_probability(0, 3)
