import math

import numpy as np
import pytest

from q3pen.analysis import (
    cost_table,
    cost_table_csv,
    detection_curve,
    detection_curve_csv,
    holevo_bound,
)
from q3pen.circuits import PriceScenario
from q3pen.statevec import CapacityError


# ---------------------------------------------------------------------------
# leakage bound


def test_holevo_bound_worked_example(worked_example):
    assert holevo_bound(worked_example) == pytest.approx(math.log2(6), abs=1e-9)


def test_holevo_bound_single_product():
    sc = PriceScenario(A=(5,), B=(1,), epsilon=1)
    assert holevo_bound(sc) == pytest.approx(0.0, abs=1e-9)


def test_holevo_bound_is_log_n_for_any_prices():
    rng = np.random.default_rng(12)
    for N in (2, 4, 6, 8, 16):
        A = tuple(int(x) for x in rng.integers(0, 8, size=N))
        B = tuple(int(x) for x in rng.integers(0, 8, size=N))
        sc = PriceScenario(A=A, B=B, epsilon=1)
        for owner in ("alice", "bob"):
            assert holevo_bound(sc, owner) == pytest.approx(math.log2(N), abs=1e-9)


def test_holevo_bound_capacity_guard():
    sc = PriceScenario(A=(1023,) * 100, B=(0,) * 100, epsilon=1)  # n + d = 17
    with pytest.raises(CapacityError):
        holevo_bound(sc)


# ---------------------------------------------------------------------------
# cost tables


def test_cost_rows_at_d2():
    rows = cost_table(range(1, 8), d=2)
    assert rows[-1] == (7, 16, 28, 56)
    assert rows[0] == (1, 8, 4, 8)  # the quantum protocol is not cheaper at tiny N


def test_cost_row_at_d1():
    assert cost_table([1], d=1) == [(1, 6, 2, 4)]


def test_classical_baselines_ratio():
    for N, _q, c05, a07 in cost_table(range(1, 40), d=3):
        assert a07 == 2 * c05


def test_cost_formulas_vs_direct_evaluation():
    for d in (1, 2, 5):
        for N, q, c05, a07 in cost_table(range(1, 101), d=d):
            assert q == 4 * math.ceil(math.log2(N + 1)) + 2 * d
            assert c05 == 2 * N * d
            assert a07 == 4 * N * d


def test_cost_crossover_exists_and_persists():
    rows = cost_table(range(1, 101), d=2)
    crossover = next(N for N, q, c05, a07 in rows if q < c05 < a07)
    assert all(q < c05 < a07 for N, q, c05, a07 in rows if N >= crossover)


def test_split_units_columns():
    rows = cost_table([7], d=2, split_units=True)
    (N, total, _c05, _a07, qubits, cbits), = rows
    assert qubits + cbits == total == 16
    assert (qubits, cbits) == (10, 6)  # 2(n+d), 2n at n = 3


def test_cost_table_validation():
    with pytest.raises(ValueError):
        cost_table([1], d=0)
    with pytest.raises(ValueError):
        cost_table([0], d=2)


def test_cost_csv_format():
    csv = cost_table_csv(range(1, 3), d=2)
    lines = csv.strip().split("\n")
    assert lines[0] == "N,q3pen,c05,a07"
    assert lines[1] == "1,8,4,8"
    assert csv.endswith("\n")


# ---------------------------------------------------------------------------
# detection curve


def test_detection_curve_reference_row():
    rows = detection_curve(2.0, [3])
    (n, m, p), = rows
    assert (n, m) == (3, 6.0)
    assert p == pytest.approx(61 / 64, abs=1e-12)


def test_detection_curve_saturates():
    rows = detection_curve(2.0, [10])
    assert rows[0][2] > 0.9999


def test_detection_curve_monotone_in_n_and_c():
    probs = [p for _n, _m, p in detection_curve(2.0, range(1, 12))]
    assert probs == sorted(probs)
    for n in (2, 5, 9):
        p_low = detection_curve(1.5, [n])[0][2]
        p_high = detection_curve(3.0, [n])[0][2]
        assert p_high > p_low


def test_detection_curve_rejects_bad_c():
    for c in (1.0, 0.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            detection_curve(c, [3])


def test_detection_csv_format():
    csv = detection_curve_csv(2.0, range(1, 4))
    lines = csv.strip().split("\n")
    assert lines[0] == "n,m,p_detect"
    assert lines[3] == "3,6,0.953125"
