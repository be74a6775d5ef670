import json
import time
import tracemalloc

import pytest

from q3pen.circuits import PriceScenario
from q3pen.cli import main, scenario_from_dict
from q3pen.counting import CountingParams
from q3pen.protocol import run_with_adversary

WORKED_EXAMPLE = {
    "N": 6,
    "A": [3, 2, 5, 4, 7, 6],
    "B": [2, 2, 5, 5, 6, 6],
    "epsilon": 5,
}


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(WORKED_EXAMPLE))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# run


def test_run_worked_example(scenario_file, capsys):
    code, out, err = run_cli(capsys, "run", scenario_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["t_A"] == 5 and doc["t_B"] == 5 and doc["trade"] is True
    assert err == ""


def test_run_is_byte_deterministic(scenario_file, capsys):
    _, out1, _ = run_cli(capsys, "run", scenario_file, "--seed", "7")
    _, out2, _ = run_cli(capsys, "run", scenario_file, "--seed", "7")
    assert out1 == out2


def test_run_rejects_mismatched_lengths(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"A": [1, 2], "B": [1], "epsilon": 1}))
    code, out, err = run_cli(capsys, "run", str(path))
    assert code == 2
    assert out == ""
    assert "error" in err


def test_run_rejects_declared_n_mismatch(tmp_path, capsys):
    doc = dict(WORKED_EXAMPLE, N=7)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "run", str(path))
    assert code == 2 and "N=7" in err


def test_run_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "run", str(path))
    assert code == 2 and "scenario file" in err


@pytest.mark.parametrize("doc, message", [
    (dict(WORKED_EXAMPLE, counting=5), "'counting' must be a JSON object"),
    (dict(WORKED_EXAMPLE, commitment=[2]), "'commitment' must be a JSON object"),
    (dict(WORKED_EXAMPLE, counting="t=6"), "'counting' must be a JSON object"),
    ({"A": [1.7, 2, True], "B": [1, 2, 1], "epsilon": 1}, "price must be an integer, got 1.7"),
    ({"A": [1, 2, True], "B": [1, 2, 1], "epsilon": 1}, "price must be an integer, got True"),
    ({"A": [1, 2, 1], "B": [1, "2", 1], "epsilon": 1}, "price must be an integer, got '2'"),
    ({"A": [1, 2, 1], "B": [1, 2, 1], "epsilon": 1.9}, "threshold must be an integer, got 1.9"),
    ({"A": [1, 2, 1], "B": [1, 2, 1], "epsilon": False}, "threshold must be an integer"),
    ({"A": 7, "B": [1], "epsilon": 1}, "'A' must be a list"),
    (dict(WORKED_EXAMPLE, N=6.0), "N must be an integer"),
    (dict(WORKED_EXAMPLE, counting={"t": 6.5}), "counting.t must be an integer"),
    (dict(WORKED_EXAMPLE, counting={"shots": True}), "counting.shots must be an integer"),
    (dict(WORKED_EXAMPLE, commitment={"c": "2"}), "commitment.c must be a number"),
    (dict(WORKED_EXAMPLE, seed=4.2), "seed must be an integer"),
    (dict(WORKED_EXAMPLE, seed=-3), "seed must be non-negative, got -3"),
    (dict(WORKED_EXAMPLE, commitment={"c": float("inf")}),
     "expansion constant c must be a finite number above 1, got inf"),
    (dict(WORKED_EXAMPLE, commitment={"c": float("nan")}),
     "expansion constant c must be a finite number above 1, got nan"),
])
def test_run_rejects_non_integer_and_non_object_fields(tmp_path, capsys, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "run", str(path))
    assert code == 2
    assert out == ""
    assert message in err and "Traceback" not in err


def test_run_rejects_negative_seed_flag(scenario_file, capsys):
    code, out, err = run_cli(capsys, "run", scenario_file, "--seed", "-3")
    assert code == 2 and out == ""
    assert "--seed must be non-negative, got -3" in err and "Traceback" not in err


def test_run_worked_example_at_t8(scenario_file, capsys):
    code, out, err = run_cli(capsys, "run", scenario_file, "--t", "8")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["params"]["t"] == 8 and doc["t_A"] == doc["t_B"] == 5


def test_run_capacity_exit_code(scenario_file, capsys):
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "run", scenario_file, "--t", "22")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3 and out == ""
    assert "capacity" in err and "bytes" in err and "Traceback" not in err
    assert peak < 1 << 20  # refused before the 64 MiB rows array is allocated


def test_run_capacity_exit_code_before_the_code_search(tmp_path, capsys):
    # 256 products need n = 9, where make_random_code searches for seconds
    # and finds no code; t is refused when the counting parameters are built
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"A": [1] * 256, "B": [2] * 256, "epsilon": 1}))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "run", str(path), "--t", "22")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert "capacity" in err and "bytes" in err and "Traceback" not in err


# 20-bit prices: 3 products take 2 + 3 * 20 + 1 = 63 qubits, the widest
# layout an np.intp basis index holds; a fourth product widens the index to 3
WIDE_TOP = (1 << 20) - 1


def test_run_63_qubit_layout(tmp_path, capsys):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"A": [WIDE_TOP, 1 << 19, 5], "B": [WIDE_TOP - 1, 3, 5],
                                "epsilon": 1}))
    code, out, _ = run_cli(capsys, "run", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["t_A"] == doc["t_B"] == 3


def test_run_64_qubit_layout_exit_code(tmp_path, capsys):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"A": [WIDE_TOP, 1 << 19, 5, 9], "B": [WIDE_TOP - 1, 3, 5, 1],
                                "epsilon": 1}))
    code, out, err = run_cli(capsys, "run", str(path))
    assert code == 3 and out == ""
    assert "64-qubit layout" in err and "Traceback" not in err


def test_run_price_too_wide_for_a_basis_index_exit_code(tmp_path, capsys):
    # a 71-bit price: the announcement needs 2 + 71 qubits, which is refused
    # as a capacity limit, before any price overflows a fixed-width integer
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"A": [2**70, 1], "B": [1, 1], "epsilon": 1}))
    code, out, err = run_cli(capsys, "run", str(path))
    assert code == 3 and out == ""
    assert "a 73-qubit layout does not fit" in err and "Traceback" not in err


def test_run_with_adversary_flag(scenario_file, capsys):
    code, out, _ = run_cli(capsys, "run", scenario_file,
                           "--adversary", "bob:measure-and-cheat", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    adv = doc["adversary"]
    assert adv["party"] == "bob"
    learned = adv["learned"]
    assert learned["price"] == WORKED_EXAMPLE["A"][learned["index"] - 1]


@pytest.mark.parametrize("seed, adversary", [(5, "alice:false-unveil"),
                                             (17, "bob:measure-and-cheat")])
def test_run_prints_the_api_transcript(scenario_file, capsys, seed, adversary):
    # the command builds its commitment code from the same child seed as the
    # API; with the master seed itself, these two runs verify differently
    code, out, _ = run_cli(capsys, "run", scenario_file, "--adversary", adversary,
                           "--seed", str(seed), "--t", "8")
    scenario = PriceScenario(A=tuple(WORKED_EXAMPLE["A"]), B=tuple(WORKED_EXAMPLE["B"]),
                             epsilon=WORKED_EXAMPLE["epsilon"])
    transcript = run_with_adversary(scenario, *adversary.split(":"), CountingParams(t=8),
                                    master_seed=seed)
    assert code == 0
    assert out == transcript.to_json() + "\n"


def test_run_rejects_bad_adversary_argument(scenario_file, capsys):
    code, _, err = run_cli(capsys, "run", scenario_file, "--adversary", "eve")
    assert code == 2 and "adversary" in err


def test_run_flag_overrides_take_effect(scenario_file, capsys):
    _, out, _ = run_cli(capsys, "run", scenario_file, "--t", "5", "--shots", "3")
    doc = json.loads(out)
    assert doc["params"]["t"] == 5 and doc["params"]["shots"] == 3
    assert len(doc["estimates"]["alice"]["outcomes"]) == 3


# ---------------------------------------------------------------------------
# costs


def test_costs_csv(capsys):
    code, out, _ = run_cli(capsys, "costs", "--d", "2", "--n-max", "7")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "N,q3pen,c05,a07"
    assert lines[-1] == "7,16,28,56"


def test_costs_smallest(capsys):
    code, out, _ = run_cli(capsys, "costs", "--d", "1", "--n-max", "1")
    assert code == 0
    assert out.strip().split("\n")[1] == "1,6,2,4"


def test_costs_rejects_zero_width(capsys):
    code, out, err = run_cli(capsys, "costs", "--d", "0", "--n-max", "3")
    assert code == 2 and out == "" and err


def test_costs_split_units(capsys):
    _, out, _ = run_cli(capsys, "costs", "--d", "2", "--n-max", "1", "--split-units")
    lines = out.strip().split("\n")
    assert lines[0] == "N,q3pen,c05,a07,q3pen_qubits,q3pen_cbits"
    assert lines[1] == "1,8,4,8,6,2"


# ---------------------------------------------------------------------------
# detect


def test_detect_csv(capsys):
    code, out, _ = run_cli(capsys, "detect", "--c", "2", "--n-max", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,m,p_detect"
    assert lines[-1] == "3,6,0.953125"
    probs = [float(line.split(",")[2]) for line in lines[1:]]
    assert probs == sorted(probs)


def test_detect_rejects_c_at_most_one(capsys):
    code, _, err = run_cli(capsys, "detect", "--c", "1.0", "--n-max", "3")
    assert code == 2 and err


@pytest.mark.parametrize("c", ["nan", "inf"])
def test_detect_rejects_a_non_finite_c(capsys, c):
    code, out, err = run_cli(capsys, "detect", "--c", c, "--n-max", "3")
    assert code == 2 and out == ""
    assert f"expansion constant c must be a finite number above 1, got {c}" in err


# ---------------------------------------------------------------------------
# scenario parsing


def test_scenario_defaults():
    scenario, options = scenario_from_dict(WORKED_EXAMPLE)
    assert scenario.N == 6
    assert options == {"t": 6, "shots": 11, "c": 2.0, "seed": 42}


def test_scenario_optional_blocks():
    doc = dict(WORKED_EXAMPLE, counting={"t": 7, "shots": 5},
               commitment={"c": 3.0}, seed=9)
    _, options = scenario_from_dict(doc)
    assert options == {"t": 7, "shots": 5, "c": 3.0, "seed": 9}


def test_scenario_requires_core_fields():
    with pytest.raises(ValueError):
        scenario_from_dict({"A": [1], "B": [1]})
    with pytest.raises(ValueError):
        scenario_from_dict([1, 2, 3])
