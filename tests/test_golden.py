"""Golden transcripts: ``q3pen run`` output pinned byte for byte.

The files under ``tests/data/`` carry schema ``q3pen.transcript/2``: they
were regenerated once when each count began drawing its shots from one
random generator, which changed the ``outcomes`` lists and the schema tag
and nothing else.  Every other field still reads as the gate-by-gate
simulator first produced it.  Any change to the arithmetic of Steps 1-6
(or to the sampling) shows up here as a diff.
"""

import json
from pathlib import Path

import pytest

from q3pen.cli import main

DATA = Path(__file__).parent / "data"
WORKED_EXAMPLE = {"N": 6, "A": [3, 2, 5, 4, 7, 6], "B": [2, 2, 5, 5, 6, 6], "epsilon": 5}

CASES = [
    ("worked_honest_seed42_t6.json", ("--seed", "42", "--t", "6")),
    ("worked_bob_measure_and_cheat_t8.json",
     ("--adversary", "bob:measure-and-cheat", "--t", "8")),
    ("worked_alice_false_unveil_t8.json",
     ("--adversary", "alice:false-unveil", "--t", "8")),
]


@pytest.mark.parametrize("golden, flags", CASES, ids=[c[0].removesuffix(".json") for c in CASES])
def test_transcript_matches_golden(golden, flags, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(WORKED_EXAMPLE))
    assert main(["run", str(path), *flags]) == 0
    out = capsys.readouterr().out
    assert out == (DATA / golden).read_text(encoding="utf-8")
