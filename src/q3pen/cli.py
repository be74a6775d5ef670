"""Command-line front end: run negotiations, emit cost and detection tables.

Commands::

    q3pen run SCENARIO.json [--seed S] [--t T] [--shots K]
                            [--adversary PARTY:BEHAVIOR]
    q3pen costs --d D --n-max M [--split-units]
    q3pen detect --c C --n-max M

Standard output carries only the machine-readable payload (JSON for runs,
CSV for tables); diagnostics go to standard error.  Exit codes: 0 success,
2 usage or validation error, 3 simulator capacity exceeded (t above
``counting.MAX_T``, or a layout wider than the 63 qubits a basis index
holds).

A scenario file is a JSON object with fields N (optional, checked), A, B,
epsilon, and optional blocks ``counting {"t", "shots"}``, ``commitment
{"c"}`` and ``seed``; missing options default to t=6, shots=11, c=2,
seed=42.  ``run`` seeds its commitment code with the master seed's
``code`` child seed (``protocol.negotiation_seeds``), as the API does.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import analysis, commitment, protocol
from .circuits import OTHER, PriceScenario, as_int
from .counting import CountingParams
from .statevec import CapacityError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAPACITY = 3

DEFAULTS = {"t": 6, "shots": 11, "c": 2.0, "seed": 42}


def _seed(value, what: str) -> int:
    """A master seed: a non-negative integer (numpy seeds accept no other)."""
    seed = as_int(value, what)
    if seed < 0:
        raise ValueError(f"{what} must be non-negative, got {seed}")
    return seed


def scenario_from_dict(doc: dict) -> tuple[PriceScenario, dict]:
    """Parse a scenario document; returns the scenario and its option blocks."""
    if not isinstance(doc, dict):
        raise ValueError("scenario file must contain a JSON object")
    for key in ("A", "B", "epsilon"):
        if key not in doc:
            raise ValueError(f"scenario file is missing field {key!r}")
    for key in ("A", "B"):
        if not isinstance(doc[key], list):
            raise ValueError(f"field {key!r} must be a list of prices")
    scenario = PriceScenario(A=tuple(doc["A"]), B=tuple(doc["B"]), epsilon=doc["epsilon"])
    if "N" in doc and as_int(doc["N"], "N") != scenario.N:
        raise ValueError(f"declared N={doc['N']} but A/B have {scenario.N} entries")
    counting = doc.get("counting", {})
    com = doc.get("commitment", {})
    for key, block in (("counting", counting), ("commitment", com)):
        if not isinstance(block, dict):
            raise ValueError(f"option block {key!r} must be a JSON object, got {block!r}")
    c = com.get("c", DEFAULTS["c"])
    if isinstance(c, bool) or not isinstance(c, (int, float)):
        raise ValueError(f"commitment.c must be a number, got {c!r}")
    options = {
        "t": as_int(counting.get("t", DEFAULTS["t"]), "counting.t"),
        "shots": as_int(counting.get("shots", DEFAULTS["shots"]), "counting.shots"),
        "c": float(c),
        "seed": _seed(doc.get("seed", DEFAULTS["seed"]), "seed"),
    }
    return scenario, options


def _parse_adversary(arg: str) -> tuple[str, str]:
    party, sep, behavior = arg.partition(":")
    if not sep or party not in OTHER or behavior not in protocol.BEHAVIORS:
        raise ValueError(
            f"--adversary expects PARTY:BEHAVIOR with party in alice|bob and "
            f"behavior in {'|'.join(protocol.BEHAVIORS)}; got {arg!r}"
        )
    return party, behavior


def cmd_run(args) -> int:
    try:
        with open(args.scenario, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read scenario file: {exc}") from exc
    scenario, options = scenario_from_dict(doc)
    if args.t is not None:
        options["t"] = args.t
    if args.shots is not None:
        options["shots"] = args.shots
    if args.seed is not None:
        options["seed"] = _seed(args.seed, "--seed")

    params = CountingParams(t=options["t"], shots=options["shots"])
    code_seed = protocol.negotiation_seeds(options["seed"])["code"]
    code = commitment.make_random_code(scenario.n, c=options["c"], seed=code_seed)
    if args.adversary:
        party, behavior = _parse_adversary(args.adversary)
        transcript = protocol.run_with_adversary(
            scenario, party, behavior, params=params, code=code,
            master_seed=options["seed"])
    else:
        transcript = protocol.run_negotiation(
            scenario, params=params, code=code, master_seed=options["seed"])
    print(transcript.to_json())
    return EXIT_OK


def cmd_costs(args) -> int:
    csv = analysis.cost_table_csv(range(1, args.n_max + 1), args.d, args.split_units)
    sys.stdout.write(csv)
    return EXIT_OK


def cmd_detect(args) -> int:
    csv = analysis.detection_curve_csv(args.c, range(1, args.n_max + 1))
    sys.stdout.write(csv)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="q3pen",
        description="Simulate the privacy-preserving price negotiation protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one negotiation from a scenario file")
    p_run.add_argument("scenario", help="path to a scenario JSON file")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--t", type=int, default=None, help="phase-estimation precision qubits")
    p_run.add_argument("--shots", type=int, default=None)
    p_run.add_argument("--adversary", default=None, metavar="PARTY:BEHAVIOR")
    p_run.set_defaults(func=cmd_run)

    p_costs = sub.add_parser("costs", help="emit the communication-cost table as CSV")
    p_costs.add_argument("--d", type=int, required=True, help="price width in bits")
    p_costs.add_argument("--n-max", type=int, required=True)
    p_costs.add_argument("--split-units", action="store_true",
                         help="append separate qubit/cbit columns")
    p_costs.set_defaults(func=cmd_costs)

    p_detect = sub.add_parser("detect", help="emit the cheat-detection curve as CSV")
    p_detect.add_argument("--c", type=float, required=True, help="code expansion constant")
    p_detect.add_argument("--n-max", type=int, required=True)
    p_detect.set_defaults(func=cmd_detect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"q3pen: capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (ValueError, RuntimeError) as exc:
        print(f"q3pen: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
