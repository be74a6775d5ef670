"""q3pen benchmark: one workload, timed end to end or traced layer by layer.

Usage, from the repository root:

    python3 benchmarks/run.py --workload worked --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` next to this directory and nowhere
else.  Set-up (imports, input generation, warm-up) is measured three times,
once here and twice in fresh interpreters, and reported as a median.  Then
whole passes of the workload run back to back for ``--seconds`` seconds.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` spends half the time untraced and half with the span
recorder of ``spans.py`` installed, and reports the per-layer metrics plus
the tracing overhead (traced minus untraced pass time).  Every metric this
file computes is printed by name with its unit; the last line of standard
output is the JSON result, holding the metrics BENCHMARK.json lists.
Result records and span files go to ``benchmarks/results/``.
"""

import os
import time

T_START = time.perf_counter()
# One BLAS/OpenMP thread, set before numpy is imported and inherited by the
# set-up repeats: the benchmark is a single-threaded closed loop.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_CHILDREN = 2
MIN_PASSES = 2          # per timed phase, so passes can be compared
MIN_NEGOTIATIONS = 11   # the tail needs ten samples beyond it
HARD_STOP_S = 150.0     # stop starting passes after this, whatever --seconds says

# Unit of every metric the benchmark computes; METRICS.md says what each is.
UNITS = {
    "wall_s": "s", "negotiation_ms_p50": "ms", "negotiation_ms_tail": "ms", "setup_s": "s",
    "peak_rss_mb": "MB", "failed_frac": "ratio",
    "circuits.build_ms": "ms", "circuits.gates_built": "count", "circuits.first_apply_ms": "ms",
    "circuits.apply_calls": "count", "circuits.apply_ms": "ms", "circuits.gate_apps": "count",
    "circuits.bytes_computed": "bytes",
    "counting.prep_build_ms": "ms", "counting.iterate_apps": "count", "counting.iterate_us_p50": "us",
    "counting.distribution_ms": "ms", "counting.fft_ms": "ms", "counting.sample_ms": "ms",
    "counting.rows_bytes": "bytes",
    "statevec.prepare_ms": "ms", "statevec.extend_ms": "ms", "statevec.measure_ms": "ms",
    "statevec.measure_calls": "count", "statevec.entropy_ms": "ms", "statevec.entropy_calls": "count",
    "commitment.code_ms": "ms", "commitment.commit_calls": "count", "commitment.verify_us_p50": "us",
    "commitment.accept_ratio": "ratio",
    "protocol.step1_ms": "ms", "protocol.step23_ms": "ms", "protocol.step4_ms": "ms",
    "protocol.step5_ms": "ms", "protocol.self_ms": "ms", "protocol.to_json_ms": "ms",
    "protocol.qubits_sent": "count", "protocol.cbits_sent": "count",
    "analysis.holevo_ms": "ms", "analysis.attack_ms": "ms", "analysis.attack_trials": "count",
    "self_ms.statevec": "ms", "self_ms.circuits": "ms", "self_ms.counting": "ms",
    "self_ms.commitment": "ms", "self_ms.protocol": "ms", "self_ms.analysis": "ms",
    "trace.spans": "count", "trace.overhead_s": "s",
}
# Counts that must repeat exactly from pass to pass.
DETERMINISTIC = ("counting.iterate_apps", "circuits.gates_built", "circuits.gate_apps",
                 "counting.rows_bytes", "protocol.qubits_sent", "protocol.cbits_sent",
                 "circuits.apply_calls", "circuits.bytes_computed", "statevec.measure_calls",
                 "statevec.entropy_calls", "commitment.commit_calls", "analysis.attack_trials",
                 "trace.spans")


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing sources, bad arguments)."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time as JSON and exit (used for the repeats)")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_package():
    """Import q3pen from this checkout's src/ and nowhere else."""
    if not (SRC / "q3pen" / "__init__.py").is_file():
        raise BenchmarkError(f"no q3pen sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import q3pen

    if Path(q3pen.__file__).resolve().parent != (SRC / "q3pen").resolve():
        raise BenchmarkError(f"q3pen imported from {q3pen.__file__}, not from {SRC}")
    return q3pen


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "q3pen").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": THREAD_ENV,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# running passes


class Phase:
    """Closed-loop passes over the operations, with their checks."""

    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.walls: list[float] = []
        self.negotiation_s: list[float] = []
        self.span_ranges: list[tuple[int, int]] = []
        self.sent: list[tuple[int, int]] = []  # (qubits, cbits) per pass
        self.rss_mb: list[float] = []  # peak RSS after each pass
        self.attempted = 0
        self.failed = 0

    def run(self, seconds, fingerprints, problems):
        deadline = time.perf_counter() + seconds
        while True:
            self.run_pass(fingerprints, problems)
            now = time.perf_counter()
            if now - T_START > HARD_STOP_S:
                break
            if (now >= deadline and len(self.walls) >= MIN_PASSES
                    and len(self.negotiation_s) >= MIN_NEGOTIATIONS):
                break

    def run_pass(self, fingerprints, problems):
        tracer = self.tracer
        lo = len(tracer) if tracer else 0
        wall = 0.0
        qubits = cbits = 0
        for index, op in enumerate(self.ops):
            if tracer:
                tracer.op = self.attempted
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception:  # an operation that raises counts as failed
                elapsed = time.perf_counter() - t0
                self.failed += 1
                problems.append(f"{op.label}: raised\n{traceback.format_exc()}")
                wall += elapsed
                continue
            elapsed = time.perf_counter() - t0
            wall += elapsed
            faults = op.check(result)
            text = op.fingerprint(result)
            if fingerprints.setdefault(index, text) != text:
                faults.append("output differs from the first pass")
            if op.kind == "negotiation":
                self.negotiation_s.append(elapsed)
                for msg in result[0].messages:
                    qubits += msg.qubit_cost
                    cbits += msg.cbit_cost
            if faults:
                self.failed += 1
                problems.extend(f"{op.label}: {fault}" for fault in faults)
        self.walls.append(wall)
        self.sent.append((qubits, cbits))
        self.rss_mb.append(peak_rss_mb())
        if tracer:
            self.span_ranges.append((lo, len(tracer)))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def warm_up(ops):
    """Run the first operation of each kind once, untimed and unchecked."""
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            try:
                op.run()
            except Exception:  # the timed passes count and report it
                pass


def child_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise BenchmarkError(f"set-up repeat failed:\n{done.stderr}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


# ---------------------------------------------------------------------------
# metrics


def tail(samples):
    """(value, percentile, n): the highest percentile that still has at least
    ten samples beyond it, i.e. the eleventh-largest sample (the smallest one
    when there are ten or fewer)."""
    ordered = sorted(samples)
    n = len(ordered)
    k = max(1, n - 10)
    return ordered[k - 1], 100.0 * k / n, n


def layer_metrics(phase, tracer, problems) -> dict:
    per_pass = [spans.pass_metrics(tracer, lo, hi) for lo, hi in phase.span_ranges]
    for i, (qubits, cbits) in enumerate(phase.sent):
        per_pass[i]["protocol.qubits_sent"] = qubits
        per_pass[i]["protocol.cbits_sent"] = cbits
    out = {}
    for name in per_pass[0]:
        values = [p[name] for p in per_pass]
        if name in DETERMINISTIC:
            if len(set(values)) != 1:
                problems.append(f"{name} changed between passes: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    first, last = phase.span_ranges[0][0], phase.span_ranges[-1][1]
    out.update(spans.phase_samples(tracer, first, last))
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import workloads

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.SIZES:
        raise BenchmarkError(f"unknown workload {args.workload!r}")
    ops = workloads.build(args.workload, args.seed)
    warm_up(ops)
    setup = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup}))
        return 0
    setups = [setup] + [child_setup(args) for _ in range(SETUP_CHILDREN)]

    env = environment()
    print(f"# q3pen benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# sizes: {workloads.SIZES[args.workload]}")
    print(f"# env: {json.dumps(env, sort_keys=True)}")

    problems: list[str] = []
    fingerprints: dict[int, str] = {}
    untraced = Phase(ops)
    metrics: dict[str, float] = {}
    if args.trace == 0:
        untraced.run(args.seconds, fingerprints, problems)
        phases = [untraced]
    else:
        untraced.run(args.seconds / 2, fingerprints, problems)
        tracer = spans.Tracer()
        traced = Phase(ops, tracer)
        tracer.install()
        try:
            traced.run(args.seconds / 2, fingerprints, problems)
        finally:
            tracer.uninstall()
        phases = [untraced, traced]
        metrics.update(layer_metrics(traced, tracer, problems))
        metrics["trace.overhead_s"] = (statistics.median(traced.walls)
                                       - statistics.median(untraced.walls))
        if tracer.missing:
            print(f"# not instrumented (absent from the package): {', '.join(tracer.missing)}")
        RESULTS.mkdir(exist_ok=True)
        tracer.save(RESULTS / f"spans-{args.workload}.npz", traced.span_ranges)

    for (qubits, cbits) in untraced.sent[1:]:
        if (qubits, cbits) != untraced.sent[0]:
            problems.append(f"qubits/cbits sent changed between passes: {untraced.sent}")
            break
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    value, pct, n = tail(untraced.negotiation_s)
    metrics.update({
        "wall_s": statistics.median(untraced.walls),
        "negotiation_ms_p50": 1e3 * statistics.median(untraced.negotiation_s),
        "negotiation_ms_tail": 1e3 * value,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "failed_frac": failed / attempted,
    })
    notes = {
        "negotiation_ms_tail": f"p{pct:.1f} of {n} negotiations",
        "setup_s": "samples " + ", ".join(f"{s:.4f}" for s in setups),
        "wall_s": f"{len(untraced.walls)} untraced passes",
        "failed_frac": f"{failed} of {attempted}",
    }
    for name in sorted(metrics):
        note = notes.get(name, "")
        print(f"metric {name} = {metrics[name]!r} {UNITS[name]}" + (f"  ({note})" if note else ""))
    for problem in problems[:20]:
        print(f"# problem: {problem}", file=sys.stderr)

    listed = benchmark["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {},
    }
    for entry in listed:
        name = entry["name"]
        if UNITS.get(name) != entry["unit"] or name not in metrics:
            raise BenchmarkError(f"BENCHMARK.json metric {name} ({entry['unit']}) is not computed")
        result["metrics"][name] = {"value": metrics[name], "unit": entry["unit"]}
    RESULTS.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "sizes": workloads.SIZES[args.workload], "env": env,
              "tail_percentile": pct, "tail_samples": n, "setup_samples": setups,
              "pass_walls": [p.walls for p in phases], "pass_rss_mb": [p.rss_mb for p in phases],
              "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
              "correct": result["correct"], "attempted": attempted, "failed": failed,
              "problems": problems}
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        sys.exit(2)
