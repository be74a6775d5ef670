"""Span recorder installed from outside the q3pen package.

``Tracer.install()`` replaces the public functions and methods listed in
``TARGETS`` with wrappers that record one span per call: the target's name,
start and end (``perf_counter_ns``), the enclosing span and the benchmark
operation id.  Functions are replaced under every name a ``q3pen`` module
imported them as, so ``from .statevec import measure`` inside
``q3pen.protocol`` is traced as well.  ``uninstall()`` puts the originals
back.  Nothing under ``src/`` is modified.

Spans are kept in flat ``array('q')`` columns (a deep-t pass records about
a hundred thousand of them) and written out once, by ``save``, at the end.
A target that a later version of the package no longer has is skipped and
listed in ``missing``; metrics built on it then read zero.
"""

from __future__ import annotations

import importlib
import sys
import weakref
from array import array
from time import perf_counter_ns

import numpy as np

# (layer, module, attribute path).  A span is named "<layer>.<attribute path>"
# and its self time is charged to that layer.
TARGETS = (
    ("statevec", "q3pen.statevec", "prepare_amplitudes"),
    ("statevec", "q3pen.statevec", "prepare_basis"),
    ("statevec", "q3pen.statevec", "extend_with_zeros"),
    ("statevec", "q3pen.statevec", "measure"),
    ("statevec", "q3pen.statevec", "von_neumann_entropy"),
    ("circuits", "q3pen.circuits", "build_price_oracle"),
    ("circuits", "q3pen.circuits", "build_comparator"),
    ("circuits", "q3pen.circuits", "build_flag_oracle"),
    ("circuits", "q3pen.circuits", "Circuit.inverse"),
    ("circuits", "q3pen.circuits", "Circuit.apply"),
    ("circuits", "q3pen.circuits", "Circuit.apply_to_array"),
    ("counting", "q3pen.counting", "build_state_preparation"),
    ("counting", "q3pen.counting", "StatePreparation.apply_to_array"),
    ("counting", "q3pen.counting", "StatePreparation.inverse_to_array"),
    ("counting", "q3pen.counting", "GroverIterate.apply_to_array"),
    ("counting", "q3pen.counting", "phase_register_distribution"),
    ("counting", "q3pen.counting", "quantum_count"),
    ("counting", "numpy.fft", "fft"),
    ("commitment", "q3pen.commitment", "make_random_code"),
    ("commitment", "q3pen.commitment", "commit"),
    ("commitment", "q3pen.commitment", "verify"),
    ("commitment", "q3pen.commitment", "empirical_accept_rate"),
    ("protocol", "q3pen.protocol", "run_negotiation"),
    ("protocol", "q3pen.protocol", "run_with_adversary"),
    ("protocol", "q3pen.protocol", "prepare_announced_state"),
    ("protocol", "q3pen.protocol", "NegotiationTranscript.to_json"),
    ("analysis", "q3pen.analysis", "holevo_bound"),
    ("analysis", "q3pen.protocol", "measurement_attack_statistics"),
)
LAYERS = ("statevec", "circuits", "counting", "commitment", "protocol", "analysis")

# "a" and "b" are per-target annotations (see _NOTES and _wrap_apply);
# "first" marks the first apply of a circuit object at a given size.
COLUMNS = ("name", "parent", "op", "start", "end", "a", "b", "first")


def _rows_bytes(args, kwargs, result) -> int:
    """Computed size of the 2**t x 2**work rows array phase estimation fills."""
    from q3pen import circuits

    scenario, t = args[0], (args[1] if len(args) > 1 else kwargs["t"])
    announced_by = args[2] if len(args) > 2 else kwargs.get("announced_by", "alice")
    work = circuits.comparison_layout(scenario, announced_by).num_qubits
    return 16 << (t + work)


def _gate_count(result) -> int:
    return len(getattr(result, "gates", ()))


# Per-span annotation "a", computed from the call and its result.
_NOTES = {
    "counting.phase_register_distribution": _rows_bytes,
    "circuits.build_price_oracle": lambda args, kwargs, r: _gate_count(r),
    "circuits.build_comparator": lambda args, kwargs, r: _gate_count(r),
    "circuits.Circuit.inverse": lambda args, kwargs, r: _gate_count(r),
    "commitment.verify": lambda args, kwargs, r: int(bool(r)),
    "analysis.measurement_attack_statistics": lambda args, kwargs, r: int(r.trials),
}


class Tracer:
    """Records spans of the targets while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.cols = {c: array("q") for c in COLUMNS}
        self.op = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # id(circuit) -> {amplitude count: computed bytes per apply}; an entry
        # is dropped when its circuit is collected, so ids are never confused.
        self._applied: dict[int, dict[int, int]] = {}

    def __len__(self):
        return len(self.cols["start"])

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for layer, module, attr in TARGETS:
            try:
                mod = importlib.import_module(module)
                owner = mod
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf] if path else getattr(mod, leaf)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module}.{attr}")
                continue
            name = f"{layer}.{attr}"
            nid = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
            wrapper = (self._wrap_apply(nid, original) if name == "circuits.Circuit.apply_to_array"
                       else self._wrap(nid, original, _NOTES.get(name)))
            if path:
                self._patch(owner, leaf, wrapper)
            else:
                self._patch(mod, leaf, wrapper)
                for other in list(sys.modules.values()):
                    if (other is not mod and getattr(other, "__name__", "").startswith("q3pen")
                            and other.__dict__.get(leaf) is original):
                        self._patch(other, leaf, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- wrappers ----------------------------------------------------------

    def _open(self, nid: int) -> int:
        cols, stack = self.cols, self._stack
        sid = len(cols["start"])
        cols["name"].append(nid)
        cols["parent"].append(stack[-1] if stack else -1)
        cols["op"].append(self.op)
        cols["end"].append(0)
        cols["a"].append(0)
        cols["b"].append(0)
        cols["first"].append(0)
        stack.append(sid)
        cols["start"].append(perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.cols["end"][sid] = perf_counter_ns()
        self._stack.pop()

    def _wrap(self, nid, fn, note):
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if note is not None:
                tracer.cols["a"][sid] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_apply(self, nid, fn):
        """Circuit.apply_to_array: a = gates applied, b = computed bytes,
        first = 1 on the first apply of a circuit object at a given amplitude
        count, the call that pays for compilation."""
        tracer = self
        applied = self._applied

        def traced(circuit, amplitudes, *args, **kwargs):
            key = id(circuit)
            sizes = applied.get(key)
            if sizes is None:
                sizes = applied[key] = {}
                weakref.finalize(circuit, applied.pop, key, None)
            dim = amplitudes.size
            nbytes = sizes.get(dim)
            first = nbytes is None
            if first:
                nbytes = sizes[dim] = _computed_bytes(circuit, dim)
            sid = tracer._open(nid)
            try:
                return fn(circuit, amplitudes, *args, **kwargs)
            finally:
                tracer._close(sid)
                tracer.cols["a"][sid] = len(circuit.gates)
                tracer.cols["b"][sid] = nbytes
                tracer.cols["first"][sid] = first

        traced.__wrapped__ = fn
        return traced

    # -- output ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Zero-copy views of the columns; call only once recording is over
        (an array('q') exporting its buffer cannot grow)."""
        return {c: np.frombuffer(self.cols[c], dtype=np.int64) for c in COLUMNS}

    def save(self, path, passes) -> None:
        """Write every span (and the pass boundaries) as one .npz file."""
        np.savez_compressed(path, names=np.array(self.names), layers=np.array(self.layers),
                 passes=np.array(passes, dtype=np.int64).reshape(-1, 2), **self.arrays())


def _computed_bytes(circuit, dim: int) -> int:
    """Gate-level model: a NOT with c controls reads and writes dim / 2**c
    complex128 amplitudes (32 bytes each, read plus write).  Computed from
    sizes, not measured."""
    return sum((32 * dim) >> len(getattr(gate, "controls", ())) for gate in circuit.gates)


# ---------------------------------------------------------------------------
# aggregation

BUILD_SPANS = ("circuits.build_price_oracle", "circuits.build_comparator",
            "circuits.build_flag_oracle", "circuits.Circuit.inverse")
GATE_BUILD_SPANS = ("circuits.build_price_oracle", "circuits.build_comparator",
                 "circuits.Circuit.inverse")
NEGOTIATIONS = ("protocol.run_negotiation", "protocol.run_with_adversary")
# Direct children of a negotiation span, by protocol step.
STEPS = {
    "protocol.step1_ms": ("protocol.prepare_announced_state",),
    "protocol.step23_ms": ("statevec.extend_with_zeros", "statevec.measure",
                           "circuits.Circuit.apply", "circuits.build_price_oracle",
                           "circuits.build_flag_oracle", "circuits.build_comparator"),
    "protocol.step4_ms": ("counting.quantum_count",),
    "protocol.step5_ms": ("commitment.commit", "commitment.verify"),
}
SUMS_MS = {  # metric -> span names whose inclusive time it totals
    "counting.prep_build_ms": ("counting.build_state_preparation",),
    "counting.distribution_ms": ("counting.phase_register_distribution",),
    "counting.fft_ms": ("counting.fft",),
    "statevec.prepare_ms": ("statevec.prepare_amplitudes", "statevec.prepare_basis"),
    "statevec.extend_ms": ("statevec.extend_with_zeros",),
    "statevec.measure_ms": ("statevec.measure",),
    "statevec.entropy_ms": ("statevec.von_neumann_entropy",),
    "commitment.code_ms": ("commitment.make_random_code",),
    "protocol.to_json_ms": ("protocol.NegotiationTranscript.to_json",),
    "analysis.holevo_ms": ("analysis.holevo_bound",),
    "analysis.attack_ms": ("analysis.measurement_attack_statistics",),
}
CALLS = {
    "counting.iterate_apps": "counting.GroverIterate.apply_to_array",
    "circuits.apply_calls": "circuits.Circuit.apply_to_array",
    "statevec.measure_calls": "statevec.measure",
    "statevec.entropy_calls": "statevec.von_neumann_entropy",
    "commitment.commit_calls": "commitment.commit",
}


def pass_metrics(tracer: Tracer, lo: int, hi: int) -> dict[str, float]:
    """Per-layer figures for the spans of one pass, ``[lo, hi)``."""
    cols = tracer.arrays()
    names = tracer.names
    name = cols["name"][lo:hi]
    parent = cols["parent"][lo:hi]
    dur = (cols["end"][lo:hi] - cols["start"][lo:hi]).astype(np.float64)
    a = cols["a"][lo:hi]
    b = cols["b"][lo:hi]
    first_apply = cols["first"][lo:hi] == 1
    local = parent - lo  # parent index within the pass slice (-1 or below: none)
    has_parent = local >= 0
    child_time = np.bincount(local[has_parent], weights=dur[has_parent], minlength=hi - lo)
    self_time = dur - child_time
    ids = {n: i for i, n in enumerate(names)}

    def mask(*span_names):
        wanted = [ids[n] for n in span_names if n in ids]
        return np.isin(name, wanted)

    def ms(m):
        return float(dur[m].sum()) / 1e6

    out: dict[str, float] = {}
    for metric, span_names in SUMS_MS.items():
        out[metric] = ms(mask(*span_names))
    for metric, span_name_ in CALLS.items():
        out[metric] = int(mask(span_name_).sum())

    builds = mask(*BUILD_SPANS)
    parent_is_build = np.zeros_like(builds)
    parent_is_build[has_parent] = builds[local[has_parent]]
    out["circuits.build_ms"] = ms(builds & ~parent_is_build)
    out["circuits.gates_built"] = int(a[mask(*GATE_BUILD_SPANS)].sum())
    applies = mask("circuits.Circuit.apply_to_array")
    out["circuits.first_apply_ms"] = ms(applies & first_apply)
    out["circuits.apply_ms"] = ms(applies & ~first_apply)
    out["circuits.gate_apps"] = int(a[applies].sum())
    out["circuits.bytes_computed"] = int(b[applies].sum())

    dist = mask("counting.phase_register_distribution")
    out["counting.rows_bytes"] = int(a[dist].max()) if dist.any() else 0
    out["counting.sample_ms"] = float(self_time[mask("counting.quantum_count")].sum()) / 1e6

    negotiations = mask(*NEGOTIATIONS)
    parent_is_negotiation = np.zeros_like(negotiations)
    parent_is_negotiation[has_parent] = negotiations[local[has_parent]]
    for metric, span_names in STEPS.items():
        out[metric] = ms(parent_is_negotiation & mask(*span_names))
    out["protocol.self_ms"] = float(self_time[negotiations].sum()) / 1e6

    out["analysis.attack_trials"] = int(a[mask("analysis.measurement_attack_statistics")].sum())
    span_layer = np.array([LAYERS.index(layer) for layer in tracer.layers], dtype=np.int64)[name]
    for i, layer in enumerate(LAYERS):
        out[f"self_ms.{layer}"] = float(self_time[span_layer == i].sum()) / 1e6
    out["trace.spans"] = hi - lo
    return out


def phase_samples(tracer: Tracer, lo: int, hi: int) -> dict[str, float]:
    """Figures taken over every span of the traced phase, not per pass."""
    cols = tracer.arrays()
    ids = {n: i for i, n in enumerate(tracer.names)}
    name = cols["name"][lo:hi]
    dur = cols["end"][lo:hi] - cols["start"][lo:hi]
    out = {}
    for metric, span_name_ in (("counting.iterate_us_p50", "counting.GroverIterate.apply_to_array"),
                               ("commitment.verify_us_p50", "commitment.verify")):
        sel = dur[name == ids.get(span_name_, -1)]
        out[metric] = float(np.median(sel)) / 1e3 if sel.size else 0.0
    verify = name == ids.get("commitment.verify", -1)
    out["commitment.accept_ratio"] = (float(cols["a"][lo:hi][verify].sum()) / int(verify.sum())
                                      if verify.any() else 0.0)
    return out
