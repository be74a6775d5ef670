"""Reversible circuits for the negotiation protocol, and Steps 1-3 on them.

Two oracles cover the quantum side of the price comparison:

* a ``PriceOracle`` loads a party's price list into a register,
  ``|i>|t> -> |i>|t XOR price_i>`` for index values 1..N (identity
  elsewhere, which keeps the operator unitary).
* ``build_comparator`` writes ``a >= b`` into a flag qubit, restoring the
  price registers and all scratch ancillas.  On the comparison layout it
  is the flag oracle: by linearity each branch ``|i>|a_i>|b_i>|0>`` of a
  superposition picks up its own flag bit.  ``flag_oracle`` builds it once
  per (n, d, announcer) and shares it.

Every oracle is a permutation of basis states, and ``images`` returns where
each of an array of basis indices lands.  Price lists enter only through a
``PriceScenario``, which compiles each role's list once, when it is built,
to a table ``T`` of ``2**n`` entries, ``T[i] = price_i`` for i = 1..N and 0
elsewhere (``price_table``).  A ``PriceOracle`` wraps that table, so its
images are one gather, ``x ^ (T[index(x)] << offset)``, and it is its own
inverse.  It stands for one NOT per set price bit, controlled on the
product's index; ``len`` counts those gates, and nothing in the package
builds them (the tests hold the gate list).  The comparator is a
``Circuit``: NOT gates with mixed-polarity controls, inverted by reversing
the gate list, whose ``images`` run the gates in order (per gate, one
compare against the control mask and value the gate computed when it was
built, and one XOR into the target bit).  Applying an oracle to an
amplitude array moves only its support (the nonzero amplitudes) to their
images, which is exact.

The roles are "alice" (buyer) and "bob" (seller): ``OTHER`` maps each to
the other party, ``REGISTER`` to the register its prices load into, and
``PriceScenario.prices`` to its price list.  Steps 1-3 build the state a
party counts, as its support: ``prepare_announced_state``,
``load_received_state`` and ``write_comparison_flag``.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .statevec import ATOL_INPUT, Gate, RegisterLayout, StateVector, SupportState, check_tolerance

OTHER = {"alice": "bob", "bob": "alice"}
REGISTER = {"alice": "priceA", "bob": "priceB"}


def classical_f(a: int, b: int) -> int:
    """Comparison bit: 1 iff a >= b."""
    return 1 if a >= b else 0


# ---------------------------------------------------------------------------
# scenarios


def as_int(value, what: str) -> int:
    """``value`` as an int; bools, floats and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class PriceScenario:
    """One negotiation instance: buyer prices A, seller prices B, threshold.

    ``n`` and ``d`` are the derived register widths, computed once: n
    indexes the N products (values 1..N, so n = ceil(log2(N+1))) and d
    holds the largest price.  Prices are non-negative integers in arbitrary
    currency units.  Each role's price list is compiled once, here, to its
    read-only table (``tables[role]``, see ``price_table``); Steps 1-3 and
    ``counting.comparison_oracles`` wrap it in a ``PriceOracle``.
    """

    A: tuple[int, ...]
    B: tuple[int, ...]
    epsilon: int
    n: int = field(init=False, repr=False, compare=False)
    d: int = field(init=False, repr=False, compare=False)
    tables: dict[str, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        A, B = tuple(self.A), tuple(self.B)
        # one pass over the element types; only a bad one walks the prices
        # again, to name the first offender as ``as_int`` does
        kinds = set(map(type, A + B))
        if any(issubclass(kind, bool) or not issubclass(kind, numbers.Integral) for kind in kinds):
            for price in A + B:
                as_int(price, "price")
        if kinds != {int}:  # numpy integers, say: stored as ints
            A, B = tuple(map(int, A)), tuple(map(int, B))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "epsilon", as_int(self.epsilon, "threshold"))
        if len(A) == 0 or len(A) != len(B):
            raise ValueError(f"price lists must be equal-length and non-empty: {len(A)} vs {len(B)}")
        try:
            prices = np.array((A, B), dtype=np.intp)
        except OverflowError:
            # a price of 64 bits or more: no basis index holds it, so Step 1's
            # layout refuses the scenario (CapacityError) before a table is read
            prices = np.array((A, B), dtype=object)
        if prices.min() < 0:
            raise ValueError("prices must be non-negative")
        if not 1 <= self.epsilon <= len(A):
            raise ValueError(f"threshold {self.epsilon} outside 1..{len(A)}")
        n = len(A).bit_length()  # ceil(log2(N+1)) for N >= 1
        object.__setattr__(self, "n", n)
        # width of the widest price; at least 1 so a price register exists
        object.__setattr__(self, "d", max(1, int(prices.max()).bit_length()))
        object.__setattr__(self, "tables", {"alice": price_table(prices[0], n),
                                            "bob": price_table(prices[1], n)})

    @property
    def N(self) -> int:
        return len(self.A)

    def prices(self, role: str) -> tuple[int, ...]:
        """The price list of ``role``: A for "alice", B for "bob"."""
        return {"alice": self.A, "bob": self.B}[role]


def price_table(prices: np.ndarray, n: int) -> np.ndarray:
    """A price list compiled for an n-bit index register: ``2**n`` read-only
    entries, price_i at i = 1..N (product i is index value i) and 0 elsewhere."""
    table = np.zeros(1 << n, dtype=prices.dtype)
    table[1 : len(prices) + 1] = prices
    table.flags.writeable = False
    return table


def brute_force_count(scenario: PriceScenario) -> int:
    """Classical count of products with buyer price >= seller price."""
    return sum(classical_f(a, b) for a, b in zip(scenario.A, scenario.B))


def announcement_layout(scenario: PriceScenario, owner: str) -> RegisterLayout:
    """Layout of the (n+d)-qubit state a party announces: index + own price.
    Built once per (n, d, owner) and shared; do not modify it."""
    return _announcement_layout(scenario.n, scenario.d, owner)


@functools.cache
def _announcement_layout(n: int, d: int, owner: str) -> RegisterLayout:
    return RegisterLayout(("index", n), (REGISTER[owner], d))


def comparison_layout(scenario: PriceScenario, announced_by: str) -> RegisterLayout:
    """Full working layout for the state announced by one party.

    The announcer's price register sits directly above the index register,
    the receiving party's register above that; segment names keep the
    buyer/seller roles unambiguous whichever order they are laid out in.
    Built once per (n, d, announcer) and shared; do not modify it.
    """
    return _comparison_layout(scenario.n, scenario.d, announced_by)


@functools.cache
def _comparison_layout(n: int, d: int, announced_by: str) -> RegisterLayout:
    return RegisterLayout(
        ("index", n),
        (REGISTER[announced_by], d),
        (REGISTER[OTHER[announced_by]], d),
        ("flag", 1),
        ("ancilla", d),  # the comparator's scratch: one qubit per price bit
    )


# ---------------------------------------------------------------------------
# circuits


@dataclass(frozen=True)
class Circuit:
    """Immutable ordered list of NOT gates over a register layout.

    If ``ancilla`` names a segment, the circuit promises to return it to
    |0...0> on every computational-basis input that enters with it zeroed
    (compute/uncompute discipline); tests verify this exhaustively.
    """

    gates: tuple[Gate, ...]
    layout: RegisterLayout
    ancilla: str | None = None
    name: str = ""
    # each gate's control mask, control value and target bit as np.intp
    # scalars, converted once: a Python int is converted in every ufunc call
    passes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        touched = 0
        for g in self.gates:
            touched |= g.mask | 1 << g.target
        if touched >> self.layout.num_qubits:
            raise ValueError(f"gate touches qubit {touched.bit_length() - 1} outside layout ({self.layout})")
        object.__setattr__(self, "passes", tuple(
            (np.intp(g.mask), np.intp(g.value), np.intp(1 << g.target)) for g in self.gates))

    def __len__(self):
        return len(self.gates)

    def inverse(self) -> "Circuit":
        return Circuit(self.gates[::-1], self.layout, self.ancilla, name=self.name + "^-1")

    # -- application ----------------------------------------------------

    def images(self, indices) -> np.ndarray:
        """Basis index each input index is sent to, the gates run in order."""
        x = np.array(indices, dtype=np.intp)
        for mask, value, bit in self.passes:
            x ^= ((x & mask) == value) * bit
        return x

    def apply_to_array(self, amplitudes: np.ndarray) -> None:
        """Run the circuit on a raw amplitude array, in place.

        Only the nonzero amplitudes move, each to the image of its index;
        the circuit is a permutation, so this is exact.
        """
        support = np.flatnonzero(amplitudes)
        values = amplitudes[support]
        amplitudes[support] = 0.0
        amplitudes[self.images(support)] = values

    def apply(self, state: StateVector) -> StateVector:
        if state.num_qubits != self.layout.num_qubits:
            raise ValueError(
                f"circuit is laid out for {self.layout.num_qubits} qubits, state has {state.num_qubits}"
            )
        amps = state.amplitudes.copy()
        self.apply_to_array(amps)
        return StateVector(state.num_qubits, amps)


@dataclass(frozen=True, eq=False)
class PriceOracle:
    """A price list compiled to an index table: ``x -> x ^ (table[i] << o)``
    with i the index register's value and o the target register's offset.

    ``table`` has ``2**n`` read-only entries, price_i at i = 1..N and 0
    elsewhere, so index values 0 and > N are left untouched.  An XOR load
    undoes itself, so the oracle is its own inverse.
    """

    table: np.ndarray
    layout: RegisterLayout
    target: str

    def __len__(self):
        """The number of NOT gates the table stands for: one per set price bit."""
        return sum(price.bit_count() for price in self.table.tolist())

    def inverse(self) -> "PriceOracle":
        return self

    def images(self, indices) -> np.ndarray:
        """Basis index each input index is sent to: one gather through the table."""
        x = np.array(indices, dtype=np.intp)
        x ^= self.table[self.layout["index"].value(x)] << self.layout[self.target].offset
        return x

    # a permutation of basis states moves amplitudes the way a circuit does
    apply_to_array = Circuit.apply_to_array
    apply = Circuit.apply


def build_comparator(d: int, layout: RegisterLayout) -> Circuit:
    """Flag <- flag XOR (priceA >= priceB), price registers restored.

    Works most-significant-bit first with "first differing bit decides"
    semantics: the priceB register temporarily holds the XOR a_j ^ b_j, an
    equal-so-far chain of ancillas gates each lower bit through negative
    controls, and mutually exclusive Toffoli terms accumulate (a < b) into a
    scratch bit.  The flag is then flipped through a negative control on
    that bit (a >= b is NOT(a < b)) and everything else is uncomputed.
    """
    a = layout["priceA"]
    b = layout["priceB"]
    flag = layout["flag"]
    if a.width != d or b.width != d:
        raise ValueError(f"price registers are {a.width}/{b.width} bits, expected {d}")
    if flag.width != 1:
        raise ValueError("flag segment must be a single qubit")
    if "ancilla" not in layout or layout["ancilla"].width < d:
        raise ValueError(f"comparator needs {d} ancilla qubits")
    anc = layout["ancilla"]
    less = anc.offset           # accumulates a < b
    eq = lambda k: anc.offset + k  # "bits d-1..k of a and b agree", k in 1..d-1

    compute: list[Gate] = []
    # b_j <- a_j ^ b_j
    for j in range(d):
        compute.append(Gate(b.offset + j, ((a.offset + j, 1),)))
    # equal-so-far chain, top bit downward
    if d >= 2:
        compute.append(Gate(eq(d - 1), ((b.offset + d - 1, 0),)))
        for k in range(d - 2, 0, -1):
            compute.append(Gate(eq(k), ((eq(k + 1), 1), (b.offset + k, 0))))
    # first-difference terms: a_j = 0 and (a_j ^ b_j) = 1 means a_j < b_j
    msb = d - 1
    compute.append(Gate(less, ((a.offset + msb, 0), (b.offset + msb, 1))))
    for j in range(d - 2, -1, -1):
        compute.append(
            Gate(less, ((eq(j + 1), 1), (a.offset + j, 0), (b.offset + j, 1)))
        )

    flag_copy = Gate(flag.offset, ((less, 0),))
    gates = tuple(compute) + (flag_copy,) + tuple(reversed(compute))
    return Circuit(gates, layout, ancilla="ancilla", name=f"compare-{d}bit")


@functools.cache
def flag_oracle(n: int, d: int, announced_by: str) -> Circuit:
    """The flag oracle: the comparator on the comparison layout of an n-bit
    index, d-bit prices and the given announcer.  It depends on nothing
    else, so it is built once per (n, d, announcer) and shared."""
    return build_comparator(d, _comparison_layout(n, d, announced_by))


# ---------------------------------------------------------------------------
# Steps 1-3 on the support


def prepare_announced_state(scenario: PriceScenario, owner: str) -> SupportState:
    """The state a party sends in Step 1: the uniform superposition over
    index values 1..N with its own prices XOR-loaded alongside, i.e. the
    indices ``i | price_i << n``, in ascending order, with amplitude
    ``1/sqrt(N)`` each."""
    layout = announcement_layout(scenario, owner)
    oracle = PriceOracle(scenario.tables[owner], layout, REGISTER[owner])
    indices = np.sort(oracle.images(np.arange(1, scenario.N + 1)))
    amplitudes = np.full(scenario.N, 1.0 / math.sqrt(scenario.N), dtype=np.complex128)
    return SupportState(layout.num_qubits, indices, amplitudes)


def load_received_state(scenario: PriceScenario, announced_by: str,
                        state: SupportState) -> SupportState:
    """Step 2 on a received state: its support, with the receiver's prices
    loaded alongside, as indices on the comparison layout (extending the
    register by zeros on top leaves the indices unchanged)."""
    width = announcement_layout(scenario, announced_by).num_qubits
    if state.num_qubits != width:
        raise ValueError(f"received a {state.num_qubits}-qubit state; the announcement has {width}")
    norm = float(np.linalg.norm(state.amplitudes))
    check_tolerance(abs(norm - 1.0),
                    f"received state norm {norm} deviates from 1 by more than {ATOL_INPUT}")
    layout = comparison_layout(scenario, announced_by)
    receiver = OTHER[announced_by]
    oracle = PriceOracle(scenario.tables[receiver], layout, REGISTER[receiver])
    return SupportState(layout.num_qubits, oracle.images(state.indices), state.amplitudes)


def write_comparison_flag(scenario: PriceScenario, announced_by: str,
                          held: SupportState) -> SupportState:
    """Step 3 on a held state: the flag oracle applied to its indices."""
    oracle = flag_oracle(scenario.n, scenario.d, announced_by)
    return held._replace(indices=oracle.images(held.indices))
