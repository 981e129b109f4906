"""Instance families, reference semantics, and end-to-end verification.

The access circuit is supposed to implement, on the data registers alone,

    |y> |r> |mem>  ->  |y>  (U_y on |r, mem_y>)  (mem_z for z != y unchanged)

with every ancilla returned to 0.  This module owns the *reference* side of
that statement: it builds instance families (collections of per-leaf
unitaries), computes the expected output directly from the matrices — no
circuit, no simulator — and compares the synthesized circuit's simulated
output against it, reporting fidelities and ancilla residuals per case.

There is one oracle, :func:`_oracle`, and one data-state reader,
:class:`_Reader`, and both work on columns, one batch of cases at a time:
the cases are integer columns packed straight into the simulator's
bit-planes, and the rows are judged with array operations that give the
same floats as per-state dictionaries would (see :func:`_fidelity`).  Only
:class:`_Keys` and the simulator's bit-field codec know how a data key is
laid out.  The public :func:`oracle_effect`, :func:`oracle_superposition`
and :func:`extract_data_state` are one-case calls of the same code; they
return dictionaries keyed by ``(y, r, mem)`` tuples (``mem`` itself a
per-leaf tuple), a deliberately circuit-free encoding.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, InvalidParameterError, ResourceLimitError, StructuralError, _shown, check_int
from .ir import Circuit
from .sim import (
    BATCH_BUDGET_BYTES,
    PRUNE_TOL,
    SparseState,
    UnitarySpec,
    _CHUNK_BYTES,
    _amplitude,
    _batch_terms,
    _batches,
    _check_budget,
    _Moments,
    _read_bits,
    _Rows,
    _run_moments,
    _write_bits,
)

# bench/selftest.py reads qramforge.verifier.run_circuit to check that the
# benchmark tracer uninstalls cleanly; the checkers pack their cases as rows.
from .sim import run_circuit  # noqa: F401
from .synth import SynthesisOptions, synth_access
from .tree import RegisterMap, _labels, _normalize_k, _validate_sizes, allocate_registers, label_of

#: Default tolerance on ``|<expected|actual>|**2`` for a passing case.
FIDELITY_TOL = 1e-10

#: Default ceiling on the probability weight left on non-zero ancillas.
RESIDUAL_TOL = 1e-12

DEFAULT_SEED = 7

#: A reference state: ``(address, result, per-leaf mem tuple) -> amplitude``.
DataState = dict[tuple[int, int, tuple[int, ...]], complex]


# ---------------------------------------------------------------------------
# instance families
# ---------------------------------------------------------------------------


@dataclass
class InstanceSpec:
    """One concrete access problem: sizes plus the per-leaf unitaries."""

    family: str
    n: int
    m: int
    k: tuple[int, ...]
    unitaries: dict[str, UnitarySpec]
    params: dict = field(default_factory=dict)

    def layout(self) -> RegisterMap:
        return allocate_registers(self.n, self.m, self.k)

    def describe(self) -> str:
        bits = [f"n={self.n}", f"m={self.m}"]
        if any(self.k):
            ks = set(self.k)
            bits.append(f"k={self.k[0]}" if len(ks) == 1 else f"k={list(self.k)}")
        bits.extend(f"{key}={value!r}" for key, value in self.params.items() if key != "table")
        return f"{self.family}({', '.join(bits)})"


def _check_payload(what: str, m: int, k: Sequence[int]) -> None:
    """Refuse an instance whose payload matrices, one complex
    ``2**(m + k_z)``-square matrix per leaf, would not fit the simulator's
    budget, before any of them is built.  Past ``2**64`` bytes, which the
    largest matrix alone shows, the sum (a huge int for a huge m or k) is not built.
    ``what`` shows ``m`` and the widths, and the message the exponent,
    through :func:`~qramforge.errors._shown`, so an int too long to print in
    decimal is refused like any other."""
    top = 2 * (m + max(k)) + 4  # the largest matrix takes 2**top bytes
    if top > 64:
        raise ResourceLimitError(f"the payload matrices of {what} would take at least 2**{_shown(top)} bytes, over the "
                                 f"simulator's budget of {BATCH_BUDGET_BYTES}", limit=BATCH_BUDGET_BYTES)
    _check_budget(sum(16 << 2 * (m + width) for width in k), f"the payload matrices of {what}")


def build_qram_instance(n: int, m: int) -> InstanceSpec:
    """Classical-memory access: each leaf holds ``m`` memory qubits and the
    payload XORs them into the result, ``|r, s> -> |r XOR s, s>``."""
    _validate_sizes(n, m)
    _check_payload(f"qram(n={n}, m={_shown(m)})", m, (m,) * (1 << n))
    dim = 1 << (2 * m)
    low = (1 << m) - 1
    matrix = np.zeros((dim, dim))
    for idx in range(dim):
        r, s = idx & low, idx >> m
        matrix[(r ^ s) | (s << m), idx] = 1.0
    unitaries = UnitarySpec.stack(_labels(n)[-1], [matrix] * (1 << n))
    return InstanceSpec("qram", n, m, (m,) * (1 << n), unitaries)


def build_table_lookup_instance(
    n: int, m: int, table: Sequence[int] | None = None, *, seed: int = DEFAULT_SEED
) -> InstanceSpec:
    """Table lookup: no memory qubits; leaf ``z`` XORs the constant
    ``table[z]`` into the result, ``|r> -> |r XOR f(z)>``."""
    _validate_sizes(n, m)
    check_int(seed, "seeds", 0)
    _check_payload(f"table_lookup(n={n}, m={_shown(m)})", m, (0,) * (1 << n))
    if table is None:
        rng = np.random.default_rng(seed)
        table = [int(v) for v in rng.integers(0, 1 << m, size=1 << n)]
    table = list(table)
    if len(table) != 1 << n:
        raise InvalidParameterError(f"table must have {1 << n} entries, got {len(table)}")
    dim = 1 << m
    for f_value in table:
        check_int(f_value, "table entries", 0, dim)
    # leaf z's permutation sends column r to row r ^ table[z]; leaves with
    # one table value share one matrix, which is checked once
    values, r = sorted(set(table)), np.arange(dim)
    matrices = np.zeros((len(values), dim, dim), dtype=bool)
    matrices[np.arange(len(values))[:, None], np.bitwise_xor.outer(values, r), r] = True
    shared = dict(zip(values, matrices))
    unitaries = UnitarySpec.stack(_labels(n)[-1], [shared[value] for value in table])
    return InstanceSpec("table_lookup", n, m, (0,) * (1 << n), unitaries, {"table": table})


def build_rotation_instance(n: int, fraction_bits: int) -> InstanceSpec:
    """Memory-programmed rotation of a single result qubit.

    Leaf ``z`` stores a ``fraction_bits``-bit fraction
    ``mu = sum(s_j * 2**-(j+1))`` (bit ``mem_z[j]`` contributes ``2**-(j+1)``)
    and applies ``exp(-i pi mu X)`` to the result qubit, leaving the fraction
    in place — a block-diagonal unitary on ``res_z ++ mem_z``.
    """
    _validate_sizes(n, 1)
    check_int(fraction_bits, "fraction widths", 1)
    _check_payload(f"rotation(n={n}, fraction_bits={_shown(fraction_bits)})", 1, (fraction_bits,) * (1 << n))
    dim = 1 << (1 + fraction_bits)
    matrix = np.zeros((dim, dim), dtype=complex)
    for s in range(1 << fraction_bits):
        mu = sum(((s >> j) & 1) * 2.0 ** -(j + 1) for j in range(fraction_bits))
        c = np.cos(np.pi * mu)
        v = np.sin(np.pi * mu)
        base = s << 1
        matrix[base, base] = c
        matrix[base + 1, base + 1] = c
        matrix[base, base + 1] = -1j * v
        matrix[base + 1, base] = -1j * v
    unitaries = UnitarySpec.stack(_labels(n)[-1], [matrix] * (1 << n), [fraction_bits] * (1 << n))
    return InstanceSpec(
        "rotation",
        n,
        1,
        (fraction_bits,) * (1 << n),
        unitaries,
        {"fraction_bits": fraction_bits},
    )


def build_random_instance(
    n: int,
    m: int,
    k: int | Sequence[int] = 0,
    *,
    seed: int = DEFAULT_SEED,
) -> InstanceSpec:
    """Independent Haar-random payloads per leaf (QR of a complex Gaussian
    with the phase gauge fixed), deterministic in ``seed``.  The leaves of
    one dimension are factored by one stacked QR per chunk of at most 64 KiB
    (or one matrix), which gives each leaf its own QR's matrix bit for bit."""
    _validate_sizes(n, m)
    check_int(seed, "seeds", 0)
    k_values = _normalize_k(n, k)
    _check_payload(f"random(n={n}, m={_shown(m)}, k={_shown(max(k_values))} at most)", m, k_values)
    matrices = {}
    for width in sorted(set(k_values)):
        dim, leaves = 1 << (m + width), [z for z, k_z in enumerate(k_values) if k_z == width]
        step = max(1, _CHUNK_BYTES // (16 * dim * dim))
        for chunk in (leaves[start : start + step] for start in range(0, len(leaves), step)):
            sample = np.empty((len(chunk), dim, dim), dtype=complex)
            for i, z_value in enumerate(chunk):
                rng = np.random.default_rng([seed, z_value])
                sample[i] = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            q, r = np.linalg.qr(sample)
            diagonal = np.diagonal(r, axis1=-2, axis2=-1)
            q *= (diagonal / np.abs(diagonal))[:, None, :]
            matrices.update(zip(chunk, q))
            del sample, r, diagonal  # before the next chunk's, and before the specs are stacked
    unitaries = UnitarySpec.stack(_labels(n)[-1], [matrices[z] for z in range(1 << n)])
    return InstanceSpec("random", n, m, k_values, unitaries, {"seed": seed})


def build_custom_instance(
    n: int,
    m: int,
    k: int | Sequence[int],
    unitaries: Mapping[str, UnitarySpec],
    family: str = "custom",
) -> InstanceSpec:
    _validate_sizes(n, m)
    k_values = _normalize_k(n, k)
    missing = [z for z in _labels(n)[-1] if z not in unitaries]
    if missing:
        raise ConfigurationError(f"missing unitaries for leaves {missing}")
    return InstanceSpec(family, n, m, k_values, dict(unitaries))


INSTANCE_FAMILIES = ("qram", "table_lookup", "rotation", "random")


def build_instance(
    family: str,
    n: int,
    m: int,
    k: int | Sequence[int] | None = None,
    *,
    seed: int = DEFAULT_SEED,
    table: Sequence[int] | None = None,
) -> InstanceSpec:
    """Dispatch to the family builders with uniform arguments.

    For the rotation family ``m`` is the stored fraction width; the rotated
    result register is always a single qubit.
    """
    check_int(seed, "seeds", 0)
    if family == "qram":
        if k is not None and k != m:
            raise InvalidParameterError("the qram family fixes k = m")
        return build_qram_instance(n, m)
    if family == "table_lookup":
        if k not in (None, 0):
            raise InvalidParameterError("the table_lookup family fixes k = 0")
        return build_table_lookup_instance(n, m, table, seed=seed)
    if family == "rotation":
        if k is not None:
            raise InvalidParameterError("the rotation family fixes k to the fraction width")
        return build_rotation_instance(n, m)
    if family == "random":
        return build_random_instance(n, m, 0 if k is None else k, seed=seed)
    raise InvalidParameterError(
        f"unknown family {family!r}; choose from {', '.join(INSTANCE_FAMILIES)}"
    )


# ---------------------------------------------------------------------------
# reference semantics: one-case calls of the column code below
# ---------------------------------------------------------------------------


def _check_case(instance: InstanceSpec, addresses: Iterable, result, mem) -> tuple[int, ...]:
    """Check a caller-given case, its addresses sharing ``result`` and
    ``mem``, and return its memory values (all 0 when ``mem`` is None)."""
    for address in addresses:
        check_int(address, "address values", 0, 1 << instance.n)
    check_int(result, "result values", 0, 1 << instance.m)
    num_leaves = 1 << instance.n
    if mem is None:
        return (0,) * num_leaves
    values = tuple(mem)
    if len(values) != num_leaves:
        raise InvalidParameterError(f"expected {num_leaves} memory values, got {len(values)}")
    for leaf, value, width in zip(_labels(instance.n)[-1], values, instance.k):
        check_int(value, f"mem[{leaf}] values", 0, 1 << width)
    return values


def _one_case(instance: InstanceSpec, terms: list, result, mem) -> tuple[_Keys, _Cases]:
    """The terms ``(amp, address)``, which share ``result`` and ``mem``, as
    one case, checked."""
    mem = _check_case(instance, [address for _, address in terms], result, mem)
    keys = _Keys(instance)
    table = np.array([[mem[z] for z in keys.leaves.tolist()]], dtype=np.int64)
    return keys, keys.cases([address for _, address in terms], [result], table, [""],
                            np.zeros(len(terms), dtype=np.intp), np.array([_amplitude(amp) for amp, _ in terms]))


def oracle_effect(instance: InstanceSpec, address: int, result: int = 0,
                  mem: Sequence[int] | None = None) -> DataState:
    """Expected data-register output for one basis input: the non-zero
    entries of the leaf's matrix column, as they are."""
    keys, case = _one_case(instance, [(1, address)], result, mem)
    data = _oracle(instance, keys, case, scale=False)
    return dict(zip(keys.decode(data.key), data.amp.tolist()))


def oracle_superposition(instance: InstanceSpec, terms: Sequence[tuple[complex, int]], result: int = 0,
                         mem: Sequence[int] | None = None) -> DataState:
    """Expected output for an address superposition sharing one (result, mem).

    Each key's amplitude is ``0j`` plus ``amp * U_y[i, col]`` over the terms
    in order, so a repeated address adds up (and may cancel); keys come in
    the order they first appear, and exact zeros are dropped."""
    terms = list(terms)
    if not terms:
        return {}
    keys, case = _one_case(instance, terms, result, mem)
    data = _oracle(instance, keys, case)
    _, first, group = np.unique(data.key, axis=1, return_index=True, return_inverse=True)
    total = np.zeros(len(first), dtype=complex)
    np.add.at(total, group.ravel(), data.amp)  # each key's rows in order, added to 0j
    order = np.argsort(first)
    order = order[np.abs(total[order]) > 0]
    return dict(zip(keys.decode(data.key[:, first[order]]), total[order].tolist()))


def extract_data_state(state: SparseState, layout: RegisterMap) -> tuple[DataState, float]:
    """Split a full sparse state into its data-register part and the
    probability weight stranded on non-zero ancillas.

    Returns ``(data, residual)`` where ``data`` maps ``(y, r, mem)`` to the
    amplitude of the component with *all* ancillas at 0.
    """
    if state.num_qubits != layout.total_qubits:
        raise StructuralError(f"state has {state.num_qubits} qubits, layout expects {layout.total_qubits}")
    reader = _Reader(layout, _Keys(layout))
    data = reader.read(_Rows.of_states([state], state.num_qubits))
    return dict(zip(reader.keys.decode(data.key), data.amp.tolist())), float(data.residual[0])


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class CaseResult:
    label: str
    fidelity: float
    ancilla_residual: float
    mem_invariant: bool
    passed: bool

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "fidelity": self.fidelity,
            "ancilla_residual": self.ancilla_residual,
            "mem_invariant": self.mem_invariant,
            "passed": self.passed,
        }


#: One case row of :meth:`VerificationReport.format_table`: label (padded to
#: the widest), fidelity, residual, memory invariant and verdict.
_CASE_ROW = "%-*s  %18.12f  %12.3e  %5s  %s"


@dataclass
class VerificationReport:
    instance: str
    check: str
    options: dict
    fidelity_tolerance: float
    residual_tolerance: float
    cases: list[CaseResult]
    wall_seconds: float

    @property
    def passed(self) -> bool:
        return bool(self.cases) and all(case.passed for case in self.cases)

    @property
    def min_fidelity(self) -> float:
        return min(case.fidelity for case in self.cases)

    @property
    def max_residual(self) -> float:
        return max(case.ancilla_residual for case in self.cases)

    def to_dict(self) -> dict:
        return {
            "instance": self.instance,
            "check": self.check,
            "options": self.options,
            "passed": self.passed,
            "num_cases": len(self.cases),
            "min_fidelity": self.min_fidelity,
            "max_ancilla_residual": self.max_residual,
            "fidelity_tolerance": self.fidelity_tolerance,
            "residual_tolerance": self.residual_tolerance,
            "wall_seconds": self.wall_seconds,
            "cases": [case.to_dict() for case in self.cases],
        }

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.check} on {self.instance}: {len(self.cases)} case(s), "
            f"min fidelity {self.min_fidelity:.12f}, "
            f"max ancilla residual {self.max_residual:.3e}, "
            f"{self.wall_seconds:.2f}s"
        )

    def format_table(self) -> str:
        """The cases as aligned rows, rendered from one template joined over
        all of them and filled from their columns, then the summary."""
        cases = self.cases
        labels = [case.label for case in cases]
        width = max(max(map(len, labels)), len("case"))
        values = [width] * (6 * len(cases))
        values[1::6] = labels
        values[2::6] = [case.fidelity for case in cases]
        values[3::6] = [case.ancilla_residual for case in cases]
        values[4::6] = ["yes" if case.mem_invariant else "NO" for case in cases]
        values[5::6] = ["pass" if case.passed else "FAIL" for case in cases]
        return "\n".join([
            f"{'case':<{width}}  {'fidelity':>18}  {'residual':>12}  {'mem':>5}  ok",
            "-" * (width + 48),
            "\n".join([_CASE_ROW] * len(cases)) % tuple(values),
            self.summary(),
        ])


# ---------------------------------------------------------------------------
# cases as columns
# ---------------------------------------------------------------------------

class _Cases(NamedTuple):
    """One batch of cases as columns.

    Each case is one or more term rows ``(case, address, amp)`` that share
    the case's ``result`` and memory: a basis case is one term of amplitude
    1, a superposition one term per address.  ``mem`` holds each case's
    memory block as data-key words (see :class:`_Keys`), one column per case.
    """

    labels: list[str]
    case: np.ndarray
    address: np.ndarray
    amp: np.ndarray
    result: np.ndarray
    mem: np.ndarray

    @property
    def num_cases(self) -> int:
        return len(self.labels)

    def slice(self, lo: int, hi: int) -> "_Cases":
        """Cases ``lo`` to ``hi - 1``, with their terms."""
        first, last = np.searchsorted(self.case, [lo, hi]).tolist()
        return _Cases(self.labels[lo:hi], self.case[first:last] - lo, self.address[first:last],
                      self.amp[first:last], self.result[lo:hi], self.mem[:, lo:hi])


class _Data(NamedTuple):
    """Data rows of a batch: every term whose ancillas are all 0, as its
    case, data key (one column per row) and amplitude; and each case's
    weight on the other terms, its ancilla residual."""

    case: np.ndarray
    key: np.ndarray
    amp: np.ndarray
    residual: np.ndarray


class _Keys:
    """The data registers as packed words, sized by anything with ``n``,
    ``m`` and ``k``: an :class:`InstanceSpec` or a :class:`RegisterMap`.

    A data key is ``head + ceil(sum(k) / 64)`` words: ``address | result <<
    n`` in ``head`` words (one for every instance, whose payload matrices
    bound ``m``), then the memory block, every leaf's ``mem`` register in
    leaf order with no gaps, as the layouts place them.  A memory table
    holds one column per leaf with ``k > 0``.
    """

    def __init__(self, sizes: InstanceSpec | RegisterMap):
        self.n, self.m = sizes.n, sizes.m
        self.k = np.array(sizes.k, dtype=np.int64)
        self.offset = np.cumsum(self.k) - self.k  # each leaf's first bit in the block
        self.leaves = np.flatnonzero(self.k)  # the memory table's columns
        self.head = -(-(self.n + self.m) // 64)
        self.mem_bits = int(self.k.sum())
        self.mem_words = -(-self.mem_bits // 64)
        # a case's label as a fixed template and, for every bit it shows,
        # the character position, the column (address, result, then the
        # memory table) and the bit within it; a leaf of width 0 shows "-"
        mem = " mem=" + ",".join("0" * width if width else "-" for width in sizes.k) if self.leaves.size else ""
        self.template = np.frombuffer(f"y={'0' * self.n} r={'0' * self.m}{mem}".encode(), dtype=np.uint8)
        # a field starts after "y=", " r=" or " mem=", and a leaf one comma after the leaf before
        shown = np.maximum(self.k, 1)
        width = np.concatenate([[self.n, self.m], self.k[self.leaves]])
        start = np.concatenate([[2, self.n + 5], self.n + self.m + 10 + self.leaves + (np.cumsum(shown) - shown)[self.leaves]])
        self.label_col = np.repeat(np.arange(len(width)), width)
        self.label_bit = (np.arange(width.sum()) - np.repeat(np.cumsum(width) - width, width)).astype(np.uint32)
        self.label_pos = np.repeat(start + width - 1, width) - self.label_bit
        #: bytes a case takes while it is generated and packed, beside its rows
        self.case_bytes = 64 + 48 * len(self.leaves) + 2 * len(self.template)

    def cases(self, address, result, mem, labels=None, case=None, amp=None) -> _Cases:
        """Cases from their columns; ``mem`` is the memory table.  By default
        every case is one basis term, labelled by its contents."""
        address, result = np.asarray(address, dtype=np.int64), np.asarray(result, dtype=np.int64)
        if labels is None:
            values = np.column_stack([address, result, mem]).astype(np.uint16)
            chars = np.repeat(self.template[None], len(values), axis=0)
            chars[:, self.label_pos] = (values[:, self.label_col] >> self.label_bit) & 1 | 48
            labels = chars.view(f"S{chars.shape[1]}").ravel().astype(str).tolist()
            case, amp = np.arange(len(labels)), np.ones(len(labels), dtype=complex)
        return _Cases(labels, case, address, amp, result, self._pack_mem(mem))

    def _pack_mem(self, mem: np.ndarray) -> np.ndarray:
        """A memory table as memory-block words, one column per case: every
        bit of the block taken from its leaf's column, eight to a byte.  The
        labels show the memory bits in block order, so their tables say
        where each bit comes from."""
        bits = slice(self.n + self.m, None)
        values = (mem[:, self.label_col[bits] - 2] >> self.label_bit[bits]) & 1
        out = np.zeros((len(mem), 8 * self.mem_words), dtype=np.uint8)
        out[:, : -(-self.mem_bits // 8)] = np.packbits(values.astype(np.uint8), axis=1, bitorder="little")
        return out.view("<u8").T

    def fields(self, base: int) -> list[tuple[int, int]]:
        """Each data-key word as a bit field ``(start, width)`` of a basis
        key whose memory block starts at qubit ``base``."""
        return [(start + 64 * j, min(64, width - 64 * j))
                for start, width in ((0, self.n + self.m), (base, self.mem_bits)) for j in range(-(-width // 64))]

    def decode(self, key: np.ndarray) -> list[tuple[int, int, tuple[int, ...]]]:
        """The ``(y, r, mem)`` tuple of each column of the data-key words
        ``key``.  Every register is read as its 64-bit pieces, lowest first,
        in one call for all columns; a register wider than a word joins its
        pieces as a Python int, and one of width 0 reads an empty piece."""
        width = np.concatenate([[self.n, self.m], self.k])
        start = np.concatenate([[0, self.n], 64 * self.head + self.offset]) * (width > 0)
        pieces = np.maximum(-(-width // 64), 1)
        first = np.cumsum(pieces) - pieces
        register = np.repeat(np.arange(len(width)), pieces)
        shift = 64 * (np.arange(len(register)) - first[register])
        # one row of pieces per column: the codec broadcasts the columns against the pieces
        values = _read_bits(key, start[register] + shift, np.minimum(width[register] - shift, 64),
                            np.arange(key.shape[1])[:, None])
        if len(register) > len(width):
            values = np.add.reduceat(values.astype(object) << shift.astype(object), first, axis=1)
        return [(y, r, tuple(mem)) for y, r, *mem in values.tolist()]

    def leaf_value(self, words: np.ndarray, columns: np.ndarray, leaf: np.ndarray) -> np.ndarray:
        """The value of leaf ``leaf[i]``'s register in column ``columns[i]``
        of the memory-block words."""
        out = np.zeros(len(leaf), dtype=np.uint64)
        rows = np.flatnonzero(self.k[leaf])
        out[rows] = _read_bits(words, self.offset[leaf[rows]], self.k[leaf[rows]], columns[rows])
        return out

    def set_leaf(self, words: np.ndarray, leaf: np.ndarray, value: np.ndarray | None = None) -> None:
        """Overwrite leaf ``leaf[i]``'s register in column ``i`` of the
        memory-block words with ``value[i]`` (with 0 when ``value`` is None)."""
        rows = np.flatnonzero(self.k[leaf])
        _write_bits(words, self.offset[leaf[rows]], self.k[leaf[rows]], 0 if value is None else value[rows], rows)


def _draw_runs(instance: InstanceSpec) -> list[tuple[int, int]]:
    """One seeded (result, mem) draw as runs ``(width, count)`` of equal
    bounds: the result first, then each leaf's memory.  A leaf of width 0
    draws from a bound of 1, which takes no random bits, so it is left out."""
    runs: list[tuple[int, int]] = []
    for width in (instance.m, *instance.k):
        if width and runs and runs[-1][0] == width:
            runs[-1] = (width, runs[-1][1] + 1)
        elif width:
            runs.append((width, 1))
    return runs


def _draw(rng: np.random.Generator, runs: list[tuple[int, int]], count: int) -> np.ndarray:
    """``count`` seeded (result, mem) draws as rows of ``[result, memory
    table]``, equal to drawing every value on its own in order:
    ``rng.integers(0, b, size=N)`` gives the values of N single draws with
    bound ``b``.  So each run of equal bounds is one draw, and with a
    single run every case's values are."""
    if len(runs) == 1:
        ((width, size),) = runs
        return rng.integers(0, 1 << width, size=(count, size))
    out = np.empty((count, sum(size for _, size in runs)), dtype=np.int64)
    for row in out:
        start = 0
        for width, size in runs:
            row[start : start + size] = rng.integers(0, 1 << width, size=size)
            start += size
    return out


def _basis_cases(
    instance: InstanceSpec, keys: _Keys, assignments: int, seed: int
) -> tuple[int, Callable[[int, int], _Cases]]:
    """The basis cases: exhaustive addresses; for each, every (result, mem)
    assignment when that space is small, topped up to ``assignments`` with
    seeded draws.  Returned as their number and ``take(lo, hi)``, which
    makes cases ``lo`` to ``hi - 1`` and must be called in order."""
    rng = np.random.default_rng(seed)
    runs = _draw_runs(instance)
    m = instance.m
    combos = 1 << (m + sum(instance.k))
    listed = combos if combos <= max(assignments, 64) else 0
    per_address = max(listed, assignments, 0)
    mem_shift, mem_mask = m + keys.offset[keys.leaves], (1 << keys.k[keys.leaves]) - 1

    def take(lo: int, hi: int) -> _Cases:
        address, slot = np.divmod(np.arange(lo, hi), per_address)
        values = np.empty((hi - lo, 1 + len(keys.leaves)), dtype=np.int64)
        enumerated = slot < listed
        packed = slot[enumerated]
        values[enumerated, 0] = packed & ((1 << m) - 1)
        values[enumerated, 1:] = (packed[:, None] >> mem_shift) & mem_mask
        values[~enumerated] = _draw(rng, runs, hi - lo - len(packed))
        return keys.cases(address, values[:, 0], values[:, 1:])

    return (1 << instance.n) * per_address, take


def _listed_cases(
    instance: InstanceSpec, keys: _Keys, cases: Sequence[tuple[int, int, Sequence[int] | None]]
) -> _Cases:
    """Caller-given basis cases ``(address, result, mem)``, checked."""
    mems = [_check_case(instance, [address], result, mem) for address, result, mem in cases]
    table = np.array([[mem[z] for z in keys.leaves.tolist()] for mem in mems], dtype=np.int64)
    return keys.cases(
        [address for address, _, _ in cases], [result for _, result, _ in cases],
        table.reshape(len(cases), len(keys.leaves)),
    )


#: Most report rows (one per case and run) a check may make: a row takes about
#: 250 bytes, 512 at the peak (CPython 3.11), which fills the simulator's default budget.
MAX_REPORT_ROWS = BATCH_BUDGET_BYTES // 512


def _case_terms(count: int, runs: int, terms: int = 1) -> np.ndarray:
    """``terms`` for each of ``count`` cases, refused first if their rows pass :data:`MAX_REPORT_ROWS`."""
    if count * runs > MAX_REPORT_ROWS:
        raise ResourceLimitError(f"{count} case(s) in {runs} run(s) would make {count * runs} report rows, "
                                 f"over the limit of {MAX_REPORT_ROWS}", requested=count * runs, limit=MAX_REPORT_ROWS)
    return np.full(count, terms, dtype=np.int64)


class _Reader:
    """Where a layout's registers sit in its basis keys: the bit field of
    each data-key word, and the ancilla bits of each word."""

    def __init__(self, layout: RegisterMap, keys: _Keys):
        self.keys, self.num_qubits = keys, layout.total_qubits
        self.fields = keys.fields(int(layout.mem_starts[0]))
        ancillas = (((1 << self.num_qubits) - 1) ^ layout.data_mask).to_bytes(8 * -(-self.num_qubits // 64), "little")
        self.ancillas = [(word, np.uint64(mask))
                         for word, mask in enumerate(np.frombuffer(ancillas, dtype="<u8").tolist()) if mask]

    def read(self, rows: _Rows) -> _Data:
        """The data rows of ``rows``.  Each residual adds ``abs(amp) ** 2``
        over the case's rows in order, and gives the same float."""
        dirty = np.zeros(len(rows.case), dtype=bool)
        for word, mask in self.ancillas:
            dirty |= (rows.words[word] & mask) != 0
        amps = rows.amps[dirty]
        weights = np.float_power(np.hypot(amps.real, amps.imag), 2.0)
        # bincount of no rows gives integer zeros, weights or not
        residual = np.bincount(rows.case[dirty], weights=weights, minlength=rows.num_cases).astype(float)
        clean = np.flatnonzero(~dirty)
        key = np.array([_read_bits(rows.words, start, width, clean) for start, width in self.fields], dtype=np.uint64)
        return _Data(rows.case[clean], key, rows.amps[clean], residual)


class _Run(_Reader):
    """One circuit as the checkers run it: its moments and its payloads,
    and its layout's reader."""

    def __init__(self, circuit: Circuit, unitaries: Mapping[str, UnitarySpec], keys: _Keys):
        super().__init__(circuit.layout, keys)
        self.circuit, self.unitaries = circuit, unitaries
        self.moments = _Moments(circuit.columns, self.num_qubits)

    def pack(self, cases: _Cases) -> _Rows:
        """The cases' terms as rows.  As in :func:`~qramforge.sim.superpose`,
        a term of magnitude at most :data:`~qramforge.sim.PRUNE_TOL` is left out."""
        keys, case, address, amp = self.keys, cases.case, cases.address, cases.amp
        live = np.hypot(amp.real, amp.imag) > PRUNE_TOL
        if not live.all():
            case, address, amp = case[live], address[live], amp[live]
        rows = _Rows(self.num_qubits, case, amp, cases.num_cases)
        for (start, width), values in zip(self.fields, [address | cases.result[case] << keys.n, *cases.mem[:, case]]):
            _write_bits(rows.words, start, width, values, slice(None))
        return rows


def _simulate(run: _Run, cases: _Cases) -> _Data:
    """One batch of cases through one circuit: the output's data rows."""
    rows = run.pack(cases)
    _run_moments(rows, run.moments, run.unitaries)
    return run.read(rows)


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a * b`` elementwise, computed as Python multiplies two complex
    numbers (numpy's complex product can differ in the last bit)."""
    out = np.empty(len(a), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _oracle(instance: InstanceSpec, keys: _Keys, cases: _Cases, scale: bool = True) -> _Data:
    """The expected data rows, read off the matrix columns: for each term
    ``(y, amp)`` in order, ``amp * U_y[i, col]`` for every ``i`` with a
    non-zero entry, in ascending ``i`` (with ``scale`` off, the entry as it
    is)."""
    n, m = instance.n, instance.m
    own = keys.leaf_value(cases.mem, cases.case, cases.address).astype(np.int64)
    column = cases.result[cases.case] | own << m
    order = np.argsort(cases.address, kind="stable")
    leaves, starts = np.unique(cases.address[order], return_index=True)
    term, index, value = [], [], []
    for leaf, lo, hi in zip(leaves.tolist(), starts.tolist(), [*starts[1:].tolist(), len(order)]):
        chosen = order[lo:hi]
        block = instance.unitaries[label_of(leaf, n)].matrix[:, column[chosen]].T
        hit, row = np.nonzero(block)
        term.append(chosen[hit])
        index.append(row)
        value.append(block[hit, row])
    order = np.argsort(np.concatenate(term), kind="stable")
    term, index, value = (np.concatenate(part)[order] for part in (term, index, value))
    value = _times(cases.amp[term], value) if scale else value.astype(complex)
    address = cases.address[term]
    key = np.empty((keys.head + keys.mem_words, len(term)), dtype=np.uint64)
    key[0] = (address | (index & ((1 << m) - 1)) << n).astype(np.uint64)
    key[keys.head :] = cases.mem[:, cases.case[term]]
    keys.set_leaf(key[keys.head :], address, index >> m)
    return _Data(cases.case[term], key, value, np.zeros(cases.num_cases))


def _fidelity(expected: _Data, actual: _Data, num_cases: int) -> np.ndarray:
    """Each case's ``|<expected|actual>|**2``: the expected rows are joined
    to the actual rows with the same case and key, and the overlap adds
    ``conj(expected) * actual`` in the order of the expected rows, as
    Python's complex arithmetic does, so the floats are the same."""
    case = np.concatenate([expected.case, actual.case])
    key = np.concatenate([expected.key, actual.key], axis=1)
    order = np.lexsort((*key, case))
    case, key = case[order], key[:, order]
    same = (case[1:] == case[:-1]) & (key[:, 1:] == key[:, :-1]).all(axis=0)
    # keys are distinct within each side and the sort is stable, so a
    # match is an expected row followed by an actual one
    mine = order[:-1][same]
    pick = np.argsort(mine)
    mine, mate = mine[pick], order[1:][same][pick] - len(expected.case)
    overlap = _times(np.conj(expected.amp[mine]), actual.amp[mate])
    case = expected.case[mine]
    real = np.bincount(case, weights=overlap.real, minlength=num_cases)
    imag = np.bincount(case, weights=overlap.imag, minlength=num_cases)
    return np.float_power(np.hypot(real, imag), 2.0)


def _mem_invariant(keys: _Keys, actual: _Data, cases: _Cases) -> np.ndarray:
    """Per case: every data row leaves ``mem_z`` as it was for every leaf
    ``z`` but the row's own address."""
    diff = actual.key[keys.head :] ^ cases.mem[:, actual.case]
    keys.set_leaf(diff, _read_bits(actual.key, 0, keys.n, slice(None)).astype(np.intp))
    return np.bincount(actual.case[diff.any(axis=0)], minlength=cases.num_cases) == 0


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------


def _verify(
    instance: InstanceSpec,
    check: str,
    options: dict,
    keys: _Keys,
    runs: Sequence[tuple[str, _Run]],
    terms: np.ndarray,
    take: Callable[[int, int], _Cases],
    reference: _Run | None,
    fidelity_tolerance: float,
    residual_tolerance: float,
    start: float,
) -> VerificationReport:
    """The case-running and judging core shared by every checker.

    ``take(lo, hi)`` makes the cases, ``terms[i]`` terms for case ``i``, in
    batches that every circuit here can hold.  Each batch goes through every
    run ``(prefix, run)``, judged against the data rows of ``reference`` (of
    the oracle when None); the residual is the larger of the two, 0 for the
    oracle.  The cases come run by run, each run's in order and labelled
    with its prefix.  ``start`` is the checker's entry time.
    """
    circuits = [run.circuit for _, run in runs] + ([] if reference is None else [reference.circuit])
    limit = min(_batch_terms(circuit, keys.case_bytes) for circuit in circuits)
    results: list[list[CaseResult]] = [[] for _ in runs]
    for cases in _batches(terms, limit, take):
        expected = _oracle(instance, keys, cases) if reference is None else _simulate(reference, cases)
        for (prefix, run), out in zip(runs, results):
            actual = _simulate(run, cases)
            fidelity = _fidelity(expected, actual, cases.num_cases)
            residual = np.maximum(expected.residual, actual.residual)
            invariant = _mem_invariant(keys, actual, cases)
            passed = (fidelity >= 1.0 - fidelity_tolerance) & (residual <= residual_tolerance) & invariant
            out.extend(map(
                CaseResult, [prefix + label for label in cases.labels], fidelity.tolist(),
                residual.tolist(), invariant.tolist(), passed.tolist(),
            ))
    judged = [case for out in results for case in out]
    if not judged:
        raise InvalidParameterError(f"the {check} check of {instance.describe()} has no cases")
    return VerificationReport(
        instance=instance.describe(),
        check=check,
        options=options,
        fidelity_tolerance=fidelity_tolerance,
        residual_tolerance=residual_tolerance,
        cases=judged,
        wall_seconds=time.perf_counter() - start,
    )


def _check_run_options(seed, count, fidelity_tolerance, residual_tolerance) -> None:
    """Refuse a checker's seed, case count or tolerances before any work: a
    NaN or negative tolerance would judge every case by the option, not the
    circuit.  A negative count samples no cases."""
    check_int(seed, "seeds", 0)
    check_int(count, "case counts")
    for value, what in ((fidelity_tolerance, "fidelity"), (residual_tolerance, "residual")):
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not value >= 0:
            raise InvalidParameterError(f"the {what} tolerance must be a non-negative number, got {value!r}")


def _variant_options(circuit: Circuit) -> dict:
    return {key: circuit.metadata.get(key) for key in ("variant", "fanout_block")}


def check_proposition(
    instance: InstanceSpec,
    options: SynthesisOptions | None = None,
    *,
    assignments: int = 8,
    seed: int = DEFAULT_SEED,
    fidelity_tolerance: float = FIDELITY_TOL,
    residual_tolerance: float = RESIDUAL_TOL,
    cases: Sequence[tuple[int, int, Sequence[int]]] | None = None,
    circuit: Circuit | None = None,
    circuit_unitaries: Mapping[str, UnitarySpec] | None = None,
) -> VerificationReport:
    """Verify the access circuit against the reference semantics, case by case.

    Addresses are covered exhaustively; each gets either every (result, mem)
    assignment (when that space is small) or ``assignments`` seeded samples.
    A case passes when the data-register fidelity reaches
    ``1 - fidelity_tolerance``, the ancilla residual stays within
    ``residual_tolerance``, and no unselected leaf's memory changed.

    By default the circuit is synthesized from the instance with ``options``.
    Passing ``circuit`` instead checks an existing circuit (e.g. one loaded
    from a document) against this instance's semantics; ``circuit_unitaries``
    then supplies the matrices its opaque blocks were serialized with (the
    instance's own matrices are used when omitted).
    """
    options = options or SynthesisOptions()
    start = time.perf_counter()
    _check_run_options(seed, assignments, fidelity_tolerance, residual_tolerance)
    sizes = (instance.n, instance.m, tuple(instance.k))
    if circuit is None:
        circuit = synth_access(instance.layout(), instance.unitaries, options)
    elif (circuit.layout.n, circuit.layout.m, circuit.layout.k) != sizes:
        raise InvalidParameterError(
            f"circuit layout {circuit.layout!r} does not match the instance sizes"
        )
    sim_unitaries = circuit_unitaries if circuit_unitaries is not None else instance.unitaries
    keys = _Keys(instance)
    if cases is None:
        count, take = _basis_cases(instance, keys, assignments, seed)
    else:
        listed = _listed_cases(instance, keys, cases)
        count, take = listed.num_cases, listed.slice
    return _verify(instance, "proposition", _variant_options(circuit), keys,
                   [("", _Run(circuit, sim_unitaries, keys))], _case_terms(count, 1), take, None,
                   fidelity_tolerance, residual_tolerance, start)


def check_linearity(
    instance: InstanceSpec,
    options: SynthesisOptions | None = None,
    *,
    num_cases: int = 20,
    seed: int = DEFAULT_SEED,
    fidelity_tolerance: float = FIDELITY_TOL,
    residual_tolerance: float = RESIDUAL_TOL,
) -> VerificationReport:
    """Verify address superpositions: two-term combinations with random
    amplitudes, plus one uniform superposition over every address."""
    options = options or SynthesisOptions()
    start = time.perf_counter()
    _check_run_options(seed, num_cases, fidelity_tolerance, residual_tolerance)
    circuit = synth_access(instance.layout(), instance.unitaries, options)
    rng = np.random.default_rng(seed)
    runs = _draw_runs(instance)
    num_addresses = 1 << instance.n
    keys = _Keys(instance)
    terms = np.append(_case_terms(max(num_cases, 0), 1, 2), num_addresses)

    def take(lo: int, hi: int) -> _Cases:
        """Superpositions ``lo`` to ``hi - 1``, drawn in order."""
        labels, addresses, amps, values = [], [], [], []
        for i in range(lo, hi):
            if i < num_cases:
                # Every instance has n >= 1, so there are always two distinct addresses.
                pair = rng.choice(num_addresses, size=2, replace=False)
                raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                addresses.append(pair)
                amps.append(raw / np.linalg.norm(raw))
                labels.append("two-term " + "+".join(f"y={label_of(int(y), instance.n)}" for y in pair))
            else:
                addresses.append(np.arange(num_addresses))
                amps.append(np.full(num_addresses, complex(1 / np.sqrt(num_addresses))))
                labels.append("uniform over addresses")
            values.append(_draw(rng, runs, 1))
        values = np.concatenate(values)
        return keys.cases(np.concatenate(addresses), values[:, 0], values[:, 1:], labels,
                          np.repeat(np.arange(hi - lo), terms[lo:hi]), np.concatenate(amps))

    return _verify(instance, "linearity", _variant_options(circuit), keys,
                   [("", _Run(circuit, instance.unitaries, keys))], terms, take, None,
                   fidelity_tolerance, residual_tolerance, start)


def check_variant_agreement(
    instance: InstanceSpec,
    *,
    block_sizes: Sequence[int] | None = None,
    assignments: int = 4,
    seed: int = DEFAULT_SEED,
    fidelity_tolerance: float = FIDELITY_TOL,
    residual_tolerance: float = RESIDUAL_TOL,
) -> VerificationReport:
    """Check that the fan-out variant agrees with the sequential circuit on
    the data registers (and parks its own scratch copies back at 0).  Each
    batch of cases runs once through the sequential circuit, whose data rows
    are the reference for every block size."""
    start = time.perf_counter()
    _check_run_options(seed, assignments, fidelity_tolerance, residual_tolerance)
    layout = instance.layout()
    sequential = synth_access(layout, instance.unitaries, SynthesisOptions())
    if block_sizes is None:
        block_sizes = sorted({SynthesisOptions().resolved_block(instance.m), 1, instance.m})
    fanouts = [
        synth_access(layout, instance.unitaries, SynthesisOptions(variant="fanout", fanout_block=s))
        for s in block_sizes
    ]
    keys = _Keys(instance)
    reference = _Run(sequential, instance.unitaries, keys)
    runs = [(f"s={s} ", _Run(fanout, instance.unitaries, keys)) for s, fanout in zip(block_sizes, fanouts)]
    count, take = _basis_cases(instance, keys, assignments, seed)
    return _verify(instance, "variant_agreement", {"block_sizes": list(block_sizes)}, keys, runs,
                   _case_terms(count, len(runs)), take, reference,
                   fidelity_tolerance, residual_tolerance, start)
