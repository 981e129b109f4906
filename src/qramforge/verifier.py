"""Instance families, reference semantics, and end-to-end verification.

The access circuit is supposed to implement, on the data registers alone,

    |y> |r> |mem>  ->  |y>  (U_y on |r, mem_y>)  (mem_z for z != y unchanged)

with every ancilla returned to 0.  This module owns the *reference* side of
that statement: it builds instance families (collections of per-leaf
unitaries), computes the expected output directly from the matrices — no
circuit, no simulator — and compares the synthesized circuit's simulated
output against it, reporting fidelities and ancilla residuals per case.

Reference outputs are kept as dictionaries keyed by ``(y, r, mem)`` tuples
(``mem`` itself a per-leaf tuple), a deliberately circuit-free encoding;
:func:`extract_data_state` reads the data registers out of a full sparse
state into that form and accumulates whatever weight sits on non-zero
ancillas as a residual.

The checkers do the same work on columns, one batch of cases at a time: the
cases are integer columns packed straight into the simulator's bit-planes,
the expected rows are gathered from the matrix columns, and the output rows
are judged with array operations that give the same floats as the
per-state dictionaries (see :func:`_fidelity`).
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, InvalidParameterError
from .ir import Circuit
from .sim import (
    PRUNE_TOL,
    SparseState,
    UnitarySpec,
    _CHUNK_BYTES,
    _batch_terms,
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
from .tree import RegisterMap, _normalize_k, _validate_sizes, allocate_registers, label_of

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

    def layout(self, **kwargs) -> RegisterMap:
        return allocate_registers(self.n, self.m, self.k, **kwargs)

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
    budget, before any of them is built."""
    _check_budget(sum(16 << 2 * (m + width) for width in k), f"the payload matrices of {what}")


def build_qram_instance(n: int, m: int) -> InstanceSpec:
    """Classical-memory access: each leaf holds ``m`` memory qubits and the
    payload XORs them into the result, ``|r, s> -> |r XOR s, s>``."""
    _validate_sizes(n, m)
    _check_payload(f"qram(n={n}, m={m})", m, (m,) * (1 << n))
    dim = 1 << (2 * m)
    low = (1 << m) - 1
    matrix = np.zeros((dim, dim))
    for idx in range(dim):
        r, s = idx & low, idx >> m
        matrix[(r ^ s) | (s << m), idx] = 1.0
    unitaries = UnitarySpec.stack(_leaves(n), [matrix] * (1 << n))
    return InstanceSpec("qram", n, m, (m,) * (1 << n), unitaries)


def build_table_lookup_instance(
    n: int, m: int, table: Sequence[int] | None = None, *, seed: int = DEFAULT_SEED
) -> InstanceSpec:
    """Table lookup: no memory qubits; leaf ``z`` XORs the constant
    ``table[z]`` into the result, ``|r> -> |r XOR f(z)>``."""
    _validate_sizes(n, m)
    _check_payload(f"table_lookup(n={n}, m={m})", m, (0,) * (1 << n))
    if table is None:
        rng = np.random.default_rng(seed)
        table = [int(v) for v in rng.integers(0, 1 << m, size=1 << n)]
    table = [int(v) for v in table]
    if len(table) != 1 << n:
        raise InvalidParameterError(f"table must have {1 << n} entries, got {len(table)}")
    dim = 1 << m
    for f_value in table:
        if not 0 <= f_value < dim:
            raise InvalidParameterError(f"table entry {f_value} does not fit in {m} bits")
    # leaf z's permutation sends column r to row r ^ table[z]; leaves with
    # one table value share one matrix, which is checked once
    values, r = sorted(set(table)), np.arange(dim)
    matrices = np.zeros((len(values), dim, dim), dtype=bool)
    matrices[np.arange(len(values))[:, None], np.bitwise_xor.outer(values, r), r] = True
    shared = dict(zip(values, matrices))
    unitaries = UnitarySpec.stack(_leaves(n), [shared[value] for value in table])
    return InstanceSpec("table_lookup", n, m, (0,) * (1 << n), unitaries, {"table": table})


def build_rotation_instance(n: int, fraction_bits: int) -> InstanceSpec:
    """Memory-programmed rotation of a single result qubit.

    Leaf ``z`` stores a ``fraction_bits``-bit fraction
    ``mu = sum(s_j * 2**-(j+1))`` (bit ``mem_z[j]`` contributes ``2**-(j+1)``)
    and applies ``exp(-i pi mu X)`` to the result qubit, leaving the fraction
    in place — a block-diagonal unitary on ``res_z ++ mem_z``.
    """
    _validate_sizes(n, 1)
    if not isinstance(fraction_bits, int) or fraction_bits < 1:
        raise InvalidParameterError(
            f"fraction width must be a positive integer, got {fraction_bits!r}"
        )
    _check_payload(f"rotation(n={n}, fraction_bits={fraction_bits})", 1, (fraction_bits,) * (1 << n))
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
    unitaries = UnitarySpec.stack(_leaves(n), [matrix] * (1 << n), [fraction_bits] * (1 << n))
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
    k_values = _normalize_k(n, k)
    _check_payload(f"random(n={n}, m={m}, k={max(k_values)} at most)", m, k_values)
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
    unitaries = UnitarySpec.stack(_leaves(n), [matrices[z] for z in range(1 << n)])
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
    missing = [z for z in _leaves(n) if z not in unitaries]
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


def _leaves(n: int) -> list[str]:
    return [label_of(v, n) for v in range(1 << n)]


# ---------------------------------------------------------------------------
# reference semantics (no circuits, no simulator)
# ---------------------------------------------------------------------------


def _normalize_mem(instance: InstanceSpec, mem) -> tuple[int, ...]:
    num_leaves = 1 << instance.n
    if mem is None:
        return (0,) * num_leaves
    values = list(mem)
    if len(values) != num_leaves:
        raise InvalidParameterError(f"expected {num_leaves} memory values, got {len(values)}")
    for z_value, value in enumerate(values):
        if not isinstance(value, int) or not 0 <= value < (1 << instance.k[z_value]):
            raise InvalidParameterError(
                f"memory value {value!r} does not fit leaf {label_of(z_value, instance.n)}"
            )
    return tuple(values)


def oracle_effect(
    instance: InstanceSpec,
    address: int,
    result: int = 0,
    mem: Sequence[int] | None = None,
) -> DataState:
    """Expected data-register output for one basis input, read straight off
    the leaf's matrix column."""
    n, m = instance.n, instance.m
    if not 0 <= address < (1 << n):
        raise InvalidParameterError(f"address {address} does not fit in {n} bits")
    if not 0 <= result < (1 << m):
        raise InvalidParameterError(f"result {result} does not fit in {m} bits")
    mem = _normalize_mem(instance, mem)
    matrix = instance.unitaries[label_of(address, n)].matrix
    column = matrix[:, result | (mem[address] << m)]
    low = (1 << m) - 1
    out: DataState = {}
    for index in np.flatnonzero(np.abs(column) > 0):
        index = int(index)
        new_mem = list(mem)
        new_mem[address] = index >> m
        out[(address, index & low, tuple(new_mem))] = complex(column[index])
    return out


def oracle_superposition(
    instance: InstanceSpec,
    terms: Sequence[tuple[complex, int]],
    result: int = 0,
    mem: Sequence[int] | None = None,
) -> DataState:
    """Expected output for an address superposition sharing one (result, mem)."""
    out: DataState = {}
    for amp, address in terms:
        for key, value in oracle_effect(instance, address, result, mem).items():
            out[key] = out.get(key, 0j) + complex(amp) * value
    return {key: value for key, value in out.items() if abs(value) > 0}


# ---------------------------------------------------------------------------
# bridging simulated states to reference keys
# ---------------------------------------------------------------------------


def extract_data_state(state: SparseState, layout: RegisterMap) -> tuple[DataState, float]:
    """Split a full sparse state into its data-register part and the
    probability weight stranded on non-zero ancillas.

    Returns ``(data, residual)`` where ``data`` maps ``(y, r, mem)`` to the
    amplitude of the component with *all* ancillas at 0.
    """
    ancilla_mask = ((1 << layout.total_qubits) - 1) ^ layout.data_mask
    # A register holds consecutive physical qubits, so its value is a shift
    # and a mask of the key.
    a_mask, r_mask = (1 << layout.n) - 1, (1 << layout.m) - 1
    mem_fields = [(start, (1 << width) - 1) for start, width in zip(layout.mem_starts.tolist(), layout.k)]
    data: DataState = {}
    residual = 0.0
    for key, amp in state.amps.items():
        if key & ancilla_mask:
            residual += abs(amp) ** 2
            continue
        entry = (
            key & a_mask,
            (key >> layout.n) & r_mask,
            tuple([(key >> shift) & mask for shift, mask in mem_fields]),
        )
        data[entry] = amp
    return data, residual


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

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.check} on {self.instance}: {len(self.cases)} case(s), "
            f"min fidelity {self.min_fidelity:.12f}, "
            f"max ancilla residual {self.max_residual:.3e}, "
            f"{self.wall_seconds:.2f}s"
        )

    def format_table(self) -> str:
        width = max(len(case.label) for case in self.cases)
        width = max(width, len("case"))
        lines = [
            f"{'case':<{width}}  {'fidelity':>18}  {'residual':>12}  {'mem':>5}  ok",
            "-" * (width + 48),
        ]
        for case in self.cases:
            lines.append(
                f"{case.label:<{width}}  {case.fidelity:>18.12f}  "
                f"{case.ancilla_residual:>12.3e}  "
                f"{'yes' if case.mem_invariant else 'NO':>5}  "
                f"{'pass' if case.passed else 'FAIL'}"
            )
        lines.append(self.summary())
        return "\n".join(lines)


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
    """The data registers of an instance as packed words.

    A data key is ``1 + ceil(sum(k) / 64)`` words: ``address | result << n``,
    then the memory block, every leaf's ``mem`` register in leaf order with
    no gaps, as the layouts place them.  A memory table holds one column per
    leaf with ``k > 0``.
    """

    def __init__(self, instance: InstanceSpec):
        self.n, self.m = instance.n, instance.m
        self.k = np.array(instance.k, dtype=np.int64)
        self.offset = np.cumsum(self.k) - self.k  # each leaf's first bit in the block
        self.leaves = np.flatnonzero(self.k)  # the memory table's columns
        self.mem_bits = int(self.k.sum())
        self.mem_words = -(-self.mem_bits // 64)
        # a case's label as a fixed template and, for every bit it shows,
        # the character position, the column (address, result, then the
        # memory table) and the bit within it
        chars, self.label_pos, label_col, label_bit = [], [], [], []

        def field(column: int, width: int) -> None:
            self.label_pos.extend(range(len(chars) + width - 1, len(chars) - 1, -1))
            label_col.extend([column] * width)
            label_bit.extend(range(width))
            chars.extend("0" * width)

        chars.extend("y=")
        field(0, self.n)
        chars.extend(" r=")
        field(1, self.m)
        if self.leaves.size:
            chars.extend(" mem=")
            column = 2
            for z, width in enumerate(instance.k):
                chars.extend("," if z else "")
                if width:
                    field(column, width)
                    column += 1
                else:
                    chars.extend("-")
        self.template = np.frombuffer("".join(chars).encode(), dtype=np.uint8)
        self.label_col = np.array(label_col, dtype=np.intp)
        self.label_bit = np.array(label_bit, dtype=np.uint16)
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
    mems = [_normalize_mem(instance, mem) for _, _, mem in cases]
    for address, result, _ in cases:
        for value, width, what in ((address, instance.n, "address"), (result, instance.m, "result")):
            if not isinstance(value, int) or not 0 <= value < (1 << width):
                raise InvalidParameterError(f"{what} must lie in [0, {1 << width}), got {value!r}")
    table = np.array([[mem[z] for z in keys.leaves.tolist()] for mem in mems], dtype=np.int64)
    return keys.cases(
        [address for address, _, _ in cases], [result for _, result, _ in cases],
        table.reshape(len(cases), len(keys.leaves)),
    )


def _batches(terms: np.ndarray, limit: int, take: Callable[[int, int], _Cases]) -> Iterator[_Cases]:
    """The cases, ``terms[i]`` terms for case ``i``, in consecutive batches
    of at most ``limit`` terms (and at least one case), each made by
    ``take(lo, hi)``."""
    ends = np.cumsum(terms)
    lo = 0
    while lo < len(ends):
        done = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, done + limit, side="right")))
        yield take(lo, hi)
        lo = hi


class _Run:
    """One circuit as the checkers run it: its moments, its payloads and
    where its registers sit."""

    def __init__(self, circuit: Circuit, unitaries: Mapping[str, UnitarySpec], keys: _Keys):
        layout = circuit.layout
        self.circuit, self.unitaries, self.keys = circuit, unitaries, keys
        self.moments = _Moments(circuit.columns, layout.total_qubits)
        self.num_qubits = layout.total_qubits
        # the data key's fields: address and result, then each word of the memory block
        base = int(layout.mem_starts[0])
        self.fields = [(0, keys.n + keys.m)] + [(base + 64 * j, min(64, keys.mem_bits - 64 * j))
                                                 for j in range(keys.mem_words)]
        words = -(-self.num_qubits // 64)
        ancillas = (((1 << self.num_qubits) - 1) ^ layout.data_mask).to_bytes(8 * words, "little")
        self.ancillas = [
            (word, np.uint64(mask))
            for word, mask in enumerate(np.frombuffer(ancillas, dtype="<u8").tolist())
            if mask
        ]

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


def _oracle(instance: InstanceSpec, keys: _Keys, cases: _Cases) -> _Data:
    """The expected data rows, read off the matrix columns: for each term
    ``(y, amp)``, ``amp * U_y[i, col]`` for every ``i`` with a non-zero
    entry, as :func:`oracle_superposition` lists them."""
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
    value = _times(cases.amp[term], value)
    kept = value != 0
    term, index, value = term[kept], index[kept], value[kept]
    address = cases.address[term]
    key = np.empty((1 + keys.mem_words, len(term)), dtype=np.uint64)
    key[0] = (address | (index & ((1 << m) - 1)) << n).astype(np.uint64)
    key[1:] = cases.mem[:, cases.case[term]]
    keys.set_leaf(key[1:], address, index >> m)
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
    diff = actual.key[1:] ^ cases.mem[:, actual.case]
    keys.set_leaf(diff, _read_bits(actual.key, 0, keys.n, slice(None)).astype(np.intp))
    return np.bincount(actual.case[diff.any(axis=0)], minlength=cases.num_cases) == 0


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------


def _verify(
    instance: InstanceSpec,
    check: str,
    options: dict,
    runs: Sequence[tuple[str, _Run]],
    batches: Iterable[_Cases],
    reference: Callable[[_Cases], _Data],
    fidelity_tolerance: float,
    residual_tolerance: float,
    start: float,
) -> VerificationReport:
    """The case-running and judging core shared by every checker.

    Each batch of cases goes through every run ``(prefix, run)`` and is
    judged against ``reference(cases)``; the residual is the larger of the
    run's and the reference's (0 for the oracle).  The cases come run by
    run, each run's in order and labelled with its prefix.  ``start`` is
    the checker's entry time.
    """
    results: list[list[CaseResult]] = [[] for _ in runs]
    for cases in batches:
        expected = reference(cases)
        for (prefix, run), out in zip(runs, results):
            actual = _simulate(run, cases)
            fidelity = _fidelity(expected, actual, cases.num_cases)
            residual = np.maximum(expected.residual, actual.residual)
            invariant = _mem_invariant(run.keys, actual, cases)
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


def _variant_options(circuit: Circuit) -> dict:
    return {key: circuit.metadata.get(key) for key in ("variant", "fanout_block")}


def _batch_limit(keys: _Keys, circuits: Iterable[Circuit]) -> int:
    return min(_batch_terms(circuit, keys.case_bytes) for circuit in circuits)


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
    batches = _batches(np.ones(count, dtype=np.int64), _batch_limit(keys, [circuit]), take)
    return _verify(instance, "proposition", _variant_options(circuit),
                   [("", _Run(circuit, sim_unitaries, keys))], batches,
                   lambda cases: _oracle(instance, keys, cases),
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
    circuit = synth_access(instance.layout(), instance.unitaries, options)
    rng = np.random.default_rng(seed)
    runs = _draw_runs(instance)
    num_addresses = 1 << instance.n
    keys = _Keys(instance)
    terms = np.append(np.full(max(num_cases, 0), 2), num_addresses)

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

    batches = _batches(terms, _batch_limit(keys, [circuit]), take)
    return _verify(instance, "linearity", _variant_options(circuit),
                   [("", _Run(circuit, instance.unitaries, keys))], batches,
                   lambda cases: _oracle(instance, keys, cases),
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
    batches = _batches(np.ones(count, dtype=np.int64), _batch_limit(keys, [sequential, *fanouts]), take)
    return _verify(instance, "variant_agreement", {"block_sizes": list(block_sizes)}, runs, batches,
                   lambda cases: _simulate(reference, cases),
                   fidelity_tolerance, residual_tolerance, start)
