"""Sparse statevector simulation, batched over many input states.

A state is a dictionary from basis keys to complex amplitudes, where bit
``q`` of a key is the value of physical qubit ``q`` (see the numbering
contract in :mod:`qramforge.tree`).  :class:`SparseState` is the input and
output type; inside, one engine runs any number of states through a circuit
together.  Every basis term of every state is one row of packed words
(``ceil(qubits / 64)`` uint64 words) with an amplitude and the index of the
state it came from.

The access circuit is almost entirely classical routing — X, CNOT, Toffoli,
and Fredkin merely permute basis keys — so the rows never multiply under
those gates.  The routing moments up to each opaque moment run bit-sliced:
slices of rows are transposed into one bit-plane per qubit, and each moment
is four bitwise operations over the planes of all its gates.  Opaque blocks
are the one genuinely quantum step, one array pass per moment: rows with a
control bit set are grouped by (block, state, non-target bits), and each
block multiplies its groups' amplitudes by its dense matrix in one stacked
``matmul``, which gives every group ``matrix @ vector`` bit for bit.  A
permutation payload, as every classical-data one is, gathers the amplitudes
instead, which gives the same bits.

Every register is a run of consecutive qubits (see :class:`~qramforge.tree.RegisterMap`),
so reading or writing one in packed words is reading or writing a bit field.
:func:`_read_bits` and :func:`_write_bits` are the one codec for such fields,
here and in :mod:`qramforge.verifier`.  An opaque block's targets are read
and written as runs of consecutive qubits too (a synthesized block's res and
mem registers), each a bit field of the target index.

Amplitudes with magnitude at most :data:`PRUNE_TOL` are dropped when a dense
block produces them; exact zeros from routing never arise.  States are packed
in consecutive batches sized so that the rows they can grow into fit
:data:`BATCH_BUDGET_BYTES`.  The packed rows, an opaque block's group vectors
and the rows an opaque moment produces are each checked against that budget
before they are allocated.
"""

from __future__ import annotations

import cmath
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from typing import NamedTuple, TypeVar

import numpy as np

from .errors import (
    ConfigurationError,
    InvalidParameterError,
    QramForgeError,
    ResourceLimitError,
    ShapeError,
    SimulationError,
    StructuralError,
    _shown,
    check_int,
)
from .ir import CNOT, FREDKIN, MAX_DECLARED_DEPTH, OPAQUE, TOFFOLI, X, Circuit, Gate, GateColumns, check_declared_depth
from .tree import MAX_QUBITS, RegisterMap, _check_label

#: Magnitude below which amplitudes produced by a dense block are discarded.
PRUNE_TOL = 1e-14

#: Allowed drift of the state norm across a full circuit run.
NORM_TOL = 1e-10

#: Allowed deviation of ``U^dagger U`` from the identity.
UNITARITY_TOL = 1e-10

#: Largest array a simulation may allocate, in bytes: the packed basis terms
#: (terms x words), an opaque block's group vectors (groups x 2^(m+k)) and
#: the rows an opaque moment produces.  Batches of states are sized to fit it.
BATCH_BUDGET_BYTES = 1 << 28

#: Size of the bit-planes of one slice of terms, in bytes; a run of routing
#: moments goes over slices of terms small enough to keep within it.
_SLICE_BYTES = 1 << 18

#: Largest chunk of payload matrices, or of group vectors, that one array
#: operation builds, in bytes (one matrix or block when larger).  It stays
#: below the size at which malloc maps memory of its own: freeing such a
#: mapping raises that size for the rest of the process, and its peak RSS
#: with it.
_CHUNK_BYTES = 1 << 16


class UnitarySpec:
    """A leaf's payload unitary: dense matrix plus a declared block depth.

    The matrix acts on ``res_z ++ mem_z`` in little-endian order: basis index
    bit ``j`` is ``res_z[j]`` for ``j < m`` and ``mem_z[j - m]`` above.  The
    matrix is checked for unitarity on construction and stored read-only.

    A permutation matrix (every entry exactly 0 or 1, one 1 in each row and
    each column), as every classical-data payload is, has ``U^dagger U = 1``
    exactly: it is recognised once, takes the deviation 0.0 without the
    product, and keeps ``source``, the column of each row's 1 for the matrix
    and for its conjugate transpose (a read-only ``(2, dim)`` array), which
    the simulator gathers by.  ``source`` is None for every other matrix.
    """

    __slots__ = ("leaf", "matrix", "declared_depth", "source")

    def __init__(self, leaf: str, matrix, declared_depth: int = 1):
        ((self.matrix, self.source),) = _checked([leaf], [matrix], [declared_depth])
        self.leaf, self.declared_depth = leaf, declared_depth

    @classmethod
    def stack(
        cls, leaves: Sequence[str], matrices: Sequence, declared_depths: Sequence[int] | None = None
    ) -> dict[str, "UnitarySpec"]:
        """``{leaf: UnitarySpec(leaf, matrix, depth)}`` over the three
        sequences (every depth 1 when ``declared_depths`` is None), checked
        by :func:`_checked` as the constructor checks its one leaf.  The
        leaves of one matrix object share its array and its ``source``."""
        leaves, matrices = list(leaves), list(matrices)
        depths = [1] * len(leaves) if declared_depths is None else list(declared_depths)
        if not len(leaves) == len(matrices) == len(depths):
            raise InvalidParameterError(f"got {len(leaves)} leaves, {len(matrices)} matrices and {len(depths)} depths")
        checked = _checked(leaves, matrices, depths)
        specs = [object.__new__(cls) for _ in leaves]  # checked above, as the constructor checks
        for spec, leaf, depth, (matrix, source) in zip(specs, leaves, depths, checked):
            spec.leaf, spec.declared_depth, spec.matrix, spec.source = leaf, depth, matrix, source
        return dict(zip(leaves, specs))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_qubits(self) -> int:
        return self.dim.bit_length() - 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UnitarySpec):
            return NotImplemented
        return (
            self.leaf == other.leaf
            and self.declared_depth == other.declared_depth
            and self.matrix.shape == other.matrix.shape
            and bool(np.array_equal(self.matrix, other.matrix))
        )

    def __repr__(self) -> str:
        return f"UnitarySpec(leaf={self.leaf!r}, dim={self.dim}, declared_depth={self.declared_depth})"


def _amplitude(value, where: str = "", finite: bool = True) -> complex:
    """``value`` as ``complex()`` reads it: the one rule for caller-given
    amplitudes.  What it cannot read is refused, and so is a NaN or infinite
    value unless ``finite`` is False (:func:`superpose` refuses those by their norm)."""
    try:
        amp = complex(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidParameterError(f"amplitudes must be finite, got {_shown(value)}{where}") from None
    if finite and not cmath.isfinite(amp):
        raise InvalidParameterError(f"amplitudes must be finite, got {amp!r}{where}")
    return amp


class SparseState:
    """A sparse statevector: ``{basis key -> amplitude}``.  Every amplitude
    given is finite: a NaN or infinite one is refused, as in a state document."""

    __slots__ = ("num_qubits", "amps")

    def __init__(self, num_qubits: int, amps: Mapping[int, complex] | None = None):
        self.num_qubits = check_int(num_qubits, "qubit counts", 1, MAX_QUBITS + 1)
        self.amps: dict[int, complex] = {}
        if amps:
            limit = 1 << num_qubits
            for key, amp in amps.items():
                key = check_int(key, "basis keys", 0, limit)
                self.amps[key] = _amplitude(amp, f" for basis key {_shown(key)}")

    def prune(self) -> "SparseState":
        """Drop the amplitudes of magnitude at most :data:`PRUNE_TOL`."""
        self.amps = {k: a for k, a in self.amps.items() if abs(a) > PRUNE_TOL}
        return self

    def __len__(self) -> int:
        return len(self.amps)

    def __repr__(self) -> str:
        return f"SparseState({len(self.amps)} basis terms on {self.num_qubits} qubits)"


def _register_value(value: int | str, width: int, what: str) -> int:
    """Normalize a register assignment (int, or MSB-first bit string) to an int."""
    if isinstance(value, str):
        if len(value) != width or any(c not in "01" for c in value):
            raise InvalidParameterError(
                f"{what} must be a bit string of length {width}, got {value!r}"
            )
        return int(value, 2) if width else 0
    return check_int(value, f"{what} values", 0, 1 << width)


def basis_state(
    layout: RegisterMap,
    address: int | str = 0,
    result: int | str = 0,
    mem: Mapping[str, int | str] | Sequence[int | str] | None = None,
) -> SparseState:
    """The computational basis state with the given data-register contents.

    All ancillas start at 0.  ``address`` and ``result`` may be ints or
    MSB-first bit strings of exactly the register width.  ``mem`` assigns the
    per-leaf memory registers, either as a mapping from leaf labels or as a
    sequence covering every leaf in ascending order; omitted leaves are 0.
    """
    key = _register_value(address, layout.n, "address") | _register_value(result, layout.m, "result") << layout.n
    if mem is not None:
        if isinstance(mem, Mapping):
            for leaf in mem:
                layout.mem(leaf)  # refuses a label that is not a leaf
            items = [(int(leaf, 2), value) for leaf, value in mem.items()]
        else:
            mem = list(mem)
            if len(mem) != len(layout.leaves):
                raise InvalidParameterError(
                    f"expected one memory value per leaf ({len(layout.leaves)}), got {len(mem)}"
                )
            items = enumerate(mem)
        starts = layout.mem_starts.tolist()
        for z, value in items:
            key |= _register_value(value, layout.k[z], f"mem[{layout.leaves[z]}]") << starts[z]
    return SparseState(layout.total_qubits, {key: 1.0 + 0j})


def superpose(terms: Iterable[tuple[complex, SparseState]]) -> SparseState:
    """The linear combination ``sum(amp * state)``.

    The amplitude vector must have unit norm (within :data:`NORM_TOL`); the
    result is normalized iff the input states are orthonormal.
    """
    terms = [(_amplitude(amp, finite=False), state) for amp, state in terms]
    if not terms:
        raise InvalidParameterError("need at least one term")
    sizes = {state.num_qubits for _, state in terms}
    if len(sizes) != 1:
        raise InvalidParameterError("all terms must live on the same number of qubits")
    weight = sum(abs(amp) ** 2 for amp, _ in terms)
    if not abs(weight - 1.0) <= NORM_TOL:  # a NaN weight too
        raise InvalidParameterError(
            f"term amplitudes must form a unit vector, got squared norm {weight:.12f}"
        )
    out = SparseState(sizes.pop())
    for amp, state in terms:
        for key, value in state.amps.items():
            out.amps[key] = out.amps.get(key, 0j) + amp * value
    return out.prune()


def _checked(leaves: list, matrices: list, depths: list) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """Each leaf's matrix as a read-only complex array with its
    :attr:`UnitarySpec.source`, once every leaf's label, matrix and declared
    depth is checked; the first leaf's first fault is raised, in the order
    label, budget, shape, size, finiteness, unitarity, depth.  Each distinct
    matrix object is checked once, by :func:`_square_matrix` and then in a
    chunk of same-size ones, whose batched product gives each matrix the
    deviation it has alone bit for bit; its leaves share the result."""
    ids = list(map(id, matrices))
    distinct = dict(zip(reversed(ids), zip(reversed(leaves), reversed(matrices))))  # by its first leaf
    faults: dict[int, QramForgeError] = {}
    groups: dict[int, list[tuple[int, str, np.ndarray]]] = {}
    for key, (leaf, matrix) in distinct.items():
        try:
            matrix = _square_matrix(leaf, matrix)
            groups.setdefault(len(matrix), []).append((key, leaf, matrix))
        except QramForgeError as fault:
            faults[key] = fault
    checked: dict[int, tuple[np.ndarray, np.ndarray | None]] = {}
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing product reads inf or NaN, refused
        for dim, members in groups.items():
            step = max(1, _CHUNK_BYTES // (16 * dim * dim))
            for chunk in (members[start : start + step] for start in range(0, len(members), step)):
                part = np.array([matrix for _, _, matrix in chunk], dtype=complex)
                finite = np.isfinite(part).all(axis=(1, 2))
                permutation, source = _permutations(part)
                dense, deviation = finite & ~permutation, np.zeros(len(chunk))
                if dense.any():
                    deviation[dense] = _deviation(part if dense.all() else part[dense])  # no copy of a dense chunk
                part.setflags(write=False)
                source.setflags(write=False)
                for (key, leaf, _), matrix, rows, good, kept, value in zip(
                        chunk, part, source, finite, permutation, deviation):
                    if good and value <= UNITARITY_TOL:
                        checked[key] = matrix, rows if kept else None
                    else:
                        fault = f"is not unitary (deviation {value:.3e})" if good else "has entries that are not finite"
                        faults[key] = InvalidParameterError(f"matrix for leaf {leaf!r} {fault}")
    if faults or not (  # every label and depth at once; the walk below names the first fault
        set(map(type, leaves)) <= {str} and not "".join(leaves).strip("01") and set(map(type, depths)) <= {int}
        and 1 <= min(depths, default=1) <= max(depths, default=1) <= MAX_DECLARED_DEPTH
    ):
        for leaf, key, depth in zip(leaves, ids, depths):
            _check_label(leaf)
            if key in faults:
                raise faults[key]
            check_declared_depth(depth)
    return [checked[key] for key in ids]


def _square_matrix(leaf: str, matrix) -> np.ndarray:
    """``matrix`` as an array of numbers, its rows within the budget, square
    and of a power-of-two size >= 2.  An array of numbers is not copied."""
    shape = getattr(matrix, "shape", None)
    rows = shape[0] if shape else len(matrix) if isinstance(matrix, Sequence) else 0
    _check_budget(16 * rows * rows, f"the {rows}-row matrix for leaf {leaf!r}")
    if not (isinstance(matrix, np.ndarray) and matrix.dtype.kind in "biufc"):
        try:
            matrix = np.array(matrix, dtype=complex)
        except (TypeError, ValueError, OverflowError):
            raise InvalidParameterError(f"matrix for leaf {leaf!r} is not an array of numbers") from None
    dim = matrix.shape[0] if matrix.ndim else 0
    if matrix.shape != (dim, dim):
        raise ShapeError(f"unitary for leaf {leaf!r} must be a square matrix, got shape {matrix.shape}", leaf=leaf)
    if dim < 2 or dim & (dim - 1):
        raise ShapeError(f"unitary for leaf {leaf!r} has dimension {dim}, not a power of two >= 2", leaf=leaf)
    return matrix


def _deviation(stack: np.ndarray) -> np.ndarray:
    """The largest entry of ``|U^dagger U - 1|`` of each matrix ``U`` of a
    ``(..., d, d)`` stack."""
    identity = np.eye(stack.shape[-1])
    return np.abs(stack.conj().swapaxes(-1, -2) @ stack - identity).max(axis=(-2, -1))


def _permutations(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which matrices of a complex ``(..., d, d)`` stack are permutations,
    every entry exactly 0 or 1 with one 1 in each row and each column, and
    for each the ``(2, d)`` gather indices of :attr:`UnitarySpec.source`:
    the column of each row's 1, then the row of each column's 1 (the column
    of each row's 1 in the conjugate transpose).  Those of other matrices
    mean nothing.

    The entries are read as their real and imaginary parts side by side:
    a permutation's parts are all 0 or 1, each row's parts add up to 1, and
    the rows' parts of 1 sit at distinct even places (real parts)."""
    d = stack.shape[-1]
    parts = np.ascontiguousarray(stack).view(np.float64)
    ones = parts == 1
    permutation = (ones | (parts == 0)).all(axis=(-2, -1))
    source = np.zeros((*stack.shape[:-2], 2, d), dtype=np.intp)
    if permutation.any():  # a stack of dense unitaries stops at the first test
        place = ones.argmax(axis=-1)  # each row's first part of 1, at twice its column if real
        permutation &= (parts.sum(axis=-1) == 1).all(axis=-1)
        permutation &= (np.sort(place, axis=-1) == np.arange(0, 2 * d, 2)).all(axis=-1)
        source[..., 0, :] = place >> 1
        source[..., 1, :] = np.argsort(place, axis=-1)
    return permutation, source


def _check_budget(nbytes: int, what: str) -> None:
    if nbytes > BATCH_BUDGET_BYTES:
        raise ResourceLimitError(
            f"{what} would take {nbytes} bytes, over the simulator's budget of "
            f"{BATCH_BUDGET_BYTES}",
            requested=nbytes,
            limit=BATCH_BUDGET_BYTES,
        )


def _unitaries_for(blocks: "_Blocks", unitaries: Mapping[str, UnitarySpec] | None) -> list[UnitarySpec]:
    """Each block's unitary.  The first block, hit or not, whose leaf has no
    unitary or one of another width raises."""
    specs = list(map((unitaries or {}).get, blocks.leaf))
    qubits = [-1 if spec is None else len(spec.matrix).bit_length() - 1 for spec in specs]
    for b in np.flatnonzero(np.array(qubits) != blocks.width)[:1].tolist():
        leaf, spec = blocks.leaf[b], specs[b]
        if spec is None:
            raise ConfigurationError(f"no unitary available for opaque block at leaf {leaf!r}")
        message = f"acts on {spec.num_qubits} qubit(s), gate has {blocks.width[b]} target(s)"
        raise ShapeError(f"unitary for leaf {leaf!r} {message}", leaf=leaf)
    return specs


class _Blocks(NamedTuple):
    """The opaque blocks of one moment as columns, in gate order: block ``b``
    is switched on by qubit ``control[b]`` and acts on ``width[b]`` targets
    with leaf ``leaf[b]``'s matrix, conjugate-transposed where ``dagger[b]``.
    Its targets, as runs of consecutive qubits, are bit fields of the target
    index: ``fields[b, r]`` is run ``r``'s first qubit, size and first bit in
    the index (a 0-bit field where the block has fewer runs)."""

    control: np.ndarray
    fields: np.ndarray
    width: np.ndarray
    leaf: np.ndarray
    dagger: np.ndarray

    def part(self, lo: int, hi: int) -> "_Blocks":
        return _Blocks(*(column[lo:hi] for column in self))


class _Moments:
    """A circuit's columns as the simulator reads them, moment by moment:
    each moment's routing gates as flip rules ``(target, c1, c2, p, q)`` on
    bit-planes (see :class:`_Rows`) and its opaque blocks (None for a moment
    without any)."""

    def __init__(self, columns: GateColumns, num_qubits: int):
        one = 64 * -(-num_qubits // 64)  # the all-ones plane; the all-zeros one follows
        kind, ops = columns.kind, columns.ops.astype(np.intp)
        a, b, c = ops[:, 0], ops[:, 1], ops[:, 2]
        rules = np.full((len(kind), 5), one, dtype=np.intp)
        rules[:, 4] = one + 1
        # X: flip a; CNOT: flip b on a; Toffoli: flip c on a & b; Fredkin:
        # flip b (and, in the second rule, c) on a & (b ^ c)
        rules[:, 0] = np.select([kind == X, kind == CNOT, kind == TOFFOLI], [a, b, c], b)
        controlled = kind != X
        rules[controlled, 1] = a[controlled]
        rules[kind == TOFFOLI, 2] = b[kind == TOFFOLI]
        fredkin = np.flatnonzero(kind == FREDKIN)
        rules[fredkin, 3], rules[fredkin, 4] = b[fredkin], c[fredkin]
        second = rules[fredkin].copy()
        second[:, 0] = c[fredkin]
        routing = np.flatnonzero(kind != OPAQUE)
        owner = np.concatenate([routing, fredkin])
        order = np.argsort(owner, kind="stable")
        self.rules = np.concatenate([rules[routing], second])[order]
        moment = columns.moment[owner[order]]
        self.bounds = np.searchsorted(moment, np.arange(columns.num_moments + 1)).tolist()

        opaque, leaf, _, width = columns._opaque_blocks()
        qubit, owner = columns.block_targets()
        owner = np.searchsorted(opaque, owner)
        bit = np.arange(len(qubit)) - np.searchsorted(owner, owner)
        head = np.flatnonzero((bit == 0) | (np.diff(qubit, prepend=-1) != 1))
        run = np.arange(len(head)) - np.searchsorted(owner[head], owner[head])
        fields = np.zeros((len(opaque), run.max(initial=-1) + 1, 3), dtype=np.int64)
        fields[owner[head], run] = np.column_stack([qubit[head], np.diff(head, append=len(qubit)), bit[head]])
        blocks = _Blocks(a[opaque], fields, width, leaf, columns.dagger[opaque])
        self.blocks: list[_Blocks | None] = [None] * columns.num_moments
        where, first, count = np.unique(columns.moment[opaque], return_index=True, return_counts=True)
        for index, lo, hi in zip(where.tolist(), first.tolist(), (first + count).tolist()):
            self.blocks[index] = blocks.part(lo, hi)


_ONE = np.uint64(1)
_ALL = np.uint64((1 << 64) - 1)
_WORD = np.uint64(64)


def _field(words: np.ndarray, start, width, columns) -> tuple:
    """Where bit fields sit in the word-major ``words``: the flat indices of
    each field's word and of the word after it (the last word itself for a
    field in the last word), its shift within its word and its mask."""
    start, count = np.asarray(start, dtype=np.int64), words.shape[1]
    word, column = start >> 6, np.arange(count)[columns]
    return (word * count + column, np.minimum(word + 1, len(words) - 1) * count + column,
            (start & 63).astype(np.uint64), ~(_ALL << np.asarray(width, dtype=np.uint64)))


def _read_bits(words: np.ndarray, start, width, columns) -> np.ndarray:
    """The ``width``-bit field (at most 64 bits) that starts at bit ``start``
    of each column ``columns`` of the word-major ``words``, lowest bit first.

    Bit ``b`` of a column is bit ``b % 64`` of its word ``b // 64``;
    ``start`` and ``width`` are scalars or one per column.  A shift by 64
    gives 0 in numpy, so a field that stays in its word takes nothing from
    the next word, and no branch is needed."""
    at, after, shift, mask = _field(words, start, width, columns)
    return (words.take(at) >> shift | words.take(after) << (_WORD - shift)) & mask


def _write_bits(words: np.ndarray, start, width, values, columns) -> None:
    """Overwrite the fields that :func:`_read_bits` reads with ``values``,
    each below ``2 ** width``; no two fields of one call may share a word
    of one column."""
    at, after, shift, mask = _field(words, start, width, columns)
    values = np.asarray(values).astype(np.uint64)
    words.put(at, words.take(at) & ~(mask << shift) | values << shift)
    words.put(after, words.take(after) & ~(mask >> (_WORD - shift)) | values >> (_WORD - shift))


#: For each swap of ``_transpose_bits``: its distance and the low bits of
#: each pair of ``2 * distance`` bits.
_SWAPS = [(np.uint64(d), np.uint64(((1 << 64) - 1) // ((1 << 2 * d) - 1) * ((1 << d) - 1)))
          for d in (32, 16, 8, 4, 2, 1)]


def _transpose_bits(blocks: np.ndarray) -> None:
    """Transpose, in place, each 64 x 64 bit matrix that the last axis of
    ``blocks`` holds as 64 words: bit ``j`` of word ``i`` trades places with
    bit ``i`` of word ``j``."""
    for d, low in _SWAPS:
        pairs = blocks.reshape(*blocks.shape[:-1], 32 // int(d), 2, int(d))
        top, bottom = pairs[..., 0, :], pairs[..., 1, :]
        swap = (top >> d ^ bottom) & low
        bottom ^= swap
        top ^= swap << d


class _Rows:
    """The basis terms of a batch of states, packed as words.

    Row ``i`` is one term: ``words[w, i]`` holds its qubits ``64 w`` to
    ``64 w + 63``, ``amps[i]`` its amplitude and ``case[i]`` the index of the
    input state it belongs to.  Rows of one case keep the order in which a
    one-state simulation would list its terms.

    Routing runs on the transpose of a slice of rows: plane ``q`` holds
    qubit ``q`` of 64 rows per uint64, and planes of all ones and all zeros
    follow.  Every routing gate is one rule, flip plane ``target`` where
    ``c1 & c2 & (p ^ q)``, with unused operands on the constant planes.  The
    blocks of an opaque moment go in one pass over the rows of all of them.
    """

    __slots__ = ("num_qubits", "num_cases", "num_words", "words", "amps", "case")

    def __init__(self, num_qubits: int, case: np.ndarray, amps: np.ndarray, num_cases: int):
        """Rows with every qubit at 0, for terms of the cases ``case`` with
        amplitudes ``amps``; :func:`_write_bits` fills in their registers."""
        self.num_qubits = num_qubits
        self.num_cases = num_cases
        self.num_words = width = -(-num_qubits // 64)
        _check_budget(len(case) * width * 8, f"{len(case)} packed basis terms")
        self.words = np.zeros((width, len(case)), dtype=np.uint64)
        self.amps = amps
        self.case = case

    @classmethod
    def of_states(cls, states: Sequence[SparseState], num_qubits: int) -> "_Rows":
        """Rows for the terms of ``states``, in order, case ``i`` for state ``i``."""
        rows = cls(num_qubits, np.repeat(np.arange(len(states)), list(map(len, states))),
                   np.array([amp for state in states for amp in state.amps.values()], dtype=complex), len(states))
        raw = b"".join(key.to_bytes(8 * rows.num_words, "little") for state in states for key in state.amps)
        rows.words[...] = np.frombuffer(raw, dtype="<u8").reshape(len(rows.case), rows.num_words).T
        return rows

    def norms(self) -> np.ndarray:
        weights = np.abs(self.amps) ** 2
        return np.sqrt(np.bincount(self.case, weights=weights, minlength=self.num_cases))

    def apply(self, moments: _Moments, unitaries: Mapping[str, UnitarySpec] | None) -> None:
        """Apply every moment.  The routing rules of consecutive moments go
        in one run up to a moment with opaque blocks, whose own rules end
        the run; its blocks follow them, as the gates of a moment commute
        and routing keeps the order of the rows."""
        start = 0
        for index, blocks in enumerate(moments.blocks):
            if blocks is not None or index == len(moments.blocks) - 1:
                bounds = moments.bounds[start : index + 2]
                if bounds[0] < bounds[-1]:
                    self._flip_planes(moments.rules, bounds)
                if blocks is not None:
                    self._blocks(blocks, unitaries)
                start = index + 1

    def _flip_planes(self, rules: np.ndarray, bounds: list[int]) -> None:
        """Apply the moments ``rules[bounds[i] : bounds[i + 1]]`` in turn,
        over slices of rows whose bit-planes fit :data:`_SLICE_BYTES`.

        Within a moment every rule reads its planes before any rule writes,
        as gates on disjoint qubits need (a Fredkin gate reads its targets).
        """
        width = self.num_words
        step = 64 * max(1, _SLICE_BYTES // (8 * (64 * width + 2)))
        moments = [rules[lo:hi].T for lo, hi in zip(bounds[:-1], bounds[1:]) if lo < hi]
        for lo in range(0, self.words.shape[1], step):
            part = self.words[:, lo : lo + step]
            blocks = np.zeros((width, -(-part.shape[1] // 64), 64), dtype=np.uint64)
            blocks.reshape(width, -1)[:, : part.shape[1]] = part
            _transpose_bits(blocks)
            planes = np.zeros((64 * width + 2, blocks.shape[1]), dtype=np.uint64)
            planes[: 64 * width] = blocks.transpose(0, 2, 1).reshape(64 * width, -1)
            planes[64 * width] = np.iinfo(np.uint64).max
            for target, c1, c2, p, q in moments:
                planes[target] ^= (planes[p] ^ planes[q]) & planes[c1] & planes[c2]
            blocks[...] = planes[: 64 * width].reshape(width, 64, -1).transpose(0, 2, 1)
            _transpose_bits(blocks)
            part[...] = blocks.reshape(width, -1)[:, : part.shape[1]]

    def _owners(self, blocks: _Blocks) -> np.ndarray | None:
        """For each row, the index of the block whose control bit it has set
        (-1 for none), or None when some row has the controls of two; one
        step per distinct word that holds a control."""
        words, which = np.unique(blocks.control >> 6, return_inverse=True)
        owners = np.full((len(words), 64), -1)
        owners[which, blocks.control & 63] = np.arange(len(which))
        masks = np.where(owners >= 0, _ONE << np.arange(64, dtype=np.uint64), 0)
        owner = np.full(self.words.shape[1], -1)
        for word, mask, table in zip(words.tolist(), np.bitwise_or.reduce(masks, axis=1), owners):
            on = np.flatnonzero(self.words[word] & mask)
            hits = self.words[word, on] & mask
            if (owner[on] >= 0).any() or (hits & (hits - _ONE)).any():  # two controls of one word
                return None
            owner[on] = table[np.frexp(hits.astype(float))[1] - 1]  # 2^b is 0.5 * 2^(b + 1)
        return owner

    def _blocks(self, blocks: _Blocks, unitaries: Mapping[str, UnitarySpec] | None) -> None:
        """Apply the opaque blocks of one moment.

        Rows that switch on no block keep their order and come first; then
        come the results of each block in moment order.  That is the order
        of applying the blocks one after another, which is what happens when
        a row switches on several of them.
        """
        specs = _unitaries_for(blocks, unitaries)
        owner = self._owners(blocks)
        if owner is None:
            for b, spec in enumerate(specs):
                one = blocks.part(b, b + 1)
                self._blocks_on(one, [spec], self._owners(one))
        else:
            self._blocks_on(blocks, specs, owner)

    def _blocks_on(self, blocks: _Blocks, specs: Sequence[UnitarySpec], owner: np.ndarray) -> None:
        """Replace the rows by the result of blocks that no row switches on
        twice, in one pass over all of them.  The hit rows are grouped on
        (block, case, non-target bits) in order of first appearance; the
        groups' amplitudes fill vectors over the target index, one scatter
        per run of blocks, and each hit block multiplies its groups' vectors
        with one stacked ``np.matmul``, bit for bit each ``matrix @ vector``.
        A block whose matrix is a permutation (its spec has a ``source``)
        gathers its groups' vectors by that index instead, the inverse one
        where daggered: each entry is the product's bit for bit, the sum of
        one amplitude times 1 and of the others times 0, up to the sign of
        a zero part.  Results come by group, then target index, without
        amplitudes of magnitude at most :data:`PRUNE_TOL`.  Each block's
        group vectors, then the new rows are checked against the budget
        before they are built."""
        order = np.argsort(owner, kind="stable")
        untouched, hit = np.split(order, [np.count_nonzero(owner < 0)])
        if not hit.size:
            return
        words, block = self.words, owner[hit]
        key = np.empty((self.num_words + 2, hit.size), dtype=np.uint64)
        key[0], key[1], key[2:] = block, self.case[hit], words[:, hit]
        index = np.zeros(hit.size, dtype=np.intp)
        for start, size, bit in blocks.fields[block].transpose(1, 2, 0):
            index |= _read_bits(key, 128 + start, size, slice(None)).astype(np.intp) << bit
            _write_bits(key, 128 + start, size, 0, slice(None))
        first, group = np.unique(
            np.ascontiguousarray(key.T).view(np.dtype((np.void, 8 * len(key))))[:, 0],
            return_index=True, return_inverse=True,
        )[1:]
        rank = np.argsort(first)  # the groups in order of first appearance
        leaders, group = first[rank], np.argsort(rank)[group]  # each group's first hit row

        dims = 1 << blocks.width
        counts = np.bincount(block[leaders], minlength=len(dims))
        for b in np.flatnonzero(counts * dims * 16 > BATCH_BUDGET_BYTES)[:1].tolist():
            _check_budget(int(counts[b] * dims[b] * 16), f"the {counts[b]} groups of opaque block {blocks.leaf[b]!r}")
        rptr = np.searchsorted(block, np.arange(len(dims) + 1))  # each block's hit rows, then groups
        gptr = np.searchsorted(block[leaders], np.arange(len(dims) + 1))
        # runs of blocks of one dimension whose vectors fill a chunk
        ends = (np.cumsum(counts * dims) - 1) // (_CHUNK_BYTES // 16)
        cuts = [0, *(np.flatnonzero((np.diff(dims) != 0) | (np.diff(ends) != 0)) + 1).tolist(), len(dims)]
        parts = []
        for b0, b1 in zip(cuts[:-1], cuts[1:]):
            (g0, g1), (r0, r1), dim = gptr[[b0, b1]], rptr[[b0, b1]], dims[b0]
            vectors = np.zeros((g1 - g0, dim), dtype=complex)
            vectors[group[r0:r1] - g0, index[r0:r1]] = self.amps[hit[r0:r1]]
            product = np.empty_like(vectors)
            on = np.flatnonzero(counts[b0:b1]) + b0
            for b, lo, hi, dagger in zip(on.tolist(), (gptr[on] - g0).tolist(), (gptr[on + 1] - g0).tolist(),
                                         blocks.dagger[on].tolist()):
                spec = specs[b]
                if spec.source is not None:  # the indices are in range; "wrap" skips the buffering of "raise"
                    np.take(vectors[lo:hi], spec.source[int(dagger)], axis=1, out=product[lo:hi], mode="wrap")
                else:
                    matrix = spec.matrix.conj().T if dagger else spec.matrix
                    np.matmul(matrix[None], vectors[lo:hi, :, None], out=product[lo:hi, :, None])
            kept, target_index = np.nonzero(np.abs(product) > PRUNE_TOL)
            parts.append((g0 + kept, target_index, product[kept, target_index]))
            del vectors, product  # before the next run's
        kept, target_index, amps = (np.concatenate(column) for column in zip(*parts))
        leader = leaders[kept]

        size = untouched.size + kept.size
        _check_budget(size * len(words) * 8, f"{size} basis terms")
        out = np.empty((len(words), size), dtype=np.uint64)
        out[:, : untouched.size], out[:, untouched.size :] = words[:, untouched], key[2:, leader]
        columns = np.arange(untouched.size, size)
        for start, width, bit in blocks.fields[block[leader]].transpose(1, 2, 0):
            _write_bits(out, start, width, (target_index >> bit) & ((1 << width) - 1), columns)
        self.words = out
        self.amps = np.concatenate([self.amps[untouched], amps])
        self.case = np.concatenate([self.case[untouched], self.case[hit[leader]]])

    def states(self) -> Iterator[SparseState]:
        """The rows as one :class:`SparseState` per case, in case order."""
        order = np.argsort(self.case, kind="stable")
        bounds = np.searchsorted(self.case[order], np.arange(self.num_cases + 1)).tolist()
        width = 8 * self.num_words
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            rows = order[lo:hi]
            raw = self.words[:, rows].T.astype("<u8").tobytes()
            state = SparseState(self.num_qubits)
            state.amps = {
                int.from_bytes(raw[i * width : (i + 1) * width], "little"): amp
                for i, amp in enumerate(self.amps[rows].tolist())
            }
            yield state


def _batch_terms(circuit: Circuit, term_bytes: int = 0) -> int:
    """How many input terms one batch may hold: the budget over the size of
    the rows a term can grow into, plus ``term_bytes`` that each term holds
    beside its rows.  An opaque moment multiplies a term at most by its
    largest block dimension when no term switches on two of its blocks, as
    in every access circuit; its group vectors take 16 bytes per amplitude,
    more than a packed row of at most 128 qubits."""
    columns = circuit.columns
    opaque, _, _, width = columns._opaque_blocks()
    widest = np.zeros(columns.num_moments, dtype=np.int64)
    np.maximum.at(widest, columns.moment[opaque], width)
    growth = 1 << int(widest.sum())  # the product of each moment's largest dimension
    row_bytes = 8 * -(-circuit.layout.total_qubits // 64)
    return BATCH_BUDGET_BYTES // (growth * max(row_bytes, 16) + term_bytes)


_Batch = TypeVar("_Batch")


def _batches(terms: Sequence[int] | np.ndarray, limit: int, take: Callable[[int, int], _Batch]) -> Iterator[_Batch]:
    """The inputs, ``terms[i]`` terms for input ``i``, in consecutive batches
    of at most ``limit`` terms (and at least one input), each made by
    ``take(lo, hi)``."""
    ends = np.cumsum(terms)
    lo = 0
    while lo < len(ends):
        done = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, done + limit, side="right")))
        yield take(lo, hi)
        lo = hi


def run_batch(
    states: Iterable[SparseState],
    circuit: Circuit,
    unitaries: Mapping[str, UnitarySpec] | None = None,
) -> Iterator[SparseState]:
    """Run every state of ``states`` through ``circuit`` and yield the final
    states in input order.

    Each final state equals what :func:`run_circuit` returns for that state
    alone, term order included.  The states are listed first, and one on
    another qubit count than the circuit's is refused before any work.  They
    run in consecutive batches sized so that the rows they can grow into fit
    :data:`BATCH_BUDGET_BYTES`; each is packed and run when its first final
    state is requested.
    """
    states = list(states)
    num_qubits = circuit.layout.total_qubits
    for state in states:
        if state.num_qubits != num_qubits:
            raise StructuralError(f"state has {state.num_qubits} qubits, circuit expects {num_qubits}")
    moments = _Moments(circuit.columns, num_qubits)
    for rows in _batches(list(map(len, states)), _batch_terms(circuit),
                         lambda lo, hi: _Rows.of_states(states[lo:hi], num_qubits)):
        _run_moments(rows, moments, unitaries)
        yield from rows.states()
        del rows  # free the finished batch before packing the next


def _run_moments(rows: _Rows, moments: _Moments, unitaries: Mapping[str, UnitarySpec] | None) -> None:
    """Apply every moment to ``rows``; a drift of any case's norm beyond
    :data:`NORM_TOL` raises :class:`~qramforge.errors.SimulationError`."""
    # a norm past the float range reads inf, and its drift NaN, which is refused
    with np.errstate(over="ignore", invalid="ignore"):
        before = rows.norms()
        rows.apply(moments, unitaries)
        drift = np.abs(rows.norms() - before)
    if drift.size and not drift.max() <= NORM_TOL:
        raise SimulationError(f"state norm drifted by {drift.max():.3e} during simulation")


def run_circuit(
    state: SparseState,
    circuit: Circuit,
    unitaries: Mapping[str, UnitarySpec] | None = None,
) -> SparseState:
    """Run every moment of ``circuit`` on ``state`` and return the final state.

    The state must live on exactly the circuit's qubit count; the final norm
    is checked against the initial one (drift beyond :data:`NORM_TOL` raises
    :class:`~qramforge.errors.SimulationError`).
    """
    (final,) = run_batch([state], circuit, unitaries)
    return final


def apply_gate(
    state: SparseState, gate: Gate, unitaries: Mapping[str, UnitarySpec] | None = None
) -> SparseState:
    """Apply one gate, returning a new state (the input is untouched)."""
    if max(gate.qubits) >= state.num_qubits:
        raise StructuralError(
            f"gate on qubit {max(gate.qubits)} does not fit a {state.num_qubits}-qubit state"
        )
    rows = _Rows.of_states([state], state.num_qubits)
    moments = _Moments(GateColumns.of_gates([(0, gate)], 1), state.num_qubits)
    rows.apply(moments, unitaries)
    (out,) = rows.states()
    return out
