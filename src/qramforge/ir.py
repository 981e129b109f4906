"""Moment-structured circuit representation.

A circuit is a list of *moments*; each moment is a set of gates acting on
pairwise-disjoint qubits (controls count as acting).  A circuit is its
:class:`GateColumns`, one row of numpy columns per gate, sorted by moment.
:meth:`GateColumns.of_flat` writes every gate list but the synthesis
Down phase's (:meth:`GateColumns.build`), and only this module indexes the
opaque-block table.  :meth:`Circuit.from_moments` takes explicit moments,
and :meth:`Circuit.append` places one gate in the earliest moment after
the last moment that uses one of its qubits.

Gates are validated only where they enter: the :class:`Gate` constructors
and :meth:`Circuit.from_moments`, which :meth:`Circuit.append` goes
through, and the document parser, which shares :func:`check_moments` with
them.  Metrics, the adjoint and concatenation work on the columns;
:class:`Gate` objects are views built on demand.

Gate vocabulary: X, CNOT, Toffoli, Fredkin (all self-inverse), plus an
opaque single-controlled unitary block labelled by the leaf whose payload it
applies.  Opaque blocks carry a ``declared_depth`` that stands in for the
depth of whatever decomposition the target machine would substitute; circuit
depth is the sum over moments of the largest declared depth in the moment
(elementary gates count 1).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import StructuralError, check_int
from .tree import RegisterMap


class GateKind(str, Enum):
    X = "x"
    CNOT = "cx"
    TOFFOLI = "ccx"
    FREDKIN = "cswap"
    OPAQUE = "cu"


#: Largest declared depth of an opaque block (depths are stored as int64).
MAX_DECLARED_DEPTH = 1 << 62

#: Gate kinds in the order of their codes in :attr:`GateColumns.kind`.
KINDS = (GateKind.X, GateKind.CNOT, GateKind.TOFFOLI, GateKind.FREDKIN, GateKind.OPAQUE)
X, CNOT, TOFFOLI, FREDKIN, OPAQUE = range(len(KINDS))
KIND_CODE = {kind: code for code, kind in enumerate(KINDS)}
#: Numbers of controls and targets of each elementary kind code.
ARITY = ((0, 1), (1, 1), (2, 1), (1, 2))


def check_declared_depth(value) -> int:
    """``value`` if it is a valid declared depth of an opaque block: an int,
    not a bool, from 1 to :data:`MAX_DECLARED_DEPTH`."""
    return check_int(value, "declared depths", 1, MAX_DECLARED_DEPTH + 1)


@dataclass(frozen=True, slots=True)
class Gate:
    """One gate instance over physical qubit indices.

    ``leaf``, ``dagger`` and ``declared_depth`` are meaningful only for
    :data:`GateKind.OPAQUE`; elementary gates pin them to their defaults.
    """

    kind: GateKind
    controls: tuple[int, ...]
    targets: tuple[int, ...]
    leaf: str | None = None
    dagger: bool = False
    declared_depth: int = 1

    def __post_init__(self) -> None:
        if self.kind is GateKind.OPAQUE:
            if len(self.controls) != 1 or not self.targets:
                raise StructuralError("an opaque block takes one control and at least one target")
            if self.leaf is None:
                raise StructuralError("an opaque block must name the leaf it applies")
            check_declared_depth(self.declared_depth)
        else:
            expected = ARITY[KIND_CODE[self.kind]]
            if (len(self.controls), len(self.targets)) != expected:
                raise StructuralError(
                    f"{self.kind.value} takes {expected[0]} control(s) and {expected[1]} target(s), "
                    f"got {len(self.controls)} and {len(self.targets)}"
                )
            if self.leaf is not None or self.dagger or self.declared_depth != 1:
                raise StructuralError(
                    f"{self.kind.value} is elementary; leaf/dagger/declared_depth are fixed"
                )
        qubits = self.controls + self.targets
        for q in qubits:
            check_int(q, "qubit indices", 0)
        if len(set(qubits)) != len(qubits):
            raise StructuralError(f"gate qubits must be distinct, got {qubits}")

    @classmethod
    def _unchecked(cls, kind, controls, targets, leaf=None, dagger=False, declared_depth=1) -> "Gate":
        """A gate read back from columns that were validated when built."""
        gate = object.__new__(cls)
        for name, value in zip(cls.__slots__, (kind, controls, targets, leaf, dagger, declared_depth)):
            object.__setattr__(gate, name, value)
        return gate

    # -- constructors -------------------------------------------------------

    @staticmethod
    def x(target: int) -> "Gate":
        return Gate(GateKind.X, (), (target,))

    @staticmethod
    def cnot(control: int, target: int) -> "Gate":
        return Gate(GateKind.CNOT, (control,), (target,))

    @staticmethod
    def toffoli(control_a: int, control_b: int, target: int) -> "Gate":
        return Gate(GateKind.TOFFOLI, (control_a, control_b), (target,))

    @staticmethod
    def fredkin(control: int, target_a: int, target_b: int) -> "Gate":
        return Gate(GateKind.FREDKIN, (control,), (target_a, target_b))

    @staticmethod
    def controlled_opaque(
        control: int,
        targets: Iterable[int],
        leaf: str,
        *,
        dagger: bool = False,
        declared_depth: int = 1,
    ) -> "Gate":
        return Gate(
            GateKind.OPAQUE,
            (control,),
            tuple(targets),
            leaf=leaf,
            dagger=dagger,
            declared_depth=declared_depth,
        )

    # -- properties ----------------------------------------------------------

    @property
    def qubits(self) -> tuple[int, ...]:
        return self.controls + self.targets

    def adjoint(self) -> "Gate":
        """The inverse gate: elementary kinds are self-inverse; opaque blocks
        flip their dagger flag."""
        if self.kind is not GateKind.OPAQUE:
            return self
        return Gate(
            self.kind,
            self.controls,
            self.targets,
            leaf=self.leaf,
            dagger=not self.dagger,
            declared_depth=self.declared_depth,
        )


class GateColumns:
    """The gates of a circuit as numpy columns, one row per gate.

    Rows are sorted by moment, and the rows of one moment come in the
    moment's gate order.  ``ops`` holds a gate's qubits, controls first,
    padded with -1.  An opaque block keeps only its control in ``ops``; its
    targets, leaf and declared depth sit in a side table that ``block``
    points into (-1 for elementary gates): block ``b`` acts on
    ``targets[tptr[b]:tptr[b + 1]]`` for leaf ``leaf[b]``.
    Derived tables share arrays with their sources, so nothing writes into
    them after construction.
    """

    __slots__ = (
        "kind", "ops", "moment", "dagger", "block", "num_moments",
        "leaf", "depth", "tptr", "targets",
    )

    def __init__(self, kind, ops, moment, dagger, block, num_moments, leaf, depth, tptr, targets):
        self.kind, self.ops, self.moment, self.dagger, self.block = kind, ops, moment, dagger, block
        self.num_moments = num_moments
        self.leaf, self.depth, self.tptr, self.targets = leaf, depth, tptr, targets

    @classmethod
    def build(cls, kind, ops, moment, num_moments: int) -> "GateColumns":
        """Columns of elementary gates given in moment order."""
        count = len(kind)
        return cls(
            np.asarray(kind, dtype=np.int8), np.asarray(ops, dtype=np.int32).reshape(count, 3),
            np.asarray(moment, dtype=np.int32), np.zeros(count, dtype=bool),
            np.full(count, -1, dtype=np.int32), num_moments,
            np.zeros(0, dtype=object), np.zeros(0, dtype=np.int64),
            np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int32),
        )

    @classmethod
    def of_flat(cls, kind, moment, sizes, qubits, num_moments: int, dagger, leaf, depth) -> "GateColumns":
        """Columns of gates given in moment order: gate ``g`` acts on the next
        ``sizes[g]`` entries of ``qubits``, controls first (an opaque block's
        control, then its targets).  ``dagger``, ``leaf`` and ``depth`` hold
        one entry per opaque block, in order."""
        kind, sizes = np.asarray(kind, dtype=np.int8), np.asarray(sizes, dtype=np.int64)
        qubits = np.asarray(qubits, dtype=np.int32)
        # a gate's first ``width`` qubits go to ops: an opaque block keeps only its control there
        first, width = np.cumsum(sizes) - sizes, np.where(kind == OPAQUE, 1, sizes)
        ops = np.full((len(kind), 3), -1, dtype=np.int32)
        ops[:, 0] = qubits[first]
        in_ops = np.zeros(len(qubits), dtype=bool)
        in_ops[first] = True
        for column in (1, 2):
            gates = np.flatnonzero(width > column)
            index = first[gates] + column
            ops[gates, column] = qubits[index]
            in_ops[index] = True
        rows = np.flatnonzero(kind == OPAQUE)
        block, flags = np.full(len(kind), -1, dtype=np.int32), np.zeros(len(kind), dtype=bool)
        block[rows], flags[rows] = np.arange(len(rows)), dagger
        return cls(
            kind, ops, np.asarray(moment, dtype=np.int32), flags, block, num_moments,
            np.fromiter(leaf, dtype=object, count=len(rows)), np.array(depth, dtype=np.int64),
            np.concatenate([[0], np.cumsum(sizes[rows] - 1)]), qubits.compress(~in_ops),
        )

    @classmethod
    def of_gates(cls, placed: Sequence[tuple[int, Gate]], num_moments: int) -> "GateColumns":
        """Columns of ``(moment index, gate)`` pairs given in moment order."""
        moment, gates = [index for index, _ in placed], [gate for _, gate in placed]
        blocks = [gate for gate in gates if gate.kind is GateKind.OPAQUE]
        return cls.of_flat(
            [KIND_CODE[gate.kind] for gate in gates], moment, [len(gate.qubits) for gate in gates],
            [q for gate in gates for q in gate.qubits], num_moments,
            [gate.dagger for gate in blocks], [gate.leaf for gate in blocks], [gate.declared_depth for gate in blocks],
        )

    def __len__(self) -> int:
        return len(self.kind)

    def take(self, rows: np.ndarray, moment: np.ndarray | None = None, flip: bool = False):
        """The given rows, in the given order, sharing the block table; with
        new moment indices and dagger flags flipped when asked."""
        return GateColumns(
            self.kind[rows], self.ops.take(rows, axis=0),
            self.moment[rows] if moment is None else moment,
            self.dagger[rows] ^ flip, self.block[rows], self.num_moments,
            self.leaf, self.depth, self.tptr, self.targets,
        )

    @staticmethod
    def concat(parts: Sequence["GateColumns"], moment_offsets: Sequence[int] | None = None) -> "GateColumns":
        """The parts one after another, by default each part's moments after
        the last moment of the parts before it."""
        if moment_offsets is None:
            moment_offsets = np.cumsum([0] + [part.num_moments for part in parts[:-1]]).tolist()
        block_offsets = np.cumsum([0] + [len(part.depth) for part in parts])
        target_offsets = np.cumsum([0] + [len(part.targets) for part in parts])
        return GateColumns(
            np.concatenate([part.kind for part in parts]),
            np.concatenate([part.ops for part in parts]),
            np.concatenate([part.moment + offset for part, offset in zip(parts, moment_offsets)]).astype(np.int32, copy=False),
            np.concatenate([part.dagger for part in parts]),
            np.concatenate([
                np.where(part.block >= 0, part.block + offset, -1) if offset and len(part.depth) else part.block
                for part, offset in zip(parts, block_offsets)
            ]).astype(np.int32, copy=False),
            max(offset + part.num_moments for part, offset in zip(parts, moment_offsets)),
            np.concatenate([part.leaf for part in parts]),
            np.concatenate([part.depth for part in parts]),
            np.concatenate([[0]] + [part.tptr[1:] + offset for part, offset in zip(parts, target_offsets)]).astype(np.int64),
            np.concatenate([part.targets for part in parts]).astype(np.int32),
        )

    def reversed(self) -> "GateColumns":
        """The adjoint's columns: moment ``i`` becomes moment ``M - 1 - i``,
        each keeping its gate order, and opaque blocks flip their dagger flag
        (elementary gates are self-inverse)."""
        # rows are sorted by moment: take each moment's run of rows, last moment first
        counts = np.bincount(self.moment, minlength=self.num_moments)
        starts = np.cumsum(counts) - counts
        counts, starts = counts[::-1], starts[::-1]
        order = np.arange(len(self)) + np.repeat(starts - (np.cumsum(counts) - counts), counts)
        mirrored = np.repeat(np.arange(self.num_moments, dtype=np.int32), counts)
        return self.take(order, mirrored, self.kind[order] == OPAQUE)

    # -- per-gate data ------------------------------------------------------

    def _opaque_blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The opaque rows and, for each, its block's leaf, declared depth and
        number of targets."""
        rows = np.flatnonzero(self.kind == OPAQUE)
        blocks = self.block[rows]
        return rows, self.leaf[blocks], self.depth[blocks], self.tptr[blocks + 1] - self.tptr[blocks]

    def block_targets(self) -> tuple[np.ndarray, np.ndarray]:
        """The targets of every opaque row, flattened, and each target's row."""
        rows = np.flatnonzero(self.kind == OPAQUE)
        start, end = self.tptr[self.block[rows]], self.tptr[self.block[rows] + 1]
        lengths = end - start
        index = np.arange(int(lengths.sum())) + np.repeat(start - (np.cumsum(lengths) - lengths), lengths)
        return self.targets[index], np.repeat(rows, lengths)

    def operands(self) -> tuple[np.ndarray, np.ndarray]:
        """Every qubit a gate acts on, as parallel (row, qubit) arrays: the
        ``ops`` entries first, then the opaque targets."""
        rows, column = np.nonzero(self.ops >= 0)
        targets, owner = self.block_targets()
        return np.concatenate([rows, owner]), np.concatenate([self.ops[rows, column], targets])

    def gates(self) -> Iterator[Gate]:
        """A :class:`Gate` view of every row, in row order."""
        tptr, targets = self.tptr.tolist(), self.targets.tolist()
        leaf, depth = self.leaf.tolist(), self.depth.tolist()
        for code, ops, dagger, b in zip(self.kind.tolist(), self.ops.tolist(), self.dagger.tolist(), self.block.tolist()):
            if code == OPAQUE:
                yield Gate._unchecked(KINDS[code], (ops[0],), tuple(targets[tptr[b] : tptr[b + 1]]), leaf[b], dagger, depth[b])
            else:
                controls, count = ARITY[code]
                yield Gate._unchecked(KINDS[code], tuple(ops[:controls]), tuple(ops[controls : controls + count]))

    def _blocks_in_order(self) -> tuple[np.ndarray, ...]:
        return (*self._opaque_blocks()[1:3], *self.block_targets())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GateColumns):
            return NotImplemented
        return (
            self.num_moments == other.num_moments
            and all(np.array_equal(getattr(self, name), getattr(other, name))
                    for name in ("kind", "ops", "moment", "dagger"))
            and all(map(np.array_equal, self._blocks_in_order(), other._blocks_in_order()))
        )

    # -- metrics --------------------------------------------------------------

    def depth_total(self) -> int:
        per_moment = np.ones(self.num_moments, dtype=np.int64)
        rows, _, depth, _ = self._opaque_blocks()
        np.maximum.at(per_moment, self.moment[rows], depth)
        return sum(per_moment.tolist())

    def width(self) -> int:
        if not len(self.moment):
            return 0
        return int(np.bincount(self.moment).max())

    def gate_counts(self) -> dict[str, int]:
        """Gates by kind, the kinds in order of first appearance."""
        codes, first, counts = np.unique(self.kind, return_index=True, return_counts=True)
        return {
            KINDS[code].value: count
            for _, code, count in sorted(zip(first.tolist(), codes.tolist(), counts.tolist()))
        }


_EMPTY = GateColumns.build([], [], [], 0)


def as_int64(values: list[int]) -> np.ndarray:
    """``values`` as int64, each integer beyond 2**62 in magnitude replaced
    by a stand-in of the same sign that equals the stand-ins of the same
    integer only."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        huge = sorted({q for q in values if not -(1 << 62) < q < 1 << 62})
        stand_in = {q: (1 << 62) + r if q > 0 else -(1 << 62) - r for r, q in enumerate(huge)}
        return np.array([stand_in.get(q, q) for q in values], dtype=np.int64)


def check_moments(
    layout: RegisterMap, moment: np.ndarray, owner: np.ndarray, qubits: list[int], flat: np.ndarray
) -> None:
    """Refuse the first gate that shares a qubit with an earlier gate of its
    moment, then the first qubit outside ``layout`` in the earliest moment
    with one.  ``qubits`` lists every gate's qubits as given (gates in moment
    order), ``owner`` the gate of each, ``moment`` each gate's moment, and
    ``flat`` is ``as_int64(qubits)``."""
    where = moment[owner]
    order = np.lexsort((owner, flat, where))
    same = (np.diff(where[order]) == 0) & (np.diff(flat[order]) == 0)
    clash = order[1:][same]
    if clash.size:
        first = clash[owner[clash] == owner[clash].min()].tolist()
        overlap = sorted({qubits[i] for i in first})
        raise StructuralError(f"qubit(s) {overlap} already used in this moment")
    outside = np.flatnonzero(flat >= layout.total_qubits)
    if outside.size:
        first = outside[where[outside] == where[outside].min()][0]
        raise StructuralError(
            f"qubit {qubits[first]} is outside the layout ({layout.total_qubits} qubits)"
        )


def _check_leaves(layout: RegisterMap, leaves: Iterable[object]) -> None:
    """Refuse the first opaque-block leaf that is no leaf of ``layout``."""
    for leaf in leaves:
        if not (isinstance(leaf, str) and len(leaf) == layout.n and not leaf.strip("01")):
            raise StructuralError(f"opaque block leaf {leaf!r} is not a leaf of this layout")


class Circuit:
    """A moment-structured circuit bound to a
    :class:`~qramforge.tree.RegisterMap`: its :attr:`columns`, which must
    already be valid for the layout (build them with :meth:`from_moments`
    or :meth:`append` otherwise).

    ``moments`` and the :class:`Gate` objects in them are views, built on
    demand.  ``metadata`` is a free-form dict (phase names, synthesis
    options, ...) that never participates in equality.
    """

    def __init__(self, layout: RegisterMap, columns: GateColumns = _EMPTY):
        self.layout = layout
        self.metadata: dict = {}
        self.columns = columns
        self._views: tuple[GateColumns, tuple[tuple[Gate, ...], ...]] | None = None

    @classmethod
    def from_moments(cls, layout: RegisterMap, moments: Iterable[Iterable[Gate]]) -> "Circuit":
        """A circuit with exactly these moments, checked to be disjoint and
        inside the layout, every opaque block on a leaf of the layout."""
        moments = [list(gates) for gates in moments]
        placed = [(index, gate) for index, gates in enumerate(moments) for gate in gates]
        moment = np.array([index for index, _ in placed], dtype=np.int64)
        owner = np.repeat(np.arange(len(placed)), [len(gate.qubits) for _, gate in placed])
        qubits = [q for _, gate in placed for q in gate.qubits]
        check_moments(layout, moment, owner, qubits, as_int64(qubits))
        _check_leaves(layout, [gate.leaf for _, gate in placed if gate.kind is GateKind.OPAQUE])
        return cls(layout, GateColumns.of_gates(placed, len(moments)))

    def append(self, gate: Gate) -> "Circuit":
        """Place ``gate`` in the earliest moment after the last moment that
        uses one of its qubits, after the gates already there."""
        added = Circuit.from_moments(self.layout, [[gate]]).columns
        rows, qubits = self.columns.operands()
        busy = self.columns.moment[rows[np.isin(qubits, gate.qubits)]]
        merged = GateColumns.concat([self.columns, added], [0, int(busy.max(initial=-1)) + 1])
        self.columns = merged.take(np.argsort(merged.moment, kind="stable"))
        return self

    # -- views ------------------------------------------------------------------

    @property
    def moments(self) -> tuple[tuple[Gate, ...], ...]:
        """The gates of each moment, as :class:`Gate` views (build a changed
        circuit with :meth:`from_moments`)."""
        columns = self.columns
        if self._views is None or self._views[0] is not columns:
            groups: list[list[Gate]] = [[] for _ in range(columns.num_moments)]
            for index, gate in zip(columns.moment.tolist(), columns.gates()):
                groups[index].append(gate)
            self._views = (columns, tuple(map(tuple, groups)))
        return self._views[1]

    # -- derived circuits ------------------------------------------------------

    def adjoint(self) -> "Circuit":
        """The exact inverse: moments reversed, each gate replaced by its adjoint."""
        out = Circuit(self.layout, self.columns.reversed())
        out.metadata = dict(self.metadata)
        return out

    # -- metrics ----------------------------------------------------------------

    @property
    def num_gates(self) -> int:
        return len(self.columns)

    @property
    def num_moments(self) -> int:
        return self.columns.num_moments

    @property
    def depth(self) -> int:
        return self.columns.depth_total()

    @property
    def width(self) -> int:
        """Largest number of gates executing in any one moment."""
        return self.columns.width()

    def gate_counts(self) -> dict[str, int]:
        return self.columns.gate_counts()

    # -- identity -----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return self.layout == other.layout and self.columns == other.columns

    def __repr__(self) -> str:
        return (
            f"Circuit({self.num_gates} gates in {self.num_moments} moments, "
            f"depth {self.depth}, on {self.layout.total_qubits} qubits)"
        )


def concat(first: Circuit, second: Circuit, *rest: Circuit) -> Circuit:
    """Sequential composition preserving each part's moment structure.

    All parts must share one layout.  The result's moment list is the plain
    concatenation of the parts' moment lists, so its depth is exactly the sum
    of the parts' depths (in particular, never more).
    """
    parts = (first, second, *rest)
    for part in parts[1:]:
        if part.layout != first.layout:
            raise StructuralError("cannot concatenate circuits over different layouts")
    return Circuit(first.layout, GateColumns.concat([part.columns for part in parts]))
