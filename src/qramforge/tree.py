"""Binary-tree layout: node labels, qubit numbering, and register allocation.

The access circuit lives on a complete binary tree of depth ``n``.  Nodes are
labelled by bit strings: the root is the empty string ``""``, and the children
of node ``x`` are ``x + "0"`` and ``x + "1"``.  A leaf label, read left to
right, is therefore an address with its most significant bit first — walking
down from the root consumes address bits MSB-first.

Registers
---------
``address``
    ``n`` input qubits holding the address ``y``.
``result``
    ``m`` input/output qubits the selected unitary acts on.
``life_x``
    One flag qubit per node (root included).  During the Down phase exactly
    the nodes on the path from the root to leaf ``y`` have their flag set.
``adr_x``
    For every non-leaf node, a logical register of ``n - |x|`` qubits holding
    the still-unconsumed low address bits.  Physically these registers share
    qubits: the root's register *is* ``address``, a left child's register is
    an alias of the low ``n - |x|`` qubits of its parent's register, and only
    right children own freshly allocated ancillas (filled by CNOT copies
    during synthesis).  This sharing is what brings the address-copy ancilla
    count down to ``2**n - n - 1``.
``res_x``
    ``m`` ancillas per non-root node; the root's register is an alias of
    ``result``.  The Down phase hands the result payload along the live path
    through these.
``mem_z``
    ``k_z >= 0`` data qubits per leaf ``z`` that the leaf's unitary may read
    (but must leave untouched on other leaves).
``copy_x``
    Optional fan-out extension (see :meth:`RegisterMap.with_fanout_copies`):
    ``ceil(m / s)`` scratch qubits per non-root node used to spread the
    ``life_x`` control across blocks of ``s`` swaps.

Qubit numbering
---------------
Physical indices are assigned deterministically in this order:

1. ``address[0..n-1]`` (index ``j`` holds address bit ``j``, i.e. weight
   ``2**j``; the *last* qubit is the MSB),
2. ``result[0..m-1]``,
3. for each level ``0..n`` and each node of the level in ascending label
   order: its ``life`` qubit, then its fresh ``adr`` qubits (right children
   of non-leaf parents only), then its ``res`` qubits (non-root only),
4. for each leaf in ascending order: its ``mem`` qubits,
5. if the fan-out extension is present: for each level ``1..n`` and node in
   ascending order, its ``copy`` qubits.

Basis-state keys used by the simulator are integers whose bit ``q`` is the
value of physical qubit ``q`` (little-endian in the physical index).
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError, ResourceLimitError

#: Hard ceiling on the address width.  The tree has ``2**(n+1) - 1`` nodes
#: and every node owns at least one qubit, so widths beyond this are far
#: outside what the sparse simulator or the synthesizer are meant for.
MAX_ADDRESS_WIDTH = 16

#: Default budget for the total number of physical qubits in one layout.
DEFAULT_MAX_QUBITS = 2_000_000

ROOT = ""


def label_of(value: int, width: int) -> str:
    """Return the node label of ``value`` at tree depth ``width`` (MSB first)."""
    if width == 0:
        if value != 0:
            raise InvalidParameterError(f"the root level has a single node, got value {value}")
        return ROOT
    if not 0 <= value < (1 << width):
        raise InvalidParameterError(f"label value {value} does not fit in {width} bits")
    return format(value, f"0{width}b")


def value_of(label: str) -> int:
    """Inverse of :func:`label_of` (the root maps to 0)."""
    _check_label(label)
    return int(label, 2) if label else 0


def _check_label(label: str) -> None:
    if not isinstance(label, str) or any(c not in "01" for c in label):
        raise InvalidParameterError(f"node labels are bit strings, got {label!r}")


def enumerate_nodes(n: int) -> list[list[str]]:
    """All node labels of a depth-``n`` tree, grouped by level.

    ``enumerate_nodes(2) == [[""], ["0", "1"], ["00", "01", "10", "11"]]``.
    """
    _validate_sizes(n, 1)
    return [[label_of(v, k) for v in range(1 << k)] for k in range(n + 1)]


def ancilla_counts(n: int, m: int, k: int | Sequence[int] | Mapping[str, int]) -> dict[str, int]:
    """Closed-form qubit tallies for the standard (no fan-out) layout.

    Returns a dict with keys ``life``, ``adr``, ``res``, ``mem`` and
    ``total`` (the sum of the four).  ``adr`` counts only freshly allocated
    qubits — aliased registers are free — which comes to
    ``sum((n - k - 1) * 2**k for k in range(n)) == 2**n - n - 1``.
    """
    _validate_sizes(n, m)
    k_values = _normalize_k(n, k)
    num_leaves = 1 << n
    counts = {
        "life": 2 * num_leaves - 1,
        "adr": num_leaves - n - 1,
        "res": m * (2 * num_leaves - 2),
        "mem": sum(k_values),
    }
    counts["total"] = sum(counts.values())
    return counts


def _validate_sizes(n: int, m: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise InvalidParameterError(f"address width must be a positive integer, got {n!r}")
    if n > MAX_ADDRESS_WIDTH:
        raise InvalidParameterError(
            f"address width {n} exceeds the supported maximum {MAX_ADDRESS_WIDTH}"
        )
    if not isinstance(m, int) or m < 1:
        raise InvalidParameterError(f"result width must be a positive integer, got {m!r}")


def _normalize_k(n: int, k: int | Sequence[int] | Mapping[str, int]) -> tuple[int, ...]:
    """Normalize the per-leaf memory widths to a tuple indexed by leaf value."""
    num_leaves = 1 << n
    if isinstance(k, int):
        values = [k] * num_leaves
    elif isinstance(k, Mapping):
        values = [0] * num_leaves
        for label, width in k.items():
            _check_label(label)
            if len(label) != n:
                raise InvalidParameterError(
                    f"memory widths are keyed by leaf labels of length {n}, got {label!r}"
                )
            values[int(label, 2)] = width
    else:
        values = list(k)
        if len(values) != num_leaves:
            raise InvalidParameterError(
                f"expected {num_leaves} per-leaf memory widths, got {len(values)}"
            )
    for width in values:
        if not isinstance(width, int) or width < 0:
            raise InvalidParameterError(f"memory widths must be non-negative integers, got {width!r}")
    return tuple(values)


@dataclass(frozen=True, slots=True)
class QubitId:
    """Symbolic name of one physical qubit: register kind, owning node, offset."""

    kind: str
    node: str
    index: int

    def __str__(self) -> str:  # e.g. "life[10]:0", "address:1"
        owner = self.node if self.node else "eps"
        return f"{self.kind}[{owner}]:{self.index}"


#: Register kinds in the order of their codes in :attr:`RegisterMap.rows`.
REGISTER_KINDS = ("address", "result", "life", "adr", "res", "mem", "copy")
_KIND_CODE = {kind: code for code, kind in enumerate(REGISTER_KINDS)}

#: Qubit indices are stored as 32-bit integers in circuits.
_INDEX_LIMIT = (1 << 31) - 1


class Level(NamedTuple):
    """First physical qubit of each register of every node of one tree level,
    as arrays indexed by node value.  ``adr`` resolves aliases (its register
    holds ``n - level`` consecutive qubits; unused at the leaves), ``res``
    holds ``m`` and ``copy`` holds :attr:`RegisterMap.copies_per_node`
    (unused at the root and without the fan-out extension)."""

    life: np.ndarray
    adr: np.ndarray
    res: np.ndarray
    copy: np.ndarray


class Rows(NamedTuple):
    """Every allocated register, in physical order: kind code (see
    :data:`REGISTER_KINDS`), owning node as (depth, value), first qubit and size.
    Aliases and empty memory registers own no qubits and have no row."""

    kind: np.ndarray
    depth: np.ndarray
    value: np.ndarray
    start: np.ndarray
    size: np.ndarray


class _QubitNames(Sequence):
    """``qubit_at`` of a layout: the :class:`QubitId` of every physical
    index, looked up by bisection in the register rows."""

    __slots__ = ("_layout",)

    def __init__(self, layout: "RegisterMap"):
        self._layout = layout

    def __len__(self) -> int:
        return self._layout.total_qubits

    def __getitem__(self, index: int) -> QubitId:
        total = self._layout.total_qubits
        if not -total <= index < total:
            raise IndexError(f"qubit {index} out of range for {total} qubits")
        index %= total
        rows = self._layout.rows
        row = int(np.searchsorted(rows.start, index, side="right")) - 1
        node = label_of(int(rows.value[row]), int(rows.depth[row]))
        return QubitId(REGISTER_KINDS[rows.kind[row]], node, index - int(rows.start[row]))


class RegisterMap:
    """Deterministic assignment of every register qubit to a physical index.

    The layout is closed-form: every register is a run of consecutive
    physical qubits whose start follows from the sizes (see the numbering in
    the module docstring), so nothing is stored per qubit.  :attr:`rows`
    lists the allocated registers, :meth:`level` gives a tree level's
    register starts as arrays, and :attr:`qubit_at` names any index.

    Instances are immutable in practice: the fan-out extension returns a new
    map.
    """

    def __init__(
        self,
        n: int,
        m: int,
        k: int | Sequence[int] | Mapping[str, int] = 0,
        *,
        fanout_block: int | None = None,
        max_qubits: int = DEFAULT_MAX_QUBITS,
    ):
        _validate_sizes(n, m)
        self.n = n
        self.m = m
        self.k = _normalize_k(n, k)
        if fanout_block is not None and not 1 <= fanout_block <= m:
            raise InvalidParameterError(
                f"fan-out block size must satisfy 1 <= s <= m, got s={fanout_block} with m={m}"
            )
        # ceil(m / s) life copies per non-root node; fewer than two copies
        # adds nothing over controlling on life_x directly, so the extension
        # collapses to the plain layout in that case.
        copies = -(-m // fanout_block) if fanout_block is not None else 0
        if copies < 2:
            copies = 0
            fanout_block = None
        self.fanout_block = fanout_block
        self.copies_per_node = copies

        counts = ancilla_counts(n, m, self.k)
        total = n + m + counts["total"] + copies * (2 * (1 << n) - 2)
        limit = min(max_qubits, _INDEX_LIMIT)
        if total > limit:
            raise ResourceLimitError(
                f"layout for n={n}, m={m} needs {total} qubits, "
                f"exceeding the budget of {limit}",
                requested=total,
                limit=limit,
            )
        self.total_qubits = total
        self.qubit_at = _QubitNames(self)
        # First qubit of each level: address and result lead, then per level
        # every node's life flag, fresh adr register (right children strictly
        # inside the tree) and res register (all but the root).
        self._level_start = [n + m]
        for depth in range(n):
            self._level_start.append(self._level_start[-1] + self._level_size(depth))
        self._mem_base = self._level_start[-1] + self._level_size(n)
        self._mem_start = tuple(itertools.accumulate(self.k, initial=self._mem_base))
        self._levels: dict[int, Level] = {}

    def _level_size(self, depth: int) -> int:
        fresh = self._fresh_adr(depth)
        return (1 << depth) * (1 + self._res_width(depth)) + (1 << depth >> 1) * fresh

    def _fresh_adr(self, depth: int) -> int:
        """Size of the fresh adr register of a right child at ``depth``."""
        return self.n - depth if 0 < depth < self.n else 0

    def _res_width(self, depth: int) -> int:
        return self.m if depth else 0

    # -- identity ---------------------------------------------------------

    def _key(self) -> tuple:
        return (self.n, self.m, self.k, self.fanout_block)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RegisterMap):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        extra = f", fanout_block={self.fanout_block}" if self.fanout_block else ""
        return f"RegisterMap(n={self.n}, m={self.m}, k={list(self.k)}{extra})"

    # -- the closed form ----------------------------------------------------

    def level(self, depth: int) -> Level:
        """Register starts of every node at ``depth``, indexed by node value."""
        cached = self._levels.get(depth)
        if cached is not None:
            return cached
        if not 0 <= depth <= self.n:
            raise InvalidParameterError(f"the tree has levels 0..{self.n}, got {depth}")
        value = np.arange(1 << depth, dtype=np.int64)
        odd = value & 1
        life = self._level_start[depth] + value * (1 + self._res_width(depth))
        life += (value >> 1) * self._fresh_adr(depth)
        if depth == 0:
            adr = np.zeros(1, dtype=np.int64)
            res = np.full(1, self.n, dtype=np.int64)
        else:
            # a left child aliases the low bits of its parent's register
            adr = np.where(odd == 1, life + 1, self.level(depth - 1).adr[value >> 1])
            res = life + 1 + odd * self._fresh_adr(depth)
        first_copy = self._mem_start[-1] + ((1 << depth) - 2) * self.copies_per_node
        copy = first_copy + value * self.copies_per_node
        level = self._levels[depth] = Level(life, adr, res, copy)
        return level

    def _node(self, node: str) -> tuple[int, int]:
        _check_label(node)
        if len(node) > self.n:
            raise InvalidParameterError(f"node {node!r} is deeper than the tree (n={self.n})")
        return len(node), int(node, 2) if node else 0

    def _register(self, kind: str, node: str) -> tuple[int, int]:
        """``(start, size)`` of an allocated register."""
        depth, value = self._node(node)
        n = self.n
        if kind == "address" and depth == 0:
            return 0, n
        if kind == "result" and depth == 0:
            return n, self.m
        if kind == "life":
            return int(self.level(depth).life[value]), 1
        if kind == "adr" and value & 1 and depth < n:
            return int(self.level(depth).life[value]) + 1, n - depth
        if kind == "res" and depth:
            return int(self.level(depth).res[value]), self.m
        if kind == "mem" and depth == n:
            return self._mem_start[value], self.k[value]
        if kind == "copy" and depth and self.copies_per_node:
            return int(self.level(depth).copy[value]), self.copies_per_node
        raise InvalidParameterError(f"no {kind} register at node {node!r}")

    def _span(self, kind: str, node: str) -> tuple[int, ...]:
        start, size = self._register(kind, node)
        return tuple(range(start, start + size))

    @cached_property
    def rows(self) -> Rows:
        """The register table, built from the closed form."""
        parts = [
            (_KIND_CODE["address"], 0, np.zeros(1), 0, self.n),
            (_KIND_CODE["result"], 0, np.zeros(1), self.n, self.m),
        ]
        for depth in range(self.n + 1):
            level = self.level(depth)
            value = np.arange(1 << depth)
            parts.append((_KIND_CODE["life"], depth, value, level.life, 1))
            fresh = self._fresh_adr(depth)
            if fresh:
                right = value[1::2]
                parts.append((_KIND_CODE["adr"], depth, right, level.life[1::2] + 1, fresh))
            if depth:
                parts.append((_KIND_CODE["res"], depth, value, level.res, self.m))
        k = np.array(self.k, dtype=np.int64)
        leaves = np.flatnonzero(k)
        parts.append((_KIND_CODE["mem"], self.n, leaves, self.mem_starts[leaves], k[leaves]))
        if self.copies_per_node:
            for depth in range(1, self.n + 1):
                value = np.arange(1 << depth)
                parts.append(
                    (_KIND_CODE["copy"], depth, value, self.level(depth).copy, self.copies_per_node)
                )
        columns = [
            np.concatenate([np.broadcast_to(np.asarray(part[i], dtype=np.int64), np.shape(part[2]))
                            for part in parts])
            for i in range(5)
        ]
        order = np.argsort(columns[3], kind="stable")
        kind, depth, value, start, size = (column[order] for column in columns)
        return Rows(kind.astype(np.int8), depth, value, start, size)

    @cached_property
    def labelled_rows(self) -> tuple[tuple[str, str, int, int], ...]:
        """:attr:`rows` as ``(kind, node label, start, size)`` tuples."""
        rows = self.rows
        labels = [label_of(value, depth) for depth, value in zip(rows.depth.tolist(), rows.value.tolist())]
        kinds = [REGISTER_KINDS[kind] for kind in rows.kind.tolist()]
        return tuple(zip(kinds, labels, rows.start.tolist(), rows.size.tolist()))

    # -- register lookups (physical indices) ------------------------------

    @property
    def address_qubits(self) -> tuple[int, ...]:
        return tuple(range(self.n))

    @property
    def result_qubits(self) -> tuple[int, ...]:
        return tuple(range(self.n, self.n + self.m))

    def life(self, node: str) -> int:
        return self._register("life", node)[0]

    def adr(self, node: str) -> tuple[int, ...]:
        """Logical ``adr_x`` register; resolves aliases to physical indices.

        ``adr("")`` is the address register itself; left children alias the
        low bits of their parent; leaves hold no address copy (empty tuple).
        """
        depth, value = self._node(node)
        if depth == self.n:
            return ()
        start = int(self.level(depth).adr[value])
        return tuple(range(start, start + self.n - depth))

    def res(self, node: str) -> tuple[int, ...]:
        """``res_x`` register; the root's is an alias of ``result``."""
        if node == ROOT:
            return self.result_qubits
        return self._span("res", node)

    def mem(self, leaf: str) -> tuple[int, ...]:
        _check_label(leaf)
        if len(leaf) != self.n:
            raise InvalidParameterError(f"mem registers exist only at leaves, got node {leaf!r}")
        return self._span("mem", leaf)

    def copies(self, node: str) -> tuple[int, ...]:
        """Fan-out scratch register of a non-root node (empty without the extension)."""
        _check_label(node)
        if not self.copies_per_node:
            return ()
        if not node:
            raise InvalidParameterError("the root has no fan-out copies")
        return self._span("copy", node)

    def qubit_index(self, qid: QubitId) -> int:
        """Physical index of a :class:`QubitId` (inverse of ``qubit_at``)."""
        try:
            start, size = self._register(qid.kind, qid.node)
        except InvalidParameterError:
            raise InvalidParameterError(
                f"unknown register {qid.kind!r} at node {qid.node!r}"
            ) from None
        if not 0 <= qid.index < size:
            raise InvalidParameterError(f"offset {qid.index} out of range for {qid.kind}[{qid.node}]")
        return start + qid.index

    # -- classification ----------------------------------------------------

    @cached_property
    def levels(self) -> tuple[tuple[str, ...], ...]:
        """Node labels by level, each level in ascending order."""
        return tuple(tuple(level) for level in enumerate_nodes(self.n)[:-1]) + (self.leaves,)

    @cached_property
    def leaves(self) -> tuple[str, ...]:
        return tuple(format(v, f"0{self.n}b") for v in range(1 << self.n))

    @cached_property
    def mem_starts(self) -> np.ndarray:
        """First qubit of every leaf's ``mem`` register, in ascending leaf order."""
        return np.array(self._mem_start[:-1], dtype=np.int64)

    @property
    def data_qubits(self) -> tuple[int, ...]:
        """Address, result, and memory qubits, in physical order."""
        return tuple(range(self.n + self.m)) + tuple(range(self._mem_base, self._mem_start[-1]))

    @cached_property
    def data_mask(self) -> int:
        """The basis-key bits of :attr:`data_qubits`."""
        low = (1 << (self.n + self.m)) - 1
        return low | (((1 << (self._mem_start[-1] - self._mem_base)) - 1) << self._mem_base)

    @property
    def ancilla_qubits(self) -> tuple[int, ...]:
        return tuple(range(self.n + self.m, self._mem_base)) + tuple(
            range(self._mem_start[-1], self.total_qubits)
        )

    def counts(self) -> dict[str, int]:
        """Tally of allocated qubits by register kind (aliases not re-counted)."""
        rows = self.rows
        tally = np.bincount(rows.kind, weights=rows.size, minlength=len(REGISTER_KINDS)).astype(np.int64)
        out = {kind: int(tally[code]) for code, kind in enumerate(REGISTER_KINDS[:-1])}
        if self.copies_per_node:
            out["copy"] = int(tally[_KIND_CODE["copy"]])
        out["total"] = self.total_qubits
        return out

    # -- extension ----------------------------------------------------------

    def with_fanout_copies(self, s: int) -> "RegisterMap":
        """A new map with ``ceil(m/s)`` fan-out copies per non-root node.

        Indices of all pre-existing registers are unchanged; the copies are
        appended after the memory block.  When ``ceil(m/s) < 2`` the copies
        would be pointless and the returned map equals this one.
        """
        new = RegisterMap(self.n, self.m, self.k, fanout_block=s)
        return self if new == self else new

def allocate_registers(
    n: int,
    m: int,
    k: int | Sequence[int] | Mapping[str, int] = 0,
    *,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> RegisterMap:
    """Build the standard layout for address width ``n``, result width ``m``,
    and per-leaf memory widths ``k`` (an int applies to every leaf)."""
    return RegisterMap(n, m, k, max_qubits=max_qubits)
