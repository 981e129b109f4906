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

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property

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
    if not isinstance(n, int) or n < 1:
        raise InvalidParameterError(f"address width must be a positive integer, got {n!r}")
    if n > MAX_ADDRESS_WIDTH:
        raise InvalidParameterError(
            f"address width {n} exceeds the supported maximum {MAX_ADDRESS_WIDTH}"
        )
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


class RegisterMap:
    """Deterministic assignment of every register qubit to a physical index.

    Instances are immutable in practice: all mutation happens in
    ``__init__``, and the fan-out extension returns a new map.
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
        if total > max_qubits:
            raise ResourceLimitError(
                f"layout for n={n}, m={m} needs {total} qubits, "
                f"exceeding the budget of {max_qubits}",
                requested=total,
                limit=max_qubits,
            )
        self.total_qubits = total
        self.levels = tuple(tuple(level) for level in enumerate_nodes(n))

        qubit_at: list[QubitId] = []
        start: dict[tuple[str, str], int] = {}

        def alloc(kind: str, node: str, size: int) -> None:
            start[(kind, node)] = len(qubit_at)
            qubit_at.extend(QubitId(kind, node, i) for i in range(size))

        alloc("address", ROOT, n)
        alloc("result", ROOT, m)
        for depth, level in enumerate(self.levels):
            for node in level:
                alloc("life", node, 1)
                if depth and depth < n and node[-1] == "1":
                    alloc("adr", node, n - depth)
                if depth:
                    alloc("res", node, m)
        for leaf in self.levels[n]:
            alloc("mem", leaf, self.k[int(leaf, 2)])
        if copies:
            for level in self.levels[1:]:
                for node in level:
                    alloc("copy", node, copies)

        assert len(qubit_at) == total
        self.qubit_at = tuple(qubit_at)
        self._start = start
        self._adr_cache: dict[str, tuple[int, ...]] = {}

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

    # -- register lookups (physical indices) ------------------------------

    def _span(self, kind: str, node: str, size: int) -> tuple[int, ...]:
        try:
            base = self._start[(kind, node)]
        except KeyError:
            raise InvalidParameterError(f"no {kind} register at node {node!r}") from None
        return tuple(range(base, base + size))

    @property
    def address_qubits(self) -> tuple[int, ...]:
        return self._span("address", ROOT, self.n)

    @property
    def result_qubits(self) -> tuple[int, ...]:
        return self._span("result", ROOT, self.m)

    def life(self, node: str) -> int:
        _check_label(node)
        return self._span("life", node, 1)[0]

    def adr(self, node: str) -> tuple[int, ...]:
        """Logical ``adr_x`` register; resolves aliases to physical indices.

        ``adr("")`` is the address register itself; left children alias the
        low bits of their parent; leaves hold no address copy (empty tuple).
        """
        _check_label(node)
        if len(node) > self.n:
            raise InvalidParameterError(f"node {node!r} is deeper than the tree (n={self.n})")
        cached = self._adr_cache.get(node)
        if cached is not None:
            return cached
        if node == ROOT:
            span = self.address_qubits
        elif len(node) == self.n:
            span = ()
        elif node[-1] == "1":
            span = self._span("adr", node, self.n - len(node))
        else:
            span = self.adr(node[:-1])[: self.n - len(node)]
        self._adr_cache[node] = span
        return span

    def res(self, node: str) -> tuple[int, ...]:
        """``res_x`` register; the root's is an alias of ``result``."""
        _check_label(node)
        if node == ROOT:
            return self.result_qubits
        return self._span("res", node, self.m)

    def mem(self, leaf: str) -> tuple[int, ...]:
        _check_label(leaf)
        if len(leaf) != self.n:
            raise InvalidParameterError(f"mem registers exist only at leaves, got node {leaf!r}")
        return self._span("mem", leaf, self.k[int(leaf, 2)])

    def copies(self, node: str) -> tuple[int, ...]:
        """Fan-out scratch register of a non-root node (empty without the extension)."""
        _check_label(node)
        if not self.copies_per_node:
            return ()
        if not node:
            raise InvalidParameterError("the root has no fan-out copies")
        return self._span("copy", node, self.copies_per_node)

    def qubit_index(self, qid: QubitId) -> int:
        """Physical index of a :class:`QubitId` (inverse of ``qubit_at``)."""
        base = self._start.get((qid.kind, qid.node))
        if base is None:
            raise InvalidParameterError(f"unknown register {qid.kind!r} at node {qid.node!r}")
        index = base + qid.index
        if qid.index < 0 or index >= len(self.qubit_at) or self.qubit_at[index] != qid:
            raise InvalidParameterError(f"offset {qid.index} out of range for {qid.kind}[{qid.node}]")
        return index

    # -- classification ----------------------------------------------------

    @property
    def leaves(self) -> tuple[str, ...]:
        return self.levels[self.n]

    @cached_property
    def mem_spans(self) -> tuple[tuple[int, ...], ...]:
        """Every leaf's ``mem`` register, in ascending leaf order."""
        return tuple(self._span("mem", leaf, width) for leaf, width in zip(self.leaves, self.k))

    @property
    def data_qubits(self) -> tuple[int, ...]:
        """Address, result, and memory qubits, in physical order."""
        spans = [self.address_qubits, self.result_qubits, *self.mem_spans]
        return tuple(q for span in spans for q in span)

    @cached_property
    def data_mask(self) -> int:
        """The basis-key bits of :attr:`data_qubits`."""
        return sum(1 << q for q in self.data_qubits)

    @property
    def ancilla_qubits(self) -> tuple[int, ...]:
        data = set(self.data_qubits)
        return tuple(q for q in range(self.total_qubits) if q not in data)

    def counts(self) -> dict[str, int]:
        """Tally of allocated qubits by register kind (aliases not re-counted)."""
        out = {"address": self.n, "result": self.m, "life": 0, "adr": 0, "res": 0, "mem": 0}
        if self.copies_per_node:
            out["copy"] = 0
        for qid in self.qubit_at[self.n + self.m :]:
            out[qid.kind] += 1
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
