"""Synthesis of the Down, Run, and Up phases of the access circuit.

Down phase
----------
After a preparation ``X`` lights the root's life flag, each tree level
``k = 0 .. n-1`` routes activity one step deeper.  For a node ``x`` at level
``k`` the selector is ``adr_x[n-k-1]``, the most significant still-unconsumed
address bit:

1. copy the remaining low bits ``adr_x[0 .. n-k-2]`` into the right child's
   fresh ``adr`` register with CNOTs (the left child's register aliases those
   same qubits, so its copy costs nothing and no gates are emitted);
2. ``Toffoli(selector, life_x, life_x1)`` — fires when the bit is 1;
3. conjugate the selector with ``X`` around ``Toffoli(selector, life_x,
   life_x0)`` — fires when the bit is 0 — and restore the selector;
4. hand the payload to whichever child is now alive:
   ``Fredkin(life_x0, res_x[i], res_x0[i])`` and
   ``Fredkin(life_x1, res_x[i], res_x1[i])`` for every ``i < m``.

Gates are emitted in two passes: the address/flag routing (steps 1-3) for all
levels first, then the payload hand-down (step 4) for all levels.  The two
orders are gate-for-gate equivalent — a hand-down swap uses life flags only
as controls, and the only qubit it can share with a deeper level's routing
gates is such a flag, used there as a control as well; gates that overlap
only on controls commute.  The split matters for depth: interleaved emission
would serialize ``m`` swaps per level on the level's life flags, whereas the
split lets the greedy scheduler pipeline the hand-down diagonally across
levels for an overall ``O(n + m)`` critical path.

Fan-out variant
---------------
With ``variant="fanout"``, each non-root node's life flag is spread into
``c = ceil(m/s)`` scratch copies by a CNOT chain, the ``m`` swaps are split
into blocks of ``s`` controlled by distinct copies, and the chain is
uncomputed, giving a per-level hand-down depth of ``2*ceil(m/s) + s + O(1)``
instead of ``m + O(1)``.  The default block size is ``ceil(sqrt(m))``.  When
``ceil(m/s) < 2`` the copies would add nothing and the plain hand-down is
emitted (with ``m = 1`` each level degenerates to its single Fredkin pair).

Run and Up
----------
Run applies, for every leaf ``z``, one opaque block controlled by ``life_z``
acting on ``res_z ++ mem_z``; all blocks commute and share no qubits, so Run
is a single moment.  Up is the exact adjoint of Down, emitted gate for gate.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidParameterError, ShapeError
from .ir import CNOT, FREDKIN, OPAQUE, TOFFOLI, X, Circuit, GateColumns, check_declared_depth, concat
from .sim import UnitarySpec
from .tree import ROOT, RegisterMap


@dataclass(frozen=True)
class SynthesisOptions:
    """Knobs shared by all synthesis entry points.

    ``variant`` selects the hand-down style (``"sequential"`` or
    ``"fanout"``); ``fanout_block`` is the block size ``s`` (default
    ``ceil(sqrt(m))``, only meaningful for the fan-out variant);
    ``include_preparation`` controls the opening ``X`` on the root's life
    flag (the Up phase then closes with its mirror image).
    """

    variant: str = "sequential"
    fanout_block: int | None = None
    include_preparation: bool = True

    def __post_init__(self) -> None:
        if self.variant not in ("sequential", "fanout"):
            raise InvalidParameterError(
                f"variant must be 'sequential' or 'fanout', got {self.variant!r}"
            )
        if self.fanout_block is not None and (
            not isinstance(self.fanout_block, int) or self.fanout_block < 1
        ):
            raise InvalidParameterError(
                f"fan-out block size must be a positive integer, got {self.fanout_block!r}"
            )

    def resolved_block(self, m: int) -> int:
        """The effective block size ``s`` for result width ``m``."""
        if self.fanout_block is None:
            s = math.isqrt(m)
            if s * s < m:
                s += 1
        else:
            s = self.fanout_block
        if not 1 <= s <= m:
            raise InvalidParameterError(
                f"fan-out block size must satisfy 1 <= s <= m, got s={s} with m={m}"
            )
        return s


class _Placer:
    """ASAP placement of gates emitted one tree level at a time.

    Each gate goes in the earliest moment after the last moment of every
    qubit it uses, and after the preparation (see :meth:`prepare`).  Every
    node of a level emits the same sequence of gate *slots*, and the nodes of
    one level touch disjoint qubits, so one slot is placed for all of a
    level's nodes at once with one update of the per-qubit frontier, and each
    gate gets the moment that placing the gates one by one would give it.  A
    group's gates are kept node by node, slot by slot (the order of placing
    them); a stable sort on the moment then gives every moment its gates in
    that order.
    """

    def __init__(self, layout: RegisterMap):
        self.frontier = np.full(layout.total_qubits, -1, dtype=np.int32)
        self.floor = 0
        self.kind: list[np.ndarray] = []
        self.ops: list[np.ndarray] = []
        self.moment: list[np.ndarray] = []

    def slot(self, kind: int, *qubits: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
        """Place one gate per entry of the operand arrays (controls first),
        which share one shape ``(nodes, per node)`` and hold disjoint qubits."""
        qubits = np.broadcast_arrays(*qubits)
        moment = np.full(qubits[0].shape, self.floor, dtype=np.int32)
        for q in qubits:
            np.maximum(moment, self.frontier[q] + 1, out=moment)
        for q in qubits:
            self.frontier[q] = moment
        pad = [np.full_like(qubits[0], -1)] * (3 - len(qubits))
        return kind, np.stack([*qubits, *pad], axis=-1), moment

    def prepare(self, qubit: int) -> None:
        """The preparation ``X`` on ``qubit``, alone in the first moment:
        every later gate goes after it."""
        self.emit([self.slot(X, _column([qubit]))])
        self.floor = 1

    def emit(self, slots: list[tuple[int, np.ndarray, np.ndarray]]) -> None:
        """Keep a group's slots, each shaped ``(nodes, per node)``, in the
        order node by node, then slot by slot."""
        self.kind.append(np.concatenate(
            [np.full(moment.shape, kind, dtype=np.int8) for kind, _, moment in slots], axis=1
        ).ravel())
        self.ops.append(np.concatenate([ops for _, ops, _ in slots], axis=1).reshape(-1, 3))
        self.moment.append(np.concatenate([moment for _, _, moment in slots], axis=1).ravel())

    def columns(self) -> GateColumns:
        moment = np.concatenate(self.moment)
        order = np.argsort(moment, kind="stable")
        return GateColumns.build(
            np.concatenate(self.kind)[order], np.concatenate(self.ops)[order], moment[order],
            int(moment.max()) + 1,
        )


def _column(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int32)[:, None]


def _routing(placer: _Placer, layout: RegisterMap, k: int) -> None:
    """Steps 1-3 for every node of level ``k``: address copies and
    life-flag Toffolis."""
    n = layout.n
    level, below = layout.level(k), layout.level(k + 1)
    value = np.arange(1 << k)
    adr = _column(level.adr)
    selector, life = adr + (n - k - 1), _column(level.life)
    left, right = value * 2, value * 2 + 1
    slots = []
    if k < n - 1:
        j = np.arange(n - k - 1)
        slots.append(placer.slot(CNOT, adr + j, _column(below.adr[right]) + j))
    slots.append(placer.slot(TOFFOLI, selector, life, _column(below.life[right])))
    slots.append(placer.slot(X, selector))
    slots.append(placer.slot(TOFFOLI, selector, life, _column(below.life[left])))
    slots.append(placer.slot(X, selector))
    placer.emit(slots)


def _handdown(placer: _Placer, layout: RegisterMap, k: int, nodes: np.ndarray, fanout: bool) -> None:
    """Step 4 for the nodes of level ``k`` with values ``nodes``: controlled
    directly on the children's life flags, or, for the fan-out variant on a
    layout with copies, on life-flag copies in swap blocks of its block
    size ``s``."""
    level, below = layout.level(k), layout.level(k + 1)
    res = _column(level.res[nodes])
    children = (nodes * 2, nodes * 2 + 1)
    lives = [_column(below.life[child]) for child in children]
    child_res = [_column(below.res[child]) for child in children]
    s, c = layout.fanout_block, layout.copies_per_node
    slots = []
    if not fanout or s is None:
        for life, res_child in zip(lives, child_res):
            slots += [placer.slot(FREDKIN, life, res + i, res_child + i) for i in range(layout.m)]
        placer.emit(slots)
        return
    copies = [_column(below.copy[child]) for child in children]
    for life, cps in zip(lives, copies):
        slots.append(placer.slot(CNOT, life, cps))
        slots += [placer.slot(CNOT, cps + t - 1, cps + t) for t in range(1, c)]
    for cps, res_child in zip(copies, child_res):
        slots += [
            placer.slot(FREDKIN, cps + i // s, res + i, res_child + i) for i in range(layout.m)
        ]
    for life, cps in zip(lives, copies):
        slots += [placer.slot(CNOT, cps + t - 1, cps + t) for t in range(c - 1, 0, -1)]
        slots.append(placer.slot(CNOT, life, cps))
    placer.emit(slots)


def synth_down(layout: RegisterMap, options: SynthesisOptions | None = None) -> Circuit:
    """The Down phase: route the life flag and the result payload to leaf level.

    With the fan-out variant the returned circuit lives on
    ``layout.with_fanout_copies(s)``; inspect ``circuit.layout``.
    """
    options = options or SynthesisOptions()
    if options.variant == "fanout":
        s = options.resolved_block(layout.m)
        layout = layout.with_fanout_copies(s)
    else:
        s = None
    placer = _Placer(layout)
    if options.include_preparation:
        placer.prepare(layout.life(ROOT))
    for k in range(layout.n):
        _routing(placer, layout, k)
    for k in range(layout.n):
        _handdown(placer, layout, k, np.arange(1 << k), s is not None)
    circuit = Circuit(layout, placer.columns())
    circuit.metadata.update(
        phase="down",
        variant=options.variant,
        fanout_block=s,
        include_preparation=options.include_preparation,
    )
    return circuit


def synth_up(layout: RegisterMap, options: SynthesisOptions | None = None) -> Circuit:
    """The Up phase: the exact gate-for-gate adjoint of :func:`synth_down`."""
    circuit = synth_down(layout, options).adjoint()
    circuit.metadata["phase"] = "up"
    return circuit


def synth_run(
    layout: RegisterMap,
    unitaries: Mapping[str, UnitarySpec] | None = None,
    *,
    declared_depths: Mapping[str, int] | int | None = None,
) -> Circuit:
    """The Run phase: one life-controlled opaque block per leaf, all in one moment.

    With ``unitaries`` given (one :class:`~qramforge.sim.UnitarySpec` per
    leaf), each block's dimension is checked against ``2**(m + k_z)`` and its
    declared depth is taken from the spec.  Without matrices — purely
    structural synthesis, e.g. for resource estimates — ``declared_depths``
    supplies the depths (an int for all leaves, or a per-leaf mapping,
    default 1).
    """
    if unitaries is not None and declared_depths is not None:
        raise InvalidParameterError("pass either unitaries or declared_depths, not both")
    if unitaries is not None:
        unknown = set(unitaries) - set(layout.leaves)
        if unknown:
            raise ConfigurationError(f"unitaries given for unknown leaves: {sorted(unknown)}")
        depths = []
        for leaf, width in zip(layout.leaves, layout.k):
            spec = unitaries.get(leaf)
            if spec is None:
                raise ConfigurationError(f"no unitary provided for leaf {leaf!r}")
            if spec.num_qubits != layout.m + width:
                raise ShapeError(
                    f"unitary for leaf {leaf!r} acts on {spec.num_qubits} qubit(s), "
                    f"but res_z ++ mem_z has {layout.m + width}",
                    leaf=leaf,
                )
            depths.append(spec.declared_depth)
    elif isinstance(declared_depths, int) or declared_depths is None:
        depths = [check_declared_depth(1 if declared_depths is None else declared_depths)]
        depths *= len(layout.k)
    else:
        depths = [check_declared_depth(declared_depths.get(leaf, 1)) for leaf in layout.leaves]
    # one block per leaf z on life_z, acting on res_z ++ mem_z
    leaves = layout.level(layout.n)
    count = len(layout.k)
    lengths = layout.m + np.array(layout.k, dtype=np.int64)
    tptr = np.concatenate([[0], np.cumsum(lengths)])
    owner = np.repeat(np.arange(count), lengths)
    offset = np.arange(tptr[-1]) - tptr[owner]
    targets = np.where(
        offset < layout.m, leaves.res[owner] + offset, layout.mem_starts[owner] + offset - layout.m
    )
    ops = np.full((count, 3), -1, dtype=np.int32)
    ops[:, 0] = leaves.life
    columns = GateColumns(
        np.full(count, OPAQUE, dtype=np.int8), ops, np.zeros(count, dtype=np.int32),
        np.zeros(count, dtype=bool), np.arange(count, dtype=np.int32), 1,
        np.array(layout.leaves, dtype=object), np.array(depths, dtype=np.int64), tptr,
        targets.astype(np.int32),
    )
    circuit = Circuit(layout, columns)
    circuit.metadata["phase"] = "run"
    return circuit


def synth_access(
    layout: RegisterMap,
    unitaries: Mapping[str, UnitarySpec] | None = None,
    options: SynthesisOptions | None = None,
    *,
    declared_depths: Mapping[str, int] | int | None = None,
) -> Circuit:
    """The full access circuit ``Down ; Run ; Up`` as one moment-concatenation."""
    options = options or SynthesisOptions()
    down = synth_down(layout, options)
    run = synth_run(down.layout, unitaries, declared_depths=declared_depths)
    up = down.adjoint()
    up.metadata["phase"] = "up"
    circuit = concat(down, run, up)
    circuit.metadata.update(down.metadata, phase="access")
    return circuit

