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

Placement
---------
Down is placed as soon as possible, in the order above, node by node, one
*chain* at a time: a run of gates in which each gate shares a qubit with the
one before it, such as the selector's Toffoli/X/Toffoli/X run, each block of
a child's swaps on one control, or a copy ladder.  One call places a chain
for every node of a level, so a Down phase makes a fixed number of
placement calls per level whatever ``m`` is (the rule is in :class:`_Placer`).

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

from .errors import ConfigurationError, InvalidParameterError, ShapeError, check_int
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
        if self.fanout_block is not None:
            check_int(self.fanout_block, "fan-out block sizes", 1)

    def resolved_block(self, m: int) -> int:
        """The effective block size ``s`` for result width ``m``."""
        if self.fanout_block is None:
            s = math.isqrt(m)
            if s * s < m:
                s += 1
        else:
            s = self.fanout_block
        return check_int(s, "fan-out block sizes", 1, m + 1)


class _Placer:
    """ASAP placement of gates emitted one tree level at a time, a chain at
    a time.

    Each gate goes in the earliest moment after the last moment of every
    qubit it uses, and after the preparation (see :meth:`prepare`).  Gates
    are placed in *chains*: runs in which each gate shares a qubit with the
    gate before it.  Let ``f[i]`` be one past the latest frontier over gate
    ``i``'s own qubits, read before the chain is placed.  Any of those
    qubits that an earlier gate of the chain used was last used no later
    than gate ``i - 1``, so gate ``i`` goes in moment
    ``max(moment[i - 1] + 1, f[i])``, which for a whole chain is
    ``maximum.accumulate(f - i) + i``.  Every node of a level places the
    same chains, and the nodes of one level touch disjoint qubits, so one
    call places a chain for all of a level's nodes at once, and each gate
    gets the moment that placing the gates one by one would give it.

    A level's gates are kept node by node, then in the order of placing
    (see :meth:`close`); a stable sort on the moment then gives every moment
    its gates in that order.
    """

    def __init__(self, layout: RegisterMap):
        # the spare last entry is what the -1 padding of ``ops`` reads; no gate writes it
        self.frontier = np.full(layout.total_qubits + 1, -1, dtype=np.int32)
        self.open: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.kind: list[np.ndarray] = []
        self.ops: list[np.ndarray] = []
        self.moment: list[np.ndarray] = []

    def chains(self, kind: int | tuple[int, ...], ops: np.ndarray, count: int | None = None) -> None:
        """Place the chains ``ops``, shaped ``(nodes, chains, length, 3)``:
        each gate's qubits, controls first, padded with -1.  The chains of
        one call touch disjoint qubits, and each node's chains repeat a
        qubit wherever node 0's do.  ``kind`` is the kind code of the gates,
        or of each place in a chain.  A node keeps its first ``count`` gates
        (default all), chain by chain; the gates past them must be all -1,
        and they move no frontier."""
        nodes, _, length, _ = ops.shape
        step = np.arange(length, dtype=np.int32)
        seen = self.frontier.take(ops)
        f = np.maximum(seen[..., 0], seen[..., 1])
        np.maximum(f, seen[..., 2], out=f)
        f -= step - 1
        moment = np.maximum.accumulate(f, axis=2) + step
        kind = np.full(moment.shape[1:], kind, dtype=np.int8).ravel()
        moment, ops = moment.reshape(nodes, -1), ops.reshape(nodes, -1, 3)
        # numpy does not say which of repeated fancy-index writes wins, so
        # only the last use of each qubit, in node 0's placing order, is written
        flat = ops[0].ravel()
        order = np.argsort(flat, kind="stable")
        ranked = flat[order]
        last = order[(ranked >= 0) & np.append(ranked[1:] != ranked[:-1], True)]
        self.frontier[ops.reshape(nodes, -1)[:, last].astype(np.intp)] = moment[:, last // 3]
        self.open.append((kind[:count], ops[:, :count], moment[:, :count]))

    def close(self) -> None:
        """Keep the gates placed since the last close, node by node, then in
        the order of placing."""
        kind, ops, moment = zip(*self.open)
        self.kind.append(np.tile(np.concatenate(kind), len(ops[0])))
        self.ops.append(np.concatenate(ops, axis=1).reshape(-1, 3))
        self.moment.append(np.concatenate(moment, axis=1).ravel())
        self.open = []

    def prepare(self, qubit: int) -> None:
        """The preparation ``X`` on ``qubit``, alone in the first moment:
        every later gate goes after it, as if it used every qubit."""
        self.chains(X, _gates(np.full((1, 1, 1), qubit)))
        self.close()
        np.maximum(self.frontier, 0, out=self.frontier)

    def columns(self) -> GateColumns:
        moment = np.concatenate(self.moment)
        num_moments = int(moment.max()) + 1
        # numpy sorts keys of up to 16 bits by radix, several times faster
        key = moment.astype(np.uint16) if num_moments <= 1 << 16 else moment
        order = np.argsort(key, kind="stable")
        return GateColumns.build(
            np.concatenate(self.kind)[order], np.concatenate(self.ops).take(order, axis=0), moment[order], num_moments,
        )


def _gates(*operands: np.ndarray) -> np.ndarray:
    """``ops`` rows of gates on the given operands (controls first), each
    broadcast to one shape ``(nodes, chains, length)``, padded with -1."""
    ops = np.full((*np.broadcast(*operands).shape, 3), -1, dtype=np.int32)
    for column, q in enumerate(operands):
        ops[..., column] = q
    return ops


def _routing(placer: _Placer, layout: RegisterMap, k: int) -> None:
    """Steps 1-3 for every node of level ``k``: the address copies, each a
    chain of one CNOT, then the chain of life-flag Toffolis on the selector."""
    n = layout.n
    level, below = layout.level(k), layout.level(k + 1)
    adr, life = level.adr[:, None, None], level.life[:, None, None]
    if k < n - 1:
        j = np.arange(n - k - 1)[:, None]
        placer.chains(CNOT, _gates(adr + j, below.adr[1::2, None, None] + j))
    # Toffoli(selector, life, life_x1), X(selector), Toffoli(selector, life, life_x0), X(selector)
    chain = _gates(np.broadcast_to(adr + (n - k - 1), (len(life), 1, 4)))
    chain[:, :, ::2, 1] = life
    chain[:, 0, ::2, 2] = below.life.reshape(-1, 2)[:, ::-1]
    placer.chains((TOFFOLI, X, TOFFOLI, X), chain)
    placer.close()


def _handdown(placer: _Placer, layout: RegisterMap, k: int, fanout: bool) -> None:
    """Step 4 for every node of level ``k``.  Each child's ``m`` Fredkins
    form blocks of ``s`` swaps, each block a chain on its own control: one
    block on the child's life flag, or, for the fan-out variant on a layout
    with copies, one block per life-flag copy, the copies made by a CNOT
    ladder before the swaps and undone after them."""
    m, level, below = layout.m, layout.level(k), layout.level(k + 1)
    s = layout.fanout_block if fanout and layout.fanout_block else m
    index = np.arange(-(-m // s) * s).reshape(-1, s)  # the payload bit of each place of each block
    res, lives = level.res[:, None, None], below.life.reshape(-1, 2, 1)
    controls = lives
    if s < m:
        controls = below.copy.reshape(-1, 2, 1) + np.arange(layout.copies_per_node)
        ladders = _gates(np.concatenate([lives, controls[:, :, :-1]], axis=2), controls)
        placer.chains(CNOT, ladders)
    for child in (0, 1):
        swaps = _gates(controls[:, child, :, None], res + index, below.res[child::2, None, None] + index)
        swaps[:, index >= m] = -1  # the padding of a short last block
        placer.chains(FREDKIN, swaps, m)
    if s < m:
        placer.chains(CNOT, ladders[:, :, ::-1])
    placer.close()


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
        _handdown(placer, layout, k, s is not None)
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
    for what, given in (("unitaries", unitaries), ("declared depths", declared_depths)):
        unknown = set(given) - set(layout.leaves) if isinstance(given, Mapping) else ()
        if unknown:
            raise ConfigurationError(f"{what} given for unknown leaves: {sorted(unknown, key=repr)}")
    if unitaries is not None:
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
    elif not isinstance(declared_depths, Mapping):
        depths = np.full(len(layout.k), check_declared_depth(1 if declared_depths is None else declared_depths))
    else:
        depths = [check_declared_depth(declared_depths.get(leaf, 1)) for leaf in layout.leaves]
    # one block per leaf z on life_z, acting on res_z ++ mem_z: three runs of
    # consecutive qubits per leaf (mem registers lie back to back in leaf order)
    leaves, mem, k = layout.level(layout.n), layout.mem_starts, layout.mem_widths
    runs = np.column_stack([np.ones_like(k), np.full_like(k, layout.m), k]).ravel()
    start = np.column_stack([leaves.life, leaves.res, mem]).ravel() - (np.cumsum(runs) - runs)
    columns = GateColumns.of_flat(
        np.full(len(k), OPAQUE, dtype=np.int8), np.zeros(len(k), dtype=np.int32), 1 + layout.m + k,
        np.arange(runs.sum()) + np.repeat(start, runs), 1, np.zeros(len(k), dtype=bool), layout.leaves, depths,
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

