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
split pipelines the hand-down diagonally across levels for an overall
``O(n + m)`` critical path.

Fan-out variant
---------------
With ``variant="fanout"``, each non-root node's life flag is spread into
``c = ceil(m/s)`` scratch copies by a CNOT chain, the ``m`` swaps are split
into blocks of ``s`` controlled by distinct copies, and the chain is
uncomputed, giving a per-level hand-down depth of ``2*ceil(m/s) + s + O(1)``
instead of ``m + O(1)``.  The default block size is ``ceil(sqrt(m))``.  When
``ceil(m/s) < 2`` the copies would add nothing and the plain hand-down is
emitted (with ``m = 1`` each level degenerates to its single Fredkin pair).

Schedule
--------
Each Down gate sits in the earliest moment after the earlier gates, in the
order above, that share a qubit with it.  That placement obeys per-node
laws, and Down is built from them.  Let ``p = 1`` when the preparation
fills moment 0 (else 0), and let node ``x`` at level ``k`` have ``z`` zeros
in its label:

- its address copies sit in moment ``p + k``, after level ``k - 1`` wrote
  the bits they read;
- its selector chain sits in moments ``r(x) .. r(x) + 3``, with
  ``r(x) = p + k + 2z``: it waits for ``life_x``, which the parent's first
  Toffoli lights for a right child and its second for a left one;
- the swaps from ``x`` to a child come in blocks of ``s`` (``s = m``
  without copies), swap ``i`` of block ``b`` at ``max(ready_b, P_b + 1) + i``.
  ``ready_b`` is one past the last use of the block's control: the child's
  life flag, last used by the second Toffoli of the child's own selector
  chain (at a leaf, by ``x``'s Toffoli that lit it), or copy ``b`` of the
  ladder that follows the flag one gate a moment.  ``P_b`` is the start of
  the block before on the same bits of ``res_x``: the block that handed
  them to ``x`` for the left child (``p - 1`` at the root), the left
  child's for the right one;
- the undo ladder is one chain, each gate after the later last use of its
  two qubits.

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


def _gates(*operands: np.ndarray) -> np.ndarray:
    """``ops`` rows of gates on the given operands (controls first), each
    broadcast to one shape, padded with -1."""
    ops = np.full((*np.broadcast(*operands).shape, 3), -1, dtype=np.int32)
    for column, q in enumerate(operands):
        ops[..., column] = q
    return ops


def _steps(count: int) -> np.ndarray:
    """``0 .. count - 1`` as int32, the dtype of the moments."""
    return np.arange(count, dtype=np.int32)


def _routing(layout: RegisterMap, k: int, p: int, r: np.ndarray):
    """Steps 1-3 for every node of level ``k``, whose selector chains start
    at moments ``r``: node by node, the address copies, then the selector
    chain.  Returns the level's kinds, ops and moments."""
    n, level, below = layout.n, layout.level(k), layout.level(k + 1)
    adr, j = level.adr[:, None], np.arange(n - k - 1)  # no copies at the last level
    # Toffoli(selector, life, life_x1), X(selector), Toffoli(selector, life, life_x0), X(selector)
    chain = _gates(np.broadcast_to(adr + (n - k - 1), (len(r), 4)))
    chain[:, ::2, 1] = level.life[:, None]
    chain[:, ::2, 2] = below.life.reshape(-1, 2)[:, ::-1]
    moment = np.full((len(r), n - k + 3), p + k, dtype=np.int32)
    moment[:, -4:] = r[:, None] + _steps(4)
    kind = np.array([CNOT] * (n - k - 1) + [TOFFOLI, X, TOFFOLI, X], dtype=np.int8)
    return kind, np.concatenate([_gates(adr + j, below.adr[1::2, None] + j), chain], axis=1), moment


def _handdown(layout: RegisterMap, k: int, s: int, r: np.ndarray, start: np.ndarray):
    """Step 4 for every node of level ``k``, whose selector chains start at
    moments ``r`` and whose payload arrived in blocks starting at ``start``.
    Each child's ``m`` Fredkins form blocks of ``s`` swaps, each block on
    its own control: the child's life flag when ``s = m``, else one
    life-flag copy per block, made by a CNOT ladder before the swaps and
    undone after them.  Returns the level's kinds, ops and moments, node by
    node, and the block starts of its children."""
    m, level, below = layout.m, layout.level(k), layout.level(k + 1)
    blocks, bit = -(-m // s), _steps(m)
    block, place = np.divmod(bit, s)
    # the moment after each child's life flag is last used: by the second
    # Toffoli of its own selector chain, or at a leaf by the parent's that lit it
    free = r[:, None, None] + np.array([[6], [4]] if k + 1 < layout.n else [[3], [1]], dtype=np.int32)
    lives = below.life.reshape(-1, 2, 1)
    controls, ready = lives, free
    if s < m:
        controls = below.copy.reshape(-1, 2, 1) + _steps(blocks)
        ladders = _gates(np.concatenate([lives, controls[..., :-1]], axis=2), controls)
        # ladder gate t sits at free + t; copy b is free once gate b + 1 has read it
        ready = free + np.minimum(_steps(blocks) + 1, blocks - 1) + 1
    first = np.maximum(ready[:, 0], start + 1)
    starts = np.stack([first, np.maximum(ready[:, 1], first + 1)], axis=1)
    swaps = _gates(controls[..., block], level.res[:, None, None] + bit, below.res.reshape(-1, 2, 1) + bit)
    kind, ops, moment = [FREDKIN] * 2 * m, [swaps], [starts[..., block] + place]
    if s < m:
        # the undo ladder is one chain; its gate on copies b - 1 and b (the
        # flag for b = 0) waits for the later last use of the two
        used = np.concatenate([free, starts + np.minimum(s, m - s * _steps(blocks)) - 1], axis=2)
        wait = np.maximum(used[..., 1:], used[..., :-1])[..., ::-1] + 1 - _steps(blocks)
        kind = [CNOT] * 2 * blocks + kind + [CNOT] * 2 * blocks
        ops = [ladders, *ops, ladders[:, :, ::-1]]
        moment = [free + _steps(blocks), *moment, np.maximum.accumulate(wait, axis=2) + _steps(blocks)]
    ops = np.concatenate([part.reshape(len(r), -1, 3) for part in ops], axis=1)
    moment = np.concatenate([part.reshape(len(r), -1) for part in moment], axis=1)
    return (np.array(kind, dtype=np.int8), ops, moment), starts.reshape(-1, blocks)


def synth_down(layout: RegisterMap, options: SynthesisOptions | None = None) -> Circuit:
    """The Down phase: route the life flag and the result payload to leaf level.

    With the fan-out variant the returned circuit lives on
    ``layout.with_fanout_copies(s)``; inspect ``circuit.layout``.
    """
    options = options or SynthesisOptions()
    s = options.resolved_block(layout.m) if options.variant == "fanout" else None
    if s:
        layout = layout.with_fanout_copies(s)
    p = int(options.include_preparation)
    prepare = np.array([X], dtype=np.int8), _gates(np.full((1, 1), layout.life(ROOT))), np.zeros((1, 1), dtype=np.int32)
    levels = [prepare] * p
    r = [np.full(1, p, dtype=np.int32)]
    for k in range(layout.n):
        levels.append(_routing(layout, k, p, r[k]))
        # the first Toffoli lights a right child's flag, the second a left child's
        r.append((r[k][:, None] + np.array([3, 1], dtype=np.int32)).ravel())
    block = (layout.fanout_block if s else None) or layout.m  # the sequential variant ignores copies
    start = np.full((1, -(-layout.m // block)), p - 1, dtype=np.int32)
    for k in range(layout.n):
        gates, start = _handdown(layout, k, block, r[k], start)
        levels.append(gates)
    kind = np.concatenate([np.tile(kind, len(ops)) for kind, ops, _ in levels])
    ops = np.concatenate([ops.reshape(-1, 3) for _, ops, _ in levels])
    moment = np.concatenate([moment.ravel() for *_, moment in levels])
    num_moments = int(moment.max()) + 1
    # numpy sorts keys of up to 16 bits by radix, several times faster
    key = moment.astype(np.uint16) if num_moments <= 1 << 16 else moment
    order = np.argsort(key, kind="stable")
    circuit = Circuit(layout, GateColumns.build(kind[order], ops.take(order, axis=0), moment[order], num_moments))
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

