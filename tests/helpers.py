"""Shared test utilities: a reference synthesizer, two reference simulators
and a QASM grammar.

The dense simulator is deliberately written from scratch against the
documented conventions (little-endian keys, targets-then-controls semantics)
without touching the package's sparse engine, so that agreement between the
two is evidence rather than tautology.  The sparse simulator is the
package's earlier per-gate dictionary loop; it scales to layouts far too wide
for a dense vector and pins the exact term order and amplitudes the batched
engine must reproduce.  The reference synthesizer is the package's earlier
per-node gate generators with a gate-by-gate ASAP scheduler; the package now
places a whole tree level at once.  The reference emitter is the package's
earlier JSON emitter, which built the whole document as dicts and lists and
encoded it with ``json.dumps(indent=2)``; the package now writes the gate and
matrix sections from templates.
"""

from __future__ import annotations

import json
from collections.abc import Mapping

import numpy as np
import pyparsing as pp

from qramforge import Circuit, Gate, GateKind, RegisterMap, SparseState, SynthesisOptions
from qramforge.formats import (
    _KIND_NAMES,
    _PARAMETER_KEYS,
    FORMAT_VERSION,
    _metrics,
    _register_table,
)
from qramforge.ir import GateColumns
from qramforge.sim import PRUNE_TOL, UnitarySpec
from qramforge.tree import ROOT


# ---------------------------------------------------------------------------
# reference synthesizer: per-node generators, one gate at a time
# ---------------------------------------------------------------------------


def routing_level(layout: RegisterMap, k: int):
    """Steps 1-3 of the Down phase for level ``k``: address copies and
    life-flag Toffolis."""
    n = layout.n
    for x in layout.levels[k]:
        adr_x = layout.adr(x)
        selector = adr_x[n - k - 1]
        if k < n - 1:
            adr_right = layout.adr(x + "1")
            for j in range(n - k - 1):
                yield Gate.cnot(adr_x[j], adr_right[j])
        yield Gate.toffoli(selector, layout.life(x), layout.life(x + "1"))
        yield Gate.x(selector)
        yield Gate.toffoli(selector, layout.life(x), layout.life(x + "0"))
        yield Gate.x(selector)


def handdown_sequential(layout: RegisterMap, nodes):
    """Step 4 for one level, controlled directly on the children's life flags."""
    for x in nodes:
        res_x = layout.res(x)
        for side in "01":
            child = x + side
            life_child = layout.life(child)
            res_child = layout.res(child)
            for i in range(layout.m):
                yield Gate.fredkin(life_child, res_x[i], res_child[i])


def handdown_fanout(layout: RegisterMap, nodes, s: int):
    """Step 4 for one level with life-flag copies and swap blocks of size ``s``."""
    m = layout.m
    c = layout.copies_per_node
    if c < 2:
        yield from handdown_sequential(layout, nodes)
        return
    for x in nodes:
        res_x = layout.res(x)
        children = (x + "0", x + "1")
        for child in children:
            cps = layout.copies(child)
            yield Gate.cnot(layout.life(child), cps[0])
            for t in range(1, c):
                yield Gate.cnot(cps[t - 1], cps[t])
        for child in children:
            cps = layout.copies(child)
            res_child = layout.res(child)
            for i in range(m):
                yield Gate.fredkin(cps[i // s], res_x[i], res_child[i])
        for child in children:
            cps = layout.copies(child)
            for t in range(c - 1, 0, -1):
                yield Gate.cnot(cps[t - 1], cps[t])
            yield Gate.cnot(layout.life(child), cps[0])


class ReferenceSchedule:
    """Gate-by-gate ASAP placement into plain moment lists: each gate goes to
    the earliest moment after the last use of any of its qubits, and no
    earlier than the floor that :meth:`barrier` raises."""

    def __init__(self):
        self.moments: list[list[Gate]] = []
        self.frontier: dict[int, int] = {}
        self.floor = 0

    def extend(self, gates):
        for gate in gates:
            index = max([self.floor] + [self.frontier.get(q, -1) + 1 for q in gate.qubits])
            while len(self.moments) <= index:
                self.moments.append([])
            self.moments[index].append(gate)
            for q in gate.qubits:
                self.frontier[q] = index
        return self

    def barrier(self):
        self.floor = len(self.moments)
        return self


def reference_down(layout: RegisterMap, options: SynthesisOptions | None = None):
    """``(layout, schedule)`` of the Down phase, synthesized gate by gate."""
    options = options or SynthesisOptions()
    s = None
    if options.variant == "fanout":
        s = options.resolved_block(layout.m)
        layout = layout.with_fanout_copies(s)
    schedule = ReferenceSchedule()
    if options.include_preparation:
        schedule.extend([Gate.x(layout.life(ROOT))]).barrier()
    for k in range(layout.n):
        schedule.extend(routing_level(layout, k))
    for k in range(layout.n):
        nodes = layout.levels[k]
        schedule.extend(handdown_sequential(layout, nodes) if s is None
                        else handdown_fanout(layout, nodes, s))
    return layout, schedule


def reference_run(layout: RegisterMap, declared_depths=None):
    """The Run phase's single moment, one opaque block per leaf."""
    gates = []
    for leaf in layout.leaves:
        if isinstance(declared_depths, int):
            depth = declared_depths
        elif declared_depths is not None:
            depth = declared_depths.get(leaf, 1)
        else:
            depth = 1
        gates.append(Gate.controlled_opaque(
            layout.life(leaf), layout.res(leaf) + layout.mem(leaf), leaf, declared_depth=depth
        ))
    return [gates]


def reference_fanout_handdown(layout: RegisterMap, nodes, s: int):
    layout = layout.with_fanout_copies(s)
    return layout, ReferenceSchedule().extend(handdown_fanout(layout, nodes, s)).moments


# ---------------------------------------------------------------------------
# dense reference simulator
# ---------------------------------------------------------------------------


def dense_from_sparse(state: SparseState) -> np.ndarray:
    vec = np.zeros(1 << state.num_qubits, dtype=complex)
    for key, amp in state.amps.items():
        vec[key] = amp
    return vec


def dense_apply_gate(vec: np.ndarray, gate: Gate, num_qubits: int, unitaries=None) -> np.ndarray:
    """Apply one gate to a dense vector by explicit index arithmetic."""
    out = np.zeros_like(vec)
    if gate.kind is GateKind.OPAQUE:
        spec = unitaries[gate.leaf]
        matrix = spec.matrix.conj().T if gate.dagger else spec.matrix
        control = 1 << gate.controls[0]
        targets = gate.targets
        dim = 1 << len(targets)
        for index in np.flatnonzero(vec).tolist():  # zero amplitudes contribute nothing
            amp = vec[index]
            if not index & control:
                out[index] += amp
                continue
            col = 0
            base = index
            for j, q in enumerate(targets):
                if (index >> q) & 1:
                    col |= 1 << j
                    base &= ~(1 << q)
            for row in range(dim):
                scattered = base
                for j, q in enumerate(targets):
                    if (row >> j) & 1:
                        scattered |= 1 << q
                out[scattered] += matrix[row, col] * amp
        return out
    for index in np.flatnonzero(vec).tolist():
        amp = vec[index]
        new_index = index
        if gate.kind is GateKind.X:
            new_index = index ^ (1 << gate.targets[0])
        elif gate.kind is GateKind.CNOT:
            if (index >> gate.controls[0]) & 1:
                new_index = index ^ (1 << gate.targets[0])
        elif gate.kind is GateKind.TOFFOLI:
            if (index >> gate.controls[0]) & 1 and (index >> gate.controls[1]) & 1:
                new_index = index ^ (1 << gate.targets[0])
        elif gate.kind is GateKind.FREDKIN:
            if (index >> gate.controls[0]) & 1:
                a, b = gate.targets
                if ((index >> a) ^ (index >> b)) & 1:
                    new_index = index ^ (1 << a) ^ (1 << b)
        out[new_index] += amp
    return out


def dense_run_circuit(vec: np.ndarray, circuit: Circuit, unitaries=None) -> np.ndarray:
    for moment in circuit.moments:
        for gate in moment:
            vec = dense_apply_gate(vec, gate, circuit.layout.total_qubits, unitaries)
    return vec


# ---------------------------------------------------------------------------
# sparse reference simulator: the package's former per-gate dictionary loop
# ---------------------------------------------------------------------------


def _sparse_apply_opaque(amps: dict, gate: Gate, unitaries) -> dict:
    spec = unitaries[gate.leaf]
    matrix = spec.matrix.conj().T if gate.dagger else spec.matrix
    dim = spec.dim
    control = 1 << gate.controls[0]
    targets = gate.targets
    new_amps: dict[int, complex] = {}
    groups: dict[int, np.ndarray] = {}
    for key, amp in amps.items():
        if not key & control:
            new_amps[key] = amp
            continue
        index = 0
        rest = key
        for j, q in enumerate(targets):
            if (key >> q) & 1:
                index |= 1 << j
                rest &= ~(1 << q)
        groups.setdefault(rest, np.zeros(dim, dtype=complex))[index] = amp
    for rest, vec in groups.items():
        out = matrix @ vec
        for index in range(dim):
            amp = out[index]
            if abs(amp) > PRUNE_TOL:
                scattered = rest
                for j, q in enumerate(targets):
                    if (index >> j) & 1:
                        scattered |= 1 << q
                new_amps[scattered] = complex(amp)
    return new_amps


def sparse_apply_gate(state: SparseState, gate: Gate, unitaries=None) -> SparseState:
    """Apply one gate with a dictionary rebuild, keeping the insertion order
    the package's simulator has always produced: routing gates keep the term
    order, and an opaque block puts its untouched terms first, then each
    (non-target bits) group in order of first appearance, by target index."""
    amps = state.amps
    kind = gate.kind
    if kind is GateKind.OPAQUE:
        new_amps = _sparse_apply_opaque(amps, gate, unitaries)
    elif kind is GateKind.X:
        target = 1 << gate.targets[0]
        new_amps = {key ^ target: amp for key, amp in amps.items()}
    elif kind is GateKind.CNOT:
        control, target = 1 << gate.controls[0], 1 << gate.targets[0]
        new_amps = {key ^ target if key & control else key: amp for key, amp in amps.items()}
    elif kind is GateKind.TOFFOLI:
        control_a, control_b = 1 << gate.controls[0], 1 << gate.controls[1]
        target = 1 << gate.targets[0]
        new_amps = {
            key ^ target if key & control_a and key & control_b else key: amp
            for key, amp in amps.items()
        }
    else:
        control = 1 << gate.controls[0]
        qubit_a, qubit_b = gate.targets
        mask = (1 << qubit_a) | (1 << qubit_b)
        new_amps = {}
        for key, amp in amps.items():
            if key & control and ((key >> qubit_a) ^ (key >> qubit_b)) & 1:
                key ^= mask
            new_amps[key] = amp
    out = SparseState(state.num_qubits)
    out.amps = new_amps
    return out


def sparse_run_circuit(state: SparseState, circuit: Circuit, unitaries=None) -> SparseState:
    for moment in circuit.moments:
        for gate in moment:
            state = sparse_apply_gate(state, gate, unitaries)
    return state


# ---------------------------------------------------------------------------
# reference JSON emitter: the whole document as dicts, then json.dumps
# ---------------------------------------------------------------------------


def _moment_records(columns: GateColumns) -> list[list[dict]]:
    moments: list[list[dict]] = [[] for _ in range(columns.num_moments)]
    for moment, code, controls, targets, opaque in columns.records():
        record = {"kind": _KIND_NAMES[code], "controls": controls, "targets": targets}
        if opaque is not None:
            record["leaf"], record["dagger"], record["declared_depth"] = opaque
        moments[moment].append(record)
    return moments


def _matrix_record(spec: UnitarySpec) -> dict:
    return {
        "declared_depth": spec.declared_depth,
        "matrix": [[[float(v.real), float(v.imag)] for v in row] for row in spec.matrix],
    }


def reference_emit_json(circuit: Circuit, unitaries: Mapping[str, UnitarySpec] | None = None) -> str:
    """Serialize a circuit (and optionally its payload matrices) to JSON."""
    layout = circuit.layout
    parameters: dict = {
        "n": layout.n,
        "m": layout.m,
        "k": list(layout.k),
        "fanout_block": layout.fanout_block,
    }
    for key in _PARAMETER_KEYS:
        if key in circuit.metadata:
            parameters[key] = circuit.metadata[key]
    document = {
        "format": FORMAT_VERSION,
        "parameters": parameters,
        "registers": _register_table(layout),
        "metrics": _metrics(circuit),
        "moments": _moment_records(circuit.columns),
    }
    if unitaries is not None:
        document["matrices"] = {
            leaf: _matrix_record(unitaries[leaf]) for leaf in sorted(unitaries)
        }
    return json.dumps(document, indent=2)


# ---------------------------------------------------------------------------
# OpenQASM 2.0 grammar (external check, built on pyparsing)
# ---------------------------------------------------------------------------


def _build_qasm2_grammar() -> pp.ParserElement:
    SEMI = pp.Suppress(";")
    LB, RB = pp.Suppress("{"), pp.Suppress("}")
    LP, RP = pp.Suppress("("), pp.Suppress(")")
    LBK, RBK = pp.Suppress("["), pp.Suppress("]")

    identifier = pp.Regex(r"[a-z][A-Za-z0-9_]*")
    real = pp.Regex(r"([0-9]+\.[0-9]*|[0-9]*\.[0-9]+)([eE][-+]?[0-9]+)?")
    nninteger = pp.Regex(r"[0-9]+")

    expr = pp.Forward()
    atom = (
        real
        | nninteger
        | pp.Keyword("pi")
        | identifier
        | pp.Group(LP + expr + RP)
        | pp.Group(
            pp.one_of("sin cos tan exp ln sqrt") + LP + expr + RP
        )
    )
    expr <<= pp.infix_notation(
        atom,
        [
            (pp.one_of("- +"), 1, pp.opAssoc.RIGHT),
            (pp.one_of("^"), 2, pp.opAssoc.RIGHT),
            (pp.one_of("* /"), 2, pp.opAssoc.LEFT),
            (pp.one_of("+ -"), 2, pp.opAssoc.LEFT),
        ],
    )
    explist = pp.DelimitedList(expr)

    argument = identifier + pp.Opt(LBK + nninteger + RBK)
    idlist = pp.DelimitedList(identifier)
    mixedlist = pp.DelimitedList(argument)

    header = pp.Keyword("OPENQASM") + real + SEMI
    include = pp.Keyword("include") + pp.QuotedString('"') + SEMI
    decl = (pp.Keyword("qreg") | pp.Keyword("creg")) + identifier + LBK + nninteger + RBK + SEMI

    uop = pp.Forward()
    uop <<= (
        (pp.Keyword("U") + LP + explist + RP + argument + SEMI)
        | (pp.Keyword("CX") + argument + pp.Suppress(",") + argument + SEMI)
        | (identifier + pp.Opt(LP + pp.Opt(explist) + RP) + mixedlist + SEMI)
    )
    gop = uop | (pp.Keyword("barrier") + idlist + SEMI)
    gatedecl = (
        pp.Keyword("gate") + identifier + pp.Opt(LP + pp.Opt(idlist) + RP) + idlist
        + LB + pp.ZeroOrMore(gop) + RB
    )
    opaque = (
        pp.Keyword("opaque") + identifier + pp.Opt(LP + pp.Opt(idlist) + RP) + idlist + SEMI
    )
    measure = (
        pp.Keyword("measure") + argument + pp.Suppress("->") + argument + SEMI
    )
    reset = pp.Keyword("reset") + argument + SEMI
    qop = uop | measure | reset
    ifstmt = (
        pp.Keyword("if") + LP + identifier + pp.Suppress("==") + nninteger + RP + qop
    )
    barrier = pp.Keyword("barrier") + mixedlist + SEMI
    statement = decl | gatedecl | opaque | qop | ifstmt | barrier | include

    program = header + pp.OneOrMore(statement)
    program.ignore(pp.dblSlashComment)
    return program


_QASM2 = _build_qasm2_grammar()


def assert_valid_qasm2(text: str) -> None:
    """Raise pyparsing's ParseException if ``text`` is not OpenQASM 2.0."""
    _QASM2.parse_string(text, parse_all=True)
