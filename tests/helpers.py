"""Shared test utilities: two reference simulators and a QASM grammar.

The dense simulator is deliberately written from scratch against the
documented conventions (little-endian keys, targets-then-controls semantics)
without touching the package's sparse engine, so that agreement between the
two is evidence rather than tautology.  The sparse simulator is the
package's earlier per-gate dictionary loop; it scales to layouts far too wide
for a dense vector and pins the exact term order and amplitudes the batched
engine must reproduce.
"""

from __future__ import annotations

import numpy as np
import pyparsing as pp

from qramforge import Circuit, Gate, GateKind, SparseState
from qramforge.sim import PRUNE_TOL


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
        for index in range(1 << num_qubits):
            amp = vec[index]
            if amp == 0:
                continue
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
    for index in range(1 << num_qubits):
        amp = vec[index]
        if amp == 0:
            continue
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
