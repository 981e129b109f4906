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
matrix sections from templates.  The reference checkers are the package's
earlier case-by-case verifier: scalar seeded draws, one sparse state per
case, and a judge over data-state dictionaries; the package now generates,
packs and judges the cases of a batch as columns.  The reference payload
builder is the package's earlier per-leaf QR loop; the package now factors
the leaves of one dimension in stacked chunks.  The reference basis key is
the package's earlier bit-by-bit scatter of register values; the package
now shifts each value to its register's first qubit, and packs a case's
memory block in one array pass.
"""

from __future__ import annotations

import json
from collections.abc import Mapping

import numpy as np
import pyparsing as pp

from qramforge import (
    CaseResult,
    Circuit,
    Gate,
    GateKind,
    RegisterMap,
    SparseState,
    SynthesisOptions,
    VerificationReport,
    basis_state,
    extract_data_state,
    label_of,
    oracle_effect,
    oracle_superposition,
    run_batch,
    superpose,
    synth_access,
)
from qramforge.formats import (
    _PARAMETER_KEYS,
    FORMAT_VERSION,
    _metrics,
    _register_table,
)
from qramforge.ir import GateColumns
from qramforge.sim import PRUNE_TOL, UnitarySpec
from qramforge.tree import ROOT
from qramforge.verifier import FIDELITY_TOL, RESIDUAL_TOL, _normalize_mem


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
    for moment, gate in zip(columns.moment.tolist(), columns.gates()):
        record = {"kind": gate.kind.value, "controls": list(gate.controls), "targets": list(gate.targets)}
        if gate.kind is GateKind.OPAQUE:
            record["leaf"], record["dagger"], record["declared_depth"] = gate.leaf, gate.dagger, gate.declared_depth
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
# reference payload builder: one QR per leaf
# ---------------------------------------------------------------------------


def reference_random_payloads(n: int, m: int, k_values, seed: int) -> list[np.ndarray]:
    """Leaf ``z``'s Haar-random payload: QR of a complex Gaussian drawn from
    ``default_rng([seed, z])``, with the phase gauge fixed."""
    matrices = []
    for z_value in range(1 << n):
        dim = 1 << (m + k_values[z_value])
        rng = np.random.default_rng([seed, z_value])
        sample = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, r = np.linalg.qr(sample)
        phases = np.diagonal(r) / np.abs(np.diagonal(r))
        matrices.append(q * phases)
    return matrices


# ---------------------------------------------------------------------------
# reference register packing: bit by bit, and per leaf
# ---------------------------------------------------------------------------


def scatter(value: int, span) -> int:
    """Spread the bits of ``value`` over the physical indices in ``span``."""
    key = 0
    for j, q in enumerate(span):
        if (value >> j) & 1:
            key |= 1 << q
    return key


def reference_basis_key(layout: RegisterMap, address, result, mem=None) -> int:
    """The basis key of :func:`~qramforge.sim.basis_state` for valid
    arguments, scattered bit by bit over each register's qubits."""
    def value(v) -> int:
        return int(v, 2) if isinstance(v, str) and v else int(v or 0)

    key = scatter(value(address), layout.address_qubits) | scatter(value(result), layout.result_qubits)
    items = mem.items() if isinstance(mem, Mapping) else zip(layout.leaves, mem or ())
    for leaf, v in items:
        key |= scatter(value(v), layout.mem(leaf))
    return key


def reference_memory_words(keys, table: np.ndarray) -> list[list[int]]:
    """Each row of a memory table as the words of its memory block, per
    leaf: every leaf's value shifted to its offset in one Python int."""
    words = []
    for row in table.tolist():
        block = sum(value << int(keys.offset[z]) for z, value in zip(keys.leaves.tolist(), row))
        words.append([(block >> 64 * j) & ((1 << 64) - 1) for j in range(keys.mem_words)])
    return words


# ---------------------------------------------------------------------------
# reference checkers: one sparse state per case, judged as dictionaries
# ---------------------------------------------------------------------------


def reference_case_label(instance, address: int, result: int, mem: tuple[int, ...]) -> str:
    label = f"y={label_of(address, instance.n)} r={label_of(result, instance.m)}"
    if any(instance.k):
        mem_bits = ",".join(
            format(value, f"0{width}b") if width else "-"
            for value, width in zip(mem, instance.k)
        )
        label += f" mem={mem_bits}"
    return label


def reference_random_assignment(instance, rng: np.random.Generator) -> tuple[int, tuple[int, ...]]:
    """A seeded (result, mem) draw: the result first, then each leaf's memory."""
    result = int(rng.integers(0, 1 << instance.m))
    return result, tuple(int(rng.integers(0, 1 << width)) for width in instance.k)


def reference_generate_cases(instance, assignments: int, seed: int) -> list[tuple[int, int, tuple[int, ...]]]:
    """Exhaustive addresses; exhaustive (result, mem) when that space is
    small, otherwise ``assignments`` seeded samples per address."""
    rng = np.random.default_rng(seed)
    combos = 1 << (instance.m + sum(instance.k))
    cases = []
    for address in range(1 << instance.n):
        assigned: list[tuple[int, tuple[int, ...]]] = []
        if combos <= max(assignments, 64):
            for packed in range(combos):
                result = packed & ((1 << instance.m) - 1)
                rest = packed >> instance.m
                mem = []
                for width in instance.k:
                    mem.append(rest & ((1 << width) - 1))
                    rest >>= width
                assigned.append((result, tuple(mem)))
        while len(assigned) < assignments:
            assigned.append(reference_random_assignment(instance, rng))
        cases.extend((address, result, mem) for result, mem in assigned)
    return cases


def _data_fidelity(expected: dict, actual: dict) -> float:
    overlap = 0j
    for key, amp in expected.items():
        mate = actual.get(key)
        if mate is not None:
            overlap += amp.conjugate() * mate
    return abs(overlap) ** 2


def _mem_invariant(actual: dict, mem: tuple[int, ...]) -> bool:
    """Every surviving branch leaves mem_z untouched for all z except its own
    address."""
    for (y, _r, out_mem), _amp in actual.items():
        for z_value, value in enumerate(out_mem):
            if z_value != y and value != mem[z_value]:
                return False
    return True


def _reference_verify(instance, check, options, runs, unitaries) -> VerificationReport:
    """Judge each run ``(circuit, initials, expectations)`` case by case:
    expectations are ``(label, (expected data, expected residual), mem)``."""
    results = []
    for circuit, initials, expectations in runs:
        outputs = (extract_data_state(final, circuit.layout)
                   for final in run_batch(initials, circuit, unitaries))
        for (label, (expected, expected_residual), mem), (actual, residual) in zip(
            expectations, outputs
        ):
            residual = max(expected_residual, residual)
            fidelity = _data_fidelity(expected, actual)
            invariant = _mem_invariant(actual, mem)
            passed = fidelity >= 1.0 - FIDELITY_TOL and residual <= RESIDUAL_TOL and invariant
            results.append(CaseResult(label, fidelity, residual, invariant, passed))
    return VerificationReport(instance.describe(), check, options, FIDELITY_TOL, RESIDUAL_TOL,
                              results, 0.0)


def _options(circuit: Circuit) -> dict:
    return {key: circuit.metadata.get(key) for key in ("variant", "fanout_block")}


def reference_check_proposition(instance, options=None, *, assignments=8, seed=7, cases=None,
                                circuit=None, circuit_unitaries=None) -> VerificationReport:
    if circuit is None:
        circuit = synth_access(instance.layout(), instance.unitaries, options or SynthesisOptions())
    case_list = (
        [(y, r, _normalize_mem(instance, mem)) for y, r, mem in cases]
        if cases is not None
        else reference_generate_cases(instance, assignments, seed)
    )
    initials = [basis_state(circuit.layout, *case) for case in case_list]
    expectations = [
        (reference_case_label(instance, *case), (oracle_effect(instance, *case), 0.0), case[2])
        for case in case_list
    ]
    unitaries = circuit_unitaries if circuit_unitaries is not None else instance.unitaries
    return _reference_verify(instance, "proposition", _options(circuit),
                             [(circuit, initials, expectations)], unitaries)


def reference_check_linearity(instance, options=None, *, num_cases=20, seed=7) -> VerificationReport:
    circuit = synth_access(instance.layout(), instance.unitaries, options or SynthesisOptions())
    rng = np.random.default_rng(seed)
    num_addresses = 1 << instance.n
    superpositions = []
    for _ in range(num_cases):
        pair = rng.choice(num_addresses, size=2, replace=False)
        raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        amps = raw / np.linalg.norm(raw)
        result, mem = reference_random_assignment(instance, rng)
        terms = [(complex(a), int(y)) for a, y in zip(amps, pair)]
        label = "+".join(f"y={label_of(y, instance.n)}" for _, y in terms)
        superpositions.append((f"two-term {label}", terms, result, mem))
    uniform_amp = complex(1 / np.sqrt(num_addresses))
    result, mem = reference_random_assignment(instance, rng)
    superpositions.append(("uniform over addresses", [(uniform_amp, y) for y in range(num_addresses)],
                           result, mem))
    initials = [
        superpose([(amp, basis_state(circuit.layout, y, result, mem)) for amp, y in terms])
        for _, terms, result, mem in superpositions
    ]
    expectations = [
        (label, (oracle_superposition(instance, terms, result, mem), 0.0), mem)
        for label, terms, result, mem in superpositions
    ]
    return _reference_verify(instance, "linearity", _options(circuit),
                             [(circuit, initials, expectations)], instance.unitaries)


def reference_check_variant_agreement(instance, *, block_sizes=None, assignments=4, seed=7) -> VerificationReport:
    layout = instance.layout()
    sequential = synth_access(layout, instance.unitaries, SynthesisOptions())
    if block_sizes is None:
        block_sizes = sorted({SynthesisOptions().resolved_block(instance.m), 1, instance.m})
    case_list = reference_generate_cases(instance, assignments, seed)
    references = [
        extract_data_state(final, layout)
        for final in run_batch([basis_state(layout, *case) for case in case_list],
                               sequential, instance.unitaries)
    ]
    runs = []
    for s in block_sizes:
        fanout = synth_access(layout, instance.unitaries, SynthesisOptions(variant="fanout", fanout_block=s))
        initials = [basis_state(fanout.layout, *case) for case in case_list]
        expectations = [
            (f"s={s} " + reference_case_label(instance, *case), reference, case[2])
            for case, reference in zip(case_list, references)
        ]
        runs.append((fanout, initials, expectations))
    return _reference_verify(instance, "variant_agreement", {"block_sizes": list(block_sizes)}, runs,
                             instance.unitaries)


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
