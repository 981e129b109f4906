"""Circuit IR tests: gate validation, scheduling, metrics, adjoint, concat,
and the one builder of gate columns."""

import re
from pathlib import Path

import numpy as np
import pytest

from qramforge import (
    Circuit,
    Gate,
    GateKind,
    InvalidParameterError,
    StructuralError,
    allocate_registers,
    concat,
    synth_access,
)
from qramforge.ir import GateColumns

from helpers import assert_same_columns, reference_of_gates, reference_reversed

LAYOUT = allocate_registers(2, 2, 1)  # 24 qubits to play with


def test_gate_constructors_and_arity():
    assert Gate.x(3).qubits == (3,)
    assert Gate.cnot(0, 1).controls == (0,)
    assert Gate.toffoli(0, 1, 2).targets == (2,)
    assert Gate.fredkin(4, 5, 6).targets == (5, 6)
    block = Gate.controlled_opaque(7, (8, 9), "01", declared_depth=3)
    assert block.kind is GateKind.OPAQUE
    assert block.declared_depth == 3


def test_gate_validation():
    with pytest.raises(StructuralError):
        Gate(GateKind.CNOT, (0, 1), (2,))  # too many controls
    with pytest.raises(StructuralError):
        Gate(GateKind.FREDKIN, (0,), (1,))  # too few targets
    with pytest.raises(StructuralError):
        Gate.cnot(3, 3)  # overlapping qubits
    with pytest.raises(StructuralError):
        Gate.fredkin(1, 2, 1)
    with pytest.raises(InvalidParameterError):
        Gate.cnot(-1, 0)
    with pytest.raises(StructuralError):
        Gate(GateKind.OPAQUE, (0,), (1,))  # opaque without a leaf
    with pytest.raises(StructuralError):
        Gate(GateKind.OPAQUE, (0, 1), (2,), leaf="0")  # opaque takes one control
    with pytest.raises(InvalidParameterError):
        Gate.controlled_opaque(0, (1,), "0", declared_depth=0)
    with pytest.raises(StructuralError):
        Gate(GateKind.X, (), (0,), dagger=True)  # elementary gates pin dagger
    with pytest.raises(StructuralError):
        Gate(GateKind.X, (), (0,), declared_depth=2)


def test_gate_adjoint():
    for gate in (Gate.x(0), Gate.cnot(0, 1), Gate.toffoli(0, 1, 2), Gate.fredkin(0, 1, 2)):
        assert gate.adjoint() is gate  # self-inverse
    block = Gate.controlled_opaque(0, (1, 2), "10", declared_depth=5)
    flipped = block.adjoint()
    assert flipped.dagger and not block.dagger
    assert flipped.adjoint() == block
    assert flipped.declared_depth == 5


def test_moment_disjointness():
    circuit = Circuit.from_moments(LAYOUT, [[Gate.cnot(0, 1), Gate.cnot(2, 3)]])
    assert [len(m) for m in circuit.moments] == [2]
    with pytest.raises(StructuralError, match=r"^qubit\(s\) \[1\] already used in this moment$"):
        Circuit.from_moments(LAYOUT, [[Gate.cnot(0, 1), Gate.cnot(2, 3), Gate.x(1)]])
    # a control collision counts too
    with pytest.raises(StructuralError, match=r"^qubit\(s\) \[0\] already used in this moment$"):
        Circuit.from_moments(LAYOUT, [[Gate.cnot(0, 1)], [Gate.cnot(0, 1), Gate.toffoli(4, 0, 5)]])
    # indices past int64 are reported as given
    with pytest.raises(StructuralError, match=rf"^qubit\(s\) \[{2**70}\] already used"):
        Circuit.from_moments(LAYOUT, [[Gate.x(2**70), Gate.x(2**70)]])


def test_asap_packing():
    circuit = Circuit(LAYOUT)
    circuit.append(Gate.cnot(0, 1))
    circuit.append(Gate.cnot(2, 3))  # disjoint: same moment
    circuit.append(Gate.cnot(1, 2))  # depends on both: next moment
    circuit.append(Gate.x(5))  # free qubit: first moment
    assert [len(m) for m in circuit.moments] == [3, 1]
    assert circuit.depth == 2
    assert circuit.width == 3


def test_append_after_explicit_moments():
    """Moments given to ``from_moments`` are kept as given, also an empty one
    and gates that ``append`` would pack together; gates appended afterwards
    go after the last moment using one of their qubits, behind the gates
    already there."""
    circuit = Circuit.from_moments(LAYOUT, [[Gate.x(0)], [], [Gate.x(1)]])
    assert [len(m) for m in circuit.moments] == [1, 0, 1]
    circuit.append(Gate.x(2))  # free qubit: first moment, after x(0)
    circuit.append(Gate.cnot(0, 3))  # qubit 0 busy in moment 0: the empty moment
    circuit.append(Gate.x(1))  # qubit 1 busy in the last moment: a new one
    assert [list(m) for m in circuit.moments] == [
        [Gate.x(0), Gate.x(2)],
        [Gate.cnot(0, 3)],
        [Gate.x(1)],
        [Gate.x(1)],
    ]
    assert circuit.columns.moment.tolist() == [0, 0, 1, 2, 3]


def test_append_bounds_check():
    """Qubits outside the layout are refused, also those past int32 and
    int64, by ``append`` and by ``from_moments`` alike."""
    small = allocate_registers(1, 1)
    for layout, q in [(LAYOUT, LAYOUT.total_qubits)] + [(small, q) for q in (2**31, 2**63, 2**70)]:
        message = rf"^qubit {q} is outside the layout \({layout.total_qubits} qubits\)$"
        circuit = Circuit(layout)
        with pytest.raises(StructuralError, match=message):
            circuit.append(Gate.x(q))
        assert circuit.num_moments == 0
        with pytest.raises(StructuralError, match=message):
            Circuit.from_moments(layout, [[Gate.x(0)], [Gate.x(q)]])


def test_append_refuses_an_opaque_block_on_no_leaf_of_the_layout():
    """As in ``from_moments``: a block on a label the layout has no leaf for
    is refused when it is appended, so no document can carry it."""
    layout = allocate_registers(1, 1)
    for leaf in ("zz", "00", "", 5):
        circuit = Circuit(layout)
        with pytest.raises(StructuralError, match=f"opaque block leaf {leaf!r} is not a leaf"):
            circuit.append(Gate.controlled_opaque(2, [3], leaf))
        assert circuit.num_moments == 0
    circuit = Circuit(layout).append(Gate.controlled_opaque(2, [3], "1"))
    assert circuit.columns.leaf.tolist() == ["1"]


def test_depth_weights_opaque_blocks():
    circuit = Circuit(LAYOUT)
    circuit.append(Gate.x(0))
    circuit.append(Gate.controlled_opaque(1, (2, 3), "00", declared_depth=7))
    circuit.append(Gate.x(2))  # forced into a second moment
    assert circuit.num_moments == 2
    assert max(g.declared_depth for g in circuit.moments[0]) == 7
    assert circuit.depth == 7 + 1
    assert circuit.gate_counts() == {"x": 2, "cu": 1}


def test_adjoint_reverses_moments():
    circuit = Circuit(LAYOUT)
    circuit.append(Gate.x(0))
    circuit.append(Gate.cnot(0, 1))
    circuit.append(Gate.controlled_opaque(2, (3,), "01"))
    adj = circuit.adjoint()
    assert adj.num_moments == circuit.num_moments
    # moment i of the adjoint holds the adjoints of the gates of moment -1-i
    for i, moment in enumerate(adj.moments):
        source = circuit.moments[-1 - i]
        assert [g for g in moment] == [g.adjoint() for g in source]
    assert adj.adjoint() == circuit


def test_circuit_equality_ignores_metadata():
    a = Circuit(LAYOUT)
    b = Circuit(LAYOUT)
    for c in (a, b):
        c.append(Gate.x(0))
    b.metadata["note"] = "different"
    assert a == b
    b.append(Gate.x(1))
    assert a != b
    other_layout = allocate_registers(2, 2, 0)
    assert Circuit(other_layout) != Circuit(LAYOUT)


def test_concat_is_moment_concatenation():
    a = Circuit(LAYOUT)
    a.append(Gate.x(0))
    a.append(Gate.x(0))  # two moments
    b = Circuit(LAYOUT)
    b.append(Gate.x(1))  # could merge into a's first moment, but must not
    joined = concat(a, b)
    assert joined.num_moments == 3
    assert joined.depth == a.depth + b.depth
    assert [len(m) for m in joined.moments] == [1, 1, 1]
    three = concat(a, b, a)
    assert three.num_moments == 5
    with pytest.raises(StructuralError):
        concat(a, Circuit(allocate_registers(2, 2, 0)))


def _random_circuit(rng: np.random.Generator, num_qubits: int, num_gates: int) -> tuple[Circuit, list[Gate]]:
    layout = allocate_registers(1, max(1, num_qubits - 5), 0)  # any layout big enough
    assert layout.total_qubits >= num_qubits
    circuit = Circuit(layout)
    emitted = []
    for _ in range(num_gates):
        kind = rng.integers(0, 4)
        qubits = rng.choice(num_qubits, size=3, replace=False)
        a, b, c = (int(q) for q in qubits)
        if kind == 0:
            gate = Gate.x(a)
        elif kind == 1:
            gate = Gate.cnot(a, b)
        elif kind == 2:
            gate = Gate.toffoli(a, b, c)
        else:
            gate = Gate.fredkin(a, b, c)
        circuit.append(gate)
        emitted.append(gate)
    return circuit, emitted


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_asap_schedule_soundness(seed):
    """The greedy schedule must keep moments disjoint and preserve per-qubit
    gate order relative to emission order."""
    rng = np.random.default_rng(seed)
    circuit, emitted = _random_circuit(rng, 8, 60)
    assert circuit.num_gates == 60
    # disjointness within each moment
    for moment in circuit.moments:
        used = []
        for gate in moment:
            used.extend(gate.qubits)
        assert len(used) == len(set(used))
    # per-qubit order preservation
    scheduled = [g for m in circuit.moments for g in m]
    position = {}
    for index, gate in enumerate(scheduled):
        position.setdefault(id(gate), index)
    for q in range(8):
        touching_emitted = [g for g in emitted if q in g.qubits]
        touching_scheduled = [g for g in scheduled if q in g.qubits]
        assert touching_emitted == touching_scheduled
    # asap is never worse than fully serial
    assert circuit.depth <= 60


def _random_moments(rng: np.random.Generator, num_moments: int) -> list[list[Gate]]:
    """Moments of gates of all five kinds on disjoint qubits of ``LAYOUT``,
    opaque blocks with 1 to 4 targets and either dagger flag; some moments
    are empty."""
    moments = []
    for _ in range(num_moments):
        free = [int(q) for q in rng.permutation(LAYOUT.total_qubits)]
        gates = []
        for _ in range(int(rng.integers(0, 5))):
            kind = int(rng.integers(0, 5))
            width = (1, 2, 3, 3, 1 + int(rng.integers(1, 5)))[kind]
            qubits, free = free[:width], free[width:]
            if kind == 0:
                gates.append(Gate.x(*qubits))
            elif kind == 1:
                gates.append(Gate.cnot(*qubits))
            elif kind == 2:
                gates.append(Gate.toffoli(*qubits))
            elif kind == 3:
                gates.append(Gate.fredkin(*qubits))
            else:
                leaf = LAYOUT.leaves[int(rng.integers(0, len(LAYOUT.leaves)))]
                gates.append(Gate.controlled_opaque(
                    qubits[0], qubits[1:], leaf, dagger=bool(rng.integers(0, 2)),
                    declared_depth=int(rng.integers(1, 9)),
                ))
        moments.append(gates)
    return moments


@pytest.mark.parametrize("seed", range(6))
def test_of_flat_matches_the_per_gate_reference(seed):
    """Every field of the columns, block table included, is the one the
    per-gate loop wrote, for mixed moments, moments without an opaque
    block, and no moments at all."""
    rng = np.random.default_rng(seed)
    every_kind = [  # a dagger block and the widest block in every case
        Gate.controlled_opaque(0, [1], "01", dagger=True), Gate.controlled_opaque(2, [3, 4, 5, 6], "10"),
        Gate.fredkin(7, 8, 9), Gate.toffoli(10, 11, 12), Gate.cnot(13, 14), Gate.x(15),
    ]
    moments = [*_random_moments(rng, 6), every_kind, [], *_random_moments(rng, 6)]
    elementary = [[g for g in gates if g.kind is not GateKind.OPAQUE] for gates in moments]
    for case in (moments, elementary, [], [[]]):
        placed = [(index, gate) for index, gates in enumerate(case) for gate in gates]
        expected = reference_of_gates(placed, len(case))
        assert_same_columns(GateColumns.of_gates(placed, len(case)), expected)
        assert_same_columns(Circuit.from_moments(LAYOUT, case).columns, expected)


@pytest.mark.parametrize("seed", range(6))
def test_reversed_matches_the_argsort_reference(seed):
    """The adjoint's columns, built from per-moment counts, are the ones a
    stable sort on the mirrored moments gives: for moments with opaque
    blocks of either dagger flag, empty moments at both ends and inside,
    no gates at all, and an access circuit whose block table was offset
    by concatenation."""
    rng = np.random.default_rng(seed)
    moments = [[], *_random_moments(rng, 8), [], [], *_random_moments(rng, 3), []]
    access = synth_access(allocate_registers(2, 2, [0, 1, 2, 1]), declared_depths=3).columns
    cases = [Circuit.from_moments(LAYOUT, case).columns for case in (moments, [], [[]], [[], [], []])]
    for columns in (*cases, access):
        assert_same_columns(columns.reversed(), reference_reversed(columns))
        assert_same_columns(columns.reversed().reversed(), columns)


def test_only_ir_writes_the_block_table():
    """No module but ``ir`` names the block table's offsets or calls the
    ten-field constructor: every other writer goes through ``of_flat``."""
    package = Path(__file__).resolve().parents[1] / "src" / "qramforge"
    writers = [path.name for path in sorted(package.glob("*.py"))
               if re.search(r"tptr|GateColumns\(", path.read_text())]
    assert writers == ["ir.py"]
