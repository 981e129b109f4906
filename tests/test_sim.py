"""Simulator tests, anchored to an independent dense reference implementation
and to the former per-gate dictionary simulator (``tests/helpers.py``)."""

import random
import warnings

import numpy as np
import pytest

import qramforge.sim as sim
from qramforge import (
    Circuit,
    ConfigurationError,
    Gate,
    GateKind,
    InvalidParameterError,
    QramForgeError,
    ResourceLimitError,
    ShapeError,
    SimulationError,
    SparseState,
    StructuralError,
    SynthesisOptions,
    UnitarySpec,
    allocate_registers,
    apply_gate,
    basis_state,
    build_custom_instance,
    build_qram_instance,
    build_random_instance,
    build_table_lookup_instance,
    check_linearity,
    check_proposition,
    check_variant_agreement,
    concat,
    oracle_superposition,
    run_batch,
    run_circuit,
    superpose,
    synth_access,
)
from qramforge.cli import main
from helpers import (
    dense_apply_gate,
    dense_from_sparse,
    dense_run_circuit,
    reference_basis_key,
    sparse_run_circuit,
)

LAYOUT = allocate_registers(2, 1, 1)  # 21 qubits


def test_unitary_spec_validation():
    with pytest.raises(ShapeError):
        UnitarySpec("0", np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        UnitarySpec("0", np.eye(3))  # not a power of two
    with pytest.raises(ShapeError):
        UnitarySpec("0", np.array([[1.0]]))  # dimension 1
    with pytest.raises(InvalidParameterError):
        UnitarySpec("0", np.eye(2) * 2)  # not unitary
    with pytest.raises(InvalidParameterError):
        UnitarySpec("0", np.eye(2), declared_depth=0)
    with pytest.raises(InvalidParameterError):
        UnitarySpec("abc", np.eye(2))  # not a bit-string label
    spec = UnitarySpec("01", np.eye(4), declared_depth=2)
    assert spec.dim == 4 and spec.num_qubits == 2
    with pytest.raises(ValueError):
        spec.matrix[0, 0] = 5  # stored read-only


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_unitary_spec_refuses_entries_that_are_not_finite(entry):
    """A NaN entry makes the unitarity deviation NaN, which compared as
    within the tolerance; such a matrix is now refused before the check."""
    matrix = np.eye(2, dtype=complex)
    matrix[1, 0] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError, match="not finite"):
            UnitarySpec("0", matrix)


def test_unitary_spec_refuses_a_boolean_declared_depth():
    """``True`` is an int to ``isinstance``, but a document writes it as
    ``true``, which no parser reads back as a depth."""
    with pytest.raises(InvalidParameterError, match="declared depth"):
        UnitarySpec("0", np.eye(2), declared_depth=True)


def test_unitary_spec_equality():
    a = UnitarySpec("0", np.eye(2))
    b = UnitarySpec("0", np.eye(2))
    c = UnitarySpec("0", np.array([[0, 1], [1, 0]]))
    assert a == b
    assert a != c
    assert a != UnitarySpec("1", np.eye(2))
    assert a != UnitarySpec("0", np.eye(2), declared_depth=3)


def _stack_inputs(count: int = 8, permutations: bool = False):
    """Labels, matrices of two sizes and depths for the bulk constructor:
    Haar-random unitaries, or permutations of float, int and bool dtypes."""
    rng = np.random.default_rng(5)
    leaves = [format(v, "03b") for v in range(count)]
    if permutations:
        dtypes = (bool, float, np.int64, complex)  # the faults change the float matrix 5
        matrices = [np.eye(2 << (v % 2), dtype=dtypes[v % 4])[rng.permutation(2 << (v % 2))] for v in range(count)]
    else:
        matrices = [_random_unitary(rng, 2 << (v % 2)) for v in range(count)]
    return leaves, matrices, [1 + v % 3 for v in range(count)]


def test_unitary_spec_stack_matches_the_constructor():
    leaves, matrices, depths = _stack_inputs()
    specs = UnitarySpec.stack(leaves, matrices, depths)
    assert list(specs) == leaves
    assert specs == {z: UnitarySpec(z, u, d) for z, u, d in zip(leaves, matrices, depths)}
    for leaf, matrix in zip(leaves, matrices):
        assert specs[leaf].matrix.tobytes() == matrix.astype(complex).tobytes()
        with pytest.raises(ValueError):
            specs[leaf].matrix[0, 0] = 5  # stored read-only
    assert UnitarySpec.stack(leaves, [np.eye(2)] * 8) == {z: UnitarySpec(z, np.eye(2)) for z in leaves}
    with pytest.raises(InvalidParameterError, match="got 8 leaves, 7 matrices and 8 depths"):
        UnitarySpec.stack(leaves, matrices[:7], depths)


def _budget(monkeypatch, leaves, matrices, depths):
    monkeypatch.setattr(sim, "BATCH_BUDGET_BYTES", 16 * 4 * 4)  # the 4-row matrices fit
    matrices[5] = np.eye(8)


FAULTS = {
    "label": lambda mp, z, u, d: z.__setitem__(5, "1x0"),
    "shape": lambda mp, z, u, d: u.__setitem__(5, np.eye(4)[:3]),
    "size": lambda mp, z, u, d: u.__setitem__(5, np.eye(3)),
    "non-finite": lambda mp, z, u, d: u[5].__setitem__((0, 1), np.nan),
    "non-unitary": lambda mp, z, u, d: u.__setitem__(5, u[5] * (1 + 1e-9)),
    "repeated row": lambda mp, z, u, d: u.__setitem__(5, np.eye(4)[[0, 0, 2, 3]]),
    "repeated column": lambda mp, z, u, d: u.__setitem__(5, np.eye(4)[:, [0, 0, 2, 3]]),
    "zero row": lambda mp, z, u, d: u.__setitem__(5, np.diag([0.0, 1, 1, 1])),
    "two ones in a row": lambda mp, z, u, d: u.__setitem__(5, np.eye(4) + np.diag([1.0, 0, 0], k=1)),
    "depth": lambda mp, z, u, d: d.__setitem__(5, 0),
    "boolean depth": lambda mp, z, u, d: d.__setitem__(5, True),
    "budget": _budget,
    "ragged": lambda mp, z, u, d: u.__setitem__(5, [[1, 0], [0]]),
    "non-numeric": lambda mp, z, u, d: u.__setitem__(5, [[1, 0], [0, "a"]]),
    "object strings": lambda mp, z, u, d: u.__setitem__(5, np.array([["1", "0"], ["0", "a"]], dtype=object)),
    "numeric strings": lambda mp, z, u, d: u.__setitem__(5, [["0", "1j"], ["-1j", "0"]]),
    "numeric string array": lambda mp, z, u, d: u.__setitem__(5, np.array([["1", "0"], ["0", "1"]])),
    "numeric bytes": lambda mp, z, u, d: u.__setitem__(5, [[b"1", b"0"], [b"0", b"1"]]),
    "numeric object string": lambda mp, z, u, d: u.__setitem__(5, np.array([[1, "0"], [0, 1]], dtype=object)),
    "non-array": lambda mp, z, u, d: u.__setitem__(5, {"a": 1}),
    "integer past the float range": lambda mp, z, u, d: u.__setitem__(5, [[10**400, 0], [0, 1]]),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_unitary_spec_stack_raises_the_constructors_first_fault(fault, monkeypatch):
    """A fault at a later leaf raises the type and message the constructor
    raises for that leaf, and a second fault after it stays unreported."""
    _stack_fault(fault, monkeypatch, _stack_inputs())


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_unitary_spec_stack_of_permutations_raises_the_constructors_first_fault(fault, monkeypatch):
    """Among permutations, which the stack and the constructor recognise
    without the product, each fault is refused as among dense unitaries."""
    _stack_fault(fault, monkeypatch, _stack_inputs(permutations=True))


def test_unitary_spec_stack_of_permutations_matches_the_constructor():
    """Permutations of every dtype give the constructor's specs and
    ``source``: the column of each row's 1, of the matrix and of its
    conjugate transpose."""
    leaves, matrices, depths = _stack_inputs(permutations=True)
    specs = UnitarySpec.stack(leaves, matrices, depths)
    for leaf, matrix, depth in zip(leaves, matrices, depths):
        alone, spec = UnitarySpec(leaf, matrix, depth), specs[leaf]
        assert spec == alone and spec.source.tobytes() == alone.source.tobytes()
        rows = np.arange(len(matrix))
        assert (spec.matrix[rows, spec.source[0]] == 1).all() and (spec.matrix.T[rows, spec.source[1]] == 1).all()
        with pytest.raises(ValueError):
            spec.source[0, 0] = 1  # stored read-only


def _stack_fault(fault, monkeypatch, inputs):
    leaves, matrices, depths = inputs
    FAULTS[fault](monkeypatch, leaves, matrices, depths)
    depths[7] = -1
    with pytest.raises(QramForgeError) as expected:
        UnitarySpec(leaves[5], matrices[5], depths[5])
    with pytest.raises(type(expected.value)) as raised:
        UnitarySpec.stack(leaves, matrices, depths)
    assert str(raised.value) == str(expected.value)


def test_a_non_square_array_is_refused_before_it_is_copied():
    """A 64 MiB float array of shape (2, 2**22) is refused by its shape,
    through either entry point, without its complex copy of 128 MiB."""
    import tracemalloc

    matrix = np.zeros((2, 1 << 22))
    for build in (lambda: UnitarySpec("0", matrix), lambda: UnitarySpec.stack(["0", "1"], [np.eye(2), matrix])):
        tracemalloc.start()
        try:
            with pytest.raises(ShapeError, match=r"must be a square matrix, got shape \(2, 4194304\)"):
                build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_unitary_spec_stack_and_the_constructor_agree_at_the_tolerance():
    """With no margin, the stack and the constructor judge a matrix alike on
    either side of the tolerance: a deviation of 0.7e-10 is accepted by
    both, one of 1.4e-10 refused by both."""
    leaves, matrices, depths = _stack_inputs()
    for scale, accepted in ((1 + 0.35e-10, True), (1 + 0.7e-10, False)):
        matrices[5] = np.diag([scale, 1.0])
        if accepted:
            assert UnitarySpec.stack(leaves, matrices, depths)[leaves[5]].matrix[0, 0] == scale
            UnitarySpec(leaves[5], matrices[5], depths[5])
        else:
            for build in (lambda: UnitarySpec.stack(leaves, matrices, depths),
                          lambda: UnitarySpec(leaves[5], matrices[5], depths[5])):
                with pytest.raises(InvalidParameterError, match=r"not unitary \(deviation 1\.400e-10\)"):
                    build()


def test_unitary_spec_refuses_a_matrix_whose_product_overflows_to_nan():
    """Finite entries of 1e200 (1 + 1j) make ``U^dagger U`` NaN: the stack
    and the constructor refuse the NaN deviation, and no numpy warning
    escapes."""
    leaves, matrices, depths = _stack_inputs()
    matrices[5] = np.diag([1e200 * (1 + 1j)] * 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build in (lambda: UnitarySpec.stack(leaves, matrices, depths),
                      lambda: UnitarySpec(leaves[5], matrices[5], depths[5])):
            with pytest.raises(InvalidParameterError, match=r"not unitary \(deviation nan\)"):
                build()


def test_deviation_of_a_chunk_is_each_matrix_deviation_bit_for_bit():
    """The batched product gives each matrix of a chunk the deviation it has
    alone, which is the constructor's, in chunks as large as
    `UnitarySpec.stack` makes (at least two matrices)."""
    rng = np.random.default_rng(11)
    for dim in (2, 4, 8, 16, 32, 64):
        count = max(2, (1 << 16) // (16 * dim * dim))
        chunk = np.array([_random_unitary(rng, dim) * (1 + rng.uniform(-1e-10, 1e-10)) for _ in range(count)])
        alone = [sim._deviation(matrix[None])[0] for matrix in chunk]
        assert sim._deviation(chunk).tobytes() == np.array(alone).tobytes(), dim


def test_unitary_spec_stack_checks_a_shared_matrix_once(monkeypatch):
    """One matrix object given for every leaf is checked as one matrix, and
    its leaves share one read-only array; the specs are the constructor's."""
    matrix = _random_unitary(np.random.default_rng(7), 4)
    leaves = [format(v, "03b") for v in range(8)]
    checked = []
    isfinite = np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda values: checked.append(np.size(values)) or isfinite(values))
    specs = UnitarySpec.stack(leaves, [matrix] * 8, [2] * 8)
    assert checked == [16]
    monkeypatch.undo()
    assert specs == {z: UnitarySpec(z, matrix, 2) for z in leaves}
    assert len({id(spec.matrix) for spec in specs.values()}) == 1
    with pytest.raises(ValueError):
        specs["000"].matrix[0, 0] = 5
    assert matrix.flags.writeable  # the caller's array is not frozen


def test_unitary_spec_stack_names_the_first_leaf_of_a_shared_fault():
    """A non-unitary matrix given for leaves 3 and 5 raises the constructor's
    message for leaf 3."""
    leaves, matrices, depths = _stack_inputs()
    bad = np.diag([1.5, 1.0])
    matrices[3] = matrices[5] = bad
    with pytest.raises(InvalidParameterError) as expected:
        UnitarySpec(leaves[3], bad, depths[3])
    with pytest.raises(InvalidParameterError) as raised:
        UnitarySpec.stack(leaves, matrices, depths)
    assert str(raised.value) == str(expected.value) and "'011'" in str(raised.value)


def test_basis_state_keys():
    # address "10" (value 2) sets address qubit 1; result 1 sets qubit 2;
    # the mem bit of leaf 10 is qubit 19 in this layout's numbering
    state = basis_state(LAYOUT, "10", 1, {"10": 1})
    assert state.amps == {(1 << 1) | (1 << 2) | (1 << 19): 1.0 + 0j}
    same = basis_state(LAYOUT, 2, "1", [0, 0, 1, 0])
    assert same.amps == state.amps
    vacuum = basis_state(LAYOUT, 0, 0)
    assert vacuum.amps == {0: 1.0 + 0j}


def test_basis_state_validation():
    with pytest.raises(InvalidParameterError):
        basis_state(LAYOUT, "101", 0)  # wrong address width
    with pytest.raises(InvalidParameterError):
        basis_state(LAYOUT, 4, 0)  # address out of range
    with pytest.raises(InvalidParameterError):
        basis_state(LAYOUT, 0, 2)  # result out of range
    with pytest.raises(InvalidParameterError):
        basis_state(LAYOUT, 0, 0, {"10": 2})  # mem register is one bit
    with pytest.raises(InvalidParameterError):
        basis_state(LAYOUT, 0, 0, {"1": 0})  # not a leaf
    with pytest.raises(InvalidParameterError):
        basis_state(LAYOUT, 0, 0, [1, 0])  # one value per leaf
    with pytest.raises(InvalidParameterError, match="only at leaves"):
        basis_state(LAYOUT, 0, 0, {"10": 2, "1": 0})  # labels are checked before values


def _bits(value: int, width: int) -> str:
    return format(value, f"0{width}b") if width else ""


@pytest.mark.parametrize(
    "layout",
    [
        allocate_registers(2, 1, 1),
        allocate_registers(2, 3, [0, 2, 0, 3]),  # leaves with k = 0
        allocate_registers(1, 2, 0),  # no memory at all
        allocate_registers(3, 2, 40),  # registers across 64-bit words
        allocate_registers(2, 4, [1, 0, 2, 1]).with_fanout_copies(2),
    ],
    ids=["plain", "per-leaf-k", "no-memory", "wide-memory", "fanout"],
)
def test_basis_state_matches_the_bitwise_reference(layout):
    """Each register value shifted to its first qubit gives the key the
    bit-by-bit scatter gives, for int and string values and for memory as a
    sequence or as a mapping over some of the leaves, in any order."""
    rng = random.Random(layout.total_qubits)
    for _ in range(12):
        address, result = rng.randrange(1 << layout.n), rng.randrange(1 << layout.m)
        mem = [rng.randrange(1 << width) for width in layout.k]
        strings = [_bits(value, width) for value, width in zip(mem, layout.k)]
        some = rng.sample(range(len(mem)), rng.randrange(len(mem) + 1))
        for args in [
            (address, result, None),
            (address, result, mem),
            (_bits(address, layout.n), _bits(result, layout.m), strings),
            (address, _bits(result, layout.m), {layout.leaves[z]: mem[z] for z in some}),
            (_bits(address, layout.n), result, {layout.leaves[z]: strings[z] for z in some}),
        ]:
            assert basis_state(layout, *args).amps == {reference_basis_key(layout, *args): 1.0 + 0j}


def test_numpy_shifts_by_64_give_zero():
    """The bit-field codec reads and writes the word after a field without a
    branch: a field that stays in its word shifts by 64 there, and numpy
    gives 0 for that (C leaves it undefined), for arrays and scalars."""
    ones, by = np.full(3, (1 << 64) - 1, dtype=np.uint64), np.uint64(64)
    assert not (ones << by).any() and not (ones >> by).any()
    assert not (ones << np.full(3, by)).any() and not (ones >> np.full(3, by)).any()
    assert ones[0] << by == 0 and ones[0] >> by == 0


def _column_ints(words: np.ndarray) -> list[int]:
    """Each column of the word-major ``words`` as one Python int."""
    return [sum(int(word) << 64 * i for i, word in enumerate(column)) for column in words.T.tolist()]


#: (start, width) bit fields on columns of three words: widths 0, 1, 63 and
#: 64; starts at bit 0 and bit 63 of a word; fields across a word boundary
#: and fields in the last word.
CODEC_FIELDS = [
    (0, 0), (0, 1), (0, 63), (0, 64), (63, 1), (63, 2), (63, 64), (60, 10), (64, 64), (100, 63),
    (127, 1), (127, 64), (128, 64), (130, 62), (191, 1), (191, 0), (129, 63), (65, 63),
]


@pytest.mark.parametrize("view", [False, True], ids=["contiguous", "transposed-view"])
def test_bit_field_codec_matches_python_ints(view):
    """Reads take the field's bits of each column; writes replace them and
    leave every other bit of the column as it was.  Starts and widths are
    scalars or one per column."""
    rng = np.random.default_rng(int(view))

    def words() -> np.ndarray:
        raw = rng.integers(0, 1 << 64, size=(7, 3), dtype=np.uint64)
        return raw.T if view else np.ascontiguousarray(raw.T)

    for start, width in CODEC_FIELDS:
        mask = (1 << width) - 1
        for columns in (slice(None), np.array([4, 0, 6])):
            table = words()
            before = _column_ints(table)
            picked = np.arange(7)[columns].tolist()
            read = sim._read_bits(table, start, width, columns)
            assert read.tolist() == [(before[c] >> start) & mask for c in picked]
            values = rng.integers(0, 1 << 64, size=len(picked), dtype=np.uint64) & np.uint64(mask)
            sim._write_bits(table, start, width, values, columns)
            after = before[:]
            for c, value in zip(picked, values.tolist()):
                after[c] = before[c] & ~(mask << start) | value << start
            assert _column_ints(table) == after
    for _ in range(20):  # one field per column, each its own start and width
        fields = [CODEC_FIELDS[i] for i in rng.integers(0, len(CODEC_FIELDS), size=7)]
        start, width = (np.array(column) for column in zip(*fields))
        columns = rng.permutation(7)
        table = words()
        before = _column_ints(table)
        read = sim._read_bits(table, start, width, columns)
        assert read.tolist() == [(before[c] >> s) & ((1 << w) - 1) for c, (s, w) in zip(columns.tolist(), fields)]
        values = [int(rng.integers(0, 1 << 64, dtype=np.uint64)) & ((1 << w) - 1) for _, w in fields]
        sim._write_bits(table, start, width, np.array(values, dtype=np.uint64), columns)
        after = before[:]
        for c, (s, w), value in zip(columns.tolist(), fields, values):
            after[c] = before[c] & ~(((1 << w) - 1) << s) | value << s
        assert _column_ints(table) == after


def _norm(state: SparseState) -> float:
    return float(np.linalg.norm(list(state.amps.values())))


def test_sparse_state_basics():
    state = SparseState(3, {0: 0.6, 5: 0.8j})
    assert state.amps == {0: 0.6 + 0j, 5: 0.8j}
    assert _norm(state) == pytest.approx(1.0)
    assert len(state) == 2
    with pytest.raises(InvalidParameterError):
        SparseState(2, {4: 1.0})  # key out of range


@pytest.mark.parametrize("amp", [float("nan"), complex("inf"), complex(1, float("-inf")), complex(0, float("nan"))])
def test_sparse_state_refuses_amplitudes_that_are_not_finite(amp):
    """As a state document does: a NaN or infinite amplitude would reach
    the payloads, where no two ways of multiplying agree on it, and a NaN
    norm drift passes the norm check."""
    with pytest.raises(InvalidParameterError, match="amplitudes must be finite"):
        SparseState(3, {0: 0.6, 1: amp})
    with pytest.raises(InvalidParameterError, match="unit vector"):
        superpose([(amp, SparseState(3, {0: 1.0})), (0.0, SparseState(3, {1: 1.0}))])
    instance = build_random_instance(2, 1, 0, seed=3)
    for terms in ([(amp, 0)], [(1, 0), (amp, 1)]):  # not dropped as an exact zero, nor passed on
        with pytest.raises(InvalidParameterError, match="amplitudes must be finite"):
            oracle_superposition(instance, terms)


@pytest.mark.parametrize("amp", [None, "a", " 1 ", "1j", b"1", {"a": 1}, [1], 10**400],
                         ids=["None", "string", "numeric string", "imaginary string", "bytes", "dict", "list",
                              "int past the float range"])
def test_amplitudes_complex_cannot_read_are_refused(amp):
    """Every caller-given amplitude is read by one rule, which refuses what
    ``complex()`` cannot read, and any string, as it refuses a NaN or
    infinite amplitude."""
    message = "amplitudes must be finite, got "
    with pytest.raises(InvalidParameterError, match=message):
        SparseState(3, {0: amp})
    with pytest.raises(InvalidParameterError, match=message):
        superpose([(amp, SparseState(3, {0: 1.0}))])
    with pytest.raises(InvalidParameterError, match=message):
        oracle_superposition(build_random_instance(2, 1, 0, seed=3), [(amp, 0)])


def test_superpose():
    a = basis_state(LAYOUT, 0, 0)
    b = basis_state(LAYOUT, 1, 0)
    amp = 1 / np.sqrt(2)
    both = superpose([(amp, a), (amp, b)])
    assert len(both) == 2
    assert _norm(both) == pytest.approx(1.0)
    # destructive interference of identical states cancels exactly
    gone = superpose([(amp, a), (-amp, a)])
    assert len(gone) == 0
    with pytest.raises(InvalidParameterError):
        superpose([])
    with pytest.raises(InvalidParameterError):
        superpose([(1.0, a), (1.0, b)])  # amplitude vector not normalized
    with pytest.raises(InvalidParameterError):
        superpose([(1.0, SparseState(2, {0: 1.0})), (0.0, a)])  # size mismatch


def _random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    sample = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(sample)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gates_agree_with_dense_reference(seed):
    """Random gate streams on random sparse states must match the dense
    reference simulator amplitude for amplitude."""
    rng = np.random.default_rng(seed)
    num_qubits = 6
    unitaries = {"0": UnitarySpec("0", _random_unitary(rng, 4))}
    amps = {}
    for key in rng.choice(1 << num_qubits, size=4, replace=False):
        amps[int(key)] = complex(rng.standard_normal(), rng.standard_normal())
    weight = np.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    state = SparseState(num_qubits, {k: a / weight for k, a in amps.items()})
    vec = dense_from_sparse(state)
    for _ in range(40):
        qubits = [int(q) for q in rng.choice(num_qubits, size=3, replace=False)]
        choice = rng.integers(0, 5)
        if choice == 0:
            gate = Gate.x(qubits[0])
        elif choice == 1:
            gate = Gate.cnot(qubits[0], qubits[1])
        elif choice == 2:
            gate = Gate.toffoli(qubits[0], qubits[1], qubits[2])
        elif choice == 3:
            gate = Gate.fredkin(qubits[0], qubits[1], qubits[2])
        else:
            gate = Gate.controlled_opaque(
                qubits[0], (qubits[1], qubits[2]), "0", dagger=bool(rng.integers(0, 2))
            )
        state = apply_gate(state, gate, unitaries)
        vec = dense_apply_gate(vec, gate, num_qubits, unitaries)
        assert np.max(np.abs(dense_from_sparse(state) - vec)) < 1e-12
    assert _norm(state) == pytest.approx(1.0, abs=1e-10)


def test_full_access_circuit_agrees_with_dense_reference():
    inst = build_random_instance(2, 1, 1, seed=5)
    circuit = synth_access(inst.layout(), inst.unitaries)
    state = basis_state(circuit.layout, 2, 1, {"10": 1})
    sparse_out = run_circuit(state, circuit, inst.unitaries)
    dense_out = dense_run_circuit(dense_from_sparse(state), circuit, inst.unitaries)
    assert np.max(np.abs(dense_from_sparse(sparse_out) - dense_out)) < 1e-12


def test_opaque_requires_matching_matrices():
    gate = Gate.controlled_opaque(0, (1,), "0")
    state = SparseState(2, {1: 1.0})
    with pytest.raises(ConfigurationError):
        apply_gate(state, gate)  # no unitaries supplied
    with pytest.raises(ConfigurationError):
        apply_gate(state, gate, {"1": UnitarySpec("1", np.eye(2))})  # wrong leaf
    with pytest.raises(ShapeError):
        apply_gate(state, gate, {"0": UnitarySpec("0", np.eye(4))})  # wrong arity


def test_opaque_control_gating_and_dagger():
    minus_i_x = UnitarySpec("0", np.array([[0, -1j], [-1j, 0]]))
    unitaries = {"0": minus_i_x}
    gate = Gate.controlled_opaque(1, (0,), "0")
    off = apply_gate(SparseState(2, {0: 1.0}), gate, unitaries)
    assert off.amps == {0: 1.0 + 0j}  # control is 0: untouched
    on = apply_gate(SparseState(2, {2: 1.0}), gate, unitaries)
    assert len(on) == 1
    assert on.amps[3] == pytest.approx(-1j)
    back = apply_gate(on, gate.adjoint(), unitaries)
    assert len(back) == 1
    assert back.amps[2] == pytest.approx(1.0)


def test_opaque_prunes_negligible_amplitudes():
    # a rotation by 1e-15 leaves the flipped component below the pruning
    # threshold, so the support must not grow
    eps = 1e-15
    tiny = UnitarySpec(
        "0",
        np.array([[np.cos(eps), -1j * np.sin(eps)], [-1j * np.sin(eps), np.cos(eps)]]),
    )
    gate = Gate.controlled_opaque(1, (0,), "0")
    out = apply_gate(SparseState(2, {2: 1.0}), gate, {"0": tiny})
    assert set(out.amps) == {2}


def test_run_circuit_checks_size():
    circuit = Circuit(LAYOUT)
    circuit.append(Gate.x(0))
    with pytest.raises(StructuralError):
        run_circuit(SparseState(3, {0: 1.0}), circuit)
    with pytest.raises(StructuralError, match="gate on qubit 3 does not fit a 3-qubit state"):
        apply_gate(SparseState(3, {0: 1.0}), Gate.cnot(0, 3))
    out = run_circuit(basis_state(LAYOUT, 0, 0), circuit)
    assert out.amps == {1: 1.0 + 0j}
    # a non-unit input keeps its norm
    scaled = SparseState(LAYOUT.total_qubits, {0: 0.5})
    assert _norm(run_circuit(scaled, circuit)) == pytest.approx(0.5)


def test_run_circuit_detects_norm_drift():
    # a matrix within the unitarity tolerance but slightly expansive: each
    # application stretches the norm by 4e-11, so a hundred applications
    # drift well past the allowed 1e-10
    layout = allocate_registers(1, 1, 0)
    stretched = UnitarySpec("0", (1.0 + 4e-11) * np.eye(2))
    circuit = Circuit(layout)
    target = layout.res("0")[0]
    control = layout.life("0")
    prep = Gate.x(control)
    circuit.append(prep)
    for _ in range(100):
        circuit.append(Gate.controlled_opaque(control, (target,), "0"))
    with pytest.raises(SimulationError):
        run_circuit(basis_state(layout, 0, 0), circuit, {"0": stretched})


@pytest.mark.parametrize("amplitude", [1e155, 1e200])
def test_run_circuit_refuses_a_norm_past_the_float_range(amplitude):
    """Squaring such an amplitude overflows, so the norms read inf and their
    drift NaN: the run is refused with the typed error and no warning."""
    inst = build_random_instance(1, 1, seed=1)
    circuit = synth_access(inst.layout(), inst.unitaries)
    state = SparseState(circuit.layout.total_qubits, {0: amplitude})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SimulationError, match="drifted by nan"):
            run_circuit(state, circuit, inst.unitaries)
    # just inside the range, the same run is accepted with its norm kept
    scale = 1e150
    out = run_circuit(SparseState(circuit.layout.total_qubits, {0: scale}), circuit, inst.unitaries)
    assert _norm(out) == pytest.approx(scale)


def test_batch_budget_guard(monkeypatch, capsys):
    """Packed terms and opaque group vectors are sized against the budget
    before they are allocated; past it the run raises ResourceLimitError
    and the command line exits 2."""
    layout = allocate_registers(2, 1, 1)  # 21 qubits: one key word per term
    unitaries = {"00": UnitarySpec("00", np.eye(4))}
    block = Circuit(layout)
    block.append(Gate.controlled_opaque(0, (1, 2), "00"))
    state = SparseState(layout.total_qubits, {1: 1.0})
    # one term packs into 1 word (8 bytes); its group vector is 4 x 16 bytes
    monkeypatch.setattr(sim, "BATCH_BUDGET_BYTES", 4)
    with pytest.raises(ResourceLimitError, match="basis terms"):
        run_circuit(state, block, unitaries)
    monkeypatch.setattr(sim, "BATCH_BUDGET_BYTES", 32)
    with pytest.raises(ResourceLimitError, match="groups of opaque block") as info:
        run_circuit(state, block, unitaries)
    assert (info.value.requested, info.value.limit) == (64, 32)
    monkeypatch.setattr(sim, "BATCH_BUDGET_BYTES", 64)
    assert run_circuit(state, block, unitaries).amps == {1: 1.0 + 0j}

    monkeypatch.setattr(sim, "BATCH_BUDGET_BYTES", 4)
    assert main(["verify", "--family", "qram", "--n", "1", "--m", "1"]) == 2
    assert "budget" in capsys.readouterr().err


def test_opaque_rows_are_checked_before_any_is_built(monkeypatch):
    """The rows an opaque moment produces are checked as a whole against the
    budget, and none of them is allocated when they do not fit."""
    import tracemalloc

    rng = np.random.default_rng(5)
    layout = allocate_registers(8, 4, 4)  # 3834 qubits: 60 key words per term
    words = -(-layout.total_qubits // 64)
    first, second = layout.leaves[:2]
    unitaries = {
        first: UnitarySpec(first, _random_unitary(rng, 16)),
        second: UnitarySpec(second, _random_unitary(rng, 16)),
    }
    moment = Circuit.from_moments(
        layout,
        [
            [
                Gate.controlled_opaque(0, (1, 2, 3, 4), first),
                Gate.controlled_opaque(5, (6, 7, 8, 9), second),
            ]
        ],
    )
    # sixteen one-term cases, half switching on each block; a dense matrix
    # turns every term into 16, so the moment yields 256 rows
    states = [SparseState(layout.total_qubits, {1 << (5 * (i % 2)) | 1 << 20 + i: 1.0})
              for i in range(16)]
    needed = 16 * 16 * words * 8
    monkeypatch.setattr(sim, "BATCH_BUDGET_BYTES", needed - 1)
    monkeypatch.setattr(sim, "_batch_terms", lambda circuit: 16)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        with pytest.raises(ResourceLimitError, match="256 basis terms") as info:
            list(run_batch(states, moment, unitaries))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert info.value.requested == needed
    assert peak < needed // 2
    monkeypatch.setattr(sim, "BATCH_BUDGET_BYTES", needed)
    for state, out in zip(states, run_batch(states, moment, unitaries)):
        assert list(out.amps.items()) == list(
            sparse_run_circuit(state, moment, unitaries).amps.items()
        )


def test_batches_split_to_fit_the_budget(monkeypatch):
    """States whose rows would not fit one batch run in consecutive batches
    with the same results; a lone state never waits for a batch to fill."""
    instance = build_random_instance(2, 2, 1, seed=8)
    circuit = synth_access(instance.layout(), instance.unitaries)
    layout = circuit.layout
    states = [
        basis_state(layout, y, r, [m] * len(layout.leaves))
        for y in range(1 << layout.n) for r in range(1 << layout.m) for m in (0, 1)
    ]
    default = [list(s.amps.items()) for s in run_batch(states, circuit, instance.unitaries)]
    sizes = []
    original = sim._batches

    def counting_batches(*args):
        for rows in original(*args):
            sizes.append(rows.num_cases)
            yield rows

    monkeypatch.setattr(sim, "_batches", counting_batches)
    # a term grows into at most 8 amplitudes through the Run moment, each a
    # 16-byte group vector entry (wider than its 1-word row)
    monkeypatch.setattr(sim, "BATCH_BUDGET_BYTES", 5 * 8 * 16)
    split = [list(s.amps.items()) for s in run_batch(states, circuit, instance.unitaries)]
    assert split == default
    assert sizes == [5] * 6 + [2]


def _split_budget_states():
    instance = build_random_instance(2, 2, 1, seed=8)
    circuit = synth_access(instance.layout(), instance.unitaries)
    layout = circuit.layout
    states = [basis_state(layout, y, r, [m] * len(layout.leaves))
              for y in range(1 << layout.n) for r in range(1 << layout.m) for m in (0, 1)]
    # two of them superposed, so that batches hold cases of one and two terms
    states[5:9] = [superpose([(0.6, states[5]), (0.8j, states[6])]),
                   superpose([(0.5 ** 0.5, state) for state in states[7:9]])]
    return instance, circuit, states


def test_run_batch_refuses_a_mismatched_state_before_it_yields_any_state(monkeypatch):
    """A state on another qubit count is refused when the first final state
    is requested, even when the states before it fill whole batches, and
    before any moment runs."""
    instance, circuit, states = _split_budget_states()
    monkeypatch.setattr(sim, "_batch_terms", lambda circuit: 1)
    ran = []
    monkeypatch.setattr(sim, "_run_moments", lambda *args: ran.append(args))
    stray = SparseState(circuit.layout.total_qubits + 1, {0: 1.0})
    outputs = run_batch([*states, stray, states[0]], circuit, instance.unitaries)
    with pytest.raises(StructuralError, match=rf"state has {circuit.layout.total_qubits + 1} qubits, circuit expects"):
        next(outputs)
    assert ran == []


def test_run_batch_reads_a_generator_as_the_list_of_its_states(monkeypatch):
    """States given by a generator run as the list of them would, term for
    term, under the default budget and one that splits them into batches."""
    instance, circuit, states = _split_budget_states()
    for budget in (sim.BATCH_BUDGET_BYTES, 3 * 8 * 16):
        monkeypatch.setattr(sim, "BATCH_BUDGET_BYTES", budget)
        listed = [list(s.amps.items()) for s in run_batch(states, circuit, instance.unitaries)]
        read = [list(s.amps.items()) for s in run_batch((s for s in states), circuit, instance.unitaries)]
        assert read == listed
        assert listed == [list(run_circuit(s, circuit, instance.unitaries).amps.items()) for s in states]


def _random_moment_stream(rng, num_qubits, num_moments):
    """Moments of random gates of every kind on disjoint qubits, with opaque
    blocks for leaf "0" (two targets) and leaf "1" (one target)."""
    moments = []
    for _ in range(num_moments):
        free = [int(q) for q in rng.permutation(num_qubits)]
        gates = []
        while free:
            kind = int(rng.integers(0, 6))
            need = (1, 2, 3, 3, 3, 2)[kind]
            if need > len(free):
                break
            qubits, free = free[:need], free[need:]
            dagger = bool(rng.integers(0, 2))
            gates.append(
                [
                    lambda: Gate.x(qubits[0]),
                    lambda: Gate.cnot(qubits[0], qubits[1]),
                    lambda: Gate.toffoli(*qubits),
                    lambda: Gate.fredkin(*qubits),
                    lambda: Gate.controlled_opaque(qubits[0], qubits[1:], "0", dagger=dagger),
                    lambda: Gate.controlled_opaque(qubits[0], qubits[1:], "1", dagger=dagger),
                ][kind]()
            )
        moments.append(gates)
    return moments


def _random_states(rng, num_qubits, count):
    """Sparse states with one to six terms and norms between 0.5 and 2, plus
    one empty state."""
    states = [SparseState(num_qubits)]
    for _ in range(count):
        keys = rng.choice(1 << num_qubits, size=int(rng.integers(1, 7)), replace=False)
        scale = rng.uniform(0.5, 2.0)
        amps = rng.standard_normal(len(keys)) + 1j * rng.standard_normal(len(keys))
        amps *= scale / np.linalg.norm(amps)
        states.append(SparseState(num_qubits, dict(zip(keys.tolist(), amps.tolist()))))
    return states


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_batch_agrees_with_both_references(seed):
    """A batch of cases through a random circuit of all five gate kinds: each
    case matches the dense reference amplitude for amplitude, and the sparse
    reference exactly, term order included."""
    rng = np.random.default_rng(seed)
    layout = allocate_registers(1, 1, 1)  # 9 qubits
    unitaries = {
        "0": UnitarySpec("0", _random_unitary(rng, 4)),
        "1": UnitarySpec("1", _random_unitary(rng, 2)),
    }
    circuit = Circuit.from_moments(layout, _random_moment_stream(rng, layout.total_qubits, 14))
    kinds = {g.kind for g in circuit.columns.gates()}
    assert len(kinds) == 5 and any(g.dagger for g in circuit.columns.gates())
    states = _random_states(rng, layout.total_qubits, 8)
    outputs = list(run_batch(states, circuit, unitaries))
    assert len(outputs) == len(states)
    for state, out in zip(states, outputs):
        reference = sparse_run_circuit(state, circuit, unitaries)
        assert list(out.amps.items()) == list(reference.amps.items())
        dense = dense_run_circuit(dense_from_sparse(state), circuit, unitaries)
        assert np.max(np.abs(dense_from_sparse(out) - dense)) < 1e-12
        assert _norm(out) == pytest.approx(_norm(state), abs=1e-10)


def test_batch_rows_hitting_several_blocks_in_one_moment():
    """A term whose controls switch on two opaque blocks of one moment goes
    through both, in the reference's order."""
    rng = np.random.default_rng(4)
    layout = allocate_registers(1, 1, 1)
    unitaries = {
        "0": UnitarySpec("0", _random_unitary(rng, 4)),
        "1": UnitarySpec("1", _random_unitary(rng, 2)),
    }
    circuit = Circuit.from_moments(
        layout,
        [
            [
                Gate.controlled_opaque(0, (1, 2), "0"),
                Gate.controlled_opaque(3, (4,), "1", dagger=True),
                Gate.cnot(5, 6),
            ]
        ],
    )
    both_on = (1 << 0) | (1 << 3) | (1 << 5)
    states = [
        SparseState(9, {both_on: 0.6, both_on | (1 << 4): 0.8j, 1 << 3: 1.0}),
        SparseState(9, {both_on | (1 << 1): 1.0}),
    ]
    for state, out in zip(states, run_batch(states, circuit, unitaries)):
        reference = sparse_run_circuit(state, circuit, unitaries)
        assert list(out.amps.items()) == list(reference.amps.items())
        assert len(out) > len(state)


#: An opaque moment on a 140-qubit layout (three key words per term): two
#: blocks of leaf 0000, blocks of dimensions 2, 4 and 8 (two of them daggered,
#: one with targets in two words), a block whose control no test state sets,
#: and a routing gate.
WIDE = allocate_registers(4, 2, 2)
WIDE_MOMENT = [
    Gate.controlled_opaque(0, (1, 2), "0000"),
    Gate.controlled_opaque(64, (65, 66, 130), "0001", dagger=True),
    Gate.controlled_opaque(70, (3,), "0010"),
    Gate.controlled_opaque(100, (101, 63), "0000", dagger=True),
    Gate.controlled_opaque(139, (5, 6), "0011"),
    Gate.cnot(7, 8),
]
WIDE_CONTROLS = (0, 64, 70, 100)


def _wide_unitaries(rng):
    return {
        leaf: UnitarySpec(leaf, _random_unitary(rng, dim))
        for leaf, dim in (("0000", 4), ("0001", 8), ("0010", 2), ("0011", 4))
    }


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("shared", [False, True], ids=["one-block-per-term", "two-blocks-on-a-term"])
def test_one_pass_moment_matches_sparse_reference(seed, shared, monkeypatch):
    """Every block of a moment goes through one pass: each case equals the
    sparse reference, term order and amplitude bits included.  Terms set at
    most one control, or, in the second run, some set two, which applies the
    blocks one after another.  An empty state passes through."""
    passes = []
    original = sim._Rows._blocks_on

    def counting(rows, blocks, specs, owner):
        passes.append(len(blocks.control))
        return original(rows, blocks, specs, owner)

    monkeypatch.setattr(sim._Rows, "_blocks_on", counting)
    rng = np.random.default_rng(seed)
    unitaries = _wide_unitaries(rng)
    circuit = Circuit.from_moments(WIDE, [[Gate.x(9)], WIDE_MOMENT, [Gate.cnot(0, 10)], WIDE_MOMENT])
    states = [SparseState(WIDE.total_qubits)]
    for _ in range(12):
        amps = {}
        for _ in range(int(rng.integers(1, 9))):
            key = int.from_bytes(rng.bytes(18), "little") & ((1 << 139) - 1)
            for control in WIDE_CONTROLS:
                key &= ~(1 << control)
            on = rng.choice(WIDE_CONTROLS, size=2 if shared and rng.random() < 0.3 else 1, replace=False)
            for control in on.tolist() if rng.random() < 0.8 else []:
                key |= 1 << control
            amps[key] = complex(rng.standard_normal(), rng.standard_normal())
        states.append(SparseState(WIDE.total_qubits, amps))
    outputs = list(run_batch(states, circuit, unitaries))
    assert len(outputs) == len(states) and not outputs[0].amps
    for state, out in zip(states, outputs):
        reference = sparse_run_circuit(state, circuit, unitaries)
        assert list(out.amps.items()) == list(reference.amps.items())
    assert sum(map(len, outputs)) > 2 * sum(map(len, states))
    assert passes == ([1] * 10 if shared else [5, 5])  # one pass per moment, or one per block


@pytest.mark.parametrize(
    "change, error, message",
    [
        ({"0011": None}, ConfigurationError, "no unitary available for opaque block at leaf '0011'"),
        ({"0011": 8}, ShapeError, "unitary for leaf '0011' acts on 3 qubit(s), gate has 2 target(s)"),
        ({"0001": 4, "0011": None}, ShapeError, "unitary for leaf '0001' acts on 2 qubit(s), gate has 3 target(s)"),
        ({"0001": None, "0011": 8}, ConfigurationError, "no unitary available for opaque block at leaf '0001'"),
    ],
)
def test_unitary_faults_are_raised_for_blocks_no_row_switches_on(change, error, message):
    """A missing or mis-sized unitary is refused for every block of the
    moment, hit or not, and the first such block in moment order is named;
    an empty state is refused too."""
    rng = np.random.default_rng(3)
    unitaries = _wide_unitaries(rng)
    for leaf, dim in change.items():
        if dim is None:
            del unitaries[leaf]
        else:
            unitaries[leaf] = UnitarySpec(leaf, _random_unitary(rng, dim))
    circuit = Circuit.from_moments(WIDE, [WIDE_MOMENT])
    for state in (SparseState(WIDE.total_qubits, {1: 1.0}), SparseState(WIDE.total_qubits)):
        with pytest.raises(error) as info:
            run_circuit(state, circuit, unitaries)
        assert str(info.value) == message


@pytest.mark.parametrize("dagger", [False, True])
def test_stacked_matmul_is_each_groups_matvec_bit_for_bit(dagger):
    """What an opaque block computes for its groups, one stacked ``matmul``,
    equals ``matrix @ vector`` for each group bit for bit."""
    rng = np.random.default_rng(11)
    for dim in (2, 4, 8, 16, 32, 64, 128, 256):
        matrix = _random_unitary(rng, dim)
        matrix = matrix.conj().T if dagger else matrix
        vectors = rng.standard_normal((5, dim)) + 1j * rng.standard_normal((5, dim))
        vectors[:, rng.random(dim) < 0.5] = 0
        stacked = np.matmul(matrix[None], vectors[:, :, None])[..., 0]
        assert stacked.tobytes() == np.array([matrix @ vector for vector in vectors]).tobytes(), dim


def _no_permutations(monkeypatch):
    """Turn recognition off: every matrix takes the dense product."""
    def none(stack):
        return np.zeros(stack.shape[:-2], dtype=bool), np.zeros((*stack.shape[:-2], 2, stack.shape[-1]), dtype=np.intp)

    monkeypatch.setattr(sim, "_permutations", none)


def _permutation_states(layout, rng, count=24):
    """Basis states and complex address superpositions on ``layout``, some
    with terms near :data:`~qramforge.sim.PRUNE_TOL`."""
    near = (1 + 1e-6, 1 - 1e-6, 1.0)  # just above, just below and at the tolerance
    states = []
    for i in range(count):
        result, mem = int(rng.integers(0, 1 << layout.m)), [int(rng.integers(0, 1 << k)) for k in layout.k]
        addresses = rng.choice(1 << layout.n, size=1 + i % 4, replace=False).tolist()
        amps = {}
        for j, address in enumerate(addresses):
            key = next(iter(basis_state(layout, address, result, mem).amps))
            phase = complex(rng.standard_normal(), rng.standard_normal())
            scale = 0.5 if j == 0 else sim.PRUNE_TOL * near[j - 1]
            amps[key] = scale * phase / abs(phase) if len(addresses) > 1 else 1.0 + 0j
        states.append(SparseState(layout.total_qubits, amps))
    return states


def _final_rows(states, circuit, unitaries):
    rows = sim._Rows.of_states(states, circuit.layout.total_qubits)
    sim._run_moments(rows, sim._Moments(circuit.columns, circuit.layout.total_qubits), unitaries)
    return rows.words.tobytes(), rows.amps.view(np.float64).tobytes(), rows.case.tobytes()


PERMUTATION_INSTANCES = {
    "table_lookup": lambda: build_table_lookup_instance(3, 3, seed=4),
    "qram": lambda: build_qram_instance(2, 2),
    # cyclic shifts are not their own inverses, as the XOR payloads are
    "cyclic": lambda: build_custom_instance(2, 2, 1, UnitarySpec.stack(
        ["00", "01", "10", "11"], [np.roll(np.eye(8), z + 1, axis=0) for z in range(4)])),
}


@pytest.mark.parametrize("family", sorted(PERMUTATION_INSTANCES))
def test_permutation_gather_matches_the_dense_product(family, monkeypatch):
    """Permutation payloads gather their groups' amplitudes: the rows (words,
    amplitude bits and cases) equal those of the dense product with
    recognition turned off, on plain and daggered blocks, for basis states
    and complex superpositions with terms near the pruning tolerance; so do
    the checkers' reports."""
    build = PERMUTATION_INSTANCES[family]
    gathered = build()
    assert all(spec.source is not None for spec in gathered.unitaries.values())
    with monkeypatch.context() as patch:
        _no_permutations(patch)
        dense = build()
    assert all(spec.source is None for spec in dense.unitaries.values())
    assert dense.unitaries == gathered.unitaries
    layout = gathered.layout()
    circuit = synth_access(layout, gathered.unitaries)
    states = _permutation_states(layout, np.random.default_rng(5))
    for run in (circuit, circuit.adjoint(), concat(circuit, circuit.adjoint())):
        assert any(run.columns.dagger) == (run is not circuit)
        assert _final_rows(states, run, gathered.unitaries) == _final_rows(states, run, dense.unitaries)
    for check in (check_proposition, check_linearity):
        one, other = check(gathered), check(dense)
        assert one.passed
        assert [case.to_dict() for case in one.cases] == [case.to_dict() for case in other.cases]
    for case in check_proposition(gathered, assignments=2).cases:
        assert case.fidelity == 1.0


def test_a_permutation_gather_is_the_matvec_bit_for_bit():
    """Gathering a vector by a permutation's ``source`` gives ``matrix @
    vector`` bit for bit, and ``matrix^H @ vector`` by the second index,
    on vectors of complex amplitudes with exact zeros between them."""
    rng = np.random.default_rng(12)
    for dim in (2, 4, 8, 16, 32, 64, 128):
        matrix = np.eye(dim)[rng.permutation(dim)]
        spec = UnitarySpec("0", matrix)
        vectors = rng.standard_normal((5, dim)) + 1j * rng.standard_normal((5, dim))
        vectors[:, rng.random(dim) < 0.5] = 0
        for source, applied in zip(spec.source, (spec.matrix, spec.matrix.conj().T)):
            expected = np.matmul(applied[None], vectors[:, :, None])[..., 0]
            assert np.take(vectors, source, axis=1).tobytes() == expected.tobytes(), dim


NEAR_PERMUTATIONS = {
    "monomial with -1": np.array([[0, -1], [1, 0]], dtype=complex),
    "monomial with i": np.array([[0, 1j], [1, 0]], dtype=complex),
    "diagonal phases": np.diag([1, -1, 1j, 1]).astype(complex),
    "permutation with a 1e-17 entry": np.array([[0, 1, 1e-17, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
    "permutation with a 1e-17j entry": np.array([[0, 1], [1, 1e-17j]]),
}


@pytest.mark.parametrize("name", sorted(NEAR_PERMUTATIONS))
def test_near_permutations_take_the_dense_product(name, monkeypatch):
    """A unitary that is not exactly 0 or 1 everywhere keeps no ``source``,
    in the constructor and in the stack, and its blocks multiply densely."""
    matrix = NEAR_PERMUTATIONS[name]
    dim = len(matrix)
    assert UnitarySpec("0", matrix).source is None
    assert UnitarySpec.stack(["0", "1"], [matrix, np.eye(dim)])["0"].source is None
    products = []
    matmul = np.matmul
    monkeypatch.setattr(np, "matmul", lambda *args, **kwargs: products.append(1) or matmul(*args, **kwargs))
    layout = allocate_registers(1, dim.bit_length() - 1)
    unitaries = {"0": UnitarySpec("0", matrix), "1": UnitarySpec("1", np.eye(dim))}
    gates = [Gate.controlled_opaque(0, layout.result_qubits, "0"), Gate.controlled_opaque(0, layout.result_qubits, "1")]
    circuit = Circuit.from_moments(layout, [[gate] for gate in gates])
    state = SparseState(layout.total_qubits, {1 | 1 << layout.n: 0.6, 1: 0.8j})
    out = run_circuit(state, circuit, unitaries)
    assert len(products) == 1  # the identity, a permutation, gathers
    expected = dense_run_circuit(dense_from_sparse(state), circuit, unitaries)
    assert np.allclose(dense_from_sparse(out), expected, atol=1e-15)


def test_permutations_are_recognised_once_per_distinct_matrix(monkeypatch):
    """Recognition runs in the payload check, once per distinct matrix, and
    never while the blocks are applied."""
    seen = []
    permutations = sim._permutations
    monkeypatch.setattr(sim, "_permutations", lambda stack: seen.append(len(stack)) or permutations(stack))
    instance = build_table_lookup_instance(3, 2, table=[0, 1, 1, 2, 2, 2, 3, 0])
    assert sum(seen) == 4
    UnitarySpec.stack(["0", "1", "10"], [np.eye(4)] * 2 + [np.diag([1, -1, 1, 1])])
    assert sum(seen) == 6
    UnitarySpec("0", np.eye(2))
    assert sum(seen) == 7
    assert check_proposition(instance, assignments=4).passed and check_linearity(instance).passed
    assert check_variant_agreement(instance).passed
    assert sum(seen) == 7


def test_opaque_targets_are_register_bit_fields():
    """A synthesized payload block acts on its leaf's res register, then its
    mem register: two runs of consecutive qubits, the low ``m`` and the next
    ``k`` bits of the target index.  A leaf without memory has one run, and
    its second field is 0 bits wide."""
    instance = build_random_instance(2, 2, [0, 1, 3, 2], seed=1)
    layout = instance.layout()
    moments = sim._Moments(synth_access(layout, instance.unitaries).columns, layout.total_qubits)
    (blocks,) = [blocks for blocks in moments.blocks if blocks is not None]
    assert sorted(blocks.leaf.tolist()) == list(layout.leaves)
    for leaf, fields in zip(blocks.leaf.tolist(), blocks.fields.tolist()):
        mem = layout.mem(leaf)
        assert fields == [[layout.res(leaf)[0], 2, 0], [mem[0], len(mem), 2] if mem else [0, 0, 0]]


#: Blocks whose targets are several runs: one run across the boundary of
#: the first two words, three runs of one qubit out of order, and the last
#: qubit of the layout followed by a low one.
RUNS_MOMENT = [
    Gate.controlled_opaque(0, (62, 63, 64), "0001"),
    Gate.controlled_opaque(1, (10, 12, 11), "0001", dagger=True),
    Gate.controlled_opaque(2, (139, 5), "0000"),
    Gate.toffoli(3, 4, 6),
]


@pytest.mark.parametrize("seed", [0, 1])
def test_opaque_blocks_with_several_runs_match_sparse_reference(seed):
    """Target runs across a word boundary and out of order give each case
    the sparse reference's terms, in its order and bit for bit."""
    rng = np.random.default_rng(seed)
    unitaries = _wide_unitaries(rng)
    circuit = Circuit.from_moments(WIDE, [RUNS_MOMENT, [Gate.x(70)], RUNS_MOMENT])
    states = []
    for _ in range(10):
        amps = {}
        for _ in range(int(rng.integers(1, 6))):
            key = int.from_bytes(rng.bytes(18), "little") & ((1 << 140) - 1) & ~0b111
            amps[key | 1 << int(rng.integers(0, 3))] = complex(rng.standard_normal(), rng.standard_normal())
        states.append(SparseState(WIDE.total_qubits, amps))
    for state, out in zip(states, run_batch(states, circuit, unitaries)):
        reference = sparse_run_circuit(state, circuit, unitaries)
        assert list(out.amps.items()) == list(reference.amps.items())
        assert len(out) > len(state)


@pytest.mark.parametrize(
    "instance, options",
    [
        (build_table_lookup_instance(4, 6, seed=2), SynthesisOptions()),  # 232 qubits
        (build_random_instance(2, 2, 1, seed=6), SynthesisOptions(variant="fanout", fanout_block=1)),
    ],
    ids=["table_lookup-n4-m6", "random-fanout"],
)
def test_batch_matches_sparse_reference_on_wide_circuits(instance, options):
    """Circuits too wide for a dense vector: every case's final state equals
    the sparse reference's, term order included."""
    circuit = synth_access(instance.layout(), instance.unitaries, options)
    layout = circuit.layout
    rng = np.random.default_rng(9)
    states = []
    for _ in range(24):
        address, result = int(rng.integers(0, 1 << layout.n)), int(rng.integers(0, 1 << layout.m))
        mem = [int(rng.integers(0, 1 << width)) for width in layout.k]
        other = int(rng.integers(0, 1 << layout.n))
        states.append(basis_state(layout, address, result, mem))
        states.append(
            superpose(
                [
                    (0.6, basis_state(layout, address, result, mem)),
                    (0.8j, basis_state(layout, other ^ 1, result, mem)),
                ]
            )
        )
    for state, out in zip(states, run_batch(states, circuit, instance.unitaries)):
        reference = sparse_run_circuit(state, circuit, instance.unitaries)
        assert list(out.amps.items()) == list(reference.amps.items())


def test_batch_does_not_depend_on_the_routing_slice_size(monkeypatch):
    """Routing runs over slices of rows; slices of 64 rows, the smallest,
    give the same states as the default size."""
    instance = build_random_instance(2, 2, 1, seed=8)
    circuit = synth_access(instance.layout(), instance.unitaries)
    layout = circuit.layout
    states = [
        basis_state(layout, y, r, [m] * len(layout.leaves))
        for y in range(1 << layout.n) for r in range(1 << layout.m) for m in (0, 1)
    ]
    default = [list(s.amps.items()) for s in run_batch(states, circuit, instance.unitaries)]
    monkeypatch.setattr(sim, "_SLICE_BYTES", 8)
    sliced = [list(s.amps.items()) for s in run_batch(states, circuit, instance.unitaries)]
    assert sum(map(len, sliced)) > 3 * 64  # the routing after the payload spans several slices
    assert sliced == default
    assert default == [
        list(sparse_run_circuit(s, circuit, instance.unitaries).amps.items()) for s in states
    ]


@pytest.mark.parametrize("n, m, variant", [(3, 2, "sequential"), (3, 4, "fanout")])
def test_routing_matches_sparse_reference_on_random_keys(n, m, variant):
    """Every routing moment of an access circuit, on random keys over all
    of its qubits: row counts around a 64-row plane word and just above one
    slice give the sparse reference's terms, in order.  The moments up to
    the payload layer and those after it run as two circuits, since each
    undoes the other; each moves every key."""
    instance = build_random_instance(n, m, 1, seed=3)
    circuit = synth_access(instance.layout(), instance.unitaries, SynthesisOptions(variant=variant))
    moments = [[g for g in moment if g.kind is not GateKind.OPAQUE] for moment in circuit.moments]
    run = min(i for i, moment in enumerate(circuit.moments) if len(moment) > len(moments[i]))
    halves = [Circuit.from_moments(circuit.layout, part) for part in (moments[:run], moments[run:])]
    assert {g.kind for moment in moments for g in moment} >= {
        GateKind.X, GateKind.CNOT, GateKind.TOFFOLI, GateKind.FREDKIN
    }
    qubits = circuit.layout.total_qubits
    slice_rows = 64 * (sim._SLICE_BYTES // (8 * (64 * -(-qubits // 64) + 2)))
    rng = random.Random(n * m)
    for count in (1, 63, 64, 65, 129, slice_rows + 1):
        keys: dict[int, complex] = {}
        while len(keys) < count:
            keys[rng.getrandbits(qubits)] = complex(rng.random(), rng.random())
        state = SparseState(qubits, keys)
        for half in halves:
            out = run_circuit(state, half)
            assert list(out.amps.items()) == list(sparse_run_circuit(state, half).amps.items())
            assert all(after != before for after, before in zip(out.amps, keys))
