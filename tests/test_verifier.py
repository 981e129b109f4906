"""Verifier tests: hand-checked oracle values, an independent matrix-exponential
route for the rotation family, and negative controls that must fail."""

import json
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import helpers
import qramforge.sim as sim
import qramforge.verifier as verifier
from qramforge import (
    Circuit,
    ConfigurationError,
    Gate,
    InvalidParameterError,
    ResourceLimitError,
    StructuralError,
    SynthesisOptions,
    UnitarySpec,
    allocate_registers,
    basis_state,
    build_custom_instance,
    build_instance,
    build_qram_instance,
    build_random_instance,
    build_rotation_instance,
    build_table_lookup_instance,
    check_linearity,
    check_proposition,
    check_variant_agreement,
    oracle_effect,
    oracle_superposition,
    extract_data_state,
    run_batch,
    superpose,
    synth_access,
    SparseState,
)
from qramforge.verifier import DEFAULT_SEED, CaseResult, VerificationReport

X = np.array([[0.0, 1.0], [1.0, 0.0]])

GOLDEN_REPORTS = Path(__file__).parent / "data" / "verifier_reports.json"


# ---------------------------------------------------------------------------
# reference semantics
# ---------------------------------------------------------------------------


def test_oracle_qram_hand_values():
    inst = build_qram_instance(1, 1)
    # address 1 selects leaf "1" holding s=1; result 1 -> 1 XOR 1 = 0
    assert oracle_effect(inst, 1, 1, (0, 1)) == {(1, 0, (0, 1)): 1.0 + 0j}
    # address 0 selects leaf "0" holding s=1; result 0 -> 1; memory untouched
    assert oracle_effect(inst, 0, 0, (1, 0)) == {(0, 1, (1, 0)): 1.0 + 0j}
    # default memory is all zeros
    assert oracle_effect(inst, 0, 1) == {(0, 1, (0, 0)): 1.0 + 0j}


def test_oracle_table_lookup_hand_values():
    inst = build_table_lookup_instance(2, 2, table=[2, 3, 0, 1])
    assert oracle_effect(inst, 1, 1) == {(1, 1 ^ 3, (0, 0, 0, 0)): 1.0 + 0j}
    assert oracle_effect(inst, 2, 3) == {(2, 3, (0, 0, 0, 0)): 1.0 + 0j}
    assert inst.params["table"] == [2, 3, 0, 1]


def test_rotation_matrix_matches_matrix_exponential():
    """The rotation family's blocks must equal exp(-i*pi*mu*X) computed by an
    independent route (scipy's expm), block by block."""
    fraction_bits = 3
    inst = build_rotation_instance(1, fraction_bits)
    matrix = inst.unitaries["0"].matrix
    for s in range(1 << fraction_bits):
        mu = sum(((s >> j) & 1) * 2.0 ** -(j + 1) for j in range(fraction_bits))
        expected = scipy.linalg.expm(-1j * np.pi * mu * X)
        rows = [s << 1, (s << 1) | 1]
        block = matrix[np.ix_(rows, rows)]
        assert np.max(np.abs(block - expected)) < 1e-12
    # nothing outside the blocks: the matrix is block-diagonal in the fraction
    mask = np.ones_like(matrix, dtype=bool)
    for s in range(1 << fraction_bits):
        rows = [s << 1, (s << 1) | 1]
        mask[np.ix_(rows, rows)] = False
    assert np.max(np.abs(matrix[mask])) == 0.0


def test_oracle_rotation_amplitudes():
    inst = build_rotation_instance(1, 2)
    # mem value 2 at leaf "0": bit 1 set -> mu = 1/4
    out = oracle_effect(inst, 0, 0, (2, 0))
    mu = 0.25
    assert out[(0, 0, (2, 0))] == pytest.approx(np.cos(np.pi * mu))
    assert out[(0, 1, (2, 0))] == pytest.approx(-1j * np.sin(np.pi * mu))
    assert len(out) == 2


def test_oracle_superposition():
    inst = build_qram_instance(1, 1)
    amp = 1 / np.sqrt(2)
    out = oracle_superposition(inst, [(amp, 0), (amp, 1)], 0, (1, 0))
    assert out == {
        (0, 1, (1, 0)): pytest.approx(amp),
        (1, 0, (1, 0)): pytest.approx(amp),
    }
    # exact cancellation filters the entry out
    assert oracle_superposition(inst, [(amp, 0), (-amp, 0)]) == {}
    assert oracle_superposition(inst, []) == {}


def test_oracle_validation():
    inst = build_qram_instance(1, 1)
    with pytest.raises(InvalidParameterError):
        oracle_effect(inst, 2, 0)
    with pytest.raises(InvalidParameterError):
        oracle_effect(inst, 0, 2)
    with pytest.raises(InvalidParameterError):
        oracle_effect(inst, 0, 0, (0,))  # one value per leaf
    with pytest.raises(InvalidParameterError):
        oracle_effect(inst, 0, 0, (0, 2))  # leaf register is one bit


def test_oracle_refuses_registers_that_are_not_ints():
    """An address or result that is a float or a bool is refused like one
    out of range, in the package's one wording for integer inputs."""
    inst = build_qram_instance(1, 1)
    for args, message in [
        ((1.0, 0), "address values are integers in [0, 2), got 1.0"),
        ((True, 0), "address values are integers in [0, 2), got True"),
        ((np.int64(1), 0), "address values are integers in [0, 2), got np.int64(1)"),
        ((0, 1.0), "result values are integers in [0, 2), got 1.0"),
        ((0, False), "result values are integers in [0, 2), got False"),
        ((2, 0), "address values are integers in [0, 2), got 2"),
        ((0, -1), "result values are integers in [0, 2), got -1"),
    ]:
        with pytest.raises(InvalidParameterError) as excinfo:
            oracle_effect(inst, *args)
        assert str(excinfo.value) == message
    with pytest.raises(InvalidParameterError, match=r"address values are integers in \[0, 2\), got 0.0"):
        oracle_superposition(inst, [(1, 0.0)])


# ---------------------------------------------------------------------------
# instance builders
# ---------------------------------------------------------------------------


def test_random_instance_is_deterministic_and_leafwise_distinct():
    a = build_random_instance(2, 1, 1, seed=3)
    b = build_random_instance(2, 1, 1, seed=3)
    assert a.unitaries == b.unitaries
    c = build_random_instance(2, 1, 1, seed=4)
    assert a.unitaries != c.unitaries
    matrices = [a.unitaries[z].matrix for z in ("00", "01", "10", "11")]
    for i in range(len(matrices)):
        for j in range(i + 1, len(matrices)):
            assert not np.array_equal(matrices[i], matrices[j])
    for mat in matrices:
        assert np.max(np.abs(mat.conj().T @ mat - np.eye(4))) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_random_payloads_equal_the_per_leaf_reference_bit_for_bit(n):
    """Stacked QR over chunks of same-size leaves gives each leaf the matrix
    of its own QR, bit for bit.  Per-leaf sizes are mixed, and leaf 0 is
    256-dimensional, so chunks of one matrix and of many both occur."""
    for m in (1, 2, 3):
        for seed in (0, 1, 2):
            rng = np.random.default_rng([n, m, seed])
            k = [8 - m] + [int(width) for width in rng.integers(0, 3, (1 << n) - 1)]
            instance = build_random_instance(n, m, k, seed=seed)
            reference = helpers.reference_random_payloads(n, m, k, seed)
            for z, expected in enumerate(reference):
                got = instance.unitaries[format(z, f"0{n}b")].matrix
                assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), (m, seed, z)


#: ``tracemalloc``'s peak, in bytes, of ``build_random_instance(6, 3, 1)``
#: (after a first call) with the per-leaf QR loop, at numpy 2.4.
PER_LEAF_PAYLOAD_PEAK = 765408


def test_stacked_payloads_take_no_more_memory_than_the_per_leaf_loop():
    import tracemalloc

    build_random_instance(6, 3, 1)
    tracemalloc.start()
    try:
        build_random_instance(6, 3, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= PER_LEAF_PAYLOAD_PEAK


def test_build_instance_dispatch():
    assert build_instance("qram", 2, 1).family == "qram"
    assert build_instance("qram", 2, 1).k == (1, 1, 1, 1)
    assert build_instance("table_lookup", 2, 2, table=[0, 1, 2, 3]).k == (0,) * 4
    rot = build_instance("rotation", 1, 2)
    assert rot.m == 1 and rot.k == (2, 2)
    rand = build_instance("random", 1, 1, 2, seed=9)
    assert rand.k == (2, 2) and rand.params["seed"] == 9
    with pytest.raises(InvalidParameterError):
        build_instance("qft", 1, 1)
    with pytest.raises(InvalidParameterError):
        build_instance("qram", 1, 1, 0)  # qram fixes k = m
    with pytest.raises(InvalidParameterError):
        build_instance("table_lookup", 1, 1, 1)  # lookup fixes k = 0
    with pytest.raises(InvalidParameterError):
        build_instance("rotation", 1, 2, 2)  # rotation derives k itself


def test_builder_validation():
    with pytest.raises(InvalidParameterError):
        build_table_lookup_instance(1, 1, table=[0, 1, 0])  # wrong length
    with pytest.raises(InvalidParameterError):
        build_table_lookup_instance(1, 1, table=[0, 2])  # entry overflows m bits
    with pytest.raises(InvalidParameterError):
        build_rotation_instance(1, 0)
    with pytest.raises(ConfigurationError):
        build_custom_instance(1, 1, 0, {"0": UnitarySpec("0", np.eye(2))})


def test_describe_mentions_sizes():
    assert build_qram_instance(2, 1).describe() == "qram(n=2, m=1, k=1)"
    text = build_instance("random", 1, 1, [1, 2], seed=5).describe()
    assert text.startswith("random(n=1, m=1, k=[1, 2]")
    assert "seed=5" in text


# ---------------------------------------------------------------------------
# bridging simulated states to reference keys
# ---------------------------------------------------------------------------


def test_extract_data_state_splits_residual():
    layout = allocate_registers(1, 1, 0)
    data_key = (1 << layout.address_qubits[0]) | (1 << layout.result_qubits[0])
    dirty_key = data_key | (1 << layout.life("0"))
    state = SparseState(layout.total_qubits, {data_key: 0.8, dirty_key: 0.6})
    data, residual = extract_data_state(state, layout)
    assert data == {(1, 1, (0, 0)): 0.8 + 0j}
    assert residual == pytest.approx(0.36)


def test_extract_data_state_refuses_a_state_of_another_layout():
    """A state on more or fewer qubits than the layout is refused, where its
    extra qubits would otherwise read as clean data."""
    layout = allocate_registers(1, 1)
    for num_qubits in (layout.total_qubits + 3, layout.total_qubits - 1):
        state = SparseState(num_qubits, {1 << (num_qubits - 2): 1.0})
        with pytest.raises(StructuralError) as excinfo:
            extract_data_state(state, layout)
        assert str(excinfo.value) == f"state has {num_qubits} qubits, layout expects {layout.total_qubits}"


def assert_same_data(actual: dict, expected: dict) -> None:
    """The same keys in the same order, and amplitudes of the same bytes,
    signed zeros included."""
    assert list(actual) == list(expected)
    assert {type(value) for value in actual.values()} <= {complex}
    values = [np.array(list(out.values()), dtype=complex).tobytes() for out in (actual, expected)]
    assert values[0] == values[1]


def signed_zero_instance():
    """A custom payload whose entries carry signed zeros: ``-i`` as
    ``complex(-0.0, -1.0)``, which a product with 1 would turn into ``-1j``."""
    diagonal = np.array([[complex(-0.0, -1.0), complex(0.0, -0.0)], [complex(-0.0, 0.0), complex(-0.0, -1.0)]])
    swap = np.array([[0.0, complex(-0.0, 1.0)], [complex(1.0, -0.0), -0.0]])
    return build_custom_instance(1, 1, 0, {"0": UnitarySpec("0", diagonal), "1": UnitarySpec("1", swap)})


ONE_CASE_INSTANCES = {
    "qram": lambda: build_qram_instance(2, 1),
    "lookup": lambda: build_table_lookup_instance(3, 2, seed=4),
    "rotation": lambda: build_rotation_instance(2, 2),
    "random-per-leaf-k": lambda: build_random_instance(2, 2, [1, 0, 2, 1], seed=9),
    "random-wide-memory": lambda: build_random_instance(5, 1, 3, seed=2),
    "signed-zeros": signed_zero_instance,
}


@pytest.mark.parametrize("family", list(ONE_CASE_INSTANCES))
def test_one_case_calls_equal_the_per_case_references(family):
    """The public oracle and data-state reader, one-case calls of the column
    code, give the per-case references' keys in order, amplitude bytes and
    residual floats: on every basis input, on superpositions that repeat an
    address (to cancel or to add), put a zero amplitude first or cover
    every address, and on simulated and hand-made states."""
    instance = ONE_CASE_INSTANCES[family]()
    n, m = instance.n, instance.m
    rng = np.random.default_rng(len(family))
    mems = [None, tuple(int(rng.integers(0, 1 << width)) for width in instance.k)]
    for address in range(1 << n):
        for result in (0, (1 << m) - 1):
            for mem in mems:
                assert_same_data(oracle_effect(instance, address, result, mem),
                                 helpers.reference_oracle_effect(instance, address, result, mem))
    a, last = 1 / np.sqrt(2), (1 << n) - 1
    superpositions = [
        [(a, 0), (a, last)],
        [(a, 0), (-a, 0)],
        [(0.6, last), (0.8j, last)],
        [(0, last), (1, 0), (0.5 - 0.5j, last)],
        [(complex(*rng.standard_normal(2)), int(y)) for y in rng.integers(0, 1 << n, 5)],
        [(1 / np.sqrt(1 << n), y) for y in range(1 << n)],
        [],
    ]
    for terms in superpositions:
        for mem in mems:
            assert_same_data(oracle_superposition(instance, terms, 1, mem),
                             helpers.reference_oracle_superposition(instance, terms, 1, mem))
    assert oracle_superposition(instance, [(a, 0), (-a, 0)]) == {}

    circuit = synth_access(instance.layout(), instance.unitaries)
    layout = circuit.layout
    states = [basis_state(layout, y, 1, mems[1]) for y in range(1 << n)]
    states.append(superpose([(a, basis_state(layout, 0)), (a, basis_state(layout, last, 0, mems[1]))]))
    keys = np.unique(rng.integers(0, 1 << min(layout.total_qubits, 62), 30)).tolist()
    amps = rng.standard_normal(len(keys)) + 1j * rng.standard_normal(len(keys))
    made = [SparseState(layout.total_qubits, dict(zip(keys, (amps / np.linalg.norm(amps)).tolist()))),
            SparseState(layout.total_qubits)]
    for state in [*run_batch(states, circuit, instance.unitaries), *made]:
        (data, residual), (expected, expected_residual) = (
            extract_data_state(state, layout), helpers.reference_extract_data_state(state, layout))
        assert_same_data(data, expected)
        assert type(residual) is float and residual.hex() == expected_residual.hex()


@pytest.mark.parametrize("n, m, k", [(1, 70, [0, 130]), (2, 50, [65, 0, 3, 64])])
def test_extract_data_state_reads_registers_wider_than_a_word(n, m, k):
    """A bare layout whose result and memory registers are wider than 64
    bits reads as the per-key reference does."""
    layout = allocate_registers(n, m, k)
    total, rng = layout.total_qubits, np.random.default_rng(m)
    keys = [0, (1 << total) - 1, layout.data_mask, layout.data_mask >> 1]
    keys += [int.from_bytes(rng.bytes(-(-total // 8)), "little") & layout.data_mask for _ in range(6)]
    state = SparseState(total, {key: complex(0.1 * i, -0.05 * i) for i, key in enumerate(dict.fromkeys(keys))})
    (data, residual), (expected, expected_residual) = (
        extract_data_state(state, layout), helpers.reference_extract_data_state(state, layout))
    assert_same_data(data, expected)
    assert residual.hex() == expected_residual.hex()
    assert any(value >= 1 << 64 for _, r, mem in data for value in (r, *mem))


def test_the_reader_tests_the_ancilla_words_over_several_passes():
    """A batch on a layout of 32 words, 28 of them holding ancillas, large
    enough that the words are tested over several passes.  Every ancilla word
    holds the one set ancilla bit of some term; each case's residual is the
    weight of its dirty terms, added in order in Python, and its clean terms
    read as the per-key reference reads them."""
    layout = allocate_registers(8, 2, 1)
    total, rng = layout.total_qubits, np.random.default_rng(8)
    reader = verifier._Reader(layout, verifier._Keys(layout))
    ancillas = ((1 << total) - 1) ^ layout.data_mask
    bits = [[b for b in range(64 * w, min(64 * w + 64, total)) if ancillas >> b & 1] for w in range(-(-total // 64))]
    dirty = [int(rng.choice(word)) for word in bits if word] * 3
    assert len(reader.words) == len(dirty) // 3 == 28
    states = []
    for case in range(40):
        keys = [int.from_bytes(rng.bytes(-(-total // 8)), "little") & layout.data_mask for _ in range(15)]
        for slot in rng.choice(15, 3, replace=False).tolist():
            keys[slot] |= 1 << dirty.pop() if dirty else 0
        amps = rng.standard_normal(15) + 1j * rng.standard_normal(15)
        states.append(SparseState(total, dict(zip(keys, amps.tolist()))))
    rows = sim._Rows.of_states(states, total)
    assert sim._CHUNK_BYTES // (8 * len(rows.case)) < len(reader.words) / 2  # three passes or more
    data = reader.read(rows)
    for case, state in enumerate(states):
        weight = 0.0
        for key, amp in state.amps.items():
            if key & ancillas:
                weight += abs(amp) ** 2
        assert data.residual[case] == weight
        mine = data.case == case
        expected, _ = helpers.reference_extract_data_state(state, layout)
        assert_same_data(dict(zip(reader.keys.decode(data.key[:, mine]), data.amp[mine].tolist())), expected)
    assert not dirty


# ---------------------------------------------------------------------------
# the checkers
# ---------------------------------------------------------------------------


def test_check_proposition_exhaustive_case_count():
    report = check_proposition(build_qram_instance(2, 1))
    # 4 addresses x every (result, mem) assignment = 4 x 32
    assert len(report.cases) == 128
    assert report.passed
    assert report.min_fidelity == pytest.approx(1.0, abs=1e-12)
    assert report.max_residual <= 1e-12
    assert report.check == "proposition"
    assert report.cases[0].label.startswith("y=00 r=0 mem=")


def test_check_proposition_custom_cases():
    report = check_proposition(build_qram_instance(1, 1), cases=[(1, 0, None)])
    assert len(report.cases) == 1
    assert report.passed


def test_check_proposition_rejects_mismatched_circuit():
    inst = build_qram_instance(1, 1)
    other = build_qram_instance(2, 1)
    circuit = synth_access(other.layout(), other.unitaries)
    with pytest.raises(InvalidParameterError):
        check_proposition(inst, circuit=circuit)


def test_check_proposition_detects_tampering():
    """Dropping the opening moment of the circuit must be caught."""
    inst = build_qram_instance(1, 1)
    circuit = synth_access(inst.layout(), inst.unitaries)
    tampered = Circuit.from_moments(circuit.layout, circuit.moments[1:])
    report = check_proposition(inst, circuit=tampered)
    assert not report.passed
    assert "FAIL" in report.summary()


def test_check_proposition_detects_wrong_payloads():
    """A circuit carrying one instance's payloads must not verify against
    another instance's semantics."""
    built_from = build_random_instance(1, 1, 1, seed=1)
    claimed = build_random_instance(1, 1, 1, seed=2)
    circuit = synth_access(built_from.layout(), built_from.unitaries)
    report = check_proposition(
        claimed, circuit=circuit, circuit_unitaries=built_from.unitaries
    )
    assert not report.passed


def test_report_serialization():
    report = check_proposition(build_qram_instance(1, 1))
    data = report.to_dict()
    assert data["passed"] is True
    assert data["num_cases"] == len(report.cases) == 16
    assert data["instance"] == "qram(n=1, m=1, k=1)"
    assert data["fidelity_tolerance"] == 1e-10
    assert data["residual_tolerance"] == 1e-12
    assert len(data["cases"]) == 16
    assert json.loads(json.dumps(data)) == data  # as the CLI's --report writes it
    table = report.format_table()
    assert report.summary() in table
    assert report.summary().startswith("PASS proposition on qram")
    assert table.count("pass") >= 16


def _reference_table(report) -> str:
    """The report table as one f-string per case."""
    width = max(max(len(case.label) for case in report.cases), len("case"))
    lines = [f"{'case':<{width}}  {'fidelity':>18}  {'residual':>12}  {'mem':>5}  ok", "-" * (width + 48)]
    for case in report.cases:
        lines.append(f"{case.label:<{width}}  {case.fidelity:>18.12f}  {case.ancilla_residual:>12.3e}  "
                     f"{'yes' if case.mem_invariant else 'NO':>5}  {'pass' if case.passed else 'FAIL'}")
    return "\n".join([*lines, report.summary()])


def test_format_table_renders_each_case_as_the_f_string_reference():
    """The one template joined over the cases gives the per-case f-strings'
    bytes, on real reports and on floats a check can report: NaN,
    infinities, signed zeros, subnormals, and labels of every width."""
    reports = [check_variant_agreement(build_random_instance(2, 1, 1, seed=3)),
               check_linearity(build_qram_instance(2, 1), num_cases=3)]
    values = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, 1 - 1e-13, 1e300, 0.999999999999995]
    cases = [
        CaseResult("y=" + "01" * i, values[i % len(values)], values[(3 * i) % len(values)], i % 3 > 0, i % 2 > 0)
        for i in range(20)
    ]
    reports.append(VerificationReport("x", "proposition", {}, 1e-10, 1e-12, cases, 0.25))
    reports.append(VerificationReport("x", "proposition", {}, 1e-10, 1e-12, cases[:1], 0.25))  # a label under "case"
    for report in reports:
        assert report.format_table() == _reference_table(report)


def test_check_linearity_passes():
    report = check_linearity(build_qram_instance(2, 1), num_cases=5, seed=11)
    assert report.check == "linearity"
    assert len(report.cases) == 6  # five two-term cases plus the uniform one
    assert report.passed
    assert report.cases[-1].label == "uniform over addresses"
    assert report.min_fidelity >= 1 - 1e-10


def test_check_linearity_single_address_tree():
    # n = 1 still exercises superpositions over both addresses
    report = check_linearity(build_rotation_instance(1, 1), num_cases=3, seed=2)
    assert report.passed


def test_check_variant_agreement():
    report = check_variant_agreement(build_qram_instance(2, 2), assignments=2, seed=4)
    assert report.check == "variant_agreement"
    assert report.options["block_sizes"] == [1, 2]
    # two block sizes x 4 addresses x 2 assignments
    assert len(report.cases) == 16
    assert report.passed
    assert report.cases[0].label.startswith("s=1 ")


def test_check_variant_agreement_runs_each_case_once_on_the_sequential_circuit(monkeypatch):
    """One sequential run per case serves every block size: 1 + |S| runs per
    case, not 2 |S|, and each circuit's cases go through it as one batch."""
    import qramforge.verifier as verifier

    batches = []
    original = verifier._simulate

    def counting_simulate(run, cases):
        batches.append((run.circuit.metadata.get("variant"), cases.num_cases))
        return original(run, cases)

    monkeypatch.setattr(verifier, "_simulate", counting_simulate)
    report = check_variant_agreement(build_qram_instance(2, 2), assignments=2, seed=4)
    assert report.passed
    cases_per_block = 8  # 4 addresses x 2 assignments
    assert len(report.cases) == 2 * cases_per_block
    assert batches == [
        ("sequential", cases_per_block),
        ("fanout", cases_per_block),
        ("fanout", cases_per_block),
    ]


def test_check_proposition_fanout_variant():
    report = check_proposition(
        build_qram_instance(2, 2),
        SynthesisOptions(variant="fanout", fanout_block=1),
        assignments=2,
    )
    assert report.passed
    assert report.options["variant"] == "fanout"
    assert report.options["fanout_block"] == 1


def test_empty_case_lists_are_rejected():
    inst = build_qram_instance(1, 1)
    with pytest.raises(InvalidParameterError, match="no cases"):
        check_proposition(inst, cases=[])
    for assignments in (0, -3):  # 2**(1 + 12) (result, mem) assignments: none enumerated
        with pytest.raises(InvalidParameterError, match="no cases"):
            check_proposition(build_random_instance(2, 1, 3), assignments=assignments)
    # a negative count of two-term superpositions leaves the uniform one
    assert [case.label for case in check_linearity(inst, num_cases=-1).cases] == ["uniform over addresses"]
    with pytest.raises(InvalidParameterError, match="no cases"):
        check_variant_agreement(inst, block_sizes=[])


# ---------------------------------------------------------------------------
# pinned reports
# ---------------------------------------------------------------------------


def report_instances() -> list:
    return [
        build_random_instance(2, 1, 1, seed=3),
        build_table_lookup_instance(2, 2, seed=5),
        build_rotation_instance(1, 2),
    ]


def checker_reports(instances=None) -> dict:
    """Every checker's report, minus its wall time, on three small instances
    (:func:`report_instances` unless given).

    The result is pinned in ``tests/data/verifier_reports.json``: case order,
    labels, the seeded draws and the exact fidelity and residual floats. To
    regenerate it after a deliberate change of the reports, run from the
    repository root::

        PYTHONPATH=src:tests python -c "import test_verifier; test_verifier.write_golden_reports()"
    """
    reports = {}
    for inst in instances or report_instances():
        runs = [
            check_proposition(inst, assignments=6, seed=11),
            check_linearity(inst, num_cases=4, seed=11),
            check_variant_agreement(inst, assignments=6, seed=11),
        ]
        for report in runs:
            data = report.to_dict()
            del data["wall_seconds"]
            reports.setdefault(report.instance, {})[report.check] = data
    return reports


def golden_text(reports: dict) -> str:
    return json.dumps(reports, indent=1) + "\n"


def write_golden_reports() -> None:
    GOLDEN_REPORTS.write_text(golden_text(checker_reports()))


def test_checker_reports_match_golden_file():
    """Byte for byte: an int 0 would equal a pinned 0.0 as a value."""
    assert golden_text(checker_reports()) == GOLDEN_REPORTS.read_text()


def test_checker_reports_do_not_depend_on_the_batch_budget(monkeypatch):
    """Under a budget that splits each checker circuit's cases into several
    batches, every report still equals the pinned one."""
    import qramforge.verifier as verifier

    sizes = []
    original = verifier._batches

    def counting_batches(*args):
        for cases in original(*args):
            sizes.append(cases.num_cases)
            yield cases

    monkeypatch.setattr(verifier, "_batches", counting_batches)
    # the instances' payloads (up to 1 KiB) are built under the default budget
    instances = report_instances()
    monkeypatch.setattr(sim, "BATCH_BUDGET_BYTES", 512)
    assert golden_text(checker_reports(instances)) == GOLDEN_REPORTS.read_text()
    assert max(sizes) <= 5 < sum(sizes)


# ---------------------------------------------------------------------------
# payload budget
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_random_instance(1, 4, 14),
        lambda: build_random_instance(16, 2, 6),
        lambda: build_qram_instance(10, 4),
        lambda: build_table_lookup_instance(16, 8),
        lambda: build_rotation_instance(2, 14),
        lambda: build_instance("random", 1, 4, [0, 14]),
    ],
    ids=["random-k14", "random-n16", "qram-n10-m4", "lookup-n16-m8", "rotation-f14", "random-mixed-k"],
)
def test_oversized_payloads_are_refused_before_any_allocation(build):
    """Σ_z 4**(m + k_z) x 16 bytes of payload matrices past the simulator's
    budget raise ResourceLimitError before any matrix exists."""
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="payload matrices") as info:
            build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert info.value.requested > info.value.limit == sim.BATCH_BUDGET_BYTES
    assert peak < 4 << 20  # the k tuple of 2**16 leaves, no matrix


def test_payload_budget_is_the_sum_over_leaves(monkeypatch):
    # two leaves with 2x2 matrices and two with 4x4: 2*64 + 2*256 bytes
    needed = 2 * 16 * 4 + 2 * 16 * 16
    monkeypatch.setattr(sim, "BATCH_BUDGET_BYTES", needed)
    assert len(build_random_instance(2, 1, [0, 1, 0, 1]).unitaries) == 4
    monkeypatch.setattr(sim, "BATCH_BUDGET_BYTES", needed - 1)
    with pytest.raises(ResourceLimitError) as info:
        build_random_instance(2, 1, [0, 1, 0, 1])
    assert info.value.requested == needed
    # a lone matrix is checked by its row count, before it is copied
    monkeypatch.setattr(sim, "BATCH_BUDGET_BYTES", 16 * 64 - 1)
    for matrix in (np.eye(8), np.eye(8).tolist()):
        with pytest.raises(ResourceLimitError, match="8-row matrix"):
            UnitarySpec("0", matrix)
    monkeypatch.setattr(sim, "BATCH_BUDGET_BYTES", 16 * 64)
    assert UnitarySpec("0", np.eye(8)).dim == 8


# ---------------------------------------------------------------------------
# cases as columns, against the case-by-case reference
# ---------------------------------------------------------------------------


def column_cases(instance, assignments, seed, step):
    """The checker's basis cases as ``(address, result, mem)`` tuples and
    labels, generated ``step`` cases at a time."""
    import qramforge.verifier as verifier

    keys = verifier._Keys(instance)
    count, take = verifier._basis_cases(instance, keys, assignments, seed)
    out, labels = [], []
    leaves = len(instance.k)
    for cases in verifier._batches(np.ones(count, dtype=np.int64), step, take):
        # every leaf's register of every case in one read: a field per column
        columns = np.repeat(np.arange(cases.num_cases), leaves)
        mem = keys.leaf_value(cases.mem, columns, np.tile(np.arange(leaves), cases.num_cases))
        out.extend(zip(cases.address.tolist(), cases.result.tolist(), map(tuple, mem.reshape(-1, leaves).tolist())))
        labels.extend(cases.labels)
    return out, labels


@pytest.mark.parametrize(
    "instance, assignments",
    [
        (build_qram_instance(2, 2), 9),  # every width equal: one draw for all cases
        (build_random_instance(2, 1, 2), 5),  # every leaf width equal, m != k
        (build_random_instance(2, 1, [0, 1, 2, 0]), 5),  # exhaustive: 16 combos
        (build_random_instance(2, 1, [0, 1, 2, 0]), 21),  # 16 combos topped up with 5 draws
        (build_random_instance(3, 1, [0, 1, 2, 0, 0, 1, 2, 0]), 7),  # draws only, per-leaf k
        (build_random_instance(1, 3, [3, 0]), 70),  # 64 combos, then draws
        (build_table_lookup_instance(3, 2), 70),  # every leaf of width 0
        (build_rotation_instance(2, 3), 3),
        (build_random_instance(5, 1, [3, 5, 0, 7] * 8), 2),  # registers across 64-bit words
    ],
    ids=["qram", "random-k2", "per-leaf-exhaustive", "per-leaf-topped-up", "per-leaf-drawn",
         "mixed-topped-up", "lookup", "rotation", "wide-memory"],
)
def test_column_cases_draw_in_the_scalar_order(instance, assignments):
    expected = helpers.reference_generate_cases(instance, assignments, 13)
    labels = [helpers.reference_case_label(instance, *case) for case in expected]
    for step in (1, 7, len(expected)):
        assert column_cases(instance, assignments, 13, step) == (expected, labels)


@pytest.mark.parametrize(
    "k",
    [[3] * 32, [3, 5, 0, 7] * 8, [0] * 4, [1, 2], [40, 0, 63, 1, 24, 0, 17, 60]],
    ids=["96-bit", "mixed-across-words", "no-memory", "one-word", "wide-registers"],
)
def test_memory_words_match_the_per_leaf_reference(k):
    """A memory table packs into the memory-block words that shifting each
    leaf's value to its offset gives; every register reads back, and
    overwriting one leaf's register per column leaves every other bit."""
    from types import SimpleNamespace

    import qramforge.verifier as verifier

    keys = verifier._Keys(SimpleNamespace(n=(len(k) - 1).bit_length(), m=1, k=tuple(k)))
    rng = np.random.default_rng(len(k))
    widths = keys.k[keys.leaves].tolist()
    table = np.array([[int(rng.integers(0, 1 << w, dtype=np.uint64)) for w in widths] for _ in range(21)],
                     dtype=np.int64).reshape(21, len(widths))
    words = keys._pack_mem(table)
    assert words.dtype == np.uint64 and words.shape == (keys.mem_words, 21)
    assert np.array(helpers.reference_memory_words(keys, table), dtype=np.uint64).T.tolist() == words.tolist()
    full = np.zeros((21, len(k)), dtype=np.int64)
    full[:, keys.leaves] = table
    leaf = rng.integers(0, len(k), size=21)
    assert keys.leaf_value(words, np.arange(21), leaf).tolist() == full[np.arange(21), leaf].tolist()
    values = np.array([int(rng.integers(0, 1 << int(w), dtype=np.uint64)) for w in keys.k[leaf]], dtype=np.uint64)
    full[np.arange(21), leaf] = values.astype(np.int64)
    for value in (values, None):
        if value is None:
            full[np.arange(21), leaf] = 0
        changed = words.copy()
        keys.set_leaf(changed, leaf, value)
        expected = helpers.reference_memory_words(keys, full[:, keys.leaves])
        assert np.array(expected, dtype=np.uint64).T.tolist() == changed.tolist()


def test_custom_cases_keep_their_messages():
    inst = build_random_instance(2, 1, [0, 1, 2, 0], seed=5)
    good = (1, 0, (0, 1, 3, 0))
    for bad, message in [
        ((4, 0, None), r"address values are integers in \[0, 4\), got 4"),
        ((1.0, 0, None), r"address values are integers in \[0, 4\), got 1.0"),
        ((0, 2, None), r"result values are integers in \[0, 2\), got 2"),
        ((0, "1", None), r"result values are integers in \[0, 2\), got '1'"),
        ((True, 0, None), r"address values are integers in \[0, 4\), got True"),
        ((0, True, None), r"result values are integers in \[0, 2\), got True"),
        ((0, 0, (0, 2, 0, 0)), r"mem\[01\] values are integers in \[0, 2\), got 2"),
        ((0, 0, (0, True, 2, 0)), r"mem\[01\] values are integers in \[0, 2\), got True"),
        ((0, 0, (0, 1)), "expected 4 memory values, got 2"),
    ]:
        for cases in ([bad], [good, bad]):
            with pytest.raises(InvalidParameterError, match=message):
                check_proposition(inst, cases=cases)
    cases = [good, (2, 1, None), (1, 0, [0, 1, 2, 0])]
    assert (check_proposition(inst, cases=cases).to_dict()["cases"]
            == helpers.reference_check_proposition(inst, cases=cases).to_dict()["cases"])


def tampered_circuits(instance):
    """The instance's circuit with one fault each: the first moment dropped,
    the payloads of two leaves swapped, an extra X on the last leaf's memory
    at the end, and that X together with a CNOT from the result into an
    ancilla, which strands the terms whose result bit is 1."""
    circuit = synth_access(instance.layout(), instance.unitaries)
    layout, moments = circuit.layout, list(circuit.moments)
    yield "dropped", Circuit.from_moments(layout, moments[1:]), None
    first, last = layout.leaves[0], layout.leaves[-1]
    swapped = {**instance.unitaries, first: instance.unitaries[last], last: instance.unitaries[first]}
    yield "swapped", circuit, swapped
    flips = [Gate.x(layout.mem(last)[0])] if layout.mem(last) else []
    yield "mem-x", Circuit.from_moments(layout, moments + [flips]), None
    flips.append(Gate.cnot(layout.result_qubits[0], layout.life("")))
    yield "mem-x-stranded", Circuit.from_moments(layout, moments + [flips]), None


def differential_reports(instance, everything=True):
    """``(name, report, reference report)`` for every checker and, unless
    not ``everything``, the fan-out variant and every tampered circuit of
    ``instance``."""
    fanout = SynthesisOptions(variant="fanout", fanout_block=1)
    yield ("proposition", check_proposition(instance, assignments=5, seed=3),
           helpers.reference_check_proposition(instance, assignments=5, seed=3))
    yield ("linearity", check_linearity(instance, num_cases=5, seed=5),
           helpers.reference_check_linearity(instance, num_cases=5, seed=5))
    yield ("variant_agreement", check_variant_agreement(instance, assignments=3, seed=7),
           helpers.reference_check_variant_agreement(instance, assignments=3, seed=7))
    if not everything:
        return
    yield ("proposition-fanout", check_proposition(instance, fanout, assignments=3, seed=4),
           helpers.reference_check_proposition(instance, fanout, assignments=3, seed=4))
    yield ("linearity-fanout", check_linearity(instance, fanout, num_cases=3, seed=6),
           helpers.reference_check_linearity(instance, fanout, num_cases=3, seed=6))
    for name, circuit, unitaries in tampered_circuits(instance):
        yield (name, check_proposition(instance, circuit=circuit, circuit_unitaries=unitaries,
                                       assignments=3, seed=8),
               helpers.reference_check_proposition(instance, circuit=circuit,
                                                   circuit_unitaries=unitaries,
                                                   assignments=3, seed=8))


DIFFERENTIAL_INSTANCES = {
    "qram": lambda: build_qram_instance(2, 1),
    "lookup": lambda: build_table_lookup_instance(3, 2, seed=4),
    "rotation": lambda: build_rotation_instance(2, 2),
    "random": lambda: build_random_instance(2, 1, 1, seed=6),
    "random-per-leaf-k": lambda: build_random_instance(2, 1, [1, 0, 2, 1], seed=9),
    # 96 memory bits: leaf 21's register spans bits 63-65, across two words
    "random-wide-memory": lambda: build_random_instance(5, 1, 3, seed=2),
}


def assert_reports_equal(reports) -> dict:
    """Each report and its reference serialize to the same JSON (an int 0
    and a float 0.0 compare equal as values but not as text)."""
    cases = {}
    for name, report, reference in reports:
        report, reference = report.to_dict(), reference.to_dict()
        del report["wall_seconds"], reference["wall_seconds"]
        assert json.dumps(report) == json.dumps(reference), name
        cases[name] = reference["cases"]
    return cases


@pytest.mark.parametrize("family", list(DIFFERENTIAL_INSTANCES))
def test_column_judge_equals_the_case_by_case_judge(family):
    """Every report, floats included, equals the one the per-case path
    gives, on passing and on tampered circuits."""
    instance = DIFFERENTIAL_INSTANCES[family]()
    tampered = assert_reports_equal(differential_reports(instance))
    assert not any(case["passed"] for case in tampered["dropped"])
    if family not in ("qram", "rotation"):  # these use one matrix for every leaf
        assert not all(case["passed"] for case in tampered["swapped"])
    stranded = tampered["mem-x-stranded"]
    assert any(case["ancilla_residual"] > 0 for case in stranded)
    if family != "lookup":  # a leaf without memory takes no X on its memory
        assert not all(case["mem_invariant"] for case in tampered["mem-x"])
        assert not all(case["mem_invariant"] for case in stranded)
    if family not in ("lookup", "qram"):  # payloads that spread a case over result values
        assert any(not case["mem_invariant"] and case["ancilla_residual"] > 0 for case in stranded)


@pytest.mark.parametrize("family", ["random-per-leaf-k", "rotation"])
def test_column_judge_equals_the_case_by_case_judge_over_split_batches(family, monkeypatch):
    """The same with batches of a case or two."""
    instance = DIFFERENTIAL_INSTANCES[family]()
    monkeypatch.setattr(sim, "BATCH_BUDGET_BYTES", 256)
    assert_reports_equal(differential_reports(instance, everything=False))


def test_case_generation_and_packing_stay_within_the_budget(monkeypatch):
    """Generating and packing the cases of a random n=8 check holds one
    batch at a time: the traced peak stays within the batch budget plus a
    fixed allowance, far below the whole case table."""
    import tracemalloc

    import qramforge.verifier as verifier

    instance = build_random_instance(8, 1, 1)
    circuit = synth_access(instance.layout(), instance.unitaries)
    keys = verifier._Keys(instance)
    run = verifier._Run(circuit, instance.unitaries, keys)
    budget = 1 << 20
    monkeypatch.setattr(sim, "BATCH_BUDGET_BYTES", budget)
    count, take = verifier._basis_cases(instance, keys, 8, DEFAULT_SEED)
    tracemalloc.start()
    try:
        batches = 0
        for cases in verifier._batches(np.ones(count, dtype=np.int64),
                                       sim._batch_terms(circuit, keys.case_bytes), take):
            rows = run.pack(cases)
            batches += 1
            del cases, rows
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 2048 and batches > 1
    assert count * 8 * len(keys.leaves) > 2 * budget  # the whole memory table
    assert peak < budget + (256 << 10)


def test_packing_leaves_out_the_terms_superpose_drops():
    """A term of magnitude at most PRUNE_TOL is left out of the packed rows,
    as superpose leaves it out of the state it builds."""
    import qramforge.verifier as verifier

    instance = build_random_instance(2, 1, 1, seed=3)
    layout = instance.layout()
    keys = verifier._Keys(instance)
    run = verifier._Run(synth_access(layout, instance.unitaries), instance.unitaries, keys)
    amps = np.array([0.6, sim.PRUNE_TOL, 0.8j, 1e-15 + 1e-15j])
    cases = keys.cases([0, 1, 2, 3], [1, 1, 1, 1], np.zeros((4, 4), dtype=np.int64), ["mixed"],
                       np.zeros(4, dtype=np.int64), amps)
    (packed,) = run.pack(cases).states()
    expected = superpose([(a, basis_state(layout, y, 1)) for y, a in enumerate(amps.tolist())])
    assert packed.amps == expected.amps and len(packed) == 2
