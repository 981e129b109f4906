"""Serialization tests: golden files, byte-exact round trips, schema
diagnostics, QASM structure, and an external grammar check."""

import gc
import hashlib
import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from qramforge import (
    Circuit,
    CircuitDocument,
    Gate,
    InvalidParameterError,
    SchemaError,
    SparseState,
    StructuralError,
    SynthesisOptions,
    UnitarySpec,
    allocate_registers,
    basis_state,
    build_qram_instance,
    build_random_instance,
    build_rotation_instance,
    build_table_lookup_instance,
    emit_json,
    emit_qasm,
    parse_document,
    parse_state,
    serialize_state,
    superpose,
    synth_access,
    synth_down,
    synth_run,
    synth_up,
)
from qramforge import formats, tree
from qramforge.cli import main
from qramforge.ir import OPAQUE, GateColumns
import helpers
from helpers import assert_valid_qasm2, reference_emit_json

DATA = Path(__file__).parent / "data"


def _tiny():
    inst = build_table_lookup_instance(1, 1, table=[1, 0])
    circuit = synth_access(inst.layout(), inst.unitaries)
    return inst, circuit


def _golden_text(name: str) -> str:
    return (DATA / name).read_text()


# ---------------------------------------------------------------------------
# golden files
# ---------------------------------------------------------------------------


def test_json_emission_matches_golden_file():
    inst, circuit = _tiny()
    assert emit_json(circuit, inst.unitaries) == _golden_text("access_n1_m1.json")


def test_qasm_emission_matches_golden_file():
    _, circuit = _tiny()
    assert emit_qasm(circuit) == _golden_text("access_n1_m1.qasm")


def test_golden_document_parses_back_to_the_same_circuit():
    inst, circuit = _tiny()
    doc = parse_document(_golden_text("access_n1_m1.json"))
    assert isinstance(doc, CircuitDocument)
    assert doc.circuit == circuit
    assert doc.unitaries == inst.unitaries
    assert doc.parameters["phase"] == "access"
    assert doc.parameters["variant"] == "sequential"


#: sha256 of ``synth --include-matrices`` on stdout, taken before the
#: payloads were checked and written per document rather than per leaf.
SYNTH_SHA256 = {
    ("qram", "--m", "2"): "f7ae44e3edb30a7a7289edfdec14aa6119ef7c74066e332522acb77039e6fc87",
    ("table_lookup", "--m", "2"): "6b1b2d6e35cf7c283a628fcda8d87c31eb7eb2c87ee4024ec8fc47eadecd1ea3",
    ("rotation", "--m", "2"): "2726184fad61e7ba393b01b54393685c979fad098534c601134e557c02820a7c",
    ("random", "--m", "1", "--k", "0,1,2,0,1,0,2,1"): "48f7c73bc28349f8b06c3b96c138e6e5e047173b05afda44d8ee60112399cf1c",
}


@pytest.mark.parametrize("family", sorted(SYNTH_SHA256))
def test_synth_documents_with_matrices_are_pinned(family, capsys):
    """Every family at n=3, rotation with declared depth 2 and random with
    per-leaf memory widths."""
    assert main(["synth", "--n", "3", "--include-matrices", "--family", *family]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SYNTH_SHA256[family]


#: sha256 of ``synth --n 3 --format qasm`` on stdout, taken before moments
#: and gate lines were written as one template over the columns.
QASM_SHA256 = {
    ("qram", "--m", "2"): "ac7f41b0210d768097f83844a30b7ce769190b710ce45960c8e3d02f8671e27d",
    ("table_lookup", "--m", "2"): "022975304d956a4df00aad71b3249a5515b2ff464532c65b155a3f0a6b7c51b3",
    ("rotation", "--m", "2"): "141f4c97f768447a04f8d3b271e65ecf4b66b03071affc64124cb06cec59ecbe",
    ("random", "--m", "1", "--k", "0,1,2,0,1,0,2,1"): "92f4ef9eaa81d3ef014619bfb7d1a19decab0b2bf4f40d5050c3279468c5827d",
    ("table_lookup", "--m", "4", "--variant", "fanout"): "d18b7d9ff519494f880eee2069931aced7ad0cbbe1df2d51e8133f5d1ba1299f",
    ("rotation", "--m", "2", "--phase", "up"): "148f169cf9d7abe86d8af253d2204c666b837aa515709166f995afad7d3433c4",
    ("random", "--m", "1", "--k", "0,1,2,0,1,0,2,1", "--phase", "run"):
        "f5cb10cead088a9b0c579d96f86bd937b11bb2147aa5fe0fd79f4baf2d607c11",
    ("random", "--m", "2", "--k", "0,1,2,0,1,0,2,1", "--phase", "up", "--variant", "fanout"):
        "39886e7264cca008676db03595bdfc0caf92992f50e265639cbdebac19c7f8a7",
}


@pytest.mark.parametrize("family", sorted(QASM_SHA256))
def test_synth_qasm_is_pinned(family, capsys):
    """Every family at n=3, a fan-out hand-down, the Up and Run phases
    alone, and random memory widths, whose opaque blocks take several targets."""
    assert main(["synth", "--n", "3", "--format", "qasm", "--family", *family]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == QASM_SHA256[family]


def test_dagger_blocks_are_pinned():
    """The adjoint of a fan-out access circuit with multi-target blocks: its
    QASM declares and applies ``_dg`` blocks, and its moments say
    ``"dagger": true``.  The command line writes no adjoint, so the pins are
    taken through the library."""
    inst = build_random_instance(3, 1, k=[0, 1, 2, 0, 1, 0, 2, 1], seed=5)
    circuit = synth_access(inst.layout(), inst.unitaries, SynthesisOptions(variant="fanout")).adjoint()
    qasm, text = emit_qasm(circuit), emit_json(circuit)
    assert qasm.count("_dg") == 16 and text.count('"dagger": true') == 8
    assert hashlib.sha256(qasm.encode()).hexdigest() == "c5be6a031d92ce025d4821c286fdae747323858cfbc591170589f1e525e29541"
    assert hashlib.sha256(text.encode()).hexdigest() == "597839546eab95212bdd1bd98869ca386176b17cad16d230a5d633ff25cbdf25"
    assert text == reference_emit_json(circuit)


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("phase", ["down", "up", "access"])
@pytest.mark.parametrize("variant", ["sequential", "fanout"])
def test_round_trip_is_byte_identical(phase, variant):
    inst = build_rotation_instance(2, 2)
    layout = inst.layout()
    options = SynthesisOptions(variant=variant)
    if phase == "down":
        circuit = synth_down(layout, options)
    elif phase == "up":
        circuit = synth_up(layout, options)
    else:
        circuit = synth_access(layout, inst.unitaries, options)
    unitaries = inst.unitaries if phase == "access" else None
    text = emit_json(circuit, unitaries)
    doc = parse_document(text)
    assert doc.circuit == circuit
    assert doc.circuit.metadata["phase"] == phase
    assert doc.circuit.metadata["variant"] == variant
    assert emit_json(doc.circuit, doc.unitaries) == text


def test_round_trip_preserves_complex_matrices():
    inst = build_rotation_instance(1, 2)
    circuit = synth_access(inst.layout(), inst.unitaries)
    doc = parse_document(emit_json(circuit, inst.unitaries))
    for leaf, spec in inst.unitaries.items():
        assert np.array_equal(doc.unitaries[leaf].matrix, spec.matrix)
        assert doc.unitaries[leaf].declared_depth == spec.declared_depth


# ---------------------------------------------------------------------------
# the template emitter against the reference emitter
# ---------------------------------------------------------------------------


def _hand_built_spec(leaf: str, matrix, declared_depth: int) -> UnitarySpec:
    """A spec that skips the constructor's checks: the emitter writes any
    matrix it is given, so its floats may lie outside a unitary's range."""
    spec = object.__new__(UnitarySpec)
    spec.leaf, spec.matrix, spec.declared_depth = leaf, np.array(matrix, dtype=complex), declared_depth
    return spec


def _empty_moments():
    layout = allocate_registers(1, 1)
    yield Circuit.from_moments(layout, []), None
    yield Circuit.from_moments(layout, [[]]), None
    yield Circuit.from_moments(layout, [[], [Gate.x(0), Gate.cnot(1, 2)], [], [Gate.fredkin(3, 4, 5)], []]), None


def _daggers():
    inst = build_random_instance(2, 1, k=[0, 1, 0, 2], seed=3)
    layout = inst.layout()
    yield synth_run(layout, inst.unitaries).adjoint(), inst.unitaries
    yield synth_access(layout, inst.unitaries).adjoint(), inst.unitaries
    # no leaf of the layout: only columns built by hand carry such a label,
    # and the emitter escapes it all the same
    leaf = 'a"\\\u00e9\u2028'
    block = Gate.controlled_opaque(2, [3, 4], leaf, dagger=True, declared_depth=2**62)
    yield Circuit(layout, GateColumns.of_gates([(0, Gate.x(0)), (0, block)], 1)), None


def _options():
    m = 3
    layout = allocate_registers(2, m, k=[1, 0, 2, 0])
    depths = {"00": 3, "01": 1, "10": 12, "11": 2**40}
    for preparation in (True, False):
        for s in (None, *range(1, m + 1)):
            options = SynthesisOptions("fanout", s, preparation)
            yield synth_access(layout, None, options, declared_depths=depths), None
        options = SynthesisOptions("sequential", None, preparation)
        yield synth_access(layout, None, options, declared_depths=5), None


def _phases():
    inst = build_rotation_instance(2, 2)
    layout = inst.layout()
    for variant in ("sequential", "fanout"):
        options = SynthesisOptions(variant)
        yield synth_down(layout, options), None
        yield synth_up(layout, options), None
        yield synth_run(layout, inst.unitaries), inst.unitaries
        access = synth_access(layout, inst.unitaries, options)
        access.metadata["instance"] = {"family": inst.family, **inst.params, "note": "caf\u00e9"}
        yield access, inst.unitaries
        yield access, None
        yield access, {}


def _extreme_floats_spec() -> UnitarySpec:
    """A unitary whose entries include -0.0, 1e-17 and the smallest
    subnormal, 5e-324."""
    return UnitarySpec("0", [[complex(-0.0, 1.0), complex(1e-17, 5e-324)],
                             [complex(5e-324, -0.0), complex(1.0, -1e-17)]])


def _special_floats():
    inst, circuit = _tiny()
    huge = _hand_built_spec("1", [[1e16, -1e16], [1.5e300 - 2.5e-8j, 1 / 3 + 0.1j]], 3)
    odd_key = _hand_built_spec("1", [[1e22, 1e-5], [123456789.0, -0.0]], 2**62)
    yield circuit, {"0": _extreme_floats_spec(), "1": huge}
    yield circuit, {"1": huge, '"\u00e9"': odd_key, "0": _extreme_floats_spec()}
    yield circuit, inst.unitaries


def _cache_specs() -> dict[str, UnitarySpec]:
    """Equal matrices under different declared depths, a repeat, and the
    same matrix with a -0.0 entry in place of 0.0."""
    x = [[0.0, 1.0], [1.0, 0.0]]
    return {
        "00": UnitarySpec("00", x),
        "01": UnitarySpec("01", x, declared_depth=3),
        "10": UnitarySpec("10", [[complex(-0.0, 0.0), 1.0], [1.0, 0.0]]),
        "11": UnitarySpec("11", x),
    }


def _record_cache():
    unitaries = _cache_specs()
    yield synth_access(allocate_registers(2, 1), unitaries), unitaries


EMISSION_CASES = {
    "empty-moments": _empty_moments,
    "daggers-and-x": _daggers,
    "fanout-every-s-preparation-depths": _options,
    "phases-instance-no-matrices": _phases,
    "record-cache": _record_cache,
    "special-floats": _special_floats,
}


@pytest.mark.parametrize("case", sorted(EMISSION_CASES))
def test_emitter_matches_the_reference_emitter(case):
    """The templates write exactly what ``json.dumps(indent=2)`` wrote for
    the whole document: empty moments and moment lists, x gates with no
    controls, dagger blocks and escaped leaf labels, every fan-out block
    size, per-leaf depths, every phase, instance metadata, and floats in
    every ``repr`` form."""
    count = 0
    for circuit, unitaries in EMISSION_CASES[case]():
        text = emit_json(circuit, unitaries)
        assert text == reference_emit_json(circuit, unitaries)
        json.loads(text)
        count += 1
    assert count


def test_matrix_records_are_shared_by_depth_shape_and_bytes():
    """A record body is written once per distinct (depth, shape, bytes):
    equal matrices under two depths get two bodies, and -0.0 is not 0.0."""
    unitaries = _cache_specs()
    text = emit_json(synth_access(allocate_registers(2, 1), unitaries), unitaries)
    records = json.loads(text)["matrices"]
    assert [records[leaf]["declared_depth"] for leaf in sorted(records)] == [1, 3, 1, 1]
    assert records["00"] == records["11"] and text.count('"declared_depth": 3,') == 1
    assert text.count("-0.0") == 1
    doc = parse_document(text)
    for leaf, spec in unitaries.items():
        assert doc.unitaries[leaf].matrix.tobytes() == spec.matrix.tobytes()
        assert doc.unitaries[leaf].declared_depth == spec.declared_depth


def test_empty_moments_are_written_as_empty_lists():
    layout = allocate_registers(1, 1)
    text = emit_json(Circuit.from_moments(layout, [[], [Gate.x(0)], []]))
    assert '"moments": [\n    [],\n    [\n      {\n        "kind": "x",\n        "controls": [],\n' in text
    assert '    ],\n    []\n  ]\n}' in text
    assert emit_json(Circuit.from_moments(layout, [])).endswith('"moments": []\n}')


def test_extreme_floats_survive_a_round_trip():
    inst, circuit = _tiny()
    unitaries = {**inst.unitaries, "0": _extreme_floats_spec()}
    text = emit_json(circuit, unitaries)
    for token in ("-0.0", "1e-17", "5e-324"):
        assert f" {token}\n" in text or f" {token},\n" in text
    doc = parse_document(text)
    assert doc.unitaries["0"].matrix.tobytes() == unitaries["0"].matrix.tobytes()
    assert emit_json(doc.circuit, doc.unitaries) == text


# ---------------------------------------------------------------------------
# schema diagnostics
# ---------------------------------------------------------------------------


def _mutated(transform) -> str:
    raw = json.loads(_golden_text("access_n1_m1.json"))
    transform(raw)
    return json.dumps(raw)


def test_rejects_invalid_json():
    with pytest.raises(SchemaError, match="not valid JSON"):
        parse_document("{nope")


def test_rejects_non_object_document():
    with pytest.raises(SchemaError, match=r"\$: expected a JSON object"):
        parse_document("[]")


def test_rejects_wrong_format_tag():
    text = _mutated(lambda raw: raw.update(format="qramforge-circuit/99"))
    with pytest.raises(SchemaError, match="format: expected"):
        parse_document(text)


def test_rejects_missing_section():
    def drop(raw):
        del raw["registers"]

    with pytest.raises(SchemaError, match="registers: missing required section"):
        parse_document(_mutated(drop))


def test_rejects_bad_parameter_types():
    text = _mutated(lambda raw: raw["parameters"].update(n="two"))
    with pytest.raises(SchemaError, match="parameters.n: expected an integer"):
        parse_document(text)
    text = _mutated(lambda raw: raw["parameters"].update(k=3))
    with pytest.raises(SchemaError, match="parameters.k: expected a list"):
        parse_document(text)


@pytest.mark.parametrize("key, value", [("variant", "banana"), ("variant", "Fanout"), ("variant", ""),
                                        ("phase", "sideways"), ("phase", "Access"), ("phase", "both")])
def test_variant_and_phase_are_closed_sets(key, value, tmp_path, capsys):
    """A ``variant`` other than the two hand-down styles, or a ``phase``
    other than the four the synthesizer writes, is refused, and ``verify
    --circuit`` exits 2 instead of reporting the stated variant."""
    path = tmp_path / "doc.json"
    path.write_text(_mutated(lambda raw: raw["parameters"].update({key: value})))
    expected = {"variant": "'sequential' or 'fanout'", "phase": "'access', 'down', 'run' or 'up'"}[key]
    with pytest.raises(SchemaError) as info:
        parse_document(path.read_text())
    assert str(info.value) == f"parameters.{key}: expected {expected}"
    argv = ["verify", "--family", "table_lookup", "--n", "1", "--m", "1", "--table", "1,0", "--circuit", str(path)]
    assert main(argv) == 2
    assert f"parameters.{key}: expected" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("variant", "sequential"), ("variant", "fanout"), ("phase", "access"),
                                        ("phase", "down"), ("phase", "run"), ("phase", "up")])
def test_every_variant_and_phase_is_read(key, value):
    doc = parse_document(_mutated(lambda raw: raw["parameters"].update({key: value})))
    assert doc.circuit.metadata[key] == doc.parameters[key] == value


def test_rejects_inconsistent_layout_parameters():
    text = _mutated(lambda raw: raw["parameters"].update(k=[0, 0, 0]))
    with pytest.raises(SchemaError, match="parameters:"):
        parse_document(text)


def test_rejects_tampered_register_table():
    text = _mutated(lambda raw: raw["registers"][2].update(size=2))
    with pytest.raises(SchemaError, match=r"registers\[2\]: expected"):
        parse_document(text)
    text = _mutated(lambda raw: raw["registers"].pop())
    with pytest.raises(SchemaError, match="registers: expected 7 rows"):
        parse_document(text)


def test_rejects_unknown_gate_kind():
    text = _mutated(lambda raw: raw["moments"][0][0].update(kind="h"))
    with pytest.raises(SchemaError, match=r"moments\[0\]\[0\].kind: unknown gate kind 'h'"):
        parse_document(text)


def test_rejects_bad_gate_fields():
    text = _mutated(lambda raw: raw["moments"][0][0].update(controls="none"))
    with pytest.raises(SchemaError, match=r"moments\[0\]\[0\].controls: expected a list"):
        parse_document(text)
    text = _mutated(lambda raw: raw["moments"][0][0].update(color="red"))
    with pytest.raises(SchemaError, match=r"unknown field\(s\) \['color'\]"):
        parse_document(text)


def test_rejects_malformed_gate_arity():
    # an X gate with a control is not a valid elementary gate
    text = _mutated(lambda raw: raw["moments"][0][0].update(controls=[0]))
    with pytest.raises(SchemaError, match=r"moments\[0\]\[0\]:"):
        parse_document(text)


def test_rejects_opaque_without_leaf():
    def strip_leaf(raw):
        for moment in raw["moments"]:
            for gate in moment:
                if gate["kind"] == "cu":
                    del gate["leaf"]
                    return

    with pytest.raises(SchemaError, match=r"\.leaf: expected a node label"):
        parse_document(_mutated(strip_leaf))


def _opaque_at(raw) -> tuple[int, int]:
    return next((i, j) for i, moment in enumerate(raw["moments"])
                for j, gate in enumerate(moment) if gate["kind"] == "cu")


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("dagger", "yes", r"\.dagger: expected a boolean"),
        ("dagger", 1, r"\.dagger: expected a boolean"),
        ("declared_depth", 2**62 + 1, r"\.declared_depth: expected an integer <= 2\*\*62"),
        ("declared_depth", 0, r"\.declared_depth: expected an integer >= 1"),
        ("declared_depth", True, r"\.declared_depth: expected an integer$"),
        ("leaf", 5, r"\.leaf: expected a node label string"),
        ("leaf", "zz", r"\.leaf: not a leaf of this layout"),
        ("leaf", "", r"\.leaf: not a leaf of this layout"),  # the root
        ("targets", [], r": an opaque block takes one control and at least one target"),
        ("controls", [], r": an opaque block takes one control and at least one target"),
        ("controls", [True], r"\.controls: expected a list of integers"),
        ("color", "red", r": unknown field\(s\) \['color'\]"),
    ],
)
@pytest.mark.parametrize("later_fault", [False, True])
def test_opaque_record_faults_name_the_record(field, value, message, later_fault):
    """Each fault of an opaque block's record is reported at its path, on
    its own and ahead of a fault in a later moment."""
    raw = json.loads(_golden_text("access_n1_m1.json"))
    i, j = _opaque_at(raw)
    raw["moments"][i][j][field] = value
    if later_fault:
        raw["moments"][-1][0]["kind"] = "h"
    with pytest.raises(SchemaError, match=rf"^moments\[{i}\]\[{j}\]{message}"):
        parse_document(json.dumps(raw))


def test_opaque_blocks_must_name_a_leaf_of_the_layout(tmp_path, capsys):
    """A block on a label the layout has no leaf for (a string of the wrong
    width, an internal node, or no string) is refused when the circuit is
    built and when a document is parsed, not later by the QASM emitter."""
    layout = allocate_registers(2, 1)
    for leaf in ("zz", "000", "0", "", 5):
        with pytest.raises(StructuralError, match=f"opaque block leaf {leaf!r} is not a leaf"):
            Circuit.from_moments(layout, [[Gate.x(0)], [Gate.controlled_opaque(2, [3], leaf)]])
    raw = json.loads(_golden_text("access_n1_m1.json"))
    i, j = _opaque_at(raw)
    for leaf, message in (("zz", "not a leaf of this layout"), ("", "not a leaf of this layout"),
                          (["0"], "expected a node label string")):
        raw["moments"][i][j]["leaf"] = leaf
        with pytest.raises(SchemaError, match=rf"^moments\[{i}\]\[{j}\]\.leaf: {message}$"):
            parse_document(json.dumps(raw))
    raw["moments"][i][j]["leaf"] = "zz"
    document = tmp_path / "stray.json"
    document.write_text(json.dumps(raw))
    assert main(["simulate", "--circuit", str(document)]) == 2
    assert "moments[" in capsys.readouterr().err


def test_register_and_matrix_row_messages():
    """Rows are compared as whole lists; the first mismatch is named."""
    from qramforge.formats import _register_table

    raw = json.loads(_golden_text("access_n1_m1.json"))
    expected = _register_table(allocate_registers(1, 1))
    raw["registers"][5]["start"] = 0
    raw["registers"][3]["size"] = 2
    with pytest.raises(SchemaError) as info:
        parse_document(json.dumps(raw))
    assert str(info.value) == f"registers[3]: expected {expected[3]}, got {raw['registers'][3]}"
    inst = build_table_lookup_instance(1, 1, table=[1, 0])
    raw = json.loads(emit_json(synth_access(inst.layout(), inst.unitaries), inst.unitaries))
    raw["matrices"]["1"]["matrix"][1] = "ro"
    raw["matrices"]["1"]["matrix"][0].append([0.0, 0.0])
    with pytest.raises(SchemaError) as info:
        parse_document(json.dumps(raw))
    assert str(info.value) == "matrices.1.matrix[0]: expected a list of 2 [re, im] pairs"


@pytest.mark.parametrize(
    "transform, message",
    [
        (lambda raw: raw["moments"].__setitem__(2, {}), r"^moments\[2\]: expected a list of gates$"),
        (lambda raw: raw["moments"][2].__setitem__(0, [1]), r"^moments\[2\]\[0\]: expected a gate object$"),
        (lambda raw: raw["moments"][2][0].update(kind=5), r"^moments\[2\]\[0\]\.kind: unknown gate kind 5$"),
        (lambda raw: raw["moments"][2][0].update(kind=["x"]), r"^moments\[2\]\[0\]\.kind: unknown gate kind \['x'\]$"),
        (lambda raw: raw["moments"][2][0].update(targets=[0.0]), r"^moments\[2\]\[0\]\.targets: expected a list of integers$"),
        (lambda raw: raw["moments"][2][0].update(leaf="0"), r"^moments\[2\]\[0\]: unknown field\(s\) \['leaf'\]$"),
        (lambda raw: raw["moments"][2][0].update(targets=[0, 1]), r"^moments\[2\]\[0\]: x takes 0 control\(s\) and 1 target\(s\), got 0 and 2$"),
    ],
)
@pytest.mark.parametrize("later_fault", [False, True])
def test_elementary_record_faults_name_the_record(transform, message, later_fault):
    raw = json.loads(_golden_text("access_n1_m1.json"))
    transform(raw)
    if later_fault:
        raw["moments"][-1][0]["kind"] = "h"
    with pytest.raises(SchemaError, match=message):
        parse_document(json.dumps(raw))


def test_rejects_overlapping_gates_in_a_moment():
    def overlap(raw):
        gate = dict(raw["moments"][0][0])
        raw["moments"][0].append(gate)

    with pytest.raises(SchemaError, match="moments:"):
        parse_document(_mutated(overlap))


def test_rejects_bad_qubits_of_one_gate_first():
    """A gate's own qubits are checked (non-negative, then distinct) before
    any moment is checked for overlaps or range, in document order."""

    def repeat(raw):
        raw["moments"][3][0]["targets"] = [0]
        raw["moments"][1][0]["targets"] = [99]  # out of range, but checked later

    with pytest.raises(SchemaError, match=r"^moments\[3\]\[0\]: gate qubits must be distinct, got \(0, 2, 0\)$"):
        parse_document(_mutated(repeat))

    def negative(raw):
        raw["moments"][1][0]["controls"] = [0, -4]
        raw["moments"][3][0]["targets"] = [0]

    with pytest.raises(SchemaError, match=r"^moments\[1\]\[0\]: qubit indices are non-negative integers, got -4$"):
        parse_document(_mutated(negative))

    def then_unknown_kind(raw):
        raw["moments"][1][0]["controls"] = [2, 2]
        raw["moments"][3][0]["kind"] = "h"

    with pytest.raises(SchemaError, match=r"^moments\[1\]\[0\]: gate qubits must be distinct"):
        parse_document(_mutated(then_unknown_kind))


def _crowd(raw, moment: int, records: list) -> None:
    raw["moments"][moment] = records


def test_crowded_moment_is_refused_before_its_records_are_read():
    """No valid moment holds more gates than the layout has qubits (7 here),
    so an eighth record is refused whatever the records hold, ahead of
    faults in earlier moments."""
    x = {"kind": "x", "controls": [], "targets": [0]}
    message = r"^moments\[2\]: 8 gates in one moment, more than the layout's 7 qubits$"
    with pytest.raises(SchemaError, match=message):
        parse_document(_mutated(lambda raw: _crowd(raw, 2, [x] * 8)))
    with pytest.raises(SchemaError, match=message):
        parse_document(_mutated(lambda raw: _crowd(raw, 2, [None] * 8)))

    def after_a_bad_record(raw):
        raw["moments"][0][0]["kind"] = "h"
        raw["moments"][1] = 5
        _crowd(raw, 2, [x] * 8)

    with pytest.raises(SchemaError, match=message):
        parse_document(_mutated(after_a_bad_record))
    # seven records pass the bound and fail as overlapping gates
    with pytest.raises(SchemaError, match=r"^moments: qubit\(s\) \[0\] already used"):
        parse_document(_mutated(lambda raw: _crowd(raw, 2, [x] * 7)))


def test_crowded_moment_costs_no_more_than_reading_the_json():
    """The bound fires before any column is built: refusing a moment of
    20,000 records allocates almost nothing beyond what ``json.loads``
    allocates for the text."""
    count = 20_000
    text = _mutated(lambda raw: _crowd(raw, 1, [{"kind": "x", "controls": [], "targets": [0]}] * count))
    tracemalloc.start()
    try:
        json.loads(text)
        _, loads_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        with pytest.raises(SchemaError, match=rf"^moments\[1\]: {count} gates in one moment"):
            parse_document(text)
        _, parse_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parse_peak < loads_peak + 256 * 1024, (parse_peak, loads_peak)


def test_rejects_out_of_range_qubits():
    text = _mutated(lambda raw: raw["moments"][0][0].update(targets=[99]))
    with pytest.raises(SchemaError, match="moments:"):
        parse_document(text)


def test_rejects_metrics_mismatch():
    text = _mutated(lambda raw: raw["metrics"].update(depth=99))
    with pytest.raises(SchemaError, match="metrics.depth: document says 99"):
        parse_document(text)


@pytest.mark.parametrize("index, field, value", [(2, "size", True), (6, "start", 6.0)])
def test_register_rows_must_carry_integers(index, field, value):
    """A row equal to the table but for a number's JSON type is refused by
    name, as a row with another value is: re-emitting it would change the
    document's bytes."""
    from qramforge.formats import _register_table

    expected = _register_table(allocate_registers(1, 1))
    assert expected[index][field] == value
    raw = json.loads(_golden_text("access_n1_m1.json"))
    raw["registers"][index][field] = value
    with pytest.raises(SchemaError) as info:
        parse_document(json.dumps(raw))
    assert str(info.value) == f"registers[{index}]: expected {expected[index]}, got {raw['registers'][index]}"


@pytest.mark.parametrize("key, value", [("depth", 13.0), ("width", 2.0), ("num_gates", 16.0),
                                        ("gate_counts", {"ccx": 4, "cswap": 4, "cu": 2, "x": 6.0}),
                                        ("total_qubits", 7.0)])
def test_metrics_must_carry_integers(key, value):
    """A metric equal to the measured one but for a number's JSON type is
    refused with the mismatch message."""
    raw = json.loads(_golden_text("access_n1_m1.json"))
    measured = raw["metrics"][key]
    assert measured == value
    raw["metrics"][key] = value
    with pytest.raises(SchemaError) as info:
        parse_document(json.dumps(raw))
    assert str(info.value) == f"metrics.{key}: document says {value!r}, circuit measures {measured!r}"


def test_unknown_fields_of_matrix_records_and_metrics_are_refused():
    """An extra field in a ``matrices`` record or in ``metrics`` is refused,
    as in a gate record, instead of vanishing when the document is written
    again."""
    raw = json.loads(_golden_text("access_n1_m1.json"))
    raw["matrices"]["1"]["extra"] = 5
    with pytest.raises(SchemaError) as info:
        parse_document(json.dumps(raw))
    assert str(info.value) == "matrices.1: unknown field(s) ['extra']"
    raw = json.loads(_golden_text("access_n1_m1.json"))
    raw["metrics"].update(extra=5, colour="red")
    with pytest.raises(SchemaError) as info:
        parse_document(json.dumps(raw))
    assert str(info.value) == "metrics: unknown field(s) ['colour', 'extra']"


def test_rejects_bad_matrices():
    text = _mutated(lambda raw: raw["matrices"].update({"01": raw["matrices"]["0"]}))
    with pytest.raises(SchemaError, match="matrices.01: not a leaf"):
        parse_document(text)

    def scale(raw):
        raw["matrices"]["0"]["matrix"][0][1] = [2.0, 0.0]

    with pytest.raises(SchemaError, match="matrices.0:"):
        parse_document(_mutated(scale))


#: Two faulty ``matrices`` records of the golden document, and the first fault.
FIRST_FAULTS = {
    "not unitary, then an extra field": (
        lambda m: (m["0"]["matrix"][1].__setitem__(1, [2.0, 0.0]), m["1"].update(extra=5)),
        "matrices.0: matrix for leaf '0' is not unitary (deviation 4.000e+00)"),
    "an extra field, then not unitary": (
        lambda m: (m["0"].update(extra=5), m["1"]["matrix"][0].__setitem__(0, [2.0, 0.0])),
        "matrices.0: unknown field(s) ['extra']"),
    "not unitary, then a short matrix": (
        lambda m: (m["0"]["matrix"][1].__setitem__(1, [0.0, 0.5]), m["1"].update(matrix=[[1]])),
        "matrices.0: matrix for leaf '0' is not unitary (deviation 5.000e-01)"),
}


@pytest.mark.parametrize("case", sorted(FIRST_FAULTS))
def test_the_first_faulty_matrix_record_is_named(case):
    """Records are checked in document order, each one whole, unitarity
    included, before the next: a later record's fault of another kind does
    not come first."""
    transform, message = FIRST_FAULTS[case]
    with pytest.raises(SchemaError) as info:
        parse_document(_mutated(lambda raw: transform(raw["matrices"])))
    assert str(info.value) == message


def test_matrix_bodies_that_leaves_share_are_read_once(monkeypatch):
    """On a table-lookup document, whose leaves of equal table entries have
    equal records, each distinct record is read into an array once."""
    instance = build_table_lookup_instance(3, 2, table=[0, 1, 2, 1, 0, 3, 3, 1])
    text = emit_json(synth_access(instance.layout(), instance.unitaries), instance.unitaries)
    read = []
    values = formats._matrix_values
    monkeypatch.setattr(formats, "_matrix_values", lambda rows, dim: read.append(dim) or values(rows, dim))
    assert parse_document(text).unitaries == instance.unitaries
    assert read == [4] * 4


@pytest.mark.parametrize(
    "transform, message",
    [
        (lambda m: m["0"]["matrix"].pop(), r"matrices\.0\.matrix: expected 2 rows"),
        (lambda m: m["1"].update(matrix=[[[1.0, 0.0]] * 4] * 4), r"matrices\.1\.matrix: expected 2 rows"),
        (lambda m: m["0"].update(matrix=[[[1.0, 0.0]]]), r"matrices\.0\.matrix: expected 2 rows"),
        (lambda m: m["1"]["matrix"][1].append([0.0, 0.0]), r"matrices\.1\.matrix\[1\]: expected a list of 2"),
        (lambda m: m["0"]["matrix"].__setitem__(0, "row"), r"matrices\.0\.matrix\[0\]: expected a list"),
        (lambda m: m["0"]["matrix"][0][1].append(0.0), r"matrices\.0\.matrix\[0\]\[1\]: expected a \[re, im\] pair"),
        (lambda m: m["0"]["matrix"][1][0].pop(), r"matrices\.0\.matrix\[1\]\[0\]: expected a \[re, im\] pair"),
        (lambda m: m["1"]["matrix"][0][0].__setitem__(0, "1"), r"matrices\.1\.matrix\[0\]\[0\]: expected a \[re, im\]"),
        (lambda m: m["1"]["matrix"][0].__setitem__(1, None), r"matrices\.1\.matrix\[0\]\[1\]: expected a \[re, im\]"),
        (lambda m: m["0"]["matrix"][0][0].__setitem__(1, float("nan")), r"matrices\.0\.matrix: expected finite"),
        (lambda m: m["0"]["matrix"][0][0].__setitem__(0, 10**400), r"matrices\.0\.matrix: expected finite"),
        (lambda m: m["0"].update(matrix=None), r"matrices\.0\.matrix: expected a list"),
    ],
)
def test_matrix_shapes_are_checked_before_the_array_is_built(transform, message):
    """Each leaf's record must hold 2**(m + k_z) rows of 2**(m + k_z) finite
    [re, im] pairs; a wrong dimension no longer surfaces later as a
    ShapeError from the simulator."""
    with pytest.raises(SchemaError, match=message):
        parse_document(_mutated(lambda raw: transform(raw["matrices"])))


@pytest.mark.parametrize("m", [40, 100])
def test_a_short_matrix_for_a_huge_register_is_refused_before_any_array(m):
    """The parameters fix each record's row count; a record that falls short
    of 2**m rows is refused by its length, however large 2**m is, and no
    array of the declared size is built."""
    raw = json.loads(emit_json(Circuit(allocate_registers(1, m))))
    raw["matrices"] = {"0": {"matrix": [[[1.0, 0.0]]]}}
    with pytest.raises(SchemaError) as info:
        parse_document(json.dumps(raw))
    assert str(info.value) == (
        f"matrices.0.matrix: expected {1 << m} rows (2**(m + k) for this leaf), got 1"
    )


@pytest.mark.parametrize(
    "transform, path",
    [
        (lambda m: m["0"]["matrix"][0][1].__setitem__(0, True), "0.matrix[0][1]"),  # among floats
        (lambda m: m["1"]["matrix"][1][1].__setitem__(1, False), "1.matrix[1][1]"),
        (lambda m: m["0"].update(matrix=[[[0, 0], [1, 0]], [[True, 0], [0, 0]]]), "0.matrix[1][0]"),  # among ints
    ],
    ids=["true-among-floats", "false-among-floats", "true-among-ints"],
)
def test_boolean_matrix_entries_are_refused(transform, path):
    """numpy reads ``true`` as 1 among numbers, so a boolean entry is
    refused by its type, with the message of any other non-number."""
    with pytest.raises(SchemaError) as info:
        parse_document(_mutated(lambda raw: transform(raw["matrices"])))
    assert str(info.value) == f"matrices.{path}: expected a [re, im] pair of numbers"


def test_matrices_section_checks_every_record_before_reporting_the_first_fault():
    """A fault in a later record is reported for that record after every
    record before it has passed; the bulk and the record-by-record checks
    agree on which comes first."""
    inst = build_random_instance(2, 1, k=[0, 1, 0, 1], seed=3)
    text = emit_json(synth_access(inst.layout(), inst.unitaries), inst.unitaries)
    for transform, message in (
        (lambda m: m["01"]["matrix"][2][3].__setitem__(0, True), r"^matrices\.01\.matrix\[2\]\[3\]: expected a \[re"),
        (lambda m: m["10"].update(declared_depth=0), r"^matrices\.10\.declared_depth: expected an integer >= 1$"),
        (lambda m: m["10"]["matrix"][0][0].__setitem__(0, 0.5), r"^matrices\.10: matrix for leaf '10' is not unitary"),
    ):
        raw = json.loads(text)
        transform(raw["matrices"])
        raw["matrices"]["11"]["matrix"][0][0] = None  # a second fault, after the first
        with pytest.raises(SchemaError, match=message):
            parse_document(json.dumps(raw))


@pytest.mark.parametrize("depth", [0, 2**62 + 1, 2**63, 2**70, True, 1.5], ids=str)
def test_declared_depth_has_one_rule_across_the_api(depth):
    """A declared depth is an int, not a bool, from 1 to 2**62: the gate and
    payload constructors, stacking and structural synthesis all refuse any
    other value with the same error, and none lets an OverflowError out."""
    layout = allocate_registers(1, 1, 0)
    identity = np.eye(2)
    calls = [
        lambda: Gate.controlled_opaque(0, [1], "0", declared_depth=depth),
        lambda: UnitarySpec("0", identity, declared_depth=depth),
        lambda: UnitarySpec.stack(["0", "1"], [identity, identity], [depth, 1]),
        lambda: synth_run(layout, declared_depths=depth),
        lambda: synth_access(layout, None, declared_depths={"1": depth}),
    ]
    for call in calls:
        with pytest.raises(InvalidParameterError, match=r"^declared depths are integers in \[1, 4611686018427387905\), got "):
            call()


def test_declared_depth_bound_holds_in_documents():
    """A payload of declared depth 2**62 round-trips through a document;
    one step past it, or ``true``, is refused in a gate record and in a
    ``matrices`` record alike."""
    layout = allocate_registers(1, 1, 0)
    specs = UnitarySpec.stack(["0", "1"], [np.eye(2), np.eye(2)], [2**62, 1])
    text = emit_json(synth_access(layout, specs), specs)
    document = parse_document(text)
    assert document.unitaries == specs
    assert emit_json(document.circuit, document.unitaries) == text
    for depth, message in ((2**62 + 1, "expected an integer <= 2**62"), (True, "expected an integer")):
        for in_matrices in (False, True):
            raw = json.loads(text)
            if in_matrices:
                path, record = "matrices.0", raw["matrices"]["0"]
            else:
                path, record = next(
                    (f"moments[{i}][{j}]", gate) for i, moment in enumerate(raw["moments"])
                    for j, gate in enumerate(moment) if gate["kind"] == "cu"
                )
            record["declared_depth"] = depth
            with pytest.raises(SchemaError) as info:
                parse_document(json.dumps(raw))
            assert str(info.value) == f"{path}.declared_depth: {message}"


def test_a_refused_matrix_is_checked_once():
    """A record whose product overflows fails the bulk check and is then
    named by the record-by-record walk; the product's overflow is judged by
    its deviation, and no numpy warning escapes either check."""
    raw = json.loads(_golden_text("access_n1_m1.json"))
    raw["matrices"]["0"]["matrix"][0][0] = [1e300, 0.0]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SchemaError) as info:
            parse_document(json.dumps(raw, indent=2))
    assert str(info.value) == "matrices.0: matrix for leaf '0' is not unitary (deviation inf)"
    assert not [warning for warning in caught if issubclass(warning.category, RuntimeWarning)]


@pytest.mark.parametrize("enabled", [True, False])
def test_parse_document_restores_the_collector_state(enabled, monkeypatch):
    """The collector is paused while a document is parsed, and the caller's
    state comes back whether the document parses or is refused.  The text is
    decoded by ``json.loads`` and, for the records of ``matrices``, by
    ``JSONDecoder.raw_decode``: every call of either runs paused, for a
    ``str`` and for UTF-8 ``bytes``, and for bytes that are not UTF-8."""
    inst, circuit = _tiny()
    good = emit_json(circuit, inst.unitaries)
    loads, raw_decode = json.loads, json.JSONDecoder.raw_decode
    during = []
    monkeypatch.setattr(json, "loads", lambda text: during.append(gc.isenabled()) or loads(text))
    monkeypatch.setattr(
        json.JSONDecoder, "raw_decode",
        lambda self, text, idx=0: during.append(gc.isenabled()) or raw_decode(self, text, idx),
    )
    was = gc.isenabled()
    try:
        texts = (good, good[:-1], good.replace('"size": 1', '"size": 2', 1))
        for text in texts + tuple(text.encode() for text in texts) + (good.encode() + b"\xff",):
            gc.enable() if enabled else gc.disable()
            try:
                parse_document(text)
            except SchemaError:
                assert text not in (good, good.encode())
            assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()
    assert len(during) > 6 and not any(during)


def test_register_rows_are_labelled_once_per_layout(monkeypatch):
    """The header, the QASM registers and a second emission read one set of
    labelled register rows, built on first use."""
    inst = build_table_lookup_instance(2, 1, table=[1, 0, 1, 1])
    circuit = synth_access(inst.layout(), inst.unitaries)
    labelled = tree.RegisterMap.__dict__["labelled_rows"]
    build, calls = labelled.func, []
    monkeypatch.setattr(labelled, "func", lambda layout: calls.append(layout) or build(layout))
    first = emit_json(circuit, inst.unitaries)
    emit_qasm(circuit)
    assert emit_json(circuit, inst.unitaries) == first
    assert calls == [circuit.layout]


def test_rejects_unknown_sections():
    text = _mutated(lambda raw: raw.update(extras={}))
    with pytest.raises(SchemaError, match=r"unknown section\(s\) \['extras'\]"):
        parse_document(text)


def _qram_document_with_targets(cut) -> dict:
    """``synth --family qram --n 1 --m 1 --include-matrices`` with ``cut``
    applied to the targets of each ``cu`` record (moment, position, targets)."""
    instance = build_qram_instance(1, 1)
    raw = json.loads(emit_json(synth_access(instance.layout(), instance.unitaries), instance.unitaries))
    blocks = [(i, j, gate) for i, gates in enumerate(raw["moments"]) for j, gate in enumerate(gates)
              if gate["kind"] == "cu"]
    for i, j, gate in blocks:
        gate["targets"] = cut(i, j, gate["targets"])
    return raw


def test_opaque_targets_are_checked_against_their_leafs_matrix(capsys, tmp_path):
    """With a matrices section, an opaque record whose targets do not match
    its leaf's matrix is refused by the parser, naming the first such
    record; without one the circuit alone is accepted."""
    raw = _qram_document_with_targets(lambda i, j, targets: targets[:1] if (i, j) == (6, 0) else targets)
    message = "moments[6][0].targets: leaf '0' has a matrix on 2 qubit(s), got 1 target(s)"
    with pytest.raises(SchemaError) as info:
        parse_document(json.dumps(raw))
    assert str(info.value) == message
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(raw))
    assert main(["simulate", "--circuit", str(path), "--address", "0"]) == 2
    assert message in capsys.readouterr().err
    del raw["matrices"]
    assert parse_document(json.dumps(raw)).unitaries is None

    grown = _qram_document_with_targets(lambda i, j, targets: targets + [0] if j == 1 else targets)
    with pytest.raises(SchemaError) as info:
        parse_document(json.dumps(grown))
    assert str(info.value) == "moments[6][1].targets: leaf '1' has a matrix on 2 qubit(s), got 3 target(s)"
    both = _qram_document_with_targets(lambda i, j, targets: targets[1:])
    with pytest.raises(SchemaError, match=r"^moments\[6\]\[0\]\.targets: "):
        parse_document(json.dumps(both))


# ---------------------------------------------------------------------------
# QASM structure and grammar
# ---------------------------------------------------------------------------


def test_qasm_structure():
    _, circuit = _tiny()
    text = emit_qasm(circuit)
    lines = text.splitlines()
    assert lines[0] == "OPENQASM 2.0;"
    assert lines[1] == 'include "qelib1.inc";'
    qregs = [line for line in lines if line.startswith("qreg")]
    assert qregs == [
        "qreg address[1];",
        "qreg result[1];",
        "qreg life_eps[1];",
        "qreg life_0[1];",
        "qreg res_0[1];",
        "qreg life_1[1];",
        "qreg res_1[1];",
    ]
    assert "gate fredkin a,b,c { cx c,b; ccx a,b,c; cx c,b; }" in lines
    assert "opaque cu_0 ctl,q0;" in lines
    assert "opaque cu_1 ctl,q0;" in lines
    assert sum(line.startswith("// moment") for line in lines) == circuit.num_moments
    assert "x life_eps[0];" in lines
    assert "cu_0 life_0[0],res_0[0];" in lines


def test_qasm_dagger_blocks_get_their_own_declaration():
    inst = build_table_lookup_instance(1, 1, table=[1, 0])
    run = synth_run(inst.layout(), inst.unitaries).adjoint()
    text = emit_qasm(run)
    assert "opaque cu_0_dg ctl,q0;" in text
    assert "cu_0_dg life_0[0],res_0[0];" in text
    assert_valid_qasm2(text)


def test_qasm_of_dagger_blocks_reads_back_as_its_circuit():
    """The adjoint Run phase and access circuit of a per-leaf-width
    instance, whose blocks are all daggers, read back as their circuits;
    the third case of :func:`_daggers` has a label that no QASM
    declaration takes."""
    circuits = [circuit for circuit, _ in _daggers()][:2]
    for circuit in circuits:
        assert circuit.columns.dagger[circuit.columns.kind == OPAQUE].all()
        helpers.assert_qasm_reads_back(emit_qasm(circuit), circuit)


@pytest.mark.parametrize("variant", ["sequential", "fanout"])
def test_qasm_passes_external_grammar(variant):
    inst = build_rotation_instance(2, 2)
    circuit = synth_access(inst.layout(), inst.unitaries, SynthesisOptions(variant=variant))
    assert_valid_qasm2(emit_qasm(circuit))


def test_qasm_declares_an_opaque_block_with_its_own_target_count():
    """A block with fewer targets than res ++ mem, as ``from_moments`` or a
    document without matrices accepts, is declared with its own count."""
    layout = allocate_registers(1, 2)
    block = Gate.controlled_opaque(layout.life("0"), layout.res("0")[:1], "0")
    text = emit_qasm(Circuit.from_moments(layout, [[block]]))
    assert "opaque cu_0 ctl,q0;" in text.splitlines()
    assert "cu_0 life_0[0],res_0[0];" in text.splitlines()
    assert_valid_qasm2(text)
    # the dagger flag names another declaration, which may take another count
    wide = Gate.controlled_opaque(layout.life("0"), layout.res("0"), "0", dagger=True)
    text = emit_qasm(Circuit.from_moments(layout, [[block], [wide]]))
    assert {"opaque cu_0 ctl,q0;", "opaque cu_0_dg ctl,q0,q1;"} <= set(text.splitlines())
    assert_valid_qasm2(text)


def test_qasm_refuses_one_declaration_with_two_target_counts():
    layout = allocate_registers(1, 2)
    life, res = layout.life("0"), layout.res("0")
    circuit = Circuit.from_moments(layout, [
        [Gate.controlled_opaque(life, res, "0")], [Gate.controlled_opaque(life, res[:1], "0")],
    ])
    with pytest.raises(StructuralError, match=r"^opaque blocks on leaf '0' have 2 and 1 targets"):
        emit_qasm(circuit)


def test_qasm_arity_check_catches_a_short_application():
    """The arity helper the grammar tests share refuses an application with
    fewer arguments than its declaration, which the grammar alone accepts."""
    text = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\nopaque cu_0 ctl,q0,q1;\ncu_0 q[0],q[1];\n'
    with pytest.raises(AssertionError, match="cu_0 q"):
        assert_valid_qasm2(text)


def test_qasm_no_fredkin_definition_when_unused():
    inst, _ = _tiny()
    down = synth_down(inst.layout())
    # the down phase of a k=0, m=1 tree still hands results down, so build a
    # circuit with no fredkins at all instead: the run phase alone
    run = synth_run(inst.layout(), inst.unitaries)
    text = emit_qasm(run)
    assert "gate fredkin" not in text
    assert_valid_qasm2(text)
    assert "gate fredkin" in emit_qasm(down)


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


def test_state_round_trip():
    inst, circuit = _tiny()
    amp = 1 / np.sqrt(2)
    state = superpose(
        [
            (amp, basis_state(circuit.layout, 0, 1)),
            (-1j * amp, basis_state(circuit.layout, 1, 0)),
        ]
    )
    text = serialize_state(state)
    back = parse_state(text)
    assert back.num_qubits == state.num_qubits
    assert back.amps == state.amps
    assert serialize_state(back) == text


def test_state_document_shape():
    raw = json.loads(serialize_state(SparseState(3, {5: 1j})))
    assert raw["format"] == "qramforge-state/1"
    assert raw["num_qubits"] == 3
    assert raw["terms"] == [{"bits": "101", "re": 0.0, "im": 1.0}]


@pytest.mark.parametrize("parse", [parse_document, parse_state])
@pytest.mark.parametrize("value", [None, 123, 1.5, ["{}"], bytearray(b"{}"), memoryview(b"{}")])
def test_parsers_refuse_an_argument_that_is_neither_str_nor_bytes(parse, value):
    with pytest.raises(InvalidParameterError, match=f"^documents are str or UTF-8 bytes, got {type(value).__name__}$"):
        parse(value)


def test_parsers_read_utf8_bytes_as_the_text_they_encode():
    inst, circuit = _tiny()
    text = emit_json(circuit, inst.unitaries)
    assert parse_document(text.encode()) == parse_document(text)
    state = serialize_state(SparseState(3, {5: 1j, 2: -0.5}))
    assert parse_state(state.encode()).amps == parse_state(state).amps
    with pytest.raises(SchemaError, match=r"^format: expected 'qramforge-circuit/1'$"):
        parse_document(b"{}")


def test_a_document_in_bytes_is_never_decoded_whole():
    """Of UTF-8 bytes, the decoder decodes the head and each distinct record,
    not the whole document: decoding them peaks about as high as decoding
    the text, not a text's length higher."""
    inst = build_random_instance(4, 3, 1)
    text = emit_json(synth_access(inst.layout(), inst.unitaries), inst.unitaries)
    peaks = []
    for document in (text, text.encode()):
        tracemalloc.start()
        try:
            formats._decode(document)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + len(text) // 4


def test_parsers_refuse_bytes_that_are_not_utf8():
    """Bytes are read as UTF-8 only: ``json.loads`` would take UTF-16 and a
    UTF-8 byte-order mark from bytes, the parsers refuse both."""
    state = serialize_state(SparseState(1, {0: 1}))
    for parse, text in ((parse_document, emit_json(_tiny()[1])), (parse_state, state)):
        with pytest.raises(SchemaError, match=r"^not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 0"):
            parse(text.encode("utf-16"))
        with pytest.raises(SchemaError, match=r"^not valid JSON: Unexpected UTF-8 BOM"):
            parse(b"\xef\xbb\xbf" + text.encode())
        with pytest.raises(SchemaError, match=r"^not valid UTF-8: .* in position 2: invalid start byte$"):
            parse(text.encode()[:2] + b"\x80" + text.encode()[2:])


def test_state_schema_errors():
    with pytest.raises(SchemaError, match="not valid JSON"):
        parse_state("nope")
    with pytest.raises(SchemaError, match="format: expected"):
        parse_state(json.dumps({"format": "x", "num_qubits": 1, "terms": []}))
    good = {"format": "qramforge-state/1", "num_qubits": 2, "terms": []}
    with pytest.raises(SchemaError, match="num_qubits: expected an integer"):
        parse_state(json.dumps({**good, "num_qubits": "two"}))
    with pytest.raises(SchemaError, match=r"terms\[0\].bits: expected a bit string of length 2"):
        parse_state(json.dumps({**good, "terms": [{"bits": "010"}]}))
    with pytest.raises(SchemaError, match="duplicate basis term"):
        parse_state(
            json.dumps({**good, "terms": [{"bits": "01", "re": 1.0}, {"bits": "01", "re": 0.5}]})
        )
    for term in ({"re": "one"}, {"re": "0.5"}, {"im": True}, {"re": 1.0, "im": None}):
        with pytest.raises(SchemaError, match=r"^terms\[0\]: re/im must be numbers$"):
            parse_state(json.dumps({**good, "terms": [{"bits": "01", **term}]}))
