"""The one rule for caller-given integers (``errors.check_int``): an ``int``,
not a ``bool``, within the input's bounds; anything else is refused with
``InvalidParameterError`` and nothing else, and the command line exits 2."""

import pytest

from qramforge import (
    ConfigurationError,
    Gate,
    InvalidParameterError,
    ResourceLimitError,
    SchemaError,
    RegisterMap,
    SparseState,
    SynthesisOptions,
    UnitarySpec,
    allocate_registers,
    basis_state,
    build_instance,
    build_qram_instance,
    build_random_instance,
    build_rotation_instance,
    build_table_lookup_instance,
    check_linearity,
    check_proposition,
    check_variant_agreement,
    emit_json,
    label_of,
    oracle_effect,
    oracle_superposition,
    parse_document,
    parse_state,
    synth_access,
    synth_run,
)
from qramforge.cli import main
from qramforge.tree import MAX_QUBITS

QRAM = build_qram_instance(1, 1)
LAYOUT = allocate_registers(1, 1, [0, 2])

#: Every caller-given integer of the package: a call that takes the value,
#: and the first value past its upper bound (None where there is none).
ENTRY_POINTS = {
    "address width": (lambda v: allocate_registers(v, 1), 17),
    "result width": (lambda v: allocate_registers(1, v), None),
    "memory width": (lambda v: allocate_registers(1, 1, v), None),
    "memory width in a list": (lambda v: allocate_registers(1, 1, [0, v]), None),
    "label value": (lambda v: label_of(v, 1), 2),
    "label width": (lambda v: label_of(0, v), 17),
    "tree level": (lambda v: allocate_registers(2, 1).level(v), 3),
    "layout fan-out block": (lambda v: RegisterMap(2, 4, fanout_block=v), 5),
    "fan-out copies": (lambda v: allocate_registers(2, 4).with_fanout_copies(v), 5),
    "synthesis fan-out block": (
        lambda v: synth_access(allocate_registers(2, 4), None, SynthesisOptions(variant="fanout", fanout_block=v)), 5),
    "agreement block size": (lambda v: check_variant_agreement(build_qram_instance(1, 4), block_sizes=[v]), 5),
    "qubit count": (lambda v: SparseState(v), MAX_QUBITS + 1),
    "basis key": (lambda v: SparseState(2, {v: 1}), 4),
    "basis address": (lambda v: basis_state(LAYOUT, v), 2),
    "basis result": (lambda v: basis_state(LAYOUT, 0, v), 2),
    "basis memory": (lambda v: basis_state(LAYOUT, 0, 0, [0, v]), 4),
    "gate qubit": (lambda v: Gate.x(v), None),
    "gate declared depth": (lambda v: Gate.controlled_opaque(0, [1], "0", declared_depth=v), 2**62 + 1),
    "payload declared depth": (lambda v: UnitarySpec("0", [[1, 0], [0, 1]], declared_depth=v), 2**62 + 1),
    "run declared depth": (lambda v: synth_run(LAYOUT, declared_depths=v), 2**62 + 1),
    "table entry": (lambda v: build_table_lookup_instance(1, 1, table=[0, v]), 2),
    "fraction width": (lambda v: build_rotation_instance(1, v), None),
    "lookup seed": (lambda v: build_table_lookup_instance(1, 1, seed=v), None),
    "random seed": (lambda v: build_random_instance(1, 1, seed=v), None),
    "instance seed": (lambda v: build_instance("qram", 1, 1, seed=v), None),
    "proposition seed": (lambda v: check_proposition(QRAM, seed=v), None),
    "linearity seed": (lambda v: check_linearity(QRAM, seed=v), None),
    "agreement seed": (lambda v: check_variant_agreement(QRAM, seed=v), None),
    "proposition assignments": (lambda v: check_proposition(QRAM, assignments=v), None),
    "agreement assignments": (lambda v: check_variant_agreement(QRAM, assignments=v), None),
    "linearity case count": (lambda v: check_linearity(QRAM, num_cases=v), None),
    "oracle address": (lambda v: oracle_effect(QRAM, v), 2),
    "oracle result": (lambda v: oracle_effect(QRAM, 0, v), 2),
    "oracle memory": (lambda v: oracle_effect(QRAM, 0, 0, (v, 0)), 2),
    "superposed address": (lambda v: oracle_superposition(QRAM, [(1, v)]), 2),
    "listed case": (lambda v: check_proposition(QRAM, cases=[(0, v, None)]), 2),
}

#: Counts of sampled cases, for which a negative count means none.
COUNTS = {"proposition assignments", "agreement assignments", "linearity case count"}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_every_integer_input_follows_the_one_rule(name):
    call, past = ENTRY_POINTS[name]
    for value in (True, 1.5, -1, past):
        if value is None or (value == -1 and name in COUNTS):
            continue
        with pytest.raises(InvalidParameterError):
            call(value)


def test_negative_counts_keep_their_meaning():
    assert check_proposition(QRAM, assignments=-1).passed
    assert check_variant_agreement(QRAM, assignments=-1).passed


#: Inputs past a budget or outside the tree, each with the typed error it
#: raises before the allocation its size would ask for.
OVERSIZED = {
    "qram result width": (lambda: build_qram_instance(1, 10**12), ResourceLimitError),
    "rotation fraction width": (lambda: build_rotation_instance(1, 10**12), ResourceLimitError),
    "random memory width": (lambda: build_random_instance(1, 1, 10**12), ResourceLimitError),
    "state qubit count": (lambda: SparseState(10**12, {0: 1}), InvalidParameterError),
    "state document qubit count": (
        lambda: parse_state('{"format": "qramforge-state/1", "num_qubits": 1000000000000, "terms": []}'), SchemaError),
    "proposition assignments": (lambda: check_proposition(QRAM, assignments=10**12), ResourceLimitError),
    "linearity case count": (lambda: check_linearity(QRAM, num_cases=10**12), ResourceLimitError),
    "agreement assignments": (lambda: check_variant_agreement(QRAM, assignments=10**12), ResourceLimitError),
    "declared depth of no node": (
        lambda: synth_run(allocate_registers(2, 1), declared_depths={"junk": 5}), ConfigurationError),
    "declared depth of an inner node": (
        lambda: synth_access(allocate_registers(2, 1), None, declared_depths={"0": True}), ConfigurationError),
}


@pytest.mark.parametrize("name", sorted(OVERSIZED))
def test_oversized_inputs_raise_their_typed_error(name):
    call, error = OVERSIZED[name]
    with pytest.raises(error):
        call()


def test_refusals_name_the_rule_and_the_value():
    for call, message in [
        (lambda: allocate_registers(17, 1), "address widths are integers in [1, 17), got 17"),
        (lambda: allocate_registers(1, 0), "result widths are positive integers, got 0"),
        (lambda: check_linearity(QRAM, num_cases=True), "case counts are integers, got True"),
        (lambda: Gate.x(-4), "qubit indices are non-negative integers, got -4"),
        # ints too long for Python to print in decimal are shown by their size
        (lambda: allocate_registers(10**5000, 1), "address widths are integers in [1, 17), got an int of 16610 bits"),
        (lambda: basis_state(allocate_registers(1, 20000), 0, 2**20000),
         "result values are integers in [0, 2**20000), got 2**20000"),
    ]:
        with pytest.raises(InvalidParameterError) as excinfo:
            call()
        assert str(excinfo.value) == message


@pytest.mark.parametrize("build", [
    lambda: build_qram_instance(1, 10**5000),
    lambda: build_table_lookup_instance(1, 10**5000),
    lambda: build_rotation_instance(1, 10**5000),
    lambda: build_random_instance(1, 1, 10**5000),
    lambda: build_random_instance(1, 10**5000),
])
def test_builders_refuse_a_width_too_long_to_print(build):
    """A payload width past the decimal printing limit is refused by the
    budget, and the message shows it by its size, not by a ValueError."""
    with pytest.raises(ResourceLimitError) as excinfo:
        build()
    assert "an int of 16610 bits" in str(excinfo.value)


@pytest.mark.parametrize("block", [True, 2.0])
def test_a_fanout_layout_of_a_bad_block_is_refused_before_any_document(block):
    """A layout the parser would refuse is not built: a valid block size
    round-trips through a document, a bool or a float is refused."""
    layout = RegisterMap(2, 4, fanout_block=2)
    circuit = synth_access(layout, None)
    assert parse_document(emit_json(circuit)).circuit == circuit
    with pytest.raises(InvalidParameterError):
        RegisterMap(2, 4, fanout_block=block)


@pytest.mark.parametrize("check", [check_proposition, check_linearity, check_variant_agreement])
@pytest.mark.parametrize("option", ["fidelity_tolerance", "residual_tolerance"])
@pytest.mark.parametrize("value", [float("nan"), -1.0, "0", None])
def test_checkers_refuse_tolerances_that_are_no_bound(check, option, value):
    with pytest.raises(InvalidParameterError, match=option.replace("_", " ")):
        check(QRAM, **{option: value})


def _one_error_line(capsys) -> str:
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "Traceback" not in captured.err
    return lines[0]


@pytest.mark.parametrize("command", ["synth", "verify"])
@pytest.mark.parametrize("family", ["qram", "lookup", "random"])
def test_a_negative_seed_exits_2(command, family, capsys):
    assert main([command, "--family", family, "--n", "1", "--m", "1", "--seed", "-1"]) == 2
    assert _one_error_line(capsys) == "error: seeds are non-negative integers, got -1"


@pytest.mark.parametrize("option, value", [("--fidelity-tolerance", "nan"), ("--residual-tolerance", "-1")])
def test_a_tolerance_that_is_no_bound_exits_2(option, value, capsys):
    assert main(["verify", "--family", "qram", "--n", "1", "--m", "1", option, value]) == 2
    assert "tolerance must be a non-negative number" in _one_error_line(capsys)


def test_analyze_over_the_qubit_budget_exits_2(capsys):
    assert main(["analyze", "--n", "16", "--m", "16"]) == 2
    assert _one_error_line(capsys) == (
        "error: layout for n=16, m=16 needs 2293742 qubits, exceeding the budget of 2000000"
    )
