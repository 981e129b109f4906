"""Seeded fuzzing of the document parsers: mutated circuit and state
documents must be refused with SchemaError and nothing else, and the command
line must exit 2 on them."""

import copy
import json
import random
from pathlib import Path

import pytest

from qramforge import (
    SchemaError,
    basis_state,
    build_table_lookup_instance,
    emit_json,
    formats,
    parse_document,
    parse_state,
    run_circuit,
    serialize_state,
    superpose,
    synth_access,
)
from qramforge.cli import main

DATA = Path(__file__).parent / "data"

#: Values of every JSON type, some of them extreme.
JUNK = (None, True, False, 0, -1, 7, 2**70, -(2**70), 10**400, 0.5, float("nan"), float("inf"),
        "", "x", "01", [], [1, "a"], [[0, 0]], {}, {"kind": "x"})


def _golden() -> dict:
    return json.loads((DATA / "access_n1_m1.json").read_text())


def _state_document() -> dict:
    instance = build_table_lookup_instance(1, 1, table=[1, 0])
    circuit = synth_access(instance.layout(), instance.unitaries)
    state = superpose([(0.6, basis_state(circuit.layout, 0, 1)),
                       (0.8j, basis_state(circuit.layout, 1, 0))])
    return json.loads(serialize_state(run_circuit(state, circuit, instance.unitaries)))


def _nodes(value, out):
    """Every (container, key) slot of a JSON tree."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        out.append((value, key))
        _nodes(child, out)
    return out


def _gates(raw):
    return [(i, j, gate) for i, moment in enumerate(raw.get("moments", []))
            for j, gate in enumerate(moment)]


def _drop_key(rng, raw):
    slots = [(c, k) for c, k in _nodes(raw, []) if isinstance(c, dict)]
    container, key = rng.choice(slots)
    del container[key]


def _duplicate_key(rng, raw):
    """The text repeats a key of some object; the parser keeps the last value.
    The key is returned, for :func:`_mutants` to write in place of the
    placeholder."""
    dicts = [raw] + [c[k] for c, k in _nodes(raw, []) if isinstance(c[k], dict) and c[k]]
    target = rng.choice(dicts)
    key = rng.choice(sorted(target))
    target["__duplicate__"] = rng.choice(JUNK)
    return key


def _wrong_type(rng, raw):
    container, key = rng.choice(_nodes(raw, []))
    container[key] = copy.deepcopy(rng.choice([v for v in JUNK if type(v) is not type(container[key])]))


def _qubit_out_of_range(rng, raw):
    _, _, gate = rng.choice(_gates(raw))
    field = rng.choice([f for f in ("controls", "targets") if gate[f]])
    gate[field][rng.randrange(len(gate[field]))] = rng.choice(
        [-1, -(2**70), raw["metrics"]["total_qubits"], 10**6, 2**70]
    )


def _overlap(rng, raw):
    """Two gates of one moment share a qubit."""
    i, j, gate = rng.choice(_gates(raw))
    if rng.random() < 0.5 or len(raw["moments"][i]) < 2:
        raw["moments"][i].append(copy.deepcopy(gate))
    else:
        other = raw["moments"][i][(j + 1) % len(raw["moments"][i])]
        other["targets"][0] = (gate["controls"] + gate["targets"])[0]


def _falsify_metric(rng, raw):
    metrics = raw["metrics"]
    key = rng.choice(sorted(metrics))
    if key == "gate_counts":
        kind = rng.choice(sorted(metrics[key]))
        metrics[key][kind] += rng.choice([-1, 1])
    else:
        metrics[key] += rng.choice([-1, 1, 100])


def _ragged_matrix(rng, raw):
    record = raw["matrices"][rng.choice(sorted(raw["matrices"]))]
    rows = record["matrix"]
    r = rng.randrange(len(rows))
    choice = rng.randrange(5)
    if choice == 0:
        rows.pop(r)
    elif choice == 1:
        rows.append(copy.deepcopy(rows[r]))
    elif choice == 2:
        rows[r].pop()
    elif choice == 3:
        rows[r][0] = rows[r][0][:1]
    else:
        rows[r][0] = [rows[r][0][0], rows[r][0][1], 0.0]


def _flood_moment(rng, raw):
    """One moment lists more gates than the layout has qubits: copies of one
    of its gates, or junk."""
    i, _, gate = rng.choice(_gates(raw))
    extra = raw["metrics"]["total_qubits"] + 1 - len(raw["moments"][i]) + rng.randrange(100)
    filler = copy.deepcopy(gate) if rng.random() < 0.5 else rng.choice(JUNK)
    raw["moments"][i] += [copy.deepcopy(filler) for _ in range(extra)]


def _boolean_entry(rng, raw):
    """One number of a matrix entry becomes ``true`` or ``false``."""
    rows = raw["matrices"][rng.choice(sorted(raw["matrices"]))]["matrix"]
    rng.choice(rng.choice(rows))[rng.randrange(2)] = rng.choice([True, False])


CIRCUIT_MUTATIONS = (_drop_key, _duplicate_key, _wrong_type, _qubit_out_of_range, _overlap,
                     _falsify_metric, _ragged_matrix, _flood_moment)
STATE_MUTATIONS = (_drop_key, _duplicate_key, _wrong_type)


def _mutants(base, mutations, seed, count, indent=None):
    """``count`` mutated documents, each dumped compactly or with indent 2 at
    random (a repeated key always compactly); a given ``indent`` is used for
    every document instead, after the same random choices."""
    rng = random.Random(seed)
    for index in range(count):
        mutation = mutations[index % len(mutations)]
        raw = copy.deepcopy(base)
        repeated = mutation(rng, raw)
        chosen = None if repeated is not None else rng.choice([None, 2])
        text = json.dumps(raw, indent=chosen if indent is None else indent)
        if repeated is not None:
            text = text.replace('"__duplicate__"', json.dumps(repeated))
        yield mutation.__name__, text


def _outcome(parse, text):
    try:
        parse(text)
    except SchemaError:
        return "refused"
    return "accepted"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mutated_circuit_documents_raise_only_schema_errors(seed):
    refused = {mutation.__name__: 0 for mutation in CIRCUIT_MUTATIONS}
    for name, text in _mutants(_golden(), CIRCUIT_MUTATIONS, seed, 400):
        refused[name] += _outcome(parse_document, text) == "refused"
    # qubits out of range, overlaps, false metrics, ragged matrices and
    # flooded moments are always refused; the other mutations sometimes
    # leave a valid document
    for name in ("_qubit_out_of_range", "_overlap", "_falsify_metric", "_ragged_matrix", "_flood_moment"):
        assert refused[name] == 50, name
    assert all(refused.values()), refused


@pytest.mark.parametrize("seed", [0, 1])
def test_boolean_matrix_entries_are_refused(seed):
    for _, text in _mutants(_golden(), (_boolean_entry,), seed, 40):
        with pytest.raises(SchemaError, match=r"^matrices\.[01]\.matrix\[[01]\]\[[01]\]: expected a \[re, im\] pair of numbers$"):
            parse_document(text)


def test_flooded_moments_are_refused_by_the_moment_bound():
    floods = [text for name, text in _mutants(_golden(), CIRCUIT_MUTATIONS, 3, 80) if name == "_flood_moment"]
    assert len(floods) == 10
    for text in floods:
        with pytest.raises(SchemaError, match=r"^moments\[\d+\]: \d+ gates in one moment, more than the layout's 7"):
            parse_document(text)


# ---------------------------------------------------------------------------
# the record-by-record decoder against json.loads
# ---------------------------------------------------------------------------


def _parse_outcome(text):
    try:
        doc = parse_document(text)
    except SchemaError as exc:
        return "refused", str(exc)
    return "accepted", emit_json(doc.circuit, doc.unitaries)


def _check_decode(text, monkeypatch) -> bool:
    """``formats._decode`` gives the tree ``json.loads`` gives, with its key
    order, and ``parse_document`` the outcome and message it gives when the
    whole text goes through ``json.loads``; whether ``_decode`` took the
    ``matrices`` records one by one rather than the whole text."""
    loads, whole = json.loads, []
    try:
        expected = loads(text)
    except json.JSONDecodeError:
        expected = None
    with monkeypatch.context() as patch:
        patch.setattr(json, "loads", lambda part: whole.append(part == text) or loads(part))
        if expected is None:
            with pytest.raises(json.JSONDecodeError):
                formats._decode(text)
        else:
            assert json.dumps(formats._decode(text)) == json.dumps(expected)  # NaN != NaN, so compare the dumps
    outcome = _parse_outcome(text)
    with monkeypatch.context() as patch:
        patch.setattr(formats, "_decode", loads)
        assert _parse_outcome(text) == outcome
    return not any(whole)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mutants_in_the_emitters_layout_decode_as_json_loads_does(seed, monkeypatch):
    """Every mutation, dumped with indent 2 as the emitter writes, so that
    most of them reach the record-by-record decoder."""
    mutations = CIRCUIT_MUTATIONS + (_boolean_entry,)
    decoded = sum(
        _check_decode(text, monkeypatch)
        for _, text in _mutants(_golden(), mutations, seed, 180, indent=2)
    )
    assert decoded >= 150


GOLDEN = (DATA / "access_n1_m1.json").read_text()
MATRICES = GOLDEN.index(formats._MATRICES)


def _in_matrices(old: str, new: str) -> str:
    """The golden document with the first ``old`` in its ``matrices``
    section replaced."""
    return GOLDEN[:MATRICES] + GOLDEN[MATRICES:].replace(old, new, 1)


def _reordered(*keys) -> str:
    raw = json.loads(GOLDEN)
    return json.dumps({key: raw[key] for key in keys}, indent=2)


_RECORD_0 = GOLDEN[GOLDEN.index('"0": {') + 5 : GOLDEN.index(',\n    "1": {')]
_RECORD_1 = GOLDEN[GOLDEN.index('"1": {') + 5 : GOLDEN.rindex("\n  }")]

#: Texts around the decoder's fast path, and whether they take it.
HOSTILE = {
    "golden": (GOLDEN, True),
    "shared body": (GOLDEN.replace(_RECORD_1, _RECORD_0), True),
    "duplicate leaf key": (_in_matrices('"1": {', '"0": {'), True),
    "duplicate leaf key, shared body": (GOLDEN.replace(_RECORD_1, _RECORD_0).replace('"1": {', '"0": {'), True),
    "second matrices section": (GOLDEN[:-2] + GOLDEN[MATRICES:-2] + "\n}", False),
    "earlier matrices key": (GOLDEN.replace('{\n  "format"', '{\n  "matrices": {},\n  "format"', 1), True),
    "escaped leaf key": (_in_matrices('"0": {', '"\\u0030": {'), False),
    "leaf key of other characters": (_in_matrices('"0": {', '"0x": {'), False),
    "empty leaf key": (_in_matrices('"0": {', '"": {'), True),
    "NaN entry": (_in_matrices("1.0,", "NaN,"), True),
    "Infinity entry": (_in_matrices("1.0,", "Infinity,"), True),
    "1e400 entry": (_in_matrices("1.0,", "1e400,"), True),
    "nested object in a record": (_in_matrices('"declared_depth": 1', '"declared_depth": {"d": 1}'), False),
    "brace in a string in a record": (_in_matrices('"declared_depth"', '"note": "}",\n      "declared_depth"'), False),
    "empty record": (GOLDEN.replace(_RECORD_0, "{}"), True),
    "record that is not an object": (GOLDEN.replace(_RECORD_0, "[1, {}]"), False),
    "record separator inside a record": (_in_matrices(",\n            0.0", ",\n    0.0"), True),
    "record separator at another depth": (_in_matrices(',\n    "1": {', ',\n  "1": {'), False),
    "no separator between records": (_in_matrices(',\n    "1": {', '\n    "1": {'), False),
    "text after the final brace": (GOLDEN + "x", False),
    "a second final brace": (GOLDEN + "\n}", False),
    "whitespace after the final brace": (GOLDEN + "\n \t\r\n", True),
    "no final brace": (GOLDEN[:-1], False),
    "matrices before moments": (_reordered("format", "parameters", "registers", "metrics", "matrices", "moments"), False),
    "a section after matrices": (GOLDEN[:-2] + ',\n  "extras": {}\n}', False),
    "matrices alone": ("{" + GOLDEN[MATRICES + 1 :], False),
    "a comma before matrices alone": ("{" + GOLDEN[MATRICES:], False),
}


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_hostile_texts_decode_as_json_loads_does(case, monkeypatch):
    text, decoded = HOSTILE[case]
    assert _check_decode(text, monkeypatch) is decoded


@pytest.mark.parametrize("seed", [0, 1])
def test_mutated_state_documents_raise_only_schema_errors(seed):
    outcomes = [_outcome(parse_state, text)
                for _, text in _mutants(_state_document(), STATE_MUTATIONS, seed, 240)]
    assert "refused" in outcomes


def test_command_line_exits_2_on_mutated_documents(tmp_path, capsys):
    path = tmp_path / "doc.json"
    commands = (
        ["simulate", "--circuit", str(path)],
        ["verify", "--family", "table_lookup", "--n", "1", "--m", "1", "--table", "1,0",
         "--circuit", str(path)],
    )
    checked = 0
    for _, text in _mutants(_golden(), CIRCUIT_MUTATIONS, 7, 28):
        if _outcome(parse_document, text) == "accepted":
            continue
        path.write_text(text)
        for argv in commands:
            assert main(argv) == 2, (argv, text)
            assert "error:" in capsys.readouterr().err
        checked += 1
    assert checked >= 20
