"""Seeded fuzzing of the document parsers: mutated circuit and state
documents must be refused with SchemaError and nothing else, and the command
line must exit 2 on them."""

import copy
import hashlib
import json
import random
import re
from pathlib import Path

import numpy as np
import pytest

from qramforge import (
    RegisterMap,
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


def _negative_qubit(rng, raw):
    _, _, gate = rng.choice(_gates(raw))
    field = rng.choice([f for f in ("controls", "targets") if gate[f]])
    gate[field][rng.randrange(len(gate[field]))] = rng.choice([-1, -5, -(2**70)])


def _repeated_qubit(rng, raw):
    """One qubit of a gate is repeated in the same gate."""
    gate = rng.choice([gate for _, _, gate in _gates(raw) if len(gate["controls"] + gate["targets"]) > 1])
    qubits = gate["controls"] + gate["targets"]
    a, b = rng.sample(range(len(qubits)), 2)
    field, index = ("controls", b) if b < len(gate["controls"]) else ("targets", b - len(gate["controls"]))
    gate[field][index] = qubits[a]


def _wrong_arity(rng, raw):
    """A gate of a kind chosen at random gains or loses a control or a target."""
    kind = rng.choice(sorted({gate["kind"] for _, _, gate in _gates(raw)}))
    gate = rng.choice([gate for _, _, gate in _gates(raw) if gate["kind"] == kind])
    field = rng.choice([f for f in ("controls", "targets") if gate[f]] + ["grow"])
    if field == "grow":
        gate[rng.choice(["controls", "targets"])].append(raw["metrics"]["total_qubits"] - 1)
    else:
        gate[field].pop()


def _non_unitary(rng, raw):
    """Every number of a matrix is scaled, just inside or outside the
    unitarity tolerance, or far outside it."""
    record = raw["matrices"][rng.choice(sorted(raw["matrices"]))]
    scale = rng.choice([1 + 0.35e-10, 1 + 0.7e-10, 1 + 1e-6, 2.0])
    record["matrix"] = [[[value * scale for value in pair] for pair in row] for row in record["matrix"]]


def _matrix_depth(rng, raw):
    raw["matrices"][rng.choice(sorted(raw["matrices"]))]["declared_depth"] = rng.choice([0, True, 1.5])


CIRCUIT_MUTATIONS = (_drop_key, _duplicate_key, _wrong_type, _qubit_out_of_range, _overlap,
                     _falsify_metric, _ragged_matrix, _flood_moment)
STATE_MUTATIONS = (_drop_key, _duplicate_key, _wrong_type)

#: Mutations aimed at one check each of the gate and matrix records.
FAULT_MUTATIONS = (_negative_qubit, _repeated_qubit, _wrong_arity, _non_unitary, _matrix_depth)


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


def _text_of(text) -> str | None:
    """A str as it is, bytes decoded as UTF-8; None for bytes that are not UTF-8."""
    if isinstance(text, str):
        return text
    try:
        return text.decode()
    except UnicodeDecodeError:
        return None


def _check_decode(text, monkeypatch) -> bool:
    """``formats._decode`` gives the tree ``json.loads`` gives for the text
    (bytes decoded as UTF-8), with its key order, or raises its error; and
    ``parse_document`` the outcome and message it gives when the whole text
    goes through ``json.loads`` that way.  Returns whether ``_decode`` took
    the ``matrices`` records one by one rather than the whole text."""
    loads, whole, source = json.loads, [], _text_of(text)
    error = UnicodeDecodeError if source is None else None
    try:
        expected = loads(source) if source is not None else None
    except json.JSONDecodeError:
        error = json.JSONDecodeError
    with monkeypatch.context() as patch:
        patch.setattr(json, "loads", lambda part: whole.append(part == source) or loads(part))
        if error is not None:
            with pytest.raises(error):
                formats._decode(text)
        else:
            assert json.dumps(formats._decode(text)) == json.dumps(expected)  # NaN != NaN, so compare the dumps
    outcome = _parse_outcome(text)
    with monkeypatch.context() as patch:
        patch.setattr(formats, "_decode", lambda part: loads(part if isinstance(part, str) else part.decode()))
        assert _parse_outcome(text) == outcome
    return error is None and not any(whole)


def _check_both(text: str, monkeypatch) -> bool:
    """:func:`_check_decode` of ``text`` and of its UTF-8 bytes, which must
    agree in the path taken and in ``parse_document``'s outcome and message."""
    decoded = _check_decode(text, monkeypatch)
    assert _check_decode(text.encode(), monkeypatch) is decoded
    assert _parse_outcome(text.encode()) == _parse_outcome(text)
    return decoded


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mutants_in_the_emitters_layout_decode_as_json_loads_does(seed, monkeypatch):
    """Every mutation, dumped with indent 2 as the emitter writes, so that
    most of them reach the record-by-record decoder."""
    mutations = CIRCUIT_MUTATIONS + (_boolean_entry,)
    decoded = sum(
        _check_both(text, monkeypatch)
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
    "malformed record": (_in_matrices("1.0,", "1.0,,"), False),
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
    assert _check_both(text, monkeypatch) is decoded


GOLDEN_BYTES = GOLDEN.encode()
MATRICES_BYTES = GOLDEN_BYTES.index(formats._MATRICES.encode())
#: A non-ASCII instance note, so that a byte offset past it is not a character offset.
NON_ASCII = GOLDEN.replace('"include_preparation": true', '"include_preparation": true,\n    "instance": {"note": "\u00e9\u4e2d\U0001d11e"}', 1)


def _bytes_in_matrices(old: bytes, new: bytes) -> bytes:
    return GOLDEN_BYTES[:MATRICES_BYTES] + GOLDEN_BYTES[MATRICES_BYTES:].replace(old, new, 1)


def _refused_byte(data: bytes, marker: bytes, reason: str) -> tuple:
    """A case refused at the first ``marker`` byte, which UTF-8 cannot start
    or continue there."""
    return (data, False, f"refused not valid UTF-8: 'utf-8' codec can't decode byte 0x{marker.hex()} in "
                         f"position {data.index(marker)}: {reason}")


#: Inputs only bytes can be: whether the decoder's fast path takes them, and
#: the outcome of ``parse_document``.
BYTES_ONLY = {
    "invalid UTF-8 in the head": _refused_byte(GOLDEN_BYTES.replace(b'"sequential"', b'"seque\xffntial"', 1),
                                               b"\xff", "invalid start byte"),
    "invalid UTF-8 in a matrices body": _refused_byte(_bytes_in_matrices(b'"declared_depth"', b'"declared\xff_depth"'),
                                                      b"\xff", "invalid start byte"),
    "invalid UTF-8 in a leaf key": _refused_byte(_bytes_in_matrices(b'"1": {', b'"\xff": {'), b"\xff",
                                                 "invalid start byte"),
    "an encoded surrogate in a matrices body": _refused_byte(_bytes_in_matrices(b'"declared_depth"', b'"\xed\xa0\x80"'),
                                                             b"\xed", "invalid continuation byte"),
    "a UTF-16 document": _refused_byte(GOLDEN.encode("utf-16"), b"\xff", "invalid start byte"),
    "a UTF-8 byte-order mark": (b"\xef\xbb\xbf" + GOLDEN_BYTES, False,
                                "refused not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
                                "line 1 column 1 (char 0)"),
    "a UTF-16 document without a byte-order mark": (GOLDEN.encode("utf-16-le"), False,
                                                    "refused not valid JSON: Expecting property name enclosed in "
                                                    "double quotes: line 1 column 2 (char 1)"),
    "a non-ASCII instance note": (NON_ASCII.encode(), True, "accepted"),
    "a non-ASCII instance note, text after the final brace": (
        (NON_ASCII + "x").encode(), False,
        f"refused not valid JSON: Extra data: line {NON_ASCII.count(chr(10)) + 1} column 2 (char {len(NON_ASCII)})"),
}


@pytest.mark.parametrize("case", sorted(BYTES_ONLY))
def test_bytes_only_inputs_decode_as_json_loads_does(case, monkeypatch):
    data, decoded, verdict = BYTES_ONLY[case]
    assert _check_decode(data, monkeypatch) is decoded
    outcome, message = _parse_outcome(data)
    assert (f"{outcome} {message}" if outcome == "refused" else outcome) == verdict


@pytest.mark.parametrize("seed", [0, 1])
def test_mutated_state_documents_raise_only_schema_errors(seed):
    outcomes = [_outcome(parse_state, text)
                for _, text in _mutants(_state_document(), STATE_MUTATIONS, seed, 240)]
    assert "refused" in outcomes


def _exits_2(text: str, path: Path, capsys) -> None:
    """``simulate`` and ``verify`` of the circuit document ``text``, written
    to ``path``, each exit 2 with an error."""
    path.write_text(text)
    for argv in (
        ["simulate", "--circuit", str(path)],
        ["verify", "--family", "table_lookup", "--n", "1", "--m", "1", "--table", "1,0",
         "--circuit", str(path)],
    ):
        assert main(argv) == 2, (argv, text)
        assert "error:" in capsys.readouterr().err


def test_command_line_exits_2_on_mutated_documents(tmp_path, capsys):
    checked = 0
    for _, text in _mutants(_golden(), CIRCUIT_MUTATIONS, 7, 28):
        if _outcome(parse_document, text) == "accepted":
            continue
        _exits_2(text, tmp_path / "doc.json", capsys)
        checked += 1
    assert checked >= 20


def _with_added_field(raw) -> list[str]:
    """``raw`` with ``"extra": 5`` added to each of its objects in turn."""
    texts = []
    for index in range(1 + sum(isinstance(c[k], dict) for c, k in _nodes(raw, []))):
        mutant = copy.deepcopy(raw)
        objects = [mutant] + [c[k] for c, k in _nodes(mutant, []) if isinstance(c[k], dict)]
        objects[index]["extra"] = 5
        texts.append(json.dumps(mutant))
    return texts


def test_an_added_field_is_refused_in_every_object(tmp_path, capsys):
    """No object of a circuit or state document takes a field it does not
    define, which the next emit would drop: each of the 30 objects of the
    golden document and the 3 of a state document refuses one, and the
    command line exits 2 on each circuit."""
    circuits, states = _with_added_field(_golden()), _with_added_field(_state_document())
    assert (len(circuits), len(states)) == (30, 3)
    for text in circuits:
        with pytest.raises(SchemaError):
            parse_document(text)
        _exits_2(text, tmp_path / "doc.json", capsys)
    for text in states:
        with pytest.raises(SchemaError):
            parse_state(text)


# ---------------------------------------------------------------------------
# the messages of the whole corpus, and the bulk checks against the walks
# ---------------------------------------------------------------------------

#: Every mutation, each over three seeds: the corpus whose outcomes are pinned.
CORPUS_MUTATIONS = CIRCUIT_MUTATIONS + (_boolean_entry,) + FAULT_MUTATIONS


def _corpus():
    for seed in (0, 1, 2):
        yield from _mutants(_golden(), CORPUS_MUTATIONS, seed, 20 * len(CORPUS_MUTATIONS))


#: What each of :data:`FAULT_MUTATIONS` may give: a refusal by the check it
#: aims at.  A matrix scaled just inside the tolerance is accepted, and a
#: gate given one more qubit may be refused for sharing it with its moment.
FAULT_VERDICTS = {
    "_negative_qubit": r"refused moments\[\d+\]\[\d+\]: qubit indices are non-negative integers, got -\d+",
    "_repeated_qubit": r"refused moments\[\d+\]\[\d+\]: gate qubits must be distinct, got \(\d+(, \d+)+\)",
    "_wrong_arity": r"refused moments(\[\d+\]\[\d+\]: (an opaque block takes one control and at least one target"
                    r"|(x|ccx|cswap) takes \d control\(s\) and \d target\(s\), got \d and \d)"
                    r"|: qubit\(s\) \[\d+\] already used in this moment)",
    "_non_unitary": r"accepted|refused matrices\.([01]): matrix for leaf '\1' is not unitary \(deviation \d\.\d{3}e[-+]\d+\)",
    "_matrix_depth": r"refused matrices\.[01]\.declared_depth: expected an integer( >= 1)?",
}


def test_fault_mutations_reach_the_checks_they_aim_at():
    verdicts = []
    for name, text in _corpus():
        if name in FAULT_VERDICTS:
            outcome, message = _parse_outcome(text)
            verdicts.append(f"refused {message}" if outcome == "refused" else outcome)
            assert re.fullmatch(FAULT_VERDICTS[name], verdicts[-1]), (name, verdicts[-1])
    text = "\n".join(verdicts)
    for part in ("]: x takes", "]: ccx takes", "]: cswap takes", "]: an opaque block takes", "accepted",
                 "(deviation 1.400e-10)", "declared_depth: expected an integer\n", "an integer >= 1"):
        assert part in text, part


#: sha256 of the ``(mutation, outcome, message or re-emitted document)``
#: list of the corpus, taken before the parser's fallback walks were rewritten
#: and taken again when ``parameters`` began to check its metadata types: one
#: ``_duplicate_key`` mutant of seed 2, ``"variant": []``, is now refused.
CORPUS_DIGEST = "2436b4ed952124cb694d3511a92a3b9d854f8d44646eae24fffd2265a8909430"


def test_corpus_verdicts_and_messages_are_pinned():
    verdicts = [(name, *_parse_outcome(text)) for name, text in _corpus()]
    assert hashlib.sha256(json.dumps(verdicts).encode()).hexdigest() == CORPUS_DIGEST


def _walk_message(walk, *args) -> str | None:
    try:
        walk(*args)
    except SchemaError as exc:
        return str(exc)
    return None


def test_bulk_checks_refuse_exactly_what_the_first_fault_walks_name():
    """Over the corpus, ``_gather`` refuses a ``moments`` section exactly
    when ``_first_gate_fault`` raises, and ``_stack_matrices`` a ``matrices``
    section exactly when ``_first_matrix_fault`` raises; the walk's message
    is what ``parse_document`` gives for the golden document with that
    section in place."""
    golden = _golden()
    layout = RegisterMap(1, 1, [0, 0])
    leaves = frozenset(layout.leaves)
    refused = {"moments": 0, "matrices": 0}
    for _, text in _corpus():
        raw = json.loads(text)
        if not isinstance(raw, dict):
            continue
        moments, section = raw.get("moments"), raw.get("matrices")
        cases = []
        if isinstance(moments, list) and all(not isinstance(g, list) or len(g) <= 7 for g in moments):
            bulk = formats._gather(moments, leaves) is None
            cases.append(("moments", moments, bulk, _walk_message(formats._first_gate_fault, moments, leaves)))
        if isinstance(section, dict):
            bulk = formats._stack_matrices(section, layout) is None
            cases.append(("matrices", section, bulk, _walk_message(formats._first_matrix_fault, section, layout)))
        for key, value, bulk, message in cases:
            assert bulk is (message is not None), (key, message)
            if message is not None:
                refused[key] += 1
                spliced = dict(golden, **{key: value})
                assert _parse_outcome(json.dumps(spliced)) == ("refused", message)
    assert min(refused.values()) >= 100, refused


#: Finite entries whose product ``U^dagger U`` overflows: for ``x * (1 + 1j)``
#: the product is NaN + NaN j, so the deviation is NaN, not infinite.
OVERFLOWING = {"diagonal": [[[1e200, 1e200], [0.0, 0.0]], [[0.0, 0.0], [1e200, 1e200]]],
               "real": [[[1e200, 0.0], [1e200, 0.0]], [[1e200, 0.0], [-1e200, 0.0]]]}


@pytest.mark.parametrize("case", sorted(OVERFLOWING))
def test_a_matrix_whose_product_overflows_is_refused_by_both_checks(case):
    """A deviation that is NaN or infinite is refused by the bulk check and
    named by the walk, and the document is refused with the walk's message."""
    raw = _golden()
    raw["matrices"]["0"]["matrix"] = OVERFLOWING[case]
    layout = RegisterMap(1, 1, [0, 0])
    with np.errstate(over="ignore", invalid="ignore"):
        assert formats._stack_matrices(raw["matrices"], layout) is None
        message = _walk_message(formats._first_matrix_fault, raw["matrices"], layout)
        assert _parse_outcome(json.dumps(raw)) == ("refused", message)
    assert re.fullmatch(r"matrices\.0: matrix for leaf '0' is not unitary \(deviation (nan|inf)\)", message)


@pytest.mark.parametrize("section, walk", [("moments", "_first_gate_fault"), ("matrices", "_first_matrix_fault")])
def test_a_bulk_refusal_no_walk_names_still_refuses_the_document(section, walk, monkeypatch):
    """Should a bulk check refuse a section whose records the walk passes,
    the document is refused, not accepted without the section."""
    raw = _golden()
    if section == "moments":
        raw["moments"][0][0]["targets"] = [0, 0]
    else:
        raw["matrices"]["0"]["matrix"][0][0] = [2.0, 0.0]
    monkeypatch.setattr(formats, walk, lambda *args: None)
    outcome, message = _parse_outcome(json.dumps(raw))
    assert (outcome, message) == ("refused", f"{section}: refused by the bulk check, but no record check names a fault")
