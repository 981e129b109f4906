"""Serialization: circuit JSON documents, QASM 2.0 text, and state dumps.

The JSON format (``qramforge-circuit/1``) is canonical: emitting a parsed
document reproduces the original bytes.  A document carries the layout
parameters, the full register table (kind, owning node, first physical
index, size), derived metrics, the moment-by-moment gate list, and
optionally the dense payload matrices.

QASM output targets OpenQASM 2.0.  Every *allocated* register becomes a
``qreg`` (aliased registers reuse their parents' wires and are not declared);
Fredkin gates use a locally defined ``fredkin`` gate so the file does not
depend on which ``qelib1.inc`` revision is installed; payload blocks appear
as ``opaque`` declarations named after their leaf.  Moment boundaries are
kept as comments.
"""

from __future__ import annotations

import cmath
import functools
import gc
import json
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import InvalidParameterError, QramForgeError, SchemaError, StructuralError
from .ir import ARITY, KINDS, MAX_DECLARED_DEPTH, OPAQUE, Circuit, Gate, GateColumns, as_int64, check_moments
from .sim import SparseState, UnitarySpec
from .tree import MAX_QUBITS, RegisterMap

FORMAT_VERSION = "qramforge-circuit/1"
STATE_FORMAT_VERSION = "qramforge-state/1"

#: The metadata keys of ``parameters`` as they are written, with their JSON types.
_PARAMETER_KEYS = {"phase": (str, "a string"), "variant": (str, "a string"),
                   "include_preparation": (bool, "a boolean"), "instance": (dict, "an object")}

_KIND_NAMES = tuple(kind.value for kind in KINDS)
_KIND_CODES = {name: code for code, name in enumerate(_KIND_NAMES)}
_OPAQUE_FIELDS = frozenset({"kind", "controls", "targets", "leaf", "dagger", "declared_depth"})
_MATRIX_FIELDS = frozenset({"matrix", "declared_depth"})


# ---------------------------------------------------------------------------
# helpers shared by the emitters
# ---------------------------------------------------------------------------


_REGISTER_FIELDS = ("kind", "node", "start", "size")


def _register_table(layout: RegisterMap) -> list[dict]:
    """The allocated registers as ``{kind, node, start, size}`` objects."""
    return [dict(zip(_REGISTER_FIELDS, row)) for row in layout.labelled_rows]


def _metrics(circuit: Circuit) -> dict:
    return {
        "total_qubits": circuit.layout.total_qubits,
        "depth": circuit.depth,
        "width": circuit.width,
        "num_moments": circuit.num_moments,
        "num_gates": circuit.num_gates,
        "gate_counts": {kind: count for kind, count in sorted(circuit.gate_counts().items())},
    }


# ---------------------------------------------------------------------------
# JSON emission
# ---------------------------------------------------------------------------
#
# A document is written as ``json.dumps(document, indent=2)`` would write it,
# but only the metrics and the metadata values go through ``json``.  The
# register table, the ``k`` list and the ``moments`` and ``matrices``
# sections sit at a fixed nesting depth, so each register row, gate record
# and payload matrix is one ``%``-template, built once per shape; ``%d`` is
# how ``json`` writes an int, ``%r`` how it writes a finite float.


def _json_list(items: list[str], depth: int, brackets: str = "[]") -> str:
    """A list of encoded ``items`` as ``json.dumps(indent=2)`` writes it at
    nesting ``depth``; the items are copied once (a section may take
    megabytes)."""
    if not items:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return "".join((brackets[0], inner, ("," + inner).join(items), "\n", "  " * depth, brackets[1]))


def _json_object(fields: list[str], depth: int) -> str:
    """An object of encoded ``"key": value`` fields, as :func:`_json_list`."""
    return _json_list(fields, depth, "{}")


@functools.lru_cache(maxsize=64)  # a parsed block may have any number of targets
def _gate_template(code: int, controls: int, targets: int) -> str:
    """A gate record in a moment; an opaque block's record also takes its
    leaf (encoded), dagger flag (encoded) and declared depth."""
    fields = [
        f'"kind": "{_KIND_NAMES[code]}"',
        '"controls": ' + _json_list(["%d"] * controls, 4),
        '"targets": ' + _json_list(["%d"] * targets, 4),
    ]
    if code == OPAQUE:
        fields += ['"leaf": %s', '"dagger": %s', '"declared_depth": %d']
    return _json_object(fields, 3)


@functools.lru_cache(maxsize=64)
def _matrix_template(dim: int) -> str:
    """A ``matrices`` record: the declared depth, then ``dim`` rows of
    ``dim`` ``[re, im]`` pairs."""
    pair = _json_list(["%r", "%r"], 5)
    rows = _json_list([_json_list([pair] * dim, 4)] * dim, 3)
    return _json_object(['"declared_depth": %d', '"matrix": ' + rows], 2)


# kinds and node labels are bit strings and plain names, which json writes as is
_REGISTER_TEMPLATE = _json_object(['"kind": "%s"', '"node": "%s"', '"start": %d', '"size": %d'], 2)


def _json_value(value, depth: int) -> str:
    """Any JSON value as ``json.dumps(indent=2)`` writes it at nesting
    ``depth``: its own text with every line indented further."""
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


def _header_text(circuit: Circuit) -> str:
    """The ``format``, ``parameters``, ``registers`` and ``metrics`` fields;
    the ``k`` list and the register table come from templates."""
    layout = circuit.layout
    parameters = [
        '"n": %d' % layout.n,
        '"m": %d' % layout.m,
        '"k": ' + _json_list(["%d"] * len(layout.k), 2) % layout.k,
        '"fanout_block": ' + json.dumps(layout.fanout_block),
    ]
    parameters += [
        f'"{key}": ' + _json_value(circuit.metadata[key], 2)
        for key in _PARAMETER_KEYS
        if key in circuit.metadata
    ]
    rows = layout.labelled_rows
    return ",\n".join([
        '{\n  "format": ' + json.dumps(FORMAT_VERSION),
        '  "parameters": ' + _json_object(parameters, 1),
        '  "registers": ' + _json_list([_REGISTER_TEMPLATE] * len(rows), 1) % tuple(chain.from_iterable(rows)),
        '  "metrics": ' + _json_value(_metrics(circuit), 1),
    ])


def _by_moment(columns: GateColumns, templates: np.ndarray) -> list[list[str]]:
    """The per-row ``templates``, as one list per moment."""
    bounds = np.searchsorted(columns.moment, np.arange(columns.num_moments + 1)).tolist()
    templates = templates.tolist()
    return [templates[a:b] for a, b in zip(bounds, bounds[1:])]


#: The record of each elementary gate kind, by kind code.
_GATE_TEMPLATES = tuple(_gate_template(code, *arity) for code, arity in enumerate(ARITY))


def _moments_text(columns: GateColumns) -> str:
    """The ``moments`` section as one template, a record's by its kind (and
    an opaque block's by its number of targets), over one tuple of values:
    every gate's qubits, then an opaque block's leaf, dagger flag and depth."""
    rows, leaf, depth, sizes = columns._opaque_blocks()
    templates = np.array(_GATE_TEMPLATES + (None,), dtype=object)[columns.kind]
    templates[rows] = [_gate_template(OPAQUE, 1, size) for size in sizes.tolist()]
    owner, qubits = columns.operands()
    extras = np.column_stack([
        list(map(json.dumps, leaf.tolist())),
        np.where(columns.dagger[rows], "true", "false"),
        depth.astype(object),
    ])
    values = np.concatenate([qubits.astype(object), extras.ravel()])
    order = np.argsort(np.concatenate([owner, np.repeat(rows, 3)]), kind="stable")
    text = _json_list([_json_list(gates, 2) for gates in _by_moment(columns, templates)], 1)
    return text % tuple(values[order].tolist())


def _matrices_parts(unitaries: Mapping[str, UnitarySpec]) -> list[str]:
    """The ``matrices`` section as fragments of text, never joined into one
    section text, so its megabytes are copied at most once.  Each distinct
    record is written once; records are keyed on the matrix bytes, not its
    values, so ``-0.0`` and ``0.0`` stay apart."""
    bodies: dict[tuple, str] = {}
    parts = []
    for leaf in sorted(unitaries):
        spec = unitaries[leaf]
        key = (spec.declared_depth, spec.matrix.shape, spec.matrix.tobytes())
        body = bodies.get(key)
        if body is None:
            values = (spec.declared_depth, *spec.matrix.view(float).ravel().tolist())
            body = bodies[key] = _matrix_template(spec.dim) % values
        parts += (",\n    ", json.dumps(leaf), ": ", body)
    if not parts:
        return ["{}"]
    parts[0] = "{\n    "
    parts.append("\n  }")
    return parts


def _json_parts(circuit: Circuit, unitaries: Mapping[str, UnitarySpec] | None = None) -> list[str]:
    """The text of :func:`emit_json` as fragments, all built before the list
    is returned, so that a writer can put them in a file in order without
    ever holding the whole document in one string."""
    parts = [_header_text(circuit), ',\n  "moments": ', _moments_text(circuit.columns)]
    if unitaries is not None:
        parts.append(',\n  "matrices": ')
        parts += _matrices_parts(unitaries)
    parts.append("\n}")
    return parts


def emit_json(circuit: Circuit, unitaries: Mapping[str, UnitarySpec] | None = None) -> str:
    """Serialize a circuit (and optionally its payload matrices) to JSON.

    The text is canonical: it is what ``json.dumps(document, indent=2)``
    writes, so parsing a document and emitting it again gives its bytes.
    """
    return "".join(_json_parts(circuit, unitaries))


# ---------------------------------------------------------------------------
# JSON parsing
# ---------------------------------------------------------------------------


def _expect(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise SchemaError(f"{path}: {message}")


def _expect_fields(record: dict, allowed, path: str) -> None:
    unknown = set(record) - set(allowed)
    _expect(not unknown, path, f"unknown field(s) {sorted(unknown)}")


def _same(value, measured) -> bool:
    """Equal as JSON values, types included: ``true`` is not ``1``, nor ``6.0`` ``6``."""
    if type(value) is not type(measured) or value != measured:
        return False
    return not isinstance(value, dict) or all(_same(value[key], measured[key]) for key in measured)


def _expect_int(value, path: str, minimum: int | None = None) -> int:
    _expect(isinstance(value, int) and not isinstance(value, bool), path, "expected an integer")
    if minimum is not None:
        _expect(value >= minimum, path, f"expected an integer >= {minimum}")
    return value


def _check_gate(record, path: str, leaves: frozenset[str]) -> None:
    """Raise the first fault of a gate record: its fields and their types
    (an opaque block's leaf one of ``leaves``) are checked here, its arity
    and qubits by the :class:`Gate` constructor, whose message is kept."""
    _expect(isinstance(record, dict), path, "expected a gate object")
    code = _KIND_CODES.get(record.get("kind")) if isinstance(record.get("kind"), str) else None
    if code is None:
        raise SchemaError(f"{path}.kind: unknown gate kind {record.get('kind')!r}")
    for field in ("controls", "targets"):
        _expect(
            isinstance(record.get(field), list)
            and all(isinstance(q, int) and not isinstance(q, bool) for q in record[field]),
            f"{path}.{field}",
            "expected a list of integers",
        )
    allowed = {"kind", "controls", "targets"}
    opaque = {}
    if code == OPAQUE:
        allowed = _OPAQUE_FIELDS
        _expect(isinstance(record.get("leaf"), str), f"{path}.leaf", "expected a node label string")
        _expect(record["leaf"] in leaves, f"{path}.leaf", "not a leaf of this layout")
        _expect(isinstance(record.get("dagger", False), bool), f"{path}.dagger", "expected a boolean")
        depth = _expect_int(record.get("declared_depth", 1), f"{path}.declared_depth", 1)
        _expect(depth <= MAX_DECLARED_DEPTH, f"{path}.declared_depth", "expected an integer <= 2**62")
        opaque = {"leaf": record["leaf"], "dagger": record.get("dagger", False), "declared_depth": depth}
    _expect_fields(record, allowed, path)
    try:
        Gate(KINDS[code], tuple(record["controls"]), tuple(record["targets"]), **opaque)
    except QramForgeError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _first_gate_fault(moments: list, leaves: frozenset[str]) -> None:
    """Raise the first fault of ``moments``, one record at a time."""
    for i, gates in enumerate(moments):
        _expect(isinstance(gates, list), f"moments[{i}]", "expected a list of gates")
        for j, record in enumerate(gates):
            _check_gate(record, f"moments[{i}][{j}]", leaves)


def _gather(moments: list, leaves: frozenset[str]) -> tuple | None:
    """The gates of ``moments`` as column lists and arrays, every record
    checked as :func:`_check_gate` checks it but over all records at once;
    None when a record fails, for :func:`_first_gate_fault` to name it."""
    if not all(type(gates) is list for gates in moments):
        return None
    records = [record for gates in moments for record in gates]
    if not all(type(record) is dict for record in records):
        return None
    names = [record.get("kind") for record in records]
    if not set(map(type, names)) <= {str} or not set(names) <= _KIND_CODES.keys():
        return None
    controls = [record.get("controls") for record in records]
    targets = [record.get("targets") for record in records]
    if not set(map(type, controls)) | set(map(type, targets)) <= {list}:
        return None
    qubits = [q for pair in zip(controls, targets) for part in pair for q in part]
    if not set(map(type, qubits)) <= {int}:
        return None

    kind = np.array([_KIND_CODES[name] for name in names], dtype=np.int8)
    num_controls = np.array(list(map(len, controls)), dtype=np.int64)
    num_targets = np.array(list(map(len, targets)), dtype=np.int64)
    expected = np.array(ARITY + ((1, 1),))[kind]  # an opaque block: one control, >= 1 target
    is_opaque = kind == OPAQUE
    if (
        (num_controls != expected[:, 0]).any()
        or (np.where(is_opaque, num_targets < 1, num_targets != expected[:, 1])).any()
        or (np.array(list(map(len, records)), dtype=np.int64)[~is_opaque] != 3).any()
    ):
        return None
    blocks = [records[g] for g in np.flatnonzero(is_opaque).tolist()]
    leaf = [record.get("leaf") for record in blocks]
    flags = [record.get("dagger", False) for record in blocks]
    depth = [record.get("declared_depth", 1) for record in blocks]
    if not (
        {key for record in blocks for key in record} <= _OPAQUE_FIELDS
        and set(map(type, leaf)) <= {str}
        and leaves.issuperset(leaf)
        and set(map(type, flags)) <= {bool}
        and set(map(type, depth)) <= {int}
        and 1 <= min(depth, default=1)
        and max(depth, default=1) <= MAX_DECLARED_DEPTH
    ):
        return None

    # one gate's qubits: non-negative, then distinct
    sizes = num_controls + num_targets
    owner = np.repeat(np.arange(len(records)), sizes)
    flat = as_int64(qubits)
    order = np.lexsort((flat, owner))
    if (flat < 0).any() or ((np.diff(owner[order]) == 0) & (np.diff(flat[order]) == 0)).any():
        return None

    moment = np.repeat(np.arange(len(moments)), list(map(len, moments)))
    return kind, moment, sizes, owner, qubits, flat, flags, leaf, depth


def _parse_moments(moments, layout: RegisterMap) -> GateColumns:
    """The ``moments`` section as columns.

    A moment that lists more gates than the layout has qubits is refused
    before any record is read: the gates of a valid moment are disjoint.
    Every record is then checked on its own, over all records at once: its
    fields, its arity, and its qubits non-negative and distinct.  Only when
    that finds a fault are the records walked one at a time, from the first,
    to name it.  Once every gate has passed, the gates of each moment are
    checked disjoint and every qubit inside the layout, over arrays of all
    of them.  Errors come in the order of checking one gate and one moment
    after another.
    """
    _expect(isinstance(moments, list), "moments", "expected a list")
    limit = layout.total_qubits
    for i, gates in enumerate(moments):
        if isinstance(gates, list) and len(gates) > limit:
            raise SchemaError(
                f"moments[{i}]: {len(gates)} gates in one moment, more than the layout's {limit} qubits"
            )
    leaves = frozenset(layout.leaves)
    gathered = _gather(moments, leaves)
    if gathered is None:
        _first_gate_fault(moments, leaves)
        raise SchemaError("moments: refused by the bulk check, but no record check names a fault")
    kind, moment, sizes, owner, qubits, flat, dagger, leaf, depth = gathered

    # one moment's gates: disjoint; then every qubit inside the layout
    try:
        check_moments(layout, moment, owner, qubits, flat)
    except StructuralError as exc:
        raise SchemaError(f"moments: {exc}") from exc
    return GateColumns.of_flat(kind, moment, sizes, flat, len(moments), dagger, leaf, depth)


def _parse_matrix(rows, dim: int, path: str) -> np.ndarray:
    """A ``matrices.<leaf>.matrix`` record as a complex array, read in one
    pass when it holds ``dim`` rows of ``dim`` finite ``[re, im]`` number
    pairs; its rows and pairs are walked only to name a fault."""
    values = _matrix_values(rows, dim)  # None: a fault, or integers beyond the float range
    if values is not None and np.isfinite(values).all():
        return values
    path = f"{path}.matrix"
    _expect(isinstance(rows, list), path, f"expected a list of {dim} rows")
    _expect(len(rows) == dim, path, f"expected {dim} rows (2**(m + k) for this leaf), got {len(rows)}")
    for r, row in enumerate(rows):
        _expect(isinstance(row, list) and len(row) == dim, f"{path}[{r}]", f"expected a list of {dim} [re, im] pairs")
    for r, row in enumerate(rows):
        for c, pair in enumerate(row):
            _expect(
                isinstance(pair, list) and len(pair) == 2 and set(map(type, pair)) <= {float, int},
                f"{path}[{r}][{c}]",
                "expected a [re, im] pair of numbers",
            )
    raise SchemaError(f"{path}: expected finite numbers")


def _matrix_values(rows, dim: int) -> np.ndarray | None:
    """``rows`` as a ``(dim, dim)`` complex array, every length checked before
    anything is read; None when they are not ``dim`` rows of number pairs."""
    if not (type(rows) is list and len(rows) == dim and set(map(type, rows)) <= {list} and set(map(len, rows)) <= {dim}):
        return None
    pairs = list(chain.from_iterable(rows))
    if not (set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}):
        return None
    values = list(chain.from_iterable(pairs))
    if not set(map(type, values)) <= {float, int}:  # a bool is neither
        return None
    try:
        array = np.fromiter(values, dtype=float, count=len(values))
    except OverflowError:  # integers beyond the float range
        return None
    return array.view(complex).reshape(dim, dim)


def _parse_matrices(section: dict, layout: RegisterMap) -> dict[str, UnitarySpec]:
    """The ``matrices`` section as specs.  Each record is checked once, in
    document order: its label, that it is an object, its matrix, its declared
    depth and its fields.  A record object that leaves of one dimension
    share, as :func:`_decode` shares equal bodies, is read once.  Unitarity
    is then checked by one :meth:`UnitarySpec.stack` of every matrix; a
    record's fault first stacks the records before it, so that an earlier
    record's unitarity fault is raised first."""
    records, arrays = [], {}
    for leaf, record in section.items():
        path = f"matrices.{leaf}"
        try:
            _expect(len(leaf) == layout.n and set(leaf) <= {"0", "1"}, path, "not a leaf of this layout")
            _expect(isinstance(record, dict), path, "expected an object")
            key = (1 << (layout.m + layout.k[int(leaf, 2)]), id(record))
            if key not in arrays:
                arrays[key] = _parse_matrix(record.get("matrix"), key[0], path)
            depth = _expect_int(record.get("declared_depth", 1), f"{path}.declared_depth", 1)
            _expect(depth <= MAX_DECLARED_DEPTH, f"{path}.declared_depth", "expected an integer <= 2**62")
            _expect_fields(record, _MATRIX_FIELDS, path)
        except SchemaError:
            _stacked_specs(records)
            raise
        records.append((leaf, arrays[key], depth))
    return _stacked_specs(records)


def _stacked_specs(records: list[tuple[str, np.ndarray, int]]) -> dict[str, UnitarySpec]:
    """:meth:`UnitarySpec.stack` of checked ``(leaf, matrix, depth)``
    records; when it refuses, the leaves are walked through the
    :class:`UnitarySpec` constructor to name the first fault."""
    try:
        return UnitarySpec.stack(*zip(*records)) if records else {}
    except QramForgeError as refusal:
        for leaf, matrix, depth in records:
            try:
                UnitarySpec(leaf, matrix, declared_depth=depth)
            except QramForgeError as exc:
                raise SchemaError(f"matrices.{leaf}: {exc}") from exc
        raise SchemaError(f"matrices: {refusal}") from refusal


def _check_block_widths(columns: GateColumns, layout: RegisterMap, unitaries: Mapping[str, UnitarySpec]) -> None:
    """Refuse the first opaque record whose targets are not as many as the
    qubits of its leaf's matrix, ``m + k[z]`` for leaf ``z``, over all blocks at once."""
    leaves, present = np.array(layout.leaves), np.zeros(len(layout.leaves), dtype=bool)
    present[np.searchsorted(leaves, list(unitaries))] = True  # leaves ascend; each label is a leaf
    rows, leaf, _, targets = columns._opaque_blocks()
    qubits = np.where(present, layout.m + layout.mem_widths, -1)[np.searchsorted(leaves, leaf.astype(str))]
    for g in np.flatnonzero((qubits >= 0) & (qubits != targets))[:1].tolist():
        i, j = columns.moment[rows[g]], rows[g] - np.searchsorted(columns.moment, columns.moment[rows[g]])
        raise SchemaError(f"moments[{i}][{j}].targets: leaf {leaf[g]!r} has a matrix on {qubits[g]} "
                          f"qubit(s), got {targets[g]} target(s)")


@dataclass
class CircuitDocument:
    """A fully parsed document: the circuit plus everything else it carried."""

    circuit: Circuit
    unitaries: dict[str, UnitarySpec] | None
    parameters: dict


def parse_document(text: str | bytes) -> CircuitDocument:
    """Parse and validate a ``qramforge-circuit/1`` document, given as a
    ``str`` or as UTF-8 ``bytes`` (see :func:`_load`).

    The cyclic garbage collector is paused while the text is decoded and its
    tree walked: a JSON tree holds no cycles, and reference counting frees
    it.  The caller's collector state is restored on return and on error.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _parse_document(text)
    finally:
        if enabled:
            gc.enable()


#: What :func:`emit_json` writes between the ``moments`` and ``matrices``
#: sections, and between two ``matrices`` records.
_MATRICES = ',\n  "matrices": {\n    '
_RECORD_SEPARATOR = ",\n    "
#: What :func:`_decode` looks for, in the type of its input: the two marks
#: above, the end and start of a leaf key, the end of a record, the digits
#: of a leaf label, JSON whitespace, and the end of the document.
_DELIMITERS = {str: (_MATRICES, _RECORD_SEPARATOR, '": ', '"', "}", "01", " \t\n\r", "\n  }\n}")}
_DELIMITERS[bytes] = tuple(mark.encode() for mark in _DELIMITERS[str])
_DECODER = json.JSONDecoder()


def _str(text: str | bytes) -> str:
    """``text`` itself, or UTF-8 ``bytes`` decoded to text; a byte that is
    not UTF-8 raises ``UnicodeDecodeError``."""
    return text if isinstance(text, str) else str(text, "utf-8")


def _decode(text: str | bytes):
    """``json.loads`` of ``text``, decoded as UTF-8 when it is bytes, with
    each distinct ``matrices`` record decoded once when the section comes
    last as :func:`emit_json` writes it: records ``"[01]*": {...}`` that end
    at the first ``}``.  A body is compared in place with the first earlier
    body of its hash, so no body is kept.  Records are found, hashed and
    compared in the input's own type; of bytes, only the head before the
    section and each distinct body are decoded to text.  Other input is
    decoded whole and goes through ``json.loads``: same tree or error."""
    delimiters = _DELIMITERS[str if isinstance(text, str) else bytes]
    matrices, separator, key_end, quote, brace, bits, space, tail = delimiters
    cut = text.find(matrices)
    pos, section, seen = cut + len(matrices), {}, {}  # seen: hash -> (start, record)
    try:
        raw = json.loads(_str(text[:cut]) + "\n}") if cut > 0 else None
        while type(raw) is dict and raw:  # an empty head: "{" then a comma, no JSON
            colon = text.find(key_end, pos)
            start, end = colon + 3, text.find(brace, colon) + 1
            if not (colon > pos and end and text.startswith(quote, pos)) or (leaf := text[pos + 1 : colon]).strip(bits):
                break
            body = text[start:end]
            first, record = seen.get(hash(body), (0, None))
            if record is None or not text.startswith(body, first):  # the same text ends at the same "}"
                record, stop = _DECODER.raw_decode(decoded := _str(body))
                if stop != len(decoded):
                    break
                seen.setdefault(hash(body), (start, record))
            section[_str(leaf)] = record  # a repeated leaf keeps its first place and last value, as in json.loads
            if not text.startswith(separator, end):
                if text[end:].rstrip(space) == tail:
                    raw["matrices"] = section  # a repeated key keeps its first place, as in json.loads
                    return raw
                break
            pos = end + len(separator)
    except (json.JSONDecodeError, UnicodeDecodeError):
        pass
    return json.loads(_str(text))


def _load(text: str | bytes):
    """The JSON tree of a document, read by :func:`_decode`: the one rule of
    both parsers.  A ``str`` is read as it is and ``bytes`` as UTF-8 only
    (``json.loads`` would also guess UTF-16 or UTF-32 from bytes, and skip a
    UTF-8 byte-order mark, which stays refused here as in a ``str``); any
    other argument is refused with :class:`InvalidParameterError`."""
    if not isinstance(text, (str, bytes)):
        raise InvalidParameterError(f"documents are str or UTF-8 bytes, got {type(text).__name__}")
    try:
        return _decode(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not valid UTF-8: {exc}") from exc


def _parse_document(text: str | bytes) -> CircuitDocument:
    raw = _load(text)
    _expect(isinstance(raw, dict), "$", "expected a JSON object")
    _expect(raw.get("format") == FORMAT_VERSION, "format", f"expected {FORMAT_VERSION!r}")
    for key in ("parameters", "registers", "metrics", "moments"):
        _expect(key in raw, key, "missing required section")

    params = raw["parameters"]
    _expect(isinstance(params, dict), "parameters", "expected an object")
    n = _expect_int(params.get("n"), "parameters.n", 1)
    m = _expect_int(params.get("m"), "parameters.m", 1)
    k = params.get("k")
    _expect(
        isinstance(k, list) and all(isinstance(v, int) and not isinstance(v, bool) for v in k),
        "parameters.k",
        "expected a list of integers",
    )
    fanout_block = params.get("fanout_block")
    if fanout_block is not None:
        fanout_block = _expect_int(fanout_block, "parameters.fanout_block", 1)
    try:
        layout = RegisterMap(n, m, k, fanout_block=fanout_block)
    except Exception as exc:
        raise SchemaError(f"parameters: {exc}") from exc
    for key, (kind, name) in _PARAMETER_KEYS.items():
        _expect(key not in params or isinstance(params[key], kind), f"parameters.{key}", f"expected {name}")
    _expect(params.get("phase", "access") in ("access", "down", "run", "up"), "parameters.phase",
            "expected 'access', 'down', 'run' or 'up'")
    _expect(params.get("variant", "sequential") in ("sequential", "fanout"), "parameters.variant",
            "expected 'sequential' or 'fanout'")
    _expect_fields(params, {"n", "m", "k", "fanout_block", *_PARAMETER_KEYS}, "parameters")

    _expect(isinstance(raw["registers"], list), "registers", "expected a list")
    expected_rows = _register_table(layout)
    actual_rows = raw["registers"]
    _expect(len(actual_rows) == len(expected_rows), "registers",
            f"expected {len(expected_rows)} rows for these parameters, got {len(actual_rows)}")
    # rows equal to the table hold strings and numbers, and each number must be an integer
    if actual_rows != expected_rows or not {type(v) for row in actual_rows for v in row.values()} <= {str, int}:
        i = next(i for i, pair in enumerate(zip(actual_rows, expected_rows)) if not _same(*pair))
        raise SchemaError(f"registers[{i}]: expected {expected_rows[i]}, got {actual_rows[i]}")

    circuit = Circuit(layout, _parse_moments(raw["moments"], layout))
    for key in _PARAMETER_KEYS:
        if key in params:
            circuit.metadata[key] = params[key]
    circuit.metadata.setdefault("fanout_block", fanout_block)

    metrics = raw["metrics"]
    _expect(isinstance(metrics, dict), "metrics", "expected an object")
    measured_metrics = _metrics(circuit)
    for key, measured in measured_metrics.items():
        stated = metrics.get(key)
        _expect(_same(stated, measured), f"metrics.{key}", f"document says {stated!r}, circuit measures {measured!r}")
    _expect_fields(metrics, measured_metrics, "metrics")

    unitaries = None
    if "matrices" in raw:
        _expect(isinstance(raw["matrices"], dict), "matrices", "expected an object")
        unitaries = _parse_matrices(raw["matrices"], layout)

    unknown = set(raw) - {"format", "parameters", "registers", "metrics", "moments", "matrices"}
    _expect(not unknown, "$", f"unknown section(s) {sorted(unknown)}")
    if unitaries is not None:
        _check_block_widths(circuit.columns, layout, unitaries)
    return CircuitDocument(circuit=circuit, unitaries=unitaries, parameters=dict(params))


# ---------------------------------------------------------------------------
# QASM 2.0
# ---------------------------------------------------------------------------


def _qasm_register_name(kind: str, node: str) -> str:
    if kind in ("address", "result"):
        return kind
    return f"{kind}_{node}" if node else f"{kind}_eps"


def emit_qasm(circuit: Circuit) -> str:
    """Serialize a circuit as OpenQASM 2.0 text."""
    layout = circuit.layout
    columns = circuit.columns
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";']
    refs: list[str] = []
    for kind, node, _, size in layout.labelled_rows:
        name = _qasm_register_name(kind, node)
        lines.append(f"qreg {name}[{size}];")
        refs.extend(f"{name}[{offset}]" for offset in range(size))
    if circuit.gate_counts().get("cswap"):
        lines.append("gate fredkin a,b,c { cx c,b; ccx a,b,c; cx c,b; }")
    rows, leaf, _, sizes = columns._opaque_blocks()
    opaque = list(zip(leaf.tolist(), columns.dagger[rows].tolist()))
    arity = dict(zip(opaque, sizes.tolist()))  # a declaration's targets: as many as its blocks have
    for key, size in zip(opaque, sizes.tolist()):
        if size != arity[key]:
            raise StructuralError(f"opaque blocks on leaf {key[0]!r} have {size} and {arity[key]} targets; "
                                  f"one QASM declaration of {_opaque_name(*key)} takes one count")
    leaves = set(layout.leaves)
    for (name, dagger), size in sorted(arity.items()):
        if name not in leaves:  # no leaf of the layout: the label-checked lookups raise
            layout.res(name)
            layout.mem(name)
        formals = ",".join(["ctl"] + [f"q{i}" for i in range(size)])
        lines.append(f"opaque {_opaque_name(name, dagger)} {formals};")
    templates = np.array(_QASM_TEMPLATES + (None,), dtype=object)[columns.kind]
    templates[rows] = [_opaque_name(*key) + " " + ",".join(["%s"] * (1 + size)) + ";" for key, size in zip(opaque, sizes)]
    owner, qubits = columns.operands()
    values = np.array(refs, dtype=object)[qubits[np.argsort(owner, kind="stable")]]
    moments = _by_moment(columns, templates)
    text = "\n".join(chain.from_iterable([f"// moment {i}", *gates] for i, gates in enumerate(moments)))
    return "\n".join([*lines, text % tuple(values.tolist())] if moments else lines) + "\n"


_QASM_TEMPLATES = ("x %s;", "cx %s,%s;", "ccx %s,%s,%s;", "fredkin %s,%s,%s;")


def _opaque_name(leaf: str, dagger: bool) -> str:
    return f"cu_{leaf}_dg" if dagger else f"cu_{leaf}"


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


def serialize_state(state: SparseState) -> str:
    """Dump a sparse state as JSON.  Keys are bit strings with qubit 0 as the
    rightmost character (matching the little-endian key convention)."""
    terms = [
        {
            "bits": format(key, f"0{state.num_qubits}b"),
            "re": float(amp.real),
            "im": float(amp.imag),
        }
        for key, amp in sorted(state.amps.items())
    ]
    document = {
        "format": STATE_FORMAT_VERSION,
        "num_qubits": state.num_qubits,
        "terms": terms,
    }
    return json.dumps(document, indent=2)


def parse_state(text: str | bytes) -> SparseState:
    """Parse and validate a ``qramforge-state/1`` document, given as
    :func:`parse_document` takes one."""
    raw = _load(text)
    _expect(isinstance(raw, dict), "$", "expected a JSON object")
    _expect(raw.get("format") == STATE_FORMAT_VERSION, "format", f"expected {STATE_FORMAT_VERSION!r}")
    num_qubits = _expect_int(raw.get("num_qubits"), "num_qubits", 1)
    _expect(num_qubits <= MAX_QUBITS, "num_qubits", f"expected at most {MAX_QUBITS} qubits")
    _expect(isinstance(raw.get("terms"), list), "terms", "expected a list")
    _expect_fields(raw, {"format", "num_qubits", "terms"}, "$")
    amps: dict[int, complex] = {}
    for i, term in enumerate(raw["terms"]):
        path = f"terms[{i}]"
        _expect(isinstance(term, dict), path, "expected an object")
        bits = term.get("bits")
        _expect(
            isinstance(bits, str) and len(bits) == num_qubits and set(bits) <= {"0", "1"},
            f"{path}.bits",
            f"expected a bit string of length {num_qubits}",
        )
        key = int(bits, 2)
        _expect(key not in amps, f"{path}.bits", "duplicate basis term")
        parts = (term.get("re", 0.0), term.get("im", 0.0))
        _expect(set(map(type, parts)) <= {int, float}, path, "re/im must be numbers")
        try:
            amps[key] = complex(*map(float, parts))
        except OverflowError:
            raise SchemaError(f"{path}: re/im must be numbers") from None
        _expect(cmath.isfinite(amps[key]), path, "re/im must be finite")
        _expect_fields(term, {"bits", "re", "im"}, path)
    return SparseState(num_qubits, amps)
