"""Layout tests: labels, allocation order, aliasing, and the count formulas."""

import numpy as np
import pytest

from qramforge import (
    InvalidParameterError,
    RegisterMap,
    ResourceLimitError,
    allocate_registers,
    ancilla_counts,
    label_of,
)
from qramforge.tree import REGISTER_KINDS


def rows_tally(layout) -> dict[str, int]:
    """Allocated qubits by register kind, summed over the register table."""
    rows = layout.rows
    tally = np.bincount(rows.kind, weights=rows.size, minlength=len(REGISTER_KINDS)).astype(np.int64)
    out = {kind: int(tally[code]) for code, kind in enumerate(REGISTER_KINDS[:-1])}
    if layout.copies_per_node:
        out["copy"] = int(tally[REGISTER_KINDS.index("copy")])
    out["total"] = int(rows.size.sum())
    return out


def test_label_round_trip():
    for width in range(0, 6):
        for value in range(1 << width):
            assert int(label_of(value, width) or "0", 2) == value
    assert label_of(0, 0) == ""
    with pytest.raises(InvalidParameterError):
        label_of(4, 2)
    with pytest.raises(InvalidParameterError):
        label_of(1, 0)


def test_worked_example_n2_m1_k1():
    # 21 qubits in total: address 2, result 1, life 7, adr 1, res 6, mem 4.
    layout = allocate_registers(2, 1, 1)
    assert layout.total_qubits == 21
    assert layout.counts() == {
        "address": 2,
        "result": 1,
        "life": 7,
        "adr": 1,
        "res": 6,
        "mem": 4,
        "total": 21,
    }


def test_adr_count_examples():
    assert rows_tally(allocate_registers(3, 1, 0))["adr"] == 4
    assert rows_tally(allocate_registers(2, 1, 0))["adr"] == 1
    assert rows_tally(allocate_registers(1, 1, 0))["adr"] == 0


@pytest.mark.parametrize("n", range(1, 13))
def test_count_formulas_match_allocation(n):
    m = 2
    measured = rows_tally(allocate_registers(n, m, 1))
    # the closed forms, plus the equivalent level-by-level sum for adr
    level_sum = sum((n - k - 1) * (1 << k) for k in range(n))
    assert measured["life"] == 2 ** (n + 1) - 1
    assert measured["adr"] == 2**n - n - 1 == level_sum
    assert measured["res"] == m * (2 ** (n + 1) - 2)
    assert measured["mem"] == 2**n
    formulas = ancilla_counts(n, m, 1)
    for kind in ("life", "adr", "res", "mem"):
        assert formulas[kind] == measured[kind]
    assert formulas["total"] == sum(formulas[kind] for kind in ("life", "adr", "res", "mem"))


@pytest.mark.parametrize("m", [1, 4, 16])
def test_total_ratio_monotone(m):
    previous = 0.0
    for n in range(1, 13):
        layout = allocate_registers(n, m, 0)
        ratio = layout.total_qubits / ((2 * m + 3) * 2**n)
        assert previous < ratio < 1.0
        previous = ratio
    # by n = 10 the ratio is already within 15% of 1 (in fact much closer)
    layout = allocate_registers(10, 4, 0)
    assert abs(layout.total_qubits / ((2 * 4 + 3) * 2**10) - 1.0) < 0.15


@pytest.mark.parametrize(
    "layout",
    [
        allocate_registers(3, 2, 1),
        allocate_registers(3, 2, [0, 1, 2, 0, 1, 2, 0, 1]),
        allocate_registers(3, 5, [2, 0, 0, 1, 0, 3, 0, 0]).with_fanout_copies(2),
    ],
    ids=["plain", "mixed-k", "fanout"],
)
def test_register_rows_are_the_accessor_spans(layout):
    """Every row of the register table is exactly the span its accessor
    returns, every non-empty register has a row, and the rows tile the
    physical qubits with no gaps."""
    expected = {("address", ""): layout.address_qubits, ("result", ""): layout.result_qubits}
    for depth, level in enumerate(layout.levels):
        for node in level:
            expected["life", node] = (layout.life(node),)
            if node.endswith("1") and depth < layout.n:
                expected["adr", node] = layout.adr(node)
            if node:
                expected["res", node] = layout.res(node)
                expected["copy", node] = layout.copies(node)
    for leaf in layout.leaves:
        expected["mem", leaf] = layout.mem(leaf)
    expected = {key: span for key, span in expected.items() if span}
    table = {(kind, node): tuple(range(start, start + size)) for kind, node, start, size in layout.labelled_rows}
    assert len(table) == len(layout.labelled_rows)
    assert table == expected
    rows = layout.rows
    assert rows.start.tolist() == np.cumsum([0, *rows.size.tolist()])[:-1].tolist()
    assert int(rows.start[-1] + rows.size[-1]) == layout.total_qubits
    assert rows.size.min() > 0


@pytest.mark.parametrize("n", range(1, 9))
def test_labelled_rows_index_the_cached_labels_as_label_of_names_them(n):
    """The labels come from the cached per-level tuples; each row's tuple is
    the one ``label_of`` names, with and without fan-out copies."""
    for layout in (allocate_registers(n, 4, [z % 3 for z in range(1 << n)]),
                   allocate_registers(n, 4, 1).with_fanout_copies(2)):
        rows = layout.rows
        expected = tuple(
            (REGISTER_KINDS[kind], label_of(value, depth), start, size)
            for kind, depth, value, start, size in zip(*(column.tolist() for column in rows))
        )
        assert layout.labelled_rows == expected
    assert any(kind == "copy" for kind, *_ in layout.labelled_rows)


def test_numbering_order():
    layout = allocate_registers(2, 1, 1)
    # address and result lead, then levels in ascending label order
    assert layout.labelled_rows[:3] == (("address", "", 0, 2), ("result", "", 2, 1), ("life", "", 3, 1))
    assert layout.address_qubits == (0, 1)
    assert layout.result_qubits == (2,)
    assert layout.life("") == 3
    # level 1: life_0, res_0, life_1, adr_1, res_1
    assert layout.life("0") == 4
    assert layout.res("0") == (5,)
    assert layout.life("1") == 6
    assert layout.adr("1") == (7,)
    assert layout.res("1") == (8,)
    # leaves, then the mem block
    assert layout.life("00") == 9
    assert layout.mem("00") == (17,)
    assert layout.mem("11") == (20,)


def test_adr_aliasing():
    layout = allocate_registers(4, 1, 0)
    # the root's register is the address itself
    assert layout.adr("") == layout.address_qubits
    # a left child aliases the low bits of its parent
    assert layout.adr("0") == layout.adr("")[:3]
    assert layout.adr("00") == layout.adr("0")[:2]
    assert layout.adr("10") == layout.adr("1")[:2]
    # a right child owns fresh qubits, disjoint from its parent
    assert set(layout.adr("1")).isdisjoint(layout.adr(""))
    assert set(layout.adr("01")).isdisjoint(layout.adr("0"))
    # leaves hold no address copy
    assert layout.adr("0110") == ()
    with pytest.raises(InvalidParameterError):
        layout.adr("01101")


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_adr_registers_disjoint_within_level(n):
    layout = allocate_registers(n, 1, 0)
    for level in layout.levels[:-1]:
        spans = [set(layout.adr(x)) for x in level]
        for i, a in enumerate(spans):
            for b in spans[i + 1 :]:
                assert a.isdisjoint(b)


def test_res_alias_and_mem_lookup():
    layout = allocate_registers(2, 3, [1, 0, 2, 0])
    assert layout.res("") == layout.result_qubits
    assert len(layout.res("01")) == 3
    assert len(layout.mem("00")) == 1
    assert layout.mem("01") == ()
    assert len(layout.mem("10")) == 2
    with pytest.raises(InvalidParameterError):
        layout.mem("0")  # not a leaf


def test_data_ancilla_partition():
    """``data_mask`` holds exactly the address, result and memory rows of the
    register table; the life, adr, res and copy rows are the ancillas."""
    for layout in (allocate_registers(2, 2, 1), RegisterMap(2, 3, [0, 2, 1, 0], fanout_block=1)):
        data = {q for q in range(layout.total_qubits) if layout.data_mask >> q & 1}
        assert layout.data_mask >> layout.total_qubits == 0
        rows = {kind: set() for kind in REGISTER_KINDS}
        for kind, _, start, size in layout.labelled_rows:
            rows[kind].update(range(start, start + size))
        assert data == rows["address"] | rows["result"] | rows["mem"]
        ancilla = set(range(layout.total_qubits)) - data
        assert ancilla == rows["life"] | rows["adr"] | rows["res"] | rows["copy"]
        assert set(layout.address_qubits) | set(layout.result_qubits) | set(layout.mem("10")) <= data
        assert layout.life("") in ancilla
        assert set(layout.res("0")) <= ancilla


def test_k_normalization_forms():
    by_int = allocate_registers(2, 1, 1)
    by_list = allocate_registers(2, 1, [1, 1, 1, 1])
    by_map = allocate_registers(2, 1, {"00": 1, "01": 1, "10": 1, "11": 1})
    assert by_int == by_list == by_map
    sparse = allocate_registers(2, 1, {"10": 3})
    assert sparse.k == (0, 0, 3, 0)


def test_parameter_validation():
    with pytest.raises(InvalidParameterError):
        allocate_registers(0, 1, 0)
    with pytest.raises(InvalidParameterError):
        allocate_registers(17, 1, 0)  # beyond the supported address width
    with pytest.raises(InvalidParameterError):
        allocate_registers(2, 0, 0)
    with pytest.raises(InvalidParameterError):
        allocate_registers(2, 1, [1, 2, 3])  # wrong leaf count
    with pytest.raises(InvalidParameterError):
        allocate_registers(2, 1, -1)
    with pytest.raises(InvalidParameterError):
        allocate_registers(2, 1, {"0": 1})  # not a leaf label


def test_width_boundary():
    layout = allocate_registers(16, 1, 0)
    assert layout.total_qubits == 16 + 1 + (2**17 - 1) + (2**16 - 17) + (2**17 - 2)


def test_resource_limit():
    with pytest.raises(ResourceLimitError) as excinfo:
        allocate_registers(16, 16)
    err = excinfo.value
    assert err.limit == 2_000_000
    # n=16, m=16, k=0: 16 + 16 + 131,071 + 65,519 + 16 * 131,070 = 2,293,742
    assert err.requested == 2_293_742
    assert str(err) == "layout for n=16, m=16 needs 2293742 qubits, exceeding the budget of 2000000"


def test_fanout_extension_counts_and_stability():
    base = allocate_registers(2, 4, 0)
    extended = base.with_fanout_copies(2)  # ceil(4/2) = 2 copies per non-root node
    assert extended.copies_per_node == 2
    assert extended.total_qubits == base.total_qubits + 2 * 6
    # pre-existing registers keep their physical indices
    for node in ("", "0", "1", "00", "11"):
        assert extended.life(node) == base.life(node)
        assert extended.res(node) == base.res(node)
        assert extended.adr(node) == base.adr(node)
    assert len(extended.copies("01")) == 2
    with pytest.raises(InvalidParameterError):
        extended.copies("")


def test_fanout_extension_degenerate():
    base = allocate_registers(2, 1, 0)
    # ceil(1/1) = 1 copy would be pointless; the extension collapses
    assert base.with_fanout_copies(1) is base
    assert base.copies("0") == ()
    wide = allocate_registers(2, 4, 0)
    assert wide.with_fanout_copies(4) is wide  # ceil(4/4) = 1
    with pytest.raises(InvalidParameterError):
        wide.with_fanout_copies(5)  # s > m
    with pytest.raises(InvalidParameterError):
        wide.with_fanout_copies(0)


def test_equality_and_repr():
    a = allocate_registers(2, 1, 1)
    b = allocate_registers(2, 1, [1, 1, 1, 1])
    c = allocate_registers(2, 1, 0)
    assert a == b and hash(a) == hash(b)
    assert a != c
    wide = allocate_registers(2, 4, 0)
    assert wide.with_fanout_copies(2) != wide
    assert "n=2" in repr(a)


@pytest.mark.parametrize("n", range(1, 7))
def test_closed_form_counts_match_the_register_table(n):
    """``counts()`` from the closed form equals the tally of ``rows``, keys
    and their order included, for integer and mixed per-leaf widths, with
    and without fan-out copies."""
    for m in (1, 2, 3, 5, 9):
        for k in (0, 2, [v % 4 for v in range(1 << n)], [3 * (v == 1) for v in range(1 << n)]):
            for block in (None, *range(1, m + 1, 2)):
                layout = RegisterMap(n, m, k, fanout_block=block)
                assert list(layout.counts().items()) == list(rows_tally(layout).items())
                assert layout.counts()["total"] == layout.total_qubits


def test_bad_memory_widths_keep_their_messages():
    """The bulk check of width normalization leaves every refusal to the
    per-value rule, which names the first offender."""
    cases = [
        (-1, "memory widths are non-negative integers, got -1"),
        ("3", "expected 4 per-leaf memory widths, got 1"),
        ([1, 2, 3], "expected 4 per-leaf memory widths, got 3"),
        ((0, 0, 0), "expected 4 per-leaf memory widths, got 3"),
        ((0, -1, 0, 0), "memory widths are non-negative integers, got -1"),
        ((0, 1.0, 0, 0), "memory widths are non-negative integers, got 1.0"),
        ((0, "1", 0, 0), "memory widths are non-negative integers, got '1'"),
        ([0, None, 0, 0], "memory widths are non-negative integers, got None"),
        ({"0": 1}, "memory widths are keyed by leaf labels of length 2, got '0'"),
        ({"0a": 1}, "node labels are bit strings, got '0a'"),
        ({1: 0}, "node labels are bit strings, got 1"),
        ({"01": -2}, "memory widths are non-negative integers, got -2"),
    ]
    for k, message in cases:
        with pytest.raises(InvalidParameterError) as excinfo:
            allocate_registers(2, 1, k)
        assert str(excinfo.value) == message, k


@pytest.mark.parametrize("k", [2.0, None, object()], ids=["float", "none", "object"])
def test_memory_widths_of_no_accepted_form_are_refused(k):
    """A ``k`` that is neither an int, a sequence nor a mapping is refused
    with the package's error by the layout and by the closed-form counts."""
    message = f"memory widths must be an int, a sequence or a mapping by leaf label, got {k!r}"
    for build in (allocate_registers, ancilla_counts):
        with pytest.raises(InvalidParameterError) as excinfo:
            build(2, 1, k)
        assert str(excinfo.value) == message


def test_normalized_widths_and_shared_labels():
    """Every accepted form of ``k`` normalizes to the same tuple; the widths
    are also one int64 array per layout, and layouts of one depth share
    one tuple of leaf labels."""
    forms = [2, [2, 2, 2, 2], (2, 2, 2, 2), {"00": 2, "01": 2, "10": 2, "11": 2}]
    assert {allocate_registers(2, 1, k).k for k in forms} == {(2, 2, 2, 2)}
    layout = allocate_registers(3, 4, [0, 1, 2, 3, 0, 1, 2, 3])
    extended = layout.with_fanout_copies(2)
    assert extended.k == layout.k
    assert layout.mem_widths.dtype == np.int64
    assert layout.mem_widths.tolist() == list(layout.k)
    assert extended.leaves is layout.leaves is allocate_registers(3, 1).leaves
    assert layout.levels[-1] is layout.leaves
    assert [len(level) for level in allocate_registers(5, 1).levels] == [1, 2, 4, 8, 16, 32]
    assert layout.levels == (("",), ("0", "1"), ("00", "01", "10", "11"), tuple(format(v, "03b") for v in range(8)))
