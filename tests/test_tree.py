"""Layout tests: labels, allocation order, aliasing, and the count formulas."""

import pytest

from qramforge import (
    InvalidParameterError,
    QubitId,
    ResourceLimitError,
    allocate_registers,
    ancilla_counts,
    enumerate_nodes,
    label_of,
    value_of,
)


def brute_force_counts(n: int, m: int, k) -> dict[str, int]:
    """Independent tally straight from the layout's qubit table."""
    layout = allocate_registers(n, m, k)
    tally: dict[str, int] = {}
    for qid in layout.qubit_at:
        tally[qid.kind] = tally.get(qid.kind, 0) + 1
    return tally


def test_enumerate_nodes_small():
    assert enumerate_nodes(1) == [[""], ["0", "1"]]
    assert enumerate_nodes(2) == [[""], ["0", "1"], ["00", "01", "10", "11"]]


def test_enumerate_nodes_counts():
    levels = enumerate_nodes(5)
    assert [len(level) for level in levels] == [1, 2, 4, 8, 16, 32]
    # children extend labels on the right
    assert levels[3][5] == "101"
    assert levels[4][10] == "1010"
    assert levels[4][11] == "1011"


def test_label_round_trip():
    for width in range(0, 6):
        for value in range(1 << width):
            assert value_of(label_of(value, width)) == value
    assert label_of(0, 0) == ""
    with pytest.raises(InvalidParameterError):
        label_of(4, 2)
    with pytest.raises(InvalidParameterError):
        label_of(1, 0)
    with pytest.raises(InvalidParameterError):
        value_of("0a1")


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
    assert brute_force_counts(3, 1, 0).get("adr") == 4
    assert brute_force_counts(2, 1, 0).get("adr") == 1
    assert brute_force_counts(1, 1, 0).get("adr", 0) == 0


@pytest.mark.parametrize("n", range(1, 13))
def test_count_formulas_match_allocation(n):
    m = 2
    measured = brute_force_counts(n, m, 1)
    # the closed forms, plus the equivalent level-by-level sum for adr
    level_sum = sum((n - k - 1) * (1 << k) for k in range(n))
    assert measured["life"] == 2 ** (n + 1) - 1
    assert measured.get("adr", 0) == 2**n - n - 1 == level_sum
    assert measured["res"] == m * (2 ** (n + 1) - 2)
    assert measured["mem"] == 2**n
    formulas = ancilla_counts(n, m, 1)
    for kind in ("life", "adr", "res", "mem"):
        assert formulas[kind] == measured.get(kind, 0)
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


def test_numbering_is_a_bijection():
    layout = allocate_registers(3, 2, [0, 1, 2, 0, 1, 2, 0, 1])
    seen = set()
    for index, qid in enumerate(layout.qubit_at):
        assert layout.qubit_index(qid) == index
        assert qid not in seen
        seen.add(qid)
    assert len(seen) == layout.total_qubits


def test_numbering_order():
    layout = allocate_registers(2, 1, 1)
    # address and result lead, then levels in ascending label order
    assert layout.qubit_at[0] == QubitId("address", "", 0)
    assert layout.qubit_at[2] == QubitId("result", "", 0)
    assert layout.qubit_at[3] == QubitId("life", "", 0)
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
    layout = allocate_registers(2, 2, 1)
    data = set(layout.data_qubits)
    ancilla = set(layout.ancilla_qubits)
    assert data | ancilla == set(range(layout.total_qubits))
    assert data & ancilla == set()
    assert set(layout.address_qubits) <= data
    assert set(layout.result_qubits) <= data
    assert set(layout.mem("00")) <= data
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
    with pytest.raises(InvalidParameterError):
        enumerate_nodes(0)


@pytest.mark.parametrize("n", [0, -1, 17, 2.0, None])
def test_enumerate_nodes_refuses_an_address_width_as_register_map_does(n):
    with pytest.raises(InvalidParameterError) as nodes:
        enumerate_nodes(n)
    with pytest.raises(InvalidParameterError) as layout:
        allocate_registers(n, 1, 0)
    assert str(nodes.value) == str(layout.value)


def test_width_boundary():
    layout = allocate_registers(16, 1, 0)
    assert layout.total_qubits == 16 + 1 + (2**17 - 1) + (2**16 - 17) + (2**17 - 2)


def test_resource_limit():
    with pytest.raises(ResourceLimitError) as excinfo:
        allocate_registers(4, 1, 0, max_qubits=10)
    err = excinfo.value
    assert err.limit == 10
    # n=4, m=1, k=0: 4 + 1 + 31 + 11 + 30 = 77
    assert err.requested == 77
    assert "77" in str(err)


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
