"""Synthesis tests: phase structure, routing semantics, variants, validation."""

import math

import numpy as np
import pytest

from qramforge import (
    Circuit,
    ConfigurationError,
    Gate,
    GateKind,
    InvalidParameterError,
    RegisterMap,
    ShapeError,
    SparseState,
    SynthesisOptions,
    UnitarySpec,
    allocate_registers,
    basis_state,
    build_random_instance,
    concat,
    run_circuit,
    synth_access,
    synth_down,
    synth_run,
    synth_up,
)
from helpers import (
    ReferenceSchedule,
    handdown_sequential,
    reference_down,
    reference_run,
    routing_level,
)


def expected_down_key(layout: RegisterMap, address: int, result: int, mem=None) -> int:
    """Independent prediction of the basis key after the Down phase.

    Derived from the register semantics alone: life flags light up exactly on
    the root-to-leaf path; every address-copy register (fresh ones included,
    selected or not — the copies are unconditional) holds the low bits of the
    address; the payload sits in the selected leaf's res register; fan-out
    copies are uncomputed; everything else is 0.
    """
    n = layout.n
    key = 0
    for j, q in enumerate(layout.address_qubits):
        if (address >> j) & 1:
            key |= 1 << q
    path = [format(address, f"0{n}b")[:depth] for depth in range(n + 1)]
    for node in path:
        key |= 1 << layout.life(node)
    for level in layout.levels[1 : n]:
        for node in level:
            if node[-1] == "1":
                span = layout.adr(node)
                low = address % (1 << len(span))
                for j, q in enumerate(span):
                    if (low >> j) & 1:
                        key |= 1 << q
    leaf_res = layout.res(path[-1])
    for j, q in enumerate(leaf_res):
        if (result >> j) & 1:
            key |= 1 << q
    if mem:
        for leaf, value in mem.items():
            for j, q in enumerate(layout.mem(leaf)):
                if (value >> j) & 1:
                    key |= 1 << q
    return key


def test_down_n1_m1_worked_example():
    layout = allocate_registers(1, 1, 0)
    down = synth_down(layout)
    # preparation X, two Toffolis, the X sandwich, two hand-down Fredkins
    assert down.gate_counts() == {"x": 3, "ccx": 2, "cswap": 2}
    touched = {q for g in down.all_gates() for q in g.qubits}
    assert len(touched) == 7 == layout.total_qubits
    sel = layout.adr("")[0]
    expected = [
        Gate.x(layout.life("")),
        Gate.toffoli(sel, layout.life(""), layout.life("1")),
        Gate.x(sel),
        Gate.toffoli(sel, layout.life(""), layout.life("0")),
        Gate.x(sel),
        Gate.fredkin(layout.life("0"), layout.res("")[0], layout.res("0")[0]),
        Gate.fredkin(layout.life("1"), layout.res("")[0], layout.res("1")[0]),
    ]
    assert list(down.all_gates()) == expected
    # scheduler regression anchor (measured): six moments
    assert [len(m) for m in down.moments] == [1, 1, 1, 1, 2, 1]


def test_down_lights_the_selected_path():
    # address 10 must activate life at the root, node 1, and leaf 10 only
    layout = allocate_registers(2, 1, 0)
    down = synth_down(layout)
    final = run_circuit(basis_state(layout, "10", 0), down)
    assert len(final) == 1
    key = next(iter(final.amps))
    lit = {
        node
        for level in layout.levels
        for node in level
        if (key >> layout.life(node)) & 1
    }
    assert lit == {"", "1", "10"}


@pytest.mark.parametrize("variant", ["sequential", "fanout"])
@pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (3, 2)])
def test_down_final_state_matches_prediction(variant, n, m):
    layout = allocate_registers(n, m, 1)
    down = synth_down(layout, SynthesisOptions(variant=variant))
    mem = {layout.leaves[-1]: 1, layout.leaves[0]: 1}
    for address in range(1 << n):
        for result in (0, (1 << m) - 1, 1):
            state = basis_state(down.layout, address, result, mem)
            final = run_circuit(state, down)
            expected = expected_down_key(down.layout, address, result, mem)
            assert final.amps == {expected: 1.0 + 0j}


def test_two_pass_emission_equals_interleaved_order():
    """Emitting all routing before any hand-down must implement the same
    permutation as the level-interleaved order (the gates commute)."""
    layout = allocate_registers(3, 2, 0)
    schedule = ReferenceSchedule().extend([Gate.x(layout.life(""))]).barrier()
    for k in range(layout.n):
        schedule.extend(routing_level(layout, k))
        schedule.extend(handdown_sequential(layout, layout.levels[k]))
    interleaved = Circuit.from_moments(layout, schedule.moments)
    two_pass = synth_down(layout)
    assert two_pass.num_gates == interleaved.num_gates
    for address in range(8):
        for result in (0, 3):
            start = basis_state(layout, address, result)
            a = run_circuit(start, two_pass)
            b = run_circuit(start, interleaved)
            assert a.amps == b.amps


@pytest.mark.parametrize("variant", ["sequential", "fanout"])
def test_up_is_exact_adjoint(variant):
    layout = allocate_registers(2, 3, 0)
    options = SynthesisOptions(variant=variant)
    up = synth_up(layout, options)
    down = synth_down(layout, options)
    assert up == down.adjoint()
    # closing X on the root life flag sits alone in the final moment
    last = list(up.moments[-1])
    assert len(last) == 1 and last[0] == Gate.x(up.layout.life(""))


@pytest.mark.parametrize("variant", ["sequential", "fanout"])
def test_down_up_identity_on_arbitrary_keys(variant):
    layout = allocate_registers(3, 2, 1)
    options = SynthesisOptions(variant=variant)
    down = synth_down(layout, options)
    round_trip = concat(down, synth_up(layout, options))
    rng = np.random.default_rng(11)
    total = down.layout.total_qubits
    for _ in range(25):
        key = int(rng.integers(0, 1 << total))
        state = run_circuit(SparseState(total, {key: 1.0 + 0j}), round_trip)
        assert state.amps == {key: 1.0 + 0j}


def test_access_is_down_run_up():
    inst = build_random_instance(2, 1, 0, seed=2)
    layout = inst.layout()
    down = synth_down(layout)
    run = synth_run(layout, inst.unitaries)
    access = synth_access(layout, inst.unitaries)
    assert access.num_moments == 2 * down.num_moments + run.num_moments
    assert access.depth == 2 * down.depth + run.depth
    assert access.metadata["phase"] == "access"
    # the Run slice is a single moment of one opaque block per leaf
    run_moment = access.moments[down.num_moments]
    assert len(run_moment) == 4
    assert all(g.kind is GateKind.OPAQUE for g in run_moment)
    assert sorted(g.leaf for g in run_moment) == ["00", "01", "10", "11"]


def test_run_is_single_moment_with_declared_depth():
    layout = allocate_registers(2, 1, 0)
    run = synth_run(layout, declared_depths={"00": 9})
    assert run.num_moments == 1
    assert run.depth == 9
    uniform = synth_run(layout, declared_depths=4)
    assert uniform.depth == 4
    bare = synth_run(layout)
    assert bare.depth == 1


def test_run_validation():
    layout = allocate_registers(1, 1, 0)
    good = UnitarySpec("0", np.eye(2))
    wide = UnitarySpec("1", np.eye(4))
    with pytest.raises(ConfigurationError):
        synth_run(layout, {"0": good})  # missing leaf 1
    with pytest.raises(ConfigurationError):
        synth_run(layout, {"0": good, "1": UnitarySpec("1", np.eye(2)), "11": good})
    with pytest.raises(ShapeError) as excinfo:
        synth_run(layout, {"0": good, "1": wide})
    assert excinfo.value.leaf == "1"
    assert "1" in str(excinfo.value)
    with pytest.raises(InvalidParameterError):
        synth_run(layout, {"0": good}, declared_depths=3)


def test_preparation_toggle():
    layout = allocate_registers(2, 1, 0)
    with_prep = synth_down(layout)
    without = synth_down(layout, SynthesisOptions(include_preparation=False))
    assert with_prep.gate_counts()["x"] == without.gate_counts()["x"] + 1
    first = list(with_prep.moments[0])
    assert first == [Gate.x(layout.life(""))]
    # without preparation the root flag stays 0 and nothing routes
    final = run_circuit(basis_state(layout, 3, 1), without)
    lit = [node for level in layout.levels for node in level if (next(iter(final.amps)) >> layout.life(node)) & 1]
    assert lit == []


def test_options_validation():
    with pytest.raises(InvalidParameterError):
        SynthesisOptions(variant="parallel")
    with pytest.raises(InvalidParameterError):
        SynthesisOptions(fanout_block=0)
    assert SynthesisOptions().resolved_block(9) == 3
    assert SynthesisOptions().resolved_block(10) == 4
    assert SynthesisOptions(fanout_block=2).resolved_block(16) == 2
    with pytest.raises(InvalidParameterError):
        SynthesisOptions(fanout_block=5).resolved_block(4)  # s > m


def test_fanout_degenerate_cases_match_sequential():
    layout = allocate_registers(2, 1, 0)
    assert synth_down(layout, SynthesisOptions(variant="fanout")) == synth_down(layout)
    wide = allocate_registers(2, 4, 0)
    # s = m gives a single copy, which the layout collapses away
    assert synth_down(wide, SynthesisOptions(variant="fanout", fanout_block=4)) == synth_down(wide)


def test_sequential_variant_ignores_the_copies_of_a_fanout_layout():
    """The sequential variant hands down on the life flags even on a layout
    that already carries fan-out copies: the registers it uses sit where the
    plain layout puts them, so the gates are the plain layout's."""
    plain = allocate_registers(2, 4, 0)
    copies = RegisterMap(2, 4, 0, fanout_block=2)
    down = synth_down(copies)
    assert down.layout == copies and copies.copies_per_node == 2
    assert down.columns == synth_down(plain).columns
    assert down.gate_counts() == {"x": 7, "cx": 1, "ccx": 6, "cswap": 24}


def test_fanout_emits_copy_chains():
    layout = allocate_registers(1, 4, 0)
    options = SynthesisOptions(variant="fanout", fanout_block=2)
    down = synth_down(layout, options)
    assert down.layout.copies_per_node == 2
    counts = down.gate_counts()
    # per child: 2 copy CNOTs + 2 uncopy CNOTs; two children; no adr copies at n=1
    assert counts["cx"] == 8
    assert counts["cswap"] == 8


def test_fanout_handdown_depth():
    """A one-level Down phase with the default block size s ~ sqrt(m) has
    depth exactly 2 ceil(m/s) + s + 5, below the sequential hand-down's from
    m = 16 on."""
    for m in (4, 9, 16, 25, 36, 49, 64):
        layout = allocate_registers(1, m, 0)
        s = SynthesisOptions().resolved_block(m)
        fanout = synth_down(layout, SynthesisOptions(variant="fanout"))
        assert fanout.layout.copies_per_node == s
        assert fanout.depth == 2 * math.ceil(m / s) + s + 5
        if m >= 16:
            assert fanout.depth < synth_down(layout, SynthesisOptions()).depth


def test_synthesis_is_deterministic():
    inst = build_random_instance(2, 2, 0, seed=4)
    layout = inst.layout()
    options = SynthesisOptions(variant="fanout")
    a = synth_access(layout, inst.unitaries, options)
    b = synth_access(layout, inst.unitaries, options)
    assert a == b
    assert [len(m) for m in a.moments] == [len(m) for m in b.moments]


def _gate_lists(circuit):
    return [list(moment) for moment in circuit.moments]


@pytest.mark.parametrize("n", range(1, 8))
def test_synthesis_matches_the_reference_synthesizer(n):
    """Level-at-a-time synthesis places every gate where the gate-by-gate
    reference puts it: same kind, operands, leaf, dagger and declared depth,
    same moment, same order within the moment.  Every phase, both variants
    with every block size, with and without preparation, integer and
    per-leaf declared depths."""
    for m in (1, 2, 3, 4, 5, 9):
        layout = allocate_registers(n, m, [v % 3 for v in range(1 << n)])
        per_leaf = {leaf: 1 + v % 4 for v, leaf in enumerate(layout.leaves)}
        variants = [SynthesisOptions()]
        variants += [SynthesisOptions(variant="fanout", fanout_block=s) for s in range(1, m + 1)]
        for index, variant in enumerate(variants):
            for preparation in (True, False):
                options = SynthesisOptions(variant.variant, variant.fanout_block, preparation)
                ref_layout, schedule = reference_down(layout, options)
                down = synth_down(layout, options)
                assert down.layout == ref_layout
                assert _gate_lists(down) == schedule.moments
                # the access circuit is compared as columns, which hold the
                # same fields
                ref_up = [
                    [gate.adjoint() for gate in moment] for moment in reversed(schedule.moments)
                ]
                depths = per_leaf if index % 2 else 3
                access = synth_access(layout, None, options, declared_depths=depths)
                ref_access = schedule.moments + reference_run(ref_layout, depths) + ref_up
                assert access == Circuit.from_moments(ref_layout, ref_access)
                if index > 1:
                    continue
                assert synth_up(layout, options) == Circuit.from_moments(ref_layout, ref_up)
                # gates appended afterwards land where appending them one by
                # one would have put them
                extra = [Gate.x(ref_layout.life("0")), Gate.cnot(ref_layout.res("1")[0], 0)]
                for gate in extra:
                    down.append(gate)
                schedule.extend(extra)
                assert _gate_lists(down) == schedule.moments
        for depths in (None, 2, per_leaf):
            assert _gate_lists(synth_run(layout, declared_depths=depths)) == reference_run(layout, depths)


def test_synthesis_at_n14_stays_small():
    """The access circuit at n=14, m=4 (442k gates) is built as columns:
    under 50 MB of allocations, with the depth, width and gate count pinned
    from the former gate-by-gate synthesizer."""
    import tracemalloc

    tracemalloc.start()
    try:
        circuit = synth_access(allocate_registers(14, 4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (circuit.depth, circuit.width, circuit.num_gates) == (101, 16384, 442316)
    assert peak < 50 * 2**20
