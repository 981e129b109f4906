"""Instance families, reference semantics, and end-to-end verification.

The access circuit is supposed to implement, on the data registers alone,

    |y> |r> |mem>  ->  |y>  (U_y on |r, mem_y>)  (mem_z for z != y unchanged)

with every ancilla returned to 0.  This module owns the *reference* side of
that statement: it builds instance families (collections of per-leaf
unitaries), computes the expected output directly from the matrices — no
circuit, no simulator — and compares the synthesized circuit's simulated
output against it, reporting fidelities and ancilla residuals per case.

Reference outputs are kept as dictionaries keyed by ``(y, r, mem)`` tuples
(``mem`` itself a per-leaf tuple), a deliberately circuit-free encoding; the
only bridge to the simulator is :func:`extract_data_state`, which reads the
data registers out of a full sparse state and accumulates whatever weight
sits on non-zero ancillas as a residual.
"""

from __future__ import annotations

import json
import time
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, InvalidParameterError
from .ir import Circuit
from .sim import SparseState, UnitarySpec, _check_budget, basis_state, run_batch, superpose

# bench/selftest.py reads qramforge.verifier.run_circuit to check that the
# benchmark tracer uninstalls cleanly; the checkers themselves use run_batch.
from .sim import run_circuit  # noqa: F401
from .synth import SynthesisOptions, synth_access
from .tree import RegisterMap, _normalize_k, _validate_sizes, allocate_registers, label_of

#: Default tolerance on ``|<expected|actual>|**2`` for a passing case.
FIDELITY_TOL = 1e-10

#: Default ceiling on the probability weight left on non-zero ancillas.
RESIDUAL_TOL = 1e-12

DEFAULT_SEED = 7

#: A reference state: ``(address, result, per-leaf mem tuple) -> amplitude``.
DataState = dict[tuple[int, int, tuple[int, ...]], complex]


# ---------------------------------------------------------------------------
# instance families
# ---------------------------------------------------------------------------


@dataclass
class InstanceSpec:
    """One concrete access problem: sizes plus the per-leaf unitaries."""

    family: str
    n: int
    m: int
    k: tuple[int, ...]
    unitaries: dict[str, UnitarySpec]
    params: dict = field(default_factory=dict)

    def layout(self, **kwargs) -> RegisterMap:
        return allocate_registers(self.n, self.m, self.k, **kwargs)

    def describe(self) -> str:
        bits = [f"n={self.n}", f"m={self.m}"]
        if any(self.k):
            ks = set(self.k)
            bits.append(f"k={self.k[0]}" if len(ks) == 1 else f"k={list(self.k)}")
        bits.extend(f"{key}={value!r}" for key, value in self.params.items() if key != "table")
        return f"{self.family}({', '.join(bits)})"


def _check_payload(what: str, m: int, k: Sequence[int]) -> None:
    """Refuse an instance whose payload matrices, one complex
    ``2**(m + k_z)``-square matrix per leaf, would not fit the simulator's
    budget, before any of them is built."""
    _check_budget(sum(16 << 2 * (m + width) for width in k), f"the payload matrices of {what}")


def build_qram_instance(n: int, m: int) -> InstanceSpec:
    """Classical-memory access: each leaf holds ``m`` memory qubits and the
    payload XORs them into the result, ``|r, s> -> |r XOR s, s>``."""
    _validate_sizes(n, m)
    _check_payload(f"qram(n={n}, m={m})", m, (m,) * (1 << n))
    dim = 1 << (2 * m)
    low = (1 << m) - 1
    matrix = np.zeros((dim, dim))
    for idx in range(dim):
        r, s = idx & low, idx >> m
        matrix[(r ^ s) | (s << m), idx] = 1.0
    unitaries = {z: UnitarySpec(z, matrix) for z in _leaves(n)}
    return InstanceSpec("qram", n, m, (m,) * (1 << n), unitaries)


def build_table_lookup_instance(
    n: int, m: int, table: Sequence[int] | None = None, *, seed: int = DEFAULT_SEED
) -> InstanceSpec:
    """Table lookup: no memory qubits; leaf ``z`` XORs the constant
    ``table[z]`` into the result, ``|r> -> |r XOR f(z)>``."""
    _validate_sizes(n, m)
    _check_payload(f"table_lookup(n={n}, m={m})", m, (0,) * (1 << n))
    if table is None:
        rng = np.random.default_rng(seed)
        table = [int(v) for v in rng.integers(0, 1 << m, size=1 << n)]
    table = [int(v) for v in table]
    if len(table) != 1 << n:
        raise InvalidParameterError(f"table must have {1 << n} entries, got {len(table)}")
    dim = 1 << m
    unitaries = {}
    for z_value, f_value in enumerate(table):
        if not 0 <= f_value < dim:
            raise InvalidParameterError(f"table entry {f_value} does not fit in {m} bits")
        matrix = np.zeros((dim, dim))
        for r in range(dim):
            matrix[r ^ f_value, r] = 1.0
        z = label_of(z_value, n)
        unitaries[z] = UnitarySpec(z, matrix)
    return InstanceSpec("table_lookup", n, m, (0,) * (1 << n), unitaries, {"table": table})


def build_rotation_instance(n: int, fraction_bits: int) -> InstanceSpec:
    """Memory-programmed rotation of a single result qubit.

    Leaf ``z`` stores a ``fraction_bits``-bit fraction
    ``mu = sum(s_j * 2**-(j+1))`` (bit ``mem_z[j]`` contributes ``2**-(j+1)``)
    and applies ``exp(-i pi mu X)`` to the result qubit, leaving the fraction
    in place — a block-diagonal unitary on ``res_z ++ mem_z``.
    """
    _validate_sizes(n, 1)
    if not isinstance(fraction_bits, int) or fraction_bits < 1:
        raise InvalidParameterError(
            f"fraction width must be a positive integer, got {fraction_bits!r}"
        )
    _check_payload(f"rotation(n={n}, fraction_bits={fraction_bits})", 1, (fraction_bits,) * (1 << n))
    dim = 1 << (1 + fraction_bits)
    matrix = np.zeros((dim, dim), dtype=complex)
    for s in range(1 << fraction_bits):
        mu = sum(((s >> j) & 1) * 2.0 ** -(j + 1) for j in range(fraction_bits))
        c = np.cos(np.pi * mu)
        v = np.sin(np.pi * mu)
        base = s << 1
        matrix[base, base] = c
        matrix[base + 1, base + 1] = c
        matrix[base, base + 1] = -1j * v
        matrix[base + 1, base] = -1j * v
    unitaries = {
        z: UnitarySpec(z, matrix, declared_depth=fraction_bits) for z in _leaves(n)
    }
    return InstanceSpec(
        "rotation",
        n,
        1,
        (fraction_bits,) * (1 << n),
        unitaries,
        {"fraction_bits": fraction_bits},
    )


def build_random_instance(
    n: int,
    m: int,
    k: int | Sequence[int] = 0,
    *,
    seed: int = DEFAULT_SEED,
) -> InstanceSpec:
    """Independent Haar-random payloads per leaf (QR of a complex Gaussian
    with the phase gauge fixed), deterministic in ``seed``."""
    _validate_sizes(n, m)
    k_values = _normalize_k(n, k)
    _check_payload(f"random(n={n}, m={m}, k={max(k_values)} at most)", m, k_values)
    unitaries = {}
    for z_value in range(1 << n):
        z = label_of(z_value, n)
        dim = 1 << (m + k_values[z_value])
        rng = np.random.default_rng([seed, z_value])
        sample = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, r = np.linalg.qr(sample)
        phases = np.diagonal(r) / np.abs(np.diagonal(r))
        unitaries[z] = UnitarySpec(z, q * phases)
    return InstanceSpec("random", n, m, k_values, unitaries, {"seed": seed})


def build_custom_instance(
    n: int,
    m: int,
    k: int | Sequence[int],
    unitaries: Mapping[str, UnitarySpec],
    family: str = "custom",
) -> InstanceSpec:
    _validate_sizes(n, m)
    k_values = _normalize_k(n, k)
    missing = [z for z in _leaves(n) if z not in unitaries]
    if missing:
        raise ConfigurationError(f"missing unitaries for leaves {missing}")
    return InstanceSpec(family, n, m, k_values, dict(unitaries))


INSTANCE_FAMILIES = ("qram", "table_lookup", "rotation", "random")


def build_instance(
    family: str,
    n: int,
    m: int,
    k: int | Sequence[int] | None = None,
    *,
    seed: int = DEFAULT_SEED,
    table: Sequence[int] | None = None,
) -> InstanceSpec:
    """Dispatch to the family builders with uniform arguments.

    For the rotation family ``m`` is the stored fraction width; the rotated
    result register is always a single qubit.
    """
    if family == "qram":
        if k is not None and k != m:
            raise InvalidParameterError("the qram family fixes k = m")
        return build_qram_instance(n, m)
    if family == "table_lookup":
        if k not in (None, 0):
            raise InvalidParameterError("the table_lookup family fixes k = 0")
        return build_table_lookup_instance(n, m, table, seed=seed)
    if family == "rotation":
        if k is not None:
            raise InvalidParameterError("the rotation family fixes k to the fraction width")
        return build_rotation_instance(n, m)
    if family == "random":
        return build_random_instance(n, m, 0 if k is None else k, seed=seed)
    raise InvalidParameterError(
        f"unknown family {family!r}; choose from {', '.join(INSTANCE_FAMILIES)}"
    )


def _leaves(n: int) -> list[str]:
    return [label_of(v, n) for v in range(1 << n)]


# ---------------------------------------------------------------------------
# reference semantics (no circuits, no simulator)
# ---------------------------------------------------------------------------


def _normalize_mem(instance: InstanceSpec, mem) -> tuple[int, ...]:
    num_leaves = 1 << instance.n
    if mem is None:
        return (0,) * num_leaves
    values = list(mem)
    if len(values) != num_leaves:
        raise InvalidParameterError(f"expected {num_leaves} memory values, got {len(values)}")
    for z_value, value in enumerate(values):
        if not isinstance(value, int) or not 0 <= value < (1 << instance.k[z_value]):
            raise InvalidParameterError(
                f"memory value {value!r} does not fit leaf {label_of(z_value, instance.n)}"
            )
    return tuple(values)


def oracle_effect(
    instance: InstanceSpec,
    address: int,
    result: int = 0,
    mem: Sequence[int] | None = None,
) -> DataState:
    """Expected data-register output for one basis input, read straight off
    the leaf's matrix column."""
    n, m = instance.n, instance.m
    if not 0 <= address < (1 << n):
        raise InvalidParameterError(f"address {address} does not fit in {n} bits")
    if not 0 <= result < (1 << m):
        raise InvalidParameterError(f"result {result} does not fit in {m} bits")
    mem = _normalize_mem(instance, mem)
    matrix = instance.unitaries[label_of(address, n)].matrix
    column = matrix[:, result | (mem[address] << m)]
    low = (1 << m) - 1
    out: DataState = {}
    for index in np.flatnonzero(np.abs(column) > 0):
        index = int(index)
        new_mem = list(mem)
        new_mem[address] = index >> m
        out[(address, index & low, tuple(new_mem))] = complex(column[index])
    return out


def oracle_superposition(
    instance: InstanceSpec,
    terms: Sequence[tuple[complex, int]],
    result: int = 0,
    mem: Sequence[int] | None = None,
) -> DataState:
    """Expected output for an address superposition sharing one (result, mem)."""
    out: DataState = {}
    for amp, address in terms:
        for key, value in oracle_effect(instance, address, result, mem).items():
            out[key] = out.get(key, 0j) + complex(amp) * value
    return {key: value for key, value in out.items() if abs(value) > 0}


# ---------------------------------------------------------------------------
# bridging simulated states to reference keys
# ---------------------------------------------------------------------------


def extract_data_state(state: SparseState, layout: RegisterMap) -> tuple[DataState, float]:
    """Split a full sparse state into its data-register part and the
    probability weight stranded on non-zero ancillas.

    Returns ``(data, residual)`` where ``data`` maps ``(y, r, mem)`` to the
    amplitude of the component with *all* ancillas at 0.
    """
    ancilla_mask = ((1 << layout.total_qubits) - 1) ^ layout.data_mask
    # A register holds consecutive physical qubits, so its value is a shift
    # and a mask of the key.
    (a_shift, a_mask), (r_shift, r_mask), *mem_fields = [
        (span[0] if span else 0, (1 << len(span)) - 1)
        for span in (layout.address_qubits, layout.result_qubits, *layout.mem_spans)
    ]
    data: DataState = {}
    residual = 0.0
    for key, amp in state.amps.items():
        if key & ancilla_mask:
            residual += abs(amp) ** 2
            continue
        entry = (
            (key >> a_shift) & a_mask,
            (key >> r_shift) & r_mask,
            tuple([(key >> shift) & mask for shift, mask in mem_fields]),
        )
        data[entry] = amp
    return data, residual


def _data_fidelity(expected: DataState, actual: DataState) -> float:
    overlap = 0j
    for key, amp in expected.items():
        mate = actual.get(key)
        if mate is not None:
            overlap += amp.conjugate() * mate
    return abs(overlap) ** 2


def _mem_invariant(actual: DataState, mem: tuple[int, ...]) -> bool:
    """Every surviving branch leaves mem_z untouched for all z except its own
    address."""
    for (y, _r, out_mem), _amp in actual.items():
        for z_value, value in enumerate(out_mem):
            if z_value != y and value != mem[z_value]:
                return False
    return True


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class CaseResult:
    label: str
    fidelity: float
    ancilla_residual: float
    mem_invariant: bool
    passed: bool

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "fidelity": self.fidelity,
            "ancilla_residual": self.ancilla_residual,
            "mem_invariant": self.mem_invariant,
            "passed": self.passed,
        }


@dataclass
class VerificationReport:
    instance: str
    check: str
    options: dict
    fidelity_tolerance: float
    residual_tolerance: float
    cases: list[CaseResult]
    wall_seconds: float

    @property
    def passed(self) -> bool:
        return bool(self.cases) and all(case.passed for case in self.cases)

    @property
    def min_fidelity(self) -> float:
        return min(case.fidelity for case in self.cases)

    @property
    def max_residual(self) -> float:
        return max(case.ancilla_residual for case in self.cases)

    def to_dict(self) -> dict:
        return {
            "instance": self.instance,
            "check": self.check,
            "options": self.options,
            "passed": self.passed,
            "num_cases": len(self.cases),
            "min_fidelity": self.min_fidelity,
            "max_ancilla_residual": self.max_residual,
            "fidelity_tolerance": self.fidelity_tolerance,
            "residual_tolerance": self.residual_tolerance,
            "wall_seconds": self.wall_seconds,
            "cases": [case.to_dict() for case in self.cases],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.check} on {self.instance}: {len(self.cases)} case(s), "
            f"min fidelity {self.min_fidelity:.12f}, "
            f"max ancilla residual {self.max_residual:.3e}, "
            f"{self.wall_seconds:.2f}s"
        )

    def format_table(self) -> str:
        width = max(len(case.label) for case in self.cases)
        width = max(width, len("case"))
        lines = [
            f"{'case':<{width}}  {'fidelity':>18}  {'residual':>12}  {'mem':>5}  ok",
            "-" * (width + 48),
        ]
        for case in self.cases:
            lines.append(
                f"{case.label:<{width}}  {case.fidelity:>18.12f}  "
                f"{case.ancilla_residual:>12.3e}  "
                f"{'yes' if case.mem_invariant else 'NO':>5}  "
                f"{'pass' if case.passed else 'FAIL'}"
            )
        lines.append(self.summary())
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------


def _case_label(instance: InstanceSpec, address: int, result: int, mem: tuple[int, ...]) -> str:
    label = f"y={label_of(address, instance.n)} r={label_of(result, instance.m)}"
    if any(instance.k):
        mem_bits = ",".join(
            format(value, f"0{width}b") if width else "-"
            for value, width in zip(mem, instance.k)
        )
        label += f" mem={mem_bits}"
    return label


def _random_assignment(instance: InstanceSpec, rng: np.random.Generator) -> tuple[int, tuple[int, ...]]:
    """A seeded (result, mem) draw: the result first, then each leaf's memory."""
    result = int(rng.integers(0, 1 << instance.m))
    return result, tuple(int(rng.integers(0, 1 << width)) for width in instance.k)


def _generate_cases(
    instance: InstanceSpec, assignments: int, seed: int
) -> list[tuple[int, int, tuple[int, ...]]]:
    """Exhaustive addresses; exhaustive (result, mem) when that space is
    small, otherwise ``assignments`` seeded samples per address."""
    rng = np.random.default_rng(seed)
    total_mem_bits = sum(instance.k)
    combos = 1 << (instance.m + total_mem_bits)
    cases = []
    for address in range(1 << instance.n):
        assigned: list[tuple[int, tuple[int, ...]]] = []
        if combos <= max(assignments, 64):
            for packed in range(combos):
                result = packed & ((1 << instance.m) - 1)
                rest = packed >> instance.m
                mem = []
                for width in instance.k:
                    mem.append(rest & ((1 << width) - 1))
                    rest >>= width
                assigned.append((result, tuple(mem)))
        while len(assigned) < assignments:
            assigned.append(_random_assignment(instance, rng))
        cases.extend((address, result, mem) for result, mem in assigned)
    return cases


def _basis(circuit: Circuit, address: int, result: int, mem: tuple[int, ...]) -> SparseState:
    return basis_state(circuit.layout, address, result, mem)


def _simulate(
    circuit: Circuit, initials: Iterable[SparseState], unitaries: Mapping[str, UnitarySpec]
) -> Iterator[tuple[DataState, float]]:
    """Run the initial states through ``circuit`` as one batch; yield each
    one's data part and residual, in order."""
    for final in run_batch(initials, circuit, unitaries):
        yield extract_data_state(final, circuit.layout)


def _verify(
    instance: InstanceSpec,
    check: str,
    options: dict,
    runs: Iterable[tuple[Circuit, Iterable[SparseState], Iterable[tuple]]],
    unitaries: Mapping[str, UnitarySpec],
    fidelity_tolerance: float,
    residual_tolerance: float,
    start: float,
) -> VerificationReport:
    """The case-running and judging core shared by every checker.

    Each run ``(circuit, initials, expectations)`` sends its initial states
    through ``circuit`` as one batch.  Its cases are judged in order, each as
    soon as its output is extracted, against the matching
    ``(label, (expected, expected_residual), mem)`` of ``expectations``; the
    residual is the larger of the run's and the reference's (0.0 for the
    oracle). ``start`` is the checker's entry time.
    """
    results = []
    for circuit, initials, expectations in runs:
        outputs = _simulate(circuit, initials, unitaries)
        for (label, (expected, expected_residual), mem), (actual, residual) in zip(
            expectations, outputs
        ):
            residual = max(expected_residual, residual)
            fidelity = _data_fidelity(expected, actual)
            invariant = _mem_invariant(actual, mem)
            passed = (
                fidelity >= 1.0 - fidelity_tolerance
                and residual <= residual_tolerance
                and invariant
            )
            results.append(CaseResult(label, fidelity, residual, invariant, passed))
    if not results:
        raise InvalidParameterError(f"the {check} check of {instance.describe()} has no cases")
    return VerificationReport(
        instance=instance.describe(),
        check=check,
        options=options,
        fidelity_tolerance=fidelity_tolerance,
        residual_tolerance=residual_tolerance,
        cases=results,
        wall_seconds=time.perf_counter() - start,
    )


def _variant_options(circuit: Circuit) -> dict:
    return {key: circuit.metadata.get(key) for key in ("variant", "fanout_block")}


def check_proposition(
    instance: InstanceSpec,
    options: SynthesisOptions | None = None,
    *,
    assignments: int = 8,
    seed: int = DEFAULT_SEED,
    fidelity_tolerance: float = FIDELITY_TOL,
    residual_tolerance: float = RESIDUAL_TOL,
    cases: Sequence[tuple[int, int, Sequence[int]]] | None = None,
    circuit: Circuit | None = None,
    circuit_unitaries: Mapping[str, UnitarySpec] | None = None,
) -> VerificationReport:
    """Verify the access circuit against the reference semantics, case by case.

    Addresses are covered exhaustively; each gets either every (result, mem)
    assignment (when that space is small) or ``assignments`` seeded samples.
    A case passes when the data-register fidelity reaches
    ``1 - fidelity_tolerance``, the ancilla residual stays within
    ``residual_tolerance``, and no unselected leaf's memory changed.

    By default the circuit is synthesized from the instance with ``options``.
    Passing ``circuit`` instead checks an existing circuit (e.g. one loaded
    from a document) against this instance's semantics; ``circuit_unitaries``
    then supplies the matrices its opaque blocks were serialized with (the
    instance's own matrices are used when omitted).
    """
    options = options or SynthesisOptions()
    start = time.perf_counter()
    sizes = (instance.n, instance.m, tuple(instance.k))
    if circuit is None:
        circuit = synth_access(instance.layout(), instance.unitaries, options)
    elif (circuit.layout.n, circuit.layout.m, circuit.layout.k) != sizes:
        raise InvalidParameterError(
            f"circuit layout {circuit.layout!r} does not match the instance sizes"
        )
    sim_unitaries = circuit_unitaries if circuit_unitaries is not None else instance.unitaries
    case_list = (
        [(y, r, _normalize_mem(instance, mem)) for y, r, mem in cases]
        if cases is not None
        else _generate_cases(instance, assignments, seed)
    )
    initials = (_basis(circuit, *case) for case in case_list)
    expectations = (
        (_case_label(instance, *case), (oracle_effect(instance, *case), 0.0), case[2])
        for case in case_list
    )
    return _verify(instance, "proposition", _variant_options(circuit),
                   [(circuit, initials, expectations)],
                   sim_unitaries, fidelity_tolerance, residual_tolerance, start)


def check_linearity(
    instance: InstanceSpec,
    options: SynthesisOptions | None = None,
    *,
    num_cases: int = 20,
    seed: int = DEFAULT_SEED,
    fidelity_tolerance: float = FIDELITY_TOL,
    residual_tolerance: float = RESIDUAL_TOL,
) -> VerificationReport:
    """Verify address superpositions: two-term combinations with random
    amplitudes, plus one uniform superposition over every address."""
    options = options or SynthesisOptions()
    start = time.perf_counter()
    circuit = synth_access(instance.layout(), instance.unitaries, options)
    rng = np.random.default_rng(seed)
    num_addresses = 1 << instance.n

    # Every instance has n >= 1, so there are always two distinct addresses.
    superpositions: list[tuple[str, list[tuple[complex, int]], int, tuple[int, ...]]] = []
    for _ in range(num_cases):
        pair = rng.choice(num_addresses, size=2, replace=False)
        raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        amps = raw / np.linalg.norm(raw)
        result, mem = _random_assignment(instance, rng)
        terms = [(complex(a), int(y)) for a, y in zip(amps, pair)]
        label = "+".join(f"y={label_of(y, instance.n)}" for _, y in terms)
        superpositions.append((f"two-term {label}", terms, result, mem))
    uniform_amp = complex(1 / np.sqrt(num_addresses))
    uniform_terms = [(uniform_amp, y) for y in range(num_addresses)]
    result, mem = _random_assignment(instance, rng)
    superpositions.append(("uniform over addresses", uniform_terms, result, mem))
    initials = (
        superpose([(amp, _basis(circuit, y, result, mem)) for amp, y in terms])
        for _, terms, result, mem in superpositions
    )
    expectations = (
        (label, (oracle_superposition(instance, terms, result, mem), 0.0), mem)
        for label, terms, result, mem in superpositions
    )
    return _verify(instance, "linearity", _variant_options(circuit),
                   [(circuit, initials, expectations)],
                   instance.unitaries, fidelity_tolerance, residual_tolerance, start)


def check_variant_agreement(
    instance: InstanceSpec,
    *,
    block_sizes: Sequence[int] | None = None,
    assignments: int = 4,
    seed: int = DEFAULT_SEED,
    fidelity_tolerance: float = FIDELITY_TOL,
    residual_tolerance: float = RESIDUAL_TOL,
) -> VerificationReport:
    """Check that the fan-out variant agrees with the sequential circuit on
    the data registers (and parks its own scratch copies back at 0)."""
    start = time.perf_counter()
    layout = instance.layout()
    sequential = synth_access(layout, instance.unitaries, SynthesisOptions())
    if block_sizes is None:
        block_sizes = sorted({SynthesisOptions().resolved_block(instance.m), 1, instance.m})
    case_list = _generate_cases(instance, assignments, seed)
    initials = (_basis(sequential, *case) for case in case_list)
    references = list(_simulate(sequential, initials, instance.unitaries))

    def runs():
        for s in block_sizes:
            fanout = synth_access(
                layout,
                instance.unitaries,
                SynthesisOptions(variant="fanout", fanout_block=s),
            )
            initials = (_basis(fanout, *case) for case in case_list)
            expectations = (
                (f"s={s} " + _case_label(instance, *case), reference, case[2])
                for case, reference in zip(case_list, references)
            )
            yield fanout, initials, expectations

    return _verify(instance, "variant_agreement", {"block_sizes": list(block_sizes)}, runs(),
                   instance.unitaries, fidelity_tolerance, residual_tolerance, start)
