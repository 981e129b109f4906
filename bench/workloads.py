"""The four benchmark workloads: the qramforge command lines they run and the
checks every output must pass.

Importing this module needs only the standard library, so ``run.py`` can
size and guard a workload before any numpy or qramforge import.  Checks that
need qramforge import it inside the method that runs in the workload process.

Each workload is a sequence of CLI operations (one ``qramforge.cli.main``
call each) repeated as timed passes.  ``prepare`` computes the expected
outputs before the first pass; ``check_pass`` returns one verdict per
operation; ``check_run`` runs once per process, outside the timed passes.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
import re
from pathlib import Path

#: Budget for the dense payload matrices a single command may build:
#: ``2**n * 4**(m + k) * 16`` bytes of complex128.  The JSON text of a
#: document that embeds them is roughly five times larger again.
PAYLOAD_BUDGET_BYTES = 16 << 20

#: The program's own default payload seed; digests below are pinned for it.
DEFAULT_SEED = 7

#: Resource table rows that are not closed-form: (n, m) -> variant ->
#: (depth, width, gates), from ``qramforge analyze --variant both``.
PINNED_RESOURCES = {
    (11, 4): {"sequential": (83, 2142, 55250), "fanout": (87, 3186, 88002)},
    (3, 4): {"sequential": (35, 11, 186), "fanout": (39, 18, 298)},
}

#: sha256 of the ``synth`` output, (n, m) -> digest.  QASM carries neither the
#: table nor the matrices, so its digest holds for every seed; the JSON
#: document embeds both and is pinned for :data:`DEFAULT_SEED` only.
PINNED_QASM_SHA256 = {
    (9, 4): "fb17796f49e07b6334848e33f66550c1b3dad823dff4ce4b5f54b8aae589fdeb",
    (2, 2): "1c5a1d1849c882ac6c5c907eb7cb36d7084621f3cd3cd02551d2ac479d944469",
}
PINNED_JSON_SHA256 = {
    (9, 4): "a201e8bede82924af5291749f425a8a8921978aaedee61fb638fc4d51c51cc23",
    (2, 2): "da5c9a507f417b14a8c7bb24ea626a71297955346bb743a5bcbad3223374e55d",
}

ANALYZE_COLUMNS = (
    "variant", "n", "m", "k_total", "life", "adr", "res", "mem", "copy",
    "ancillas", "total_qubits", "depth", "width", "gates",
)


#: Tracer boundaries (see ``tracer.py``) each workload calls; the rest must
#: stay idle.  The tracer self-test holds the workloads to this.
SYNTHESIS_LAYERS = frozenset({
    "cli.main", "tree.register_map", "synth.synth_access", "synth.synth_down",
    "synth.synth_run", "ir.append", "ir.adjoint", "ir.concat",
})
SIMULATION_LAYERS = frozenset({
    "sim.run_circuit", "sim.basis_state", "sim.apply.x", "sim.apply.cnot",
    "sim.apply.toffoli", "sim.apply.fredkin", "sim.apply.opaque",
})
VERIFIER_LAYERS = frozenset({"verifier.check", "verifier.extract_data_state", "verifier.oracle"})
FORMATS_LAYERS = frozenset({
    "formats.emit_json", "formats.emit_qasm", "formats.parse_document", "formats.serialize_state",
})


def payload_bytes(argv: list[str]) -> int:
    """Bytes of the payload matrices the command ``argv`` builds (0 for
    commands that build no instance)."""
    if argv[0] not in ("synth", "verify"):
        return 0
    opts = dict(zip(argv[1::2], argv[2::2]))
    family, n, m = opts["--family"], int(opts["--n"]), int(opts["--m"])
    k = {"qram": m, "table_lookup": 0, "lookup": 0, "rotation": m}.get(family)
    if k is None:
        k = max(int(v) for v in opts.get("--k", "0").split(","))
    if family == "rotation":
        m = 1
    return (1 << n) * 4 ** (m + k) * 16


def closed_form_counts(n: int, m: int, variant: str) -> dict[str, int]:
    """The qubit columns of the resource table, from the layout's closed form
    (see the register description in ``qramforge.tree``)."""
    nodes = (1 << (n + 1)) - 1
    copies = 0
    if variant == "fanout":
        s = math.isqrt(m)
        s += s * s < m
        copies = -(-m // s)
        copies = copies if copies >= 2 else 0
    counts = {
        "life": nodes,
        "adr": (1 << n) - n - 1,
        "res": m * (nodes - 1),
        "mem": 0,
        "copy": copies * (nodes - 1),
    }
    counts["total_qubits"] = n + m + sum(counts.values())
    counts["ancillas"] = counts["total_qubits"] - n - m
    counts["k_total"] = 0
    return counts


def _summary_cases(stdout: str, check: str) -> int | None:
    """Case count from the closing ``PASS <check> on ...: N case(s)`` line."""
    lines = stdout.strip().splitlines()
    match = re.match(rf"PASS {check} on .*: (\d+) case\(s\)", lines[-1]) if lines else None
    return int(match.group(1)) if match else None


class Workload:
    name = ""
    why = ""
    layers = frozenset()

    def commands(self, seed: int, workdir: Path) -> list[list[str]]:
        """The argv of each operation of one pass; called before ``prepare``."""
        raise NotImplementedError

    def prepare(self, seed: int, workdir: Path) -> None:
        """Compute expected outputs; runs in the workload process, untimed."""

    def check_pass(self, outcomes: list[tuple[int, str]]) -> list[bool]:
        """One verdict per operation, from its (exit code, stdout)."""
        raise NotImplementedError

    def check_run(self) -> list[bool]:
        """Verdicts of once-per-run operations, after the timed passes."""
        return []


class ResourceEstimate(Workload):
    name = "resource-estimate"
    why = ("structural synthesis only: tree, synth and ir on both hand-down "
           "variants; sim, verifier and formats stay idle")
    layers = SYNTHESIS_LAYERS

    def __init__(self, n: int = 11, m: int = 4):
        self.n, self.m = n, m

    def commands(self, seed, workdir):
        # analyze builds no payloads, so the seed has nothing to vary here.
        return [["analyze", "--n", str(self.n), "--m", str(self.m), "--variant", "both", "--csv"]]

    def check_pass(self, outcomes):
        code, stdout = outcomes[0]
        rows = list(csv.DictReader(io.StringIO(stdout)))
        ok = code == 0 and len(rows) == 2 and tuple(rows[0]) == ANALYZE_COLUMNS
        pinned = PINNED_RESOURCES.get((self.n, self.m))
        for row, variant in zip(rows, ("sequential", "fanout")):
            expected = closed_form_counts(self.n, self.m, variant)
            expected.update(variant=variant, n=self.n, m=self.m)
            if pinned is not None:
                expected.update(zip(("depth", "width", "gates"), pinned[variant]))
            ok = ok and all(str(value) == row[key] for key, value in expected.items())
        return [ok and pinned is not None]


class VerifyBasis(Workload):
    name = "verify-basis"
    why = ("exhaustive basis-state verification: 1024 tiny simulator runs "
           "with support 1, so per-case sim overhead dominates")
    layers = SYNTHESIS_LAYERS | SIMULATION_LAYERS | VERIFIER_LAYERS

    def __init__(self, n: int = 4, m: int = 6):
        self.n, self.m = n, m

    def commands(self, seed, workdir):
        return [["verify", "--family", "table_lookup", "--n", str(self.n), "--m", str(self.m),
                 "--exhaustive", "--check", "proposition", "--seed", str(seed)]]

    def check_pass(self, outcomes):
        code, stdout = outcomes[0]
        return [code == 0 and _summary_cases(stdout, "proposition") == 1 << (self.n + self.m)]


class VerifySuperposed(Workload):
    name = "verify-superposed"
    why = ("address superpositions over Haar payloads: few states with wide "
           "support and dense opaque blocks, the opposite sim regime")
    layers = SYNTHESIS_LAYERS | SIMULATION_LAYERS | VERIFIER_LAYERS | {"sim.superpose"}

    def __init__(self, n: int = 7, m: int = 2, k: int = 1, assignments: int = 20):
        self.n, self.m, self.k, self.assignments = n, m, k, assignments

    def commands(self, seed, workdir):
        return [["verify", "--family", "random", "--n", str(self.n), "--m", str(self.m),
                 "--k", str(self.k), "--check", "linearity",
                 "--assignments", str(self.assignments), "--seed", str(seed)]]

    def check_pass(self, outcomes):
        code, stdout = outcomes[0]
        # linearity runs the sampled two-term cases plus one uniform superposition
        return [code == 0 and _summary_cases(stdout, "linearity") == self.assignments + 1]


class ExportRoundtrip(Workload):
    name = "export-roundtrip"
    why = ("the only workload that runs formats: a 10 MB JSON document and "
           "QASM are written, then read back by simulate")
    layers = SYNTHESIS_LAYERS | SIMULATION_LAYERS | FORMATS_LAYERS

    def __init__(self, n: int = 9, m: int = 4):
        self.n, self.m = n, m

    def commands(self, seed, workdir):
        self.doc, self.qasm = workdir / "doc.json", workdir / "doc.qasm"
        rng = random.Random(seed)
        self.address, self.result = rng.randrange(1 << self.n), rng.randrange(1 << self.m)
        synth = ["synth", "--family", "table_lookup", "--n", str(self.n), "--m", str(self.m),
                 "--seed", str(seed)]
        return [
            synth + ["--include-matrices", "--out", str(self.doc)],
            synth + ["--format", "qasm", "--out", str(self.qasm)],
            ["simulate", "--circuit", str(self.doc),
             "--address", str(self.address), "--result", str(self.result)],
        ]

    def prepare(self, seed, workdir):
        from qramforge import allocate_registers, build_table_lookup_instance, oracle_effect

        self.seed = seed
        layout = allocate_registers(self.n, self.m)
        instance = build_table_lookup_instance(self.n, self.m, seed=seed)
        self.expected_state = {}
        for (y, r, _mem), amp in oracle_effect(instance, self.address, self.result).items():
            key = sum(1 << q for j, q in enumerate(layout.address_qubits) if y >> j & 1)
            key |= sum(1 << q for j, q in enumerate(layout.result_qubits) if r >> j & 1)
            self.expected_state[key] = amp
        self.digests = None

    def _state_matches(self, stdout: str) -> bool:
        terms = json.loads(stdout)["terms"]
        got = {int(t["bits"], 2): complex(t["re"], t["im"]) for t in terms}
        return got.keys() == self.expected_state.keys() and all(
            abs(got[key] - amp) <= 1e-12 for key, amp in self.expected_state.items()
        )

    def check_pass(self, outcomes):
        digests = tuple(
            hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
            for path in (self.doc, self.qasm)
        )
        if self.digests is None:
            self.digests = digests
        pinned_json = PINNED_JSON_SHA256.get((self.n, self.m)) if self.seed == DEFAULT_SEED else None
        json_ok = digests[0] == self.digests[0] and pinned_json in (None, digests[0])
        qasm_ok = digests[1] == PINNED_QASM_SHA256.get((self.n, self.m))
        (json_code, _), (qasm_code, _), (sim_code, sim_out) = outcomes
        return [
            json_code == 0 and digests[0] is not None and json_ok,
            qasm_code == 0 and qasm_ok,
            sim_code == 0 and self._state_matches(sim_out),
        ]

    def check_run(self):
        """Parsing the document and emitting it again gives the same bytes."""
        from qramforge import emit_json, parse_document

        text = self.doc.read_text()
        doc = parse_document(text)
        return [emit_json(doc.circuit, doc.unitaries) == text]


WORKLOADS = {
    w.name: w
    for w in (ResourceEstimate(), VerifyBasis(), VerifySuperposed(), ExportRoundtrip())
}

#: Sizes small enough for the tracer self-test (a fraction of a second each).
TINY_WORKLOADS = {
    w.name: w
    for w in (ResourceEstimate(3, 4), VerifyBasis(2, 2), VerifySuperposed(3, 1, 1, 3),
              ExportRoundtrip(2, 2))
}
