"""Layer tracing for the benchmark, from outside the program.

:class:`Tracer` replaces qramforge's public functions at each module boundary
with timing wrappers, in every ``qramforge`` module namespace that holds
them, so calls are caught where the caller looks them up
(``qramforge.verifier.run_circuit``, ``qramforge.sim.apply_gate``,
``Circuit.append``, ...).  Nothing under ``src/`` changes; :meth:`uninstall`
puts the originals back.

Two kinds of boundary:

* a *span* keeps calls, total time (outermost calls only, so recursion is
  not counted twice) and self time (duration minus the time of the spans
  and hot calls made inside it);
* a *hot* boundary (``Circuit.append`` and ``apply_gate``, which run hundreds
  of thousands of times a pass) keeps only aggregate counters, adds its time
  to the enclosing span's children and allocates nothing per call.

Bookkeeping done after a call (result hooks, support counting) is charged to
no layer: it is added to the enclosing span's children along with the call.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

SPAN_LAYERS = (
    "cli.main",
    "tree.register_map",
    "synth.synth_access",
    "synth.synth_down",
    "synth.synth_run",
    "ir.adjoint",
    "ir.concat",
    "sim.run_circuit",
    "sim.basis_state",
    "sim.superpose",
    "verifier.check",
    "verifier.extract_data_state",
    "verifier.oracle",
    "formats.emit_json",
    "formats.emit_qasm",
    "formats.parse_document",
    "formats.serialize_state",
)
GATE_KINDS = {"x": "x", "cx": "cnot", "ccx": "toffoli", "cswap": "fredkin", "cu": "opaque"}
HOT_LAYERS = ("ir.append",) + tuple(f"sim.apply.{k}" for k in GATE_KINDS.values())
#: Every boundary the tracer wraps, in report order.
BOUNDARIES = SPAN_LAYERS + HOT_LAYERS

#: The per-layer metrics, name -> unit.  Percentiles need at least ten
#: samples beyond them, so ``p99_ms`` reads 0 below 1000 calls.
LAYER_METRICS = {
    "cli.main.self_s": "s",
    "tree.register_map.calls": "count",
    "tree.register_map.s": "s",
    "tree.qubits": "count",
    "synth.synth_access.self_s": "s",
    "synth.synth_down.s": "s",
    "synth.synth_down.self_s": "s",
    "synth.synth_run.s": "s",
    "synth.gates": "count",
    "synth.depth": "count",
    "ir.append.calls": "count",
    "ir.append.s": "s",
    "ir.adjoint.s": "s",
    "ir.concat.s": "s",
    "sim.run_circuit.calls": "count",
    "sim.run_circuit.s": "s",
    "sim.run_circuit.self_s": "s",
    "sim.run_circuit.p50_ms": "ms",
    "sim.run_circuit.p99_ms": "ms",
    **{f"sim.apply.{k}.{f}": u for k in GATE_KINDS.values() for f, u in (("calls", "count"), ("s", "s"))},
    "sim.basis_state.s": "s",
    "sim.superpose.s": "s",
    "sim.peak_support": "count",
    "sim.amplitude_updates": "count",
    "sim.live_ratio": "ratio",
    "verifier.check.self_s": "s",
    "verifier.extract_data_state.s": "s",
    "verifier.oracle.s": "s",
    "verifier.cases": "count",
    "verifier.cases_passed": "count",
    "formats.emit_json.s": "s",
    "formats.emit_qasm.s": "s",
    "formats.parse_document.s": "s",
    "formats.serialize_state.s": "s",
    "formats.bytes_out": "bytes",
    "formats.bytes_in": "bytes",
    "trace.overhead_s": "s",
}


class _Span:
    __slots__ = ("calls", "total", "self_total", "active", "samples")

    def __init__(self, keep_samples: bool):
        self.calls = 0
        self.total = 0.0
        self.self_total = 0.0
        self.active = 0
        self.samples = [] if keep_samples else None


class Tracer:
    """Counters for one traced pass.  Create, :meth:`install`, run,
    :meth:`uninstall`, then read :meth:`metrics`."""

    def __init__(self):
        self.spans = {name: _Span(name == "sim.run_circuit") for name in SPAN_LAYERS}
        # hot boundary -> [calls, seconds]
        self.hot = {name: [0, 0.0] for name in HOT_LAYERS}
        # one [children seconds] cell per open span; the bottom cell catches
        # calls made outside any span
        self.stack = [[0.0]]
        self.gauges = {"tree.qubits": 0, "synth.gates": 0, "synth.depth": 0,
                       "sim.peak_support": 0, "sim.amplitude_updates": 0, "sim.live": 0,
                       "verifier.cases": 0, "verifier.cases_passed": 0,
                       "formats.bytes_out": 0, "formats.bytes_in": 0}
        self._undo = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, hook=None):
        span, stack, clock = self.spans[name], self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            span.active += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                span.active -= 1
                stack.pop()
                span.calls += 1
                span.self_total += elapsed - cell[0]
                if not span.active:
                    span.total += elapsed
                if span.samples is not None:
                    span.samples.append(elapsed)
            if hook is not None:
                hook(args, result)
            stack[-1][0] += clock() - start
            return result

        return wrapper

    def _append(self, fn):
        counter, stack, clock = self.hot["ir.append"], self.stack, time.perf_counter

        @functools.wraps(fn)
        def append(circuit, gate, policy="asap"):
            start = clock()
            result = fn(circuit, gate, policy)
            elapsed = clock() - start
            counter[0] += 1
            counter[1] += elapsed
            stack[-1][0] += elapsed
            return result

        return append

    def _apply_gate(self, fn):
        by_kind = {kind: self.hot[f"sim.apply.{name}"] for kind, name in GATE_KINDS.items()}
        gauges, stack, clock = self.gauges, self.stack, time.perf_counter

        @functools.wraps(fn)
        def apply_gate(state, gate, unitaries=None):
            start = clock()
            out = fn(state, gate, unitaries)
            elapsed = clock() - start
            counter = by_kind[gate.kind.value]
            counter[0] += 1
            counter[1] += elapsed
            gauges["sim.amplitude_updates"] += len(state.amps)
            if len(out.amps) > gauges["sim.peak_support"]:
                gauges["sim.peak_support"] = len(out.amps)
            if out.amps != state.amps:
                gauges["sim.live"] += 1
            stack[-1][0] += clock() - start
            return out

        return apply_gate

    # -- result hooks ------------------------------------------------------

    def _count_qubits(self, args, _result):
        layout = args[0]
        self.gauges["tree.qubits"] = max(self.gauges["tree.qubits"], layout.total_qubits)

    def _count_synthesis(self, _args, circuit):
        self.gauges["synth.gates"] += circuit.num_gates
        self.gauges["synth.depth"] = max(self.gauges["synth.depth"], circuit.depth)

    def _count_cases(self, _args, report):
        self.gauges["verifier.cases"] += len(report.cases)
        self.gauges["verifier.cases_passed"] += sum(case.passed for case in report.cases)

    # JSON and QASM text is ASCII, so characters are bytes.
    def _count_bytes_out(self, _args, text):
        self.gauges["formats.bytes_out"] += len(text)

    def _count_bytes_in(self, args, _result):
        self.gauges["formats.bytes_in"] += len(args[0])

    # -- patching ------------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        """Rebind ``original`` to ``replacement`` in every qramforge module
        namespace that imported it."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "qramforge" or module_name.startswith("qramforge.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def _replace_method(self, cls, attr, replacement):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self):
        # imported here so that run.py can read LAYER_METRICS without numpy
        from qramforge import cli, formats, ir, sim, synth, tree, verifier

        functions = [
            (cli.main, "cli.main", None),
            (synth.synth_access, "synth.synth_access", self._count_synthesis),
            (synth.synth_down, "synth.synth_down", None),
            (synth.synth_run, "synth.synth_run", None),
            (ir.concat, "ir.concat", None),
            (sim.run_circuit, "sim.run_circuit", None),
            (sim.basis_state, "sim.basis_state", None),
            (sim.superpose, "sim.superpose", None),
            (verifier.check_proposition, "verifier.check", self._count_cases),
            (verifier.check_linearity, "verifier.check", self._count_cases),
            (verifier.check_variant_agreement, "verifier.check", self._count_cases),
            (verifier.extract_data_state, "verifier.extract_data_state", None),
            (verifier.oracle_effect, "verifier.oracle", None),
            (verifier.oracle_superposition, "verifier.oracle", None),
            (formats.emit_json, "formats.emit_json", self._count_bytes_out),
            (formats.emit_qasm, "formats.emit_qasm", self._count_bytes_out),
            (formats.parse_document, "formats.parse_document", self._count_bytes_in),
            (formats.serialize_state, "formats.serialize_state", self._count_bytes_out),
        ]
        for fn, name, hook in functions:
            self._replace_everywhere(fn, self._span(name, fn, hook))
        self._replace_everywhere(sim.apply_gate, self._apply_gate(sim.apply_gate))
        self._replace_method(tree.RegisterMap, "__init__",
                             self._span("tree.register_map", tree.RegisterMap.__init__,
                                        self._count_qubits))
        self._replace_method(ir.Circuit, "append", self._append(ir.Circuit.append))
        self._replace_method(ir.Circuit, "adjoint", self._span("ir.adjoint", ir.Circuit.adjoint))
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def calls(self) -> dict[str, int]:
        """Calls per boundary, every boundary included."""
        out = {name: span.calls for name, span in self.spans.items()}
        out.update((name, counter[0]) for name, counter in self.hot.items())
        return out

    def metrics(self) -> dict[str, float]:
        """Every counter of this pass: ``.calls``, ``.s`` and ``.self_s`` of
        each span, ``.calls`` and ``.s`` of each hot boundary, and the gauges.
        This covers :data:`LAYER_METRICS` except ``trace.overhead_s``, which
        needs an untraced pass to compare with."""
        out = {}
        for name, span in self.spans.items():
            out[f"{name}.calls"] = span.calls
            out[f"{name}.s"] = span.total
            out[f"{name}.self_s"] = span.self_total
        for name, (calls, seconds) in self.hot.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = seconds
        samples = self.spans["sim.run_circuit"].samples
        out["sim.run_circuit.p50_ms"] = statistics.median(samples) * 1e3 if samples else 0.0
        out["sim.run_circuit.p99_ms"] = (
            statistics.quantiles(samples, n=100)[98] * 1e3 if len(samples) >= 1000 else 0.0
        )
        applications = sum(self.hot[f"sim.apply.{k}"][0] for k in GATE_KINDS.values())
        out["sim.live_ratio"] = self.gauges["sim.live"] / applications if applications else 0.0
        out.update(self.gauges)
        return out
