"""Command-line driver.

Four subcommands:

``synth``
    Build an instance family's access circuit (or one phase of it) and emit
    JSON or QASM.
``analyze``
    Print the resource table — ancilla breakdown, depth, width, gate count —
    for the chosen sizes, for one or both hand-down variants.
``simulate``
    Load a circuit document, run a basis state through it, print the final
    sparse state.
``verify``
    Check an instance's circuit (freshly synthesized, or loaded from a
    document) against the reference semantics and report per-case fidelity.

Exit status: 0 on success (and on a passing verification), 1 when a
verification ran to completion and failed, 2 on usage, schema, or any other
qramforge error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .errors import ConfigurationError, InvalidParameterError, QramForgeError, SchemaError
from .formats import _expect_int, _json_parts, emit_qasm, parse_document, serialize_state
from .sim import basis_state, run_circuit
from .synth import SynthesisOptions, synth_access, synth_down, synth_run, synth_up
from .tree import allocate_registers
from .verifier import (
    DEFAULT_SEED,
    FIDELITY_TOL,
    INSTANCE_FAMILIES,
    RESIDUAL_TOL,
    build_instance,
    check_linearity,
    check_proposition,
    check_variant_agreement,
)


def _parse_k(text: str):
    parts = text.split(",")
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise InvalidParameterError(
            f"--k expects an integer or a comma-separated list, got {text!r}"
        ) from None
    return values[0] if len(values) == 1 else values


def _parse_table(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",")]
    except ValueError:
        raise InvalidParameterError(
            f"--table expects comma-separated integers, got {text!r}"
        ) from None


def _parse_register_value(text: str, width: int, what: str) -> int | str:
    """Bit string when the token's length matches the register width,
    decimal integer otherwise."""
    if len(text) == width and set(text) <= {"0", "1"}:
        return text
    try:
        return int(text)
    except ValueError:
        raise InvalidParameterError(f"{what}: cannot interpret {text!r}") from None


def _write_output(parts: list[str], out: str | None) -> None:
    """Write the text ``parts`` in order, never joined: to the file ``out``
    as UTF-8, else to stdout, ended by a newline as ``print`` ends a text
    that has none."""
    if out:
        with open(out, "wb") as file:
            for part in parts:
                file.write(part.encode())
        return
    for part in parts:
        sys.stdout.write(part)
    if not (parts and parts[-1].endswith("\n")):
        sys.stdout.write("\n")


def _add_instance_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, required=True, help="address width")
    sub.add_argument(
        "--m",
        type=int,
        required=True,
        help="result width (for the rotation family: the stored fraction width)",
    )
    sub.add_argument(
        "--family",
        choices=INSTANCE_FAMILIES + ("lookup",),
        required=True,
        help="instance family (lookup is shorthand for table_lookup)",
    )
    sub.add_argument("--k", type=_parse_k, default=None, help="per-leaf memory widths (random family)")
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed for generated payloads")
    sub.add_argument("--table", type=_parse_table, default=None, help="lookup table entries")


def _add_variant_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--variant",
        choices=("sequential", "fanout"),
        default=None,
        help="hand-down style (default sequential)",
    )
    sub.add_argument(
        "--fanout-block",
        "--s",
        type=int,
        default=None,
        metavar="S",
        help="fan-out block size (default ceil(sqrt(m)))",
    )
    sub.add_argument(
        "--no-preparation",
        action="store_true",
        help="omit the opening/closing X on the root life flag",
    )


def _options_from(args: argparse.Namespace) -> SynthesisOptions:
    return SynthesisOptions(
        variant=args.variant or "sequential",
        fanout_block=args.fanout_block,
        include_preparation=not args.no_preparation,
    )


def _instance_from(args: argparse.Namespace):
    family = "table_lookup" if args.family == "lookup" else args.family
    return build_instance(
        family, args.n, args.m, args.k, seed=args.seed, table=args.table
    )


def _cmd_synth(args: argparse.Namespace) -> int:
    instance = _instance_from(args)
    options = _options_from(args)
    layout = instance.layout()
    if args.phase == "access":
        circuit = synth_access(layout, instance.unitaries, options)
    elif args.phase == "down":
        circuit = synth_down(layout, options)
    elif args.phase == "up":
        circuit = synth_up(layout, options)
    else:
        circuit = synth_run(layout, instance.unitaries)
    circuit.metadata["instance"] = {"family": instance.family, **instance.params}
    if args.format == "qasm":
        parts = [emit_qasm(circuit)]
    else:
        parts = _json_parts(circuit, instance.unitaries if args.include_matrices else None)
    _write_output(parts, args.out)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    k = 0 if args.k is None else args.k
    variants = ("sequential", "fanout") if args.variant == "both" else (args.variant,)
    columns = (
        "variant", "n", "m", "k_total", "life", "adr", "res", "mem", "copy",
        "ancillas", "total_qubits", "depth", "width", "gates",
    )
    table = [columns]
    for variant in variants:
        options = SynthesisOptions(
            variant=variant,
            fanout_block=args.fanout_block if variant == "fanout" else None,
        )
        layout = allocate_registers(args.n, args.m, k)
        circuit = synth_access(layout, None, options, declared_depths=args.max_u)
        counts = circuit.layout.counts()
        table.append([str(value) for value in (
            variant, args.n, args.m, counts["mem"], counts["life"], counts["adr"], counts["res"],
            counts["mem"], counts.get("copy", 0), counts["total"] - args.n - args.m, counts["total"],
            circuit.depth, circuit.width, circuit.num_gates,
        )])
    if args.csv:
        lines = [",".join(row) for row in table]
    else:
        widths = [max(map(len, column)) for column in zip(*table)]
        lines = ["  ".join(f"{cell:>{width}}" for cell, width in zip(row, widths)) for row in table]
    _write_output(["\n".join(lines) + "\n"], args.out)
    return 0


def _rebuild_unitaries(doc):
    if doc.unitaries is not None:
        return doc.unitaries
    params = doc.parameters.get("instance")
    if not params:
        raise ConfigurationError(
            "document embeds no matrices and names no instance; "
            "re-synthesize with --include-matrices or pass instance parameters"
        )
    table = params.get("table")
    if not (table is None or isinstance(table, list) and set(map(type, table)) <= {int}):
        raise SchemaError("parameters.instance.table: expected a list of integers")
    layout = doc.circuit.layout
    family = params.get("family")
    m = _expect_int(params.get("fraction_bits"), "parameters.instance.fraction_bits", 1) if family == "rotation" else layout.m
    k = None if family in ("qram", "table_lookup", "rotation") else list(layout.k)
    seed = _expect_int(params.get("seed", DEFAULT_SEED), "parameters.instance.seed", 0)
    return build_instance(family, layout.n, m, k, seed=seed, table=table).unitaries


def _cmd_simulate(args: argparse.Namespace) -> int:
    doc = parse_document(Path(args.circuit).read_bytes())
    circuit = doc.circuit
    layout = circuit.layout
    needs_matrices = "cu" in circuit.gate_counts()
    unitaries = _rebuild_unitaries(doc) if needs_matrices else doc.unitaries
    address = _parse_register_value(args.address, layout.n, "--address")
    result = _parse_register_value(args.result, layout.m, "--result")
    mem = None
    if args.mem is not None:
        tokens = args.mem.split(",")
        if len(tokens) != len(layout.leaves):
            raise InvalidParameterError(
                f"--mem expects {len(layout.leaves)} comma-separated values, got {len(tokens)}"
            )
        mem = {
            leaf: _parse_register_value(token, len(layout.mem(leaf)), f"--mem[{leaf}]")
            for leaf, token in zip(layout.leaves, tokens)
        }
    state = basis_state(layout, address, result, mem)
    final = run_circuit(state, circuit, unitaries)
    _write_output([serialize_state(final)], args.out)
    return 0


_EXHAUSTIVE_LIMIT = 4096


def _cmd_verify(args: argparse.Namespace) -> int:
    instance = _instance_from(args)
    # The basis-case checks take --assignments per address; linearity takes it
    # as its number of sampled superpositions, which --exhaustive cannot set.
    assignments = args.assignments
    if args.exhaustive:
        if args.check == "linearity":
            raise InvalidParameterError(
                "--exhaustive enumerates basis cases; --check linearity samples "
                "--assignments superpositions instead"
            )
        assignments = 1 << (instance.m + sum(instance.k))
        if assignments > _EXHAUSTIVE_LIMIT:
            raise InvalidParameterError(
                f"exhaustive verification needs {assignments} (result, mem) assignments "
                f"per address, above the supported {_EXHAUSTIVE_LIMIT}; "
                "use --assignments to sample instead"
            )
    if args.circuit is None:
        options, document = _options_from(args), {}
    elif args.check != "proposition":
        raise InvalidParameterError(
            f"--circuit verifies a document with --check proposition only, not {args.check}"
        )
    elif args.variant is not None or args.fanout_block is not None or args.no_preparation:
        raise InvalidParameterError(
            "--variant, --fanout-block and --no-preparation choose how to synthesize; "
            "a --circuit document is checked as it was built"
        )
    else:
        doc = parse_document(Path(args.circuit).read_bytes())
        options, document = None, {"circuit": doc.circuit, "circuit_unitaries": doc.unitaries}
    common = {
        "seed": args.seed,
        "fidelity_tolerance": args.fidelity_tolerance,
        "residual_tolerance": args.residual_tolerance,
    }
    checks = {
        "proposition": lambda: check_proposition(
            instance, options, assignments=assignments, **document, **common
        ),
        "linearity": lambda: check_linearity(
            instance, options, num_cases=args.assignments, **common
        ),
        "variant_agreement": lambda: check_variant_agreement(
            instance, assignments=assignments, **common
        ),
    }
    names = list(checks) if args.check == "all" else [args.check]
    reports = [checks[name]() for name in names]
    for report in reports:
        print(report.format_table())
    if args.report:
        payload = [r.to_dict() for r in reports]
        _write_output([json.dumps(payload[0] if len(payload) == 1 else payload, indent=2)], args.report)
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qramforge",
        description="Synthesize, analyze, simulate, and verify tree-routed memory-access circuits.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    synth = subparsers.add_parser("synth", help="emit a circuit document")
    _add_instance_arguments(synth)
    _add_variant_arguments(synth)
    synth.add_argument(
        "--phase",
        choices=("access", "down", "run", "up"),
        default="access",
        help="which portion of the circuit to emit",
    )
    synth.add_argument("--format", choices=("json", "qasm"), default="json")
    synth.add_argument(
        "--include-matrices",
        action="store_true",
        help="embed the payload matrices in the JSON document",
    )
    synth.add_argument("--out", default=None, help="output file (default stdout)")
    synth.set_defaults(func=_cmd_synth)

    analyze = subparsers.add_parser("analyze", help="print the resource table")
    analyze.add_argument("--n", type=int, required=True)
    analyze.add_argument("--m", type=int, required=True)
    analyze.add_argument("--k", type=_parse_k, default=None)
    analyze.add_argument("--variant", choices=("sequential", "fanout", "both"), default="both")
    analyze.add_argument("--fanout-block", "--s", type=int, default=None, metavar="S")
    analyze.add_argument(
        "--max-u",
        type=int,
        default=1,
        help="declared depth to assume for every payload block",
    )
    analyze.add_argument("--csv", action="store_true", help="machine-readable output")
    analyze.add_argument("--out", default=None)
    analyze.set_defaults(func=_cmd_analyze)

    simulate = subparsers.add_parser("simulate", help="run a basis state through a document")
    simulate.add_argument("--circuit", required=True, help="circuit JSON file")
    simulate.add_argument("--address", default="0")
    simulate.add_argument("--result", default="0")
    simulate.add_argument(
        "--mem",
        default=None,
        help="comma-separated per-leaf memory values, ascending leaf order",
    )
    simulate.add_argument("--out", default=None)
    simulate.set_defaults(func=_cmd_simulate)

    verify = subparsers.add_parser("verify", help="check a circuit against reference semantics")
    _add_instance_arguments(verify)
    _add_variant_arguments(verify)
    verify.add_argument(
        "--check",
        choices=("proposition", "linearity", "variant_agreement", "all"),
        default="proposition",
    )
    verify.add_argument(
        "--circuit",
        default=None,
        help="verify this circuit document instead of synthesizing one",
    )
    verify.add_argument("--assignments", type=int, default=8, help="cases per address")
    verify.add_argument(
        "--exhaustive",
        action="store_true",
        help="enumerate every (result, mem) assignment per address (small instances only)",
    )
    verify.add_argument("--fidelity-tolerance", type=float, default=FIDELITY_TOL)
    verify.add_argument("--residual-tolerance", type=float, default=RESIDUAL_TOL)
    verify.add_argument("--report", default=None, help="write the JSON report here")
    verify.set_defaults(func=_cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """:func:`build_parser`'s parser, built on first use; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    except (QramForgeError, OSError) as exc:
        # also what the --k and --table converters raise inside parse_args
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
