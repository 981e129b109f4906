"""End-to-end command-line tests.

Most tests call main() in-process. The entry-point tests check the user-facing
command: a subprocess runs ``qramforge --help`` (the installed script when it
is on PATH, ``python -m qramforge`` otherwise), and the ``[project.scripts]``
target declared in pyproject.toml is resolved and called directly.
"""

import importlib
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import pytest

import qramforge
from qramforge import (
    SynthesisOptions,
    ancilla_counts,
    build_instance,
    build_table_lookup_instance,
    check_proposition,
    emit_json,
    emit_qasm,
    parse_document,
    synth_access,
)
from qramforge.cli import _write_output, main
from qramforge.formats import _json_parts
from helpers import assert_valid_qasm2


SUBCOMMANDS = ("synth", "analyze", "simulate", "verify")
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _help_command():
    """The argv and environment that run ``qramforge --help`` as a user would.

    The installed script wins when it is on PATH. Otherwise the same entry
    point runs as ``python -m qramforge`` against the package this test
    imported, so a bare checkout (``PYTHONPATH=src``) is checked too.
    """
    exe = shutil.which("qramforge")
    if exe:
        return [exe, "--help"], None
    package_root = str(Path(qramforge.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    return [sys.executable, "-m", "qramforge", "--help"], env


def _assert_lists_subcommands(help_text):
    # Match the listing lines, not the words: the description mentions them too.
    for sub in SUBCOMMANDS:
        assert re.search(rf"^\s+{sub}\b", help_text, re.MULTILINE), sub


def test_entry_point_help_subprocess():
    argv, env = _help_command()
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    _assert_lists_subcommands(proc.stdout)


@pytest.mark.skipif(os.name != "posix", reason="the wrapper is a POSIX shell script")
def test_entry_point_prefers_script_on_path(tmp_path, monkeypatch):
    wrapper = tmp_path / "qramforge"
    wrapper.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m qramforge "$@"\n')
    wrapper.chmod(0o755)
    monkeypatch.setenv("PATH", os.pathsep.join([str(tmp_path), os.environ.get("PATH", "")]))
    argv, env = _help_command()
    assert argv == [str(wrapper), "--help"]
    assert env is None


def test_project_script_target_is_entry(monkeypatch, capsys):
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["version"] == qramforge.__version__  # one version, stated twice
    scripts = project["scripts"]
    assert scripts == {"qramforge": "qramforge.cli:entry"}
    module_name, _, attr = scripts["qramforge"].partition(":")
    target = getattr(importlib.import_module(module_name), attr)
    monkeypatch.setattr(sys, "argv", ["qramforge", "--help"])
    with pytest.raises(SystemExit) as exc:
        target()
    assert exc.value.code == 0
    _assert_lists_subcommands(capsys.readouterr().out)


def test_package_exports_exactly_its_public_names():
    """``__all__`` lists each public name of the package that is not a
    submodule, once, plus ``__version__``; a star import binds them all."""
    public = {
        name for name, value in vars(qramforge).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(qramforge.__all__) == sorted(public | {"__version__"})
    namespace: dict = {}
    exec("from qramforge import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(qramforge.__all__)


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["synth"]) == 2  # missing required arguments
    assert main(["synth", "--n", "1", "--m", "1", "--family", "bogus"]) == 2
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_the_parser_is_built_once(monkeypatch, capsys):
    """Every command after the first reuses the first command's parser."""
    import qramforge.cli as cli

    built, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        assert main(["analyze", "--n", "1", "--m", "1", "--csv"]) == 0
        assert main(["frobnicate"]) == 2
        assert main(["analyze", "--n", "1", "--m", "1", "--csv"]) == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "--n", "2", "--m", "1", "--k", "a"],
         "error: --k expects an integer or a comma-separated list, got 'a'\n"),
        (["verify", "--family", "lookup", "--n", "2", "--m", "1", "--table", "1,x"],
         "error: --table expects comma-separated integers, got '1,x'\n"),
        (["synth", "--family", "qram", "--n", "1", "--m", "1000000000000"],
         "error: the payload matrices of qram(n=1, m=1000000000000) would take at least "
         "2**4000000000004 bytes, over the simulator's budget of 268435456\n"),
        (["synth", "--family", "rotation", "--n", "1", "--m", "1000000000000"],
         "error: the payload matrices of rotation(n=1, fraction_bits=1000000000000) would take at "
         "least 2**2000000000006 bytes, over the simulator's budget of 268435456\n"),
        (["synth", "--family", "random", "--n", "1", "--m", "1", "--k", "1000000000000"],
         "error: the payload matrices of random(n=1, m=1, k=1000000000000 at most) would take at "
         "least 2**2000000000006 bytes, over the simulator's budget of 268435456\n"),
        (["verify", "--family", "qram", "--n", "1", "--m", "1", "--assignments", "1000000000000"],
         "error: 2000000000000 case(s) in 1 run(s) would make 2000000000000 report rows, "
         "over the limit of 524288\n"),
        (["verify", "--family", "qram", "--n", "1", "--m", "1", "--assignments", "1000000000000",
          "--check", "linearity"],
         "error: 1000000000000 case(s) in 1 run(s) would make 1000000000000 report rows, "
         "over the limit of 524288\n"),
        (["verify", "--family", "qram", "--n", "1", "--m", "1", "--assignments", "1000000000000",
          "--check", "variant_agreement"],
         "error: 2000000000000 case(s) in 1 run(s) would make 2000000000000 report rows, "
         "over the limit of 524288\n"),
    ],
    ids=["k", "table", "qram-m", "rotation-m", "random-k", "proposition-count", "linearity-count",
         "agreement-count"],
)
def test_unparsable_list_options_exit_2(argv, message, capsys):
    """A ``--k`` or ``--table`` the option converter refuses, or a size
    past a budget, is a usage error: exit 2 with one line, no traceback,
    before any allocation the size would ask for."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == message and captured.out == ""


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def test_synth_json_matches_library(tmp_path, capsys):
    out = tmp_path / "c.json"
    code = main(
        [
            "synth", "--family", "table_lookup", "--n", "1", "--m", "1",
            "--table", "1,0", "--include-matrices", "--out", str(out),
        ]
    )
    assert code == 0
    doc = parse_document(out.read_text())
    inst = build_table_lookup_instance(1, 1, table=[1, 0])
    assert doc.circuit == synth_access(inst.layout(), inst.unitaries)
    assert doc.unitaries == inst.unitaries
    assert doc.parameters["instance"] == {"family": "table_lookup", "table": [1, 0]}
    capsys.readouterr()


def test_synth_accepts_flag_shorthands(capsys):
    argv = ["synth", "--n", "1", "--m", "1", "--table", "1,0"]
    code = main(argv + ["--family", "lookup", "--variant", "fanout", "--s", "1"])
    assert code == 0
    shorthand = parse_document(capsys.readouterr().out)
    code = main(argv + ["--family", "table_lookup", "--variant", "fanout", "--fanout-block", "1"])
    assert code == 0
    canonical = parse_document(capsys.readouterr().out)
    assert shorthand.circuit == canonical.circuit
    assert shorthand.parameters["instance"]["family"] == "table_lookup"


def test_synth_qasm_to_stdout(capsys):
    code = main(["synth", "--family", "rotation", "--n", "1", "--m", "2", "--format", "qasm"])
    assert code == 0
    text = capsys.readouterr().out
    assert text.startswith("OPENQASM 2.0;")
    assert_valid_qasm2(text)


def test_synth_phase_and_variant_flags(capsys):
    code = main(
        [
            "synth", "--family", "qram", "--n", "2", "--m", "2",
            "--phase", "down", "--variant", "fanout", "--fanout-block", "1",
        ]
    )
    assert code == 0
    doc = parse_document(capsys.readouterr().out)
    assert doc.circuit.metadata["phase"] == "down"
    assert doc.circuit.metadata["variant"] == "fanout"
    assert doc.circuit.layout.fanout_block == 1
    assert doc.unitaries is None  # the down phase carries no payloads


def _cli_circuit(family, n, m, k=None):
    """The instance and access circuit ``synth`` builds, with the metadata it adds."""
    inst = build_instance(family, n, m, k)
    circuit = synth_access(inst.layout(), inst.unitaries, SynthesisOptions())
    circuit.metadata["instance"] = {"family": inst.family, **inst.params}
    return inst, circuit


@pytest.mark.parametrize("form", ["json", "json with matrices", "qasm"])
def test_synth_writes_exactly_the_emitted_text(form, tmp_path, capsys):
    """``--out`` holds the emitter's text as UTF-8, byte for byte, and stdout
    the same text, ended by a newline only where it has none (JSON), as
    ``print`` ends a text."""
    inst, circuit = _cli_circuit("random", 2, 1, 1)
    argv = ["synth", "--family", "random", "--n", "2", "--m", "1", "--k", "1"]
    argv += {"json": [], "json with matrices": ["--include-matrices"], "qasm": ["--format", "qasm"]}[form]
    expected = {
        "json": lambda: emit_json(circuit),
        "json with matrices": lambda: emit_json(circuit, inst.unitaries),
        "qasm": lambda: emit_qasm(circuit),
    }[form]()
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out").read_bytes() == expected.encode()
    assert main(argv) == 0
    assert capsys.readouterr().out == (expected if expected.endswith("\n") else expected + "\n")


def test_the_writer_holds_one_part_at_a_time(tmp_path):
    """A document goes to its file part by part: neither the joined text nor
    its whole encoding is ever held."""
    inst = build_instance("random", 4, 3, 1)
    parts = _json_parts(synth_access(inst.layout(), inst.unitaries), inst.unitaries)
    path = tmp_path / "doc.json"
    tracemalloc.start()
    try:
        _write_output(parts, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * max(map(len, parts)) < sum(map(len, parts)) // 4
    assert path.read_bytes() == "".join(parts).encode()


def test_synth_out_overwrites_a_longer_file(tmp_path, capsys):
    out = tmp_path / "out"
    out.write_bytes(b"x" * 100_000)
    assert main(["synth", "--family", "qram", "--n", "1", "--m", "1", "--out", str(out)]) == 0
    assert out.read_bytes() == emit_json(_cli_circuit("qram", 1, 1)[1]).encode()
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_csv_counts(capsys):
    assert main(["analyze", "--n", "10", "--m", "4", "--csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = lines[0].split(",")
    assert header[:10] == [
        "variant", "n", "m", "k_total", "life", "adr", "res", "mem", "copy", "ancillas",
    ]
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert [row["variant"] for row in rows] == ["sequential", "fanout"]
    expected = ancilla_counts(10, 4, 0)
    seq = rows[0]
    assert int(seq["life"]) == expected["life"] == 2047
    assert int(seq["adr"]) == expected["adr"] == 1013
    assert int(seq["res"]) == expected["res"] == 8184
    assert int(seq["copy"]) == 0
    assert int(seq["ancillas"]) == expected["total"] == 11244
    assert int(seq["total_qubits"]) == 11244 + 10 + 4
    # the fan-out variant adds ceil(m/s) scratch copies per non-root node
    fan = rows[1]
    assert int(fan["copy"]) == 2 * (2**11 - 2)
    assert int(fan["total_qubits"]) == int(seq["total_qubits"]) + int(fan["copy"])
    for row in rows:
        assert int(row["depth"]) > 0 and int(row["width"]) > 0 and int(row["gates"]) > 0


def test_analyze_fanout_wins_for_wide_results(capsys):
    # the scratch-copy overhead pays off once m is large
    assert main(["analyze", "--n", "6", "--m", "25", "--csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = lines[0].split(",")
    depth_at = header.index("depth")
    seq_depth = int(lines[1].split(",")[depth_at])
    fan_depth = int(lines[2].split(",")[depth_at])
    assert fan_depth < seq_depth


def test_analyze_max_u_shifts_depth_exactly(capsys):
    assert main(["analyze", "--n", "3", "--m", "2", "--variant", "sequential", "--csv"]) == 0
    base = capsys.readouterr().out.strip().splitlines()
    assert (
        main(
            ["analyze", "--n", "3", "--m", "2", "--variant", "sequential", "--csv", "--max-u", "5"]
        )
        == 0
    )
    deeper = capsys.readouterr().out.strip().splitlines()
    header = base[0].split(",")
    depth_at = header.index("depth")
    assert int(deeper[1].split(",")[depth_at]) == int(base[1].split(",")[depth_at]) + 4


def test_analyze_table_output(capsys):
    assert main(["analyze", "--n", "2", "--m", "1", "--variant", "sequential"]) == 0
    out = capsys.readouterr().out
    assert "sequential" in out and "total_qubits" in out


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


@pytest.fixture()
def lookup_doc(tmp_path):
    path = tmp_path / "lookup.json"
    assert (
        main(
            [
                "synth", "--family", "table_lookup", "--n", "1", "--m", "1",
                "--table", "1,0", "--include-matrices", "--out", str(path),
            ]
        )
        == 0
    )
    return path


def test_simulate_embedded_matrices(lookup_doc, capsys):
    assert main(["simulate", "--circuit", str(lookup_doc), "--address", "0"]) == 0
    state = json.loads(capsys.readouterr().out)
    # leaf 0 holds 1: the result flips, every ancilla returns to 0
    assert state["terms"] == [{"bits": "0000010", "re": 1.0, "im": 0.0}]
    assert main(["simulate", "--circuit", str(lookup_doc), "--address", "1", "--result", "1"]) == 0
    state = json.loads(capsys.readouterr().out)
    assert state["terms"] == [{"bits": "0000011", "re": 1.0, "im": 0.0}]


def test_simulate_rebuilds_matrices_from_instance_parameters(tmp_path, capsys):
    path = tmp_path / "rot.json"
    assert (
        main(["synth", "--family", "rotation", "--n", "1", "--m", "1", "--out", str(path)])
        == 0
    )
    assert "matrices" not in json.loads(path.read_text())
    assert (
        main(["simulate", "--circuit", str(path), "--address", "0", "--mem", "1,0"]) == 0
    )
    state = json.loads(capsys.readouterr().out)
    # mu = 1/2 rotates the result qubit to -i|1>; the memory bit stays put
    assert len(state["terms"]) == 1
    term = state["terms"][0]
    assert term["bits"] == "010000010"
    assert term["re"] == pytest.approx(0.0, abs=1e-15)
    assert term["im"] == pytest.approx(-1.0)


def test_simulate_document_without_payload_gates_needs_no_matrices(tmp_path, capsys):
    path = tmp_path / "down.json"
    assert (
        main(
            ["synth", "--family", "qram", "--n", "2", "--m", "1", "--phase", "down", "--out", str(path)]
        )
        == 0
    )
    assert main(["simulate", "--circuit", str(path), "--address", "10", "--result", "1"]) == 0
    state = json.loads(capsys.readouterr().out)
    assert len(state["terms"]) == 1  # routing is a basis permutation


def test_simulate_missing_instance_exits_2(lookup_doc, tmp_path, capsys):
    raw = json.loads(lookup_doc.read_text())
    del raw["matrices"]
    del raw["parameters"]["instance"]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(raw, indent=2))
    assert main(["simulate", "--circuit", str(bare)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "instance, path",
    [
        ("qram", "parameters.instance: expected an object"),
        (["qram"], "parameters.instance: expected an object"),
        ({"family": "rotation"}, "parameters.instance.fraction_bits: expected an integer"),
        ({"family": "random", "seed": -1}, "parameters.instance.seed: expected an integer >= 0"),
        ({"family": "random", "seed": True}, "parameters.instance.seed: expected an integer"),
        ({"family": "table_lookup", "table": "abc"}, "parameters.instance.table: expected a list of integers"),
    ],
)
def test_simulate_refuses_malformed_instance_parameters(instance, path, tmp_path, capsys):
    """A document without matrices names the instance to rebuild them from;
    a malformed one is a schema error naming the field, exit 2."""
    doc = tmp_path / "qram.json"
    assert main(["synth", "--family", "qram", "--n", "2", "--m", "1", "--out", str(doc)]) == 0
    raw = json.loads(doc.read_text())
    raw["parameters"]["instance"] = instance
    doc.write_text(json.dumps(raw, indent=2))
    assert main(["simulate", "--circuit", str(doc)]) == 2
    assert capsys.readouterr().err == f"error: {path}\n"


def test_simulate_bad_register_values_exit_2(lookup_doc, capsys):
    assert main(["simulate", "--circuit", str(lookup_doc), "--address", "7"]) == 2
    assert main(["simulate", "--circuit", str(lookup_doc), "--mem", "0,0,0"]) == 2
    capsys.readouterr()
    # a value that is neither a bit string of the register's width nor a number
    assert main(["simulate", "--circuit", str(lookup_doc), "--address", "abc"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --address: cannot interpret 'abc'\n" and captured.out == ""


def test_simulate_missing_file_exits_2(tmp_path, capsys):
    assert main(["simulate", "--circuit", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_schema_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["simulate", "--circuit", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


#: ``--circuit`` files that are not UTF-8 text, or begin with a UTF-8 byte-order
#: mark, and the message each is refused with.
NOT_UTF8 = {
    "UTF-16 byte-order mark": (b"\xff\xfe{", "error: not valid UTF-8: 'utf-8' codec can't decode byte 0xff "
                               "in position 0: invalid start byte\n"),
    "UTF-16 document": ('{"format": "qramforge-circuit/1"}'.encode("utf-16"), "error: not valid UTF-8: "
                        "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"),
    "UTF-8 byte-order mark": (b"\xef\xbb\xbf{}", "error: not valid JSON: Unexpected UTF-8 BOM "
                              "(decode using utf-8-sig): line 1 column 1 (char 0)\n"),
}


@pytest.mark.parametrize("case", sorted(NOT_UTF8))
@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_a_circuit_file_that_is_not_utf8_exits_2(command, case, tmp_path, capsys):
    data, message = NOT_UTF8[case]
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    argv = {"simulate": ["simulate"],
            "verify": ["verify", "--family", "table_lookup", "--n", "1", "--m", "1", "--table", "1,0"]}[command]
    assert main(argv + ["--circuit", str(path)]) == 2
    assert capsys.readouterr() == ("", message)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_pass_writes_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main(
        [
            "verify", "--family", "qram", "--n", "1", "--m", "1",
            "--assignments", "2", "--report", str(report),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS proposition on qram(n=1, m=1, k=1)" in out
    payload = json.loads(report.read_text())
    assert payload["passed"] is True
    assert payload["check"] == "proposition"


@pytest.mark.parametrize("check", ["proposition", "all"])
def test_verify_report_is_the_dumped_report(check, tmp_path, capsys):
    """The ``--report`` file is ``json.dumps(indent=2)`` of one report's
    ``to_dict`` (a list of them for ``--check all``), with no final newline;
    only the seconds each check took differ from a library run."""
    report = tmp_path / "report.json"
    argv = ["verify", "--family", "qram", "--n", "1", "--m", "1", "--assignments", "2", "--check", check]
    assert main(argv + ["--report", str(report)]) == 0
    capsys.readouterr()
    data = report.read_bytes()
    payload = json.loads(data)
    assert data == json.dumps(payload, indent=2).encode()
    if check == "proposition":
        expected = check_proposition(build_instance("qram", 1, 1), assignments=2).to_dict()
        assert payload.keys() == expected.keys()
        assert {**payload, "wall_seconds": None} == {**expected, "wall_seconds": None}
    else:
        assert [part["check"] for part in payload] == ["proposition", "linearity", "variant_agreement"]


def test_verify_exhaustive_flag(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main(
        [
            "verify", "--family", "qram", "--n", "2", "--m", "1",
            "--exhaustive", "--report", str(report),
        ]
    )
    assert code == 0
    capsys.readouterr()
    payload = json.loads(report.read_text())
    # 4 addresses x 2 results x 2^4 memory assignments, every combination.
    assert payload["num_cases"] == 128
    assert payload["passed"] is True


def test_verify_exhaustive_refuses_large_instances(capsys):
    code = main(["verify", "--family", "qram", "--n", "3", "--m", "2", "--exhaustive"])
    assert code == 2
    assert "use --assignments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--family", "random", "--n", "1", "--m", "4", "--k", "14"],
        ["synth", "--family", "rotation", "--n", "2", "--m", "14"],
        ["verify", "--family", "qram", "--n", "10", "--m", "4", "--assignments", "1"],
    ],
)
def test_oversized_payloads_exit_2(argv, capsys):
    """The instance builders refuse payload matrices past the simulator's
    budget before building them."""
    assert main(argv) == 2
    assert "payload matrices" in capsys.readouterr().err


def test_verify_all_checks(capsys):
    code = main(
        ["verify", "--family", "qram", "--n", "1", "--m", "1", "--check", "all", "--assignments", "2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    for check in ("proposition", "linearity", "variant_agreement"):
        assert f"PASS {check}" in out


def test_verify_document_against_matching_instance(tmp_path, capsys):
    path = tmp_path / "rand.json"
    args = [
        "synth", "--family", "random", "--n", "1", "--m", "1", "--k", "1",
        "--seed", "1", "--include-matrices", "--out", str(path),
    ]
    assert main(args) == 0
    code = main(
        [
            "verify", "--family", "random", "--n", "1", "--m", "1", "--k", "1",
            "--seed", "1", "--circuit", str(path),
        ]
    )
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_document_mismatch_exits_1(tmp_path, capsys):
    path = tmp_path / "rand.json"
    args = [
        "synth", "--family", "random", "--n", "1", "--m", "1", "--k", "1",
        "--seed", "1", "--include-matrices", "--out", str(path),
    ]
    assert main(args) == 0
    code = main(
        [
            "verify", "--family", "random", "--n", "1", "--m", "1", "--k", "1",
            "--seed", "2", "--circuit", str(path),
        ]
    )
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_with_no_cases_exits_2(capsys):
    # 4096 (result, mem) assignments per address are above the exhaustive
    # cut-off, so --assignments 0 samples none
    code = main(
        [
            "verify", "--family", "random", "--n", "1", "--m", "4", "--k", "4",
            "--assignments", "0",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "no cases" in err


@pytest.mark.parametrize("check", ["linearity", "variant_agreement", "all"])
def test_verify_document_rejects_other_checks(lookup_doc, capsys, check):
    code = main(
        [
            "verify", "--family", "table_lookup", "--n", "1", "--m", "1", "--table", "1,0",
            "--circuit", str(lookup_doc), "--check", check,
        ]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "--check proposition" in captured.err
    assert captured.out == ""


def test_verify_rejects_wrong_size_document(lookup_doc, capsys):
    code = main(
        ["verify", "--family", "qram", "--n", "2", "--m", "1", "--circuit", str(lookup_doc)]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags", [["--variant", "sequential"], ["--s", "1"], ["--fanout-block", "2"], ["--no-preparation"]]
)
def test_verify_document_rejects_synthesis_flags(lookup_doc, capsys, flags):
    code = main(
        [
            "verify", "--family", "table_lookup", "--n", "1", "--m", "1", "--table", "1,0",
            "--circuit", str(lookup_doc), *flags,
        ]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "--circuit" in captured.err
    assert captured.out == ""


def test_verify_document_reports_its_own_variant(tmp_path, capsys):
    path, report = tmp_path / "fan.json", tmp_path / "report.json"
    sizes = ["--family", "qram", "--n", "1", "--m", "4"]
    assert main(["synth", *sizes, "--variant", "fanout", "--s", "2", "--out", str(path)]) == 0
    code = main(
        ["verify", *sizes, "--circuit", str(path), "--assignments", "2", "--report", str(report)]
    )
    assert code == 0
    capsys.readouterr()
    assert json.loads(report.read_text())["options"] == {"variant": "fanout", "fanout_block": 2}


def test_verify_exhaustive_rejects_linearity(capsys):
    code = main(
        ["verify", "--family", "qram", "--n", "2", "--m", "1", "--exhaustive", "--check", "linearity"]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "--check linearity" in captured.err
    assert captured.out == ""


def test_verify_exhaustive_leaves_linearity_its_assignments(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main(
        [
            "verify", "--family", "qram", "--n", "2", "--m", "1", "--check", "all",
            "--exhaustive", "--assignments", "3", "--report", str(report),
        ]
    )
    assert code == 0
    capsys.readouterr()
    counts = {r["check"]: r["num_cases"] for r in json.loads(report.read_text())}
    # 4 addresses x 32 (result, mem) assignments, for the agreement check on
    # its one block size (m = 1); three sampled superpositions plus the uniform one
    assert counts == {"proposition": 128, "linearity": 4, "variant_agreement": 128}
