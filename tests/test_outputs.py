"""One digest per section of the command-line outputs over a fixed grid.

Every entry is one command run in-process through :func:`qramforge.cli.main`;
its name is its argument list and its digest the first 16 hex digits of the
sha256 of its exit status and output.  A section's digest is the sha256 of
its entries' ``name digest`` lines, in grid order.  ``SECTION_DIGESTS``
pins the sections; ``tests/data/outputs.json`` keeps each entry's digest,
so that a mismatch names the first entry that differs.

Sections:

- ``access``: JSON (with matrices) and QASM documents of the ``qram``,
  ``table_lookup`` and ``random`` (k=1) families, n 1-4 x m 1-3, sequential
  and fan-out with the default s, s=1 and s=2 (where s <= m), with and
  without the preparation;
- ``phases``: the ``down``, ``run`` and ``up`` phases of the same families
  and of ``rotation`` (whose blocks declare depths above 1), n 1-3 x m
  {1, 3}, sequential and fan-out with the default s, with and without the
  preparation, as JSON (with matrices) and QASM;
- ``analyze``: ``analyze --csv`` for n 1-12 x m {1, 4, 16, 64};
- ``verify``: the tables and the ``--report`` JSON of ``--check all`` on
  n=2 instances of the four families, and of a ``random`` instance with
  per-leaf widths ``3,0,2,2``, without the seconds each check took.

A change that alters an output on purpose regenerates the pins with

    PYTHONPATH=src python tests/test_outputs.py --rewrite

and says so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

from qramforge.cli import main

MANIFEST = Path(__file__).parent / "data" / "outputs.json"

# digests: begin
SECTION_DIGESTS = {
    "access": "c5ed159907484cfedeececf931e68875e7abaddb6be486031f611928e167b805",
    "phases": "da9a0db10a92335fe0c2eb803ec40086aeaaa10af227070a27a9a14f0f2b3498",
    "analyze": "9738a1cfc5d9d3217efcb6576f94bcea41aa6dd1dc2c899c0507ac59f858472e",
    "verify": "399ca3df8116bb482ca39895d4bebd991729044bac2a2fa3ab11364d3b65d5f9",
}
# digests: end


def _variants(m: int) -> list[list[str]]:
    fanout = [["--variant", "fanout"]] + [["--variant", "fanout", "--s", str(s)] for s in (1, 2) if s <= m]
    return [[]] + fanout


def _family(family: str, n: int, m: int) -> list[str]:
    return ["--family", family, "--n", str(n), "--m", str(m)] + (["--k", "1"] if family == "random" else [])


def _synth(families, ns, ms, phases, variants) -> list[list[str]]:
    return [
        ["synth", *_family(family, n, m), "--phase", phase, *variant, *preparation, *form]
        for family in families
        for n in ns
        for m in ms
        for phase in phases
        for variant in variants(m)
        for preparation in ([], ["--no-preparation"])
        for form in (["--include-matrices"], ["--format", "qasm"])
    ]


FAMILIES = ("qram", "table_lookup", "random")
GRIDS = {
    "access": _synth(FAMILIES, range(1, 5), (1, 2, 3), ["access"], _variants),
    "phases": _synth(FAMILIES + ("rotation",), range(1, 4), (1, 3), ["down", "run", "up"],
                     lambda m: [[], ["--variant", "fanout"]]),
    "analyze": [["analyze", "--n", str(n), "--m", str(m), "--csv"] for n in range(1, 13) for m in (1, 4, 16, 64)],
    "verify": [["verify", *_family(family, 2, m), "--check", "all"]
               for family, m in (("qram", 1), ("table_lookup", 2), ("rotation", 2), ("random", 1))]
    # per-leaf widths with more than 64 (result, mem) assignments, so both basis checks draw
    + [["verify", "--family", "random", "--n", "2", "--m", "1", "--k", "3,0,2,2", "--check", "all"]],
}


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _digest(code: int, text: str) -> str:
    return hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()[:16]


def entries(section: str) -> dict[str, str]:
    """Each command of ``section``, by name, with its output's digest."""
    digests = {}
    for argv in GRIDS[section]:
        name = " ".join(argv)
        if section != "verify":
            digests[name] = _digest(*_run(argv))
            continue
        with tempfile.TemporaryDirectory() as scratch:
            report = Path(scratch) / "report.json"
            code, table = _run([*argv, "--report", str(report)])
            text = report.read_text()
        digests[f"{name} (table)"] = _digest(code, re.sub(r", [0-9.]+s$", "", table, flags=re.M))
        digests[f"{name} (report)"] = _digest(code, re.sub(r'\n *"wall_seconds": [^\n]*', "", text))
    return digests


def section_digest(digests: dict[str, str]) -> str:
    return hashlib.sha256("".join(f"{name} {digest}\n" for name, digest in digests.items()).encode()).hexdigest()


@pytest.mark.parametrize("section", list(GRIDS))
def test_outputs_match_the_pinned_digests(section):
    digests = entries(section)
    if section_digest(digests) == SECTION_DIGESTS[section]:
        return
    pinned = json.loads(MANIFEST.read_text()).get(section, {})
    assert section_digest(pinned) == SECTION_DIGESTS[section], f"{MANIFEST.name} does not match SECTION_DIGESTS"
    for name, digest in digests.items():
        assert pinned.get(name) == digest, f"first output that differs: {name}"
    pytest.fail(f"the {section} grid differs from the pinned one: {sorted(set(pinned) - set(digests))[:1]} is missing")


def rewrite() -> None:
    """Pin the digests of the outputs as they are now."""
    manifest = {section: entries(section) for section in GRIDS}
    MANIFEST.write_text(json.dumps(manifest, indent=0) + "\n")
    source = Path(__file__).read_text()
    lines = "".join(f'    "{section}": "{section_digest(digests)}",\n' for section, digests in manifest.items())
    block = f"# digests: begin\nSECTION_DIGESTS = {{\n{lines}}}\n# digests: end"
    Path(__file__).write_text(re.sub(r"# digests: begin\n.*?# digests: end", lambda _: block, source, flags=re.S))


if __name__ == "__main__":
    if sys.argv[1:] != ["--rewrite"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_outputs.py --rewrite")
    rewrite()
