"""One benchmark workload in a fresh process: set up, run timed passes of the
workload's qramforge commands in-process through ``qramforge.cli.main``,
check every output, and print one JSON line of raw measurements.

Every pass is timed by the wall clock and by the CPU time of this process
(user plus system, ``time.process_time``), and its CPU time is scaled by a
fixed reference loop (``reference.py``).  The process is single threaded
(BLAS threads are pinned to 1), so wall and CPU time agree unless the
process is descheduled.  On a shared virtual machine the hypervisor takes
the vCPUs away for seconds to minutes at a time (steal time), which the
wall clock counts and the CPU clock does not; and the speed of the vCPUs
themselves shifts by up to 2x over seconds to minutes, which both clocks
count.  So the reference loop runs before every operation of a pass and
after the last, and each operation's CPU time is scaled to the reference
vCPU speed by the mean CPU time of the two reference runs around it.  A
pass's scaled time is the sum over its operations; a change in vCPU speed
moves it far less than either clock.

``run.py`` starts this script with the environment pinned and
``--spawned-at`` set to the CLOCK_MONOTONIC time just before the spawn.
Set-up covers interpreter start, the numpy and qramforge imports and input
preparation; it is reported as this process's CPU time up to the first
pass, scaled by one reference run right after, and in the metadata also
unscaled and as wall time since the spawn.  With ``--setup-only``
the process stops where the first timed pass would start.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import time
from pathlib import Path

import numpy
from qramforge import cli
from reference import REFERENCE_S, reference_cpu
from tracer import Tracer
from workloads import WORKLOADS

#: Passes of each kind a run makes at least, however short ``--seconds`` is.
MIN_PASSES = 3


def _call(argv: list[str]) -> tuple[int | str, str]:
    """Run one CLI command in-process; returns (exit code or the exception
    it raised, captured stdout)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except Exception as exc:  # counted as a failed operation
        code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


def _verdicts(check, expected_count: int, *args) -> list[bool]:
    """Run a check; a check that raises fails every operation it covers."""
    try:
        return check(*args)
    except Exception:
        return [False] * expected_count


def run_pass(workload, commands: list[list[str]], tracer=None) -> tuple[tuple[float, float, float], list[bool], list]:
    """One timed pass of the workload's commands, traced when ``tracer`` is
    given; returns (wall time, CPU time, scaled CPU time), one verdict per
    operation, and each operation's (exit code, stdout)."""
    # Start every pass with the collector's generations empty, as a fresh
    # CLI process would; otherwise a pass's full collections depend on what
    # earlier passes left behind.
    gc.collect()
    if tracer is not None:
        tracer.install()
    wall = cpu = scaled = 0.0
    outcomes = []
    try:
        ref = reference_cpu()
        for argv in commands:
            start, cpu_start = time.perf_counter(), time.process_time()
            outcomes.append(_call(argv))
            wall += time.perf_counter() - start
            op_cpu = time.process_time() - cpu_start
            ref_after = reference_cpu()
            cpu += op_cpu
            scaled += op_cpu * REFERENCE_S / ((ref + ref_after) / 2)
            ref = ref_after
    finally:
        if tracer is not None:
            tracer.uninstall()
    return (wall, cpu, scaled), _verdicts(workload.check_pass, len(commands), outcomes), outcomes


def negative_control(seed: int, workdir: Path) -> list[bool]:
    """Verify a small synthesized document, then the same document with its
    first Toffoli removed: the first must pass (exit 0), the second must be
    rejected (exit 1)."""
    sizes = ["--family", "table_lookup", "--n", "2", "--m", "1", "--seed", str(seed)]
    doc, tampered = workdir / "control.json", workdir / "control-tampered.json"
    if _call(["synth", *sizes, "--include-matrices", "--out", str(doc)])[0] != 0:
        return [False, False]
    raw = json.loads(doc.read_text())
    moment = next(m for m in raw["moments"] if any(g["kind"] == "ccx" for g in m))
    moment.remove(next(g for g in moment if g["kind"] == "ccx"))
    metrics = raw["metrics"]
    metrics["num_gates"] -= 1
    metrics["gate_counts"]["ccx"] -= 1
    if not metrics["gate_counts"]["ccx"]:
        del metrics["gate_counts"]["ccx"]
    metrics["width"] = max(len(m) for m in raw["moments"])
    tampered.write_text(json.dumps(raw, indent=2))
    verify = ["verify", *sizes, "--exhaustive", "--circuit"]
    return [_call(verify + [str(doc)])[0] == 0, _call(verify + [str(tampered)])[0] == 1]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    commands = workload.commands(args.seed, args.workdir)
    workload.prepare(args.seed, args.workdir)
    setup_cpu_s, setup_wall_s = time.process_time(), time.monotonic() - args.spawned_at
    setup = {
        "setup_s": setup_cpu_s * REFERENCE_S / reference_cpu(),
        "setup_cpu_s": setup_cpu_s,
        "setup_wall_s": setup_wall_s,
    }
    if args.setup_only:
        print(json.dumps(setup))
        return

    walls, cpus, scaled_cpus, traced_walls, layer_passes, failures = [], [], [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    # Stop before a pass that would end past --seconds, so that a run takes
    # the same time whatever the pass length.
    while (
        len(walls) < MIN_PASSES
        or (args.trace and len(traced_walls) < MIN_PASSES)
        or time.perf_counter() - start + statistics.median(walls + traced_walls) <= args.seconds
    ):
        # a traced run alternates untraced and traced passes
        tracer = Tracer() if args.trace and len(traced_walls) < len(walls) else None
        (wall, cpu, scaled), verdicts, outcomes = run_pass(workload, commands, tracer)
        attempted += len(verdicts)
        failed += verdicts.count(False)
        failures += [
            f"{' '.join(argv)}: exit {code}"
            for argv, ok, (code, _) in zip(commands, verdicts, outcomes) if not ok
        ]
        if tracer is None:
            walls.append(wall)
            cpus.append(cpu)
            scaled_cpus.append(scaled)
        else:
            traced_walls.append(wall)
            layer_passes.append(tracer.metrics())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for what, verdicts in (
        ("negative control", _verdicts(negative_control, 2, args.seed, args.workdir)),
        ("once-per-run check", _verdicts(workload.check_run, 1)),
    ):
        attempted += len(verdicts)
        failed += verdicts.count(False)
        if not all(verdicts):
            failures.append(f"{what}: verdicts {verdicts}")

    layers = {}
    if layer_passes:
        layers = {name: statistics.median(p[name] for p in layer_passes) for name in layer_passes[0]}
        layers["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    print(json.dumps({
        **setup,
        "walls": walls,
        "cpus": cpus,
        "scaled_cpus": scaled_cpus,
        "traced_walls": traced_walls,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "layers": layers,
        "failures": failures[:10],
        "numpy": numpy.__version__,
    }))


if __name__ == "__main__":
    main()
