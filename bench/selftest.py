"""Self-test of the benchmark's tracer, checks and input guard, on tiny sizes.

Run from the root of a qramforge checkout::

    python3 bench/selftest.py

For each workload at a tiny size it runs one untraced and one traced pass and
the once-per-run checks; every output must pass.  The traced pass must call
each boundary the workload lists in ``layers`` and no other.  It also checks
that an idle tracer reports zeros, that uninstalling restores qramforge, and
that the payload guard refuses an oversized command.  Exit status 0 means
every check passed.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
sys.path.insert(0, str(Path.cwd() / "src"))

from measure import negative_control, run_pass  # noqa: E402
from tracer import BOUNDARIES, LAYER_METRICS, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, PAYLOAD_BUDGET_BYTES, TINY_WORKLOADS, WORKLOADS, payload_bytes  # noqa: E402


def check_workload(workload, workdir: Path) -> list[str]:
    problems = []
    commands = workload.commands(DEFAULT_SEED, workdir)
    workload.prepare(DEFAULT_SEED, workdir)
    _, verdicts, _ = run_pass(workload, commands)
    if not all(verdicts):
        problems.append(f"untraced pass verdicts {verdicts}")
    tracer = Tracer()
    _, verdicts, _ = run_pass(workload, commands, tracer)
    if not all(verdicts):
        problems.append(f"traced pass verdicts {verdicts}")
    for boundary, calls in tracer.calls().items():
        if (calls > 0) != (boundary in workload.layers):
            expected = "used" if boundary in workload.layers else "idle"
            problems.append(f"{boundary}: {calls} calls, predicted {expected}")
    metrics = tracer.metrics()
    for name in workload.layers:
        if f"{name}.s" in metrics and not metrics[f"{name}.s"] > 0:
            problems.append(f"{name}.s is {metrics[f'{name}.s']} although called")
    for verdict_list, what in ((negative_control(DEFAULT_SEED, workdir), "negative control"),
                               (workload.check_run(), "once-per-run check")):
        if not all(verdict_list):
            problems.append(f"{what} verdicts {verdict_list}")
    return problems


def check_tracer_idle() -> list[str]:
    import qramforge.sim
    import qramforge.verifier

    originals = (qramforge.verifier.run_circuit, qramforge.sim.apply_gate)
    tracer = Tracer().install()
    tracer.uninstall()
    problems = []
    if (qramforge.verifier.run_circuit, qramforge.sim.apply_gate) != originals:
        problems.append("uninstall left wrappers in place")
    metrics = tracer.metrics()
    if not set(LAYER_METRICS) - {"trace.overhead_s"} <= set(metrics) or any(metrics.values()):
        problems.append(f"an idle tracer reported {metrics}")
    if set(tracer.calls()) != set(BOUNDARIES):
        problems.append("calls() does not cover every boundary")
    return problems


def check_guard() -> list[str]:
    problems = []
    oversized = ["synth", "--family", "qram", "--n", "10", "--m", "4", "--include-matrices"]
    if payload_bytes(oversized) != 1 << 30 or payload_bytes(oversized) <= PAYLOAD_BUDGET_BYTES:
        problems.append(f"guard sizes {oversized} at {payload_bytes(oversized)} bytes")
    for workload in WORKLOADS.values():
        for argv in workload.commands(7, Path("bench", ".work")):
            if payload_bytes(argv) > PAYLOAD_BUDGET_BYTES:
                problems.append(f"{workload.name} exceeds the payload budget: {argv}")
    return problems


def main() -> int:
    workdir = Path("bench", ".work", f"selftest-{os.getpid()}")
    workdir.mkdir(parents=True, exist_ok=True)
    failures = 0
    try:
        checks = [(name, lambda w=w: check_workload(w, workdir)) for name, w in TINY_WORKLOADS.items()]
        checks += [("tracer-idle", check_tracer_idle), ("payload-guard", check_guard)]
        for name, check in checks:
            problems = check()
            failures += bool(problems)
            print(f"{'ok  ' if not problems else 'FAIL'} {name}")
            for problem in problems:
                print(f"     {problem}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
