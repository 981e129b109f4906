"""qramforge benchmark: run one workload and print its metrics as JSON.

Run from the root of a qramforge checkout::

    python3 bench/run.py --workload verify-basis --seed 7 --seconds 20 --trace 0

The workload runs in a fresh process (``measure.py``) with BLAS threads and
the hash seed pinned.  With ``--trace 0`` the last line of output reports the
end-to-end metrics; with ``--trace 1`` the per-layer metrics of traced passes
(see ``tracer.py``).  The line before it records the run's metadata and raw
pass times.  Pass and set-up times are CPU times of the single-threaded
workload process, scaled to a fixed vCPU speed by a reference loop run next
to them (see ``measure.py`` and ``reference.py``); unscaled CPU times and
wall times are in the metadata.  Set-up time is the median over several
fresh processes, each timed up to where its first pass would start.

Exit status is 0 when a result was printed (``correct`` says whether every
output passed its check) and 2 when no measurement could be made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS
from workloads import PAYLOAD_BUDGET_BYTES, WORKLOADS, payload_bytes

HERE = Path(__file__).resolve().parent
#: Extra processes started only to time set-up; the measuring process adds one.
SETUP_PROBES = 8
#: Every process this script starts must be done by then (seconds).
TIME_LIMIT = 170

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB", "success_rate": "ratio"}


class BenchError(Exception):
    pass


def _src_lines(package: Path) -> int:
    return sum(
        1 for path in sorted(package.rglob("*.py")) for line in path.read_text().splitlines() if line.strip()
    )


def _commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return done.stdout.strip() or None


def _spawn(argv: list[str], env: dict, cwd: Path, deadline: float) -> dict:
    """Run one measuring process to completion; returns its JSON line."""
    spawned_at = time.monotonic()
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "measure.py"), *argv, "--spawned-at", repr(spawned_at)],
            env=env, cwd=cwd, capture_output=True, text=True,
            timeout=max(1.0, deadline - spawned_at),
        )
    except subprocess.TimeoutExpired:  # subprocess.run kills and reaps the child
        raise BenchError(f"workload process did not finish within {TIME_LIMIT} s") from None
    if done.returncode != 0:
        raise BenchError(f"workload process exited with {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(args, root: Path) -> tuple[dict, dict]:
    deadline = time.monotonic() + TIME_LIMIT
    workload = WORKLOADS[args.workload]
    # relative to the checkout root, where every process of the run works
    workdir = Path("bench", ".work", f"{args.workload}-{os.getpid()}")
    commands = workload.commands(args.seed, workdir)
    for argv in commands:
        if payload_bytes(argv) > PAYLOAD_BUDGET_BYTES:
            raise BenchError(
                f"{' '.join(argv)} would build {payload_bytes(argv)} bytes of payload "
                f"matrices, over the benchmark's budget of {PAYLOAD_BUDGET_BYTES}"
            )
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    child_args = ["--workload", args.workload, "--seed", str(args.seed), "--seconds",
                  str(args.seconds), "--trace", str(args.trace), "--workdir", str(workdir)]
    (root / workdir).mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            setups = [
                _spawn(child_args + ["--setup-only"], env, root, deadline)
                for _ in range(SETUP_PROBES)
            ]
        result = _spawn(child_args, env, root, deadline)
    finally:
        shutil.rmtree(root / workdir, ignore_errors=True)
    setups.append(result)

    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit} for name, unit in LAYER_METRICS.items()}
    else:
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "pass_s": statistics.median(result["scaled_cpus"]),
            "peak_rss_mb": result["peak_rss_mb"],
            "success_rate": 1 - result["failed"] / result["attempted"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "commands": commands,
        "commit": _commit(root),
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "nproc": os.cpu_count(),
        "src_lines": _src_lines(root / "src" / "qramforge"),
        "pinned_env": {k: env[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "PYTHONHASHSEED")},
        "setup_s": [s["setup_s"] for s in setups],
        "setup_cpu_s": [s["setup_cpu_s"] for s in setups],
        "setup_wall_s": [s["setup_wall_s"] for s in setups],
        "wall_s": statistics.median(result["walls"]),
        "walls": result["walls"],
        "cpus": result["cpus"],
        "scaled_cpus": result["scaled_cpus"],
        "traced_walls": result["traced_walls"],
        "failures": result["failures"],
        "layers": result["layers"],
    }
    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    return meta, summary


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one qramforge benchmark workload.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    try:
        if not (root / "src" / "qramforge" / "__init__.py").is_file():
            raise BenchError("run from the root of a qramforge checkout (no src/qramforge here)")
        meta, summary = measure(args, root)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"meta": meta}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
