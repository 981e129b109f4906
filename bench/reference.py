"""The fixed reference loop that the benchmark's times are scaled by.

The vCPUs of the shared virtual machine this benchmark was built on change
speed by up to 2x over seconds to minutes, and CPU time follows them, so a
pass's CPU time alone does not repeat from run to run.  ``measure.py`` runs
:func:`reference_cpu` next to every operation and scales the operation's CPU
time by ``REFERENCE_S / reference_cpu()``: that is the CPU time the
operation would take at the vCPU speed where one run of the loop takes
:data:`REFERENCE_S`.  The scaled time repeats as far as a speed change
slows the reference as much as the workload, so the reference copies the
program's mix of work with the standard library only, and no change to
qramforge moves it:

* a sparse-state sweep: dicts keyed by integers of 300 bits, rebuilt once
  per gate as the simulator does (``sim``);
* building small objects and grouping them into lists, as synthesis and the
  circuit IR do (``synth``, ``ir``);
* a JSON round trip of a gate list, as the document formats do
  (``formats``).

In a six-minute interleaved run of all four workloads, the spread of the
scaled pass time over groups of four passes was 4–8% of its median, against
9–17% for CPU time and 10–20% with a reference of dict and string work
alone.
"""

from __future__ import annotations

import functools
import json
import random
import time


#: CPU seconds of one run of the loop at the reference vCPU speed: roughly
#: its time on the 2-vCPU x86-64 virtual machine the benchmark was tuned on,
#: in the faster of the states that machine switches between.  It only fixes
#: the unit; any constant would do, as long as it never changes.
REFERENCE_S = 0.1


class _Gate:
    __slots__ = ("kind", "control", "target")

    def __init__(self, kind: int, control: int, target: int):
        self.kind, self.control, self.target = kind, control, target


@functools.cache
def _inputs() -> tuple[list[_Gate], list]:
    """The loop's fixed inputs (under 1 MB, so that they barely move the
    peak RSS), built on first use so that importing this module costs
    nothing in set-up time."""
    rng = random.Random(0)
    gates = [_Gate(i % 3, 1 << rng.randrange(300), 1 << rng.randrange(300)) for i in range(3_000)]
    document = [
        [{"kind": "ccx", "qubits": [i, i + 1, i + 2], "re": i * 0.5, "im": -i * 0.25} for i in range(j, j + 10)]
        for j in range(0, 300, 10)
    ]
    return gates, document


def _sweep_state(gates: list[_Gate]) -> int:
    state = {(1 << 299) | 5: 1.0, 3: 0.5}
    for _ in range(10):
        for gate in gates:
            if gate.kind == 0:
                state = {key ^ gate.target: amp for key, amp in state.items()}
            else:
                state = {(key ^ gate.target if key & gate.control else key): amp for key, amp in state.items()}
    return len(state)


def _build_objects() -> int:
    triples = []
    for i in range(15_000):
        gate = _Gate(i % 5, (i * 7) & 255, (i * 13) & 255)
        triples.append((gate.kind, gate.control, gate.target))
    moments = {}
    for kind, control, target in triples:
        moments.setdefault(control, []).append((kind, target))
    return sum(len(moment) for moment in moments.values())


def _json_round_trip(document: list) -> int:
    size = 0
    for _ in range(7):
        text = json.dumps(document, indent=2)
        size += len(text) + len(json.loads(text))
    return size


def reference_cpu() -> float:
    """CPU time (user plus system) of one run of the reference loop.  The
    first call also builds the loop's inputs, outside the timed part."""
    gates, document = _inputs()
    start = time.process_time()
    _sweep_state(gates)
    _build_objects()
    _json_round_trip(document)
    return time.process_time() - start
