"""Host-speed probe for the benchmark.

The benchmark shares a few cores of a busy host. How fast identical NumPy
work runs there drifts by 10-30 % over tens of seconds, for reasons that
lie outside the process (other tenants on the same cores, caches and
memory), so a run's wall time alone says as much about the host as about
the program. The probe measures the host: a fixed piece of work of the
same kind as the program's (small float64 matrix products, softmax and
layer norm over batches of 8 x 24 x 64 kept on a tape, a backward walk
over that tape and over a Python object graph), built from this file
only, so no change to the program can make it faster or slower.

`HostSpeed.take()` times PROBES probes in a row, in a child process that
runs only while the benchmark waits for it; the benchmark calls it
before the first timed section and after each one. The section between
samples i and i+1 gets the factor REFERENCE_S / (median of those two
samples' probes), and its times are multiplied by it. A factor below 1
means the probes took longer than on the reference machine: the host ran
slower during that section, and the section's times shrink to match. The
reported timings thus read as seconds on the reference machine; the raw
wall times are kept next to them.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

# Median time of one probe on the machine the bounds were set on
# (2 vCPUs of a shared Intel Xeon host, NumPy 2.4 on OpenBLAS 0.3,
# one BLAS thread). Only a scale: the factors of two invocations on any
# machine compare the same way whatever this constant is.
REFERENCE_S = 0.072
PROBES = 3
REPEATS = 5
BATCHES = 4

_B, _T, _D, _H, _F = 8, 24, 64, 4, 128


class _Node:
    __slots__ = ("data", "parents")

    def __init__(self, data, parents):
        self.data, self.parents = data, parents


def _inputs():
    rng = np.random.default_rng(0)
    xs = [rng.standard_normal((_B, _T, _D)) for _ in range(BATCHES)]
    proj = [rng.standard_normal((_D, _D)) * 0.1 for _ in range(4)]
    w1 = rng.standard_normal((_D, _F)) * 0.1
    w2 = rng.standard_normal((_F, _D)) * 0.1
    return xs, proj, w1, w2


def _heads(a):
    return a.reshape(_B, _T, _H, _D // _H).transpose(0, 2, 1, 3)


def probe(repeats: int = REPEATS) -> float:
    """Seconds that `repeats` passes of the fixed work take.

    A pass runs BATCHES batches through a 2-layer attention encoder,
    keeps every intermediate on a tape as an autodiff graph does (a few
    MB, so the probe feels the cache and memory pressure the program
    feels), then walks the tape backward with one matrix product per
    entry and walks the graph of nodes."""
    xs, (wq, wk, wv, wo), w1, w2 = _inputs()
    start = time.perf_counter()
    for _ in range(repeats):
        tape = []
        for x in xs:
            for _layer in range(2):
                q, k, v = x @ wq, x @ wk, x @ wv
                s = _heads(q) @ _heads(k).transpose(0, 1, 3, 2) / 4.0
                s = np.exp(s - s.max(-1, keepdims=True))
                s = s / s.sum(-1, keepdims=True)
                a = (s @ _heads(v)).transpose(0, 2, 1, 3).reshape(_B, _T, _D) @ wo
                x = x + a
                x = (x - x.mean(-1, keepdims=True)) / np.sqrt(x.var(-1, keepdims=True) + 1e-5)
                h = np.maximum(x @ w1, 0.0)
                x = x + h @ w2
                for arr in (q, k, v, s, a, h, x):
                    tape.append(_Node(arr, tuple(tape[-2:])))
        grad = np.ones((_B * _T, _D))
        for node in reversed(tape):
            flat = node.data.reshape(_B * _T, -1)
            grad = grad + (flat @ (flat.T @ grad)) * 1e-9
        seen, stack = set(), [tape[-1]]
        while stack:
            for parent in stack.pop().parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
    return time.perf_counter() - start


class HostSpeed:
    """Probe samples taken between the timed sections of one invocation.

    The probes run in a child process, one batch at a time while the
    benchmark waits for it, so that the state the program leaves in the
    benchmark process (its heap, its caches) does not change how fast the
    probe runs. `close` ends the child and waits for it."""

    def __init__(self):
        self._child = subprocess.Popen([sys.executable, os.path.abspath(__file__)],
                                       stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.samples: list[list[float]] = []

    def take(self) -> None:
        self._child.stdin.write("probe\n")
        self._child.stdin.flush()
        line = self._child.stdout.readline()
        if not line:
            raise RuntimeError(f"host-speed probe exited with code {self._child.wait()}")
        self.samples.append(json.loads(line))

    def factor(self, section: int) -> float:
        """Factor of the section between samples `section` and `section + 1`."""
        around = self.samples[section] + self.samples[section + 1]
        return REFERENCE_S / statistics.median(around)

    def all_probes(self) -> list[float]:
        return [s for batch in self.samples for s in batch]

    def close(self) -> None:
        self._child.stdin.close()
        try:
            self._child.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._child.kill()
            self._child.wait()
        self._child.stdout.close()


def serve() -> None:
    """Child side: one line of PROBES probe times per line read."""
    probe(1)    # warm-up: first-call allocation
    for _ in sys.stdin:
        print(json.dumps([probe() for _ in range(PROBES)]), flush=True)


if __name__ == "__main__":
    serve()
