"""The host's speed, sampled while a workload runs, and times corrected by it.

Other tenants of the host slow this process by 1.2x to 2.8x (measured on a
2-core x86_64 VM), in phases that last from one second to minutes, and
process CPU time grows with wall time.  No statistic over a 30-second run
removes a phase that outlasts the run, so end-to-end times are corrected by
a reference kernel.

The kernel is fixed, benchmark-owned Python code shaped like gstrat's hot
paths (small graph objects, neighbourhood refinement through a colour table,
isomorphism backtracking).  A timer signal runs it every ``PERIOD_S`` seconds
inside the measured process.  A time is corrected by removing the kernel's
own runs from it and scaling each instant by ``REFERENCE_NS`` over the
kernel duration sampled nearest to it: the result is the time the work
would have taken with the kernel at its reference speed.  Because the kernel never
changes, a change to gstrat moves corrected times as much as raw ones.
"""
from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

PERIOD_S = 0.1

# About the kernel's duration on an uncontended 2-core x86_64 VM with
# Python 3.11.7.  It only sets the scale of corrected times.
REFERENCE_NS = 2_000_000


class _Graph:
    __slots__ = ("labels", "adj")

    def __init__(self, vertices, edges):
        self.labels = dict(vertices)
        self.adj = {v: {} for v in self.labels}
        for u, v, label in edges:
            self.adj[u][v] = label
            self.adj[v][u] = label


def _molecule(rng: random.Random, n: int):
    vertices = [(v, "C" if rng.random() < 0.6 else "H") for v in range(n)]
    edges = []
    for v in range(1, n):
        edges.append((rng.randrange(v), v, rng.choice("-=")))
    for _ in range(n // 4):
        u, v = rng.sample(range(n), 2)
        if u > v:
            u, v = v, u
        if all((a, b) != (u, v) for a, b, _ in edges):
            edges.append((u, v, "-"))
    return vertices, edges


_RNG = random.Random(1302)
_SHAPES = [_molecule(_RNG, 20) for _ in range(8)]
_PERMUTATIONS = [_RNG.sample(range(20), 20) for _ in _SHAPES]


def _colors(g: _Graph, table: dict) -> dict:
    colors = {v: table.setdefault(("v", g.labels[v]), len(table)) for v in g.labels}
    classes = len(set(colors.values()))
    for _ in range(len(colors)):
        nxt = {}
        for v in colors:
            around = tuple(sorted((label, colors[u]) for u, label in g.adj[v].items()))
            nxt[v] = table.setdefault((colors[v], around), len(table))
        colors = nxt
        new_classes = len(set(nxt.values()))
        if new_classes == classes:
            break
        classes = new_classes
    return colors


def _isomorphism(g: _Graph, h: _Graph, gc: dict, hc: dict) -> dict | None:
    """Iterative backtracking, so a signal handler never deepens the stack."""
    by_color: dict = {}
    for v in sorted(h.labels):
        by_color.setdefault(hc[v], []).append(v)
    order = sorted(g.labels, key=lambda v: (-len(g.adj[v]), v))
    assignment: dict = {}
    used: set = set()
    choices = [list(by_color.get(gc[order[0]], ()))]
    while choices:
        i = len(choices) - 1
        v = order[i]
        if v in assignment:
            used.discard(assignment.pop(v))
        while choices[i]:
            c = choices[i].pop()
            if c in used or len(h.adj[c]) != len(g.adj[v]):
                continue
            if all(assignment[u] in h.adj[c] and h.adj[c][assignment[u]] == label
                   for u, label in g.adj[v].items() if u in assignment):
                assignment[v] = c
                used.add(c)
                break
        else:
            choices.pop()
            continue
        if len(assignment) == len(order):
            return dict(assignment)
        choices.append(list(by_color.get(gc[order[i + 1]], ())))
    return None


def kernel() -> int:
    """The reference work: intern eight relabelled molecules against originals."""
    table: dict = {}
    found = 0
    for (vertices, edges), perm in zip(_SHAPES, _PERMUTATIONS):
        g = _Graph(vertices, edges)
        h = _Graph([(perm[v], label) for v, label in vertices],
                   [(perm[u], perm[v], label) for u, v, label in edges])
        if _isomorphism(g, h, _colors(g, table), _colors(h, table)) is not None:
            found += 1
    return found


class SpeedSampler:
    """Runs the kernel on a timer signal and corrects intervals by it.

    ``on_sample`` is called with each kernel duration, so that a tracer can
    keep the kernel's runs out of the spans they interrupt.
    """

    def __init__(self, on_sample=None) -> None:
        self._starts: list[int] = []
        self._durations: list[int] = []
        self._smooth: list[float] = []
        self._on_sample = on_sample
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        started = time.perf_counter_ns()
        kernel()
        duration = time.perf_counter_ns() - started
        self._starts.append(started)
        self._durations.append(duration)
        if self._on_sample is not None:
            self._on_sample(duration)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        d = self._durations
        self._smooth = [statistics.median(d[max(0, j - 1):j + 2]) for j in range(len(d))]

    def corrected_s(self, start_ns: int, end_ns: int) -> float:
        """Seconds [start_ns, end_ns) would take with the kernel at reference speed.

        Each instant takes the speed of the nearest sample, smoothed as the
        median of it and its two neighbours; the kernel's own runs are left
        out.  Call after ``stop``.
        """
        starts, durations = self._starts, self._durations
        first = max(0, bisect.bisect_right(starts, start_ns) - 1)
        last = min(len(starts) - 1, bisect.bisect_left(starts, end_ns))
        total = 0.0
        for j in range(first, last + 1):
            low = start_ns if j == 0 else max(start_ns, (starts[j - 1] + starts[j]) // 2)
            high = (end_ns if j + 1 == len(starts)
                    else min(end_ns, (starts[j] + starts[j + 1]) // 2))
            if high <= low:
                continue
            kernel_run = max(0, min(high, starts[j] + durations[j]) - max(low, starts[j]))
            total += (high - low - kernel_run) * REFERENCE_NS / self._smooth[j]
        return total / 1e9
