"""Host-speed probe: the reference the benchmark's times are scaled by.

The hosts this benchmark runs on share their cores.  Each core
switches, independently of the other and within seconds, between two
speeds about 1.7 times apart, with CPU time equal to wall time (the
process is not descheduled, the core is slower).  A whole run can fall
inside slow stretches, so no statistic over one run's calls removes
it: over five runs of the same 120 Angha jobs the median of the
per-job fastest call moved by 25% (quartile spread over median).

So the measuring process is pinned to one core and every timed call
is paired with a probe on it: a fixed piece of Python that allocates
small objects, follows attributes, fills a dict and joins strings, as
the optimizer does, run just before the call.  A call's *scaled* time
is its time multiplied by ``factor`` of the probes of the calls around
it.  The probe's code is part of the benchmark, not of the program, so
a faster program still reads faster, while a slower host reads about
the same.

The probe runs once untimed, so the timed run finds its own data in
the caches whatever the process touched before, and with the cyclic
garbage collector paused, so a program that grows the heap cannot
slow the probe through longer collections and hide its own slowdown.
This module imports nothing beyond the interpreter's built-ins, so
probing before a timed import of the program does not load modules
the program would otherwise load.
"""

from __future__ import annotations

import gc
from time import perf_counter

#: Probe time that maps to a factor of 1, between the probe's times on
#: the fast (about 0.65 ms) and slow (about 1.2 ms) cores of a shared
#: 2-vCPU cloud host.
REFERENCE_S = 0.001
#: Calls on each side of a call whose probes scale it: few, because
#: the core's speed changes within seconds.
WINDOW = 3
#: How strongly the probe's slowdown is passed on.  The program slows
#: less than the probe when the core slows: over 43
#: passes of a mixed Angha and TSVC job list, per-pass totals varied by
#: 16% (coefficient of variation) raw, 9.4% scaled by the full probe
#: ratio, and 4.9% by its 0.75th power, the best of the powers tried.
EXPONENT = 0.75


class _Node:
    __slots__ = ("op", "left", "right", "users", "name")

    def __init__(self, op, left, right, name):
        self.op = op
        self.left = left
        self.right = right
        self.users = []
        self.name = name


def _work() -> int:
    nodes: list[_Node] = []
    by_name = {}
    for i in range(800):
        node = _Node(
            i % 5,
            nodes[i // 2] if nodes else None,
            nodes[i // 3] if nodes else None,
            "%v" + str(i),
        )
        nodes.append(node)
        by_name[node.name] = node
        if node.left is not None:
            node.left.users.append(node)
    total = 0
    for node in nodes:
        total += len(node.users) + 3 * node.op + len(by_name[node.name].name)
    return total + len(" ".join(node.name for node in nodes).split())


def probe() -> float:
    """Seconds one run of the fixed probe takes now.  An untimed run
    first brings the probe's own data into the caches, so the timed
    run does not depend on what the process touched before."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _work()
        start = perf_counter()
        _work()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def factor(probes: list[float]) -> float:
    """Scale factor for a time measured while ``probes`` were taken."""
    return (REFERENCE_S / _median(probes)) ** EXPONENT


def scaled(times: list[float], probes: list[float]) -> list[float]:
    """Each time, in run order, scaled by the median of the probes of
    the ``WINDOW`` calls on either side of it (``probes[k]`` was taken
    just before ``times[k]``)."""
    return [
        t * factor(probes[max(0, k - WINDOW): k + WINDOW + 1])
        for k, t in enumerate(times)
    ]
