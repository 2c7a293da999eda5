"""One measured repetition of a perfbench workload, in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED MODE SPAWNED_NS OUTDIR

``run.py`` starts one of these per repetition, because ``graphs._COLOR_IDS``
and ``matching.queries`` are process-global and would carry warm state from
one repetition into the next.  MODE is ``count`` (counting wrappers) or
``trace`` (counting and span wrappers).  SPAWNED_NS is the parent's
``time.perf_counter_ns()`` just before the start, so that set-up time
includes interpreter start; on Linux that clock is CLOCK_MONOTONIC, which
all processes share.
Times are corrected for the host's speed (see ``speed.py``).  The last line
of standard output is one JSON object.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time

from probes import LAYERS, Probes
from speed import SpeedSampler


def main(argv: list[str]) -> int:
    name, seed, mode, spawned_ns, outdir = argv
    if "CLOCK_MONOTONIC" not in time.get_clock_info("perf_counter").implementation:
        raise SystemExit("perf_counter is not CLOCK_MONOTONIC on this system")
    probes = Probes(trace=(mode == "trace"))
    sampler = SpeedSampler(on_sample=probes.exclude)
    sampler.start()

    import gstrat
    from workloads import WORKLOADS

    if not os.path.realpath(gstrat.__file__).startswith(os.path.realpath("src")):
        raise SystemExit(f"gstrat imported from {gstrat.__file__}, not from ./src")
    workload = WORKLOADS[name](int(seed), outdir)
    setup_end_ns = time.perf_counter_ns()
    # Wrappers go in after set-up, so set-up runs unwrapped; set-up objects
    # reach the wrappers through their classes and modules.
    probes.install()
    workload.prepare()

    timed_start_ns = time.perf_counter_ns()
    probes.start()
    spans = workload.run()
    probes.stop()
    timed_end_ns = time.perf_counter_ns()

    problems = workload.check()
    sampler.stop()
    errors = [f"{c} recorded no calls" for c in workload.expected
              if probes.counts[c] == 0]
    result = {
        "setup_s": sampler.corrected_s(int(spawned_ns), setup_end_ns),
        "load_s": workload.load_s,
        "timed_s": sampler.corrected_s(timed_start_ns, timed_end_ns),
        "latencies_s": [sampler.corrected_s(a, b) for a, b in spans],
        "attempted": len(spans),
        "failed": min(len(problems), len(spans)),
        "problems": problems[:5],
        "errors": errors,
        "counts": probes.counts,
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if probes.trace:
        result["self_ns"] = probes.self_ns
        result["wall_ns"] = probes.wall_ns
        result["sampler_ns"] = probes.excluded_ns
        result["unattributed_ns"] = probes.unattributed_ns
        if (sum(probes.self_ns[layer] for layer in LAYERS) + probes.unattributed_ns
                + probes.excluded_ns != probes.wall_ns):
            errors.append("layer self times do not add up to the wall time")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
