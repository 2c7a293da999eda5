"""Benchmark for gstrat: three batch workloads, end to end and per layer.

    python3 perfbench/run.py --workload diels_bfs --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
``./src``.  Every workload is a closed loop with one caller in one thread;
each repetition runs in a fresh interpreter (see ``child.py``).

``--trace 0`` repeats the same input, with counting wrappers, until
``--seconds`` is spent and reports the end-to-end metrics: each operation's
latency is its median over the repetitions, and throughput is operations
over the median timed phase.  All times are corrected for the host's speed
(see ``speed.py``).  ``--trace 1`` runs one repetition with counting
wrappers and one with span wrappers on the same input, checks that their
work counts are equal, and reports the per-layer metrics.  Earlier output
lines are for people; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from probes import COUNTERS, LAYERS, WORK_COUNTS  # noqa: E402

WORKLOADS = ("diels_bfs", "catalan_solve", "inversion_sweep")
CHILD_TIMEOUT_S = 170
OUTDIR = ".perfbench_out"


class BenchError(RuntimeError):
    pass


def _source_info() -> dict:
    """Machine, Python and a fingerprint of the measured source tree."""
    digest = hashlib.sha256()
    lines = 0
    for root, dirs, files in os.walk("src"):
        dirs.sort()
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                data = fh.read()
            digest.update(path.encode() + b"\0" + data)
            lines += data.count(b"\n")
    return {"machine": platform.machine(), "cpus": os.cpu_count(),
            "python": platform.python_version(), "src_lines": lines,
            "src_sha256": digest.hexdigest()[:16]}


def _spawn(workload: str, seed: int, rep: int, mode: str, deadline: float) -> dict:
    env = dict(os.environ)
    # The workloads run with the engine's default repetition cap.
    env.pop("GSTRAT_MAX_REPEAT", None)
    env["PYTHONPATH"] = os.path.abspath("src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    outdir = os.path.join(OUTDIR, f"{workload}-{rep}-{mode}")
    os.makedirs(outdir, exist_ok=True)
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
    argv = [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed),
            mode, str(time.perf_counter_ns()), outdir]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} repetition {rep} ({mode}) timed out") from None
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{workload} repetition {rep} ({mode}) failed "
                         f"with exit code {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _describe(rep: dict, label: str) -> None:
    print(f"{label}: setup {rep['setup_s']:.3f}s, timed {rep['timed_s']:.3f}s, "
          f"{rep['attempted']} ops, {rep['failed']} failed, "
          f"rss {rep['rss_mib']:.1f} MiB")
    print("  counts: " + ", ".join(f"{k}={rep['counts'][k]}" for k in WORK_COUNTS))
    for problem in rep["problems"] + rep["errors"]:
        print(f"  ! {problem}")


def _end_to_end(workload: str, seed: int, seconds: int, deadline: float):
    reps = []
    started = time.monotonic()
    while True:
        reps.append(_spawn(workload, seed, len(reps), "count", deadline))
        _describe(reps[-1], f"repetition {len(reps) - 1}")
        elapsed = time.monotonic() - started
        # Start another repetition only while it is expected to end less than
        # half a repetition past the budget.
        if elapsed + elapsed / len(reps) / 2 >= seconds:
            break
    # Every repetition ran the same operations in the same order.
    latencies_ms = [statistics.median(times) * 1e3
                    for times in zip(*(r["latencies_s"] for r in reps))]
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    errors = [e for rep in reps for e in rep["errors"]]
    for i, rep in enumerate(reps[1:], 1):
        if rep["counts"] != reps[0]["counts"]:
            errors.append(f"repetition {i} counts differ from repetition 0")
    print(f"{len(reps)} repetitions of {len(latencies_ms)} operations")
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in reps), "s"),
        "peak_rss_mb": (statistics.median(r["rss_mib"] for r in reps), "MiB"),
        "ops_per_s": (len(latencies_ms) / statistics.median(r["timed_s"] for r in reps),
                      "1/s"),
        "op_p50_ms": (statistics.median(latencies_ms), "ms"),
        "op_p95_ms": (_quantile(latencies_ms, 95), "ms"),
    }
    return metrics, attempted, failed, errors


def _per_layer(workload: str, seed: int, deadline: float):
    plain = _spawn(workload, seed, 0, "count", deadline)
    _describe(plain, "untraced")
    traced = _spawn(workload, seed, 0, "trace", deadline)
    _describe(traced, "traced")
    errors = plain["errors"] + traced["errors"]
    for name in COUNTERS:
        if plain["counts"][name] != traced["counts"][name]:
            errors.append(f"{name}: traced {traced['counts'][name]} != "
                          f"untraced {plain['counts'][name]}")
    counts = traced["counts"]
    metrics = {name: (value, "count" if not name.endswith(".bytes") else "bytes")
               for name, value in counts.items()}
    metrics["graphs.intern.hits"] = (
        counts["graphs.intern.calls"] - counts["graphs.intern.new"], "count")
    metrics["rewrite.cache.hit_ratio"] = (_ratio(
        counts["rewrite.cache.calls"] - counts["matching.embed.calls"],
        counts["rewrite.cache.calls"]), "ratio")
    metrics["rewrite.useful_ratio"] = (_ratio(
        counts["rewrite.derivations_returned"], counts["rewrite.apply.calls"]),
        "ratio")
    # Self times are scaled by the traced phase's speed correction, so that
    # they add up to its corrected time; the sampler's own runs are left out.
    busy_ns = traced["wall_ns"] - traced["sampler_ns"]
    scale = traced["timed_s"] / busy_ns
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (traced["self_ns"][layer] * scale, "s")
    metrics["trace.unattributed_s"] = (traced["unattributed_ns"] * scale, "s")
    metrics["trace.wall_s"] = (traced["timed_s"], "s")
    metrics["trace.raw_wall_s"] = (traced["wall_ns"] / 1e9, "s")
    metrics["trace.sampler_s"] = (traced["sampler_ns"] / 1e9, "s")
    metrics["trace_overhead"] = (traced["timed_s"] / plain["timed_s"], "ratio")
    metrics["dsl.load_s"] = (traced["load_s"], "s")
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    metrics["failed_share"] = (failed / attempted, "ratio")
    return metrics, attempted, failed, errors


def _declared_metrics(kind: str) -> set[str]:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[kind]}


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    # Turn SIGTERM into an exit that stops the running child first.
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join("src", "gstrat", "__init__.py")):
        print("error: run from the root of a gstrat checkout (no src/gstrat here)",
              file=sys.stderr)
        return 2

    info = _source_info()
    print("environment: " + json.dumps(info, sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}")
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        if args.trace:
            metrics, attempted, failed, errors = _per_layer(
                args.workload, args.seed, deadline)
        else:
            metrics, attempted, failed, errors = _end_to_end(
                args.workload, args.seed, args.seconds, deadline)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(OUTDIR, ignore_errors=True)
    declared = _declared_metrics("per_layer" if args.trace else "end_to_end")
    if set(metrics) != declared:
        errors.append("metrics differ from BENCHMARK.json: "
                      f"{sorted(set(metrics) ^ declared)}")
    for error in errors:
        print(f"! {error}")
    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
