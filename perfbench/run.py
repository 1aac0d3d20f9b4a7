#!/usr/bin/env python3
"""Wall-clock benchmark of the STAUB stack, driven through its public API.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload nia_refine --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload untraced and reports the end-to-end
metrics; ``--trace 1`` runs one untraced pass and then one pass with
every layer's public calls wrapped in spans (see ``tracing.py``), and
reports the per-layer metrics, including the tracing overhead against
the untraced pass. Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Any wrong verdict, error or rejection makes
``correct`` false and the exit code 1.

Each workload has a fixed request list of at least 100 requests (see
``BLOCKS``); it never depends on timing. An untraced run makes as many
passes over it as ``--seconds`` holds at ``PASS_SECONDS`` each, and at
least ``MIN_PASSES``.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
from contextlib import ExitStack
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
#: Scratch space inside the checkout (service cache shards, traces).
SCRATCH = CHECKOUT / ".perfbench"

WORKLOADS = ("nia_refine", "termination_stream", "serve_mixed")

#: Request blocks per workload: 108, 100 and 339 requests.
BLOCKS = {"nia_refine": 2, "termination_stream": 1, "serve_mixed": 3}

#: Fewest untraced passes over the request list a run makes, each from a
#: fresh session. A request's latency is its fastest pass, so a slow
#: phase of a shared machine (a pure-Python loop there ran 1.0x-1.65x
#: its best time, in phases of seconds) has to hit every pass to show.
MIN_PASSES = 3

#: Seconds budgeted per pass: 1.25x what one took on a quiet 2-core x86
#: machine (5.8 s, 9.3 s, 2.9 s), so that a run stays within
#: ``--seconds`` on a machine up to a quarter slower. The pass count
#: depends on ``--seconds`` only, not on the clock: a count that grows
#: on a fast stretch of the machine takes minima over more passes there
#: and widens the spread across runs.
PASS_SECONDS = {"nia_refine": 7.25, "termination_stream": 11.5, "serve_mixed": 3.6}

#: Set-up (input generation, service and pool start) is repeated this
#: many times per run and its median reported, so a one-off stall does
#: not read as a set-up regression.
SETUP_REPEATS = 5

#: Most pool workers serve_mixed starts, whatever the CPU count.
MAX_WORKERS = 8

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_rps": "1/s",
    "decided_frac": "frac",
    "work_units_per_request": "work",
    "peak_rss_mb": "MB",
}


#: Fallback origin of :func:`process_age` where ``/proc`` is missing.
_STARTED = time.perf_counter()


def process_age():
    """Seconds since this process started (since this module ran, off Linux)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _STARTED


def worker_count():
    return max(1, min(len(os.sched_getaffinity(0)), MAX_WORKERS))


def make_workload(name, seed, limit=None, workers=None):
    import workloads

    blocks = BLOCKS[name]
    if name == "nia_refine":
        return workloads.NiaRefine(seed, blocks, limit=limit)
    if name == "termination_stream":
        return workloads.TerminationStream(seed, blocks, limit=limit)
    SCRATCH.mkdir(exist_ok=True)
    if workers is None:
        workers = worker_count()
    return workloads.ServeMixed(seed, blocks, workers, str(SCRATCH), limit=limit)


def drive(workload, recorder=None, dispatched=None):
    import workloads

    if workload.in_process:
        return workloads.drive_in_process(workload, recorder)
    return workload.drive(recorder, dispatched)


def set_up(name, seed, stack, limit=None, workers=None):
    """Build the workload and open its session ``SETUP_REPEATS`` times.

    Returns ``(workload, seconds of the median set-up)``; the last
    session stays open on ``stack``.
    """
    times = []
    fingerprint = None
    for attempt in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = make_workload(name, seed, limit=limit, workers=workers)
        if attempt + 1 < SETUP_REPEATS:
            with workload.session():
                times.append(time.perf_counter() - start)
        else:
            stack.enter_context(workload.session())
            times.append(time.perf_counter() - start)
        current = workload.fingerprint()
        if fingerprint is not None and current != fingerprint:
            raise RuntimeError("the same seed generated different inputs")
        fingerprint = current
    return workload, statistics.median(times)


def timed_pass(workload):
    """One untraced pass: ``(outcomes, wall seconds, None)``."""
    start = time.perf_counter()
    outcomes = drive(workload)
    return outcomes, time.perf_counter() - start, None


def traced_pass(workload):
    """One traced pass: ``(outcomes, request wall, (recorder, counters))``."""
    import layers
    import tracing
    from repro import telemetry
    from repro.telemetry.metrics import MetricsRegistry

    recorder = tracing.SpanRecorder()
    dispatched = {}
    previous = telemetry.get_registry()
    telemetry.enable(registry=MetricsRegistry())
    try:
        with recorder.installed(layers.TARGETS, layers.hooks(dispatched)):
            outcomes = drive(workload, recorder, dispatched)
        totals = layers.registry_totals(telemetry.snapshot())
    finally:
        telemetry.disable()
        telemetry.set_registry(previous)
    return outcomes, recorder.total_s[tracing.ROOT], (recorder, totals)


def run_passes(workload, stack, measures):
    """One pass per ``measures`` entry, each in a fresh session.

    The first pass runs in the session set-up left open on ``stack``.
    Every pass must agree on every verdict and work count.
    """
    results = [measures[0](workload)]
    stack.close()
    for measure in measures[1:]:
        with workload.session():
            results.append(measure(workload))
    keys = [outcome.key() for outcome in results[0][0]]
    for outcomes, _, _ in results[1:]:
        if [outcome.key() for outcome in outcomes] != keys:
            raise RuntimeError("two passes over the same requests answered differently")
    return results


def fastest(results):
    """Outcomes with each request's fastest latency; fastest pass wall."""
    first = results[0][0]
    for outcomes, _, _ in results[1:]:
        for best, other in zip(first, outcomes):
            if other.latency_s < best.latency_s:
                best.latency_s = other.latency_s
                best.pool_s = other.pool_s
    return first, min(wall for _, wall, _ in results)


def latency_ms(outcomes, fraction):
    """Harrell-Davis estimate of a latency quantile, in ms.

    A weighted mean of all order statistics, centred on the quantile:
    where the distribution is sparse (between decided and budget-bound
    requests) it does not jump from one request to the next the way a
    single order statistic does.
    """
    from scipy.stats.mstats import hdquantiles

    latencies = [outcome.latency_s for outcome in outcomes]
    return 1000 * float(hdquantiles(latencies, prob=[fraction])[0])


def end_to_end(outcomes, wall_s, setup_s):
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": setup_s,
        "latency_p50_ms": latency_ms(outcomes, 0.5),
        "latency_p90_ms": latency_ms(outcomes, 0.9),
        "throughput_rps": len(outcomes) / wall_s,
        "decided_frac": sum(outcome.decided for outcome in outcomes) / len(outcomes),
        "work_units_per_request": sum(outcome.work for outcome in outcomes) / len(outcomes),
        "peak_rss_mb": (own + children) / 1024,
    }


def report(outcomes, metrics, units, passes=1):
    failed = [o for o in outcomes if o.failed]
    for outcome in failed:
        print(
            f"FAILED request {outcome.request}: {outcome.wrong or outcome.error}",
            file=sys.stderr,
        )
    samples = len(outcomes)
    print(
        f"requests {samples}  passes {passes}  failed {len(failed)}"
        f"  failed_frac {len(failed) / samples:.4f}"
    )
    for name, value in metrics.items():
        print(f"{name:36s} {value:16.6f} {units[name]}")
    payload = {
        "correct": not failed,
        "attempted": samples,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(payload))
    return 0 if not failed else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    source = CHECKOUT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no STAUB sources under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    import workloads  # noqa: F401 -- imports the program under test

    imports_s = process_age()
    with ExitStack() as stack:
        workload, setup_s = set_up(args.workload, args.seed, stack)
        if args.trace:
            # An untraced pass first, as the reference for the overhead.
            results = run_passes(workload, stack, [timed_pass, traced_pass])
        else:
            passes = max(MIN_PASSES, int(args.seconds // PASS_SECONDS[args.workload]))
            results = run_passes(workload, stack, [timed_pass] * passes)
    if not args.trace:
        # Measured after the sessions closed, so reaped pool workers count.
        outcomes, wall_s = fastest(results)
        metrics = end_to_end(outcomes, wall_s, imports_s + setup_s)
        return report(outcomes, metrics, END_TO_END_UNITS, len(results))
    import layers

    (untraced, _, _), (outcomes, _, (recorder, totals)) = results
    SCRATCH.mkdir(exist_ok=True)
    recorder.write(SCRATCH / f"trace-{args.workload}-{args.seed}.jsonl")
    metrics = layers.metrics(recorder, totals, outcomes)
    metrics["trace_overhead_frac"] = latency_ms(outcomes, 0.5) / latency_ms(untraced, 0.5) - 1
    return report(outcomes, metrics, layers.UNITS, len(results))


if __name__ == "__main__":
    sys.exit(main())
