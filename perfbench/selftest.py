#!/usr/bin/env python3
"""Self-checks of the benchmark itself (small inputs, about a minute).

Run from the root of a checkout::

    python3 perfbench/selftest.py

- a planted wrong verdict is caught by the oracle and fails the run;
- two runs of the same seed give identical verdict and work sequences,
  and serve_mixed gives the same ones inline and with a worker pool;
- a traced run changes no answer, and its layer self times plus
  ``unattributed_s`` sum to the request wall time;
- the root spans cover what the client timed, and every written span
  lies inside its parent and carries its parent's request id.
"""

import io
import json
import sys
from contextlib import ExitStack, redirect_stderr, redirect_stdout
from pathlib import Path

import run

sys.path.insert(0, str(run.CHECKOUT / "src"))

import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def _outcomes(name, limit, workers=None, trace=False):
    """Outcomes of a small run, and its layer metrics when traced."""
    with ExitStack() as stack:
        workload, _ = run.set_up(name, SEED, stack, limit=limit, workers=workers)
        measures = [run.timed_pass, run.traced_pass if trace else run.timed_pass]
        results = run.run_passes(workload, stack, measures)
    outcomes, _, traced = results[-1]
    if not trace:
        return outcomes, None
    recorder, totals = traced
    run.SCRATCH.mkdir(exist_ok=True)
    recorder.write(run.SCRATCH / f"trace-{name}-{SEED}.jsonl")
    return outcomes, layers.metrics(recorder, totals, outcomes)


def _keys(outcomes):
    return [outcome.key() for outcome in outcomes]


class _FakeReport:
    def __init__(self, model):
        self.case = "verified-sat"
        self.model = model
        self.total_work = 1


def check_planted_wrong_verdicts():
    suite = workloads.suite_for("QF_NIA", seed=SEED, scale=1.0)
    unsat = next(b for b in suite if b.expected == "unsat")
    cubes = next(b for b in suite if b.family == "math-cubes" and b.planted_model)
    assert workloads.check_answer(cubes, "sat", cubes.planted_model) is None
    off_by_one = dict(cubes.planted_model, z=cubes.planted_model["z"] + 1)
    assert workloads.check_answer(cubes, "sat", off_by_one) is not None
    assert workloads.check_answer(cubes, "unsat", None) is not None
    assert workloads.check_answer(unsat, "sat", {"x": 0, "y": 0, "z": 0}) is not None
    assert workloads.check_termination("race-00", "terminating", "nonterminating")
    assert workloads.check_termination("race-00", "terminating", "unknown") is None

    # End to end: a solver that claims sat with a wrong model on one
    # sat-labelled and one unsat-labelled instance fails the run.
    planted = {id(unsat.script): {"x": 0, "y": 0, "z": 0}, id(cubes.script): off_by_one}
    real = workloads.refine_script
    workloads.refine_script = lambda script, **_: _FakeReport(planted[id(script)])
    try:
        workload = workloads.NiaRefine(SEED, 1, limit=0)
        workload.requests = [unsat, cubes]
        outcomes = workloads.drive_in_process(workload)
    finally:
        workloads.refine_script = real
    assert [o.failed for o in outcomes] == [True, True], [o.wrong for o in outcomes]
    printed = io.StringIO()
    with redirect_stdout(printed), redirect_stderr(io.StringIO()):
        code = run.report(outcomes, {"latency_p50_ms": 1.0}, run.END_TO_END_UNITS)
    result = json.loads(printed.getvalue().strip().splitlines()[-1])
    assert code == 1 and result["correct"] is False and result["failed"] == 2


def check_same_seed_same_answers():
    for name, limit in (("nia_refine", 4), ("termination_stream", 6)):
        first, _ = _outcomes(name, limit)
        second, _ = _outcomes(name, limit)
        assert _keys(first) == _keys(second), name
        assert not any(o.failed for o in first), name
    inline, _ = _outcomes("serve_mixed", 30, workers=0)
    pooled, _ = _outcomes("serve_mixed", 30, workers=2)
    again, _ = _outcomes("serve_mixed", 30, workers=2)
    assert _keys(inline) == _keys(pooled) == _keys(again)
    assert not any(o.failed for o in inline)
    assert any(o.work == 0 and o.decided for o in inline), "no repeat hit the cache"


def check_traced_run():
    for name, limit in (("termination_stream", 6), ("serve_mixed", 30)):
        untraced, _ = _outcomes(name, limit)
        outcomes, metrics = _outcomes(name, limit, trace=True)
        assert _keys(outcomes) == _keys(untraced), name
        layer_total = sum(metrics[f"{span}.self_s"] for span in layers.SPANS)
        wall = metrics["request_wall_s"]
        assert abs(layer_total + metrics["unattributed_s"] - wall) <= 1e-6 * wall, name
        assert set(metrics) | {"trace_overhead_frac"} == set(layers.UNITS), name
        if name == "termination_stream":
            # In-process, a root span is one request: together they cover
            # what the client timed, less only the client's own calls.
            timed = sum(outcome.latency_s for outcome in outcomes)
            assert 0 <= timed - wall <= 0.01 * timed, (name, timed, wall)
        _check_written_spans(name)


def _check_written_spans(name):
    trace = Path(run.SCRATCH) / f"trace-{name}-{SEED}.jsonl"
    spans = {}
    for line in trace.read_text().splitlines():
        span = json.loads(line)
        assert set(span) == {"id", "name", "start", "end", "parent", "request"}, span
        spans[span["id"]] = span
    assert any(span["name"] != tracing.ROOT for span in spans.values()), name
    for span in spans.values():
        assert span["start"] <= span["end"], span
        if span["name"] == tracing.ROOT:
            assert span["parent"] is None, span
            continue
        parent = spans[span["parent"]]
        assert parent["start"] <= span["start"] and span["end"] <= parent["end"], span
        assert span["request"] == parent["request"], span


CHECKS = (check_planted_wrong_verdicts, check_same_seed_same_answers, check_traced_run)


def main():
    failures = 0
    for check in CHECKS:
        try:
            check()
        except AssertionError as error:
            failures += 1
            print(f"FAIL {check.__name__}: {error}")
        else:
            print(f"ok   {check.__name__}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
