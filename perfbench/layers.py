"""Which public calls the traced run wraps, and the per-layer metrics.

Layers are the modules of ``src/repro``. Each span wraps the public
calls a layer's callers make; the Predictions table in
``perfbench/README.md`` records which end-to-end metric each one should
move, on which workload.
Counts (propagations, clauses, pivots, cache hits) come from the
program's own telemetry counter registry, which is on only in the
traced run.
"""

from collections import defaultdict
from time import perf_counter

import tracing

#: Span name -> the public callables it wraps.
TARGETS = (
    ("smtlib.parse", ("repro.smtlib.parser:parse_script",)),
    ("cache.key", ("repro.cache.keys:cache_key", "repro.cache.keys:script_digests")),
    (
        "cache.lookup",
        (
            "repro.cache.store:SolveCache.get",
            "repro.cache.store:SolveCache.find_core",
            "repro.cache.sharded:ShardedSolveCache.get",
            "repro.cache.sharded:ShardedSolveCache.find_core",
        ),
    ),
    (
        "cache.store",
        (
            "repro.cache.store:SolveCache.put",
            "repro.cache.store:SolveCache.add_core",
            "repro.cache.sharded:ShardedSolveCache.put",
            "repro.cache.sharded:ShardedSolveCache.add_core",
        ),
    ),
    (
        "cache.flush",
        ("repro.cache.store:SolveCache.save", "repro.cache.sharded:ShardedSolveCache.save"),
    ),
    ("service.admit", ("repro.service.server:SolveService.submit_line",)),
    ("service.pump", ("repro.service.server:SolveService.pump",)),
    ("service.dispatch", ("repro.service.workers:WorkerPool.dispatch",)),
    ("termination.client", ("repro.termination.automizer:Automizer.analyze",)),
    ("core.refine", ("repro.core.refinement:RefinementStaub.run",)),
    ("core.pipeline", ("repro.core.pipeline:Staub.run",)),
    ("core.session.check", ("repro.core.session:ArbitrageSession.check",)),
    ("core.infer", ("repro.core.inference:infer_bounds",)),
    ("core.transform", ("repro.core.transform:transform_script",)),
    ("core.verify", ("repro.core.verify:verify_model",)),
    ("bv.bounded_solve", ("repro.bv.solver:solve_bounded_script",)),
    ("bv.refine_round", ("repro.bv.solver:IncrementalBoundedSession.solve_round",)),
    ("bv.core_extract", ("repro.bv.solver:assertion_core_digests",)),
    (
        "bv.blast",
        (
            "repro.bv.bitblast:BitBlaster.assert_term",
            "repro.bv.bitblast:BitBlaster.blast_bool",
            "repro.bv.bitblast:BitBlaster.blast_bits",
            "repro.bv.bitblast:BitBlaster.blast_bool_pair_equal",
        ),
    ),
    ("sat.solve", ("repro.sat.solver:SatSolver.solve",)),
    ("solver.solve", ("repro.solver.facade:solve_script",)),
    ("solver.dpllt", ("repro.solver.dpllt:solve_with_theory",)),
    # The facade reaches the unbounded engines through the profiles'
    # engine classes, never through the solve_*_conjunction helpers.
    ("arith.lia", ("repro.arith.lia:LiaSolver.solve",)),
    ("arith.nia", ("repro.arith.nia:NiaSolver.solve",)),
    ("arith.nia_enum", ("repro.arith.nia_enum:NiaEnumSolver.solve",)),
    ("arith.nra", ("repro.arith.nra:NraSolver.solve",)),
)

SPANS = tuple(name for name, _ in TARGETS)

#: Per-layer metric -> unit, in report order.
UNITS = {}
for _span in SPANS:
    UNITS[f"{_span}.self_s"] = "s"
    UNITS[f"{_span}.calls"] = "count"
UNITS.update(
    {
        "sat.propagations": "count",
        "sat.conflicts": "count",
        "sat.decisions": "count",
        "sat.props_per_s": "1/s",
        "bv.blast.clauses": "count",
        "bv.blast.block_reuse": "count",
        "bv.us_per_work": "us/work",
        "bv.core_extract.total_s": "s",
        "core.verify.ok_frac": "frac",
        "core.refine.rounds_per_request": "count",
        "solver.us_per_work": "us/work",
        "arith.pivots": "count",
        "cache.hit_frac": "frac",
        "cache.core_hit_frac": "frac",
        "service.pool.queue_wait_ms": "ms",
        "service.pool.run_ms": "ms",
        "service.retries": "count",
        "service.rejected": "count",
        "termination.queries_per_request": "count",
        "request_wall_s": "s",
        "unattributed_s": "s",
        "trace_overhead_frac": "frac",
    }
)


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _bounded_work(recorder, args, result, seconds):
    # BoundedResult.work and RefinementRound.work are raw bounded units;
    # costs.from_sat maps them 1:1 onto unified work.
    recorder.work["bv"] += result.work
    recorder.work_s["bv"] += seconds


def _unbounded_work(recorder, args, result, seconds):
    if result.cached or result.engine in ("bv", "core-reuse", "guard"):
        return
    recorder.work["solver"] += result.work
    recorder.work_s["solver"] += seconds


def _tally(note, value):
    def hook(recorder, args, result, seconds):
        recorder.notes[note] += value(result)

    return hook


def hooks(dispatched):
    """Hooks for the traced calls; pool dispatch times go to ``dispatched``."""

    def on_dispatch(recorder, args, result, seconds):
        dispatched[args[1].id] = perf_counter()

    find_core = _tally("find_core", lambda result: 1)
    return {
        "repro.bv.solver:solve_bounded_script": _bounded_work,
        "repro.bv.solver:IncrementalBoundedSession.solve_round": _bounded_work,
        "repro.solver.facade:solve_script": _unbounded_work,
        "repro.core.verify:verify_model": _tally("verify_ok", lambda result: result.ok),
        "repro.core.refinement:RefinementStaub.run": _tally(
            "refine_rounds", lambda result: len(result.rounds)
        ),
        "repro.termination.automizer:Automizer.analyze": _tally(
            "queries", lambda result: len(result.queries)
        ),
        "repro.cache.store:SolveCache.find_core": find_core,
        "repro.cache.sharded:ShardedSolveCache.find_core": find_core,
        "repro.service.workers:WorkerPool.dispatch": on_dispatch,
    }


def metrics(recorder, totals, outcomes):
    """Every per-layer metric except ``trace_overhead_frac``."""
    out = {}
    for span in SPANS:
        out[f"{span}.self_s"] = recorder.self_s[span]
        out[f"{span}.calls"] = recorder.calls[span]
    propagations = totals[("solver.propagations", "sat")]
    hits = totals[("cache.hit", None)]
    pooled = [o.pool_s for o in outcomes if o.pool_s is not None]
    analyses = recorder.calls["termination.client"]
    out.update(
        {
            "sat.propagations": propagations,
            "sat.conflicts": totals[("solver.conflicts", "sat")],
            "sat.decisions": totals[("solver.decisions", "sat")],
            "sat.props_per_s": _ratio(propagations, recorder.self_s["sat.solve"]),
            "bv.blast.clauses": totals[("blast.cnf_clauses", None)],
            "bv.blast.block_reuse": totals[("blast.block_reuse", None)],
            "bv.us_per_work": 1e6 * _ratio(recorder.work_s["bv"], recorder.work["bv"]),
            "bv.core_extract.total_s": recorder.total_s["bv.core_extract"],
            "core.verify.ok_frac": _ratio(
                recorder.notes["verify_ok"], recorder.calls["core.verify"]
            ),
            "core.refine.rounds_per_request": _ratio(
                recorder.notes["refine_rounds"], recorder.calls["core.refine"]
            ),
            "solver.us_per_work": 1e6
            * _ratio(recorder.work_s["solver"], recorder.work["solver"]),
            "arith.pivots": totals[("solver.pivots", None)],
            "cache.hit_frac": _ratio(hits, hits + totals[("cache.miss", None)]),
            "cache.core_hit_frac": _ratio(
                totals[("cache.core_hit", None)], recorder.notes["find_core"]
            ),
            "service.pool.queue_wait_ms": 1000 * _ratio(sum(w for w, _ in pooled), len(pooled)),
            "service.pool.run_ms": 1000 * _ratio(sum(r for _, r in pooled), len(pooled)),
            "service.retries": totals[("service.request_retried", None)],
            "service.rejected": totals[("service.rejected", None)],
            "termination.queries_per_request": _ratio(recorder.notes["queries"], analyses),
            "request_wall_s": recorder.total_s[tracing.ROOT],
            "unattributed_s": recorder.self_s[tracing.ROOT],
        }
    )
    return out


def registry_totals(snapshot):
    """Sum a metrics-registry snapshot over labels: ``{(name, engine): n}``.

    Keys come back twice: once as ``(name, None)`` summed over every
    label set, once per ``engine`` label value.
    """
    totals = defaultdict(int)
    for rendered, value in snapshot.items():
        if isinstance(value, dict):
            continue  # histograms
        name, _, labels = rendered.partition("{")
        totals[(name, None)] += value
        for pair in labels.rstrip("}").split(","):
            key, _, label = pair.partition("=")
            if key == "engine":
                totals[(name, label)] += value
    return totals
