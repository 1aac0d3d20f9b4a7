"""The three closed-loop workloads and their correctness oracle.

Each workload is a pure function of its seed (and of the number of
request blocks the run length asks for): the program under test only
ever sees the generated inputs. Verdicts are checked against labels the
generators set -- never against another answer of the solver under
test -- and every sat model is re-evaluated on the original assertions.

The instance population of a block is fixed (generator seed
``POPULATION_SEED + block``); the workload seed shuffles the request
order and, for serve_mixed, picks tenants and where the repeats go.
Letting the seed also draw instance parameters moved the QF_NIA median
latency by a third between seeds at 108 requests, far more than any
regression bound could tolerate: per-request cost spans 30x within a
family, and the median falls between the decided and the budget-bound
requests.

- ``nia_refine``: QF_NIA instances through incremental width refinement,
  no cache. SAT search and bit-blasting dominate; cache, service and the
  unbounded arithmetic engines sit idle.
- ``termination_stream``: termination programs through the Automizer
  client, classic and session mode, over one shared solve cache with
  core reuse. The mostly-unsat RQ3 stream: baseline arithmetic lane,
  core extraction, both session back ends, core reads and writes.
- ``serve_mixed``: a solve service with a worker pool over a sharded
  cache, fed a seeded NDJSON stream over four logics and three tenants,
  a third of it repeats of already-answered requests. The only workload
  through parsing, admission, the pool and batched shard flushes.
"""

import json
import os
import random
import shutil
import sys
import tempfile
import traceback
from contextlib import contextmanager
from time import perf_counter

from repro.benchgen import suite_for
from repro.cache import SolveCache, activated, get_cache
from repro.cache.keys import cache_key
from repro.cache.sharded import ShardedSolveCache
from repro.cache.store import decode_model
from repro.errors import ReproError
from repro.service.server import SolveService
from repro.smtlib import parse_script
from repro.smtlib.evaluator import evaluate_assertions
from repro.smtlib.printer import print_script
from repro.solver import refine_script
from repro.termination.automizer import Automizer
from repro.termination.programs import termination_benchmark_suite

#: Unified work budget per request: a quarter of the bench suites' 200k,
#: so that several passes over 100+ requests fit the run length.
BUDGET = 50_000

#: Unified work budget per query of a termination analysis. Most of an
#: analysis' cost does not scale with it (translation, blasting, core
#: extraction): from 50k down to 20k a pass got only a quarter shorter,
#: and spiral programs went from 7 of 10 decided to 1.
TERMINATION_BUDGET = 20_000

#: Generator seed of block 0's instances (the bench suites' seed).
POPULATION_SEED = 2024

#: Ground truth a generator documents for a family but leaves unset on
#: the instance (``Benchmark.expected is None``).
FAMILY_LABELS = {
    # x*x = d with d a non-square and x >= 0: sat over the reals
    # (x = sqrt d), with no rational witness, so any model must fail.
    "irrational": "sat",
}

#: Termination program families -> the verdict every program of the
#: family must get when the analysis decides it.
PROGRAM_LABELS = {
    # x' = x + y - 2, y' = y - 1: y decreases without bound, so from some
    # step on every update lowers x, and the loop exits from every state.
    "coupled": "terminating",
}

#: Programs per family in one termination block. Every family of the
#: suite is in, but the costly ones are cut back against the suite's mix
#: (22/14/21/12/12/6/10 of 97) so that three passes over 100 requests fit
#: 30 s: a pass over the suite's mix scaled to 50 took 13 s, this one 9.5 s.
PROGRAM_MIX = (
    ("countdown", 20),
    ("coupled", 3),
    ("race", 8),
    ("diverge-linear", 6),
    ("diverge-geometric", 6),
    ("fixed-point", 4),
    ("spiral", 3),
)

#: Response reasons that mean the service refused or lost a request.
REJECTIONS = ("saturated", "tenant_budget", "evicted", "dropped", "worker_crashed", "deadline")

SERVE_LOGICS = ("QF_LIA", "QF_LRA", "QF_NRA", "QF_NIA")
SERVE_TENANTS = ("tenant-a", "tenant-b", "tenant-c")
#: Per-logic generator scale of one serve block (~81 fresh instances).
SERVE_SCALE = 0.5


class Outcome:
    """What the client observed for one request.

    ``wrong`` names the oracle failure (None when the answer is right or
    undecided); ``error`` names an error, rejection or crash.
    """

    __slots__ = (
        "request",
        "verdict",
        "decided",
        "work",
        "wrong",
        "error",
        "latency_s",
        "pool_s",
    )

    def __init__(self, request, verdict, decided, work, wrong=None, error=None):
        self.request = request
        self.verdict = verdict
        self.decided = decided
        self.work = work
        self.wrong = wrong
        self.error = error
        self.latency_s = None
        self.pool_s = None  # (queue wait, pool run) seconds, traced serve only

    @property
    def failed(self):
        return self.wrong is not None or self.error is not None

    def key(self):
        """The deterministic part: what two same-seed runs must agree on."""
        return (self.request, self.verdict, self.work, self.wrong, self.error)


def label_of(benchmark):
    return benchmark.expected or FAMILY_LABELS.get(benchmark.family)


def check_answer(benchmark, status, model):
    """The oracle failure for a solver answer, or None when it is right."""
    label = label_of(benchmark)
    if status == "unsat" and label == "sat":
        return "unsat on a sat-labelled instance"
    if status != "sat":
        return None
    if label == "unsat":
        return "sat on an unsat-labelled instance"
    if model is None:
        return "sat without a model"
    try:
        holds = evaluate_assertions(benchmark.script.assertions, model)
    except ReproError as error:
        return f"model does not evaluate: {error}"
    return None if holds else "model falsifies an original assertion"


def check_termination(program_name, label, verdict):
    if verdict in ("terminating", "nonterminating") and label and verdict != label:
        return f"{verdict} on a {label} program ({program_name})"
    return None


class NiaRefine:
    """QF_NIA benchgen suites through ``refine_script(incremental=True)``."""

    name = "nia_refine"
    in_process = True

    def __init__(self, seed, blocks, limit=None):
        instances = []
        for block in range(blocks):
            instances.extend(suite_for("QF_NIA", seed=POPULATION_SEED + block, scale=1.0))
        random.Random(f"nia_refine:{seed}").shuffle(instances)
        self.requests = instances[:limit]

    @contextmanager
    def session(self):
        if get_cache() is not None:
            raise RuntimeError("nia_refine runs with no active solve cache")
        yield self

    def fingerprint(self):
        return [(b.name, b.family, b.expected, b.script.size()) for b in self.requests]

    def execute(self, index):
        benchmark = self.requests[index]
        report = refine_script(benchmark.script, budget=BUDGET, incremental=True)
        decided = report.case == "verified-sat"
        wrong = check_answer(benchmark, "sat", report.model) if decided else None
        return Outcome(index, report.case, decided, report.total_work, wrong=wrong)


class TerminationStream:
    """Automizer analyses, classic and session mode, over one shared cache."""

    name = "termination_stream"
    in_process = True

    def __init__(self, seed, blocks, limit=None):
        programs = []
        for block in range(blocks):
            suite = termination_benchmark_suite(seed=POPULATION_SEED + block, count=97)
            by_family = {}
            for program, expected in suite:
                family = program.name.rsplit("-", 1)[0]
                by_family.setdefault(family, []).append((program, expected))
            for family, count in PROGRAM_MIX:
                for program, expected in by_family[family][:count]:
                    programs.append((program, expected or PROGRAM_LABELS.get(family)))
        random.Random(f"termination_stream:{seed}").shuffle(programs)
        # Each program's classic analysis comes right before its session
        # one, which then finds the baseline lane's answers in the cache.
        # Letting the seed order the two as well spread the median
        # latency by 18% across five seeds.
        requests = []
        for program, label in programs:
            requests.append((program, label, False))
            requests.append((program, label, True))
        self.requests = requests[:limit]

    @contextmanager
    def session(self):
        with activated(SolveCache()):
            yield self

    def fingerprint(self):
        return [(p.name, label, sessions) for p, label, sessions in self.requests]

    def execute(self, index):
        program, label, sessions = self.requests[index]
        analysis = Automizer(budget=TERMINATION_BUDGET, use_sessions=sessions).analyze(program)
        work = sum(q.baseline_work + q.staub_work for q in analysis.queries)
        return Outcome(
            index,
            analysis.verdict,
            analysis.verdict in ("terminating", "nonterminating"),
            work,
            wrong=check_termination(program.name, label, analysis.verdict),
        )


class _ServeRequest:
    __slots__ = ("benchmark", "text", "line", "repeat_of")

    def __init__(self, benchmark, text, line, repeat_of):
        self.benchmark = benchmark
        self.text = text
        self.line = line
        self.repeat_of = repeat_of


class ServeMixed:
    """A seeded NDJSON solve stream through ``SolveService``.

    One client keeps ``workers`` requests outstanding (one in inline
    mode). A repeat is only sent once the request it repeats has been
    answered, so which requests hit the cache depends neither on timing
    nor on the worker count.
    """

    name = "serve_mixed"
    in_process = False

    def __init__(self, seed, blocks, workers, scratch_dir, limit=None):
        fresh = []
        seen = set()
        for block in range(blocks):
            for logic in SERVE_LOGICS:
                suite = suite_for(logic, seed=POPULATION_SEED + block, scale=SERVE_SCALE)
                for benchmark in suite:
                    text = print_script(benchmark.script)
                    # Fresh requests must be distinct to the cache, or one
                    # could hit depending on completion order.
                    key = cache_key(parse_script(text), profile="zorro", budget=BUDGET)
                    if key not in seen:
                        seen.add(key)
                        fresh.append((benchmark, text))
        # Every second instance, in generator order, is asked twice: a
        # third of the stream repeats, and the same instances do on every
        # seed. The seed places each repeat somewhere after its original.
        rng = random.Random(f"serve_mixed:{seed}")
        order = list(range(len(fresh)))
        rng.shuffle(order)
        events = []  # (position, fresh index, is repeat)
        for position, item in enumerate(order):
            events.append((position, item, False))
            if item % 2:
                later = position + (len(order) - position) * (1 - rng.random())
                events.append((later, item, True))
        events.sort()
        requests = []
        first_ask = {}
        for index, (_position, item, is_repeat) in enumerate(events):
            benchmark, text = fresh[item]
            repeat_of = first_ask[item] if is_repeat else None
            first_ask.setdefault(item, index)
            line = json.dumps(
                {
                    "op": "solve",
                    "id": index,
                    "tenant": rng.choice(SERVE_TENANTS),
                    "script": text,
                    "budget": BUDGET,
                }
            )
            requests.append(_ServeRequest(benchmark, text, line, repeat_of))
        self.requests = requests[:limit]
        self.workers = workers
        self.scratch_dir = scratch_dir
        self.service = None

    @contextmanager
    def session(self):
        """A fresh service, pool and sharded cache in a scratch directory."""
        directory = tempfile.mkdtemp(prefix="serve-", dir=self.scratch_dir)
        try:
            cache = ShardedSolveCache(os.path.join(directory, "cache"), shards=4)
            self.service = SolveService(workers=self.workers, budget=BUDGET, cache=cache)
            try:
                yield self
            finally:
                self.service.close()
                self.service = None
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def fingerprint(self):
        return [(r.line, r.repeat_of) for r in self.requests]

    def outcome(self, index, payload):
        request = self.requests[index]
        if not payload.get("ok"):
            return Outcome(index, "error", False, 0, error=payload.get("error", "error"))
        status = payload.get("status")
        reason = payload.get("reason")
        if status == "unknown" and reason in REJECTIONS:
            return Outcome(index, f"rejected:{reason}", False, 0, error=f"rejected ({reason})")
        try:
            model = decode_model(payload.get("model"))
        except (KeyError, TypeError, ValueError) as error:
            return Outcome(index, status, False, 0, wrong=f"undecodable model: {error}")
        # A cache hit costs the service no solving work.
        work = 0 if payload.get("cached") else payload.get("work", 0)
        wrong = check_answer(request.benchmark, status, model)
        return Outcome(index, status, status in ("sat", "unsat"), work, wrong=wrong)

    def drive(self, recorder=None, dispatched=None):
        """Run the stream closed-loop; returns outcomes in request order.

        ``dispatched`` maps request index -> pool dispatch time when a
        traced run records it; each outcome then also gets its queue wait
        and pool run time.
        """
        service = self.service
        step = recorder.request if recorder is not None else _untraced
        window = max(1, self.workers)
        outstanding = {}  # request index -> submit time
        answered = set()
        outcomes = [None] * len(self.requests)

        def receive(responses):
            now = perf_counter()
            for _client, payload in responses:
                index = payload.get("id")
                if index not in outstanding:
                    raise RuntimeError(f"response for unknown request: {payload!r}")
                outcome = self.outcome(index, payload)
                submitted = outstanding.pop(index)
                outcome.latency_s = now - submitted
                if dispatched and index in dispatched:
                    outcome.pool_s = (dispatched[index] - submitted, now - dispatched[index])
                outcomes[index] = outcome
                answered.add(index)

        sent = 0
        while sent < len(self.requests) or outstanding:
            while sent < len(self.requests) and len(outstanding) < window:
                request = self.requests[sent]
                if request.repeat_of is not None and request.repeat_of not in answered:
                    break
                outstanding[sent] = perf_counter()
                with step(sent):
                    responses = service.submit_line(request.line)
                receive(responses)
                sent += 1
            if outstanding:
                with step(None):
                    responses = service.pump(block=True)
                receive(responses)
        return outcomes


@contextmanager
def _untraced(_request):
    yield


def drive_in_process(workload, recorder=None):
    """One request outstanding at a time; returns outcomes in order."""
    outcomes = []
    for index in range(len(workload.requests)):
        start = perf_counter()
        if recorder is None:
            outcome = _execute(workload, index)
        else:
            with recorder.request(index):
                outcome = _execute(workload, index)
        outcome.latency_s = perf_counter() - start
        outcomes.append(outcome)
    return outcomes


def _execute(workload, index):
    try:
        return workload.execute(index)
    except Exception as error:  # a crash fails the request, not the run
        traceback.print_exc(file=sys.stderr)
        return Outcome(index, "error", False, 0, error=f"{type(error).__name__}: {error}")
