"""Instrumentation that the benchmark installs into ``tieredmnl`` from outside.

Nothing under ``src/`` knows about it: every hook replaces a public function
or method where its caller looks it up (a module attribute such as
``tieredmnl.policies.solve_two_tier`` or a class attribute such as
``EpochLedger.record_step``).

``Probe`` always wraps the policy that ``make_policy`` returns, to time each
customer's ``offer`` + ``observe`` and to note the first step (the end of
set-up), and wraps ``simulator.run`` to keep each run's outputs for the
correctness gate.  With a ``Tracer`` it also records spans at the coarse
layer boundaries and counts the very hot, tiny calls.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

LAYERS = ("model", "optimizer", "estimation", "policies", "simulator", "cli")

# Called about a million times per replication: spans would balloon memory,
# so these keep a call count, a time total and a log2 histogram instead.
HOT_CALLS = (
    "estimation.valuation_ucb",
    "estimation.valuation_estimate",
    "model.sample",
    "model.visible_at",
    "model.sampler_build",
    "model.expected_profit",
)
HIST_BUCKETS = 64  # bucket k counts calls lasting [2^(k-1), 2^k) ns


class SetupDone(Exception):
    """Raised at the first step when a child only measures set-up."""


class Tracer:
    """In-memory spans (name, start, end, parent) plus hot-call aggregates,
    all in integer nanoseconds.

    A span's self time is its duration minus its child spans' durations and
    minus the hot calls made while it was the innermost open span.  The
    wrappers' own cost (about 1 us per hot call) stays in the enclosing
    span's self time; ``trace.overhead_ratio`` reports the total.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_hot = array("q")
        self._stack = [-1]
        # name -> [calls, total ns, histogram]
        self.hot = {name: [0, 0, [0] * HIST_BUCKETS] for name in HOT_CALLS}
        self.counters: dict[str, int] = {}

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def span(self, name: str, fn, counter: str | None = None):
        """Wrap ``fn`` so each call records one span named ``name``."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1])
            self.span_start.append(0)
            self.span_end.append(0)
            self.span_hot.append(0)
            if counter is not None:
                self.count(counter)
            stack.append(idx)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                self.span_start[idx] = t0
                self.span_end[idx] = t1

        return traced

    def hot_call(self, name: str, fn):
        """Wrap ``fn`` so each call only adds to ``name``'s aggregates."""
        stats = self.hot[name]
        hist = stats[2]
        stack = self._stack
        span_hot = self.span_hot
        perf_counter_ns = time.perf_counter_ns

        def counted(*args, **kwargs):
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf_counter_ns() - t0
                stats[0] += 1
                stats[1] += d
                hist[d.bit_length()] += 1
                top = stack[-1]
                if top >= 0:
                    span_hot[top] += d

        return counted

    def hot_seconds(self, name: str) -> float:
        return self.hot[name][1] * 1e-9

    def span_table(self):
        """Per-span arrays: name ids, durations and self times (s)."""
        names = np.frombuffer(self.span_name, dtype=np.int64)
        parents = np.frombuffer(self.span_parent, dtype=np.int64)
        dur_ns = np.frombuffer(self.span_end, dtype=np.int64) - np.frombuffer(
            self.span_start, dtype=np.int64
        )
        nested = parents >= 0
        covered = np.bincount(parents[nested], weights=dur_ns[nested], minlength=len(dur_ns))
        self_ns = dur_ns - covered - np.frombuffer(self.span_hot, dtype=np.int64)
        return names, dur_ns * 1e-9, self_ns * 1e-9

    def save(self, path) -> None:
        """Write every span and the hot-call histograms as one ``.npz``."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            span_name=np.frombuffer(self.span_name, dtype=np.int64),
            span_parent=np.frombuffer(self.span_parent, dtype=np.int64),
            span_start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            span_end_ns=np.frombuffer(self.span_end, dtype=np.int64),
            hot_names=np.array(HOT_CALLS),
            hot_calls=np.array([self.hot[n][0] for n in HOT_CALLS]),
            hot_ns=np.array([self.hot[n][1] for n in HOT_CALLS]),
            hot_histogram=np.array([self.hot[n][2] for n in HOT_CALLS]),
        )


class TimedPolicy:
    """Stands in for the policy ``make_policy`` built: one timer pair around
    ``offer`` and one around ``observe`` per customer."""

    def __init__(self, inner, probe: "Probe"):
        self.inner = inner
        self._probe = probe
        self._offer = inner.offer
        self._observe = inner.observe
        tracer = probe.tracer
        if tracer is not None:
            self._offer = tracer.span("policies.offer", self._offer)
            self._observe = tracer.span("policies.observe", self._observe)
        self._offer_s = 0.0
        self._last_offer = None

    def offer(self, t):
        probe = self._probe
        if probe.first_step is None:
            probe.mark_first_step()
        tracer = probe.tracer
        if tracer is not None:
            before = probe.resolves()
        t0 = time.perf_counter()
        offer = self._offer(t)
        self._offer_s = time.perf_counter() - t0
        if tracer is not None and probe.resolves() != before:
            tracer.count("policies.resolves_seen")
            if offer != self._last_offer:
                tracer.count("policies.resolves_useful")
        self._last_offer = offer
        return offer

    def observe(self, t, offer, outcome):
        t0 = time.perf_counter()
        self._observe(t, offer, outcome)
        self._probe.decisions.append(self._offer_s + time.perf_counter() - t0)


class Probe:
    """Per-child measurement state: set-up end and, per pass of the workload,
    per-step decision times, each run's outputs and, when tracing, the
    ``Tracer``."""

    def __init__(self, spawn_t: float, tracer: Tracer | None = None, setup_only=False):
        self.spawn_t = spawn_t
        self.tracer = tracer
        self.setup_only = setup_only
        self.setup_s: float | None = None
        self._policies: list[TimedPolicy] = []
        self.new_pass()

    def new_pass(self) -> None:
        """Forget the previous pass; set-up time stays that of the first."""
        self.first_step: float | None = None
        self.decisions = array("d")
        self.batch_end: float | None = None
        self.runs: list[tuple] = []  # (policy label, rep, RegretTrace, policy)
        self._policies.clear()
        # filled in by the workload that produces them
        self.solve_ms: dict[str, list[float]] = {"exact": [], "shared": [], "disjoint": []}
        self.capped = 0
        self.peak_mb = 0.0
        self.bytes_written = 0

    def mark_first_step(self) -> None:
        """End of set-up: the first customer step or the first solve."""
        if self.setup_s is None:
            self.setup_s = time.monotonic() - self.spawn_t
        self.first_step = time.perf_counter()
        if self.setup_only:
            raise SetupDone()

    def resolves(self) -> int:
        counters = self.tracer.counters
        return counters.get("policies.full_resolves", 0) + counters.get(
            "policies.tier1_resolves", 0
        )

    def install(self) -> None:
        import tieredmnl.cli as cli
        import tieredmnl.policies as policies
        import tieredmnl.simulator as simulator
        from tieredmnl.estimation import EpochLedger
        from tieredmnl.model import Catalog, ChoiceSampler

        make_policy = simulator.make_policy

        def timed_make_policy(*args, **kwargs):
            wrapped = TimedPolicy(make_policy(*args, **kwargs), self)
            self._policies.append(wrapped)
            return wrapped

        simulator.make_policy = timed_make_policy

        run = simulator.run
        tracer = self.tracer
        if tracer is not None:
            run = tracer.span("simulator.run", run)

        def recorded_run(config, policy_spec, seed=0):
            trace = run(config, policy_spec, seed)
            policy = self._policies[-1].inner
            self.runs.append((policy_spec.display_label, seed, trace, policy))
            return trace

        simulator.run = recorded_run
        if tracer is None:
            return

        span, hot = tracer.span, tracer.hot_call
        solve = "optimizer.solve_two_tier"
        simulator.solve_two_tier = span(
            solve, simulator.solve_two_tier, "simulator.benchmark_resolves"
        )
        policies.solve_two_tier = span(solve, policies.solve_two_tier, "policies.full_resolves")
        policies.solve_tier1_given_tier2 = span(
            "optimizer.solve_tier1", policies.solve_tier1_given_tier2, "policies.tier1_resolves"
        )
        EpochLedger.record_step = span("estimation.record_step", EpochLedger.record_step)
        EpochLedger.valuation_ucb = hot("estimation.valuation_ucb", EpochLedger.valuation_ucb)
        EpochLedger.valuation_estimate = hot(
            "estimation.valuation_estimate", EpochLedger.valuation_estimate
        )
        ChoiceSampler.sample = hot("model.sample", ChoiceSampler.sample)
        Catalog.visible_at = hot("model.visible_at", Catalog.visible_at)
        simulator.ChoiceSampler = hot("model.sampler_build", simulator.ChoiceSampler)
        simulator.expected_profit = hot("model.expected_profit", simulator.expected_profit)
        cli.run_experiment = span("simulator.run_experiment", cli.run_experiment)
        cli.write_trace_csv = span("cli.write_csv", cli.write_trace_csv)
        cli.write_mean_curve_csv = span("cli.write_csv", cli.write_mean_curve_csv)
        cli.line_chart = span("cli.line_chart", cli.line_chart)
