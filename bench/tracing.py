"""Instrumentation installed from the benchmark's side of the calls.

The program has no hooks of its own, so the benchmark replaces module
attributes with wrappers for the length of a run and puts them back
afterwards. A name is patched where it is looked up: `market` calls
`solve_flexibility` through its own module globals, so the wrapper goes
on `flexmarket.market.solve_flexibility`, and so on.

`Probe` takes only the timestamps the end-to-end metrics need (clearing
starts and stage-I solve times), times the host-speed loop at every
clearing start, and checks each schedule `solve_miqp` returns against its
own problem, keeping only the outcome. `Tracer` adds a span at every
layer boundary and the work counters read from the public return values.
Both read `clock`, which leaves out the time of the schedule check and
of the host-speed loop, so no timing includes either.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

from checks import check_schedule

perf = time.perf_counter

# The host-speed loop: a fixed pure-Python integer loop that calls no
# program code. REFERENCE_SPEED_MS is its time on the host the benchmark
# was proven on, in that host's fast state (Intel Xeon, 2 vCPUs,
# Python 3.11.7); a time scaled by REFERENCE_SPEED_MS / (the loop's time
# around it) is that time at the reference host speed.
SPEED_LOOP = 200_000
REFERENCE_SPEED_MS = 19.0


def speed_ms() -> float:
    """Wall time of one pass of the host-speed loop, in ms."""
    t0 = perf()
    acc = 0
    for i in range(SPEED_LOOP):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return 1e3 * (perf() - t0)


def speed_scales(loop_ms: list) -> list:
    """Host-speed factor of each interval between consecutive loop times.

    Interval j lies between loops j and j+1; its factor is
    REFERENCE_SPEED_MS over the median of the loops from two before its
    start to two after its end, so that one disturbed loop does not move
    it."""
    return [REFERENCE_SPEED_MS / statistics.median(loop_ms[max(0, j - 2): j + 4])
            for j in range(len(loop_ms) - 1)]


class Clock:
    """perf_counter less the time spent in `exclude`d calls."""

    def __init__(self):
        self.excluded_s = 0.0

    def __call__(self) -> float:
        return perf() - self.excluded_s

    def exclude(self, fn, *args):
        t0 = perf()
        try:
            return fn(*args)
        finally:
            self.excluded_s += perf() - t0


clock = Clock()


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


class Probe:
    """Clearing start stamps, host-speed loop times, stage-I solve times
    with the piece of the round each falls in, and the outcome of each
    solve (`checks.Solve`); the problems and solutions are not kept.

    The round's pieces are: up to the first clearing, each clearing, and
    what follows the last; `sample_speed` runs the loop at each boundary."""

    def __init__(self):
        self._current = None
        self.new_round()

    def new_round(self) -> None:
        self.clearing_starts = []
        self.speed_ms = []
        self.solve_s = []
        self.solve_piece = []
        self.solves = []

    def sample_speed(self) -> None:
        self.speed_ms.append(clock.exclude(speed_ms))

    def install(self, patches: Patches) -> None:
        import flexmarket.agent as agent
        import flexmarket.market as market

        slice_horizon = market.slice_horizon
        solve_flexibility = market.solve_flexibility
        solve_miqp = agent.solve_miqp

        def clearing_start(*args, **kwargs):
            self.sample_speed()
            self.clearing_starts.append(clock())
            return slice_horizon(*args, **kwargs)

        def timed_solve(spec, view, *args, **kwargs):
            self._current = (view.t_start, spec.id)
            t0 = clock()
            offer = solve_flexibility(spec, view, *args, **kwargs)
            self.solve_s.append(clock() - t0)
            self.solve_piece.append(len(self.clearing_starts))
            return offer

        def checked_miqp(miqp, cfg=None):
            sol = solve_miqp(miqp, cfg)
            self.solves.append(clock.exclude(check_schedule, *self._current,
                                             miqp, sol))
            return sol

        patches.set(market, "slice_horizon", clearing_start)
        patches.set(market, "solve_flexibility", timed_solve)
        patches.set(agent, "solve_miqp", checked_miqp)


# span name -> layer metric it feeds, and whether self or total time counts
LAYER_TIMES = {
    "scenario.load_ms": ("scenario.load_scenario", "total"),
    "agent.build_mpo_ms": ("agent.build_mpo", "total"),
    "agent.self_ms": ("agent.solve_flexibility", "self"),
    "bnb.self_ms": ("bnb.solve_miqp", "self"),
    "qp.setup_ms": ("qp.setup", "total"),
    "qp.solve_ms": ("qp.solve", "total"),
    "pricing.ms": ("pricing", "total"),
    "market.clear_ms": ("market.clear_market", "self"),
    "market.settle_ms": ("market.run_simulation", "self"),
    "traceio.write_ms": ("traceio.write_trace", "total"),
    "traceio.read_ms": ("traceio.read_trace", "total"),
    "market.verify_ms": ("market.verify_equilibrium", "total"),
}

# the spans that make up the timed region of a round (run_s)
RUN_SPANS = ("market.run_simulation", "market.clear_market", "pricing",
             "agent.solve_flexibility", "agent.build_mpo", "bnb.solve_miqp",
             "qp.setup", "qp.solve", "traceio.write_trace")


class Tracer:
    """Spans at the layer boundaries, kept in memory, plus work counters.

    A span is (id, parent id, name, start, end, clearing step). Self time
    is a span's duration minus that of its direct children. Totals are
    kept per round so that each round can be reported and compared.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self.step = -1
        self.new_round()

    def new_round(self) -> None:
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.qp = defaultdict(int)

    def wrap(self, name: str, fn, after=None):
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            frame = [clock(), 0.0, len(spans)]
            spans.append(None)
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                parent = stack[-1][2] if stack else -1
                if stack:
                    stack[-1][1] += dur
                spans[frame[2]] = (frame[2], parent, name, frame[0], end, self.step)
                self.total[name] += dur
                self.self_time[name] += dur - frame[1]
                self.counts[name] += 1
            if after is not None:
                after(out)
            return out
        return traced

    def _count_qp(self, sol) -> None:
        q = self.qp
        q["solves"] += 1
        q["iterations"] += int(sol.iterations)
        q["polished"] += int(bool(sol.polished))
        q["iteration_limit"] += int(sol.status == "iteration_limit")
        q["infeasible"] += int(sol.status == "infeasible")

    def install(self, patches: Patches) -> None:
        import flexmarket.agent as agent
        import flexmarket.market as market
        import flexmarket.qp as qp
        import flexmarket.traceio as traceio

        def at_step(view_fn):
            def slice_at(s, t, *args, **kwargs):
                self.step = t
                return view_fn(s, t, *args, **kwargs)
            return slice_at

        patches.set(market, "slice_horizon", at_step(market.slice_horizon))
        patches.set(market, "solve_flexibility",
                    self.wrap("agent.solve_flexibility", market.solve_flexibility))
        patches.set(agent, "build_mpo", self.wrap("agent.build_mpo", agent.build_mpo))
        patches.set(agent, "solve_miqp", self.wrap("bnb.solve_miqp", agent.solve_miqp))
        patches.set(qp.AdmmSolver, "__init__",
                    self.wrap("qp.setup", qp.AdmmSolver.__init__))
        patches.set(qp.AdmmSolver, "solve",
                    self.wrap("qp.solve", qp.AdmmSolver.solve, self._count_qp))
        for fn in ("aggregate_offers", "compute_prices", "positivity_region",
                   "saturation_cap", "check_budget_balance"):
            patches.set(market, fn, self.wrap("pricing", getattr(market, fn)))
        patches.set(market, "clear_market",
                    self.wrap("market.clear_market", market.clear_market))
        patches.set(market, "verify_equilibrium",
                    self.wrap("market.verify_equilibrium", market.verify_equilibrium))
        patches.set(traceio, "write_trace",
                    self.wrap("traceio.write_trace", traceio.write_trace))
        patches.set(traceio, "read_trace",
                    self.wrap("traceio.read_trace", traceio.read_trace))

    def layer_ms(self) -> dict:
        out = {}
        for metric, (span, kind) in LAYER_TIMES.items():
            src = self.self_time if kind == "self" else self.total
            out[metric] = 1e3 * src.get(span, 0.0)
        return out

    def run_self_s(self) -> float:
        """Self time of every span inside the timed region of a round."""
        return sum(self.self_time.get(name, 0.0) for name in RUN_SPANS)
