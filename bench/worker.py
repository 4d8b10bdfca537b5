"""One workload in one fresh process: timed rounds, then checks.

A round is one `run_simulation` over every clearing plus `write_trace`,
which is what `flexmarket run` does after set-up. A call makes ROUNDS
rounds; every round is checked, and every round must reproduce the first
round's trace bytes, work counters and failed operations exactly. Each
schedule is checked as `solve_miqp` returns it, with that check's time
taken out of every timing; the rest of the checks run after the round's
timed region.

Every timing is scaled to the reference host speed: the host-speed loop
(`tracing.speed_ms`) runs before the round, at each clearing start, after
the simulation and after `write_trace`, and each piece of the round, and
each solve in it, is multiplied by the factor of the loops around it
(`tracing.speed_scales`). The raw times are kept beside the scaled ones.

    python3 bench/worker.py --workload day3 --scenario S --out DIR \\
        --trace 0 --result result.json

`bench/run.py` starts this with BLAS threads pinned to one and `src` on
the import path; it is not meant to be run by hand except for debugging.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import checks                                                    # noqa: E402
import workloads                                                 # noqa: E402
from tracing import Patches, Probe, Tracer, clock, speed_scales  # noqa: E402

TRACE_FILES = ("clearings.csv", "agents.csv", "devices.csv", "metadata.json")

# rounds per call: fixed, so that the counts and the per-operation
# statistics do not depend on how fast the host or the program is
ROUNDS = 1


def tail_percentile(per_round: int) -> int:
    """Highest whole percentile with at least ten samples of one round
    beyond it: p86 at 72 solves, p98 at 720, p75 at 40."""
    return int(math.floor(100.0 * (per_round - 10) / per_round))


def _digest(trace_dir: Path) -> str:
    h = hashlib.sha256()
    for name in TRACE_FILES:
        h.update((trace_dir / name).read_bytes())
    return h.hexdigest()


def bnb_counters(solves: list, report: checks.CheckReport) -> dict:
    gaps = [s.gap for s in solves] or [0.0]
    return {
        "bnb.solves": len(solves),
        "bnb.nodes": sum(s.nodes for s in solves),
        "bnb.node_limit": sum(s.status == "node_limit" for s in solves),
        "bnb.proven_optimal": sum(s.status == "optimal" for s in solves),
        "bnb.gap_p50": float(np.median(gaps)),
        "bnb.gap_max": max(gaps),
        "bnb.violating": len(report.violations),
        "bnb.max_violation": report.max_violation,
    }


def over_rounds(rounds: list, key: str) -> np.ndarray:
    """Each piece, clearing or solve at its median over the rounds."""
    return np.median([r[key] for r in rounds], axis=0)


def run(workload: str, scenario_path: Path, out_dir: Path, trace: bool,
        n_rounds: int = ROUNDS) -> dict:
    import flexmarket.market as market
    import flexmarket.scenario as scenario
    import flexmarket.traceio as traceio

    trace_dir = out_dir / "trace"
    patches = Patches()
    tracer = Tracer() if trace else None
    probe = Probe()
    rounds = []
    try:
        if tracer is not None:
            tracer.install(patches)
        probe.install(patches)
        load = scenario.load_scenario
        simulate = market.run_simulation
        if tracer is not None:
            load = tracer.wrap("scenario.load_scenario", load)
            simulate = tracer.wrap("market.run_simulation", simulate)
        s = load(scenario_path)
        load_ms = tracer.layer_ms()["scenario.load_ms"] if tracer else None
        cfg = workloads.solver_config(workload)
        gammas = [a.gamma for a in s.agents]
        peak_rss_mb = None
        for _ in range(n_rounds):
            gc.collect()
            probe.new_round()
            if tracer is not None:
                tracer.new_round()
            excluded0 = clock.excluded_s
            probe.sample_speed()
            t0 = clock()
            result = simulate(s, cfg)
            t_sim = clock()
            probe.sample_speed()
            traceio.write_trace(result, trace_dir, gammas)
            t1 = clock()
            probe.sample_speed()
            if peak_rss_mb is None:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            # the round in pieces: up to the first clearing, each clearing,
            # and write_trace
            stamps = [t0] + probe.clearing_starts + [t_sim, t1]
            pieces = [b - a for a, b in zip(stamps, stamps[1:])]
            rounds.append(_check(s, result, trace_dir, probe, tracer, gammas,
                                 market, traceio, t1 - t0, pieces))
            rounds[-1]["excluded_in_round_s"] = clock.excluded_s - excluded0
            del result
    finally:
        patches.undo()

    first = rounds[0]
    problems = list(first["problems"])
    for k, r in enumerate(rounds[1:], start=2):
        problems += r["problems"]
        if (r["digest"], r["counters"], r["failures"]) != \
                (first["digest"], first["counters"], first["failures"]):
            problems.append(f"round {k} differs from round 1 "
                            "(trace, counters or failures)")
    solves_per_round = len(first["solve_s"])
    pct = tail_percentile(solves_per_round) if solves_per_round >= 40 else None
    # every round repeats the same clearings and solves; each counts with
    # its median over the rounds of its time at the reference host speed
    solve_ms = 1e3 * over_rounds(rounds, "solve_scaled_s")
    pieces = over_rounds(rounds, "pieces_scaled_s")
    clearing_ms = 1e3 * pieces[1:-1]
    out = {
        "workload": workload,
        "rounds": len(rounds),
        "attempted": first["attempted"],
        "failed": first["failed"],
        "problems": problems,
        "solves_per_round": solves_per_round,
        "tail_percentile": pct,
        "counters": first["counters"],
        "failures": first["failures"],
        "violations": first["violations"],
        "digest": first["digest"],
        "excluded_in_round_s": [r["excluded_in_round_s"] for r in rounds],
        "samples": {k: [r[k] for r in rounds]
                    for k in ("run_s", "run_scaled_s", "speed_ms", "pieces_s",
                              "pieces_scaled_s", "solve_s", "solve_scaled_s")},
        "end_to_end": {
            "run_s": float(np.sum(pieces)),
            "clearing_ms_p50": float(np.median(clearing_ms)),
            "solve_ms_p50": float(np.median(solve_ms)) if solve_ms.size else None,
            "solve_ms_tail": (float(np.percentile(solve_ms, pct))
                              if pct is not None else None),
            "peak_rss_mb": peak_rss_mb,
        },
    }
    if tracer is not None:
        layers = {k: float(np.median([r["layers"][k] for r in rounds]))
                  for k in first["layers"]}
        layers["scenario.load_ms"] = load_ms
        layers.update(first["counters"])
        out["per_layer"] = layers
        out["accounted_pct"] = [r["accounted_pct"] for r in rounds]
        _write_spans(tracer, out_dir / "spans.json")
    return out


def _check(s, result, trace_dir, probe, tracer, gammas, market, traceio,
           run_s, pieces_s) -> dict:
    """Everything after a round's timed region."""
    report = checks.check_round(s, result, trace_dir, probe.solves)
    scales = np.array(speed_scales(probe.speed_ms))
    pieces_scaled = np.asarray(pieces_s) * scales
    solve_scaled = np.asarray(probe.solve_s) * scales[probe.solve_piece]
    # verify_equilibrium reads only the agent ids of the offers
    offers = [SimpleNamespace(agent_id=a.id) for a in s.agents]
    for cr in result.clearings:
        audit = market.verify_equilibrium(cr, offers, gammas)
        if not audit.passed:
            for a in s.agents:
                report.fail(cr.step, a.id, "the program's own equilibrium audit failed")
    size = sum((trace_dir / name).stat().st_size for name in TRACE_FILES)
    counters = bnb_counters(probe.solves, report)
    counters["traceio.bytes"] = size
    rec = {
        "run_s": run_s,
        "run_scaled_s": float(pieces_scaled.sum()),
        "speed_ms": list(probe.speed_ms),
        "pieces_s": pieces_s,
        "pieces_scaled_s": pieces_scaled.tolist(),
        "solve_s": list(probe.solve_s),
        "solve_scaled_s": solve_scaled.tolist(),
        "attempted": report.attempted,
        "failed": report.failed,
        "problems": list(report.structural),
        "failures": {f"{t}/{a}": reasons for (t, a), reasons in
                     sorted(report.failures.items())},
        "violations": [list(v) for v in report.violations],
        "digest": _digest(trace_dir),
    }
    if tracer is not None:
        data = traceio.read_trace(trace_dir)
        if len(data.clearings) != len(result.clearings):
            rec["problems"].append("read_trace returned a different clearing count")
        counters.update({f"qp.{k}": v for k, v in sorted(tracer.qp.items())})
        counters["qp.setups"] = tracer.counts["qp.setup"]
        rec["layers"] = tracer.layer_ms()
        rec["accounted_pct"] = 100.0 * tracer.run_self_s() / run_s
    rec["counters"] = counters
    return rec


def _write_spans(tracer: Tracer, path: Path) -> None:
    with open(path, "w") as fh:
        json.dump({"columns": ["id", "parent", "name", "start_s", "end_s", "step"],
                   "spans": tracer.spans}, fh)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--scenario", required=True, type=Path)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True, type=Path)
    args = ap.parse_args(argv)
    out = run(args.workload, args.scenario, args.out, bool(args.trace))
    args.result.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
