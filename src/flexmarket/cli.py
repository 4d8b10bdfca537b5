"""Command-line driver: run simulations, verify clearings, emit reports.

Exit codes are a stable contract: 0 success, 1 verification or pipeline
failure, 2 usage/validation errors. All outputs are deterministic
functions of the scenario plus overrides.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
from pathlib import Path

from .agent import FlexibilityOffer
from .market import (MarketError, clear_market, run_simulation,
                     verify_equilibrium)
from .pricing import check_budget_balance
from .scenario import ScenarioError, read_scenario_doc, scenario_from_dict
from .traceio import (TraceIoError, make_out_dir, read_trace, write_report,
                      write_trace)


def _parse_override(text: str):
    if "=" not in text:
        raise ValueError(f"override {text!r} must look like key=value")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip(), value


def _subscript(node, part: str, key: str):
    """The dict key or list index that one step of override `key` names."""
    if isinstance(node, dict):
        return part
    if not isinstance(node, list):
        raise ValueError(f"override {key!r}: cannot step into {part!r} of a "
                         f"{type(node).__name__} value")
    if not (part.isdecimal() and int(part) < len(node)):
        raise ValueError(f"override {key!r}: {part!r} is not an index of a "
                         f"list of {len(node)} items")
    return int(part)


def _apply_overrides(doc: dict, overrides) -> dict:
    for key, value in overrides:
        *path, leaf = key.split(".")
        node = doc
        for p in path:
            i = _subscript(node, p, key)
            if isinstance(node, dict):
                node.setdefault(i, {})
            node = node[i]
        node[_subscript(node, leaf, key)] = value
    return doc


def _load(args):
    path = Path(args.scenario)
    doc = read_scenario_doc(path)
    _apply_overrides(doc, [_parse_override(o) for o in args.override])
    return scenario_from_dict(doc, base_dir=path.parent)


def _simulate(args, out: str):
    """Run the day and write its trace to `out`, made before the run."""
    s = _load(args)
    make_out_dir(out)
    trace = run_simulation(s)
    write_trace(trace, out, [a.gamma for a in s.agents])
    return trace


def cmd_run(args) -> int:
    trace = _simulate(args, args.out)
    print(f"wrote trace to {Path(args.out)}/ ({len(trace.clearings)} clearings)")
    print(f"{'step':>4} {'pi':>7} {'mu':>8} {'mu_tilde':>8} {'p_tilde':>9} "
          f"{'tracking':>10} {'budget':>10}")
    for cr in trace.clearings:
        print(f"{cr.step:>4} {cr.pi:>7.4f} {cr.prices.mu:>8.4f} "
              f"{cr.prices.mu_tilde:>8.4f} {cr.p_tilde:>9.3f} "
              f"{cr.tracking_error:>10.2e} {cr.budget_residual:>10.2e}")
    notes = trace.metadata["solver"]["non_optimal_solves"]
    if notes:
        print(f"note: {len(notes)} stage-I solves returned node-limited "
              f"incumbents (see metadata.json)")
    return 0


def _recleared(data) -> list:
    """Re-clear every clearing of a written trace from its recorded offers,
    types, setpoint and upstream price. Each result comes with the names
    of the recorded quantities it does not reproduce exactly (floats are
    written with repr, so an intact trace reproduces every bit)."""
    out = []
    for c in data.clearings:
        rows = data.agent_rows(c["step"])
        offers = [FlexibilityOffer(r["agent_id"], r["p0"], r["p_lo"],
                                   r["p_hi"], {}) for r in rows]
        gammas = [r["gamma"] for r in rows]
        cr = clear_market(offers, gammas, c["p_tilde"], c["pi"], step=c["step"])
        recorded = {"bid": tuple(r["bid"] for r in rows), "mu": c["mu"],
                    "mu_tilde": c["mu_tilde"]}
        recleared = {"bid": cr.bids, "mu": cr.prices.mu,
                     "mu_tilde": cr.prices.mu_tilde}
        differs = [k for k in recorded if recorded[k] != recleared[k]]
        out.append((cr, offers, gammas, ",".join(differs) or "ok"))
    return out


def cmd_verify(args) -> int:
    # checked before any simulation: a tolerance of inf passes anything,
    # and one of nan or below zero fails every clearing
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise ValueError(f"--tol must be finite and positive, got {args.tol}")
    if args.grid_points < 100:
        raise ValueError(f"--grid-points must be at least 100, got {args.grid_points}")
    if not (args.scenario or args.out):
        print("verify: give --scenario to run inline or --out with a trace",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        out = args.out or tmp
        if args.scenario:  # an inline run is audited from the trace it writes
            _simulate(args, out)
        checks = _recleared(read_trace(out))

    failures = []
    print(f"{'step':>4} {'nash':>6} {'stackelberg':>12} {'budget':>10} "
          f"{'max_improvement':>16} {'trace':>12}")
    for cr, offers, gammas, replay in checks:
        rep = verify_equilibrium(cr, offers, gammas,
                                 grid_points=args.grid_points, tol=args.tol)
        budget = check_budget_balance(cr.prices, cr.bids, cr.agg, cr.pi,
                                      tol=args.tol)
        if not (rep.passed and budget.ok and replay == "ok"):
            failures.append(cr.step)
        impr = max(rep.improvements.values()) if rep.improvements else 0.0
        print(f"{cr.step:>4} {str(rep.nash_ok):>6} {str(rep.stackelberg_ok):>12} "
              f"{str(budget.ok):>10} {impr:>16.3e} {replay:>12}")
    if failures:
        print(f"FAILED clearings: {failures}")
        return 1
    print("all clearings pass")
    return 0


def cmd_report(args) -> int:
    if args.scenario:
        _simulate(args, args.out)
    data = read_trace(args.out)
    if not data.agents:
        raise TraceIoError("trace has no agent rows")
    agent = args.agent or data.agents[0]["agent_id"]
    paths = write_report(data, args.out, agent)
    for p in paths:
        print(f"wrote {p}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="flexmarket",
        description="Consumer-level flexibility market simulator")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, scenario_required):
        p.add_argument("--scenario", required=scenario_required,
                       help="scenario JSON file")
        p.add_argument("--out", default=None, help="trace directory")
        p.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="dotted-path scenario override (repeatable)")

    p_run = sub.add_parser("run", help="simulate a scenario and export the trace")
    common(p_run, scenario_required=True)
    p_run.set_defaults(func=cmd_run, out_required=True)

    p_ver = sub.add_parser("verify", help="check every clearing's equilibrium")
    common(p_ver, scenario_required=False)
    p_ver.add_argument("--grid-points", type=int, default=10000)
    p_ver.add_argument("--tol", type=float, default=1e-6)
    p_ver.set_defaults(func=cmd_verify, out_required=False)

    p_rep = sub.add_parser("report", help="emit plot-ready CSV reports")
    common(p_rep, scenario_required=False)
    p_rep.add_argument("--agent", default=None, help="agent id for reports")
    p_rep.set_defaults(func=cmd_report, out_required=True)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "out_required", False) and not args.out:
        print(f"{args.command}: --out is required", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ScenarioError, TraceIoError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MarketError as exc:
        print(f"pipeline failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
