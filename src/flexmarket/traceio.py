"""Trace export and import: one CSV per entity class plus JSON metadata.

Column schemas are a stable interface:

  clearings.csv  step, pi, p0_t, p_lo_t, p_hi_t, p_tilde, mu, mu_tilde,
                 positivity_ok, saturation_ok, lem_settlement,
                 budget_residual, tracking_error, degenerate
  agents.csv     step, agent_id, gamma, p0, p_lo, p_hi, bid, pay_flex,
                 pay_energy, settled_injection
  devices.csv    step, agent_id, device, power_kw, planned_kw, delta_kw,
                 state
  metadata.json  run configuration, solver notes, final states

Floats are written with repr, which round-trips exactly, so checks run
on a reloaded trace see the very numbers the simulation produced.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .market import SimulationTrace

CLEARING_COLUMNS = ("step", "pi", "p0_t", "p_lo_t", "p_hi_t", "p_tilde",
                    "mu", "mu_tilde", "positivity_ok", "saturation_ok",
                    "lem_settlement", "budget_residual", "tracking_error",
                    "degenerate")
AGENT_COLUMNS = ("step", "agent_id", "gamma", "p0", "p_lo", "p_hi", "bid",
                 "pay_flex", "pay_energy", "settled_injection")
DEVICE_COLUMNS = ("step", "agent_id", "device", "power_kw", "planned_kw",
                  "delta_kw", "state")


class TraceIoError(ValueError):
    pass


def _fmt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return v


def write_trace(trace: SimulationTrace, out_dir, gammas: Sequence[float]) -> None:
    """Write the three CSVs and metadata.json into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    with open(out / "clearings.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CLEARING_COLUMNS)
        for cr in trace.clearings:
            w.writerow([_fmt(v) for v in (
                cr.step, cr.pi, cr.agg.p0_t, cr.agg.p_lo_t, cr.agg.p_hi_t,
                cr.p_tilde, cr.prices.mu, cr.prices.mu_tilde,
                cr.prices.positivity_ok, cr.prices.saturation_ok,
                cr.lem_settlement, cr.budget_residual, cr.tracking_error,
                cr.degenerate)])

    gamma_of = dict(zip(trace.agent_ids, gammas))
    with open(out / "agents.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(AGENT_COLUMNS)
        for cr in trace.clearings:
            for row in cr.agents:
                w.writerow([_fmt(v) for v in (
                    cr.step, row.agent_id, gamma_of[row.agent_id], row.p0,
                    row.p_lo, row.p_hi, row.bid, row.pay_flex, row.pay_energy,
                    trace.injections[row.agent_id][cr.step])])

    with open(out / "devices.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(DEVICE_COLUMNS)
        for r in trace.device_records:
            w.writerow([_fmt(v) for v in (
                r.step, r.agent_id, r.kind, r.power_kw, r.planned_kw,
                r.delta_kw, "" if r.state_begin is None else r.state_begin)])

    meta = dict(trace.metadata)
    meta["agent_ids"] = list(trace.agent_ids)
    meta["final_states"] = {a: dict(m) for a, m in trace.final_states.items()}
    with open(out / "metadata.json", "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


@dataclass
class TraceData:
    """A reloaded trace: plain row dictionaries keyed by schema columns."""

    clearings: list
    agents: list
    devices: list
    metadata: dict

    def agent_rows(self, step: int) -> list:
        return [r for r in self.agents if r["step"] == step]


def _read_csv(path: Path, columns, converters) -> list:
    if not path.exists():
        raise TraceIoError(f"trace file missing: {path}")
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise TraceIoError(f"trace file empty: {path}")
        if tuple(header) != tuple(columns):
            raise TraceIoError(
                f"{path.name}: header {header} does not match schema {columns}")
        for lineno, raw in enumerate(reader, start=2):
            if not raw or not "".join(raw).strip():
                continue
            if len(raw) != len(columns):
                raise TraceIoError(f"{path.name}: line {lineno} has "
                                   f"{len(raw)} fields, expected {len(columns)}")
            try:
                rows.append({c: conv(v) for (c, conv), v
                             in zip(converters.items(), raw)})
            except ValueError as exc:
                raise TraceIoError(f"{path.name}: line {lineno}: {exc}") from exc
    return rows


def _bool(v: str) -> bool:
    if v in ("true", "True", "1"):
        return True
    if v in ("false", "False", "0"):
        return False
    raise ValueError(f"not a boolean: {v!r}")


def _opt_float(v: str):
    return None if v == "" else float(v)


def read_trace(trace_dir) -> TraceData:
    d = Path(trace_dir)
    clearings = _read_csv(d / "clearings.csv", CLEARING_COLUMNS, {
        "step": int, "pi": float, "p0_t": float, "p_lo_t": float,
        "p_hi_t": float, "p_tilde": float, "mu": float, "mu_tilde": float,
        "positivity_ok": _bool, "saturation_ok": _bool,
        "lem_settlement": float, "budget_residual": float,
        "tracking_error": float, "degenerate": _bool})
    agents = _read_csv(d / "agents.csv", AGENT_COLUMNS, {
        "step": int, "agent_id": str, "gamma": float, "p0": float,
        "p_lo": float, "p_hi": float, "bid": float, "pay_flex": float,
        "pay_energy": float, "settled_injection": float})
    devices = _read_csv(d / "devices.csv", DEVICE_COLUMNS, {
        "step": int, "agent_id": str, "device": str, "power_kw": float,
        "planned_kw": float, "delta_kw": float, "state": _opt_float})
    meta_path = d / "metadata.json"
    if not meta_path.exists():
        raise TraceIoError(f"trace file missing: {meta_path}")
    try:
        with open(meta_path) as fh:
            metadata = json.load(fh)
    except json.JSONDecodeError as exc:
        raise TraceIoError(f"metadata.json: {exc}") from exc
    return TraceData(clearings, agents, devices, metadata)


def write_report(data: TraceData, out_dir, agent_id: str) -> list:
    """Emit the four plot-ready report CSVs; returns the paths written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    agent_ids = {r["agent_id"] for r in data.agents}
    if agent_id not in agent_ids:
        raise TraceIoError(f"unknown agent id {agent_id!r}; trace has "
                           f"{sorted(agent_ids)}")
    written = []

    p = out / "report_operator_injections.csv"
    with open(p, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["step", "p0_t", "p_tilde", "total_bid", "total_settled"])
        for c in data.clearings:
            rows = data.agent_rows(c["step"])
            w.writerow([c["step"], _fmt(c["p0_t"]), _fmt(c["p_tilde"]),
                        _fmt(sum(r["bid"] for r in rows)),
                        _fmt(sum(r["settled_injection"] for r in rows))])
    written.append(p)

    p = out / "report_prices.csv"
    with open(p, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["step", "pi", "mu", "mu_tilde"])
        for c in data.clearings:
            w.writerow([c["step"], _fmt(c["pi"]), _fmt(c["mu"]),
                        _fmt(c["mu_tilde"])])
    written.append(p)

    p = out / f"report_agent_{agent_id}_devices.csv"
    with open(p, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["step", "device", "power_kw"])
        for r in data.devices:
            if r["agent_id"] == agent_id:
                w.writerow([r["step"], r["device"], _fmt(r["power_kw"])])
    written.append(p)

    p = out / f"report_agent_{agent_id}_states.csv"
    with open(p, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["step", "device", "state"])
        for r in data.devices:
            if r["agent_id"] == agent_id and r["state"] is not None:
                w.writerow([r["step"], r["device"], _fmt(r["state"])])
    written.append(p)
    return written
