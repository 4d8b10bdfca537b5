"""Trace export and import: one CSV per entity class plus JSON metadata.

The files are clearings.csv, agents.csv and devices.csv, whose schemas
are the `*_COLUMNS` mappings below, and metadata.json, which holds the
run configuration, solver notes and final states. Each mapping lists
its file's columns in order, with the conversion that reads a column
back; the schemas are a stable interface.

Floats are written with repr, which round-trips exactly, so checks run
on a reloaded trace see the very numbers the simulation produced.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .market import SimulationTrace
from .scenario import agent_id_problem


class TraceIoError(ValueError):
    pass


def _bool(v: str) -> bool:
    if v in ("true", "True", "1"):
        return True
    if v in ("false", "False", "0"):
        return False
    raise ValueError(f"not a boolean: {v!r}")


def _opt_float(v: str):
    return None if v == "" else float(v)


# column -> converter, in file order
CLEARING_COLUMNS = {
    "step": int, "pi": float, "p0_t": float, "p_lo_t": float,
    "p_hi_t": float, "p_tilde": float, "mu": float, "mu_tilde": float,
    "positivity_ok": _bool, "saturation_ok": _bool, "lem_settlement": float,
    "budget_residual": float, "tracking_error": float, "degenerate": _bool}
AGENT_COLUMNS = {
    "step": int, "agent_id": str, "gamma": float, "p0": float, "p_lo": float,
    "p_hi": float, "bid": float, "pay_flex": float, "pay_energy": float,
    "settled_injection": float}
DEVICE_COLUMNS = {
    "step": int, "agent_id": str, "device": str, "power_kw": float,
    "planned_kw": float, "delta_kw": float, "state": _opt_float}


def _fmt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return v


def make_out_dir(out_dir) -> Path:
    """out_dir as a directory, made with its parents if missing; a path
    that cannot be one (a file, or a path under a file) is a TraceIoError."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise TraceIoError(f"cannot make directory {out}: {exc.strerror}") from exc
    return out


@contextmanager
def _writing(path: Path):
    """path opened for writing; an OSError becomes a TraceIoError naming it."""
    try:
        with open(path, "w", newline="") as fh:
            yield fh
    except OSError as exc:
        raise TraceIoError(f"cannot write {path}: {exc.strerror}") from exc


def _write_csv(path: Path, header, rows) -> None:
    with _writing(path) as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([_fmt(v) for v in row] for row in rows)


def write_trace(trace: SimulationTrace, out_dir, gammas: Sequence[float]) -> None:
    """Write the three CSVs and metadata.json into out_dir."""
    out = make_out_dir(out_dir)
    gamma_of = dict(zip(trace.agent_ids, gammas))
    _write_csv(out / "clearings.csv", CLEARING_COLUMNS, (
        (cr.step, cr.pi, cr.agg.p0_t, cr.agg.p_lo_t, cr.agg.p_hi_t,
         cr.p_tilde, cr.prices.mu, cr.prices.mu_tilde,
         cr.prices.positivity_ok, cr.prices.saturation_ok,
         cr.lem_settlement, cr.budget_residual, cr.tracking_error,
         cr.degenerate)
        for cr in trace.clearings))
    _write_csv(out / "agents.csv", AGENT_COLUMNS, (
        (cr.step, row.agent_id, gamma_of[row.agent_id], row.p0, row.p_lo,
         row.p_hi, row.bid, row.pay_flex, row.pay_energy,
         trace.injections[row.agent_id][cr.step])
        for cr in trace.clearings for row in cr.agents))
    _write_csv(out / "devices.csv", DEVICE_COLUMNS, (
        (r.step, r.agent_id, r.kind, r.power_kw, r.planned_kw, r.delta_kw,
         "" if r.state_begin is None else r.state_begin)
        for r in trace.device_records))

    meta = dict(trace.metadata)
    meta["agent_ids"] = list(trace.agent_ids)
    meta["final_states"] = {a: dict(m) for a, m in trace.final_states.items()}
    with _writing(out / "metadata.json") as fh:
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


def _read_csv(path: Path, columns: dict) -> list:
    if not path.exists():
        raise TraceIoError(f"trace file missing: {path}")
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise TraceIoError(f"trace file empty: {path}")
        if tuple(header) != tuple(columns):
            raise TraceIoError(f"{path.name}: header {header} does not match "
                               f"schema {tuple(columns)}")
        for lineno, raw in enumerate(reader, start=2):
            if not raw or not "".join(raw).strip():
                continue
            if len(raw) != len(columns):
                raise TraceIoError(f"{path.name}: line {lineno} has "
                                   f"{len(raw)} fields, expected {len(columns)}")
            try:
                rows.append({c: conv(v) for (c, conv), v
                             in zip(columns.items(), raw)})
            except ValueError as exc:
                raise TraceIoError(f"{path.name}: line {lineno}: {exc}") from exc
    return rows


def read_trace(trace_dir) -> TraceData:
    d = Path(trace_dir)
    clearings = _read_csv(d / "clearings.csv", CLEARING_COLUMNS)
    agents = _read_csv(d / "agents.csv", AGENT_COLUMNS)
    devices = _read_csv(d / "devices.csv", DEVICE_COLUMNS)
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
    problem = agent_id_problem(agent_id)
    if problem:
        raise TraceIoError(f"agent id {problem}")
    out = make_out_dir(out_dir)
    agent_ids = {r["agent_id"] for r in data.agents}
    if agent_id not in agent_ids:
        raise TraceIoError(f"unknown agent id {agent_id!r}; trace has "
                           f"{sorted(agent_ids)}")

    def totals(c):
        rows = data.agent_rows(c["step"])
        return (c["step"], c["p0_t"], c["p_tilde"],
                sum(r["bid"] for r in rows),
                sum(r["settled_injection"] for r in rows))

    own = [r for r in data.devices if r["agent_id"] == agent_id]
    reports = {
        "report_operator_injections.csv": (
            ("step", "p0_t", "p_tilde", "total_bid", "total_settled"),
            map(totals, data.clearings)),
        "report_prices.csv": (
            ("step", "pi", "mu", "mu_tilde"),
            ((c["step"], c["pi"], c["mu"], c["mu_tilde"])
             for c in data.clearings)),
        f"report_agent_{agent_id}_devices.csv": (
            ("step", "device", "power_kw"),
            ((r["step"], r["device"], r["power_kw"]) for r in own)),
        f"report_agent_{agent_id}_states.csv": (
            ("step", "device", "state"),
            ((r["step"], r["device"], r["state"]) for r in own
             if r["state"] is not None)),
    }
    written = []
    for name, (header, rows) in reports.items():
        _write_csv(out / name, header, rows)
        written.append(out / name)
    return written
