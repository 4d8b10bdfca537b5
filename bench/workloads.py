"""Workload definitions: the scenario each workload runs and its solver budget.

`day3` is the bundled three-home day. `fleet_thermal` and `exact_storage`
are generated here from the bundled homes and series, written to a
scenario file before any timing starts, and then loaded by the program
like any user scenario. Generation is excluded from every metric.

The generated inputs do not depend on the run's `--seed`: `fleet_thermal`
and `day3` carry counted solver faults whose count must repeat exactly,
and branch-and-bound work on `exact_storage` varies far more between
random storage sets than any usable bound. The fleet generator still
takes a seed of its own (`FLEET_SEED`), so other fleets are one argument
away.
"""

from __future__ import annotations

import csv
import json
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
DAY3 = SCENARIOS / "three_agent_day.json"

WORKLOADS = ("day3", "fleet_thermal", "exact_storage")

FLEET_SEED = 7
FLEET_AGENTS = 30
STORAGE_STEPS = 8
STORAGE_HORIZON = 3


def _series(name: str) -> list:
    with open(SCENARIOS / "series" / f"{name}.csv", newline="") as fh:
        rows = [(int(r[0]), float(r[1])) for r in list(csv.reader(fh))[1:] if r]
    return [v for _, v in sorted(rows)]


def _bundled() -> dict:
    with open(DAY3) as fh:
        return json.load(fh)


def _common(doc: dict, total_steps: int, horizon_len: int) -> dict:
    """Time, weights, policy and inline series shared by generated days."""
    return {
        "time": {"dt_hours": 1.0, "total_steps": total_steps,
                 "horizon_len": horizon_len, "temperature_unit": "F"},
        "weights": dict(doc["weights"]),
        "policy": {"beta": doc["policy"]["beta"][:total_steps],
                   "clip_to_positivity": True},
        "series": {name: _series(name) for name in
                   ("outdoor_temp", "irradiance_frac", "lem_price")},
    }


def _r(v: float) -> float:
    return round(v, 4)


def fleet_thermal_doc(seed: int = FLEET_SEED, n_agents: int = FLEET_AGENTS,
                      total_steps: int = 24) -> dict:
    """Homes with a heat pump, PV and fixed load only, scaled from the
    bundled homes: agent i copies home (i mod 3) and draws every scale
    factor from `random.Random(seed)`."""
    doc = _bundled()
    rng = random.Random(seed)
    agents = []
    for i in range(n_agents):
        home = doc["agents"][i % len(doc["agents"])]
        hp = dict(home["devices"]["heat_pump"])
        hp["p_rated_kw"] = _r(hp["p_rated_kw"] * rng.uniform(0.8, 1.25))
        hp["r_th"] = _r(hp["r_th"] * rng.uniform(0.85, 1.15))
        hp["c_th"] = _r(hp["c_th"] * rng.uniform(0.85, 1.15))
        hp["cop"] = _r(hp["cop"] * rng.uniform(0.9, 1.1))
        hp["t_init"] = _r(hp["t_setpoint"] + rng.uniform(-1.5, 1.5))
        pv = {"p_rated_kw": _r(home["devices"]["pv"]["p_rated_kw"]
                               * rng.uniform(0.6, 1.4))}
        load = rng.uniform(0.7, 1.3)
        fixed = [_r(v * load) for v in _series(Path(home["fixed_load"]).stem)]
        agents.append({
            "id": f"f{i:02d}", "gamma": _r(home["gamma"] * rng.uniform(0.7, 1.3)),
            "eps_lo": home["eps_lo"], "eps_hi": home["eps_hi"],
            "fixed_load": fixed,
            "devices": {"heat_pump": hp, "pv": pv}})
    out = _common(doc, total_steps, doc["time"]["horizon_len"])
    out["agents"] = agents
    return out


def exact_storage_doc(total_steps: int = STORAGE_STEPS,
                      horizon_len: int = STORAGE_HORIZON) -> dict:
    """Storage-only homes over the early-morning clearings, while the EVs
    are home: the bundled batteries and EVs, one device per home, each
    home with a bundled fixed load. A home holding both a battery and an
    EV doubles the binaries and, at the default ADMM tolerance, leaves
    some node relaxations unresolved, so its solves cannot close the gap."""
    doc = _bundled()
    by_id = {a["id"]: a for a in doc["agents"]}
    layout = [("s0", "home1", "battery", "home1"),
              ("s1", "home2", "battery", "home2"),
              ("s2", "home1", "ev", "home1"),
              ("s3", "home3", "ev", "home3"),
              ("s4", "home1", "battery", "home3")]
    agents = []
    for aid, home, kind, load_home in layout:
        device = dict(by_id[home]["devices"][kind])
        if kind == "ev":
            device["target_step"] = min(device["target_step"], total_steps - 1)
        agents.append({
            "id": aid, "gamma": by_id[home]["gamma"],
            "eps_lo": by_id[home]["eps_lo"], "eps_hi": by_id[home]["eps_hi"],
            "fixed_load": _series(Path(by_id[load_home]["fixed_load"]).stem),
            "devices": {kind: device}})
    out = _common(doc, total_steps, horizon_len)
    out["agents"] = agents
    return out


def scenario_path(workload: str, out_dir: Path) -> Path:
    """The scenario file a workload loads, generating it if needed."""
    if workload == "day3":
        return DAY3
    if workload == "fleet_thermal":
        doc = fleet_thermal_doc()
    elif workload == "exact_storage":
        doc = exact_storage_doc()
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{workload}.json"
    text = json.dumps(doc, indent=1) + "\n"
    if not path.exists() or path.read_text() != text:
        path.write_text(text)
    return path


def solver_config(workload: str):
    """The stage-I solver budget each workload runs with."""
    from flexmarket.bnb import BnbConfig
    from flexmarket.market import default_solver_config
    if workload == "exact_storage":
        return BnbConfig()
    return default_solver_config()
