"""The benchmark's own tests.

    python3 -m pytest bench/selftest.py -q

The file name keeps these tests out of the repository's default pytest
collection; they test the benchmark, not the program.
"""

from __future__ import annotations

import itertools
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

HERE = Path(__file__).resolve().parent
for p in (HERE, HERE.parent / "src"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import checks                       # noqa: E402
import worker                       # noqa: E402
import workloads                    # noqa: E402
from tracing import REFERENCE_SPEED_MS, Patches, Probe, speed_scales  # noqa: E402

from flexmarket.agent import build_mpo                   # noqa: E402
from flexmarket.bnb import BnbConfig, solve_miqp         # noqa: E402
from flexmarket.market import run_simulation             # noqa: E402
from flexmarket.qp import AdmmSolver                     # noqa: E402
from flexmarket.scenario import scenario_from_dict, slice_horizon  # noqa: E402
from flexmarket.traceio import write_trace               # noqa: E402


def _scenario(doc):
    return scenario_from_dict(doc, base_dir=workloads.SCENARIOS)


# ------------------------------------------------------------- generators

def test_fleet_generator_is_deterministic_per_seed():
    a = workloads.fleet_thermal_doc(seed=3)
    assert a == workloads.fleet_thermal_doc(seed=3)
    assert a != workloads.fleet_thermal_doc(seed=4)
    s = _scenario(workloads.fleet_thermal_doc())
    assert len(s.agents) == workloads.FLEET_AGENTS
    assert all(tuple(d.kind for d in a.devices) == ("heat_pump", "pv")
               for a in s.agents)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert worker.tail_percentile(72) == 86
    assert worker.tail_percentile(720) == 98
    assert worker.tail_percentile(40) == 75


def test_speed_scales_follow_the_host_and_ignore_one_disturbed_loop():
    ref = REFERENCE_SPEED_MS
    # the host twice as slow throughout: every interval counts half
    assert speed_scales([2 * ref] * 6) == [0.5] * 5
    # one loop disturbed ten times over moves no interval's factor
    loops = [ref] * 8
    loops[4] = 10 * ref
    assert speed_scales(loops) == [1.0] * 7
    # a slow phase from interval 4 on: the intervals inside it count half
    assert speed_scales([ref] * 4 + [2 * ref] * 8)[6:] == [0.5] * 5


# ------------------------------------------------------- exact mode oracle

def _kkt_residual(qp, sol, lb, ub) -> float:
    """Largest KKT residual of a leaf solution, computed here: gradient
    stationarity, primal feasibility, dual signs, complementarity."""
    x = sol.primal
    yb, ye, yl = sol.dual_bounds, sol.dual_eq, sol.dual_ineq
    grad = qp.Q @ x + qp.c + yb + qp.A_eq.T @ ye + qp.A_le.T @ yl
    res = [np.max(np.abs(grad)),
           np.max(lb - x), np.max(x - ub),
           np.max(np.abs(qp.A_eq @ x - qp.b_eq)),
           np.max(qp.A_le @ x - qp.b_le, initial=0.0),
           np.max(-yl, initial=0.0)]
    fin_u, fin_l = np.isfinite(ub), np.isfinite(lb)
    res.append(np.max(np.abs(np.maximum(yb, 0) * np.where(fin_u, ub - x, 0.0))))
    res.append(np.max(np.abs(np.minimum(yb, 0) * np.where(fin_l, x - lb, 0.0))))
    res.append(np.max(np.abs(yl * (qp.b_le - qp.A_le @ x)), initial=0.0))
    res.append(np.max(np.where(fin_u, 0.0, np.maximum(yb, 0))))
    res.append(np.max(np.where(fin_l, 0.0, -np.minimum(yb, 0))))
    return float(max(res))


def _leaf_feasible(qp, lb, ub) -> bool:
    """Feasibility of a leaf by an LP solve independent of the program."""
    lp = linprog(np.zeros(qp.n), A_ub=qp.A_le.toarray(), b_ub=qp.b_le,
                 A_eq=qp.A_eq.toarray(), b_eq=qp.b_eq,
                 bounds=list(zip(lb, ub)), method="highs")
    return lp.status == 0


def _brute_force(miqp):
    """Best leaf over every binary assignment, each leaf certified."""
    qp = miqp.base
    solver = AdmmSolver(qp, stiff_vars=miqp.binary_vars)
    best = np.inf
    for bits in itertools.product((0.0, 1.0), repeat=len(miqp.binary_vars)):
        lb, ub = qp.lb.copy(), qp.ub.copy()
        for j, v in zip(miqp.binary_vars, bits):
            lb[j] = ub[j] = v
        feasible = _leaf_feasible(qp, lb, ub)
        sol = solver.solve(lb, ub, tol=1e-9, max_iter=50000)
        if not feasible:
            assert sol.status != "optimal"
            continue
        assert sol.status == "optimal"
        assert _kkt_residual(qp, sol, lb, ub) <= 1e-6
        best = min(best, sol.objective)
    return best


@pytest.mark.parametrize("t", [0, 5])
def test_exact_storage_windows_match_brute_force(t):
    s = _scenario(workloads.exact_storage_doc())
    view = slice_horizon(s, t)
    for agent in s.agents:
        miqp = build_mpo(agent, view, s.weights)
        got = solve_miqp(miqp, BnbConfig())
        assert got.status == "optimal" and got.gap == 0.0
        ref = _brute_force(miqp)
        assert abs(got.objective - ref) <= 1e-6 * max(1.0, abs(ref)), agent.id


# ----------------------------------------------------------------- checks

@pytest.fixture(scope="module")
def small_round(tmp_path_factory):
    """A three-clearing storage day, run and checked once."""
    s = _scenario(workloads.exact_storage_doc(total_steps=3))
    patches, probe = Patches(), Probe()
    probe.install(patches)
    try:
        trace = run_simulation(s, BnbConfig())
    finally:
        patches.undo()
    out = tmp_path_factory.mktemp("round")
    write_trace(trace, out, [a.gamma for a in s.agents])
    return s, trace, out, probe.solves


def _copy(src, tmp_path):
    dst = tmp_path / "trace"
    shutil.copytree(src, dst)
    return dst


def _edit_csv(path, step, column, fn, agent=None):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    col = header.index(column)
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if int(cells[0]) == step and (agent is None or cells[1] == agent):
            cells[col] = repr(fn(float(cells[col])))
            lines[i] = ",".join(cells)
            break
    path.write_text("\n".join(lines) + "\n")


def test_clean_round_passes(small_round):
    s, trace, out, caps = small_round
    report = checks.check_round(s, trace, out, caps)
    assert report.structural == []
    assert report.attempted == 3 * len(s.agents)
    assert report.failures == {}


def test_perturbed_price_fails_its_clearing(small_round, tmp_path):
    s, trace, out, caps = small_round
    d = _copy(out, tmp_path)
    _edit_csv(d / "clearings.csv", 1, "mu", lambda v: v * (1 + 1e-6))
    report = checks.check_round(s, trace, d, caps)
    assert {t for t, _ in report.failures} == {1}
    assert report.failed == len(s.agents)


def test_perturbed_bid_fails_its_agent(small_round, tmp_path):
    s, trace, out, caps = small_round
    d = _copy(out, tmp_path)
    _edit_csv(d / "agents.csv", 2, "bid", lambda v: v + 1e-4, agent="s1")
    report = checks.check_round(s, trace, d, caps)
    assert (2, "s1") in report.failures


def test_perturbed_state_fails_its_agent(small_round, tmp_path):
    s, trace, out, caps = small_round
    d = _copy(out, tmp_path)
    _edit_csv(d / "devices.csv", 2, "state", lambda v: v + 1e-3, agent="s2")
    report = checks.check_round(s, trace, d, caps)
    assert (1, "s2") in report.failures


def test_perturbed_schedule_fails_its_solve(small_round):
    s, trace, out, solves = small_round
    rec = solves[4]
    agent = next(a for a in s.agents if a.id == rec.agent_id)
    miqp = build_mpo(agent, slice_horizon(s, rec.step), s.weights)
    sol = solve_miqp(miqp, BnbConfig())
    assert checks.check_schedule(rec.step, rec.agent_id, miqp, sol).reasons == ()
    bent = type(sol)(**{**sol.__dict__, "primal": sol.primal + 1e-3})
    report = checks.check_round(
        s, trace, out, solves[:4] + [checks.check_schedule(
            rec.step, rec.agent_id, miqp, bent)] + solves[5:])
    assert list(report.failures) == [(rec.step, rec.agent_id)]
    assert len(report.violations) == 1


# ------------------------------------------------------------ determinism

@pytest.mark.parametrize("name,doc", [
    ("exact_storage", lambda: workloads.exact_storage_doc(total_steps=3)),
    ("fleet_thermal", lambda: workloads.fleet_thermal_doc(n_agents=4, total_steps=10)),
])
def test_two_runs_give_identical_counters_and_traces(name, doc, tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc()))
    runs = [worker.run(name, path, tmp_path / f"run{k}", trace=True, n_rounds=1)
            for k in range(2)]
    assert runs[0]["problems"] == [] and runs[1]["problems"] == []
    assert runs[0]["counters"] == runs[1]["counters"]
    assert runs[0]["counters"]["qp.iterations"] > 0
    assert runs[0]["digest"] == runs[1]["digest"]
    two = worker.run(name, path, tmp_path / "run2", trace=False, n_rounds=2)
    assert two["rounds"] == 2 and two["problems"] == []
    assert (two["attempted"], two["failed"]) == (runs[0]["attempted"],
                                                 runs[0]["failed"])
    for fname in worker.TRACE_FILES:
        assert ((tmp_path / "run0" / "trace" / fname).read_bytes()
                == (tmp_path / "run1" / "trace" / fname).read_bytes())
