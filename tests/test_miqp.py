from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flexmarket.agent as agent
from flexmarket.agent import build_mpo
from flexmarket.bnb import (BnbConfig, MiqpError, MixedIntegerQp, _first_tied,
                            _fractionality, enumerate_binaries, solve_miqp)
from flexmarket.devices import HpParams, PvParams
from flexmarket.market import default_solver_config, run_simulation
from flexmarket.qp import AdmmSolver, QpBuilder, solve_qp
from flexmarket.scenario import (AgentSpec, read_scenario_doc, scenario_from_dict,
                                 slice_horizon)

DAY = Path(__file__).resolve().parent.parent / "scenarios" / "three_agent_day.json"


def _bigm_instance(rng, n_pairs):
    """Toy with the flexibility structure: split P into P+/P- gated by z,
    reward the half-width delta bounded by a band of |P|."""
    b = QpBuilder()
    bins = []
    for _ in range(n_pairs):
        pmax = float(rng.uniform(1.0, 4.0))
        pmin = -float(rng.uniform(1.0, 4.0))
        P = b.add_var(pmin, pmax)
        d = b.add_var(0.0, np.inf)
        Pp = b.add_var(0.0, pmax)
        Pm = b.add_var(0.0, -pmin)
        z = b.add_var(0.0, 1.0)
        bins.append(z)
        b.add_eq([(P, 1.0), (Pp, -1.0), (Pm, 1.0)], 0.0)
        b.add_le([(Pp, 1.0), (z, -pmax)], 0.0)
        b.add_le([(Pm, 1.0), (z, -pmin)], -pmin)
        b.add_le([(Pp, 0.01), (Pm, 0.01), (d, -1.0)], 0.0)
        b.add_le([(d, 1.0), (Pp, -0.5), (Pm, -0.5)], 0.0)
        b.add_le([(P, 1.0), (d, 1.0)], pmax)
        b.add_ge([(P, 1.0), (d, -1.0)], pmin)
        b.add_linear(d, -1.0)
        b.add_square([(P, 1.0)], -float(rng.normal()), float(rng.uniform(0.2, 1.5)))
    return MixedIntegerQp(b.build(), bins)


def test_tight_relaxation_equals_qp():
    # binaries pinned by their own bounds: identical to a plain QP solve
    b = QpBuilder()
    x = b.add_var(-1.0, 1.0)
    z = b.add_var(1.0, 1.0)
    b.add_le([(x, 1.0), (z, -1.0)], 0.0)
    b.add_square([(x, 1.0)], -2.0, 1.0)
    qp = b.build()
    mi = MixedIntegerQp(qp, [z])
    got = solve_miqp(mi)
    ref = solve_qp(qp)
    assert got.status == "optimal"
    assert got.objective == pytest.approx(ref.objective, abs=1e-9)
    assert got.assignment == (1,)


def test_two_binary_toy_vs_exhaustive():
    rng = np.random.default_rng(42)
    mi = _bigm_instance(rng, 2)
    got = solve_miqp(mi, BnbConfig())
    # oracle: all four assignments, each solved as a plain QP on fixed bounds
    ws = AdmmSolver(mi.base)
    best = np.inf
    for z0 in (0.0, 1.0):
        for z1 in (0.0, 1.0):
            lo = mi.base.lb.copy()
            hi = mi.base.ub.copy()
            lo[mi.binary_vars[0]] = hi[mi.binary_vars[0]] = z0
            lo[mi.binary_vars[1]] = hi[mi.binary_vars[1]] = z1
            leaf = ws.solve(lo, hi)
            if leaf.status == "optimal":
                best = min(best, leaf.objective)
    assert got.status == "optimal"
    assert got.objective == pytest.approx(best, rel=1e-6, abs=1e-8)


def test_forced_contradiction_infeasible():
    b = QpBuilder()
    x = b.add_var(0.0, 1.0)
    z = b.add_var(1.0, 1.0)          # bounds force z = 1
    b.add_le([(x, 1.0), (z, -1.0)], 0.0)
    b.add_eq([(z, 1.0)], 0.0)        # equality forces z = 0
    b.add_square([(x, 1.0)], 0.0, 1.0)
    mi = MixedIntegerQp(b.build(), [z])
    assert solve_miqp(mi).status == "infeasible"


def test_random_instances_match_enumeration():
    rng = np.random.default_rng(5)
    for _ in range(12):
        mi = _bigm_instance(rng, int(rng.integers(1, 5)))
        got = solve_miqp(mi, BnbConfig())
        ref_obj, ref_bits, _ = enumerate_binaries(mi)
        assert got.status == "optimal"
        assert abs(got.objective - ref_obj) <= 1e-6 * max(1.0, abs(ref_obj))
        # gating is exact at the returned point
        k = len(mi.binary_vars)
        for i in range(k):
            Pp = got.primal[5 * i + 2]
            Pm = got.primal[5 * i + 3]
            assert min(Pp, Pm) <= 1e-7


def test_node_limit_returns_incumbent_with_gap():
    rng = np.random.default_rng(9)
    mi = _bigm_instance(rng, 6)
    got = solve_miqp(mi, BnbConfig(node_limit=10))
    assert got.status in ("optimal", "node_limit")
    if got.status == "node_limit":
        assert np.isfinite(got.objective)
        assert got.gap > 0.0


@settings(derandomize=True, max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), pairs=st.integers(1, 5),
       node_limit=st.one_of(st.integers(3, 24),
                            st.integers(3, BnbConfig().node_limit)))
def test_search_matches_enumeration_at_any_node_limit(seed, pairs, node_limit):
    mi = _bigm_instance(np.random.default_rng(seed), pairs)
    cfg = BnbConfig(node_limit=node_limit)
    got = solve_miqp(mi, cfg)
    ref, _, _ = enumerate_binaries(mi)
    assert np.isfinite(ref)
    assert got.status in ("optimal", "node_limit")
    if got.status == "optimal":
        assert abs(got.objective - ref) <= cfg.gap_tol * max(1.0, abs(ref))
    elif np.isfinite(got.objective):
        # the reported gap reaches down to the true optimum (up to the
        # rounding of the node solves)
        bound = got.objective - got.gap * max(1.0, abs(got.objective))
        assert bound <= ref + 1e-12 * max(1.0, abs(ref))
    if np.isfinite(got.objective):
        z = got.primal[list(mi.binary_vars)]
        assert got.assignment == tuple(int(round(v)) for v in z)


def test_validation_errors():
    b = QpBuilder()
    x = b.add_var(0.0, 1.0)
    z = b.add_var(0.0, 1.0)
    b.add_le([(x, 1.0), (z, -1.0)], 0.0)
    b.add_le([(x, 1.0), (z, -1.0)], 1.0)
    b.add_square([(x, 1.0)], 0.0, 1.0)
    qp = b.build()
    with pytest.raises(MiqpError):
        MixedIntegerQp(qp, [5])
    with pytest.raises(MiqpError):
        MixedIntegerQp(qp, [z, z])
    with pytest.raises(MiqpError):
        bad = QpBuilder()
        w = bad.add_var(0.0, 5.0)    # bounds exceed [0, 1]
        bad.add_le([(w, 1.0)], 1.0)
        MixedIntegerQp(bad.build(), [w])


@pytest.mark.parametrize("gap_tol", [np.nan, np.inf, -1e-9])
def test_config_rejects_bad_gap_tol(gap_tol):
    # with gap_tol nan the search stopped after the root's children and
    # reported an unproven incumbent as "optimal"
    with pytest.raises(ValueError, match="gap_tol must be finite and nonnegative"):
        BnbConfig(gap_tol=gap_tol)


def test_deterministic():
    rng = np.random.default_rng(13)
    mi = _bigm_instance(rng, 3)
    a = solve_miqp(mi)
    b = solve_miqp(mi)
    assert a.assignment == b.assignment
    assert a.objective == b.objective
    assert np.array_equal(a.primal, b.primal)


def test_fractionality_ties_go_to_the_lowest_index():
    # two binaries of the bundled day's home1 window at clearing 19 that
    # differ only in their last bits: the dive's least fractional and the
    # branching rule's most fractional must both see a tie and take the
    # first, where plain min and argmax would take the second
    frac = _fractionality(np.array([0.9, 0.4049122302556553, 0.5950877697443449]))
    assert frac[2] < frac[1]
    assert _first_tied(frac, [1, 2], frac[[1, 2]].min()) == 1
    frac = _fractionality(np.array([0.9, 0.4049122302556551, 0.5950877697443447]))
    assert frac[2] > frac[1]
    assert _first_tied(frac, range(3), frac.max()) == 1
    # a tie is a distance, not a shared rounding: values on either side
    # of a 1e-9 rounding boundary still tie, and 2e-9 apart they do not
    frac = np.array([0.30000000050000003, 0.3000000005, 0.3 + 2e-9])
    assert np.round(frac[0], 9) != np.round(frac[1], 9)
    assert _first_tied(frac, range(3), frac[1]) == 0
    assert _first_tied(frac, range(3), frac.max()) == 2


def test_every_qp_solve_is_a_node(monkeypatch):
    # node solves are exact, so the returned point is never re-solved
    mi = _bigm_instance(np.random.default_rng(5), 3)
    calls = []
    solve = AdmmSolver.solve

    def counted(self, *args, **kwargs):
        calls.append(1)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(AdmmSolver, "solve", counted)
    got = solve_miqp(mi, BnbConfig())
    assert got.status == "optimal"
    assert got.nodes == 9
    assert len(calls) == got.nodes


def _record_fixed_binaries(monkeypatch, mi):
    """Patch AdmmSolver.solve to record, per call, the binaries its
    bounds fix as {index: value}."""
    fixed = []
    solve = AdmmSolver.solve

    def recorded(self, lb=None, ub=None, *args, **kwargs):
        fixed.append({j: lb[j] for j in mi.binary_vars if lb[j] == ub[j]})
        return solve(self, lb, ub, *args, **kwargs)

    monkeypatch.setattr(AdmmSolver, "solve", recorded)
    return fixed


def test_three_binary_root_is_swept_in_gray_code_order(monkeypatch):
    # the whole tree fits the budget, so the root's 8 leaves are solved
    # one binary apart, with no dive and no internal node
    mi = _bigm_instance(np.random.default_rng(5), 3)
    ref_obj, ref_bits, _ = enumerate_binaries(mi)
    fixed = _record_fixed_binaries(monkeypatch, mi)
    got = solve_miqp(mi, BnbConfig())
    assert got.status == "optimal" and got.gap == 0.0
    assert got.nodes == len(fixed) == 1 + 8
    assert fixed[0] == {}
    assert all(len(f) == 3 for f in fixed[1:])
    leaves = [tuple(f[j] for j in mi.binary_vars) for f in fixed[1:]]
    assert len(set(leaves)) == 8
    for a, b in zip(leaves, leaves[1:]):
        assert sum(x != y for x, y in zip(a, b)) == 1
    assert got.objective == pytest.approx(ref_obj, rel=0, abs=1e-9)
    assert got.assignment == ref_bits


def test_root_sweep_past_the_budget_dives_first(monkeypatch):
    # 1 + 8 solves exceed node_limit=8: the root is branched, and the
    # dive (one more binary fixed per solve) supplies the incumbent
    mi = _bigm_instance(np.random.default_rng(5), 3)
    fixed = _record_fixed_binaries(monkeypatch, mi)
    got = solve_miqp(mi, BnbConfig(node_limit=8))
    assert [len(f) for f in fixed[:4]] == [0, 1, 2, 3]
    assert got.nodes == len(fixed) <= 8
    assert np.isfinite(got.objective)
    assert got.status in ("optimal", "node_limit")


@settings(derandomize=True, max_examples=400, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), pairs=st.integers(1, 5),
       node_limit=st.integers(1, 17))
# an integral first child whose leaf re-solve would take the budget its
# sibling needs (these went to 10 and 18 nodes when re-solves ignored it)
@example(seed=6, pairs=3, node_limit=8)
@example(seed=9, pairs=5, node_limit=16)
def test_search_stays_within_its_node_budget(seed, pairs, node_limit):
    # the dive runs whole; every later solve fits node_limit, and an
    # integral node the budget cannot re-solve keeps its bound in the gap
    mi = _bigm_instance(np.random.default_rng(seed), pairs)
    got = solve_miqp(mi, BnbConfig(node_limit=node_limit))
    assert got.nodes <= max(node_limit, 1 + pairs)
    assert got.status in ("optimal", "node_limit")
    ref, _, _ = enumerate_binaries(mi)
    if np.isfinite(got.objective):
        bound = got.objective - got.gap * max(1.0, abs(got.objective))
        assert bound <= ref + 1e-12 * max(1.0, abs(ref))


def _row_violation(qp, x):
    return max(np.max(qp.lb - x), np.max(x - qp.ub),
               np.max(np.abs(qp.A_eq @ x - qp.b_eq)),
               np.max(qp.A_le @ x - qp.b_le, initial=0.0))


def test_binary_free_window_meets_rows_tightly(day_scenario):
    # a heat-pump and PV home solved loosely: its temperature rows sit
    # near 70, so a loose solve alone left them 0.003 off
    hp = HpParams(r_th=1.968, c_th=1.6662, cop=2.7145, p_rated_kw=3.229,
                  t_min=66.0, t_max=74.0, t_setpoint=70.0, t_init=70.0)
    spec = AgentSpec("f17", 1.0, (hp, PvParams(2.444)),
                     day_scenario.agents[0].fixed_load, eps_lo=0.01, eps_hi=0.5)
    view = slice_horizon(day_scenario, 6,
                         {"f17": {"heat_pump": 69.78211433384207}})
    assert view.length == 8
    miqp = build_mpo(spec, view, day_scenario.weights)
    assert not miqp.binary_vars
    got = solve_miqp(miqp, default_solver_config())
    assert got.status == "optimal"
    assert _row_violation(miqp.base, got.primal) <= 1e-6


def test_bundled_day_schedules_meet_their_rows(day_scenario, monkeypatch):
    # every schedule the default config returns on the bundled day meets
    # its own rows and bounds, with integral binaries
    solves = []
    solve = agent.solve_miqp

    def recorded(miqp, cfg):
        sol = solve(miqp, cfg)
        solves.append((miqp, sol))
        return sol

    monkeypatch.setattr(agent, "solve_miqp", recorded)
    run_simulation(day_scenario)
    assert len(solves) == 72
    for miqp, sol in solves:
        assert _row_violation(miqp.base, sol.primal) <= 1e-6
        z = sol.primal[list(miqp.binary_vars)]
        assert np.max(np.abs(z - np.round(z)), initial=0.0) <= 1e-9


def test_exact_mode_closes_battery_and_ev_window():
    # home1's battery and EV together in a 3-step window: six binaries
    doc = read_scenario_doc(DAY)
    home1 = doc["agents"][0]
    devices = {k: dict(home1["devices"][k]) for k in ("battery", "ev")}
    devices["ev"]["target_step"] = min(devices["ev"]["target_step"], 7)
    doc["time"].update(total_steps=8, horizon_len=3)
    doc["policy"]["beta"] = doc["policy"]["beta"][:8]
    doc["agents"] = [dict(home1, devices=devices)]
    s = scenario_from_dict(doc, base_dir=DAY.parent)
    miqp = build_mpo(s.agents[0], slice_horizon(s, 0), s.weights)
    assert len(miqp.binary_vars) == 6
    got = solve_miqp(miqp, BnbConfig())
    assert got.status == "optimal" and got.gap == 0.0
    ref_obj, _, _ = enumerate_binaries(miqp)
    assert abs(got.objective - ref_obj) <= 1e-6 * max(1.0, abs(ref_obj))
