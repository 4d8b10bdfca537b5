import numpy as np
import pytest

from flexmarket.agent import build_mpo
from flexmarket.bnb import (BnbConfig, MiqpError, MixedIntegerQp,
                            enumerate_binaries, solve_miqp)
from flexmarket.devices import HpParams, PvParams
from flexmarket.market import default_solver_config
from flexmarket.qp import AdmmSolver, QpBuilder, solve_qp
from flexmarket.scenario import AgentSpec, slice_horizon


def _bigm_instance(rng, n_pairs):
    """Toy with the flexibility structure: split P into P+/P- gated by z,
    reward the half-width delta bounded by a band of |P|."""
    b = QpBuilder()
    bins, rows = [], []
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
        rows.append(b.add_le([(Pp, 1.0), (z, -pmax)], 0.0))
        rows.append(b.add_le([(Pm, 1.0), (z, -pmin)], -pmin))
        b.add_le([(Pp, 0.01), (Pm, 0.01), (d, -1.0)], 0.0)
        b.add_le([(d, 1.0), (Pp, -0.5), (Pm, -0.5)], 0.0)
        b.add_le([(P, 1.0), (d, 1.0)], pmax)
        b.add_ge([(P, 1.0), (d, -1.0)], pmin)
        b.add_linear(d, -1.0)
        b.add_square([(P, 1.0)], -float(rng.normal()), float(rng.uniform(0.2, 1.5)))
    return MixedIntegerQp(b.build(), bins, rows)


def test_tight_relaxation_equals_qp():
    # binaries pinned by their own bounds: identical to a plain QP solve
    b = QpBuilder()
    x = b.add_var(-1.0, 1.0)
    z = b.add_var(1.0, 1.0)
    row = b.add_le([(x, 1.0), (z, -1.0)], 0.0)
    b.add_square([(x, 1.0)], -2.0, 1.0)
    qp = b.build()
    mi = MixedIntegerQp(qp, [z], [row])
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
    row = b.add_le([(x, 1.0), (z, -1.0)], 0.0)
    b.add_eq([(z, 1.0)], 0.0)        # equality forces z = 0
    b.add_square([(x, 1.0)], 0.0, 1.0)
    mi = MixedIntegerQp(b.build(), [z], [row])
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


def test_validation_errors():
    b = QpBuilder()
    x = b.add_var(0.0, 1.0)
    z = b.add_var(0.0, 1.0)
    row = b.add_le([(x, 1.0), (z, -1.0)], 0.0)
    both = b.add_le([(x, 1.0), (z, -1.0)], 1.0)
    b.add_square([(x, 1.0)], 0.0, 1.0)
    qp = b.build()
    with pytest.raises(MiqpError):
        MixedIntegerQp(qp, [5], [row])
    with pytest.raises(MiqpError):
        MixedIntegerQp(qp, [z, z], [row])
    with pytest.raises(MiqpError):
        MixedIntegerQp(qp, [z], [99])
    with pytest.raises(MiqpError):
        bad = QpBuilder()
        w = bad.add_var(0.0, 5.0)    # bounds exceed [0, 1]
        r = bad.add_le([(w, 1.0)], 1.0)
        MixedIntegerQp(bad.build(), [w], [r])
    # big-M row referencing no binary
    b2 = QpBuilder()
    x2 = b2.add_var(0.0, 1.0)
    z2 = b2.add_var(0.0, 1.0)
    r2 = b2.add_le([(x2, 1.0)], 1.0)
    b2.add_square([(x2, 1.0)], 0.0, 1.0)
    with pytest.raises(MiqpError):
        MixedIntegerQp(b2.build(), [z2], [r2])


def test_deterministic():
    rng = np.random.default_rng(13)
    mi = _bigm_instance(rng, 3)
    a = solve_miqp(mi)
    b = solve_miqp(mi)
    assert a.assignment == b.assignment
    assert a.objective == b.objective
    assert np.array_equal(a.primal, b.primal)


def test_dual_repair_failure_keeps_admm_iterate(mini_scenario, monkeypatch):
    # this window's polish falls back to the dual repair once; a failing
    # least-squares solve there must not escape the solver
    s = mini_scenario
    miqp = build_mpo(s.agent("a1"), slice_horizon(s, 1), s.weights)
    repairs = []
    repair = AdmmSolver._repair_duals

    def counted(self, *args):
        repairs.append(1)
        return repair(self, *args)

    def lstsq(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(AdmmSolver, "_repair_duals", counted)
    monkeypatch.setattr(np.linalg, "lstsq", lstsq)
    got = solve_miqp(miqp, BnbConfig())
    assert repairs
    assert got.status in ("optimal", "node_limit")
    assert np.all(np.isfinite(got.primal))


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
