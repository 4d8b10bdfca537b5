import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from flexmarket.agent import build_mpo
from flexmarket.devices import HpParams, PvParams
from flexmarket.qp import (_SIGMA, AdmmSolver, QpBuilder, QpError,
                           QuadraticProgram, check_kkt, solve_qp)
from flexmarket.scenario import AgentSpec, slice_horizon


def test_interior_minimum():
    # min (x-1)^2 on [0, 2]
    qp = QuadraticProgram(1, Q=[[2.0]], c=[-2.0], lb=[0.0], ub=[2.0], c0=1.0)
    sol = solve_qp(qp)
    assert sol.status == "optimal"
    assert sol.primal[0] == pytest.approx(1.0, abs=1e-8)
    assert sol.objective == pytest.approx(0.0, abs=1e-10)


def test_active_bound_multiplier():
    # min x^2 s.t. x >= 1: bound active, multiplier magnitude 2
    qp = QuadraticProgram(1, Q=[[2.0]], lb=[1.0])
    sol = solve_qp(qp)
    assert sol.primal[0] == pytest.approx(1.0, abs=1e-8)
    # lower-active bound carries a negative dual in the stacked convention
    assert sol.dual_bounds[0] == pytest.approx(-2.0, abs=1e-6)
    assert check_kkt(qp, sol, 1e-6).ok


def test_equality_symmetric():
    # min x^2 + y^2 s.t. x + y = 2; oracle: dense grid on the constraint line
    qp = QuadraticProgram(2, Q=2 * np.eye(2), A_eq=[[1.0, 1.0]], b_eq=[2.0])
    sol = solve_qp(qp)
    xs = np.linspace(-3.0, 5.0, 20001)
    vals = xs**2 + (2.0 - xs) ** 2
    best = vals.min()
    assert sol.objective <= best + 1e-6
    assert sol.primal == pytest.approx([1.0, 1.0], abs=1e-7)


def test_kkt_self_consistency_and_perturbation():
    qp = QuadraticProgram(1, Q=[[2.0]], lb=[1.0])
    sol = solve_qp(qp, tol=1e-6)
    assert check_kkt(qp, sol, 1e-6).ok
    sol.primal = sol.primal - 10e-6          # violate the active bound
    rep = check_kkt(qp, sol, 1e-6)
    assert rep.primal >= 9e-6
    assert not rep.ok


def test_kkt_row_terms_on_a_window(day_scenario):
    # home1's bundled-day window at t=0 exercises the equality and <= row
    # terms of every residual
    qp = build_mpo(day_scenario.agents[0], slice_horizon(day_scenario, 0),
                   day_scenario.weights).base
    assert (qp.n, qp.n_eq, qp.n_le) == (136, 40, 165)
    sol = AdmmSolver(qp).solve(tol=1e-6)
    assert sol.status == "optimal" and sol.polished
    assert check_kkt(qp, sol, 1e-6).ok
    # a wrongly signed <= multiplier breaks stationarity and the dual test
    flipped = dataclasses.replace(sol, dual_ineq=sol.dual_ineq.copy())
    i = int(np.argmax(flipped.dual_ineq))
    assert flipped.dual_ineq[i] > 1e-3
    flipped.dual_ineq[i] = -flipped.dual_ineq[i]
    rep = check_kkt(qp, flipped, 1e-6)
    assert rep.stationarity > 1e-6 and rep.dual > 1e-6 and not rep.ok
    # a shifted primal breaks the rows and their complementarity
    shifted = dataclasses.replace(sol, primal=sol.primal + 1e-3)
    rep = check_kkt(qp, shifted, 1e-6)
    assert rep.primal > 1e-6 and rep.complementarity > 1e-6 and not rep.ok


def test_zero_problem_any_point_stationary():
    qp = QuadraticProgram(3)
    sol = solve_qp(qp)
    sol.primal = np.array([5.0, -7.0, 0.3])
    sol.dual_bounds = np.zeros(3)
    rep = check_kkt(qp, sol, 1e-6)
    assert rep.stationarity == 0.0


def test_objective_matches_recompute():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        M = rng.normal(size=(n, n))
        qp = QuadraticProgram(n, M @ M.T, rng.normal(size=n),
                              lb=-np.ones(n), ub=np.ones(n))
        sol = solve_qp(qp)
        assert sol.status == "optimal"
        recomputed = qp.objective_value(sol.primal)
        assert abs(sol.objective - recomputed) <= 1e-9 * max(1.0, abs(recomputed))
        assert check_kkt(qp, sol, 1e-6).ok


def test_non_psd_rejected():
    with pytest.raises(QpError):
        QuadraticProgram(1, Q=[[-1.0]])


def test_asymmetric_rejected():
    with pytest.raises(QpError):
        QuadraticProgram(2, Q=[[1.0, 0.5], [0.0, 1.0]])


def test_dimension_mismatch():
    with pytest.raises(QpError):
        QuadraticProgram(2, Q=np.eye(2), c=[1.0])
    with pytest.raises(QpError):
        QuadraticProgram(2, Q=np.eye(3))
    qp = QuadraticProgram(2, Q=np.eye(2))
    sol = solve_qp(qp)
    sol.primal = np.zeros(3)
    with pytest.raises(QpError):
        check_kkt(qp, sol)


def test_empty_bound_pair_infeasible():
    with pytest.raises(QpError):
        QuadraticProgram(1, Q=[[2.0]], lb=[2.0], ub=[1.0])
    # conflict introduced after construction, the branch-and-bound path
    qp = QuadraticProgram(1, Q=[[2.0]], lb=[0.0], ub=[1.0])
    ws = AdmmSolver(qp)
    sol = ws.solve(lb=np.array([2.0]), ub=np.array([1.0]))
    assert sol.status == "infeasible"


def test_certified_infeasible_equality():
    # x <= 1 but x = 5 required
    qp = QuadraticProgram(1, Q=[[2.0]], ub=[1.0], A_eq=[[1.0]], b_eq=[5.0])
    sol = solve_qp(qp)
    assert sol.status == "infeasible"


def test_iteration_limit_status():
    rng = np.random.default_rng(3)
    M = rng.normal(size=(6, 6))
    qp = QuadraticProgram(6, M @ M.T, rng.normal(size=6),
                          lb=-np.ones(6), ub=np.ones(6),
                          A_le=rng.normal(size=(3, 6)), b_le=rng.normal(size=3) + 2)
    sol = solve_qp(qp, tol=1e-12, max_iter=25)
    assert sol.status in ("iteration_limit", "optimal")
    sol2 = AdmmSolver(qp).solve(tol=0.0, max_iter=25, polish=False)
    assert sol2.status == "iteration_limit"


def test_deterministic_resolve():
    rng = np.random.default_rng(11)
    M = rng.normal(size=(8, 5))
    qp = QuadraticProgram(8, M @ M.T, rng.normal(size=8),
                          lb=-2 * np.ones(8), ub=2 * np.ones(8))
    a = solve_qp(qp)
    b = solve_qp(qp)
    assert np.array_equal(a.primal, b.primal)
    assert a.objective == b.objective


def test_empty_program():
    qp = QuadraticProgram(0, c0=4.5)
    sol = solve_qp(qp)
    assert sol.status == "optimal"
    assert sol.objective == 4.5


def test_builder_square_expansion():
    # weight*(x - 2)^2 expands to the right quadratic/linear/const pieces
    b = QpBuilder()
    x = b.add_var()
    b.add_square([(x, 1.0)], -2.0, 3.0)
    qp = b.build()
    assert qp.Q.toarray()[0, 0] == pytest.approx(6.0)
    assert qp.c[0] == pytest.approx(-12.0)
    assert qp.c0 == pytest.approx(12.0)
    assert qp.objective_value(np.array([5.0])) == pytest.approx(3.0 * 9.0)


def _sparse_reference(ws):
    """Ruiz scaling and KKT by scipy.sparse arithmetic: sp.diags products
    and sp.bmat, the construction the triplet assembly must reproduce."""
    n, m = ws.n, ws.m
    d, e = np.ones(n), np.ones(m)
    Q, S = ws.qp.Q.copy(), ws.S.copy()
    for _ in range(10):
        qcol = abs(Q).max(axis=0).toarray().ravel() if Q.nnz else np.zeros(n)
        scol = abs(S).max(axis=0).toarray().ravel() if S.nnz else np.zeros(n)
        srow = abs(S).max(axis=1).toarray().ravel() if S.nnz else np.zeros(m)
        dd = np.clip(1.0 / np.sqrt(np.maximum(np.maximum(qcol, scol), 1e-8)), 1e-4, 1e4)
        de = np.clip(1.0 / np.sqrt(np.maximum(srow, 1e-8)), 1e-4, 1e4)
        Q = sp.diags(dd) @ Q @ sp.diags(dd)
        S = sp.diags(de) @ S @ sp.diags(dd)
        d *= dd
        e *= de
    cs = d * ws.qp.c
    pnorm = abs(Q).max(axis=0).toarray().ravel().mean() if Q.nnz else 0.0
    cost_c = 1.0 / max(1e-6, max(np.max(np.abs(cs)), pnorm))
    kkt = sp.bmat([[(cost_c * Q).tocsc() + _SIGMA * sp.identity(n), S.tocsc().T],
                   [S.tocsc(), -sp.diags(1.0 / ws.rho)]], format="csc")
    return d, e, cost_c, cost_c * cs, kkt


def _polish_reference(ws, idx):
    S_act = ws.S[idx, :]
    reg = 1e-9
    return sp.bmat([[ws.qp.Q + reg * sp.identity(ws.n), S_act.T],
                    [S_act, -reg * sp.identity(len(idx))]], format="csc")


def _same_csc(a, b):
    return all(getattr(a, f).tobytes() == getattr(b, f).tobytes()
               and getattr(a, f).dtype == getattr(b, f).dtype
               for f in ("indptr", "indices", "data"))


def _windows(day):
    home1 = day.agents[0]
    hp = HpParams(r_th=1.968, c_th=1.6662, cop=2.7145, p_rated_kw=3.229,
                  t_min=66.0, t_max=74.0, t_setpoint=70.0, t_init=70.0)
    fleet = AgentSpec("f17", 1.0, (hp, PvParams(2.444)), home1.fixed_load)
    view = slice_horizon(day, 0)
    return {"home1": build_mpo(home1, view, day.weights),
            "fleet_hp_pv": build_mpo(fleet, slice_horizon(day, 6), day.weights),
            "home1_eps_lo_0": build_mpo(dataclasses.replace(home1, eps_lo=0.0),
                                        view, day.weights)}


def test_triplet_setup_matches_sparse_arithmetic(day_scenario):
    windows = _windows(day_scenario)
    assert len(windows["home1"].binary_vars) == 16
    assert windows["home1_eps_lo_0"].base.A_le.nnz \
        > np.count_nonzero(windows["home1_eps_lo_0"].base.A_le.data)
    for name, miqp in windows.items():
        ws = AdmmSolver(miqp.base, stiff_vars=miqp.binary_vars)
        for rho_scale in (1.0, 37.5, 1e-3):
            ws._rho_scale = rho_scale
            ws._factorize()
            d, e, cost_c, cs, kkt = _sparse_reference(ws)
            assert d.tobytes() == ws.d.tobytes(), name
            assert e.tobytes() == ws.e.tobytes(), name
            assert cost_c == ws.cost_c and cs.tobytes() == ws.cs.tobytes(), name
            assert _same_csc(kkt, ws._kkt), (name, rho_scale)
        # a fixed active set: the equality rows and every third other row
        rows = np.arange(ws.m)
        idx = rows[(rows % 3 == 0) | ((rows >= ws.n) & (rows < ws.n + miqp.base.n_eq))]
        for act in (idx, idx[:0]):
            want = (_polish_reference(ws, act) if len(act)
                    else (miqp.base.Q + 1e-9 * sp.identity(ws.n)).tocsc())
            assert _same_csc(want, ws._polish_kkt(act)), (name, len(act))


def test_empty_program_workspace():
    qp = QuadraticProgram(0, c0=1.5)
    ws = AdmmSolver(qp)
    assert ws.d.shape == (0,) and ws.e.shape == (0,)
    assert ws.cost_c == 1.0 and ws.cs.shape == (0,)
    sol = ws.solve(tol=1e-8)
    assert sol.status == "optimal" and sol.objective == 1.5
