import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import flexmarket.qp as qpmod
from flexmarket.agent import build_mpo
from flexmarket.bnb import solve_miqp
from flexmarket.qp import (AdmmSolver, QpBuilder, QpError, QpSolution,
                           QuadraticProgram, check_kkt, solve_qp)
from flexmarket.scenario import scenario_from_dict, slice_horizon


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
    sol = solve_qp(qp)
    assert check_kkt(qp, sol, 1e-6).ok
    sol.primal = sol.primal - 10e-6          # violate the active bound
    rep = check_kkt(qp, sol, 1e-6)
    assert rep.primal >= 9e-6
    assert not rep.ok


@pytest.mark.parametrize("c, lb, ub, y", [(-1.0, 0.0, np.inf, 1.0),
                                          (1.0, -np.inf, 0.0, -1.0)])
def test_kkt_rejects_a_multiplier_on_an_infinite_bound(c, lb, ub, y):
    # min -x s.t. x >= 0 (and min x s.t. x <= 0) is unbounded: x = 0 is
    # stationary only with a multiplier on the bound that is not there
    qp = QuadraticProgram(1, c=[c], lb=[lb], ub=[ub])
    sol = QpSolution(np.zeros(1), np.array([y]), np.zeros(0), np.zeros(0),
                     0.0, "optimal")
    rep = check_kkt(qp, sol, 1e-6)
    assert rep.stationarity == rep.primal == rep.complementarity == 0.0
    assert rep.dual == 1.0 and not rep.ok


def test_kkt_row_terms_on_a_window(day_scenario):
    # home1's bundled-day window at t=0 exercises the equality and <= row
    # terms of every residual
    qp = build_mpo(day_scenario.agents[0], slice_horizon(day_scenario, 0),
                   day_scenario.weights).base
    assert (qp.n, qp.n_eq, qp.n_le) == (136, 40, 165)
    sol = AdmmSolver(qp).solve()
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
    # unvalidated programs are caught when the workspace factors Q
    with pytest.raises(QpError):
        AdmmSolver(QuadraticProgram(1, Q=[[-1.0]], validate_psd=False))


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


def test_repeated_entries_of_a_caller_matrix_are_summed():
    # a CSC row naming x0 twice is the row 2*x0 + x1 = 2.5, whose point
    # nearest the origin is (1, 0.5)
    A_eq = sp.csc_matrix((np.array([1.0, 1.0, 1.0]), np.array([0, 0, 0]),
                          np.array([0, 2, 3])), shape=(1, 2))
    qp = QuadraticProgram(2, Q=np.eye(2), A_eq=A_eq, b_eq=[2.5])
    sol = solve_qp(qp)
    assert sol.status == "optimal"
    assert sol.primal == pytest.approx([1.0, 0.5], abs=1e-9)


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
    full = solve_qp(qp)
    assert full.status == "optimal" and full.iterations == 5
    assert solve_qp(qp, max_iter=5).status == "optimal"
    assert solve_qp(qp, max_iter=4).status == "iteration_limit"


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


@pytest.mark.parametrize("weight", [-1.0, -1e-300, np.inf, np.nan])
def test_builder_rejects_bad_square_weight(weight):
    # finite nonnegative weights are what keep a built Q PSD unchecked
    b = QpBuilder()
    x = b.add_var()
    with pytest.raises(QpError, match="square weight must be finite and nonnegative"):
        b.add_square([(x, 1.0)], 0.0, weight)


@pytest.mark.parametrize("block", ["eq", "le", "objective"])
@pytest.mark.parametrize("bad", [-1, 3])
def test_builder_rejects_out_of_range_variable(block, bad):
    b = QpBuilder()
    for _ in range(3):
        b.add_var(0.0, 1.0)
    terms = [(0, 1.0), (bad, 2.0)]
    if block == "eq":
        b.add_eq(terms, 1.0)
    elif block == "le":
        b.add_le(terms, 1.0)
    else:
        b.add_square(terms, 1.0)
    with pytest.raises(QpError, match=rf"{block} term names variable {bad}\b"):
        b.build()


@pytest.mark.parametrize("bad", [-1, 3])
def test_builder_rejects_out_of_range_linear_term(bad):
    b = QpBuilder()
    for _ in range(3):
        b.add_var()
    b.add_linear(bad, 1.0)
    with pytest.raises(QpError, match=rf"objective term names variable {bad}\b"):
        b.build()


def test_builder_empty_blocks_and_no_variables():
    # only <= rows: min (x - 2)^2 s.t. x <= 1
    b = QpBuilder()
    x = b.add_var()
    b.add_le([(x, 1.0)], 1.0)
    b.add_square([(x, 1.0)], -2.0)
    qp = b.build()
    assert (qp.n_eq, qp.n_le) == (0, 1) and qp.A_eq.shape == (0, 1)
    assert solve_qp(qp).primal[0] == pytest.approx(1.0, abs=1e-9)
    # only equality rows: min x^2 + y^2 s.t. x + y = 2
    b = QpBuilder()
    x, y = b.add_var(), b.add_var()
    b.add_eq([(x, 1.0), (y, 1.0)], 2.0)
    b.add_square([(x, 1.0)])
    b.add_square([(y, 1.0)])
    qp = b.build()
    assert (qp.n_eq, qp.n_le) == (1, 0) and qp.A_le.shape == (0, 2)
    assert solve_qp(qp).primal == pytest.approx([1.0, 1.0], abs=1e-9)
    # no variables at all: a constant objective, and an empty row is kept
    b = QpBuilder()
    b.add_const(2.5)
    b.add_le([], 0.0)
    qp = b.build()
    assert (qp.n, qp.n_eq, qp.n_le) == (0, 0, 1)
    assert qp.Q.shape == (0, 0) and qp.A_le.shape == (1, 0)
    sol = solve_qp(qp)
    assert sol.status == "optimal" and sol.objective == 2.5


def _thermal_window():
    """A heat-pump and PV home's first window: no binaries."""
    doc = {
        "time": {"dt_hours": 1.0, "total_steps": 6, "horizon_len": 4},
        "series": {"outdoor_temp": [75, 78, 82, 85, 83, 80],
                   "irradiance_frac": [0.1, 0.4, 0.8, 0.9, 0.6, 0.2],
                   "lem_price": [0.1] * 6},
        "policy": {"beta": 0.3},
        "agents": [{"id": "a1", "gamma": 1.0, "fixed_load": 2.0, "devices": {
            "heat_pump": {"r_th": 2.0, "c_th": 2.0, "cop": 3.0,
                          "p_rated_kw": 3.0, "t_min": 66.0, "t_max": 74.0,
                          "t_setpoint": 70.0, "t_init": 70.0},
            "pv": {"p_rated_kw": 4.0}}}],
    }
    s = scenario_from_dict(doc)
    return lambda: build_mpo(s.agents[0], slice_horizon(s, 0), s.weights).base


def _repeated_squares():
    """A hand-built program whose Q entries each sum four square terms of
    one sign, in columns longer than scipy's sort keeps in input order, and
    whose rows name one variable twice."""
    rng = np.random.default_rng(5)
    b = QpBuilder()
    xs = [b.add_var(-1.0, 1.0) for _ in range(6)]
    for _ in range(4):
        b.add_square([(i, rng.uniform(0.1, 3.0)) for i in xs], rng.normal(),
                     rng.uniform(0.1, 2.0))
    b.add_eq([(xs[0], 1.0), (xs[3], 0.5), (xs[0], 0.25)], 0.3)
    b.add_le([(xs[5], 1.0), (xs[1], -2.0), (xs[5], 3.0)], 0.7)
    b.add_ge([(xs[2], 1.0)], -0.5)
    return b.build()


def _reference_programs(day_scenario):
    day = [lambda a=a, t=t: build_mpo(a, slice_horizon(day_scenario, t),
                                      day_scenario.weights).base
           for a in day_scenario.agents for t in range(day_scenario.time_grid.total_steps)]
    assert len(day) == 72
    return day + [_thermal_window(), _repeated_squares]


def test_assembly_matches_scipy_coo_reference(day_scenario, monkeypatch):
    # each block compressed from its triplets equals scipy's coo -> csc
    # conversion: the same structure, the same row data, and Q's sums of
    # repeated square terms to a few ulp. scipy sums a long column in an
    # order of its own; summing four terms of one sign in any two orders
    # differs by at most 3 eps relative
    refs = []
    csc = qpmod._csc

    def recorded(rows, cols, vals, shape, block):
        refs.append((block, sp.coo_matrix(
            (list(vals), (list(rows), list(cols))), shape=shape).tocsc()))
        return csc(rows, cols, vals, shape, block)
    monkeypatch.setattr(qpmod, "_csc", recorded)
    for make in _reference_programs(day_scenario):
        refs.clear()
        qp = make()
        assert [block for block, _ in refs] == ["objective", "eq", "le"]
        for (block, ref), got in zip(refs, (qp.Q, qp.A_eq, qp.A_le)):
            assert got.shape == ref.shape
            assert np.array_equal(got.indptr, ref.indptr)
            assert np.array_equal(got.indices, ref.indices)
            if block == "objective":
                assert np.all(np.abs(got.data - ref.data)
                              <= 4 * np.finfo(float).eps * np.abs(ref.data))
            else:
                assert np.array_equal(got.data, ref.data)


def test_workspace_setup_matches_vstack_reference(day_scenario):
    # G = H^-1 C' and K = C G formed blockwise equal the forms built from
    # one stacked sparse C; the loop's CSR C equals the stacked one
    for make in _reference_programs(day_scenario):
        qp = make()
        ws = AdmmSolver(qp)
        C = sp.vstack([qp.A_eq, qp.A_le, sp.identity(qp.n, format="csc")], format="csr")
        G = qpmod._chol_solve(ws._chol, C.T.toarray())
        K = np.asarray(C @ G)
        assert np.array_equal(ws._G, G)
        assert np.array_equal(ws._K, 0.5 * (K + K.T))
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(ws._C, part), getattr(C, part))


def test_empty_program_workspace():
    qp = QuadraticProgram(0, c0=1.5)
    ws = AdmmSolver(qp)
    sol = ws.solve()
    assert sol.status == "optimal" and sol.objective == 1.5


def _random_program(seed, n, rank, n_eq, n_le):
    """A small QP with a rank-deficient PSD objective, a random box,
    equality rows and <= rows; the rows may have no feasible point."""
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(n, rank))
    lb = -rng.uniform(0.0, 3.0, n)
    ub = rng.uniform(0.0, 3.0, n)
    x0 = rng.uniform(lb - 0.5, ub + 0.5)
    A_eq = rng.normal(size=(n_eq, n))
    A_le = rng.normal(size=(n_le, n))
    return QuadraticProgram(n, M @ M.T, rng.normal(size=n), lb, ub,
                            A_eq, A_eq @ x0, A_le,
                            A_le @ x0 + rng.uniform(-0.5, 1.0, n_le))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8),
       rank=st.integers(0, 8), n_eq=st.integers(0, 3), n_le=st.integers(0, 6),
       empty=st.booleans())
@example(seed=0, n=3, rank=1, n_eq=1, n_le=2, empty=True)
def test_solve_is_optimal_or_certified_infeasible(seed, n, rank, n_eq, n_le, empty):
    # every answer is checked apart from the engine: an optimum by its
    # KKT residuals, an infeasibility by HiGHS on the same rows
    qp = _random_program(seed, n, min(rank, n), n_eq, n_le)
    lb, ub = qp.lb.copy(), qp.ub.copy()
    if empty:
        # a binary-style bound fix that empties one box, passed to solve
        lb[0], ub[0] = ub[0] + 1.0, ub[0]
    sol = AdmmSolver(qp).solve(lb, ub)
    assert sol.status in ("optimal", "infeasible")
    if sol.status == "optimal":
        assert not empty
        assert check_kkt(qp, sol, 1e-7).ok
        return
    lp = linprog(np.zeros(n), A_ub=qp.A_le.toarray() if n_le else None,
                 b_ub=qp.b_le if n_le else None,
                 A_eq=qp.A_eq.toarray() if n_eq else None,
                 b_eq=qp.b_eq if n_eq else None,
                 bounds=list(zip(lb, ub)), method="highs")
    assert lp.status == 2


@settings(derandomize=True, max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), other=st.integers(0, 2**32 - 1),
       n=st.integers(1, 8), rank=st.integers(0, 8), n_eq=st.integers(0, 3),
       n_le=st.integers(0, 6))
def test_foreign_warm_start_matches_cold_solve(seed, other, n, rank, n_eq, n_le):
    # a start from another program of the same shape, or one pricing
    # every bound and every row (more rows than can be independent),
    # changes the path of the solve but not its answer
    qp = _random_program(seed, n, min(rank, n), n_eq, n_le)
    ws = AdmmSolver(qp)
    cold = ws.solve()
    foreign = AdmmSolver(_random_program(other, n, min(rank, n), n_eq, n_le)).solve()
    rng = np.random.default_rng(other)
    dependent = QpSolution(rng.normal(size=n),
                           rng.choice([-1.0, 1.0], n) * rng.uniform(0.1, 2.0, n),
                           rng.normal(size=n_eq), rng.uniform(0.1, 2.0, n_le),
                           np.nan, "shifted")
    for warm in (foreign, dependent):
        sol = ws.solve(warm=warm)
        assert sol.status == cold.status
        if cold.status == "optimal":
            assert abs(sol.objective - cold.objective) <= \
                1e-9 * max(1.0, abs(cold.objective))
            assert check_kkt(qp, sol, 1e-7).ok


def _counted_cholesky(monkeypatch):
    calls = []
    real = qpmod._cholesky

    def counted(a):
        calls.append(a.shape[0])
        return real(a)

    monkeypatch.setattr(qpmod, "_cholesky", counted)
    return calls


def _separable_program():
    # diagonal Q, and every unconstrained minimizer but the last outside
    # the box: a cold solve joins one bound for each of those and never
    # drops
    d = np.array([1.0, 2.0, 0.5, 3.0, 1.5, 4.0, 2.0])
    xstar = np.array([3.0, -3.0, 2.0, -2.0, 4.0, -4.0, 0.5])
    return QuadraticProgram(7, np.diag(d), -d * xstar, -np.ones(7), np.ones(7)), xstar


def test_cold_joins_grow_the_factor_without_refactoring(monkeypatch):
    qp, xstar = _separable_program()
    ws = AdmmSolver(qp)
    calls = _counted_cholesky(monkeypatch)
    sol = ws.solve()
    assert sol.status == "optimal" and sol.iterations == 6
    assert calls == []
    assert check_kkt(qp, sol, 1e-7).ok
    assert np.allclose(sol.primal, np.clip(xstar, -1.0, 1.0), rtol=0, atol=1e-9)


def _drop_two_join_one(monkeypatch, copy):
    # widening two active bounds makes their warm rows leave, and
    # tightening the last one makes its bound join: one factorization
    # per drop and none for the join
    qp, xstar = _separable_program()
    ws = AdmmSolver(qp)
    warm = ws.solve()
    if copy:
        warm = dataclasses.replace(warm)
    lb, ub = qp.lb.copy(), qp.ub.copy()
    ub[0], lb[1], ub[6] = 5.0, -5.0, 0.2
    calls = _counted_cholesky(monkeypatch)
    sol = ws.solve(lb, ub, warm=warm)
    assert sol.status == "optimal" and sol.iterations == 3
    assert check_kkt(QuadraticProgram(7, qp.Q, qp.c, lb, ub), sol, 1e-7).ok
    assert np.allclose(sol.primal, np.clip(xstar, lb, ub), rtol=0, atol=1e-9)
    return calls


def test_warm_solve_refactors_once_per_drop(monkeypatch):
    # a start from the workspace's own last solution takes its kept
    # working set and factor
    assert _drop_two_join_one(monkeypatch, copy=False) == [5, 4]


def test_copied_warm_start_factors_its_start(monkeypatch):
    # a copy of that solution misses the slot: its set is read off the
    # multipliers and factored before the drops
    assert _drop_two_join_one(monkeypatch, copy=True) == [6, 5, 4]


@pytest.mark.parametrize("first, second, factors", [
    # x0's upper bound is active, then gone: its row has no target, and
    # the start factors the other five
    ({}, {"ub": (0, np.inf)}, [5]),
    # x6 is fixed, so its row takes a multiplier of either sign; then
    # it is a box again, where only one sign is right: the start factors
    # all seven, and x6's row drops
    ({"lb": (6, 0.2), "ub": (6, 0.2)}, {}, [7, 6]),
])
def test_kept_start_that_no_longer_fits_is_factored_anew(monkeypatch, first, second,
                                                         factors):
    qp, xstar = _separable_program()
    ws = AdmmSolver(qp)

    def bounds(change):
        lb, ub = qp.lb.copy(), qp.ub.copy()
        for name, (j, v) in change.items():
            {"lb": lb, "ub": ub}[name][j] = v
        return lb, ub

    warm = ws.solve(*bounds(first))
    lb, ub = bounds(second)
    calls = _counted_cholesky(monkeypatch)
    sol = ws.solve(lb, ub, warm=warm)
    assert calls == factors
    assert sol.status == "optimal"
    assert check_kkt(QuadraticProgram(7, qp.Q, qp.c, lb, ub), sol, 1e-7).ok
    assert np.allclose(sol.primal, np.clip(xstar, lb, ub), rtol=0, atol=1e-9)


def _child_bounds(qp, rng):
    """A branch-and-bound child's box: one variable fixed inside its box."""
    lb, ub = qp.lb.copy(), qp.ub.copy()
    j = int(rng.integers(qp.n))
    lb[j] = ub[j] = rng.uniform(lb[j], ub[j])
    return lb, ub


def _stationarity_bound(qp, sol):
    """1e-9 plus the rounding slack of check_kkt's own sum."""
    terms = [np.abs(qp.Q) @ np.abs(sol.primal), np.abs(qp.c), np.abs(sol.dual_bounds),
             np.abs(qp.A_eq.T) @ np.abs(sol.dual_eq),
             np.abs(qp.A_le.T) @ np.abs(sol.dual_ineq)]
    return 1e-9 + 1e-13 * (1.0 + max(t.max(initial=0.0) for t in terms))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8),
       rank=st.integers(0, 8), n_eq=st.integers(0, 3), n_le=st.integers(0, 6))
def test_optimal_solves_are_stationary_to_the_row_tolerance(seed, n, rank, n_eq, n_le):
    # the proximal loop stops once eps |x - x_c| is within 1e-9, and that
    # is the only stationarity error a solve leaves: cold, and warm from
    # the workspace's own last solution
    qp = _random_program(seed, n, min(rank, n), n_eq, n_le)
    ws = AdmmSolver(qp)
    cold = ws.solve()
    lb, ub = _child_bounds(qp, np.random.default_rng(seed))
    child = ws.solve(lb, ub, warm=cold)
    for sol, (lo, hi) in ((cold, (qp.lb, qp.ub)), (child, (lb, ub))):
        if sol.status == "optimal":
            sub = QuadraticProgram(n, qp.Q, qp.c, lo, hi, qp.A_eq, qp.b_eq,
                                   qp.A_le, qp.b_le)
            assert check_kkt(sub, sol).stationarity <= _stationarity_bound(sub, sol)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8),
       rank=st.integers(0, 8), n_eq=st.integers(0, 3), n_le=st.integers(0, 6))
def test_kept_start_matches_a_copy_start(seed, n, rank, n_eq, n_le):
    # a start from the workspace's own last solution reuses its working
    # set and factor; a copy of that solution misses the slot and reads
    # the set off the multipliers. Both reach the same optimum
    qp = _random_program(seed, n, min(rank, n), n_eq, n_le)
    ws = AdmmSolver(qp)
    parent = ws.solve()
    if parent.status != "optimal":
        return
    lb, ub = _child_bounds(qp, np.random.default_rng(seed))
    sub = QuadraticProgram(n, qp.Q, qp.c, lb, ub, qp.A_eq, qp.b_eq, qp.A_le, qp.b_le)
    own = ws.solve(lb, ub, warm=parent)
    copy = ws.solve(lb, ub, warm=dataclasses.replace(parent))
    for sol in (own, copy):
        assert sol.status == copy.status
        if sol.status == "optimal":
            assert abs(sol.objective - copy.objective) <= 1e-9 * max(1.0, abs(copy.objective))
            assert check_kkt(sub, sol, 1e-7).ok



def test_search_nodes_on_a_window_are_stationary(day_scenario, monkeypatch):
    # home1's bundled-day window at t=12: a search over ill-conditioned
    # working sets, where the last round's refinement step is what holds
    # every node's stationarity to 1e-9
    miqp = build_mpo(day_scenario.agents[0], slice_horizon(day_scenario, 12),
                     day_scenario.weights)
    base, solve, checked = miqp.base, AdmmSolver.solve, []

    def checked_solve(self, lb=None, ub=None, **kw):
        sol = solve(self, lb, ub, **kw)
        if sol.status == "optimal":
            sub = QuadraticProgram(base.n, base.Q, base.c, lb, ub, base.A_eq, base.b_eq,
                                   base.A_le, base.b_le)
            checked.append(check_kkt(sub, sol).stationarity <= _stationarity_bound(sub, sol))
        return sol
    monkeypatch.setattr(AdmmSolver, "solve", checked_solve)
    solve_miqp(miqp)
    assert len(checked) > 10 and all(checked)

def test_dependent_join_swaps_and_refactors(monkeypatch):
    # the warm start holds x <= 2; the row x <= 1 depends on it, so it
    # swaps in for the bound, and the swap refactors
    qp = QuadraticProgram(1, [[1.0]], [-3.0], ub=[2.0], A_le=[[1.0]], b_le=[1.0])
    ws = AdmmSolver(qp)
    warm = QpSolution(np.array([2.0]), np.array([1.0]), np.zeros(0),
                      np.zeros(1), np.nan, "shifted")
    calls = _counted_cholesky(monkeypatch)
    sol = ws.solve(warm=warm)
    assert sol.status == "optimal" and sol.iterations == 2
    assert calls == [1, 1]
    assert check_kkt(qp, sol, 1e-7).ok
    assert sol.primal[0] == pytest.approx(1.0, abs=1e-12)
    assert sol.dual_bounds[0] == 0.0
    assert sol.dual_ineq[0] == pytest.approx(2.0, abs=1e-9)
