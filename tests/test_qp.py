import dataclasses
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import flexmarket.qp as qpmod
from flexmarket.agent import build_mpo
from flexmarket.bnb import BnbConfig, MixedIntegerQp, solve_miqp
from flexmarket.qp import (INF, AdmmSolver, QpBuilder, QpError, QpSolution, QpTemplate,
                           QuadraticProgram, Slot, check_kkt, solve_qp)
from flexmarket.scenario import read_scenario_doc, scenario_from_dict, slice_horizon

DAY = Path(__file__).resolve().parent.parent / "scenarios" / "three_agent_day.json"


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


_NONFINITE = [
    ({"lb": [np.inf]}, r"lb\[0\] is inf"),
    ({"ub": [-np.inf]}, r"ub\[0\] is -inf"),
    ({"A_eq": [[1.0]], "b_eq": [np.inf]}, r"b_eq\[0\] must be finite"),
    ({"A_le": [[1.0]], "b_le": [-np.inf]}, r"b_le\[0\] must be finite"),
    ({"lb": [np.nan]}, r"lb\[0\] is nan"),
    ({"A_le": [[1.0]], "b_le": [np.nan]}, r"b_le\[0\] must be finite"),
    ({"A_le": [[np.nan]], "b_le": [1.0]}, r"A_le\[0, 0\] must be finite"),
    ({"ub": [np.nan], "c": [-5.0]}, r"ub\[0\] is nan"),
    ({"c0": np.nan}, r"c0 must be finite"),
    ({"c": [np.nan]}, r"c\[0\] must be finite"),
    ({"Q": [[np.nan]]}, r"Q\[0, 0\] must be finite"),
]


@pytest.mark.parametrize("data, message", _NONFINITE)
def test_nonfinite_program_data_is_rejected(data, message):
    # each of these used to solve to a false "optimal" (x = 0, or x = 5
    # past a NaN ub), end at "iteration_limit", or escape as scipy's
    # ValueError
    with pytest.raises(QpError, match=message):
        solve_qp(QuadraticProgram(1, **{"Q": [[1.0]], **data}))


@pytest.mark.parametrize("lb, ub, message", [
    ([np.inf], None, r"lb\[1\] is inf"), (None, [-np.inf], r"ub\[1\] is -inf"),
    ([np.nan], None, r"lb\[1\] is nan"), (None, [np.nan], r"ub\[1\] is nan")])
def test_nonfinite_bound_override_is_rejected(lb, ub, message):
    # solve's bound overrides follow the constructor's rule; the index is
    # the variable's, past the program's rows
    ws = AdmmSolver(QuadraticProgram(2, Q=np.eye(2), A_le=[[1.0, 1.0]], b_le=[1.0]))
    box = (lambda v: None if v is None else np.array([0.0] + v))
    with pytest.raises(QpError, match=message):
        ws.solve(box(lb), box(ub))


@pytest.mark.parametrize("lb, ub, message", [
    (np.zeros(3), None, r"lb has shape \(3,\), expected \(2,\)"),
    (0.75, None, r"lb has shape \(\), expected \(2,\)"),
    (None, np.ones((1, 2)), r"ub has shape \(1, 2\), expected \(2,\)")])
def test_bound_override_must_have_one_entry_per_variable(lb, ub, message):
    # a length-3 lb on two variables escaped as numpy's broadcast
    # ValueError; a scalar lb or a (1, 2) ub was broadcast and solved
    ws = AdmmSolver(QuadraticProgram(2, Q=np.eye(2), A_le=[[1.0, 1.0]], b_le=[1.0]))
    with pytest.raises(QpError, match=message):
        ws.solve(lb, ub)
    assert ws.solve(np.zeros(2), np.ones(2)).status == "optimal"


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


def test_polished_is_the_optimal_status():
    optimal = solve_qp(QuadraticProgram(1, Q=[[2.0]], c=[-2.0], lb=[0.0], ub=[2.0]))
    infeasible = solve_qp(QuadraticProgram(1, Q=[[2.0]], ub=[1.0], A_eq=[[1.0]], b_eq=[5.0]))
    rng = np.random.default_rng(3)
    M = rng.normal(size=(6, 6))
    limited = solve_qp(QuadraticProgram(6, M @ M.T, rng.normal(size=6),
                                        lb=-np.ones(6), ub=np.ones(6),
                                        A_le=rng.normal(size=(3, 6)),
                                        b_le=rng.normal(size=3) + 2), max_iter=4)
    sols = (optimal, infeasible, limited)
    assert [s.status for s in sols] == ["optimal", "infeasible", "iteration_limit"]
    assert [s.polished for s in sols] == [True, False, False]


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


def _record_builder_calls(monkeypatch):
    """Record every builder's square and row calls, in call order, as
    (builder, block, terms, weight), each slot evaluated by calling the
    parameter function that gave it at the builder's source; add_ge is
    recorded as the <= row it adds, negated."""
    calls, values = [], {}
    square, param = QpBuilder.add_square, QpBuilder.param

    def rec_param(self, fn):
        slots = param(self, fn)
        values.update(((self, s), v) for s, v in zip(slots, fn(self._source)))
        return slots

    def rec_square(self, terms, const=0.0, weight=1.0):
        terms = list(terms)
        calls.append((self, "objective", terms, weight))
        return square(self, terms, const, weight)

    def rec_row(name, block, sign):
        add = getattr(QpBuilder, name)

        def rec(self, terms, rhs):
            terms = list(terms)
            calls.append((self, block, [(i, sign * (values[self, a] if isinstance(a, Slot) else a))
                                        for i, a in terms], None))
            return add(self, terms, rhs)
        monkeypatch.setattr(QpBuilder, name, rec)
    monkeypatch.setattr(QpBuilder, "param", rec_param)
    monkeypatch.setattr(QpBuilder, "add_square", rec_square)
    rec_row("add_eq", "eq", 1.0)
    rec_row("add_le", "le", 1.0)
    rec_row("add_ge", "le", -1.0)
    return calls


def _triplets(calls):
    """Each block's (row, column, value) triplets from recorded calls: a
    square of weight w > 0 adds 2 w a_i a_j at (i, j) for each pair of its
    nonzero terms, a row one entry per term."""
    trip = {block: ([], [], []) for block in ("objective", "eq", "le")}
    n_rows = {"eq": 0, "le": 0}
    for _, block, terms, weight in calls:
        ri, ci, vi = trip[block]
        if block == "objective":
            nz = [(i, float(a)) for i, a in terms if a != 0.0] if weight > 0.0 else []
            for i, ai in nz:
                for j, aj in nz:
                    ri.append(i)
                    ci.append(j)
                    vi.append(2.0 * weight * ai * aj)
        else:
            for i, a in terms:
                ri.append(n_rows[block])
                ci.append(i)
                vi.append(float(a))
            n_rows[block] += 1
    return trip


def test_assembly_matches_scipy_coo_reference(day_scenario, monkeypatch):
    # each block compressed from the builder's calls equals scipy's
    # coo -> csr conversion of their triplets: the same structure, the
    # same row data, and Q's sums of repeated square terms to a few ulp.
    # scipy sums a long row in an order of its own; summing four terms of
    # one sign in any two orders differs by at most 3 eps relative. Each
    # program is the template's at the builder's own source
    calls = _record_builder_calls(monkeypatch)
    built, program = [], QpTemplate.program
    monkeypatch.setattr(QpTemplate, "program",
                        lambda self, source: built.append(program(self, source)) or built[-1])
    for make in _reference_programs(day_scenario):
        calls.clear()
        built.clear()
        make()
        (qp,) = built
        assert len({id(builder) for builder, *_ in calls}) == 1
        trip = _triplets(calls)
        shapes = {"objective": (qp.n, qp.n), "eq": (qp.n_eq, qp.n), "le": (qp.n_le, qp.n)}
        refs = [(block, sp.coo_matrix((vals, (rows, cols)), shape=shapes[block]).tocsr())
                for block, (rows, cols, vals) in trip.items()]
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


_COEFS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0, 1e-3, 7.25, 0.1, -1.7])


def _program_bytes(qp):
    """Every number and index of a program, as bytes (so a zero's sign
    counts), with the blocks' shapes."""
    arrays = [qp.lb, qp.ub, qp.c, qp.b_eq, qp.b_le]
    for m in (qp.Q, qp.A_eq, qp.A_le):
        arrays += [m.data, m.indices, m.indptr]
    return ([(a.dtype.str, a.tobytes()) for a in arrays],
            [m.shape for m in (qp.Q, qp.A_eq, qp.A_le)], np.float64(qp.c0).tobytes())


_SLOT = "slot"


def _draw_number(data, values, params=range(6)):
    """A number drawn from `values`, or a slot: (_SLOT, k) for the k-th
    parameter, k drawn from `params`."""
    if data.draw(st.booleans()):
        return (_SLOT, data.draw(st.sampled_from(params)))
    return data.draw(values)


def _draw_params(data):
    """Six numbers for any slot, then three for lower and three for upper
    bounds, so that every box is nonempty."""
    return ([data.draw(_COEFS) for _ in range(6)]
            + [data.draw(st.sampled_from([-2.0, -0.0, 0.0])) for _ in range(3)]
            + [data.draw(st.sampled_from([0.0, 1.0, 3.0])) for _ in range(3)])


def _replay(n, bounds, ops, params):
    """The builder of the drawn calls, its source `params`."""
    b = QpBuilder(params)
    slots = b.param(list)
    num = lambda x: slots[x[1]] if isinstance(x, tuple) else x
    for lb, ub in bounds:
        b.add_var(num(lb), num(ub))
    for kind, ts, w in ops:
        if kind == "square":
            b.add_square(ts, num(w[0]), w[1])
        elif kind == "linear":
            b.add_linear(ts[0][0], num(ts[0][1]))
        elif kind == "const":
            b.add_const(num(w))
        else:
            getattr(b, "add_" + kind)([(i, num(a)) for i, a in ts], num(w))
    return b


def _reference_program(n, bounds, ops, params):
    """`_program_bytes` of the drawn calls' program at `params`, and each
    block's (row, column, value) triplets, made call by call with no
    builder: a bound or side is its number (a `ge` row's coefficients
    and side negated), a row entry and an entry of Q, c or c0 the sum
    from 0.0 of its terms in call order. A square of weight w > 0 and
    constant k adds, over its nonzero coefficients a, 2 w a_i a_j to Q
    and 2 w k a_i to c, and w k k to c0."""
    value = lambda x: params[x[1]] if isinstance(x, tuple) else x
    lb, ub = ([float(value(box[side])) for box in bounds] for side in (0, 1))
    c, c0 = [0.0] * n, 0.0
    rows = {"objective": [{} for _ in range(n)], "eq": [], "le": []}
    sides = {"eq": [], "le": []}
    trip = {block: ([], [], []) for block in rows}

    def add(block, r, j, v):
        rows[block][r][j] = rows[block][r].get(j, 0.0) + v
        for part, x in zip(trip[block], (r, j, v)):
            part.append(x)
    for kind, ts, w in ops:
        if kind == "square":
            k, weight = value(w[0]), w[1]
            if weight == 0.0:
                continue
            nz = [(i, a) for i, a in ts if a != 0.0]
            for i, ai in nz:
                for j, aj in nz:
                    add("objective", i, j, 2.0 * weight * ai * aj)
                c[i] += 2.0 * weight * k * ai
            c0 += weight * k * k
        elif kind == "linear":
            c[ts[0][0]] += value(ts[0][1])
        elif kind == "const":
            c0 += value(w)
        else:
            block, sign = ("eq", 1.0) if kind == "eq" else ("le", -1.0 if kind == "ge" else 1.0)
            rows[block].append({})
            for i, a in ts:
                add(block, len(rows[block]) - 1, i, sign * value(a))
            sides[block].append(sign * value(w))
    arrays = [np.array(v, dtype=float) for v in (lb, ub, c, sides["eq"], sides["le"])]
    shapes = []
    for block in ("objective", "eq", "le"):
        entries = [(j, row[j]) for row in rows[block] for j in sorted(row)]
        arrays += [np.array([v for _, v in entries], dtype=float),
                   np.array([j for j, _ in entries], dtype=np.int32),
                   np.cumsum([0] + [len(row) for row in rows[block]], dtype=np.int32)]
        shapes.append((len(rows[block]), n))
    return ([(a.dtype.str, a.tobytes()) for a in arrays], shapes,
            np.float64(c0).tobytes()), trip


@settings(derandomize=True, max_examples=300, deadline=None)
@given(n=st.integers(0, 5), data=st.data())
def test_builder_blocks_equal_a_per_row_reference(n, data):
    # random streams of row and square calls, with repeated columns, zero
    # coefficients and empty rows. Some numbers are slots: a bound, a
    # side, a row coefficient alone in its column, a linear or a constant
    # term, a square's constant. The template's program at two drawn
    # parameter sets is, byte for byte, what a per-call reference with no
    # builder makes there: columns ascending, each number summed from 0.0
    # over its terms in call order (a square's terms 2 w a_i a_j). The
    # structure is also scipy's coo -> csr, whose sums may take another
    # order
    terms = st.lists(st.tuples(st.integers(0, n - 1), _COEFS), max_size=6) if n else st.just([])
    ops = data.draw(st.lists(st.tuples(st.sampled_from(["eq", "le", "ge", "square", "linear",
                                                        "const"]), terms,
                                       st.sampled_from([0.0, 0.5, 2.0])), max_size=12))
    ops = [(kind, ts, w) for kind, ts, w in ops if kind != "linear" or ts]
    bounds = [(_draw_number(data, st.sampled_from([-INF, -2.0, -0.0]), range(6, 9)),
               _draw_number(data, st.sampled_from([INF, 0.0, 3.0]), range(9, 12)))
              for _ in range(n)]
    for k, (kind, ts, w) in enumerate(ops):
        cols = [i for i, _ in ts]
        if kind in ("eq", "le", "ge"):
            # a coefficient alone in its column may be a slot
            ts = [(i, _draw_number(data, st.just(a)) if cols.count(i) == 1 else a)
                  for i, a in ts]
        elif kind == "linear":
            ts = [(ts[0][0], _draw_number(data, st.just(ts[0][1])))]
        # a square takes (constant, weight); weight 0.3 makes 2 w a
        # rounding product
        ops[k] = (kind, ts, _draw_number(data, st.just(w)) if kind != "square" else
                  (_draw_number(data, st.just(1.0)), data.draw(st.sampled_from([0.0, 0.3, 2.0]))))
    params = _draw_params(data)
    template = QpTemplate(_replay(n, bounds, ops, params))
    for ps in (params, _draw_params(data)):
        qp = template.program(ps)
        want, trip = _reference_program(n, bounds, ops, ps)
        assert _program_bytes(qp) == want
        for block, got in zip(trip, (qp.Q, qp.A_eq, qp.A_le)):
            rows_, cols_, vals_ = trip[block]
            coo = sp.coo_matrix((vals_, (rows_, cols_)), shape=got.shape).tocsr()
            assert np.array_equal(got.indptr, coo.indptr)
            assert np.array_equal(got.indices, coo.indices)
            assert np.allclose(got.data, coo.data, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("row", [[(0, "slot"), (0, 1.0)], [(1, 2.0), (0, 1.0), (0, "slot")],
                                 [(0, "slot"), (0, "slot")]])
def test_builder_rejects_a_slotted_coefficient_sharing_its_column(row):
    # a slotted entry is the slot's value alone, so no other term may
    # share its column in the row
    b = QpBuilder([2.0])
    (slot,) = b.param(list)
    b.add_var()
    b.add_var()
    with pytest.raises(QpError, match="a slotted coefficient shares column 0"):
        b.add_le([(i, slot if a == "slot" else a) for i, a in row], 0.0)


def test_blocks_are_csr_rows_with_ascending_columns(day_scenario):
    # each row of Q, A_eq and A_le lists its columns once, in ascending
    # order, so C, C', G, K and every row product sum in column order
    for make in _reference_programs(day_scenario):
        qp = make()
        for block in (qp.Q, qp.A_eq, qp.A_le):
            assert isinstance(block, sp.csr_matrix)
            for r in range(block.shape[0]):
                cols = block.indices[block.indptr[r]:block.indptr[r + 1]]
                assert (np.diff(cols) > 0).all()


def test_workspace_setup_matches_vstack_reference(day_scenario):
    # G = H^-1 C' equals dpotrs on the stacked sparse C, bit for bit: it
    # is L'^-1 V with V = L^-1 C', the two solves dpotrs makes. K = V'V
    # exactly, so K is exactly symmetric, and it lies within 4 ulp of
    # the largest entry of (CG + (CG)')/2, the form K had as C G averaged
    # with its transpose. The loop's CSR C equals the stacked one
    for make in _reference_programs(day_scenario):
        qp = make()
        ws = AdmmSolver(qp)
        C = sp.vstack([qp.A_eq, qp.A_le, sp.identity(qp.n, format="csc")], format="csr")
        G = qpmod._chol_solve(ws._chol, C.T.toarray())
        V = scipy.linalg.solve_triangular(ws._chol, C.T.toarray(), lower=True)
        K = np.asarray(C @ G)
        K = 0.5 * (K + K.T)
        assert np.array_equal(ws._G, G)
        assert np.array_equal(ws._K, V.T @ V)
        assert np.array_equal(ws._K, ws._K.T)
        assert np.all(np.abs(ws._K - K) <= 4 * np.spacing(np.abs(K).max()))
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(ws._C, part), getattr(C, part))


def _heat_pump_day():
    """The bundled day with each home's heat pump and PV only: no
    binaries, and most windows carry their frame."""
    doc = read_scenario_doc(DAY)
    for a in doc["agents"]:
        a["devices"] = {kind: a["devices"][kind] for kind in ("heat_pump", "pv")}
    return scenario_from_dict(doc, base_dir=DAY.parent)


def _own_copy(qp):
    """A copy of a program that no template made, sharing no array."""
    return QuadraticProgram(qp.n, qp.Q.copy(), qp.c.copy(), qp.lb.copy(), qp.ub.copy(),
                            qp.A_eq.copy(), qp.b_eq.copy(), qp.A_le.copy(), qp.b_le.copy(),
                            qp.c0, validate_psd=False)


def _set_up_arrays(ws):
    return (ws._chol, ws._K, ws._G, ws._C.data, ws._C.indices, ws._C.indptr)


@pytest.mark.parametrize("day", ["bundled", "heat_pump"])
def test_frame_set_ups_match_workspaces_of_their_own(day_scenario, monkeypatch, day):
    # every window built through the frame the window before left: its
    # workspace takes the frame's factor and C's layout, and its factor,
    # K, G and C equal those of a copy's workspace that shares nothing.
    # Only a frame's first workspace factors Q + eps I
    s = day_scenario if day == "bundled" else _heat_pump_day()
    calls = _counted_cholesky(monkeypatch)
    frames, factored = [], 0
    for spec in s.agents:
        frame = None
        for t in range(s.time_grid.total_steps):
            miqp = build_mpo(spec, slice_horizon(s, t), s.weights, frame)
            frame, qp = miqp.frame, miqp.base
            frames.append(frame)
            before = len(calls)
            ws = AdmmSolver(qp)
            factored += len(calls) - before
            assert ws._chol is qp.setup_base.chol
            assert ws._C.indices is qp.setup_base.C.indices
            ref = AdmmSolver(_own_copy(qp))
            assert ref._chol is not ws._chol
            for got, want in zip(_set_up_arrays(ws), _set_up_arrays(ref)):
                assert np.array_equal(got, want)
    assert factored == len({id(f) for f in frames}) == (55 if day == "bundled" else 3)


def test_a_replaced_q_or_block_takes_nothing_from_the_frame():
    # a program whose Q, or one of whose blocks, was replaced after the
    # template made it factors its own Q or lays out its own C, and
    # leaves the frame's alone
    s = _heat_pump_day()
    spec = s.agents[0]
    first = build_mpo(spec, slice_horizon(s, 0), s.weights)
    shared = AdmmSolver(first.base)
    second = build_mpo(spec, slice_horizon(s, 1), s.weights, first.frame)
    assert second.frame is first.frame
    base = second.base.setup_base
    qp = second.base
    qp.Q = qp.Q * 2.0
    ws = AdmmSolver(qp)
    assert ws._chol is not shared._chol and ws._C.indices is shared._C.indices
    assert np.array_equal(ws._chol, AdmmSolver(_own_copy(qp))._chol)
    assert not np.array_equal(ws._chol, shared._chol)
    qp = build_mpo(spec, slice_horizon(s, 2), s.weights, first.frame).base
    qp.A_le = qp.A_le.copy()
    ws = AdmmSolver(qp)
    assert ws._chol is shared._chol and ws._C.indices is not shared._C.indices
    assert np.array_equal(ws._C.indices, shared._C.indices)
    assert base.chol is shared._chol and base.C is shared._C


def test_threads_filling_one_base_compute_the_same_bytes():
    # a base is filled without a lock: workspaces of one frame's programs
    # set up at once, from a barrier with a short switch interval, must
    # each hold the bytes a workspace of its own would
    s = _heat_pump_day()
    spec, frame, qps = s.agents[0], None, []
    for t in range(12):
        miqp = build_mpo(spec, slice_horizon(s, t), s.weights, frame)
        frame = miqp.frame
        qps.append(miqp.base)
    assert len({id(qp.setup_base) for qp in qps}) == 1
    assert qps[0].setup_base.chol is None
    barrier, out = threading.Barrier(len(qps)), {}

    def set_up(i):
        barrier.wait(timeout=10)
        out[i] = AdmmSolver(qps[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=set_up, args=(i,)) for i in range(len(qps))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads) and len(out) == len(qps)
    for i, qp in enumerate(qps):
        ref = AdmmSolver(_own_copy(qp))
        for got, want in zip(_set_up_arrays(out[i]), _set_up_arrays(ref)):
            assert np.array_equal(got, want)


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


class _Factorizations(list):
    """The sizes of the matrices factored whole (K[W, W] gathered from K,
    or Q + eps*I at set-up), in call order; `deleted` holds, per row
    deleted from a factor, the size of the trailing block it refactors
    (0 for the last row, a slice)."""

    def __init__(self):
        super().__init__()
        self.deleted = []


def _counted_cholesky(monkeypatch):
    calls = _Factorizations()
    real_cholesky, real_delete = qpmod._cholesky, qpmod._delete_row
    deleting = False

    def counted(a):
        if not deleting:
            calls.append(a.shape[0])
        return real_cholesky(a)

    def counted_delete(fac, i):
        nonlocal deleting
        calls.deleted.append(len(fac) - 1 - i)
        deleting = True
        try:
            return real_delete(fac, i)
        finally:
            deleting = False

    monkeypatch.setattr(qpmod, "_cholesky", counted)
    monkeypatch.setattr(qpmod, "_delete_row", counted_delete)
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
    assert calls == [] and calls.deleted == []
    assert check_kkt(qp, sol, 1e-7).ok
    assert np.allclose(sol.primal, np.clip(xstar, -1.0, 1.0), rtol=0, atol=1e-9)


def _drop_two_join_one(monkeypatch, copy):
    # widening two active bounds makes their warm rows leave, and
    # tightening the last one makes its bound join: one row deletion per
    # drop, and no factorization for the join
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


def test_warm_solve_deletes_a_row_per_drop(monkeypatch):
    # a start from the workspace's own solution takes the working set and
    # factor it carries, so nothing is factored from K. The cold solve
    # joined x5, x4, x1, x0, x3, x2: x0's row drops at position 3 and x1's
    # at 2, each refactoring the two rows after it
    calls = _drop_two_join_one(monkeypatch, copy=False)
    assert calls == [] and calls.deleted == [2, 2]


def test_copied_warm_start_factors_only_its_start(monkeypatch):
    # a copy of that solution carries no exit state: its set is read off
    # the multipliers in row order and factored once, and the two drops
    # delete the first row each time
    calls = _drop_two_join_one(monkeypatch, copy=True)
    assert calls == [6] and calls.deleted == [5, 4]


@pytest.mark.parametrize("first, second, factors", [
    # (factored whole, deleted): x0's upper bound is active, then gone:
    # its row has no target, and the start factors the other five
    ({}, {"ub": (0, np.inf)}, ([5], [])),
    # x6 is fixed, so its row takes a multiplier of either sign; then
    # it is a box again, where only one sign is right: the start factors
    # all seven, and x6's row, the last, drops as a slice
    ({"lb": (6, 0.2), "ub": (6, 0.2)}, {}, ([7], [0])),
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
    assert (calls, calls.deleted) == factors
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


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
       shift=st.floats(1e-2, 10.0))
def test_deleting_a_row_equals_factoring_the_reduced_matrix(seed, n, shift):
    # for every position: the rows before it kept, the trailing block
    # refactored from the old factor alone
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(n, n))
    K = M @ M.T + shift * np.eye(n)
    fac = qpmod._cholesky(K)
    for i in range(n):
        got = qpmod._delete_row(fac, i)
        reduced = np.delete(np.delete(K, i, axis=0), i, axis=1)
        want = scipy.linalg.cholesky(reduced, lower=True) if n > 1 else reduced
        assert got.shape == want.shape and got.flags.f_contiguous
        assert not np.triu(got, 1).any()
        assert np.abs(got - want).max(initial=0.0) <= 1e-12 * np.abs(want).max(initial=1.0)


def _binary_program(seed, n=8, n_bin=4, n_le=4):
    """A strictly convex program whose first n_bin variables lie in
    [0, 1], with dense <= rows around an interior point."""
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(n, n))
    lb = np.r_[np.zeros(n_bin), -rng.uniform(0.5, 2.0, n - n_bin)]
    ub = np.r_[np.ones(n_bin), rng.uniform(0.5, 2.0, n - n_bin)]
    A = rng.normal(size=(n_le, n))
    x0 = rng.uniform(lb, ub)
    qp = QuadraticProgram(n, M @ M.T, 3.0 * rng.normal(size=n), lb, ub,
                          A_le=A, b_le=A @ x0 + rng.uniform(0.0, 0.5, n_le))
    return MixedIntegerQp(qp, range(n_bin))


def test_search_factors_nothing_from_k(monkeypatch):
    # the cold root grows its factor by joins, and the dive's steps, the
    # branch children and the swept leaves each restart from their
    # parent's factor, deleting rows as they drop; no node joins a
    # dependent row here, so nothing is factored from K
    miqp = _binary_program(2)
    AdmmSolver(miqp.base)                # factors Q + eps*I into the base
    calls = _counted_cholesky(monkeypatch)
    sol = solve_miqp(miqp, BnbConfig(node_limit=10_000))
    assert sol.status == "optimal" and sol.nodes == 16
    assert calls == [] and len(calls.deleted) == 12


def test_another_workspace_or_a_copy_reads_the_set_off_multipliers(monkeypatch):
    # only the workspace that solved a solution takes its exit state; a
    # second workspace of the same program, and a replace() copy, factor
    # the rows its multipliers price
    qp, _ = _separable_program()
    ws, other = AdmmSolver(qp), AdmmSolver(qp)
    sol = ws.solve()
    assert sol.exit_state is not None
    assert dataclasses.replace(sol).exit_state is None
    calls = _counted_cholesky(monkeypatch)
    for start, workspace in ((sol, other), (dataclasses.replace(sol), ws), (sol, ws)):
        workspace.solve(warm=start)
    assert calls == [6, 6] and calls.deleted == []


def test_the_returned_root_carries_no_exit_state(monkeypatch):
    miqp = _binary_program(2)
    roots = []
    solve = AdmmSolver.solve

    def recorded(self, *args, **kw):
        roots.append(solve(self, *args, **kw))
        return roots[-1]

    monkeypatch.setattr(AdmmSolver, "solve", recorded)
    sol = solve_miqp(miqp)
    assert roots[0].exit_state is not None
    assert sol.root.exit_state is None
    assert np.array_equal(sol.root.primal, roots[0].primal)
    assert sol.root.status == roots[0].status == "optimal"


@settings(derandomize=True, max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12), n_le=st.integers(1, 6),
       bound=st.booleans(), scale=st.sampled_from([1.0, -1.0, 2.0, 1e-3, 1e3]),
       fixes=st.integers(0, 4), noise=st.floats(0.0, 1.0))
def test_programs_with_a_repeated_row_solve_exactly(seed, n, n_le, bound, scale, fixes,
                                                     noise):
    # an exact or scaled copy of a <= row or of a bound makes joins depend
    # on the working set, so solves swap rows; binary fixes and perturbed
    # warm starts move which rows are in it. Each solve is optimal with
    # its KKT residuals small, or infeasible, and none runs into the
    # iteration limit
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(n, int(rng.integers(1, n + 1))))
    lb, ub = -rng.uniform(0.0, 2.0, n), rng.uniform(0.0, 2.0, n)
    n_bin = min(n, 4)
    lb[:n_bin], ub[:n_bin] = 0.0, 1.0
    A = rng.normal(size=(n_le, n))
    b = A @ rng.uniform(lb, ub) + rng.uniform(0.0, 0.5, n_le)
    if bound:
        j = int(rng.integers(n))
        row, side = np.eye(n)[j], ub[j]
    else:
        r = int(rng.integers(n_le))
        row, side = A[r], b[r]
    A, b = np.vstack([A, scale * row]), np.r_[b, scale * side]
    qp = QuadraticProgram(n, M @ M.T, 3.0 * rng.normal(size=n), lb, ub, A_le=A, b_le=b)
    ws = AdmmSolver(qp)
    warm = ws.solve()
    assert warm.status in ("optimal", "infeasible")
    for _ in range(fixes + 1):
        lo, hi = qp.lb.copy(), qp.ub.copy()
        j = rng.choice(n_bin, int(rng.integers(1, n_bin + 1)), replace=False)
        lo[j] = hi[j] = rng.integers(0, 2, len(j))
        starts = [warm]
        if warm.status == "optimal" and noise:
            # a start that prices the last optimum's rows a little off
            starts.append(QpSolution(warm.primal + noise * rng.normal(size=n),
                                     warm.dual_bounds * rng.uniform(0.5, 1.5, n), warm.dual_eq,
                                     warm.dual_ineq * rng.uniform(0.5, 1.5, n_le + 1),
                                     np.nan, "shifted"))
        for start in starts:
            sol = ws.solve(lo, hi, warm=start)
            assert sol.status in ("optimal", "infeasible")
            if sol.status == "optimal":
                sub = QuadraticProgram(n, qp.Q, qp.c, lo, hi, A_le=A, b_le=b)
                assert check_kkt(sub, sol, 1e-7).ok
        if sol.status == "optimal":
            warm = sol
