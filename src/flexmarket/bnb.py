"""Branch-and-bound for quadratic programs with binary variables.

The binaries arise from an exact big-M split of absolute power values:
P = P+ - P-, |P| = P+ + P-, with 0 <= P+ <= z*Pmax and
0 <= P- <= (1-z)*|Pmin| gating the two halves through z in {0,1}. The
continuous relaxation is the per-step convex hull of that disjunction,
so branching on z is the only source of integrality work.

Search is deterministic: best-bound node selection with most-fractional
branching, an initial rounding dive for an incumbent, and node bounds
inherited monotonically down each branch. Fixing a binary only shrinks
its box bounds, so every node reuses the single KKT factorization held
by the AdmmSolver workspace. The search runs single-threaded, which is
what guarantees bit-identical results for identical inputs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .qp import AdmmSolver, QpSolution, QuadraticProgram

INT_TOL = 1e-6                       # a relaxation this close to 0/1 is integral


class MiqpError(ValueError):
    """Malformed mixed-integer QP (bad binary indices, bad big-M rows)."""


class MixedIntegerQp:
    """A QuadraticProgram plus a designated set of binary variables.

    bigm_rows lists the indices (into the <= block) of the gating rows;
    each must involve exactly one binary variable.
    """

    def __init__(self, base: QuadraticProgram, binary_vars, bigm_rows=()):
        self.base = base
        self.binary_vars = tuple(int(i) for i in binary_vars)
        self.bigm_rows = tuple(int(r) for r in bigm_rows)
        seen = set()
        for i in self.binary_vars:
            if not 0 <= i < base.n:
                raise MiqpError(f"binary index {i} out of range")
            if i in seen:
                raise MiqpError(f"binary index {i} listed twice")
            seen.add(i)
            if base.lb[i] < -1e-12 or base.ub[i] > 1.0 + 1e-12:
                raise MiqpError(f"binary variable {i} must have bounds within [0, 1]")
        A = base.A_le.tocsr()
        for r in self.bigm_rows:
            if not 0 <= r < base.n_le:
                raise MiqpError(f"big-M row {r} out of range")
            support = set(A.getrow(r).tocoo().col)
            if len(support & seen) != 1:
                raise MiqpError(f"big-M row {r} must reference exactly one binary")


@dataclass
class BnbConfig:
    node_limit: int = 5000
    gap_tol: float = 1e-6            # relative optimality gap at termination
    qp_tol: float = 1e-6             # tolerance for node relaxations
    final_tol: float = 1e-6          # tolerance for the returned leaf re-solve
    polish_nodes: bool = True        # polish node relaxations (off = fast search)


@dataclass
class MiqpSolution:
    """Best integer-feasible point found, with its proof state."""

    primal: np.ndarray
    assignment: tuple
    objective: float
    status: str                      # "optimal" | "node_limit" | "infeasible"
    gap: float
    nodes: int
    qp_solution: QpSolution | None = None


def _fractionality(zvals):
    return np.abs(zvals - np.round(zvals))


def _warm_start(ws: AdmmSolver, sol: QpSolution | None):
    """Primal, row values and duals of an optimal solve, to start another."""
    if sol is None or sol.status != "optimal":
        return None
    y = np.concatenate([sol.dual_bounds, sol.dual_eq, sol.dual_ineq])
    return (sol.primal, ws.S @ sol.primal, y)


def solve_miqp(miqp: MixedIntegerQp, cfg: BnbConfig | None = None) -> MiqpSolution:
    """Best-bound branch-and-bound over the binary variables."""
    cfg = cfg or BnbConfig()
    base = miqp.base
    bins = np.array(miqp.binary_vars, dtype=int)
    if base.n == 0 or len(bins) == 0:
        ws = AdmmSolver(base)
        sol = ws.solve(tol=cfg.qp_tol)
        if sol.status == "optimal" and not sol.polished:
            # a loose unpolished solve meets its rows only relative to the
            # largest row value; re-solve tight, as for the winning leaf below
            tight = ws.solve(warm=_warm_start(ws, sol), tol=cfg.final_tol)
            if tight.status == "optimal":
                sol = tight
        status = "optimal" if sol.status == "optimal" else (
            "infeasible" if sol.status == "infeasible" else "node_limit")
        return MiqpSolution(sol.primal, (), sol.objective, status, 0.0, 1, sol)

    ws = AdmmSolver(base, stiff_vars=bins)
    lb0 = base.lb.copy()
    ub0 = base.ub.copy()

    def solve_node(fix, warm, tol=None, polish=None):
        lo = lb0.copy()
        hi = ub0.copy()
        for j, v in fix.items():
            lo[j] = max(lo[j], v)
            hi[j] = min(hi[j], v)
        sol = ws.solve(lo, hi, warm=warm, tol=tol or cfg.qp_tol,
                       polish=cfg.polish_nodes if polish is None else polish)
        if sol.status == "iteration_limit" and warm is not None:
            # a bad inherited starting point can stall; a cold solve of the
            # same node usually settles it
            sol = ws.solve(lo, hi, tol=tol or cfg.qp_tol,
                           polish=cfg.polish_nodes if polish is None else polish)
        return sol

    root = solve_node({}, None)
    nodes = 1
    if root.status == "infeasible":
        return MiqpSolution(np.full(base.n, np.nan), (), np.nan, "infeasible",
                            np.inf, nodes)
    incumbent: QpSolution | None = None
    inc_fix: dict = {}

    def try_incumbent(sol, fix):
        nonlocal incumbent, inc_fix
        if sol.status == "optimal" and (incumbent is None
                                        or sol.objective < incumbent.objective):
            incumbent = sol
            inc_fix = dict(fix)

    # iterated rounding dive for an initial incumbent: fix the confident
    # binaries first, re-solve, and let the rest settle
    if root.status == "optimal":
        fix: dict = {}
        cur = root
        while cur.status == "optimal" and len(fix) < len(bins):
            zv = np.clip(cur.primal[bins], 0.0, 1.0)
            frac = _fractionality(zv)
            free = [k for k, j in enumerate(bins) if int(j) not in fix]
            confident = [k for k in free if frac[k] <= 0.2]
            chosen = confident if confident else [min(free, key=lambda k: frac[k])]
            for k in chosen:
                fix[int(bins[k])] = float(np.round(zv[k]))
            cur = solve_node(fix, _warm_start(ws, cur))
            nodes += 1
        if cur.status == "optimal":
            try_incumbent(cur, fix)

    # heap of open nodes: (bound, tiebreak, fix, relaxation solution)
    counter = 0
    root_bound = root.objective if root.status == "optimal" else -np.inf
    heap = [(root_bound, counter, {}, root)]
    limit_hit = False
    unresolved = 0      # nodes dropped without a proof either way
    unresolved_min = np.inf

    while heap:
        bound, _, fix, rel = heapq.heappop(heap)
        cut = (np.inf if incumbent is None
               else incumbent.objective - cfg.gap_tol * max(1.0, abs(incumbent.objective)))
        if bound >= cut:
            continue
        if rel.status == "optimal":
            frac = _fractionality(rel.primal[bins])
            if np.max(frac) <= INT_TOL:
                # relaxation already integral: fix exactly and accept
                leaf_fix = dict(fix)
                for j in bins:
                    leaf_fix[int(j)] = float(np.round(rel.primal[j]))
                leaf = solve_node(leaf_fix, _warm_start(ws, rel))
                nodes += 1
                try_incumbent(leaf, leaf_fix)
                continue
            branch_j = int(bins[int(np.argmax(frac))])
            near = float(np.round(rel.primal[branch_j]))
        else:
            # unresolved relaxation (iteration limit): branch on first free binary
            free = [int(j) for j in bins if int(j) not in fix]
            if not free:
                unresolved += 1
                unresolved_min = min(unresolved_min, bound)
                continue
            branch_j = free[0]
            near = 1.0
        if nodes + 2 > cfg.node_limit:
            heapq.heappush(heap, (bound, counter + 1, fix, rel))
            limit_hit = True
            break
        for val in (near, 1.0 - near):
            child_fix = dict(fix)
            child_fix[branch_j] = val
            child = solve_node(child_fix, _warm_start(ws, rel))
            nodes += 1
            if child.status == "infeasible":
                continue
            if child.status == "optimal":
                child_bound = child.objective
                if not child.polished:
                    # an unpolished objective is only tol-accurate: deflate
                    # so bound noise can never prune the true optimum
                    child_bound -= 30.0 * cfg.qp_tol * max(1.0, abs(child_bound))
                child_bound = max(bound, child_bound)
            else:
                child_bound = bound
            if child.status == "optimal" and np.max(
                    _fractionality(child.primal[bins])) <= INT_TOL:
                leaf_fix = dict(child_fix)
                for j in bins:
                    leaf_fix[int(j)] = float(np.round(child.primal[j]))
                if leaf_fix == child_fix:
                    try_incumbent(child, child_fix)
                else:
                    leaf = solve_node(leaf_fix, _warm_start(ws, child))
                    nodes += 1
                    try_incumbent(leaf, leaf_fix)
                continue
            cut = (np.inf if incumbent is None
                   else incumbent.objective - cfg.gap_tol * max(1.0, abs(incumbent.objective)))
            if child_bound < cut:
                counter += 1
                heapq.heappush(heap, (child_bound, counter, child_fix, child))

    if incumbent is None:
        if limit_hit or unresolved:
            # search exhausted without either a feasible point or an
            # infeasibility proof: report the budget problem, not infeasibility
            return MiqpSolution(np.full(base.n, np.nan), (), np.nan, "node_limit",
                                np.inf, nodes)
        return MiqpSolution(np.full(base.n, np.nan), (), np.nan, "infeasible",
                            np.inf, nodes)

    if cfg.final_tol < cfg.qp_tol or not cfg.polish_nodes:
        # tight re-solve of the winning leaf so the returned schedule is
        # feasible to polish accuracy even when the search ran loose
        final = solve_node(inc_fix, _warm_start(ws, incumbent), tol=cfg.final_tol,
                           polish=True)
        if final.status == "optimal":
            incumbent = final

    remaining = min(min((b for b, _, _, _ in heap), default=np.inf),
                    unresolved_min)
    gap = max(0.0, (incumbent.objective - remaining)
              / max(1.0, abs(incumbent.objective)))
    if not heap and not limit_hit and not unresolved:
        gap = 0.0
    status = "node_limit" if ((limit_hit or unresolved) and gap > cfg.gap_tol) \
        else "optimal"
    assignment = tuple(int(round(inc_fix.get(int(j), incumbent.primal[j])))
                       for j in bins)
    return MiqpSolution(incumbent.primal, assignment, incumbent.objective,
                        status, gap, nodes, incumbent)


def enumerate_binaries(miqp: MixedIntegerQp, cfg: BnbConfig | None = None):
    """Exhaustive reference: solve one QP per binary assignment.

    Returns (best objective, best assignment, best QpSolution) over all
    2^k assignments, or (nan, None, None) when every leaf is infeasible.
    The winning leaf is re-solved at the tight final tolerance so the
    reported value matches what solve_miqp reports for the same leaf.
    Intended for small k as an independent check of solve_miqp.
    """
    cfg = cfg or BnbConfig()
    base = miqp.base
    bins = list(miqp.binary_vars)
    ws = AdmmSolver(base, stiff_vars=bins)

    def bounds_for(bits):
        lo = base.lb.copy()
        hi = base.ub.copy()
        for j, v in zip(bins, bits):
            lo[j] = max(lo[j], float(v))
            hi[j] = min(hi[j], float(v))
        return lo, hi

    best = (np.nan, None, None)
    for mask in range(2 ** len(bins)):
        bits = tuple((mask >> k) & 1 for k in range(len(bins)))
        lo, hi = bounds_for(bits)
        if np.any(lo > hi + 1e-12):
            continue
        sol = ws.solve(lo, hi, tol=cfg.qp_tol)
        if sol.status != "optimal":
            continue
        if best[1] is None or sol.objective < best[0]:
            best = (sol.objective, bits, sol)
    if best[1] is not None and cfg.final_tol < cfg.qp_tol:
        lo, hi = bounds_for(best[1])
        tight = ws.solve(lo, hi, tol=cfg.final_tol)
        if tight.status == "optimal":
            best = (tight.objective, best[1], tight)
    return best
