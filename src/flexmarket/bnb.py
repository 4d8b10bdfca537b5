"""Branch-and-bound for quadratic programs with binary variables.

The binaries arise from an exact big-M split of absolute power values:
P = P+ - P-, |P| = P+ + P-, with 0 <= P+ <= z*Pmax and
0 <= P- <= (1-z)*|Pmin| gating the two halves through z in {0,1}. The
continuous relaxation is the per-step convex hull of that disjunction,
so branching on z is the only source of integrality work.

Search is deterministic: best-bound node selection with most-fractional
branching, an initial rounding dive for an incumbent, and node bounds
inherited monotonically down each branch. Fixing a binary only shrinks
its box bounds, so every node reuses the one AdmmSolver workspace and
starts from its parent's active set. The root starts from the caller's
`root_warm` (in a day simulation, the agent's previous root relaxation
shifted one step) or cold, and comes back as `MiqpSolution.root` for
the caller to carry on. Every node solve is exact, so a
node's objective is a true bound and an incumbent is a feasible leaf.
The search runs single-threaded, which is what guarantees bit-identical
results for identical inputs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .qp import AdmmSolver, QpSolution, QuadraticProgram

INT_TOL = 1e-6                       # a relaxation this close to 0/1 is integral


class MiqpError(ValueError):
    """Malformed mixed-integer QP (bad binary indices or bounds), or a
    node relaxation the QP engine could not finish."""


class MixedIntegerQp:
    """A QuadraticProgram plus a designated set of binary variables, and
    an optional warm start of the root relaxation (`root_warm`)."""

    def __init__(self, base: QuadraticProgram, binary_vars):
        self.base = base
        self.root_warm: QpSolution | None = None
        self.binary_vars = tuple(int(i) for i in binary_vars)
        seen = set()
        for i in self.binary_vars:
            if not 0 <= i < base.n:
                raise MiqpError(f"binary index {i} out of range")
            if i in seen:
                raise MiqpError(f"binary index {i} listed twice")
            seen.add(i)
            if base.lb[i] < -1e-12 or base.ub[i] > 1.0 + 1e-12:
                raise MiqpError(f"binary variable {i} must have bounds within [0, 1]")


@dataclass
class BnbConfig:
    node_limit: int = 5000
    gap_tol: float = 1e-6            # relative optimality gap at termination


@dataclass
class MiqpSolution:
    """Best integer-feasible point found, with its proof state."""

    primal: np.ndarray
    assignment: tuple
    objective: float
    status: str                      # "optimal" | "node_limit" | "infeasible"
    gap: float
    nodes: int
    root: QpSolution | None = field(default=None, repr=False)


def _fractionality(zvals):
    return np.abs(zvals - np.round(zvals))


def solve_miqp(miqp: MixedIntegerQp, cfg: BnbConfig | None = None) -> MiqpSolution:
    """Best-bound branch-and-bound over the binary variables."""
    cfg = cfg or BnbConfig()
    base = miqp.base
    bins = np.array(miqp.binary_vars, dtype=int)
    ws = AdmmSolver(base)
    lb0 = base.lb.copy()
    ub0 = base.ub.copy()

    def solve_node(fix, warm):
        lo = lb0.copy()
        hi = ub0.copy()
        for j, v in fix.items():
            lo[j] = max(lo[j], v)
            hi[j] = min(hi[j], v)
        sol = ws.solve(lo, hi, warm=warm)
        if sol.status == "iteration_limit":
            raise MiqpError(f"node relaxation stopped after {sol.iterations} "
                            "active-set changes")
        return sol

    root = solve_node({}, miqp.root_warm)
    nodes = 1
    if root.status == "infeasible":
        return MiqpSolution(np.full(base.n, np.nan), (), np.nan, "infeasible",
                            np.inf, nodes, root)
    if len(bins) == 0:
        return MiqpSolution(root.primal, (), root.objective, "optimal", 0.0,
                            nodes, root)
    incumbent: QpSolution | None = None
    inc_fix: dict = {}

    def try_incumbent(sol, fix):
        nonlocal incumbent, inc_fix
        if sol.status == "optimal" and (incumbent is None
                                        or sol.objective < incumbent.objective):
            incumbent = sol
            inc_fix = dict(fix)

    # iterated rounding dive for an initial incumbent: fix the confident
    # binaries, else the least fractional one, and re-solve. On the bundled
    # day no relaxed binary is confident, so each step fixes just one
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
        cur = solve_node(fix, cur)
        nodes += 1
    try_incumbent(cur, fix)

    # heap of open nodes: (bound, tiebreak, fix, relaxation solution)
    counter = 0
    heap = [(root.objective, counter, {}, root)]
    limit_hit = False

    while heap:
        bound, _, fix, rel = heapq.heappop(heap)
        cut = (np.inf if incumbent is None
               else incumbent.objective - cfg.gap_tol * max(1.0, abs(incumbent.objective)))
        if bound >= cut:
            continue
        frac = _fractionality(rel.primal[bins])
        if np.max(frac) <= INT_TOL:
            # relaxation already integral: fix exactly and accept
            leaf_fix = dict(fix)
            for j in bins:
                leaf_fix[int(j)] = float(np.round(rel.primal[j]))
            leaf = solve_node(leaf_fix, rel)
            nodes += 1
            try_incumbent(leaf, leaf_fix)
            continue
        branch_j = int(bins[int(np.argmax(frac))])
        near = float(np.round(rel.primal[branch_j]))
        if nodes + 2 > cfg.node_limit:
            heapq.heappush(heap, (bound, counter + 1, fix, rel))
            limit_hit = True
            break
        for val in (near, 1.0 - near):
            child_fix = dict(fix)
            child_fix[branch_j] = val
            child = solve_node(child_fix, rel)
            nodes += 1
            if child.status != "optimal":
                continue
            if np.max(_fractionality(child.primal[bins])) <= INT_TOL:
                leaf_fix = dict(child_fix)
                for j in bins:
                    leaf_fix[int(j)] = float(np.round(child.primal[j]))
                if leaf_fix == child_fix:
                    try_incumbent(child, child_fix)
                else:
                    leaf = solve_node(leaf_fix, child)
                    nodes += 1
                    try_incumbent(leaf, leaf_fix)
                continue
            cut = (np.inf if incumbent is None
                   else incumbent.objective - cfg.gap_tol * max(1.0, abs(incumbent.objective)))
            child_bound = max(bound, child.objective)
            if child_bound < cut:
                counter += 1
                heapq.heappush(heap, (child_bound, counter, child_fix, child))

    if incumbent is None:
        # without a feasible leaf, only a finished search proves infeasibility
        return MiqpSolution(np.full(base.n, np.nan), (), np.nan,
                            "node_limit" if limit_hit else "infeasible",
                            np.inf, nodes, root)

    remaining = min((b for b, _, _, _ in heap), default=np.inf)
    gap = max(0.0, (incumbent.objective - remaining)
              / max(1.0, abs(incumbent.objective)))
    status = "node_limit" if limit_hit and gap > cfg.gap_tol else "optimal"
    assignment = tuple(int(round(inc_fix.get(int(j), incumbent.primal[j])))
                       for j in bins)
    return MiqpSolution(incumbent.primal, assignment, incumbent.objective,
                        status, gap, nodes, root)


def enumerate_binaries(miqp: MixedIntegerQp):
    """Exhaustive reference: solve one QP per binary assignment.

    Returns (best objective, best assignment, best QpSolution) over all
    2^k assignments, or (nan, None, None) when every leaf is infeasible.
    Intended for small k as an independent check of solve_miqp.
    """
    base = miqp.base
    bins = list(miqp.binary_vars)
    ws = AdmmSolver(base)
    best = (np.nan, None, None)
    for mask in range(2 ** len(bins)):
        bits = tuple((mask >> k) & 1 for k in range(len(bins)))
        lo = base.lb.copy()
        hi = base.ub.copy()
        for j, v in zip(bins, bits):
            lo[j] = max(lo[j], float(v))
            hi[j] = min(hi[j], float(v))
        sol = ws.solve(lo, hi)
        if sol.status != "optimal":
            continue
        if best[1] is None or sol.objective < best[0]:
            best = (sol.objective, bits, sol)
    return best
