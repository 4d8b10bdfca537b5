"""Branch-and-bound for quadratic programs with binary variables.

The binaries arise from an exact big-M split of absolute power values,
one per window step whose power interval [lo, hi] holds both signs:
P = P+ - P-, |P| = P+ + P-, with 0 <= P+ <= z*hi and
0 <= P- <= (1-z)*(-lo) gating the two halves through z in {0,1}; a step
whose interval fixes P's sign has no binary. Relaxing z to [0, 1] gives
the convex hull of that disjunction in (P+, P-, z), but not once the
flexibility delta is included: its band
eps_lo*(P+ + P-) <= delta <= eps_hi*(P+ + P-) reads P+ + P-, which the
relaxation lets exceed |P| (P+ = P- > 0 at P = 0). Branching on z is the
only source of integrality work.

Search is deterministic: best-bound node selection with
most-fractional branching, an initial rounding dive for an incumbent
(fractionalities within 1e-9 tie, and the lowest index takes them),
and node bounds inherited monotonically down each branch. A popped node
with at most SWEEP_FREE free binaries, whose 2^f leaves all fit in the
node budget, is not branched: its leaves are solved in Gray-code order
from its rounded relaxation, so consecutive leaves differ in one
binary, and each starts from the last optimal leaf. At f = 3 that is 8
solves, against 14 for a subtree branching cannot prune and 2 for one
it prunes at the first branching. A root that is swept whole skips the
dive, which exists only to supply an early incumbent.
Fixing a binary only shrinks its box bounds, so every node reuses the
one AdmmSolver workspace and starts from its parent's active set, and
from its parent's factor when the parent is the workspace's last solve
or last start. The root starts from the caller's `root_warm` (in a day
simulation, the agent's previous root relaxation shifted one step) or
cold, and comes back as `MiqpSolution.root` for the caller to carry
on. Every node solve is exact, so a node's objective is a true bound
and an incumbent is a feasible leaf. Every solve after the dive fits
in `node_limit`; an integral node the budget cannot re-solve as a leaf
stays open, and its bound enters the gap.
The search runs single-threaded, which is what guarantees bit-identical
results for identical inputs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .qp import AdmmSolver, QpSolution, QuadraticProgram

INT_TOL = 1e-6                       # a relaxation this close to 0/1 is integral
_TIE_TOL = 1e-9                      # fractionalities this close tie
SWEEP_FREE = 3                       # the most free binaries a swept node has


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
    """Search budget and stopping tolerance.

    `node_limit` bounds a search's node solves, the root and the dive
    included, except that the dive always runs whole: a limit at or
    below the binary count b still takes 1 + b solves. The search stops
    where its next solve would pass the limit, and the best bound it
    leaves open enters the gap.
    """

    node_limit: int = 5000
    gap_tol: float = 1e-6            # relative optimality gap at termination

    def __post_init__(self):
        # with a nan tolerance no child is ever pushed, and the search
        # would end after the root's children claiming "optimal"
        if not 0.0 <= self.gap_tol < np.inf:
            raise ValueError(f"gap_tol must be finite and nonnegative, got {self.gap_tol}")


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


def _first_tied(frac, ks, best):
    """The lowest index k of ks with frac[k] within _TIE_TOL of best, so
    that floating-point noise does not pick among binaries that tie."""
    return next(k for k in ks if abs(frac[k] - best) <= _TIE_TOL)


def solve_miqp(miqp: MixedIntegerQp, cfg: BnbConfig | None = None) -> MiqpSolution:
    """Best-bound branch-and-bound over the binary variables."""
    cfg = cfg or BnbConfig()
    base = miqp.base
    bins = np.array(miqp.binary_vars, dtype=int)
    ws = AdmmSolver(base)
    nodes = 0

    def solve_node(fix, warm):
        nonlocal nodes
        lo = base.lb.copy()
        hi = base.ub.copy()
        for j, v in fix.items():
            lo[j] = max(lo[j], v)
            hi[j] = min(hi[j], v)
        sol = ws.solve(lo, hi, warm=warm)
        nodes += 1
        if sol.status == "iteration_limit":
            raise MiqpError(f"node relaxation stopped after {sol.iterations} "
                            "active-set changes")
        return sol

    root = solve_node({}, miqp.root_warm)
    if root.status == "infeasible":
        return MiqpSolution(np.full(base.n, np.nan), (), np.nan, "infeasible",
                            np.inf, nodes, root)
    if len(bins) == 0:
        return MiqpSolution(root.primal, (), root.objective, "optimal", 0.0,
                            nodes, root)
    incumbent: QpSolution | None = None
    cut = np.inf                     # a bound at or above this cannot improve

    def offer(sol):
        nonlocal incumbent, cut
        if sol.status == "optimal" and (incumbent is None
                                        or sol.objective < incumbent.objective):
            incumbent = sol
            cut = sol.objective - cfg.gap_tol * max(1.0, abs(sol.objective))

    def leaf(fix, sol, reserve=0):
        # an integral relaxation: fix every binary at its rounded value,
        # re-solve if that fixes a new one, and offer the result; False
        # when the budget, less `reserve` solves, has no room to re-solve
        leaf_fix = dict(fix)
        for j in bins:
            leaf_fix[int(j)] = float(np.round(sol.primal[j]))
        if leaf_fix == fix:
            offer(sol)
        elif nodes + 1 + reserve <= cfg.node_limit:
            offer(solve_node(leaf_fix, sol))
        else:
            return False
        return True

    def fits_sweep(fix):
        f = len(bins) - len(fix)
        return f <= SWEEP_FREE and nodes + 2 ** f <= cfg.node_limit

    def sweep(fix, rel):
        # every leaf below `fix` in Gray-code order from the rounded
        # relaxation: leaf i flips the free binary at i's lowest set bit
        free = [int(j) for j in bins if int(j) not in fix]
        leaf_fix = dict(fix)
        for j in free:
            leaf_fix[j] = float(np.round(rel.primal[j]))
        warm = rel
        for i in range(2 ** len(free)):
            if i:
                j = free[(i & -i).bit_length() - 1]
                leaf_fix[j] = 1.0 - leaf_fix[j]
            sol = solve_node(leaf_fix, warm)
            if sol.status == "optimal":
                offer(sol)
                warm = sol

    if not fits_sweep({}):
        # iterated rounding dive for an initial incumbent: fix the least
        # fractional free binary at its rounded value, and re-solve
        fix: dict = {}
        cur = root
        while cur.status == "optimal" and len(fix) < len(bins):
            zv = np.clip(cur.primal[bins], 0.0, 1.0)
            frac = _fractionality(zv)
            free = [k for k, j in enumerate(bins) if int(j) not in fix]
            k = _first_tied(frac, free, frac[free].min())
            fix[int(bins[k])] = float(np.round(zv[k]))
            cur = solve_node(fix, cur)
        offer(cur)

    # heap of open nodes: (bound, node count at push, fix, relaxation)
    heap = [(root.objective, nodes, {}, root)]
    open_bound = np.inf              # the best bound a node-limit stop leaves
    while heap:
        bound, _, fix, rel = heapq.heappop(heap)
        if bound >= cut:
            continue
        frac = _fractionality(rel.primal[bins])
        if np.max(frac) <= INT_TOL:
            if leaf(fix, rel):
                continue
            open_bound = bound       # no room to re-solve it as a leaf
            break
        if fits_sweep(fix):
            sweep(fix, rel)
            continue
        if nodes + 2 > cfg.node_limit:
            open_bound = bound
            break
        branch_j = int(bins[_first_tied(frac, range(len(bins)), frac.max())])
        near = float(np.round(rel.primal[branch_j]))
        for reserve, val in ((1, near), (0, 1.0 - near)):
            child_fix = dict(fix)
            child_fix[branch_j] = val
            child = solve_node(child_fix, rel)
            if child.status != "optimal":
                continue
            child_bound = max(bound, child.objective)
            if (np.max(_fractionality(child.primal[bins])) <= INT_TOL
                    and leaf(child_fix, child, reserve)):
                continue
            # fractional, or integral with no room to re-solve: open
            if child_bound < cut:
                heapq.heappush(heap, (child_bound, nodes, child_fix, child))

    if incumbent is None:
        # without a feasible leaf, only a finished search proves infeasibility
        return MiqpSolution(np.full(base.n, np.nan), (), np.nan,
                            "node_limit" if open_bound < np.inf else "infeasible",
                            np.inf, nodes, root)

    gap = max(0.0, (incumbent.objective - open_bound)
              / max(1.0, abs(incumbent.objective)))
    # every incumbent has all binaries fixed, so its primal holds them
    assignment = tuple(int(round(incumbent.primal[j])) for j in bins)
    return MiqpSolution(incumbent.primal, assignment, incumbent.objective,
                        "node_limit" if gap > cfg.gap_tol else "optimal",
                        gap, nodes, root)


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
