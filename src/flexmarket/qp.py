"""Convex quadratic programming by an exact dual active-set method.

Canonical problem shape used throughout the package:

    minimize    0.5 x' Q x + c' x + c0
    subject to  lb <= x <= ub          (per-variable box, +-inf allowed)
                A_eq x  = b_eq
                A_le x <= b_le

The solver stacks the rows C = [A_eq; A_le; I] with row bounds
l <= C x <= u and works in the dual (Goldfarb & Idnani 1983): a working
set of rows held at one of their bounds, with multipliers y such that
Q x + c + C' y = 0. A violated row joins the set; a row whose multiplier
would take the wrong sign leaves it. A violated row that depends
linearly on the working set and that no multiplier blocks certifies
infeasibility. Q need only be positive semidefinite: an outer
proximal-point loop (as in DAQP, Arnstrom, Bemporad & Axehill 2022)
solves strictly convex problems with Q + eps*I and the term
-eps*x_c'x, moving the centre x_c to each result. A round's result
meets Q x + c + C'y = eps*(x_c - x), so the loop ends once
eps*|x - x_c| is within the row tolerance, and only that last result
gets the refinement step that pins the working rows on x; the others
serve only as centres. The engine has that one tolerance: every
optimal solve holds its rows to 1e-9 relative and stationarity to
1e-9 absolute, so x lies within 1e-9 divided by the curvature of the
minimizer, and its multipliers have the right signs.

Each workspace factors Q + eps*I and forms G = (Q + eps*I)^-1 C' and
K = C G once, blockwise as [A_eq G; A_le G; G]: C's identity rows give G
itself. Within a solve, each pass works on the working columns G[:, W];
a joining row grows the Cholesky factor of K[W, W] by one row, and a
dropped row refactors it. Changing only lb/ub (as branch-and-bound does
when fixing binaries) changes only right-hand sides, so one workspace
serves a whole search tree. A warm start begins from the active set
read off the multipliers of a start of the program's shape: a search
node's parent, or another window's solution moved onto this one. A
start from the workspace's own last optimal solution, or from the
solution it last started from, takes that working set and its factor
as they were kept, without factoring K[W, W] again. All
arithmetic is deterministic; repeated solves of the same data give
bit-identical results. solve_qp builds a private workspace per call and
is reentrant; an AdmmSolver instance belongs to one thread at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

INF = np.inf

DEFAULT_TOL = 1e-6                   # default tolerance of check_kkt
DEFAULT_MAX_ITER = 20000             # active-set changes, and proximal rounds
_EPS = 1e-3                          # proximal weight; 1e-6 made K too ill-conditioned
_ROW_TOL = 1e-9                      # relative row violation; absolute stationarity
_DEP_TOL = 1e-8                      # relative Schur complement of a dependent row


class QpError(ValueError):
    """Malformed quadratic program (dimension mismatch, non-PSD objective),
    or a working set the solver could not factorize."""


class _CscArrays(tuple):
    """A CSC matrix's (data, indices, indptr) from QpBuilder, for
    QuadraticProgram to copy into its matrix in one construction."""


def _as_csc(mat, shape) -> sp.csc_matrix:
    if mat is None:
        return sp.csc_matrix(shape)
    if isinstance(mat, _CscArrays):
        out = sp.csc_matrix(mat, shape=shape, copy=True)
    elif sp.issparse(mat):
        out = mat.tocsc().astype(float)
    else:
        out = sp.csc_matrix(np.atleast_2d(np.asarray(mat, dtype=float)))
    if out.shape != shape:
        raise QpError(f"matrix shape {out.shape} != expected {shape}")
    return out


class QuadraticProgram:
    """Validated QP data: objective, box bounds, equality and <= rows.

    The quadratic term must be symmetric positive semidefinite; this is
    checked once at construction by an attempted Cholesky factorization
    of Q + jitter*I.
    """

    def __init__(self, n, Q=None, c=None, lb=None, ub=None,
                 A_eq=None, b_eq=None, A_le=None, b_le=None, c0=0.0,
                 validate_psd=True):
        self.n = int(n)
        if self.n < 0:
            raise QpError("variable count must be nonnegative")
        self.c = np.zeros(self.n) if c is None else np.asarray(c, dtype=float).ravel()
        if self.c.shape != (self.n,):
            raise QpError(f"linear term has length {self.c.shape[0]}, expected {self.n}")
        self.lb = np.full(self.n, -INF) if lb is None else np.asarray(lb, dtype=float).ravel()
        self.ub = np.full(self.n, INF) if ub is None else np.asarray(ub, dtype=float).ravel()
        if self.lb.shape != (self.n,) or self.ub.shape != (self.n,):
            raise QpError("bound vectors must have one entry per variable")
        if np.any(self.lb > self.ub + 1e-12):
            bad = int(np.argmax(self.lb - self.ub))
            raise QpError(f"bounds empty for variable {bad}: lb {self.lb[bad]} > ub {self.ub[bad]}")
        self.Q = _as_csc(Q, (self.n, self.n))
        n_eq = 0 if b_eq is None else len(np.atleast_1d(b_eq))
        n_le = 0 if b_le is None else len(np.atleast_1d(b_le))
        self.A_eq = _as_csc(A_eq, (n_eq, self.n))
        self.b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float).ravel()
        self.A_le = _as_csc(A_le, (n_le, self.n))
        self.b_le = np.zeros(0) if b_le is None else np.asarray(b_le, dtype=float).ravel()
        self.c0 = float(c0)
        if self.n and validate_psd:
            self._check_psd()

    @property
    def n_eq(self) -> int:
        return self.A_eq.shape[0]

    @property
    def n_le(self) -> int:
        return self.A_le.shape[0]

    def _check_psd(self):
        Qd = self.Q.toarray()
        sym_err = np.max(np.abs(Qd - Qd.T)) if Qd.size else 0.0
        scale = 1.0 + (np.max(np.abs(Qd)) if Qd.size else 0.0)
        if sym_err > 1e-8 * scale:
            raise QpError(f"quadratic term not symmetric (max asymmetry {sym_err:.3e})")
        jitter = 1e-9 * scale
        try:
            scipy.linalg.cholesky(Qd + jitter * np.eye(self.n), lower=True)
        except scipy.linalg.LinAlgError as exc:
            raise QpError("quadratic term not positive semidefinite") from exc

    def objective_value(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise QpError(f"point has length {x.shape}, expected {self.n}")
        return float(0.5 * x @ (self.Q @ x) + self.c @ x + self.c0)


@dataclass
class QpSolution:
    """Primal/dual result of one QP solve."""

    primal: np.ndarray
    dual_bounds: np.ndarray
    dual_eq: np.ndarray
    dual_ineq: np.ndarray
    objective: float
    status: str                      # "optimal" | "infeasible" | "iteration_limit" | "shifted"
    iterations: int = 0              # active-set changes
    polished: bool = False           # true on every optimal solve


@dataclass
class KktReport:
    """Residual norms of the KKT optimality system at a candidate point."""

    stationarity: float
    primal: float
    dual: float
    complementarity: float
    tol: float

    @property
    def ok(self) -> bool:
        return (self.stationarity <= self.tol and self.primal <= self.tol
                and self.dual <= self.tol and self.complementarity <= self.tol)


class AdmmSolver:
    """Reusable workspace: factorize once, solve for many bound vectors.

    Branch-and-bound fixes binaries by shrinking their box bounds, which
    changes only right-hand sides; `solve` accepts per-call overrides of
    the variable bounds plus an optional warm start, which may come from
    another program of the same shape. Set-up reads C off the CSC arrays
    into a dense C' for G and a CSR C for the loop, frees C', and stacks
    K from the sparse A blocks times G, and G, symmetrizing it in place.
    A solve gathers G[:, W] when it starts warm or factors K[W, W]
    afresh (a drop, a swap); a join appends one column and one factor
    row.

    Two slots each keep a solution object with its working set W, the
    factor of K[W, W] and W's sides: the exit state of the last optimal
    solve, until the next solve starts, and the last start factored from
    a warm solution. A warm start from one of those very objects (`is`,
    so a copy misses) takes them over when each row still has a finite
    target under the new bounds and each row kept as an equality still
    is one; otherwise it reads the set off the multipliers as any start
    does. In a search that covers a dive's child of the node just
    solved, and the second child of a popped node. The factor depends on
    W alone, and every exit is checked, so a kept object changed in
    place still solves exactly, if in more passes. The class keeps the
    name of the former ADMM engine, and the `stiff_vars` it took is
    accepted and ignored.
    """

    def __init__(self, qp: QuadraticProgram, stiff_vars=()):
        self.qp = qp
        self.n = n = qp.n
        self._l0 = np.concatenate([qp.b_eq, np.full(qp.n_le, -INF), qp.lb])
        self._u0 = np.concatenate([qp.b_eq, qp.b_le, qp.ub])
        self.m = len(self._l0)
        self._shape = (qp.n_eq, qp.n_le, n, n)   # of [y_eq, y_le, y_bounds, x]
        # (solution, W, factor of K[W, W], sides of W): the exit state of
        # the last optimal solve, released when the next solve starts, and
        # the last start factored from a warm solution
        self._exit = self._start = None
        if n == 0:
            return
        # C's (row, column, value) triplets, column-major within each block
        r = np.concatenate([qp.A_eq.indices, qp.n_eq + qp.A_le.indices,
                            self.m - n + np.arange(n)])
        c = np.concatenate([np.repeat(np.arange(n), np.diff(A.indptr))
                            for A in (qp.A_eq, qp.A_le)] + [np.arange(n)])
        v = np.concatenate([qp.A_eq.data, qp.A_le.data, np.ones(n)])
        order = np.argsort(r, kind="stable")
        indptr = np.searchsorted(r[order], np.arange(self.m + 1)).astype(np.int32)
        self._C = sp.csr_matrix((v[order], c[order].astype(np.int32), indptr), shape=(self.m, n))
        self._chol = _cholesky(qp.Q.toarray() + _EPS * np.eye(n))
        if self._chol is None:
            raise QpError("quadratic term not positive semidefinite")
        # G = H^-1 C' maps working multipliers to the primal, K = C G
        # maps them to row values; C's identity rows make G K's last rows
        Ct = np.zeros((n, self.m))
        np.add.at(Ct, (c, r), v)            # sums any repeated entry
        self._G = G = _chol_solve(self._chol, Ct)
        del Ct
        K = np.vstack([qp.A_eq @ G, qp.A_le @ G, G])
        K += K.T                            # numpy buffers the overlapping K.T
        K *= 0.5
        self._K = K

    def _bounds(self, lb, ub):
        l = self._l0.copy()
        u = self._u0.copy()
        if lb is not None:
            l[self.m - self.n:] = lb
        if ub is not None:
            u[self.m - self.n:] = ub
        return l, u

    def solve(self, lb=None, ub=None, warm=None, tol=None,
              max_iter=DEFAULT_MAX_ITER) -> QpSolution:
        """Exact minimizer under the given variable bounds.

        `warm` is any start with a finite primal and finite multipliers
        of this program's shape, whatever its status: a branch-and-bound
        parent's solution, or the previous clearing's root shifted one
        step (`agent.shift_root`). The rows its multipliers price start
        the working set (for an object a slot keeps, the set kept with
        it), and its primal is the first proximal centre.
        When those rows do not factor (a foreign start may price
        dependent rows), the solve starts from the empty set instead;
        the optimal value does not depend on the start. `tol` is
        accepted for callers of the former ADMM engine and unused.
        `max_iter` bounds both the active-set changes and the proximal
        rounds; a solve that exceeds it ends with status
        "iteration_limit".
        """
        qp, n = self.qp, self.n
        if n == 0:
            return QpSolution(np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0),
                              qp.c0, "optimal", polished=True)
        l, u = self._bounds(lb, ub)
        if np.any(l > u + 1e-12):
            # proven-empty bound pair
            return self._empty("infeasible")
        free = l >= u                        # equality rows: y of either sign
        hi_lim = u + _ROW_TOL * (1.0 + np.abs(u))
        lo_lim = l - _ROW_TOL * (1.0 + np.abs(l))
        K, Gt = self._K, self._G.T
        y = np.zeros(self.m)
        side = np.zeros(self.m)              # +1 at u, -1 at l, 0 free
        # the working rows W; fac is the lower Cholesky factor of K[W, W]
        # and GW[:len(W)] holds G[:, W]', both in W's order (None: stale)
        W, fac = np.zeros(0, dtype=np.intp), np.zeros((0, 0))
        GW = np.empty((n, n))
        x_c = np.zeros(n)
        yw = None if warm is None else self._warm_duals(warm)
        kept = None if yw is None else self._kept_start(warm, l, u, free)
        self._exit = None
        if yw is not None:
            x_c = warm.primal
            if kept is not None:
                W, fac, side[W] = kept
            else:
                sw = np.sign(yw)
                Ws = np.flatnonzero(((sw > 0) & np.isfinite(u))
                                    | ((sw < 0) & np.isfinite(l)))
                # the rows must pass the test a joining row passes: a
                # relative Schur complement above _DEP_TOL at every pivot
                fs = _cholesky(K[Ws][:, Ws]) if 0 < len(Ws) <= n else None
                if fs is not None and not (fs.diagonal() ** 2
                                           <= _DEP_TOL * K.diagonal()[Ws]).any():
                    W, fac = Ws, fs
                    side[W] = np.where(free[W], 0.0, sw[W])
                    self._start = (warm, W, fac, side[W])
            GW[:len(W)] = Gt[W]
            y[W] = yw[W]
        target = np.where(side < 0, l, u)
        iters = 0
        x = x_c
        for _ in range(max_iter):
            # H^-1 q with q = eps x_c - c: its rows C H^-1 q are G' q
            q = _EPS * x_c - qp.c
            xu = _chol_solve(self._chol, q)
            while iters <= max_iter:
                k = len(W)
                if fac is None:
                    fac = _cholesky(K[W][:, W])
                    if fac is None:
                        raise QpError("working rows are linearly dependent")
                    GW[:k] = Gt[W]
                if k:
                    ys = _chol_solve(fac, GW[:k] @ q - target[W])
                    wrong = side[W] * ys < 0.0
                    if wrong.any():
                        # step toward ys until the first multiplier
                        # reaches zero, and drop that row
                        yW = y[W]
                        ratio = yW[wrong] / (yW[wrong] - ys[wrong])
                        i = int(np.flatnonzero(wrong)[np.argmin(ratio)])
                        y[W] = yW + ratio.min() * (ys - yW)
                        y[W[i]] = 0.0
                        W, fac = np.delete(W, i), None
                        iters += 1
                        continue
                    y[W] = ys
                    x = xu - ys @ GW[:k]
                else:
                    x = xu
                s = self._C @ x
                over = s - hi_lim
                under = lo_lim - s
                viol = np.maximum(over, under)
                viol[W] = -INF
                j = int(np.argmax(viol))
                if not viol[j] > 0.0:
                    break
                sj = 1.0 if over[j] > 0.0 else -1.0
                # row j joins the factor as [lj', sqrt(schur)]
                lj = _tri_solve(fac, K[j, W])
                schur = K[j, j] - lj @ lj
                if k == n or schur <= _DEP_TOL * K[j, j]:
                    # row j depends on the working set: move the
                    # multipliers along the null direction (-sj r, sj),
                    # r = K[W, W]^-1 K[W, j], which leaves x in place,
                    # until one reaches zero
                    p = -sj * _tri_solve(fac, lj, trans=1)
                    block = side[W] * p < -_DEP_TOL * max(1.0, _inf_norm(p))
                    if not block.any():
                        return self._empty("infeasible", iters)
                    ratio = -y[W][block] / p[block]
                    i = int(np.flatnonzero(block)[np.argmin(ratio)])
                    y[W] += ratio.min() * p
                    y[j] = ratio.min() * sj
                    y[W[i]] = 0.0
                    W, fac = np.delete(W, i), None
                    iters += 1
                else:
                    grown = np.zeros((k + 1, k + 1), order="F")
                    grown[:k, :k], grown[k, :k], grown[k, k] = fac, lj, np.sqrt(schur)
                    fac = grown
                    GW[k] = Gt[j]
                W = np.append(W, j)
                side[j] = 0.0 if free[j] else sj
                target[j] = l[j] if sj < 0 else u[j]
                iters += 1
            if iters > max_iter:
                return self._package(xu - y[W] @ Gt[W], y, "iteration_limit", iters)
            # Q x + c + C'y = eps (x_c - x) holds at the round's end, so
            # this is the solve's only stationarity error
            if _EPS * _inf_norm(x - x_c) <= _ROW_TOL:
                if len(W):
                    # one refinement step: K[W, W] can be ill-conditioned,
                    # so pin the working rows on x itself
                    dy = _chol_solve(fac, s[W] - target[W])
                    y[W] += dy
                    x -= dy @ GW[:len(W)]
                sol = self._package(x, y, "optimal", iters)
                sol.polished = True
                self._exit = (sol, W, fac, side[W])
                return sol
            x_c = x
        return self._package(x, y, "iteration_limit", iters)

    def _kept_start(self, warm, l, u, free):
        """W, its factor and its sides from the slot kept for `warm` itself,
        if each row keeps a finite target under l, u and each row kept as
        an equality (side 0, a multiplier of either sign) still is one;
        else None."""
        for slot in (self._exit, self._start):
            if slot is not None and slot[0] is warm:
                _, W, fac, sides = slot
                if (np.isfinite(np.where(sides < 0, l[W], u[W])).all()
                        and free[W][sides == 0].all()):
                    return W, fac, np.where(free[W], 0.0, sides)
        return None

    def _warm_duals(self, warm):
        """The stacked multipliers [eq; le; bounds] of a start with a finite
        primal and finite multipliers of this program's shape, else None."""
        parts = (warm.dual_eq, warm.dual_ineq, warm.dual_bounds, warm.primal)
        if [np.shape(v) for v in parts] != [(n,) for n in self._shape]:
            return None
        yw = np.concatenate(parts[:3])
        return yw if np.isfinite(yw).all() and np.isfinite(warm.primal).all() else None

    def _package(self, x, y, status, iters) -> QpSolution:
        qp = self.qp
        n_row = qp.n_eq + qp.n_le
        return QpSolution(
            primal=x,
            dual_bounds=y[n_row:].copy(),
            dual_eq=y[:qp.n_eq].copy(),
            dual_ineq=y[qp.n_eq:n_row].copy(),
            objective=qp.objective_value(x),
            status=status,
            iterations=iters)

    def _empty(self, status, iters=0) -> QpSolution:
        nan = np.full(self.n, np.nan)
        return QpSolution(nan, np.full(self.n, np.nan),
                          np.full(self.qp.n_eq, np.nan),
                          np.full(self.qp.n_le, np.nan),
                          np.nan, status, iterations=iters)


def solve_qp(qp: QuadraticProgram, max_iter: int = DEFAULT_MAX_ITER) -> QpSolution:
    """Solve one QP. For repeated solves with varying bounds use AdmmSolver."""
    return AdmmSolver(qp).solve(max_iter=max_iter)


def check_kkt(qp: QuadraticProgram, sol: QpSolution, tol: float = DEFAULT_TOL) -> KktReport:
    """Residual norms of stationarity, feasibility, dual sign, complementarity."""
    x = np.asarray(sol.primal, dtype=float)
    if x.shape != (qp.n,):
        raise QpError(f"primal has length {len(x)}, expected {qp.n}")
    if (len(sol.dual_bounds) != qp.n or len(sol.dual_eq) != qp.n_eq
            or len(sol.dual_ineq) != qp.n_le):
        raise QpError("dual vector lengths do not match program dimensions")
    stat = qp.Q @ x + qp.c + sol.dual_bounds
    if qp.n_eq:
        stat = stat + qp.A_eq.T @ sol.dual_eq
    if qp.n_le:
        stat = stat + qp.A_le.T @ sol.dual_ineq
    stationarity = _inf_norm(stat)

    viol = [0.0]
    if qp.n:
        viol.append(float(np.max(np.where(np.isfinite(qp.lb), qp.lb - x, -INF), initial=-INF)))
        viol.append(float(np.max(np.where(np.isfinite(qp.ub), x - qp.ub, -INF), initial=-INF)))
    if qp.n_eq:
        viol.append(_inf_norm(qp.A_eq @ x - qp.b_eq))
    if qp.n_le:
        viol.append(float(np.max(qp.A_le @ x - qp.b_le, initial=-INF)))
    primal = max(0.0, max(viol))

    # a <= multiplier is nonnegative, and a bound multiplier needs a finite
    # bound on its side: positive on ub, negative on lb
    yb = sol.dual_bounds
    dual = max(0.0, float(np.max(-sol.dual_ineq, initial=-INF)),
               float(np.max(np.where(np.isfinite(qp.ub), -INF, yb), initial=-INF)),
               float(np.max(np.where(np.isfinite(qp.lb), -INF, -yb), initial=-INF)))

    comp = 0.0
    if qp.n:
        up = np.maximum(sol.dual_bounds, 0.0)
        lo = np.minimum(sol.dual_bounds, 0.0)
        su = np.where(np.isfinite(qp.ub), qp.ub - x, 0.0)
        sl = np.where(np.isfinite(qp.lb), x - qp.lb, 0.0)
        comp = max(comp, _inf_norm(up * su), _inf_norm(lo * sl))
    if qp.n_le:
        slack = qp.b_le - qp.A_le @ x
        comp = max(comp, _inf_norm(np.maximum(sol.dual_ineq, 0.0) * slack))
    return KktReport(stationarity, primal, dual, comp, tol)


def _cholesky(a):
    """Lower Cholesky factor of a symmetric matrix, or None if it is not
    positive definite."""
    fac, info = scipy.linalg.lapack.dpotrf(a, lower=1, clean=0)
    return fac if info == 0 else None


def _chol_solve(fac, b):
    return scipy.linalg.lapack.dpotrs(fac, b, lower=1)[0]


def _tri_solve(fac, b, trans=0):
    """fac^-1 b, or fac'^-1 b with trans=1, for a lower triangular fac."""
    return scipy.linalg.lapack.dtrtrs(fac, b, lower=1, trans=trans)[0] if len(b) else b


def _inf_norm(v) -> float:
    v = np.asarray(v)
    return float(np.abs(v).max()) if v.size else 0.0


class QpBuilder:
    """Incremental construction of a QuadraticProgram.

    Variables are added with box bounds; quadratic cost is accumulated
    from squares of affine expressions with finite nonnegative weights,
    which keeps the result PSD by construction, so `build` skips the
    dense check. Row indices returned by add_le are stable and index into
    the final A_le block. Terms are kept as (row, column, value)
    triplets, which `build` compresses block by block.
    """

    def __init__(self):
        self._lb: list[float] = []
        self._ub: list[float] = []
        self._q: tuple[list, list, list] = ([], [], [])
        self._lin: dict[int, float] = {}
        self._c0 = 0.0
        self._eq: tuple[list, list, list, list] = ([], [], [], [])   # triplets, rhs
        self._le: tuple[list, list, list, list] = ([], [], [], [])

    @property
    def n(self) -> int:
        return len(self._lb)

    def add_var(self, lb=-INF, ub=INF) -> int:
        self._lb.append(float(lb))
        self._ub.append(float(ub))
        return len(self._lb) - 1

    def add_linear(self, idx: int, coef: float) -> None:
        self._lin[idx] = self._lin.get(idx, 0.0) + float(coef)

    def add_const(self, value: float) -> None:
        self._c0 += float(value)

    def add_square(self, terms, const: float = 0.0, weight: float = 1.0) -> None:
        """Accumulate weight * (sum coef*x + const)^2 into the objective."""
        if not 0.0 <= weight < INF:
            raise QpError(f"square weight must be finite and nonnegative, got {weight}")
        if weight == 0.0:
            return
        terms = [(i, float(a)) for i, a in terms if a != 0.0]
        qi, qj, qv = self._q
        for i, ai in terms:
            for j, aj in terms:
                qi.append(i)
                qj.append(j)
                qv.append(2.0 * weight * ai * aj)
            if const:
                self.add_linear(i, 2.0 * weight * const * ai)
        if const:
            self._c0 += weight * const * const

    @staticmethod
    def _add_row(block, terms, rhs: float) -> int:
        ri, ci, vi, b = block
        k = len(b)
        for i, a in terms:
            ri.append(k)
            ci.append(i)
            vi.append(float(a))
        b.append(float(rhs))
        return k

    def add_eq(self, terms, rhs: float) -> int:
        return self._add_row(self._eq, terms, rhs)

    def add_le(self, terms, rhs: float) -> int:
        """Row sum(coef*x) <= rhs; returns the row's index in A_le."""
        return self._add_row(self._le, terms, rhs)

    def add_ge(self, terms, rhs: float) -> int:
        return self.add_le([(i, -a) for i, a in terms], -rhs)

    def build(self) -> QuadraticProgram:
        n = self.n
        Q = _csc(*self._q, (n, n), "objective")
        c = np.zeros(n)
        for i, v in self._lin.items():
            if not 0 <= i < n:
                raise QpError(f"objective term names variable {i} of {n}")
            c[i] = v
        (*eq, b_eq), (*le, b_le) = self._eq, self._le
        return QuadraticProgram(n, Q, c, np.array(self._lb), np.array(self._ub),
                                _csc(*eq, (len(b_eq), n), "eq"), np.array(b_eq),
                                _csc(*le, (len(b_le), n), "le"), np.array(b_le),
                                self._c0, validate_psd=False)


def _csc(rows, cols, vals, shape, block) -> _CscArrays:
    """CSC arrays of (row, column, value) triplets: sorted by column, then
    row; repeated entries summed in the order they were given."""
    m, n = shape
    key = np.array(cols, dtype=np.int64) * m + np.array(rows, dtype=np.int64)
    order = np.argsort(key, kind="stable")
    key = key[order]
    if key.size and not 0 <= key[0] <= key[-1] < m * n:
        # rows are numbered by the builder, and a square term names each of
        # its variables as a row too, so only a column can be out of range
        bad = next(j for j in cols if not 0 <= j < n)
        raise QpError(f"{block} term names variable {bad} of {n}")
    data = np.array(vals, dtype=float)[order]
    repeat = key[1:] == key[:-1]
    if repeat.any():
        first = np.concatenate(([True], ~repeat))
        data = np.bincount(np.cumsum(first) - 1, weights=data)
        key = key[first]
    indptr = np.searchsorted(key, m * np.arange(n + 1))
    return _CscArrays((data, (key % max(m, 1)).astype(np.int32), indptr.astype(np.int32)))
