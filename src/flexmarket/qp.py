"""Convex quadratic programming by an exact dual active-set method.

Canonical problem shape used throughout the package:

    minimize    0.5 x' Q x + c' x + c0
    subject to  lb <= x <= ub          (per-variable box, +-inf allowed)
                A_eq x  = b_eq
                A_le x <= b_le

Q, A_eq and A_le are CSR matrices, each row's columns ascending. The
solver lays their arrays end to end as the rows C = [A_eq; A_le; I] with
row bounds l <= C x <= u and works in the dual (Goldfarb & Idnani 1983):
a working set of rows held at one of their bounds, with multipliers y
such that Q x + c + C' y = 0. A violated row joins the set; a row whose
multiplier would take the wrong sign leaves it. A violated row that
depends linearly on the working set and that no multiplier blocks
certifies infeasibility. Q need only be positive semidefinite: an outer
proximal-point loop (as in DAQP, Arnstrom, Bemporad & Axehill 2022)
solves strictly convex problems with Q + eps*I and the term -eps*x_c'x,
moving the centre x_c to each result. A round's result meets
Q x + c + C'y = eps*(x_c - x), so the loop ends once eps*|x - x_c| is
within the row tolerance, and only that last result gets the refinement
step that pins the working rows on x; the others serve only as centres.
The engine has that one tolerance: every optimal solve holds its rows to
1e-9 relative and stationarity to 1e-9 absolute, so x lies within 1e-9
divided by the curvature of the minimizer, and its multipliers have the
right signs.

Each workspace takes the Cholesky factor of Q + eps*I = L L' and C's
CSR layout from its program's set-up base (`SetupBase`), which the
programs of one template share and which the first workspace fills, so
a frame factors its Q once; it then solves V = L^-1 C' over the dense
C', and forms K = V'V = C (Q + eps*I)^-1 C', exactly symmetric, and
G = L'^-1 V = (Q + eps*I)^-1 C', all in full for every workspace.
Within a solve, the working set's rows, multipliers, sides, targets and
columns G[:, W] are held in W's order: a joining row is appended and
grows the Cholesky factor of K[W, W] by one row, and a dropped row is
shifted out and deleted from the factor (Gill, Golub, Murray & Saunders
1974), which refactors only the rows after it. Changing only lb/ub (as
branch-and-bound does when fixing binaries) changes only right-hand
sides, so one workspace serves a whole search tree. Each optimal
solution carries its exit state: its working set, that set's factor and
its sides, tagged with the workspace that solved it. A warm start from
such a solution, given back to that workspace, takes the set and its
factor as they were, so every node of a search restarts from its own
parent's factor. Any other start (another workspace's solution, a copy,
a shifted root, a kept set that no longer fits) begins from the active
set read off its multipliers, and that set is factored from K. All
arithmetic is deterministic; repeated solves of the same data give
bit-identical results. solve_qp builds a private workspace per call and
is reentrant; an AdmmSolver instance belongs to one thread at a time. A
set-up base is read-only once filled, and two workspaces that fill it
at once compute the same bytes, so threads may share one.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from itertools import accumulate, chain
from operator import itemgetter

import numpy as np
import scipy.linalg
import scipy.sparse as sp

INF = np.inf

DEFAULT_TOL = 1e-6                   # default tolerance of check_kkt
DEFAULT_MAX_ITER = 20000             # active-set changes, and proximal rounds
_EPS = 1e-3                          # proximal weight; 1e-6 made K too ill-conditioned
_ROW_TOL = 1e-9                      # relative row violation; absolute stationarity
_DEP_TOL = 1e-8                      # relative Schur complement of a dependent row
_column = itemgetter(0)              # a (variable, coefficient) term's variable


class QpError(ValueError):
    """Malformed quadratic program (dimension mismatch, non-finite data,
    non-PSD objective), or a working set the solver could not factorize."""


def _check_box(lb, ub) -> None:
    """Each lower bound must be below +inf and each upper bound above
    -inf; a NaN bound fails too."""
    for name, v, ok in (("lb", lb, lb < INF), ("ub", ub, ub > -INF)):
        if not ok.all():
            i = int(np.argmin(ok))
            raise QpError(f"{name}[{i}] is {v[i]}: need lb < inf and ub > -inf")


def _as_csr(mat, shape) -> sp.csr_matrix:
    """A block as a float CSR matrix; a float CSR matrix is taken as it is,
    without a copy."""
    if mat is None:
        return sp.csr_matrix(shape)
    if sp.issparse(mat):
        out = mat.tocsr().astype(float, copy=False)
    else:
        out = sp.csr_matrix(np.atleast_2d(np.asarray(mat, dtype=float)))
    if out.shape != shape:
        raise QpError(f"matrix shape {out.shape} != expected {shape}")
    return out


class QuadraticProgram:
    """Validated QP data: objective, box bounds, equality and <= rows.

    The quadratic term must be symmetric positive semidefinite; this is
    checked once at construction by an attempted Cholesky factorization
    of Q + jitter*I. A float CSR block is kept without a copy, as float
    arrays are for c, lb and ub.
    """

    def __init__(self, n, Q=None, c=None, lb=None, ub=None,
                 A_eq=None, b_eq=None, A_le=None, b_le=None, c0=0.0,
                 validate_psd=True, setup_base=None):
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
        _check_box(self.lb, self.ub)
        if (self.lb > self.ub + 1e-12).any():
            bad = int(np.argmax(self.lb - self.ub))
            raise QpError(f"bounds empty for variable {bad}: lb {self.lb[bad]} > ub {self.ub[bad]}")
        self.Q = _as_csr(Q, (self.n, self.n))
        n_eq = 0 if b_eq is None else len(np.atleast_1d(b_eq))
        n_le = 0 if b_le is None else len(np.atleast_1d(b_le))
        self.A_eq = _as_csr(A_eq, (n_eq, self.n))
        self.b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float).ravel()
        self.A_le = _as_csr(A_le, (n_le, self.n))
        self.b_le = np.zeros(0) if b_le is None else np.asarray(b_le, dtype=float).ravel()
        self.c0 = float(c0)
        self._check_finite()
        if self.n and validate_psd:
            self._check_psd()
        # the set-up parts its workspaces share: a template's, or its own
        self.setup_base = setup_base or SetupBase(self.Q, self.A_eq, self.A_le)

    @property
    def n_eq(self) -> int:
        return self.A_eq.shape[0]

    @property
    def n_le(self) -> int:
        return self.A_le.shape[0]

    def _check_finite(self):
        """c0, c, b_eq, b_le and every stored entry of Q, A_eq and A_le
        must be finite; the first that is not is named with its index."""
        if math.isfinite(self.c0) and np.isfinite(np.concatenate(
                (self.c, self.b_eq, self.b_le,
                 self.Q.data, self.A_eq.data, self.A_le.data))).all():
            return
        parts = {"c0": np.array([self.c0]), "c": self.c, "b_eq": self.b_eq,
                 "b_le": self.b_le, "Q": self.Q, "A_eq": self.A_eq, "A_le": self.A_le}
        data = [v.data if sp.issparse(v) else v for v in parts.values()]
        for (name, v), d in zip(parts.items(), data):
            bad = np.flatnonzero(~np.isfinite(d))
            if bad.size:
                k = int(bad[0])
                at = (f"[{np.searchsorted(v.indptr, k, side='right') - 1}, {v.indices[k]}]"
                      if sp.issparse(v) else "" if name == "c0" else f"[{k}]")
                raise QpError(f"{name}{at} must be finite, got {d[k]}")

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


class SetupBase:
    """The set-up parts that workspaces share while their programs share
    Q and the blocks' CSR structure: the lower Cholesky factor L of
    Q + eps*I, and C = [A_eq; A_le; I] laid out from that structure.

    A template's programs share one base, which dies with the template;
    any other program has one of its own. The first workspace of a
    program whose Q is the base's Q fills the factor, and the first whose
    blocks hold the base's `indices` and `indptr` arrays fills C; a
    workspace of a program whose Q or block was replaced computes its
    own and leaves the base alone. The check is by identity, so Q's
    values and the blocks' structure are taken as fixed once a program
    has a workspace (a template's are read-only). Both parts are
    read-only once filled, and two workspaces that fill one concurrently
    compute the same bytes."""

    __slots__ = ("Q", "rows", "chol", "C")

    def __init__(self, Q, A_eq, A_le):
        self.Q = Q
        self.rows = (A_eq.indices, A_eq.indptr, A_le.indices, A_le.indptr)
        self.chol = self.C = None

    def factor(self, Q) -> np.ndarray:
        """L with L L' = Q + eps*I: the base's, when Q is its Q."""
        own = Q is self.Q
        if own and self.chol is not None:
            return self.chol
        chol = _cholesky(Q.toarray() + _EPS * np.eye(Q.shape[0]))
        if chol is None:
            raise QpError("quadratic term not positive semidefinite")
        if own:
            chol.setflags(write=False)
            self.chol = chol
        return chol

    def rows_of(self, A, B) -> sp.csr_matrix:
        """C = [A; B; I], holding the base's layout when A and B share
        its structure."""
        n = A.shape[1]
        data = np.concatenate([A.data, B.data, np.ones(n)])
        own = all(a is b for a, b in zip(self.rows, (A.indices, A.indptr,
                                                     B.indices, B.indptr)))
        if own and self.C is not None:
            return _with_data(self.C, data)
        # the blocks' CSR arrays laid end to end
        ids = np.arange(n + 1, dtype=np.int32)
        C = sp.csr_matrix((data, np.concatenate([A.indices, B.indices, ids[:n]]),
                           np.concatenate([A.indptr, A.nnz + B.indptr[1:],
                                           A.nnz + B.nnz + ids[1:]])),
                          shape=(A.shape[0] + B.shape[0] + n, n))
        if own:
            C.indices.setflags(write=False)
            C.indptr.setflags(write=False)
            self.C = C
        return C


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
    # an optimal solve's exit state for a warm start from it: (its
    # workspace's token, W, the factor of K[W, W], W's sides). A copy or
    # a replace() starts without it
    exit_state: tuple | None = field(default=None, init=False, repr=False,
                                     compare=False)

    @property
    def polished(self) -> bool:      # the former ADMM engine's flag, derived
        return self.status == "optimal"


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
    another program of the same shape. Set-up takes L (the Cholesky
    factor of Q + eps*I) and the loop's C, the CSR arrays of A_eq, A_le
    and the identity end to end, from the program's `SetupBase`: L
    while the program's Q is the base's, and C's layout, with this
    program's data, while its blocks hold the base's structure arrays.
    It densifies C' and overwrites it with V = L^-1 C', then V with
    G = L'^-1 V, after taking K = V'V; nothing of V, K or G is kept
    across workspaces. A solve keeps the working set W in W's order,
    with its multipliers, sides, targets and G[:, W]' in buffers of the
    workspace: a join appends a row and a factor row, a drop shifts the
    later rows up and deletes its row from the factor, and a swap (a
    joining row that depends on W replaces one of W's) refactors K[W, W],
    gathered from K's W rows and columns; the multipliers are scattered
    to all rows only when a result is packaged.

    Each optimal solution carries its exit state (`exit_state`): W, the
    factor of K[W, W] and W's sides, tagged with this workspace's token.
    A warm start from a solution that holds this workspace's token takes
    them over when each row still has a finite target under the new
    bounds and each row kept as an equality still is one; otherwise it
    reads the set off the multipliers as any start does. In a search,
    every node so starts from its parent. A copy (`replace`), or a
    solution of another workspace, holds no state this workspace takes.
    The factor depends on W alone, and every exit is checked, so a kept
    object changed in place still solves exactly, if in more passes. The
    class keeps the name of the former ADMM engine, and the `stiff_vars`
    it took is accepted and ignored.
    """

    def __init__(self, qp: QuadraticProgram, stiff_vars=()):
        self.qp = qp
        self.n = n = qp.n
        self._l0 = np.concatenate([qp.b_eq, np.full(qp.n_le, -INF), qp.lb])
        self._u0 = np.concatenate([qp.b_eq, qp.b_le, qp.ub])
        self.m = len(self._l0)
        self._shape = (qp.n_eq, qp.n_le, n, n)   # of [y_eq, y_le, y_bounds, x]
        # tags the exit states of this workspace's solutions
        self._token = object()
        if n == 0:
            return
        base = qp.setup_base
        self._C = base.rows_of(qp.A_eq, qp.A_le)
        self._chol = base.factor(qp.Q)
        # H = L L': V = L^-1 C', K = V'V = C H^-1 C' (exactly symmetric)
        # and G = L'^-1 V = H^-1 C', which maps working multipliers to the
        # primal; these are the two solves dpotrs makes. V overwrites C'
        # and G overwrites V
        V = _tri_solve(self._chol, self._C.toarray().T, overwrite=1)
        self._K = V.T @ V
        self._G = _tri_solve(self._chol, V, trans=1, overwrite=1)
        # the working set's state in W's order, rows [:k] in use: the
        # rows, their multipliers, sides and targets, and G[:, W]'
        self._W = np.empty(n, dtype=np.intp)
        self._yW, self._sW, self._tW = np.empty(n), np.empty(n), np.empty(n)
        self._GW = np.empty((n, n))

    def _bounds(self, lb, ub):
        """The rows' sides, with lb and ub of shape (n,) as variable bounds."""
        l = self._l0.copy()
        u = self._u0.copy()
        for name, v, side in (("lb", lb, l), ("ub", ub, u)):
            if v is not None:
                if np.shape(v) != (self.n,):
                    raise QpError(f"{name} has shape {np.shape(v)}, expected {(self.n,)}")
                side[self.m - self.n:] = v
        return l, u

    def solve(self, lb=None, ub=None, warm=None, tol=None,
              max_iter=DEFAULT_MAX_ITER) -> QpSolution:
        """Exact minimizer under the given variable bounds.

        `lb` and `ub`, when given, replace the program's variable bounds
        and must have shape (n,).
        `warm` is any start with a finite primal and finite multipliers
        of this program's shape, whatever its status: a branch-and-bound
        parent's solution, or the previous clearing's root shifted one
        step (`agent.shift_root`). The rows its multipliers price start
        the working set (for a solution of this workspace, the set it
        carries), and its primal is the first proximal centre.
        When those rows do not factor (a foreign start may price
        dependent rows), the solve starts from the empty set instead;
        the optimal value does not depend on the start. `tol` is
        accepted for callers of the former ADMM engine and unused.
        `max_iter` bounds both the active-set changes and the proximal
        rounds; a solve that exceeds it ends with status
        "iteration_limit".
        """
        qp, n = self.qp, self.n
        l, u = self._bounds(lb, ub)
        if n == 0:
            return QpSolution(np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0),
                              qp.c0, "optimal")
        if not ((l < INF).all() and (u > -INF).all()):
            # the rows' sides are finite, so a variable bound fails
            _check_box(l[self.m - n:], u[self.m - n:])
        if np.any(l > u + 1e-12):
            # proven-empty bound pair
            return self._empty("infeasible")
        free = l >= u                        # equality rows: y of either sign
        hi_lim = u + _ROW_TOL * (1.0 + np.abs(u))
        lo_lim = l - _ROW_TOL * (1.0 + np.abs(l))
        K, Gt = self._K, self._G.T
        # the working rows W[:k] with their multipliers yW, sides sW (+1
        # at u, -1 at l, 0 free), targets tW and G[:, W]', all in W's
        # order; a row outside W has multiplier 0. fac is the lower
        # Cholesky factor of K[W, W] (None after a swap, until refactored)
        W, yW, sW, tW, GW = self._W, self._yW, self._sW, self._tW, self._GW
        k, fac = 0, np.zeros((0, 0))
        x_c = np.zeros(n)
        yw = None if warm is None else self._warm_duals(warm)
        kept = None if yw is None else self._kept_start(warm, l, u, free)
        if yw is not None:
            x_c = warm.primal
            if kept is not None:
                Ws, fac, sides = kept
            else:
                sw = np.sign(yw)
                Ws = np.flatnonzero(((sw > 0) & np.isfinite(u))
                                    | ((sw < 0) & np.isfinite(l)))
                # the rows must pass the test a joining row passes: a
                # relative Schur complement above _DEP_TOL at every pivot
                fs = _cholesky(K[Ws][:, Ws]) if 0 < len(Ws) <= n else None
                if fs is not None and not (fs.diagonal() ** 2
                                           <= _DEP_TOL * K.diagonal()[Ws]).any():
                    fac, sides = fs, np.where(free[Ws], 0.0, sw[Ws])
                else:
                    Ws = Ws[:0]
            k = len(Ws)
            if k:
                W[:k], yW[:k], sW[:k] = Ws, yw[Ws], sides
                GW[:k] = Gt[Ws]
                tW[:k] = np.where(sides < 0, l[Ws], u[Ws])
        iters = 0
        x = x_c
        for _ in range(max_iter):
            # H^-1 q with q = eps x_c - c: its rows C H^-1 q are G' q
            q = _EPS * x_c - qp.c
            xu = _chol_solve(self._chol, q)
            while iters <= max_iter:
                if fac is None:
                    # after a swap
                    fac = _cholesky(K[W[:k]][:, W[:k]])
                    if fac is None:
                        raise QpError("working rows are linearly dependent")
                if k:
                    ys = _chol_solve(fac, GW[:k] @ q - tW[:k])
                    wrong = sW[:k] * ys < 0.0
                    if wrong.any():
                        # step toward ys until the first multiplier
                        # reaches zero, and drop that row
                        yk = yW[:k]
                        ratio = yk[wrong] / (yk[wrong] - ys[wrong])
                        i = int(np.flatnonzero(wrong)[np.argmin(ratio)])
                        yW[:k] = yk + ratio.min() * (ys - yk)
                        k, fac = self._drop(i, k), _delete_row(fac, i)
                        iters += 1
                        continue
                    yW[:k] = ys
                    x = xu - ys @ GW[:k]
                else:
                    x = xu
                s = self._C @ x
                over = s - hi_lim
                under = lo_lim - s
                viol = np.maximum(over, under)
                viol[W[:k]] = -INF
                j = int(np.argmax(viol))
                if not viol[j] > 0.0:
                    break
                sj = 1.0 if over[j] > 0.0 else -1.0
                # row j joins the factor as [lj', sqrt(schur)]
                lj = _tri_solve(fac, K[j, W[:k]])
                schur = K[j, j] - lj @ lj
                if k == n or schur <= _DEP_TOL * K[j, j]:
                    # row j depends on the working set: move the
                    # multipliers along the null direction (-sj r, sj),
                    # r = K[W, W]^-1 K[W, j], which leaves x in place,
                    # until one reaches zero
                    p = -sj * _tri_solve(fac, lj, trans=1)
                    block = sW[:k] * p < -_DEP_TOL * max(1.0, _inf_norm(p))
                    if not block.any():
                        return self._empty("infeasible", iters)
                    ratio = -yW[:k][block] / p[block]
                    i = int(np.flatnonzero(block)[np.argmin(ratio)])
                    yW[:k] += ratio.min() * p
                    yj = ratio.min() * sj
                    k, fac = self._drop(i, k), None
                    iters += 1
                else:
                    grown = np.zeros((k + 1, k + 1), order="F")
                    grown[:k, :k], grown[k, :k], grown[k, k] = fac, lj, np.sqrt(schur)
                    fac, yj = grown, 0.0
                W[k], yW[k], GW[k] = j, yj, Gt[j]
                sW[k] = 0.0 if free[j] else sj
                tW[k] = l[j] if sj < 0 else u[j]
                k += 1
                iters += 1
            if iters > max_iter:
                return self._package(xu - yW[:k] @ GW[:k], k, "iteration_limit", iters)
            # Q x + c + C'y = eps (x_c - x) holds at the round's end, so
            # this is the solve's only stationarity error
            if _EPS * _inf_norm(x - x_c) <= _ROW_TOL:
                if k:
                    # one refinement step: K[W, W] can be ill-conditioned,
                    # so pin the working rows on x itself
                    dy = _chol_solve(fac, s[W[:k]] - tW[:k])
                    yW[:k] += dy
                    x -= dy @ GW[:k]
                sol = self._package(x, k, "optimal", iters)
                sol.exit_state = (self._token, W[:k].copy(), fac, sW[:k].copy())
                return sol
            x_c = x
        return self._package(x, k, "iteration_limit", iters)

    def _drop(self, i, k) -> int:
        """Remove the working row at position i of k, keeping W's order;
        the new count."""
        for a in (self._W, self._yW, self._sW, self._tW, self._GW):
            a[i:k - 1] = a[i + 1:k]
        return k - 1

    def _kept_start(self, warm, l, u, free):
        """W, its factor and its sides from `warm`'s exit state, if this
        workspace solved it, each row keeps a finite target under l, u and
        each row kept as an equality (side 0, a multiplier of either sign)
        still is one; else None."""
        state = warm.exit_state
        if state is None or state[0] is not self._token:
            return None
        _, W, fac, sides = state
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

    def _package(self, x, k, status, iters) -> QpSolution:
        """The solution at x, with the multipliers of the working rows
        W[:k] scattered to their places and 0 elsewhere."""
        qp = self.qp
        n_row = qp.n_eq + qp.n_le
        y = np.zeros(self.m)
        y[self._W[:k]] = self._yW[:k]
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
    """Lower Cholesky factor of a symmetric matrix, its strict upper
    triangle zero, or None if it is not positive definite."""
    fac, info = scipy.linalg.lapack.dpotrf(a, lower=1, clean=1)
    return fac if info == 0 else None


def _delete_row(fac, i):
    """The lower Cholesky factor of M without its row and column i, from
    fac, M's factor with a zero strict upper triangle (Gill, Golub, Murray
    & Saunders 1974): the rows and columns before i stay, and the
    trailing block is the factor of B B' with B = fac[i+1:, i:]. Fortran
    ordered, its upper triangle zero."""
    k = len(fac) - 1
    out = np.zeros((k, k), order="F")
    out[:i, :i] = fac[:i, :i]
    if i < k:
        out[i:, :i] = fac[i + 1:, :i]
        B = fac[i + 1:, i:]
        trail = _cholesky(B @ B.T)
        if trail is None:
            raise QpError("working rows are linearly dependent")
        out[i:, i:] = trail
    return out


def _chol_solve(fac, b):
    return scipy.linalg.lapack.dpotrs(fac, b, lower=1)[0]


def _tri_solve(fac, b, trans=0, overwrite=0):
    """fac^-1 b, or fac'^-1 b with trans=1, for a lower triangular fac;
    overwrite=1 solves a Fortran-ordered b in place."""
    return scipy.linalg.lapack.dtrtrs(fac, b, lower=1, trans=trans,
                                      overwrite_b=overwrite)[0] if len(b) else b


def _inf_norm(v) -> float:
    v = np.asarray(v)
    return float(np.abs(v).max()) if v.size else 0.0


class Slot(tuple):
    """A builder's stand-in for a number that depends on its source:
    (index,) of one of the numbers `QpBuilder.param` gave. It is no
    number, so it fails where the builder takes none."""

    __slots__ = ()


# the parts of a program a slotted term lands in, in QpTemplate's order
_LB, _UB, _C, _B_EQ, _B_LE, _EQ, _LE, _C0 = range(8)


class QpBuilder:
    """Incremental construction of a QuadraticProgram, made by `QpTemplate`.

    Variables are added with box bounds; quadratic cost is accumulated
    from squares of affine expressions with finite nonnegative weights,
    which keeps the result PSD by construction, so no program is checked
    for it. Row indices returned by add_le are stable and index into the
    final A_le block. Each row is compressed as it arrives into its
    block's CSR lists (indptr, indices, data): columns ascending, each
    entry summed from 0.0 over its terms in the order given. A square's
    terms are kept per row of Q until the template compresses each row
    the same way and checks that every column names a variable.

    The calls read the builder's `source` in two ways. `fixed(fn)` gives
    fn(source), a value the calls may depend on in any way, and records
    the read. `param(fn)` gives slots, stand-ins for the numbers
    fn(source), which the builder takes in place of a bound, a row's
    side, a row coefficient alone in its column, a linear or a constant
    term, or a square's constant. It records where each slot goes and
    computes no slot's value: the template does that, at any source.
    """

    def __init__(self, source=None):
        self._lb: list[float] = []
        self._ub: list[float] = []
        self._q: dict[int, list] = {}        # Q's (column, value) terms per row
        self._lin: dict = {}     # c[i]'s sum at i, c0's at None; a slotted sum's base
        self._eq: tuple[list, list, list, list] = ([0], [], [], [])   # CSR lists, rhs
        self._le: tuple[list, list, list, list] = ([0], [], [], [])
        self._source = source
        self._fixed = []         # (fn, fn(source)) per fixed read, in call order
        self._fns = []           # the parameter functions
        self._n_p = 1            # 1.0, then the slots
        # each slotted term, six numbers (part, position, a, m1, m2, b),
        # adds ((p[a] * m1) * m2) * p[b] to its entry. The entry holds its
        # base: -0.0 at a bound or side, 0.0 at a row entry, and at c[i]
        # or c0 the sum before its first slot; from that slot on, each
        # term of the sum is recorded, a number v as (0, v, 1.0, 0)
        self._terms: list = []
        self._summed = set()     # the keys of _lin whose terms are recorded

    @property
    def n(self) -> int:
        return len(self._lb)

    def fixed(self, fn):
        """fn(source), recorded: a template fits another source where each
        such read returns an equal value, so the first read should tell
        unrelated sources apart."""
        value = fn(self._source)
        self._fixed.append((fn, value))
        return value

    def param(self, fn) -> list:
        """Slots for the numbers fn(source), a list of floats whose length
        the calls that use them fix; fn is called here only to count
        them."""
        start = self._n_p
        self._n_p += len(fn(self._source))
        self._fns.append(fn)
        return list(map(Slot, zip(range(start, self._n_p))))

    def _slot(self, part: int, pos: int, s: Slot, sign=1.0, base=-0.0) -> float:
        """Record slot s, times sign, at part[pos]; the entry's base."""
        self._terms += (part, pos, s[0], sign, 1.0, 0)
        return base

    def add_var(self, lb=-INF, ub=INF) -> int:
        i = len(self._lb)
        if type(lb) is Slot:
            lb = self._slot(_LB, i, lb)
        if type(ub) is Slot:
            ub = self._slot(_UB, i, ub)
        self._lb.append(float(lb))
        self._ub.append(float(ub))
        return i

    def add_linear(self, idx, coef) -> None:
        """Add coef to c[idx] (to c0 at idx None)."""
        if type(coef) is Slot:
            self._sum(idx, coef[0], 1.0)
        elif idx in self._summed:
            self._sum(idx, 0, float(coef))
        else:
            self._lin[idx] = self._lin.get(idx, 0.0) + float(coef)

    def add_const(self, value) -> None:
        self.add_linear(None, value)

    def _sum(self, idx, a, m1, m2=1.0, b=0) -> None:
        """Record ((p[a] * m1) * m2) * p[b] as c[idx]'s next term (c0's at None)."""
        self._lin.setdefault(idx, 0.0)
        self._summed.add(idx)
        self._terms += ((_C0, 0) if idx is None else (_C, idx)) + (a, m1, m2, b)

    def add_square(self, terms, const=0.0, weight: float = 1.0) -> None:
        """Accumulate weight * (sum coef*x + const)^2 into the objective."""
        if not 0.0 <= weight < INF:
            raise QpError(f"square weight must be finite and nonnegative, got {weight}")
        if weight == 0.0:
            return
        terms = [(i, float(a)) for i, a in terms if a != 0.0]
        for i, ai in terms:
            self._q.setdefault(i, []).extend((j, 2.0 * weight * ai * aj) for j, aj in terms)
        if type(const) is Slot:
            for i, ai in terms:
                self._sum(i, const[0], 2.0 * weight, ai)
            self._sum(None, const[0], weight, 1.0, const[0])
        elif const:
            for i, ai in terms:
                self.add_linear(i, 2.0 * weight * const * ai)
            self.add_const(weight * const * const)

    def _add_row(self, block, parts, terms, rhs, sign=1.0) -> int:
        """Compress a row into `block`, its coefficients and side times
        `sign`; a slot lands in `parts` (side, data)."""
        indptr, cols, vals, b = block
        last = slotted = None                        # slotted: len(vals) after a slot
        for j, a in sorted(terms, key=_column):      # stable: call order kept
            if j == last:
                if type(a) is Slot or slotted == len(vals):
                    raise QpError(f"a slotted coefficient shares column {j} of its row")
                vals[-1] += sign * float(a)
                continue
            if type(a) is Slot:
                vals.append(self._slot(parts[1], len(vals), a, sign, 0.0))
                slotted = len(vals)
            else:
                vals.append(0.0 + sign * float(a))
            cols.append(j)
            last = j
        indptr.append(len(cols))
        b.append(self._slot(parts[0], len(b), rhs, sign) if type(rhs) is Slot
                 else float(rhs if sign > 0.0 else -rhs))
        return len(b) - 1

    def add_eq(self, terms, rhs) -> int:
        return self._add_row(self._eq, (_B_EQ, _EQ), terms, rhs)

    def add_le(self, terms, rhs) -> int:
        """Row sum(coef*x) <= rhs; returns the row's index in A_le."""
        return self._add_row(self._le, (_B_LE, _LE), terms, rhs)

    def add_ge(self, terms, rhs) -> int:
        """Row sum(coef*x) >= rhs, kept in A_le as -sum(coef*x) <= -rhs."""
        return self._add_row(self._le, (_B_LE, _LE), terms, rhs, -1.0)

    def build(self) -> QuadraticProgram:
        """The program at the builder's source."""
        return QpTemplate(self).program(self._source)


class QpTemplate:
    """The program a builder's calls make, at any source that the
    builder's fixed reads fit.

    `program(source)` evaluates the builder's parameter functions there
    to p = [1.0, ...] and adds the recorded terms ((p[a] * m1) * m2) *
    p[b], in call order, to the program's numbers laid end to end (lb,
    ub, c, b_eq, b_le, A_eq's and A_le's data, c0), each slotted entry
    starting at its base. That is the arithmetic a number gets in the
    builder, since x + -0.0 is x and a product keeps its value when its
    factors swap. `fits(source)` tells whether the same calls are made
    there: whether each fixed read returns an equal value, read in call
    order up to the first that does not. Q, the blocks' structure and
    each block without a slotted coefficient are shared read-only, and
    so is the set-up base of Q's factor and C's layout (`SetupBase`)."""

    def __init__(self, b: QpBuilder):
        """`b` takes no further calls."""
        n = self.n = b.n
        # a square's rows are its columns, so Q's row keys name them all
        for i in [*b._q, *b._lin]:
            if i is not None and not 0 <= i < n:
                raise QpError(f"objective term names variable {i} of {n}")
        q = ([0], [], [], [])                 # Q's CSR lists; its sides go unused
        for i in range(n):
            b._add_row(q, None, b._q.get(i, ()), 0.0)
        (*eq, b_eq), (*le, b_le) = b._eq, b._le
        parts = (b._lb, b._ub, [b._lin.get(i, 0.0) for i in range(n)], b_eq, b_le, eq[2], le[2],
                 [b._lin.get(None, 0.0)])
        self._starts = list(accumulate(map(len, parts), initial=0))
        x = self._x = np.fromiter(chain(*parts), float, self._starts[-1])
        x.setflags(write=False)                           # each program copies it
        part, pos, a, m1, m2, p_b = np.array(b._terms, dtype=float).reshape(-1, 6).T
        self.Q = _csr(q[:3], (n, n), "objective")
        starts = self._starts                             # a part's code indexes them
        self._blocks = [(_csr((*rows[:2], x[starts[k]:starts[k + 1]]), (len(side), n), name),
                         (part == k).any())
                        for k, rows, side, name in ((_EQ, eq, b_eq, "eq"), (_LE, le, b_le, "le"))]
        self._dst = np.array(starts)[part.astype(np.intp)] + pos.astype(np.intp)
        self._a, self._m1, self._m2, self._b = a.astype(np.intp), m1, m2, p_b.astype(np.intp)
        self._fns, self._n_p, self._fixed = tuple(b._fns), b._n_p, tuple(b._fixed)
        for m, own in [(self.Q, False)] + self._blocks:
            for v in (m.indices, m.indptr) + (() if own else (m.data,)):
                v.setflags(write=False)
        self._setup = SetupBase(self.Q, *(m for m, _ in self._blocks))

    def fits(self, source) -> bool:
        return all(fn(source) == value for fn, value in self._fixed)

    def program(self, source) -> QuadraticProgram:
        p = [1.0]
        for fn in self._fns:
            p += fn(source)
        if len(p) != self._n_p:
            raise QpError(f"the parameters give {len(p) - 1} numbers, not {self._n_p - 1}")
        p = np.array(p)
        x = self._x.copy()
        np.add.at(x, self._dst, p[self._a] * self._m1 * self._m2 * p[self._b])
        lb, ub, c, b_eq, b_le, *data = (x[i:j] for i, j in zip(self._starts[:-2],
                                                               self._starts[1:-1]))
        A_eq, A_le = (_with_data(m, d) if own else m for (m, own), d in zip(self._blocks, data))
        return QuadraticProgram(self.n, self.Q, c, lb, ub, A_eq, b_eq, A_le, b_le, x[-1],
                                validate_psd=False, setup_base=self._setup)


def _with_data(mat: sp.csr_matrix, data) -> sp.csr_matrix:
    """A CSR block holding `data` in the structure of `mat`, whose indices
    and indptr arrays it holds (a shallow copy: scipy's constructor would
    take a new view of the indices)."""
    out = copy.copy(mat)
    out.data = data
    return out


def _csr(block, shape, name) -> sp.csr_matrix:
    """The CSR matrix of a block's lists (indptr, indices, data), its data
    an array or a list; a column outside the program names the block."""
    indptr, cols, vals = block
    n = shape[1]
    if cols and not (0 <= min(cols) and max(cols) < n):
        bad = next(j for j in cols if not 0 <= j < n)
        raise QpError(f"{name} term names variable {bad} of {n}")
    return sp.csr_matrix((np.asarray(vals, dtype=float), np.array(cols, dtype=np.int32),
                          np.array(indptr, dtype=np.int32)), shape=shape)
