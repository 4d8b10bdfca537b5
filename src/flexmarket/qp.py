"""Convex quadratic programming via operator splitting.

Canonical problem shape used throughout the package:

    minimize    0.5 x' Q x + c' x + c0
    subject to  lb <= x <= ub          (per-variable box, +-inf allowed)
                A_eq x  = b_eq
                A_le x <= b_le

The solver stacks box, equality, and inequality rows into a single
constraint operator S = [I; A_eq; A_le] with row bounds l <= S x <= u and
runs ADMM: a proximal quadratic step (one KKT solve with a cached sparse
LU factorization) followed by projection onto the row bounds and a dual
update. Equality rows get a boosted penalty so they converge tightly.
After the residual test passes, an active-set polish step re-solves the
equality-constrained KKT system on the detected active rows, which
typically drives residuals to near machine precision.

Each workspace scales its data and assembles its KKT matrix once, on the
index/value triplets of Q and S rather than through scipy.sparse
arithmetic. A penalty change rewrites only the KKT's lower-right
diagonal before refactorizing, and changing only lb/ub (as
branch-and-bound does when fixing binaries) changes nothing, so one
factorization serves a whole search tree. All arithmetic is
deterministic; repeated solves of the same data give bit-identical
results. solve_qp builds a private workspace per call and is reentrant;
an AdmmSolver instance carries solver state (penalty scale,
factorization) and belongs to one thread at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

INF = np.inf

# default ADMM parameters
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 20000
_RHO = 0.02
_RHO_EQ_BOOST = 1e3
_SIGMA = 1e-6
_ALPHA = 1.6
_CHECK_EVERY = 25
_POLISH_REG = 1e-9
_RUIZ_ITERS = 10


class QpError(ValueError):
    """Malformed quadratic program (dimension mismatch, non-PSD objective)."""


def _as_csc(mat, shape) -> sp.csc_matrix:
    if mat is None:
        return sp.csc_matrix(shape)
    if sp.issparse(mat):
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
    status: str                      # "optimal" | "infeasible" | "iteration_limit"
    iterations: int = 0
    polished: bool = False


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


def _stack(qp: QuadraticProgram):
    """Row operator S = [I; A_eq; A_le] and its bound vectors."""
    blocks = [sp.identity(qp.n, format="csc")]
    if qp.n_eq:
        blocks.append(qp.A_eq)
    if qp.n_le:
        blocks.append(qp.A_le)
    S = sp.vstack(blocks, format="csc")
    l = np.concatenate([qp.lb, qp.b_eq, np.full(qp.n_le, -INF)])
    u = np.concatenate([qp.ub, qp.b_eq, qp.b_le])
    return S, l, u


class AdmmSolver:
    """Reusable workspace: factorize once, solve for many bound vectors.

    Branch-and-bound fixes binaries by shrinking their box bounds, which
    leaves the KKT matrix untouched; `solve` accepts per-call overrides
    of the variable bounds plus an optional warm start.
    """

    def __init__(self, qp: QuadraticProgram, rho=_RHO, sigma=_SIGMA, alpha=_ALPHA,
                 stiff_vars=()):
        self.qp = qp
        self.n = qp.n
        self.sigma = sigma
        self.alpha = alpha
        self.S, self._l0, self._u0 = _stack(qp)
        self.m = self.S.shape[0]
        self.ST = self.S.T.tocsc()
        self._equilibrate()
        rho_vec = np.full(self.m, rho)
        # equality rows need a stiff penalty to converge tightly; the same
        # goes for box rows a caller will pin to a point (fixed binaries)
        rho_vec[qp.n:qp.n + qp.n_eq] *= _RHO_EQ_BOOST
        for j in stiff_vars:
            rho_vec[j] *= _RHO_EQ_BOOST
        if qp.n:
            rho_vec[:qp.n][qp.lb == qp.ub] = rho * _RHO_EQ_BOOST
        self._rho_base = rho_vec
        self._rho_scale = 1.0
        self.rho = rho_vec
        self._lu = None
        self._polish_data = None
        if self.n:
            self._factorize()

    def _factorize(self):
        """Write the current penalties into the KKT diagonal and refactorize."""
        self.rho = self._rho_base * self._rho_scale
        self._kkt.data[self._rho_pos] = -1.0 / self.rho
        self._lu = spla.splu(self._kkt)

    def _equilibrate(self):
        """Modified Ruiz scaling of [[Q, S'], [S, 0]] plus cost scaling.

        Produces variable scales d, row scales e, and a cost scale cost_c
        so that the iteration runs on well-conditioned data; solutions
        and termination tests are mapped back to original units. Then
        assembles the scaled KKT matrix [[cost_c Q + sigma I, S'],
        [S, -diag(1/rho)]] once; `_factorize` fills its lower-right
        diagonal, whose positions in the CSC data are `_rho_pos`. Works
        on the nonzero triplets, with the same floating-point products
        as diag(dd) @ Q @ diag(dd), so results match those bit for bit.
        """
        n, m = self.n, self.m
        d = np.ones(n)
        e = np.ones(m)
        if n == 0:
            self.d, self.e, self.cost_c, self.cs = d, e, 1.0, self.qp.c
            return
        qi, qj, qv = _nonzero_triplets(self.qp.Q)
        si, sj, sv = _nonzero_triplets(self.S)
        for _ in range(_RUIZ_ITERS):
            qcol = _abs_max(qj, qv, n)
            scol = _abs_max(sj, sv, n)
            srow = _abs_max(si, sv, m)
            dd = 1.0 / np.sqrt(np.maximum(np.maximum(qcol, scol), 1e-8))
            de = 1.0 / np.sqrt(np.maximum(srow, 1e-8))
            dd = np.clip(dd, 1e-4, 1e4)
            de = np.clip(de, 1e-4, 1e4)
            qv = dd[qi] * qv * dd[qj]
            sv = de[si] * sv * dd[sj]
            d *= dd
            e *= de
        cs = d * self.qp.c
        qnorm = np.max(np.abs(cs))
        pnorm = _abs_max(qj, qv, n).mean() if len(qv) else 0.0
        cost_c = 1.0 / max(1e-6, max(qnorm, pnorm))
        self.d, self.e, self.cost_c = d, e, cost_c
        self.cs = cost_c * cs
        # sigma lands on Q's diagonal as a duplicate entry, summed by the
        # CSC conversion; the penalty diagonal is a placeholder until
        # _factorize
        diag_n, diag_m = np.arange(n), n + np.arange(m)
        self._kkt = sp.csc_matrix(
            (np.concatenate([cost_c * qv, np.full(n, self.sigma), sv, sv, np.ones(m)]),
             (np.concatenate([qi, diag_n, n + si, sj, diag_m]),
              np.concatenate([qj, diag_n, sj, n + si, diag_m]))),
            shape=(n + m, n + m))
        # the conversion sorts each column's rows: column n+i holds rows
        # of S' (all < n) and then its diagonal entry
        self._rho_pos = self._kkt.indptr[n + 1:] - 1

    def _bounds(self, lb, ub):
        l = self._l0.copy()
        u = self._u0.copy()
        if lb is not None:
            l[:self.n] = lb
        if ub is not None:
            u[:self.n] = ub
        return l, u

    def solve(self, lb=None, ub=None, warm=None,
              tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER,
              polish=True) -> QpSolution:
        qp = self.qp
        if self.n == 0:
            return QpSolution(np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0),
                              qp.c0, "optimal")
        l, u = self._bounds(lb, ub)
        if np.any(l[:self.n] > u[:self.n] + 1e-12):
            # proven-empty bound pair
            return self._empty(np.nan, "infeasible")
        d, e, cc = self.d, self.e, self.cost_c
        ls = e * l
        us = e * u
        if warm is not None:
            xh = warm[0] / d
            zh = e * warm[1]
            yh = cc * warm[2] / e
        else:
            xh = np.zeros(self.n)
            zh = np.clip(np.zeros(self.m), ls, us)
            zh[~np.isfinite(zh)] = 0.0
            yh = np.zeros(self.m)

        sigma, alpha = self.sigma, self.alpha
        cs = self.cs
        x = d * xh
        y = e * yh / cc
        y_chk = y
        iters = 0
        polished = False
        # opportunistic polish: aggressive when polish is requested, a
        # late rescue hatch otherwise
        next_polish = 100 if polish else 2500
        adaptions = 0
        status = "iteration_limit"
        while iters < max_iter:
            rho = self.rho
            for _ in range(_CHECK_EVERY):
                rhs = np.concatenate([sigma * xh - cs, zh - yh / rho])
                sol = self._lu.solve(rhs)
                xt = sol[:self.n]
                zt = zh + (sol[self.n:] - yh) / rho
                xh = alpha * xt + (1.0 - alpha) * xh
                zr = alpha * zt + (1.0 - alpha) * zh
                z_new = np.clip(zr + yh / rho, ls, us)
                yh = yh + rho * (zr - z_new)
                zh = z_new
                iters += 1
            # termination is tested in original units
            x = d * xh
            y = e * yh / cc
            Sx = self.S @ x
            Qx = qp.Q @ x
            STy = self.ST @ y
            r_prim = self._prim_res(Sx, l, u)
            r_dual = np.max(np.abs(Qx + qp.c + STy))
            eps_prim = tol + tol * max(_inf_norm(Sx), _inf_norm(zh / e))
            eps_dual = tol + tol * max(_inf_norm(Qx), _inf_norm(qp.c), _inf_norm(STy))
            if r_prim <= eps_prim and r_dual <= eps_dual:
                status = "optimal"
                break
            dy = y - y_chk
            if self._primal_infeasible(dy, l, u, tol):
                return self._empty(np.nan, "infeasible", iters)
            y_chk = y
            # adaptive penalty: rebalance when the residuals drift apart
            ratio = (r_prim / max(eps_prim, 1e-300)) \
                / max(r_dual / max(eps_dual, 1e-300), 1e-300)
            if (ratio > 25.0 or ratio < 0.04) and adaptions < 12:
                scale = float(np.clip(np.sqrt(ratio), 1e-3, 1e3))
                new_scale = float(np.clip(self._rho_scale * scale, 1e-8, 1e8))
                if new_scale != self._rho_scale:
                    adaptions += 1
                    self._rho_scale = new_scale
                    self._factorize()
            if iters >= next_polish:
                # the active set often settles long before the iterates
                # converge; a verified polish is exact, so finish early
                # (worth attempting regardless of the polish flag)
                next_polish *= 2
                px, py, ok = self._polish(x, y, l, u, tol, max_rounds=6)
                if ok:
                    sol = self._package(px, py, "optimal", iters)
                    sol.polished = True
                    return sol

        if status == "optimal" and polish:
            px, py, polished = self._polish(x, y, l, u, tol)
            if polished:
                x, y = px, py
        sol = self._package(x, y, status, iters)
        sol.polished = polished
        return sol

    def _prim_res(self, Sx, l, u):
        below = np.where(np.isfinite(l), l - Sx, -INF)
        above = np.where(np.isfinite(u), Sx - u, -INF)
        return max(0.0, float(np.max(np.maximum(below, above))))

    def _primal_infeasible(self, dy, l, u, tol) -> bool:
        nrm = _inf_norm(dy)
        if nrm <= tol:
            return False
        d = dy / nrm
        pos, neg = np.maximum(d, 0.0), np.minimum(d, 0.0)
        # unbounded rows in the certificate direction rule it out
        if np.any(pos[~np.isfinite(u)] > tol) or np.any(neg[~np.isfinite(l)] < -tol):
            return False
        gap = float(np.sum(u[np.isfinite(u)] * pos[np.isfinite(u)])
                    + np.sum(l[np.isfinite(l)] * neg[np.isfinite(l)]))
        if gap >= -tol:
            return False
        return _inf_norm(self.ST @ d) < tol

    def _polish_kkt(self, idx):
        """KKT [[Q + reg I, S_act'], [S_act, -reg I]] of the rows idx of S.

        Assembled from triplets cached per workspace. S keeps its
        explicit zeros, as the row selection S[idx, :] does.
        """
        if self._polish_data is None:
            P = (self.qp.Q + _POLISH_REG * sp.identity(self.n)).tocoo()
            S = self.S.tocoo()
            self._polish_data = (P.row, P.col, P.data, S.row, S.col, S.data)
        pi, pj, pv, si, sj, sv = self._polish_data
        n, k = self.n, len(idx)
        pos = np.full(self.m, -1)
        pos[idx] = np.arange(k)
        sel = pos[si] >= 0
        r, c, v = n + pos[si[sel]], sj[sel], sv[sel]
        diag_k = n + np.arange(k)
        return sp.csc_matrix(
            (np.concatenate([pv, v, v, np.full(k, -_POLISH_REG)]),
             (np.concatenate([pi, c, r, diag_k]), np.concatenate([pj, r, c, diag_k]))),
            shape=(n + k, n + k))

    def _solve_active(self, act_low, act_up, l, u):
        """KKT solve with the given rows pinned at their bounds."""
        qp = self.qp
        idx = np.flatnonzero(act_low | act_up)
        b_act = np.where(act_up[idx], u[idx], l[idx])
        S_act = self.S[idx, :]
        k = len(idx)
        kkt = self._polish_kkt(idx)
        rhs = np.concatenate([-qp.c, b_act]) if k else -qp.c
        try:
            lu = spla.splu(kkt)
        except RuntimeError:
            return None, None
        sol = lu.solve(rhs)
        if not np.all(np.isfinite(sol)):
            return None, None
        for _ in range(2):
            if k:
                res = np.concatenate([
                    qp.Q @ sol[:self.n] + qp.c + S_act.T @ sol[self.n:],
                    S_act @ sol[:self.n] - b_act])
            else:
                res = qp.Q @ sol[:self.n] + qp.c
            sol = sol - lu.solve(res)
        xp = sol[:self.n]
        yp = np.zeros(self.m)
        if k:
            yp[idx] = sol[self.n:]
        return xp, yp

    def _polish(self, x, y, l, u, tol, max_rounds=15):
        """Active-set refinement from the ADMM iterate.

        Starting from the rows the iterate pins or prices, repeatedly
        solve the equality-constrained KKT system, add rows the solve
        violates, and drop rows whose multiplier has the wrong sign.
        Redundantly pinned rows (a fixed binary makes its gating row and
        the variable box coincide) can leave the LU dual split
        sign-ambiguous, so a failed sign check falls back to a dual
        repair: bounded least squares for sign-feasible multipliers at
        the candidate point. Accepted only when the result passes a
        strict optimality check (~1e-8 scale), which by convexity
        certifies a global optimum; otherwise the ADMM iterate stands.
        """
        qp = self.qp
        Sx = self.S @ x
        eq = np.zeros(self.m, dtype=bool)
        eq[qp.n:qp.n + qp.n_eq] = True
        fin_l = np.isfinite(l)
        fin_u = np.isfinite(u)
        tol_eff = 10.0 * max(tol, 1e-9)
        near_l = tol_eff * (1.0 + np.abs(np.where(fin_l, l, 0.0)))
        near_u = tol_eff * (1.0 + np.abs(np.where(fin_u, u, 0.0)))
        act_low = ((y < -tol) | (Sx <= l + near_l)) & fin_l
        act_up = ((y > tol) | (Sx >= u - near_u)) & fin_u
        both = (l == u) & fin_l
        act_low |= eq | both
        act_up &= ~act_low
        scale = 1.0 + max(_inf_norm(qp.c), _inf_norm(Sx))
        good = 1e-8 * scale
        clean = None
        fallback = None
        seen = set()
        for _ in range(max_rounds):
            sig = (act_low.tobytes(), act_up.tobytes())
            if sig in seen:
                break
            seen.add(sig)
            xp, yp = self._solve_active(act_low, act_up, l, u)
            if xp is None:
                break
            Sxp = self.S @ xp
            # pins that cannot all hold mean the seed guessed wrong: drop
            # the worst-satisfied droppable pin and retry
            pin_res = np.zeros(self.m)
            pin_res[act_low] = np.abs(Sxp[act_low] - l[act_low])
            pin_res[act_up] = np.abs(Sxp[act_up] - u[act_up])
            droppable = (act_low | act_up) & ~eq & ~both
            if pin_res.max(initial=0.0) > good and droppable.any():
                worst = int(np.argmax(np.where(droppable, pin_res, -1.0)))
                if pin_res[worst] > good:
                    act_low[worst] = False
                    act_up[worst] = False
                    continue
            viol_lo = fin_l & ~(act_low | act_up) & (Sxp < l - good)
            viol_hi = fin_u & ~(act_low | act_up) & (Sxp > u + good)
            wrong_lo = act_low & ~eq & ~both & (yp > good)
            wrong_hi = act_up & (yp < -good)
            feasible = not (viol_lo.any() or viol_hi.any()) \
                and self._prim_res(Sxp, l, u) <= good
            if feasible and not (wrong_lo.any() or wrong_hi.any()):
                clean = (xp, yp)
                break
            if feasible:
                fallback = (xp, act_low.copy(), act_up.copy())
            act_low |= viol_lo
            act_up |= viol_hi
            act_low &= ~wrong_lo
            act_up &= ~wrong_hi
        if clean is None and fallback is not None:
            repaired = self._repair_duals(*fallback, l, u, eq, good)
            if repaired is not None:
                clean = repaired
        if clean is None:
            return x, y, False
        xp, yp = clean
        if self._prim_res(self.S @ xp, l, u) > good:
            return x, y, False
        if _inf_norm(qp.Q @ xp + qp.c + self.ST @ yp) > good:
            return x, y, False
        return xp, yp, True

    def _repair_duals(self, xp, act_low, act_up, l, u, eq, good):
        """Sign-feasible multipliers for a fixed candidate point, if any.

        Least squares on the active gradients, iteratively dropping
        columns whose multiplier lands on the wrong side; the survivors
        must explain the objective gradient to the acceptance scale. A
        least-squares solve that fails to converge counts as no repair.
        """
        qp = self.qp
        idx = np.flatnonzero(act_low | act_up)
        if not len(idx):
            return None
        g = -(qp.Q @ xp + qp.c)
        A_full = self.ST[:, idx].toarray()
        both = (l == u) & np.isfinite(l)
        free = np.array([bool(eq[i] or both[i]) for i in idx])
        low = np.array([bool(act_low[i]) for i in idx]) & ~free
        keep = np.ones(len(idx), dtype=bool)
        lam = np.zeros(len(idx))
        for _ in range(8):
            cols = np.flatnonzero(keep)
            if not len(cols):
                return None
            try:
                sol, *_ = np.linalg.lstsq(A_full[:, cols], g, rcond=None)
            except np.linalg.LinAlgError:
                return None
            lam = np.zeros(len(idx))
            lam[cols] = sol
            wrong = (~free) & keep & ((low & (lam > good)) | (~low & (lam < -good)))
            if not wrong.any():
                break
            keep &= ~wrong
        lam[~keep] = 0.0
        if _inf_norm(A_full @ lam - g) > good:
            return None
        yp = np.zeros(self.m)
        yp[idx] = lam
        return xp, yp

    def _package(self, x, y, status, iters) -> QpSolution:
        qp = self.qp
        return QpSolution(
            primal=x,
            dual_bounds=y[:qp.n].copy(),
            dual_eq=y[qp.n:qp.n + qp.n_eq].copy(),
            dual_ineq=y[qp.n + qp.n_eq:].copy(),
            objective=qp.objective_value(x),
            status=status,
            iterations=iters)

    def _empty(self, obj, status, iters=0) -> QpSolution:
        nan = np.full(self.n, np.nan)
        return QpSolution(nan, np.full(self.n, np.nan),
                          np.full(self.qp.n_eq, np.nan),
                          np.full(self.qp.n_le, np.nan),
                          obj, status, iterations=iters)


def solve_qp(qp: QuadraticProgram, tol: float = DEFAULT_TOL,
             max_iter: int = DEFAULT_MAX_ITER) -> QpSolution:
    """Solve one QP. For repeated solves with varying bounds use AdmmSolver."""
    return AdmmSolver(qp).solve(tol=tol, max_iter=max_iter)


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

    dual = max(0.0, float(np.max(-sol.dual_ineq, initial=-INF)))

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


def _inf_norm(v) -> float:
    v = np.asarray(v)
    return float(np.max(np.abs(v))) if v.size else 0.0


def _nonzero_triplets(mat):
    """Row, column and value arrays of a sparse matrix's nonzero entries."""
    coo = mat.tocoo()
    keep = coo.data != 0.0
    return coo.row[keep], coo.col[keep], coo.data[keep]


def _abs_max(index, values, size) -> np.ndarray:
    """Largest |value| per index, 0 where an index has no entry."""
    out = np.zeros(size)
    np.maximum.at(out, index, np.abs(values))
    return out


class QpBuilder:
    """Incremental construction of a QuadraticProgram.

    Variables are added with box bounds; quadratic cost is accumulated
    from weighted squares of affine expressions, which keeps the result
    PSD by construction. Row indices returned by add_le are stable and
    index into the final A_le block.
    """

    def __init__(self):
        self._lb: list[float] = []
        self._ub: list[float] = []
        self._qi: list[int] = []
        self._qj: list[int] = []
        self._qv: list[float] = []
        self._lin: dict[int, float] = {}
        self._c0 = 0.0
        self._eq: list[tuple[list[tuple[int, float]], float]] = []
        self._le: list[tuple[list[tuple[int, float]], float]] = []

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
        if weight == 0.0:
            return
        terms = [(i, float(a)) for i, a in terms if a != 0.0]
        for i, ai in terms:
            for j, aj in terms:
                self._qi.append(i)
                self._qj.append(j)
                self._qv.append(2.0 * weight * ai * aj)
            if const:
                self.add_linear(i, 2.0 * weight * const * ai)
        if const:
            self._c0 += weight * const * const

    def add_eq(self, terms, rhs: float) -> int:
        self._eq.append(([(i, float(a)) for i, a in terms], float(rhs)))
        return len(self._eq) - 1

    def add_le(self, terms, rhs: float) -> int:
        """Row sum(coef*x) <= rhs; returns the row's index in A_le."""
        self._le.append(([(i, float(a)) for i, a in terms], float(rhs)))
        return len(self._le) - 1

    def add_ge(self, terms, rhs: float) -> int:
        return self.add_le([(i, -a) for i, a in terms], -rhs)

    def build(self, validate_psd: bool = True) -> QuadraticProgram:
        n = self.n
        Q = sp.coo_matrix((self._qv, (self._qi, self._qj)), shape=(n, n)).tocsc()
        c = np.zeros(n)
        for i, v in self._lin.items():
            c[i] = v

        def rows(entries):
            data, ri, ci, rhs = [], [], [], []
            for k, (terms, b) in enumerate(entries):
                rhs.append(b)
                for i, a in terms:
                    ri.append(k)
                    ci.append(i)
                    data.append(a)
            A = sp.coo_matrix((data, (ri, ci)), shape=(len(entries), n)).tocsc()
            return A, np.array(rhs)

        A_eq, b_eq = rows(self._eq)
        A_le, b_le = rows(self._le)
        return QuadraticProgram(n, Q, c, np.array(self._lb), np.array(self._ub),
                                A_eq, b_eq, A_le, b_le, self._c0,
                                validate_psd=validate_psd)
