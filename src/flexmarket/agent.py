"""Consumer agent logic: flexibility scheduling and price response.

Stage I: each agent solves a multiperiod optimization over a receding
horizon window to pick per-device injection setpoints P_d(t) and
symmetric flexibility half-widths delta_d(t), trading off flexibility
reward, device operating costs (cycling, charge-target, comfort,
curtailment), PV self-consumption, and total net injection. The
absolute-value flexibility bounds eps_lo*|P| <= delta <= eps_hi*|P| are
exact-linearized with a binary split at each step whose power interval
holds both signs (a battery's steps, an EV's steps at home), which makes
the problem a mixed-integer QP; elsewhere |P| is P or -P. The first-step
results aggregate into a FlexibilityOffer.

An agent's consecutive windows often share a shape: the same
variables, rows and sparsity, with other numbers. So a window's program
is declared once per shape, as a frame, and each window of the frame's
shape only refreshes the numbers: bounds, sides, the coefficients that
depend on the window, and the objective's linear and constant terms.

Stage II: given announced prices, the agent's welfare is concave
quadratic in its bid, so the best response has a closed form: saturate
at the offer ceiling when the price signal is strong enough, otherwise
bid the interior stationary point.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from . import devices as dev
from .bnb import BnbConfig, MixedIntegerQp, solve_miqp
from .devices import ObjectiveWeights
from .qp import QpBuilder, QpSolution, QuadraticProgram, csr_with_data
from .scenario import AgentSpec, HorizonView


class AgentError(ValueError):
    pass


class DegenerateAgentError(AgentError):
    """Agent with no devices and no fixed load: nothing to schedule."""


class InfeasibleMpoError(AgentError):
    """The agent's scheduling problem has no feasible point."""


@dataclass(frozen=True)
class DeviceSchedule:
    """One device's horizon plan: injections, flexibility, states."""

    kind: str
    power_kw: tuple             # P_d(t) over the window
    delta_kw: tuple             # symmetric half-width per step
    states: tuple               # SOC or temperature at each step start (empty for PV)
    mode_signs: tuple = ()      # heat pump only: +1 cooling / -1 heating per step


@dataclass(frozen=True)
class FlexibilityOffer:
    """Stage-I result reported to the operator for one clearing."""

    agent_id: str
    p0: float                   # baseline net injection at the bid step
    p_lo: float
    p_hi: float
    schedules: Mapping[str, DeviceSchedule]
    solver_status: str = "optimal"
    solver_gap: float = 0.0
    # the window's root relaxation and frame: the agent's next clearing
    # starts from the one and refreshes the other
    root: Optional["RootRelaxation"] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not (self.p_lo <= self.p0 + 1e-9 and self.p0 <= self.p_hi + 1e-9):
            raise AgentError(
                f"offer ordering violated: {self.p_lo} <= {self.p0} <= {self.p_hi}")


def hp_mode_schedule(hp: dev.HpParams, view: HorizonView, t_in_now: float) -> tuple:
    """Cooling/heating sign per window step, fixed before optimizing.

    The executed step (k = 0) uses the known current indoor temperature,
    so its dynamics coincide exactly with the runtime temperature step.
    Later steps fall back to the outdoor forecast against the setpoint,
    which keeps the dynamics decision-independent.
    """
    return tuple(dev.hp_mode_sign(view.outdoor_temp[k],
                                  t_in_now if k == 0 else hp.t_setpoint)
                 for k in range(view.length))


class _Families(Mapping):
    """The variables or rows of one sort in a window problem, kept as
    families: each family, named by a tuple (a device kind, or a kind and
    a row role), is one list of indices over the window's steps, None at
    a step without an entry. An entry that is not per step is a family
    of one, [index]. The keyed reads name + (k,) are derived from the
    lists."""

    def __init__(self, length: int):
        self.length = length        # steps a new family covers
        self.lists = {}             # name -> [index or None] per step

    def new(self, *name) -> list:
        """A family of no entries yet, to fill in step by step."""
        fam = self.lists[name] = [None] * self.length
        return fam

    def __getitem__(self, key):
        *name, k = key
        fam = self.lists[tuple(name)]
        i = fam[k] if 0 <= k < len(fam) else None
        if i is None:
            raise KeyError(key)
        return i

    def __iter__(self):
        for name, fam in self.lists.items():
            for k, i in enumerate(fam):
                if i is not None:
                    yield name + (k,)

    def __len__(self):
        return sum(len(fam) - fam.count(None) for fam in self.lists.values())


class _MpoLayout:
    """Variable/row bookkeeping for one window shape's problem. Each
    device's P, delta, state, plus, minus and z is one family over the
    window's steps, keyed (kind, k); a state family runs over k = 0..H
    with None at k = 0, whose state is the fixed start. Rows are families
    (kind, role) keyed (kind, role, k); a row that is not per step is a
    family of one, keyed (kind, role, 0), and a row with another
    definition has another role. A layout belongs to a frame and is
    shared by every window the frame refreshes.

    `shift_root` moves a root onto the next window family by family: in
    a family of n steps, step k takes old step k+1 for k <= n-3, and
    steps n-2 and n-1 take their own old steps (for the states, k <= H-2
    takes k+1, and states H-1 and H keep their own), so a family of one
    takes its own old entry."""

    def __init__(self, kinds: tuple, H: int):
        self.kinds, self.H = kinds, H
        self.P, self.delta, self.plus, self.minus, self.z = (
            _Families(H) for _ in range(5))
        self.state = _Families(H + 1)
        self.eq = _Families(H)                  # A_eq rows
        self.le = _Families(H)                  # A_le rows
        self.self_shift = None  # shift_root's pairs from this layout onto itself


def _storage_rates(d, dt: float) -> tuple:
    """A storage device's SOC kept over a step, and its SOC change per kW
    injected over a step."""
    return 1.0 - d.self_discharge, dt * d.efficiency / d.capacity_kwh


def _square_c0(weight: float, const: float) -> float:
    """What `QpBuilder.add_square(terms, const, weight)` adds to c0. A
    zero adds nothing to a c0, which is a sum of such terms from 0.0."""
    return weight * const * const


class _Window:
    """One agent's window: the numbers its program is refreshed from, read
    off the agent and the view with every per-window check, and its
    shape. The shape is every discrete decision that names a variable,
    row, column or family: the agent, weights, step length and horizon,
    and per device the class of each step (0.0 where its power interval
    holds both signs, else the sign s with |P| = s*P), storage's
    window-end row, the EV target step's position in the window, and the
    heat pump's executed-step robustness role."""

    def __init__(self, spec: AgentSpec, view: HorizonView, weights: ObjectiveWeights):
        H, t0 = view.length, view.t_start
        self.view = view
        self.fixed = spec.fixed_load[t0:t0 + H]
        if not spec.devices and all(v == 0.0 for v in self.fixed):
            raise DegenerateAgentError(
                f"agent {spec.id} has no devices and zero fixed load")
        states_now = view.device_states.get(spec.id, {})
        self.spans, self.steps, self.start, self.mode_signs = {}, {}, {}, {}
        self.end, self.floor, self.target = {}, {}, {}
        shape = [spec, weights, view.dt_hours, H]
        interval = dev.feasible_power_interval
        for d in spec.devices:
            kind = d.kind
            alphas = view.irradiance_frac if kind == dev.PV else (0.0,) * H
            spans = self.spans[kind] = [interval(d, t0 + k, alphas[k]) for k in range(H)]
            steps = self.steps[kind] = tuple([
                0.0 if lo < 0.0 < hi else -1.0 if lo < 0.0 else 1.0 for lo, hi in spans])
            shape.append(steps)
            if kind == dev.PV:
                continue
            now = states_now.get(kind)
            start = self.start[kind] = d.initial_state if now is None else now
            if kind == dev.HEAT_PUMP:
                signs = self.mode_signs[kind] = hp_mode_schedule(d, view, start)
                shape.append(signs[0] > 0)
                continue
            shape.append(self._anchor_end(spec, d, start))
            if kind == dev.EV:
                k_star = d.target_step - t0
                self.target[kind] = k_star if 1 <= k_star <= H - 1 else None
                shape.append(self.target[kind])
        self.shape = tuple(shape)

    def _anchor_end(self, spec: AgentSpec, d, soc0: float) -> tuple:
        """Storage's window-end row. When the window holds the simulation's
        end step, the SOC there equals the configured initial SOC
        (start-equals-end over the whole day); otherwise an anti-depletion
        floor on the window's last state, at the initial SOC lowered to
        the SOC that charging at full power at every step can reach. Both
        use the band from full discharge to full charge over the steps up
        to the anchored state."""
        view, kind = self.view, d.kind
        t0 = view.t_start
        keep, coeff = _storage_rates(d, view.dt_hours)
        k_end = min(view.length, view.end_step - t0)
        low = reach = soc0
        for lo, hi in self.spans[kind][:k_end]:
            low = max(keep * low - coeff * hi, d.soc_min)
            reach = min(keep * reach - coeff * lo, d.soc_max)
        if view.reaches_end:
            if not low - 1e-9 <= d.soc_init <= reach + 1e-9:
                raise InfeasibleMpoError(
                    f"agent {spec.id}: {kind} cannot return to its initial SOC "
                    f"{d.soc_init} by step {view.end_step} from {soc0} at step {t0} "
                    f"(reachable [{low:.6g}, {reach:.6g}])")
            end = self.end[kind] = ("end_eq", k_end)
        else:
            self.floor[kind] = min(d.soc_init, reach)
            end = self.end[kind] = ("end_floor",)
        return end


def _doubles(values: np.ndarray) -> array:
    """A float array's values as an array of doubles, bit for bit."""
    return array("d", values.tobytes())


def _shared(mat):
    """A CSR block made read-only, to be shared between programs."""
    for a in (mat.data, mat.indices, mat.indptr):
        a.flags.writeable = False
    return mat


def _positions(mat, rows: list, cols: list) -> list:
    """Where each (row, column) entry lies in a CSR block's data, None
    where the row is."""
    indptr, indices = mat.indptr.tolist(), mat.indices.tolist()
    return [None if r is None else indices.index(j, indptr[r], indptr[r + 1])
            for r, j in zip(rows, cols)]


class _Frame:
    """One window shape's program, declared once: its variables, rows,
    CSR structure, layout families and every coefficient that no window
    changes. `refresh` writes one window's numbers into copies of the
    declared arrays: bounds from each step's power interval, every
    right-hand side, the heat pump's temperature coefficients, the gate
    coefficients, c and c0. Q, and A_eq or A_le where no entry of theirs
    is refreshed, are shared read-only by every program of the frame.
    Each refreshed number is made as the builder makes it: a row entry
    0.0 + a, a side or bound as it is, c and c0 summed in the builder's
    call order."""

    def __init__(self, spec: AgentSpec, win: _Window, w: ObjectiveWeights):
        self.shape = win.shape
        view, H = win.view, win.view.length
        b = QpBuilder()
        lay = self.layout = _MpoLayout(tuple(d.kind for d in spec.devices), H)
        for d in spec.devices:
            kind = d.kind
            P, D = lay.P.new(kind), lay.delta.new(kind)
            env_hi, env_lo = lay.le.new(kind, "env_hi"), lay.le.new(kind, "env_lo")
            for k in range(H):
                # P's bounds and the envelope's sides are the step's power
                # interval; the envelope's limits must hold at P +- delta
                P[k] = b.add_var(0.0, 0.0)
                D[k] = b.add_var(0.0, math.inf)
                env_hi[k] = b.add_le([(P[k], 1.0), (D[k], 1.0)], 0.0)
                env_lo[k] = b.add_ge([(P[k], 1.0), (D[k], -1.0)], 0.0)
                b.add_linear(D[k], -1.0)        # reward flexibility
                b.add_linear(P[k], -1.0)        # reward net injection
            _declare_band(b, lay, kind, win.steps[kind], spec)
            if kind in (dev.BATTERY, dev.EV):
                _declare_storage(b, lay, d, view, w, win)
            elif kind == dev.HEAT_PUMP:
                _declare_heat_pump(b, lay, d, view, w, win.mode_signs[kind][0] > 0)
            else:
                _declare_pv(b, lay, w)

        # PV self-consumption: pull PV + battery + EV injections toward zero
        util = [lay.P.lists[kk,] for kk in (dev.PV, dev.BATTERY, dev.EV)
                if kk in lay.kinds]
        if util:
            for k in range(H):
                b.add_square([(P[k], 1.0) for P in util], 0.0, w.utilization)
        qp = b.build()
        self.n, self.Q = qp.n, _shared(qp.Q)
        self.binary_vars = tuple(i for z in lay.z.lists.values()
                                 for i in z if i is not None)
        # the arrays a window refreshes, as compact arrays of doubles
        self.lb, self.ub, self.c = _doubles(qp.lb), _doubles(qp.ub), _doubles(qp.c)
        self.b_eq, self.b_le = _doubles(qp.b_eq), _doubles(qp.b_le)
        # data positions of the refreshed coefficients: each heat-pump
        # temperature row's P entry, and each gate row's z entry
        self.at = {}
        for kind in lay.kinds:
            if (kind, "temp") in lay.eq.lists:
                self.at[kind, "temp"] = _positions(
                    qp.A_eq, lay.eq.lists[kind, "temp"], lay.P.lists[kind,])
            if (kind,) in lay.z.lists:
                for role in ("gate_plus", "gate_minus"):
                    self.at[kind, role] = _positions(
                        qp.A_le, lay.le.lists[kind, role], lay.z.lists[kind,])
        # a block without refreshed entries is shared as it is
        self.A_eq, self.A_le = _shared(qp.A_eq), _shared(qp.A_le)
        self.eq_data = _doubles(qp.A_eq.data) if (dev.HEAT_PUMP, "temp") in self.at else None
        self.le_data = _doubles(qp.A_le.data) if lay.z.lists else None

    def refresh(self, spec: AgentSpec, win: _Window,
                w: ObjectiveWeights) -> MixedIntegerQp:
        """The program of a window of this frame's shape."""
        lay = self.layout
        r = _Numbers(self)
        c0 = 0.0
        for d in spec.devices:
            kind = d.kind
            spans = win.spans[kind]
            P = lay.P.lists[kind,]
            env_hi, env_lo = lay.le.lists[kind, "env_hi"], lay.le.lists[kind, "env_lo"]
            for k, (lo, hi) in enumerate(spans):
                r.lb[P[k]] = lo
                r.ub[P[k]] = hi
                r.b_le[env_hi[k]] = hi          # P + delta <= hi
                r.b_le[env_lo[k]] = -lo         # -P + delta <= -lo
            if (kind,) in lay.z.lists:
                _refresh_band(self, r, kind, spans)
            if kind in (dev.BATTERY, dev.EV):
                c0 = _refresh_storage(self, r, d, win, w, c0)
            elif kind == dev.HEAT_PUMP:
                c0 = _refresh_heat_pump(self, r, d, win, w, c0)
            else:
                c0 = _refresh_pv(self, r, d, win, w, c0)
        c0 += sum(win.fixed)        # -P_total = -(sum_d P_d - fixed)
        miqp = MixedIntegerQp(r.program(self, c0), self.binary_vars)
        miqp.layout, miqp.frame = lay, self
        miqp.start, miqp.mode_signs = win.start, win.mode_signs
        return miqp


class _Numbers:
    """One window's refreshed arrays: copies of the frame's, written
    entry by entry."""

    def __init__(self, f: _Frame):
        self.lb, self.ub, self.c = f.lb[:], f.ub[:], f.c[:]
        self.b_eq, self.b_le = f.b_eq[:], f.b_le[:]
        self.eq = None if f.eq_data is None else f.eq_data[:]
        self.le = None if f.le_data is None else f.le_data[:]

    def program(self, f: _Frame, c0: float) -> QuadraticProgram:
        def block(shared, data):
            return shared if data is None else csr_with_data(shared, data)

        arr = partial(np.array, dtype=float)
        return QuadraticProgram(
            f.n, f.Q, arr(self.c), arr(self.lb), arr(self.ub),
            block(f.A_eq, self.eq), arr(self.b_eq), block(f.A_le, self.le),
            arr(self.b_le), c0, validate_psd=False)


def build_mpo(spec: AgentSpec, view: HorizonView, weights: ObjectiveWeights,
              frame: Optional[_Frame] = None) -> MixedIntegerQp:
    """Assemble the agent's window problem as a mixed-integer QP.

    Variables per step and device: injection P, flexibility delta, a
    state for storage/thermal devices, and the P+/P-/z absolute-value
    split, z binary, where the step's power interval holds both signs.
    The returned problem carries its variable layout (as `.layout`) and
    the window's start states and heat-pump mode signs (`.start`,
    `.mode_signs`), so schedules can be read back from a solution, and
    its frame (`.frame`). A `frame` of an earlier window is refreshed
    with this window's numbers when this window has the frame's shape;
    otherwise a frame is declared for this window's shape and refreshed.
    """
    win = _Window(spec, view, weights)
    if frame is None or frame.shape != win.shape:
        frame = _Frame(spec, win, weights)
    return frame.refresh(spec, win, weights)


def _declare_band(b: QpBuilder, lay: _MpoLayout, kind: str, steps: tuple,
                  spec: AgentSpec) -> None:
    """The eps band on flexibility, eps_lo*|P| <= delta <= eps_hi*|P|, at
    each step k of class steps[k]. Where the step's power interval holds
    both signs (class 0.0), P = P+ - P- with a binary z gating the
    halves, which makes |P| = P+ + P- exact; the halves' bounds and the
    gates' z coefficients and sides are the interval's, refreshed.
    Elsewhere the interval fixes P's sign s, |P| is s*P (P at
    lo = hi = 0), and there is no binary."""
    P, D = lay.P.lists[kind,], lay.delta.lists[kind,]
    if 0.0 in steps:
        plus, minus, zs = lay.plus.new(kind), lay.minus.new(kind), lay.z.new(kind)
        split = lay.eq.new(kind, "split")
        gate_plus = lay.le.new(kind, "gate_plus")
        gate_minus = lay.le.new(kind, "gate_minus")
    eps_lo, eps_hi = lay.le.new(kind, "eps_lo"), lay.le.new(kind, "eps_hi")
    for k, s in enumerate(steps):
        dl = D[k]
        if s == 0.0:
            pp = plus[k] = b.add_var(0.0, 0.0)
            pm = minus[k] = b.add_var(0.0, 0.0)
            z = zs[k] = b.add_var(0.0, 1.0)
            split[k] = b.add_eq([(P[k], 1.0), (pp, -1.0), (pm, 1.0)], 0.0)
            gate_plus[k] = b.add_le([(pp, 1.0), (z, 0.0)], 0.0)
            gate_minus[k] = b.add_le([(pm, 1.0), (z, 0.0)], 0.0)
            abs_p = [(pp, 1.0), (pm, 1.0)]
        else:
            abs_p = [(P[k], s)]
        eps_lo[k] = b.add_le(
            [(v, spec.eps_lo * s) for v, s in abs_p] + [(dl, -1.0)], 0.0)
        eps_hi[k] = b.add_le(
            [(dl, 1.0)] + [(v, -spec.eps_hi * s) for v, s in abs_p], 0.0)


def _refresh_band(f: _Frame, r: _Numbers, kind: str, spans: list) -> None:
    """The split steps' numbers: 0 <= P+ <= hi, 0 <= P- <= -lo, and the
    gates P+ - hi*z <= 0 and P- - lo*z <= -lo."""
    lay = f.layout
    plus, minus = lay.plus.lists[kind,], lay.minus.lists[kind,]
    gate_minus = lay.le.lists[kind, "gate_minus"]
    at_plus, at_minus = f.at[kind, "gate_plus"], f.at[kind, "gate_minus"]
    for k, (lo, hi) in enumerate(spans):
        if plus[k] is not None:
            r.ub[plus[k]] = hi
            r.ub[minus[k]] = -lo
            r.le[at_plus[k]] = 0.0 + -hi
            r.le[at_minus[k]] = 0.0 + -lo
            r.b_le[gate_minus[k]] = -lo


def _declare_storage(b: QpBuilder, lay: _MpoLayout, d, view: HorizonView,
                     w: ObjectiveWeights, win: _Window) -> None:
    kind, H = d.kind, view.length
    keep, coeff = _storage_rates(d, view.dt_hours)
    P, D, S = lay.P.lists[kind,], lay.delta.lists[kind,], lay.state.new(kind)
    for k in range(1, H + 1):
        S[k] = b.add_var(d.soc_min, d.soc_max)
    # SOC recurrence soc' = keep*soc - coeff*P; step 0's side, keep*soc0,
    # is refreshed
    soc = lay.eq.new(kind, "soc")
    soc[0] = b.add_eq([(S[1], 1.0), (P[0], coeff)], 0.0)
    for k in range(1, H):
        soc[k] = b.add_eq(
            [(S[k + 1], 1.0), (S[k], -keep), (P[k], coeff)], 0.0)
    # the window end (`_Window._anchor_end`): an equality at the
    # simulation's end step, or a floor on the last state, refreshed
    end = win.end[kind]
    if end[0] == "end_eq":
        lay.eq.lists[kind, "end_eq"] = [b.add_eq([(S[end[1]], 1.0)], d.soc_init)]
    else:
        lay.le.lists[kind, "end_floor"] = [b.add_ge([(S[H], 1.0)], 0.0)]
    # executed-step robustness: an upward settlement deviation within
    # delta must keep the next state feasible; the side is refreshed
    lay.le.lists[kind, "robust"] = [b.add_ge(
        [(P[0], -coeff), (D[0], -coeff)], 0.0)]
    # cycling: penalize step-to-step power changes
    for k in range(H - 1):
        b.add_square([(P[k + 1], 1.0), (P[k], -1.0)], 0.0, w.alpha_cyc)
    if win.target.get(kind) is not None:
        # charge target at its step within the window
        b.add_square([(S[win.target[kind]], 1.0)], -d.soc_target, w.xi_ev)


def _refresh_storage(f: _Frame, r: _Numbers, d, win: _Window,
                     w: ObjectiveWeights, c0: float) -> float:
    kind, lay = d.kind, f.layout
    soc0 = win.start[kind]
    keep, _ = _storage_rates(d, win.view.dt_hours)
    r.b_eq[lay.eq.lists[kind, "soc"][0]] = keep * soc0
    if kind in win.floor:
        r.b_le[lay.le.lists[kind, "end_floor"][0]] = -win.floor[kind]
    r.b_le[lay.le.lists[kind, "robust"][0]] = -(d.soc_min - keep * soc0)
    if kind == dev.EV:
        if win.target[kind] is not None:
            c0 += _square_c0(w.xi_ev, -d.soc_target)
        elif d.target_step == win.view.t_start:
            # at k = 0 the start state is fixed
            c0 += w.xi_ev * (soc0 - d.soc_target) ** 2
    return c0


def _declare_heat_pump(b: QpBuilder, lay: _MpoLayout, d, view: HorizonView,
                       w: ObjectiveWeights, cooling: bool) -> None:
    kind, H = dev.HEAT_PUMP, view.length
    th = d.theta(view.dt_hours)
    g = 1.0 - th
    P, D, S = lay.P.lists[kind,], lay.delta.lists[kind,], lay.state.new(kind)
    for k in range(1, H + 1):
        S[k] = b.add_var(d.t_min, d.t_max)
    # T' = th*T + (1-th)*(T_out + sign*rho*P); P's coefficient and the
    # sides are refreshed
    temp = lay.eq.new(kind, "temp")
    temp[0] = b.add_eq([(S[1], 1.0), (P[0], 0.0)], 0.0)
    for k in range(1, H):
        temp[k] = b.add_eq([(S[k + 1], 1.0), (S[k], -th), (P[k], 0.0)], 0.0)
    # executed-step robustness under upward deviation (P rises toward 0):
    # cooling warms the room, heating cools it; the side is refreshed
    if cooling:
        lay.le.lists[kind, "robust_cool"] = [b.add_le(
            [(P[0], g * d.rho), (D[0], g * d.rho)], 0.0)]
    else:
        lay.le.lists[kind, "robust_heat"] = [b.add_ge(
            [(P[0], -g * d.rho), (D[0], -g * d.rho)], 0.0)]
    # comfort over the window's steps; step 0 is the fixed start, refreshed
    for k in range(1, H):
        b.add_square([(S[k], 1.0)], -d.t_setpoint, w.xi_ac)


def _refresh_heat_pump(f: _Frame, r: _Numbers, d, win: _Window,
                       w: ObjectiveWeights, c0: float) -> float:
    kind, lay, view = dev.HEAT_PUMP, f.layout, win.view
    t_now, signs, t_out = win.start[kind], win.mode_signs[kind], view.outdoor_temp
    th = d.theta(view.dt_hours)
    g = 1.0 - th
    temp, at = lay.eq.lists[kind, "temp"], f.at[kind, "temp"]
    for k in range(view.length):
        r.eq[at[k]] = 0.0 + -g * signs[k] * d.rho
    r.b_eq[temp[0]] = th * t_now + g * t_out[0]
    for k in range(1, view.length):
        r.b_eq[temp[k]] = g * t_out[k]
    if signs[0] > 0:
        r.b_le[lay.le.lists[kind, "robust_cool"][0]] = (
            d.t_max - th * t_now - g * t_out[0])
    else:
        r.b_le[lay.le.lists[kind, "robust_heat"][0]] = -(
            d.t_min - th * t_now - g * t_out[0])
    c0 += w.xi_ac * (t_now - d.t_setpoint) ** 2
    comfort = _square_c0(w.xi_ac, -d.t_setpoint)
    for k in range(1, view.length):
        c0 += comfort
    return c0


def _declare_pv(b: QpBuilder, lay: _MpoLayout, w: ObjectiveWeights) -> None:
    for i in lay.P.lists[dev.PV,]:
        # curtailment: pull P toward the available output, refreshed
        b.add_square([(i, -1.0)], 0.0, w.xi_pv)


def _refresh_pv(f: _Frame, r: _Numbers, d, win: _Window,
                w: ObjectiveWeights, c0: float) -> float:
    irr = win.view.irradiance_frac
    for k, i in enumerate(f.layout.P.lists[dev.PV,]):
        # the curtailment square's linear and constant terms
        avail = irr[k] * d.p_rated_kw
        r.c[i] += 2.0 * w.xi_pv * avail * -1.0
        c0 += _square_c0(w.xi_pv, avail)
    return c0


def _clip(v: float, lo: float, hi: float) -> float:
    return min(max(v, lo), hi)


def _extract_schedules(spec: AgentSpec, miqp: MixedIntegerQp,
                       x: np.ndarray) -> dict:
    """Read device schedules out of a solution, snapping solver dust back
    into the program's own power bounds so downstream dynamics see clean
    values."""
    lay, qp = miqp.layout, miqp.base
    xs, lbs, ubs = x.tolist(), qp.lb.tolist(), qp.ub.tolist()
    eps_hi = spec.eps_hi
    out = {}
    for d in spec.devices:
        kind = d.kind
        powers, deltas, states = [], [], ()
        for i, j in zip(lay.P.lists[kind,], lay.delta.lists[kind,]):
            lo, hi = lbs[i], ubs[i]
            p = min(max(xs[i], lo), hi)
            powers.append(p)
            deltas.append(min(max(xs[j], 0.0), min(eps_hi * abs(p), hi - p, p - lo)))
        if kind in miqp.start:
            states = (float(miqp.start[kind]),) + tuple(
                xs[i] for i in lay.state.lists[kind,][1:lay.H])
        out[kind] = DeviceSchedule(
            kind=kind, power_kw=tuple(powers), delta_kw=tuple(deltas),
            states=states,
            mode_signs=miqp.mode_signs.get(kind, ()))
    return out


@dataclass(frozen=True)
class RootRelaxation:
    """One window's root relaxation with the frame whose layout names its
    entries; the agent's next clearing starts from it, shifted, and
    refreshes the frame when its window has the same shape."""

    t_start: int
    frame: _Frame
    solution: QpSolution

    @property
    def layout(self) -> _MpoLayout:
        return self.frame.layout


def _shift_family(new: list, old: list, to: list, frm: list) -> None:
    """Append the (new index, old index) pairs of one family of n steps
    by `shift_root`'s rule; a step without a match has no pair, and old
    steps from n on are not read."""
    n = len(new)
    if len(old) != n:
        old = (old + [None] * n)[:n]
    src = old[1:n - 1] + old[max(n - 2, 0):]
    if None in src:
        src = [o if s is None else s for s, o in zip(src, old)]
    if None in new or None in src:
        for i, j in zip(new, src):
            if i is not None and j is not None:
                to.append(i)
                frm.append(j)
    else:
        to += new
        frm += src


def _shift_index(sorts) -> tuple:
    """Index arrays (new, old) pairing the entries of each (old, new)
    sort in `sorts`, which share one index space, with the old entries
    that start them."""
    to, frm = [], []
    for old, new in sorts:
        for name, fam in new.lists.items():
            prev = old.lists.get(name)
            if prev is not None:
                _shift_family(fam, prev, to, frm)
    return np.array(to, dtype=np.intp), np.array(frm, dtype=np.intp)


def _shift_pairs(old: _MpoLayout, new: _MpoLayout) -> tuple:
    """`_shift_index`'s (new, old) pairs of the variables, A_eq rows and
    A_le rows."""
    return (_shift_index((getattr(old, f), getattr(new, f))
                         for f in ("P", "delta", "state", "plus", "minus", "z")),
            _shift_index([(old.eq, new.eq)]), _shift_index([(old.le, new.le)]))


def shift_root(old: _MpoLayout, root: QpSolution, new: _MpoLayout,
               qp: QuadraticProgram) -> QpSolution:
    """The root relaxation of the window one step earlier, moved onto the
    window `new` lays out: primal and multipliers alike, family by
    family. In a family of n steps, step k takes old step k+1 for
    k <= n-3, and steps n-2 and n-1 take their own old steps, so the old
    window's last step, planned with nothing after it, starts only the
    new last step, and a family of one takes its own old entry. Where the
    chosen old entry is missing, old step k serves; anything else starts
    at 0. Two windows of one frame share its layout, which keeps their
    pairs. A warm start only; its status is "shifted"."""
    def moved(index, values, size):
        out = np.zeros(size)
        out[index[0]] = values[index[1]]
        return out

    if old is new:
        if new.self_shift is None:
            new.self_shift = _shift_pairs(new, new)
        var, eq, le = new.self_shift
    else:
        var, eq, le = _shift_pairs(old, new)
    return QpSolution(
        moved(var, root.primal, qp.n), moved(var, root.dual_bounds, qp.n),
        moved(eq, root.dual_eq, qp.n_eq), moved(le, root.dual_ineq, qp.n_le),
        np.nan, "shifted")


def solve_flexibility(spec: AgentSpec, view: HorizonView,
                      weights: ObjectiveWeights,
                      cfg: BnbConfig | None = None,
                      prev: RootRelaxation | None = None) -> FlexibilityOffer:
    """Stage I: solve the window problem and report the first-step offer.
    A `prev` (offer.root) of the window one step earlier, shifted, starts
    the root relaxation, and its frame is refreshed when this window has
    its shape."""
    t0 = view.t_start
    miqp = build_mpo(spec, view, weights, None if prev is None else prev.frame)
    if prev is not None and prev.t_start == t0 - 1:
        miqp.root_warm = shift_root(prev.layout, prev.solution, miqp.layout,
                                    miqp.base)
    sol = solve_miqp(miqp, cfg or BnbConfig())
    if sol.status == "infeasible":
        raise InfeasibleMpoError(
            f"agent {spec.id}: window starting at step {t0} is infeasible")
    if not np.all(np.isfinite(sol.primal)):
        raise AgentError(
            f"agent {spec.id}: solver exhausted its budget without a "
            f"feasible schedule for the window starting at step {t0}")
    schedules = _extract_schedules(spec, miqp, sol.primal)
    p0 = sum(s.power_kw[0] for s in schedules.values()) - spec.fixed_load[t0]
    span = sum(s.delta_kw[0] for s in schedules.values())
    return FlexibilityOffer(
        agent_id=spec.id, p0=p0, p_lo=p0 - span, p_hi=p0 + span,
        schedules=schedules, solver_status=sol.status, solver_gap=sol.gap,
        root=RootRelaxation(t0, miqp.frame, sol.root))


def best_response(gamma: float, p0: float, p_hi: float, mu: float,
                  mu_tilde: float) -> float:
    """Welfare-maximizing bid in [p0, p_hi] given announced prices.

    Saturates at p_hi when gamma*(p_hi - p0)/(mu + mu_tilde) < 1/2,
    otherwise bids the interior stationary point p0 + (mu+mu_tilde)/(2*gamma);
    the two branches agree at the boundary.
    """
    if gamma <= 0:
        raise AgentError(f"gamma must be positive (got {gamma})")
    if p_hi < p0 - 1e-12:
        raise AgentError(f"need p_hi >= p0 (got p0={p0}, p_hi={p_hi})")
    s = mu + mu_tilde
    if s < -1e-12:
        raise AgentError(f"price sum mu + mu_tilde must be >= 0 (got {s})")
    span = max(p_hi - p0, 0.0)
    if s > 0.0 and 2.0 * gamma * span < s:
        return p_hi
    return _clip(p0 + s / (2.0 * gamma), p0, p_hi)


def agent_welfare(gamma: float, p0: float, p: float, mu: float,
                mu_tilde: float) -> float:
    """Agent welfare at bid p: flexibility compensation plus energy value
    minus quadratic disutility of deviating from the baseline."""
    if gamma <= 0:
        raise AgentError(f"gamma must be positive (got {gamma})")
    d = p - p0
    return mu_tilde * d + mu * p - gamma * d * d
