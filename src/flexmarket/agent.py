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

An agent's consecutive windows often differ only in numbers: the same
variables, rows and sparsity. So a window's program is declared once, as
a frame, and serves every later window it fits. Each device's model is
one function (`_add_*`) that reads the window only through the builder:
a parameter slot wherever a number depends on the window
(`qp.QpBuilder.param`), and a recorded read wherever the program's
structure does (`qp.QpBuilder.fixed`). A window fits a frame when each
recorded read returns there what it returned at the declaring window,
and every window's program, the declaring one's too, is the frame's
template evaluated at that window.

Stage II: given announced prices, the agent's welfare is concave
quadratic in its bid, so the best response has a closed form: saturate
at the offer ceiling when the price signal is strong enough, otherwise
bid the interior stationary point.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Optional

import numpy as np

from . import devices as dev
from .bnb import BnbConfig, MixedIntegerQp, solve_miqp
from .devices import ObjectiveWeights
from .qp import QpBuilder, QpSolution, QpTemplate, QuadraticProgram
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
    # starts from the one and builds through the other; at the first
    # clearing, agents with the same device kinds start from the root too
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
    """Variable/row bookkeeping for one frame's problem. Each
    device's P, delta, state, plus, minus and z is one family over the
    window's steps, keyed (kind, k); a state family runs over k = 0..H
    with None at k = 0, whose state is the fixed start. Rows are families
    (kind, role) keyed (kind, role, k); a row that is not per step is a
    family of one, keyed (kind, role, 0), and a row with another
    definition has another role. A layout belongs to a frame and is
    shared by every window the frame fits.

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


class _Window:
    """One agent's window: what its device models read through the
    builder, taken off the agent and the view with every per-window
    check. Per device each step's power interval and its class (0.0
    where the interval holds both signs, else the sign s with
    |P| = s*P) and a start state; storage's window-end row and floor,
    the EV target step's place, and the heat pump's mode signs."""

    def __init__(self, spec: AgentSpec, view: HorizonView, weights: ObjectiveWeights):
        H, t0 = view.length, view.t_start
        self.spec, self.view, self.weights = spec, view, weights
        self.load = spec.fixed_load[t0:t0 + H]
        if not spec.devices and all(v == 0.0 for v in self.load):
            raise DegenerateAgentError(
                f"agent {spec.id} has no devices and zero fixed load")
        states_now = view.device_states.get(spec.id, {})
        self.spans, self.steps, self.start, self.mode_signs = {}, {}, {}, {}
        self.end, self.floor, self.target = {}, {}, {}
        interval = dev.feasible_power_interval
        for d in spec.devices:
            kind = d.kind
            alphas = view.irradiance_frac if kind == dev.PV else (0.0,) * H
            spans = self.spans[kind] = [interval(d, t0 + k, alphas[k]) for k in range(H)]
            self.steps[kind] = tuple([
                0.0 if lo < 0.0 < hi else -1.0 if lo < 0.0 else 1.0 for lo, hi in spans])
            if kind == dev.PV:
                continue
            now = states_now.get(kind)
            start = self.start[kind] = d.initial_state if now is None else now
            if kind == dev.HEAT_PUMP:
                self.mode_signs[kind] = hp_mode_schedule(d, view, start)
                continue
            self._anchor_end(spec, d, start)
            if kind == dev.EV:
                k_star = d.target_step - t0
                self.target[kind] = k_star if 1 <= k_star <= H - 1 else None

    def _anchor_end(self, spec: AgentSpec, d, soc0: float) -> None:
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
            self.end[kind] = ("end_eq", k_end)
        else:
            self.floor[kind] = min(d.soc_init, reach)
            self.end[kind] = ("end_floor",)


class _Frame:
    """One declared window program: its layout, binaries and template.
    The template's program at any window it fits is that window's
    program."""

    def __init__(self, layout: _MpoLayout, template: QpTemplate):
        self.layout, self.template = layout, template
        self.binary_vars = tuple(i for z in layout.z.lists.values()
                                 for i in z if i is not None)


def _declare(win: _Window) -> _Frame:
    """A frame for the window: each device's model, with a slot wherever
    a number depends on the window. The first fixed read tells agents,
    weights, step lengths and horizons apart, so a frame's later reads
    name the same devices."""
    b = QpBuilder(win)
    spec, w, dt, H = b.fixed(lambda win: (win.spec, win.weights, win.view.dt_hours,
                                          win.view.length))
    lay = _MpoLayout(tuple(d.kind for d in spec.devices), H)
    for d in spec.devices:
        spans = _add_band(b, lay, d.kind, spec)
        if d.kind in (dev.BATTERY, dev.EV):
            _add_storage(b, lay, d, dt, w)
        elif d.kind == dev.HEAT_PUMP:
            _add_heat_pump(b, lay, d, dt, w)
        else:
            _add_pv(b, lay, spans, w)
    # PV self-consumption: pull PV + battery + EV injections toward zero
    util = [lay.P.lists[kk,] for kk in (dev.PV, dev.BATTERY, dev.EV)
            if kk in lay.kinds]
    if util:
        for k in range(H):
            b.add_square([(P[k], 1.0) for P in util], 0.0, w.utilization)
    # -P_total = -(sum_d P_d - fixed), the fixed load summed in step
    # order (Python 3.12's sum compensates)
    b.add_const(b.param(lambda win: [reduce(add, win.load, 0.0)])[0])
    return _Frame(lay, QpTemplate(b))


def build_mpo(spec: AgentSpec, view: HorizonView, weights: ObjectiveWeights,
              frame: Optional[_Frame] = None) -> MixedIntegerQp:
    """Assemble the agent's window problem as a mixed-integer QP.

    Variables per step and device: injection P, flexibility delta, a
    state for storage/thermal devices, and the P+/P-/z absolute-value
    split, z binary, where the step's power interval holds both signs.
    The returned problem carries its variable layout (as `.layout`) and
    the window's start states and heat-pump mode signs (`.start`,
    `.mode_signs`), so schedules can be read back from a solution, and
    its frame (`.frame`). A `frame` of an earlier window makes this
    window's program when it fits this window; otherwise this window
    declares a frame.
    """
    win = _Window(spec, view, weights)
    if frame is None or not frame.template.fits(win):
        frame = _declare(win)
    miqp = MixedIntegerQp(frame.template.program(win), frame.binary_vars)
    miqp.layout, miqp.frame = frame.layout, frame
    miqp.start, miqp.mode_signs = win.start, win.mode_signs
    return miqp


def _add_band(b: QpBuilder, lay: _MpoLayout, kind: str, spec: AgentSpec) -> list:
    """Each step's power interval [lo, hi] bounds P, and the envelope's
    limits must hold at P +- delta; flexibility and net injection are
    rewarded. Then the eps band on flexibility,
    eps_lo*|P| <= delta <= eps_hi*|P|, at each step k of class steps[k].
    Where the interval holds both signs (class 0.0), P = P+ - P- with a
    binary z gating the halves, P+ <= hi*z and P- <= -lo*(1 - z), which
    makes |P| = P+ + P- exact. Elsewhere the interval fixes P's sign s,
    |P| is s*P (P at lo = hi = 0), and there is no binary. PV's upper
    ends follow the irradiance forecast, so they are slots."""
    if kind == dev.PV:
        spans = list(zip(b.fixed(lambda win: [lo for lo, _ in win.spans[kind]]),
                         b.param(lambda win: [hi for _, hi in win.spans[kind]])))
    else:
        spans = b.fixed(lambda win: win.spans[kind])
    steps = b.fixed(lambda win: win.steps[kind])
    P, D = lay.P.new(kind), lay.delta.new(kind)
    env_hi, env_lo = lay.le.new(kind, "env_hi"), lay.le.new(kind, "env_lo")
    for k, (lo, hi) in enumerate(spans):
        P[k] = b.add_var(lo, hi)
        D[k] = b.add_var(0.0, math.inf)
        env_hi[k] = b.add_le([(P[k], 1.0), (D[k], 1.0)], hi)
        env_lo[k] = b.add_ge([(P[k], 1.0), (D[k], -1.0)], lo)
        b.add_linear(D[k], -1.0)        # reward flexibility
        b.add_linear(P[k], -1.0)        # reward net injection
    if 0.0 in steps:
        plus, minus, zs = lay.plus.new(kind), lay.minus.new(kind), lay.z.new(kind)
        split = lay.eq.new(kind, "split")
        gate_plus = lay.le.new(kind, "gate_plus")
        gate_minus = lay.le.new(kind, "gate_minus")
    eps_lo, eps_hi = lay.le.new(kind, "eps_lo"), lay.le.new(kind, "eps_hi")
    for k, s in enumerate(steps):
        dl = D[k]
        if s == 0.0:
            lo, hi = spans[k]
            pp = plus[k] = b.add_var(0.0, hi)
            pm = minus[k] = b.add_var(0.0, -lo)
            z = zs[k] = b.add_var(0.0, 1.0)
            split[k] = b.add_eq([(P[k], 1.0), (pp, -1.0), (pm, 1.0)], 0.0)
            gate_plus[k] = b.add_le([(pp, 1.0), (z, -hi)], 0.0)
            gate_minus[k] = b.add_le([(pm, 1.0), (z, -lo)], -lo)
            abs_p = [(pp, 1.0), (pm, 1.0)]
        else:
            abs_p = [(P[k], s)]
        eps_lo[k] = b.add_le(
            [(v, spec.eps_lo * s) for v, s in abs_p] + [(dl, -1.0)], 0.0)
        eps_hi[k] = b.add_le(
            [(dl, 1.0)] + [(v, -spec.eps_hi * s) for v, s in abs_p], 0.0)
    return spans


def _add_storage(b: QpBuilder, lay: _MpoLayout, d, dt: float,
                 w: ObjectiveWeights) -> None:
    kind, H = d.kind, lay.H
    keep, coeff = _storage_rates(d, dt)
    # the start SOC enters step 0's side and the robustness side
    side0, robust = b.param(lambda win: [keep * win.start[kind],
                                         d.soc_min - keep * win.start[kind]])
    P, D, S = lay.P.lists[kind,], lay.delta.lists[kind,], lay.state.new(kind)
    for k in range(1, H + 1):
        S[k] = b.add_var(d.soc_min, d.soc_max)
    # SOC recurrence soc' = keep*soc - coeff*P
    soc = lay.eq.new(kind, "soc")
    soc[0] = b.add_eq([(S[1], 1.0), (P[0], coeff)], side0)
    for k in range(1, H):
        soc[k] = b.add_eq(
            [(S[k + 1], 1.0), (S[k], -keep), (P[k], coeff)], 0.0)
    # the window end (`_Window._anchor_end`): an equality at the
    # simulation's end step, or a floor on the last state
    end = b.fixed(lambda win: win.end[kind])
    if end[0] == "end_eq":
        lay.eq.lists[kind, "end_eq"] = [b.add_eq([(S[end[1]], 1.0)], d.soc_init)]
    else:
        (floor,) = b.param(lambda win: [win.floor[kind]])
        lay.le.lists[kind, "end_floor"] = [b.add_ge([(S[H], 1.0)], floor)]
    # executed-step robustness: an upward settlement deviation within
    # delta must keep the next state feasible
    lay.le.lists[kind, "robust"] = [b.add_ge(
        [(P[0], -coeff), (D[0], -coeff)], robust)]
    # cycling: penalize step-to-step power changes
    for k in range(H - 1):
        b.add_square([(P[k + 1], 1.0), (P[k], -1.0)], 0.0, w.alpha_cyc)
    target = b.fixed(lambda win: win.target.get(kind))
    if target is not None:
        # charge target at its step within the window
        b.add_square([(S[target], 1.0)], -d.soc_target, w.xi_ev)
    elif kind == dev.EV:
        # at the window's first step the start state is fixed; 0 at others
        (first,) = b.param(lambda win: [
            w.xi_ev * (win.start[kind] - d.soc_target) ** 2
            if d.target_step == win.view.t_start else 0.0])
        b.add_const(first)


def _add_heat_pump(b: QpBuilder, lay: _MpoLayout, d, dt: float,
                   w: ObjectiveWeights) -> None:
    kind, H = dev.HEAT_PUMP, lay.H
    th = d.theta(dt)
    g = 1.0 - th

    def numbers(win):
        """Each temperature row's side, the robustness side at the
        executed step's mode, and the start temperature's comfort."""
        t, t_out = win.start[kind], win.view.outdoor_temp
        robust = (d.t_max - th * t - g * t_out[0] if win.mode_signs[kind][0] > 0
                  else -(d.t_min - th * t - g * t_out[0]))
        return [th * t + g * t_out[0], *[g * x for x in t_out[1:]], robust,
                w.xi_ac * (t - d.t_setpoint) ** 2]

    coef = b.param(lambda win: [-g * s * d.rho for s in win.mode_signs[kind]])
    side = b.param(numbers)
    P, D, S = lay.P.lists[kind,], lay.delta.lists[kind,], lay.state.new(kind)
    for k in range(1, H + 1):
        S[k] = b.add_var(d.t_min, d.t_max)
    # T' = th*T + (1-th)*(T_out + sign*rho*P), with each step's mode sign
    temp = lay.eq.new(kind, "temp")
    temp[0] = b.add_eq([(S[1], 1.0), (P[0], coef[0])], side[0])
    for k in range(1, H):
        temp[k] = b.add_eq([(S[k + 1], 1.0), (S[k], -th), (P[k], coef[k])], side[k])
    # executed-step robustness under upward deviation (P rises toward 0):
    # cooling warms the room toward t_max, heating cools it toward t_min
    lay.le.lists[kind, "robust"] = [b.add_le(
        [(P[0], g * d.rho), (D[0], g * d.rho)], side[H])]
    # comfort over the window's steps; step 0 is the fixed start
    b.add_const(side[H + 1])
    for k in range(1, H):
        b.add_square([(S[k], 1.0)], -d.t_setpoint, w.xi_ac)


def _add_pv(b: QpBuilder, lay: _MpoLayout, spans: list, w: ObjectiveWeights) -> None:
    for i, (_, avail) in zip(lay.P.lists[dev.PV,], spans):
        # curtailment: pull P toward the available output
        b.add_square([(i, -1.0)], avail, w.xi_pv)


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
    builds through the frame when its window fits it. At the clearing
    that solved it, another agent with the same device kinds may start
    from its solution as it is, but never builds through its frame."""

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
    the root relaxation, and its frame builds this window's program when
    it fits this window. A `prev` of this window's step is another
    agent's root at this clearing: its solution starts the root as it
    is, and this window declares its own frame, so no agent builds
    through another's. A root of another shape starts nothing."""
    t0 = view.t_start
    peer = prev is not None and prev.t_start == t0
    miqp = build_mpo(spec, view, weights,
                     None if prev is None or peer else prev.frame)
    if peer:
        miqp.root_warm = prev.solution
    elif prev is not None and prev.t_start == t0 - 1:
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
