"""Derivation and validation of the full hyper-parameter schedule.

The schedule couples the step size, the ball radius, and the per-episode step
budget through logarithmic factors, so the step size is obtained by a
fixed-point iteration: start from the closed-form initial guess (the log(d)
recipe), then alternately recompute the derived constants and tighten the
step size to its upper bound until the relative change is below 1e-12.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

from .errors import InfeasibleSchedule, InvalidArgument, NonConvergent

_LOG_INV_07 = math.log(1.0 / 0.7)
_FIXED_POINT_TOL = 1e-12
_FIXED_POINT_MAX_ITERS = 200


def _json_safe(value):
    """value with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value


def _json_line(value) -> str:
    """value as the package's one JSON form: strict, keys sorted, on one
    line, a non-finite float as null.  A value of a type the stdlib encoder
    cannot write (a numpy array, a numpy integer) raises TypeError."""
    return json.dumps(_json_safe(value), sort_keys=True, allow_nan=False)


@dataclass(frozen=True)
class ProblemConstants:
    """Declared smoothness/noise constants of an objective.

    L is the gradient Lipschitz constant, rho the Hessian Lipschitz
    constant, sigma the almost-sure noise bound, delta_f the optimality gap
    f(x_init) - f*, and dim the ambient dimension.
    """

    L: float
    rho: float
    sigma: float
    delta_f: float
    dim: int

    def __post_init__(self):
        if self.L < 0 or self.rho < 0 or self.sigma < 0:
            raise InvalidArgument("L, rho, sigma must be nonnegative")
        if self.delta_f < 0:
            raise InvalidArgument("delta_f must be nonnegative")
        if self.dim < 1:
            raise InvalidArgument("dim must be a positive integer")


@dataclass(frozen=True)
class Schedule:
    """Complete run schedule.

    ``theoretical`` is True when every field was derived from (epsilon, p);
    manual schedules carry user-chosen eta/ball_radius/k0/ko and are only
    checked, not derived.
    """

    epsilon: float
    p: float
    c1: float
    delta: float
    delta2: float
    ball_radius: float
    k0: int
    ko: int
    eta: float
    t1: int
    t0: int
    theoretical: bool = True

    @classmethod
    def from_json(cls, text: str) -> "Schedule":
        fields = json.loads(text)
        return cls(**{key: math.nan if value is None else value
                      for key, value in fields.items()})

    def as_table(self) -> str:
        rows = [(k, repr(v)) for k, v in asdict(self).items()]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


def round_count(p: float) -> int:
    """Number of escape rounds folded into the schedule constant."""
    if not 0.0 < p < 1.0:
        raise InvalidArgument("p must lie in (0, 1)")
    return math.floor(math.log(3.0 / p) / _LOG_INV_07) + 1


def _c1(p: float, dim: int, eta: float) -> float:
    return 2.0 * round_count(p) * math.log(24.0 * math.sqrt(dim) / eta)


def _eta_bound(consts: ProblemConstants, delta: float, c1: float,
               k0: int, p: float) -> float:
    ball = delta / (consts.rho * c1)
    s2 = max(consts.sigma ** 2, 1.0)
    return (ball ** 2 * delta / (64.0 * s2 * c1 * math.log(48.0 * k0 / p))
            / (3.0 + math.log(k0)))


def _initial_eta(consts: ProblemConstants, delta: float, p: float) -> float:
    # log(d) recipe: same closed form with log(d) standing in for the
    # eta-dependent logarithm.  Initializer only, never the final value.
    logd = math.log(max(consts.dim, 2))
    n = round_count(p)
    ball = delta / (consts.rho * 2.0 * n * logd)
    s2 = max(consts.sigma ** 2, 1.0)
    eta_t = ball ** 2 * delta / (512.0 * s2 * math.log(48.0 / p) * n * logd)
    return eta_t * math.log(1.0 / eta_t) ** -3


def coupling_offset(sigma: float, eta: float, dim: int) -> float:
    """Start distance q0 = sigma eta / (4 sqrt(d)) of a coupled pair."""
    return sigma * eta / (4.0 * math.sqrt(dim))


def exit_round_length(eta: float, delta2: float, dim: int,
                      sigma: float = 1.0) -> int:
    """Deterministic escape-round length; dominates the coupling lower bound."""
    if eta <= 0 or delta2 <= 0 or dim < 1:
        raise InvalidArgument("eta, delta2 must be positive; dim >= 1")
    if eta >= 24.0 * math.sqrt(dim):
        raise InvalidArgument("eta must be below 24*sqrt(dim)")
    ko = math.ceil(2.0 * math.log(24.0 * math.sqrt(dim) / eta) / (eta * delta2))
    if eta * delta2 <= 2.0 and sigma >= 1.0:
        # domination over the coupling lower bound needs 2 log(1+x) >= x
        # for x = eta*delta2, which holds up to x ~ 2.51; schedules live
        # far inside that regime
        q0 = coupling_offset(sigma, eta, dim)
        lower = math.ceil(math.log(6.0 / q0) / math.log1p(eta * delta2))
        if ko < lower:
            raise InfeasibleSchedule(
                f"escape round length {ko} is below the coupling lower "
                f"bound {lower}")
    return ko


def budget(delta_f: float, eta: float, k0: int, ball_radius: float):
    """Episode budget t1 and total step budget t0 = t1 * k0."""
    if eta <= 0 or k0 < 1 or ball_radius <= 0:
        raise InvalidArgument("eta, k0, ball_radius must be positive")
    if delta_f < 0:
        raise InvalidArgument("delta_f must be nonnegative")
    t1 = math.ceil(7.0 * delta_f * eta * k0 / ball_radius ** 2) + 1
    return t1, t1 * k0


def _check_target(epsilon: float, p: float) -> None:
    """Reject an accuracy epsilon that is not finite and positive, or a
    failure probability p outside (0, 1); the comparisons reject a NaN."""
    if not 0.0 < epsilon < math.inf:
        raise InvalidArgument("epsilon must be positive and finite")
    if not 0.0 < p < 1.0:
        raise InvalidArgument("p must lie in (0, 1)")


def _ball_cap(consts: ProblemConstants) -> float:
    """The largest admissible ball radius, min(1, sigma/L, 1/L)."""
    if consts.L > 0:
        return min(1.0, consts.sigma / consts.L, 1.0 / consts.L)
    return 1.0


def derive_schedule(consts: ProblemConstants, epsilon: float,
                    p: float) -> Schedule:
    """Derive the full schedule for target accuracy epsilon and failure
    probability p.  Deterministic; raises InfeasibleSchedule when the
    constraints cannot all hold."""
    _check_target(epsilon, p)
    if consts.rho <= 0:
        raise InfeasibleSchedule("rho must be positive to derive a schedule")

    delta = math.sqrt(consts.rho * epsilon)
    if delta > 1.0:
        raise InfeasibleSchedule(
            f"delta = sqrt(rho*epsilon) = {delta:g} exceeds 1")
    delta2 = 16.0 * delta

    eta = _initial_eta(consts, delta, p)
    converged = False
    for _ in range(_FIXED_POINT_MAX_ITERS):
        c1 = _c1(p, consts.dim, eta)
        k0 = math.ceil(c1 / (eta * delta2))
        eta_new = _eta_bound(consts, delta, c1, k0, p)
        if consts.L > 0:
            eta_new = min(eta_new, 1.0 / (16.0 * consts.L))
        if abs(eta_new - eta) <= _FIXED_POINT_TOL * eta:
            eta = eta_new
            converged = True
            break
        eta = eta_new
    if not converged:
        raise NonConvergent("schedule fixed point did not converge")

    # Shave a hair off the fixed point so the returned eta satisfies its own
    # bound strictly after the final recompute (the bound shrinks by ~1e-7
    # relative when eta shrinks by 1e-6 relative, so this is safe).
    eta *= 1.0 - 1e-6
    c1 = _c1(p, consts.dim, eta)
    ball = delta / (consts.rho * c1)
    cap = _ball_cap(consts)
    if ball > cap:
        raise InfeasibleSchedule(
            f"ball radius {ball:g} exceeds min(1, sigma/L, 1/L) = {cap:g}")
    k0 = math.ceil(c1 / (eta * delta2))
    ko = exit_round_length(eta, delta2, consts.dim, consts.sigma or 1.0)
    t1, t0 = budget(consts.delta_f, eta, k0, ball)
    return Schedule(epsilon=epsilon, p=p, c1=c1, delta=delta, delta2=delta2,
                    ball_radius=ball, k0=k0, ko=ko, eta=eta, t1=t1, t0=t0,
                    theoretical=True)


def manual_schedule(consts: ProblemConstants, eta: float, ball_radius: float,
                    k0: int, ko: int, epsilon: float,
                    p: float = 0.1) -> Schedule:
    """User-supplied schedule for desk-scale experiments.

    eta and ball_radius must be finite and positive, and k0 and ko ints
    >= 1 (not bools).  The target accuracy epsilon sets delta =
    sqrt(rho * epsilon), and so the certificate's thresholds; it must be
    positive and finite, and p must lie in (0, 1), as for derive_schedule.
    """
    # the comparisons reject a NaN; type() rejects a bool, which is an int
    if not (0.0 < eta < math.inf and 0.0 < ball_radius < math.inf):
        raise InvalidArgument("eta, ball_radius must be positive and finite")
    if not all(type(n) is int and n >= 1 for n in (k0, ko)):
        raise InvalidArgument("k0 and ko must be integers >= 1")
    _check_target(epsilon, p)
    delta = math.sqrt(consts.rho * epsilon)
    delta2 = 16.0 * delta
    c1 = delta / (consts.rho * ball_radius) if consts.rho > 0 else float("nan")
    t1, t0 = budget(consts.delta_f, eta, k0, ball_radius)
    return Schedule(epsilon=epsilon, p=p, c1=c1, delta=delta, delta2=delta2,
                    ball_radius=ball_radius, k0=k0, ko=ko, eta=eta,
                    t1=t1, t0=t0, theoretical=False)


@dataclass(frozen=True)
class ConstraintVerdict:
    name: str
    passed: bool
    slack: float


def validate_schedule(s: Schedule, consts: ProblemConstants):
    """One verdict per schedule constraint; slack > 0 means satisfied with
    margin, negative slack quantifies the violation."""
    verdicts = []

    def check(name, bound, value):
        # constraint: value <= bound
        verdicts.append(ConstraintVerdict(name, value <= bound, bound - value))

    check("delta-cap", 1.0, s.delta)
    if consts.rho > 0:
        check("delta-consistency", 1e-9,
              abs(s.delta - math.sqrt(consts.rho * s.epsilon)))
    check("delta2-consistency", 1e-9, abs(s.delta2 - 16.0 * s.delta))
    check("ball-radius cap", _ball_cap(consts), s.ball_radius)
    if consts.rho > 0 and math.isfinite(s.c1):
        check("ball-radius-consistency", 1e-9 * s.ball_radius,
              abs(s.ball_radius - s.delta / (consts.rho * s.c1)))
    check("eta-L", 1.0 / 16.0, s.eta * consts.L)
    if math.isfinite(s.c1) and s.c1 > 0:
        check("eta-bound",
              _eta_bound(consts, s.delta, s.c1, s.k0, s.p), s.eta)
        check("k0-consistency", 1.0,
              abs(s.k0 - math.ceil(s.c1 / (s.eta * s.delta2))))
    # first-step martingale term must stay well inside the ball
    conc = 2.0 * s.eta * consts.sigma * math.sqrt(
        s.k0 * math.log(48.0 * s.k0 / s.p))
    check("in-ball concentration", s.ball_radius / 16.0, conc)
    check("budget-consistency", 0, abs(s.t0 - s.t1 * s.k0))
    return verdicts
