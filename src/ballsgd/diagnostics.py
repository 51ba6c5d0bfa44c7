"""Trajectory-level diagnostics: paired escape trials with common random
numbers, escape-frequency estimation, quadratic-model subspace
decomposition with the auxiliary gradient-descent trajectory, and the
matrix-power norm bound.

Every trajectory here is one episode of the optimizer's control loop.
Coupling semantics: both paired trajectories read the same noise stream, so
they see the same additive noise vector at every step.  For oracles of the
form gradient-plus-additive-noise this is exactly the shared-sample
construction; for general stochastic objectives it is an approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certify import dense_hessian, dense_min_eigenvalue
from .errors import (DimensionTooLarge, InvalidArgument, MissingIterates,
                     PreconditionViolated)
from .hyperparams import Schedule
from .noise import NoiseSampler, hoeffding_half_width
from .optimizer import RunResult, _NoiseFeed, _episode
from .problems import Objective

_EIG_ZERO_TOL = 1e-12
_SPLIT_DIM_LIMIT = 200


def _exit_step(obj: Objective, noise: NoiseSampler, schedule: Schedule,
               anchor: np.ndarray, start: np.ndarray, seed: int,
               limit: int) -> float:
    """First step at which one episode from ``start``, driven by the noise
    stream of ``seed``, leaves the B-ball around ``anchor``: 0 when it
    starts outside, math.inf when it stays inside for ``limit`` steps."""
    ball = schedule.ball_radius
    if np.linalg.norm(start - anchor) > ball:
        return 0
    episode = _episode(obj, _NoiseFeed(noise.reseeded(seed)), schedule.eta,
                       ball, anchor, start, limit)
    return episode.steps if episode.exited else math.inf


@dataclass(frozen=True)
class CoupledOutcome:
    """Exit steps of two trajectories driven by one noise stream.

    Exit steps are capped reporting: math.inf marks no exit within ko.
    """
    exit_a: float
    exit_b: float
    ko: int

    @property
    def both_stuck(self) -> bool:
        return self.exit_a > self.ko and self.exit_b > self.ko


def coupled_escape_trial(obj: Objective, noise: NoiseSampler,
                         schedule: Schedule, u: np.ndarray, q: float,
                         direction: np.ndarray, seed: int,
                         x0: np.ndarray | None = None) -> CoupledOutcome:
    """Run the pair (u, u + q*direction) with a shared noise stream and
    record each first-exit step from the B-ball around x0 (default: u),
    capped at ko."""
    u = np.asarray(u, dtype=float)
    direction = np.asarray(direction, dtype=float)
    if abs(np.linalg.norm(direction) - 1.0) > 1e-9:
        raise InvalidArgument("direction must be a unit vector")
    x0 = u.copy() if x0 is None else np.asarray(x0, dtype=float)
    ball = schedule.ball_radius
    if np.linalg.norm(u - x0) > ball:
        raise InvalidArgument("u must start inside the B-ball around x0")

    ko = schedule.ko
    return CoupledOutcome(
        exit_a=_exit_step(obj, noise, schedule, x0, u, seed, ko),
        exit_b=_exit_step(obj, noise, schedule, x0, u + q * direction, seed,
                          ko),
        ko=ko)


@dataclass(frozen=True)
class FrequencyReport:
    n: int
    frequency: float
    half_width: float


def escape_frequency(obj: Objective, noise: NoiseSampler, schedule: Schedule,
                     x0: np.ndarray, n_seeds: int,
                     base_seed: int = 0) -> FrequencyReport:
    """Fraction of independent episodes from x0 whose first exit from the
    B-ball happens within k0 steps, with a 99% Hoeffding half-width.

    Requires negative curvature at least delta2 in magnitude at x0.
    """
    x0 = np.asarray(x0, dtype=float)
    lam = dense_min_eigenvalue(obj, x0)
    if not lam <= -schedule.delta2:
        raise PreconditionViolated(
            f"lambda_min at x0 is {lam:g} > -delta2 = {-schedule.delta2:g}")
    exits = sum(math.isfinite(_exit_step(obj, noise, schedule, x0, x0,
                                         base_seed + i, schedule.k0))
                for i in range(n_seeds))
    return FrequencyReport(n=n_seeds, frequency=exits / n_seeds,
                           half_width=hoeffding_half_width(n_seeds))


def split_subspaces(obj: Objective, x0: np.ndarray):
    """Split the Hessian at x0 into its positive-curvature part and the
    rest: returns (P_S, P_Sperp, H_S, H_Sperp) with H = H_S + H_Sperp.

    Eigenvalues within 1e-12 of zero go to the complement subspace.
    """
    if obj.dim > _SPLIT_DIM_LIMIT:
        raise DimensionTooLarge(
            f"dense split limited to dim <= {_SPLIT_DIM_LIMIT}")
    H = dense_hessian(obj, np.asarray(x0, dtype=float))
    eigvals, V = np.linalg.eigh(H)
    positive = eigvals > _EIG_ZERO_TOL
    Vp = V[:, positive]
    Vn = V[:, ~positive]
    p_s = Vp @ Vp.T
    p_sperp = Vn @ Vn.T
    h_s = Vp @ np.diag(eigvals[positive]) @ Vp.T
    h_sperp = Vn @ np.diag(eigvals[~positive]) @ Vn.T
    return p_s, p_sperp, h_s, h_sperp


@dataclass
class DecompositionTrace:
    """Per-step subspace decomposition of one stored episode.

    u[k], v[k] are the projections of x^k - x0 onto the positive-curvature
    subspace and its complement; y[k] is the deterministic auxiliary
    gradient-descent trajectory on the convex quadratic model; z = u - y.
    """
    u: np.ndarray
    v: np.ndarray
    y: np.ndarray
    z: np.ndarray
    g_s: np.ndarray
    g_sperp: np.ndarray
    p_s: np.ndarray
    p_sperp: np.ndarray
    h_s: np.ndarray
    h_sperp: np.ndarray
    z_final_norm: float
    z_bound: float

    @property
    def z_bound_ok(self) -> bool:
        return self.z_final_norm <= self.z_bound


def quadratic_model_run(obj: Objective, x0: np.ndarray, run: RunResult,
                        episode: int = 0) -> DecompositionTrace:
    """Reconstruct the quadratic-model decomposition along one stored
    episode and evaluate the difference-iterate bound ||z^K|| <= 3B/32."""
    if episode >= len(run.trace.episodes):
        raise InvalidArgument("episode index out of range")
    record = run.trace.episodes[episode]
    if record.iterates is None or record.noises is None:
        raise MissingIterates("run did not store iterates/noises")
    x0 = np.asarray(x0, dtype=float)
    if np.linalg.norm(record.anchor - x0) > 1e-12:
        raise InvalidArgument("x0 must be the episode anchor")

    p_s, p_sperp, h_s, h_sperp = split_subspaces(obj, x0)
    g0 = obj.gradient(x0)
    gs0 = p_s @ g0
    gsp0 = p_sperp @ g0
    eta = run.schedule.eta

    def g_s_val(uvec):
        return float(gs0 @ uvec + 0.5 * uvec @ (h_s @ uvec))

    def g_sperp_val(vvec):
        return float(gsp0 @ vvec + 0.5 * vvec @ (h_sperp @ vvec))

    xs = np.asarray(record.iterates, dtype=float)
    diffs = xs - x0
    u = diffs @ p_s.T
    v = diffs @ p_sperp.T

    y = np.empty_like(u)
    y[0] = u[0]
    for k in range(len(y) - 1):
        y[k + 1] = y[k] - eta * (gs0 + h_s @ y[k])
    z = u - y
    ball = run.schedule.ball_radius
    return DecompositionTrace(
        u=u, v=v, y=y, z=z,
        g_s=np.array([g_s_val(row) for row in u]),
        g_sperp=np.array([g_sperp_val(row) for row in v]),
        p_s=p_s, p_sperp=p_sperp, h_s=h_s, h_sperp=h_sperp,
        z_final_norm=float(np.linalg.norm(z[-1])),
        z_bound=3.0 * ball / 32.0)


def matrix_power_bound_check(A: np.ndarray, a: float, i: int, j: int):
    """Spectral-norm bound ||(I-aA)^i A (I-aA)^j|| <= 1/(a(i+j+1)) for PSD
    A and 0 < a <= 1/||A||.  Returns (lhs, rhs, pass)."""
    A = np.asarray(A, dtype=float)
    if np.linalg.norm(A - A.T) > 1e-10:
        raise InvalidArgument("A must be symmetric")
    if i < 0 or j < 0:
        raise InvalidArgument("i, j must be nonnegative integers")
    eigs = np.linalg.eigvalsh(A)
    if eigs.size and eigs[0] < -1e-10:
        raise InvalidArgument("A must be positive semidefinite")
    norm = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    if a <= 0 or (norm > 0 and a > 1.0 / norm):
        raise InvalidArgument("need 0 < a <= 1/||A||")
    lhs = float(np.max(np.abs(eigs * (1.0 - a * eigs) ** (i + j)))) \
        if eigs.size else 0.0
    rhs = 1.0 / (a * (i + j + 1))
    return lhs, rhs, lhs <= rhs * (1.0 + 1e-12)
