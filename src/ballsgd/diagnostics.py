"""Trajectory-level diagnostics: paired escape trials with common random
numbers, escape frequency as a ``Frequency``, quadratic-model subspace
decomposition with the auxiliary gradient-descent trajectory, and the
matrix-power norm bound.

Every trajectory here is one episode of the optimizer's control loop, and
all the trajectories of one call step together as the rows of one batch.
The escape checks step the given ``algorithm``: ball-sgd takes plain steps
on the base noise, and noise-scheduled also injects a Gaussian scaled by
the problem's declared sigma every ko in-episode steps, from step 0 on.
Coupling semantics: noise is addressed by seed and step (``ballsgd.rng``)
and both paired trajectories run with one seed, so they see the same
additive noise vector at every step.  For oracles of the form
gradient-plus-additive-noise this is exactly the shared-sample
construction; for general stochastic objectives it is an approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certify import dense_hessian, min_curvature
from .errors import InvalidArgument
from .hyperparams import Schedule
from .noise import Frequency, NoiseSampler
from .optimizer import _Batch, _seed_list
from .problems import Objective

_EIG_ZERO_TOL = 1e-12


def _exit_steps(obj: Objective, noise: NoiseSampler, schedule: Schedule,
                anchor: np.ndarray, starts, seeds, limit: int,
                algorithm: str) -> list:
    """First step at which each episode of ``algorithm`` from
    ``starts[i]``, driven by the noise streams of ``seeds[i]``, leaves the
    B-ball around ``anchor``: math.inf when it stays inside for ``limit``
    steps.  Every episode runs in one batch, whose exit rule alone decides:
    a start outside the ball exits at step 0."""
    traces = _Batch(obj, noise, schedule, algorithm, seeds, starts, limit,
                    anchor, episode_cap=1).run()
    return [e.length if e.exited else math.inf
            for e in (trace.episodes[0] for trace in traces)]


@dataclass(frozen=True)
class CoupledOutcome:
    """Exit steps of two trajectories driven by one noise stream: math.inf
    marks no exit within ko."""
    exit_a: float
    exit_b: float

    @property
    def both_stuck(self) -> bool:
        return self.exit_a == self.exit_b == math.inf


def coupled_escape_trial(obj: Objective, noise: NoiseSampler,
                         schedule: Schedule, u: np.ndarray, q: float,
                         direction: np.ndarray, seeds,
                         algorithm: str = "ball-sgd") -> list:
    """Run the pair (u, u + q*direction) of ``algorithm`` with shared noise
    streams, once for each of ``seeds`` (an int or a sequence), and record
    each first-exit step from the B-ball around u, capped at ko.  Every
    pair runs in one batch; returns the CoupledOutcomes in seed order.
    """
    seeds, _ = _seed_list(seeds)
    u = np.asarray(u, dtype=float)
    direction = np.asarray(direction, dtype=float)
    if not u.shape == direction.shape == (obj.dim,):
        raise InvalidArgument("u and direction dimensions must match the "
                              "objective")
    if not (np.isfinite(u).all() and math.isfinite(q)):
        raise InvalidArgument("u and q must be finite")
    # NaN-safe: a NaN norm is not within the tolerance
    if not abs(np.linalg.norm(direction) - 1.0) <= 1e-9:
        raise InvalidArgument("direction must be a unit vector")

    steps = _exit_steps(obj, noise, schedule, u,
                        [u, u + q * direction] * len(seeds),
                        [s for s in seeds for _ in range(2)], schedule.ko,
                        algorithm)
    return [CoupledOutcome(exit_a=a, exit_b=b)
            for a, b in zip(steps[0::2], steps[1::2])]


def escape_frequency(obj: Objective, noise: NoiseSampler, schedule: Schedule,
                     x0: np.ndarray, seeds,
                     algorithm: str = "ball-sgd") -> Frequency:
    """The episodes of ``algorithm`` from x0, one per seed, whose first exit
    from the B-ball happens within k0 steps.

    Requires a finite x0 with lambda_min <= -delta2 there, proven by
    ``min_curvature``'s estimate: value + residual <= -delta2.
    """
    seeds, _ = _seed_list(seeds)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (obj.dim,):
        raise InvalidArgument("start point dimension must match the "
                              "objective")
    if not np.isfinite(x0).all():
        raise InvalidArgument("x0 must be finite")
    est = min_curvature(obj, x0)
    lam = est.value + est.residual  # an upper bound on lambda_min
    if not lam <= -schedule.delta2:
        raise InvalidArgument(
            f"lambda_min at x0 is {lam:g} > -delta2 = {-schedule.delta2:g}")
    steps = _exit_steps(obj, noise, schedule, x0, [x0] * len(seeds), seeds,
                        schedule.k0, algorithm)
    return Frequency(sum(math.isfinite(step) for step in steps), len(seeds))


def split_subspaces(obj: Objective, x0: np.ndarray):
    """Split the Hessian at x0 into its positive-curvature part and the
    rest: returns (P_S, P_Sperp, H_S, H_Sperp) with H = H_S + H_Sperp.

    Eigenvalues within 1e-12 of zero go to the complement subspace.  The
    Hessian is ``dense_hessian``'s, so above its dimension limit this
    raises ``InvalidArgument``.
    """
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


def quadratic_model_run(obj: Objective, x0: np.ndarray, runs) -> list:
    """Reconstruct the quadratic-model decomposition along the first
    episode of each of ``runs`` (a sequence of RunResults), whose iterates
    must be stored, and evaluate the difference-iterate bound
    ||z^K|| <= 3B/32.  Returns the DecompositionTraces in run order.

    The noise-free part of the model is built once per call: the subspace
    split, g0, and the auxiliary y, run once for each step size and
    bitwise start u[0] to the longest first episode that shares them.
    Each run's y is a copy of the prefix it needs, the very values that
    its own recursion gives.
    """
    runs = list(runs)
    if not runs:
        raise InvalidArgument("run sequence must not be empty")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (obj.dim,):
        raise InvalidArgument("x0 dimension must match the objective")
    records = [r.trace.episodes[0] for r in runs]
    if any(record.iterates is None for record in records):
        raise InvalidArgument("run did not store iterates")
    if any(np.linalg.norm(record.anchor - x0) > 1e-12 for record in records):
        raise InvalidArgument("x0 must be the episode anchor")

    p_s, p_sperp, h_s, h_sperp = split_subspaces(obj, x0)
    g0 = obj.gradient(x0)
    gs0 = p_s @ g0
    gsp0 = p_sperp @ g0

    def model(rows, g, h):
        # each row's g.r + r.(h r) / 2
        return rows @ g + 0.5 * np.einsum("ij,ij->i", rows, rows @ h.T)

    parts = []
    for record in records:
        diffs = np.asarray(record.iterates, dtype=float) - x0
        parts.append((diffs @ p_s.T, diffs @ p_sperp.T))
    # one y for each (eta, u[0]), run to the longest episode that has them
    keys = [(r.schedule.eta, u[0].tobytes())
            for r, (u, _) in zip(runs, parts)]
    lengths = {}
    for key, (u, _) in zip(keys, parts):
        lengths[key] = max(lengths.get(key, 0), len(u))
    ys = {}
    for (eta, start), length in lengths.items():
        y = ys[eta, start] = np.empty((length, obj.dim))
        y[0] = np.frombuffer(start)
        for k in range(length - 1):
            y[k + 1] = y[k] - eta * (gs0 + h_s @ y[k])

    traces = []
    for r, key, (u, v) in zip(runs, keys, parts):
        y = ys[key][:len(u)].copy()
        z = u - y
        traces.append(DecompositionTrace(
            u=u, v=v, y=y, z=z,
            g_s=model(u, gs0, h_s), g_sperp=model(v, gsp0, h_sperp),
            p_s=p_s, p_sperp=p_sperp, h_s=h_s, h_sperp=h_sperp,
            z_final_norm=float(np.linalg.norm(z[-1])),
            z_bound=3.0 * r.schedule.ball_radius / 32.0))
    return traces


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
