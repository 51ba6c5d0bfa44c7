"""Second-order stationarity certification.

The minimum Hessian eigenvalue is estimated matrix-free by subspace (block
power) iteration on the shifted operator c*I - H, using only
Hessian-vector products; a small block with Rayleigh-Ritz extraction keeps
near-degenerate bottom clusters from stalling the iteration.  A dense
cyclic-Jacobi eigensolver serves as an independent oracle at small
dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLarge, InvalidArgument
from .hyperparams import Schedule
from .problems import Objective
from .rng import Rng

_DENSE_DIM_LIMIT = 200
_CERTIFY_DENSE_DIM = 50
_JACOBI_OFF_TOL = 1e-12
_JACOBI_MAX_SWEEPS = 100


@dataclass(frozen=True)
class EigEstimate:
    value: float
    residual: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class Certificate:
    grad_norm: float
    lambda_min: float
    grad_threshold: float
    eig_threshold: float
    grad_pass: bool
    eig_pass: bool
    eig_residual: float
    eig_converged: bool

    def to_dict(self) -> dict:
        return {"grad_norm": self.grad_norm, "lambda_min": self.lambda_min,
                "grad_threshold": self.grad_threshold,
                "eig_threshold": self.eig_threshold,
                "grad_pass": self.grad_pass, "eig_pass": self.eig_pass,
                "eig_residual": self.eig_residual,
                "eig_converged": self.eig_converged}

    @property
    def passed(self) -> bool:
        return self.grad_pass and self.eig_pass


def default_tolerance(L: float) -> float:
    return 1e-6 * max(1.0, L)


def default_max_iters(dim: int) -> int:
    # near-tied bottom eigenvalues need iterations proportional to the
    # spectral spread over the gap; generous cap, failures are reported
    return 2000 * dim + 100_000


def _spectral_radius_estimate(obj: Objective, x: np.ndarray,
                              seed: int) -> float:
    """Cheap dominant-|eigenvalue| estimate of the Hessian at x, used only
    to pick a well-conditioned shift."""
    v = Rng(seed ^ 0x5851F42D4C957F2D).unit_vector(obj.dim)
    radius = 0.0
    for _ in range(100):
        w = obj.hvp(x, v)
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            break
        radius = norm
        v = w / norm
    return radius


def min_eigenvalue(obj: Objective, x: np.ndarray, shift: float | None = None,
                   tol: float | None = None, max_iters: int | None = None,
                   seed: int = 0) -> EigEstimate:
    """Estimate lambda_min of the Hessian at x by shifted power iteration.

    ``shift`` must dominate lambda_max of the Hessian at x so that the top
    eigenvalue of shift*I - H maps back to lambda_min; by default it is
    set just above an estimate of the local spectral radius.
    Convergence is declared when the Rayleigh residual ||Mv - lam v|| drops
    below tol and the eigenvalue estimate has stopped drifting (a small
    residual alone can be reached inside a near-degenerate bottom cluster
    while the estimate is still rotating toward the true extreme);
    otherwise the best estimate is returned flagged.
    """
    L = obj.constants.L
    x = np.asarray(x, dtype=float)
    if shift is None:
        # shifting just above the local spectral radius keeps the relative
        # eigengap of the shifted operator workable (a shift as large as L
        # can be orders of magnitude above the local curvature and stall
        # the iteration)
        shift = 1.01 * _spectral_radius_estimate(obj, x, seed) + 1e-8
    if shift <= 0:
        raise InvalidArgument("shift must be positive")
    if tol is None:
        tol = default_tolerance(L)
    if tol <= 0:
        raise InvalidArgument("tol must be positive")
    if max_iters is None:
        max_iters = default_max_iters(obj.dim)

    block = min(4, obj.dim)
    rng = Rng(seed)
    V, _ = np.linalg.qr(rng.normal_rows(obj.dim, block))
    lam = 0.0
    residual = math.inf
    iterations = 0
    window = 100
    lam_checkpoint = -math.inf
    stable = False
    for iterations in range(1, max_iters + 1):
        W = shift * V - np.column_stack([obj.hvp(x, V[:, j])
                                         for j in range(block)])
        if not np.all(np.isfinite(W)):
            break
        # Rayleigh-Ritz on the current block; the top Ritz pair maps back
        # to lambda_min of the Hessian
        T = V.T @ W
        T = 0.5 * (T + T.T)
        ritz_vals, ritz_vecs = np.linalg.eigh(T)
        lam = float(ritz_vals[-1])
        y = V @ ritz_vecs[:, -1]
        my = shift * y - obj.hvp(x, y)
        residual = float(np.linalg.norm(my - lam * y))
        V, R = np.linalg.qr(W)
        if np.min(np.abs(np.diag(R))) < 1e-300:
            # block collapsed (operator of tiny rank); Ritz data still valid
            stable = True
            break
        if iterations % window == 0:
            stable = abs(lam - lam_checkpoint) <= 0.02 * tol
            lam_checkpoint = lam
            if stable and residual <= tol:
                break
    return EigEstimate(value=shift - lam, residual=residual,
                       iterations=iterations,
                       converged=stable and residual <= tol)


def jacobi_eigenvalues(A: np.ndarray, with_vectors: bool = False):
    """Eigen-decomposition of a symmetric matrix by cyclic Jacobi rotations.

    Rotates away off-diagonal entries sweep by sweep until the off-diagonal
    Frobenius norm falls below an absolute 1e-12 (with a relative floor at
    machine precision for badly scaled inputs).
    """
    A = np.array(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise InvalidArgument("matrix must be square")
    V = np.eye(n) if with_vectors else None
    scale = max(1.0, float(np.linalg.norm(A)))
    tol = max(_JACOBI_OFF_TOL, 1e-15 * scale)

    def off_norm():
        off = A - np.diag(np.diag(A))
        return float(np.linalg.norm(off))

    for _ in range(_JACOBI_MAX_SWEEPS):
        if off_norm() <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= tol / (n * n):
                    continue
                theta = 0.5 * math.atan2(2.0 * apq, A[q, q] - A[p, p])
                c = math.cos(theta)
                s = math.sin(theta)
                rot_p = c * A[:, p] - s * A[:, q]
                rot_q = s * A[:, p] + c * A[:, q]
                A[:, p], A[:, q] = rot_p, rot_q
                rot_p = c * A[p, :] - s * A[q, :]
                rot_q = s * A[p, :] + c * A[q, :]
                A[p, :], A[q, :] = rot_p, rot_q
                A[p, q] = A[q, p] = 0.0
                if with_vectors:
                    vp = c * V[:, p] - s * V[:, q]
                    vq = s * V[:, p] + c * V[:, q]
                    V[:, p], V[:, q] = vp, vq
    eigvals = np.diag(A).copy()
    order = np.argsort(eigvals)
    eigvals = eigvals[order]
    if with_vectors:
        return eigvals, V[:, order]
    return eigvals


def dense_hessian(obj: Objective, x: np.ndarray) -> np.ndarray:
    """Explicit symmetrized Hessian built column-by-column from HVPs."""
    if obj.dim > _DENSE_DIM_LIMIT:
        raise DimensionTooLarge(
            f"dense Hessian limited to dim <= {_DENSE_DIM_LIMIT}")
    x = np.asarray(x, dtype=float)
    H = np.empty((obj.dim, obj.dim))
    for i in range(obj.dim):
        e = np.zeros(obj.dim)
        e[i] = 1.0
        H[:, i] = obj.hvp(x, e)
    return 0.5 * (H + H.T)


def dense_min_eigenvalue(obj: Objective, x: np.ndarray) -> float:
    """Exact lambda_min of the Hessian at x via the dense Jacobi oracle."""
    return float(jacobi_eigenvalues(dense_hessian(obj, x))[0])


def certify(obj: Objective, x: np.ndarray, schedule: Schedule,
            seed: int = 0) -> Certificate:
    """Certificate that x is an approximate second-order stationary point
    at the schedule's thresholds: gradient norm against 18*rho*B^2 and
    estimated lambda_min against -17*delta minus the numerical residual."""
    x = np.asarray(x, dtype=float)
    rho = obj.constants.rho
    grad_norm = float(np.linalg.norm(obj.gradient(x)))
    grad_threshold = 18.0 * rho * schedule.ball_radius ** 2
    eig_threshold = -17.0 * schedule.delta

    if obj.dim <= _CERTIFY_DENSE_DIM:
        lam = dense_min_eigenvalue(obj, x)
        residual = 0.0
        converged = True
    else:
        est = min_eigenvalue(obj, x, seed=seed)
        lam = est.value
        residual = est.residual
        converged = est.converged

    return Certificate(
        grad_norm=grad_norm,
        lambda_min=lam,
        grad_threshold=grad_threshold,
        eig_threshold=eig_threshold,
        grad_pass=grad_norm <= grad_threshold,
        eig_pass=converged and lam >= eig_threshold - residual,
        eig_residual=residual,
        eig_converged=converged)
