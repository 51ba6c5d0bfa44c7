"""Second-order stationarity certification.

The minimum Hessian eigenvalue is estimated matrix-free by block Lanczos:
a block Krylov basis built from Hessian-vector products and fully
reorthogonalised, with Rayleigh-Ritz extraction on the whole basis.  A
block of four start vectors keeps near-degenerate bottom clusters from
being mistaken for the bottom eigenvalue.  A dense cyclic-Jacobi
eigensolver serves as an independent oracle at small dimension.
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
_BLOCK = 4
_DEFLATION_TOL = 1e-10


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


def _extend_basis(Q: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Q with the columns of W appended as further orthonormal columns.

    Each column is orthogonalised twice against the basis (classical
    Gram-Schmidt) and dropped when less than _DEFLATION_TOL of its norm is
    left, because it lies numerically inside the basis.
    """
    for w in W.T:
        if Q.shape[1] == Q.shape[0]:
            break
        norm0 = np.linalg.norm(w)
        for _ in range(2):
            w = w - Q @ (Q.T @ w)
        norm = np.linalg.norm(w)
        if norm > _DEFLATION_TOL * norm0:
            Q = np.column_stack([Q, w / norm])
    return Q


def min_eigenvalue(obj: Objective, x: np.ndarray, shift: float | None = None,
                   tol: float | None = None, max_iters: int | None = None,
                   seed: int = 0) -> EigEstimate:
    """Estimate lambda_min of the Hessian at x by block Lanczos.

    The block Krylov basis grows from ``Rng(seed).normal_rows(d, min(4, d))``
    one block of Hessian-vector products per step; Rayleigh-Ritz on the
    whole basis gives the estimate, and the stored products give the Ritz
    residual ||H y - lam y|| without further HVPs.  With ``shift`` (> 0)
    the solver works on shift*I - H and maps its top Ritz value back to
    lambda_min; the Krylov space is the same, so the estimate agrees with
    the unshifted one up to rounding.  ``max_iters`` caps the block steps
    (default ceil(d / block), where the space is exhausted).

    Convergence is declared when the residual is below tol/10 and the
    estimate moved at most tol/100 over the last three block steps, or when
    the basis spans an invariant subspace, where the Ritz values are exact;
    otherwise the last estimate is returned flagged.
    """
    if shift is not None and shift <= 0:
        raise InvalidArgument("shift must be positive")
    if tol is None:
        tol = default_tolerance(obj.constants.L)
    if tol <= 0:
        raise InvalidArgument("tol must be positive")
    x = np.asarray(x, dtype=float)
    dim = obj.dim
    block = min(_BLOCK, dim)
    if max_iters is None:
        max_iters = -(-dim // block)
    # the operator is sign*H + offset*I; lambda_min is its extreme Ritz
    # value at index pick, mapped back through sign*(theta - offset)
    sign, offset, pick = (1.0, 0.0, 0) if shift is None \
        else (-1.0, float(shift), -1)

    Q = _extend_basis(np.empty((dim, 0)), Rng(seed).normal_rows(dim, block))
    MQ = np.empty((dim, 0))
    history = []
    value, residual, converged, iterations = math.nan, math.inf, False, 0
    for iterations in range(1, max_iters + 1):
        lo, fresh = MQ.shape[1], Q[:, MQ.shape[1]:]
        products = np.column_stack([obj.hvp(x, q) for q in fresh.T])
        if not np.all(np.isfinite(products)):
            break
        MQ = np.column_stack([MQ, sign * products + offset * fresh])
        T = Q.T @ MQ
        ritz_vals, ritz_vecs = np.linalg.eigh(0.5 * (T + T.T))
        theta, s = ritz_vals[pick], ritz_vecs[:, pick]
        residual = float(np.linalg.norm(MQ @ s - theta * (Q @ s)))
        value = float(sign * (theta - offset))
        history.append(value)
        # a small residual alone can belong to the second-smallest
        # eigenvalue while the bottom one is still emerging
        if residual <= 0.1 * tol and len(history) > 3 and \
                abs(value - history[-4]) <= 0.01 * tol:
            converged = True
            break
        m = Q.shape[1]
        Q = _extend_basis(Q, MQ[:, lo:])
        if Q.shape[1] == m:
            # full space or an invariant subspace holding the start block
            converged = residual <= tol
            break
    return EigEstimate(value=value, residual=residual, iterations=iterations,
                       converged=converged)


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
