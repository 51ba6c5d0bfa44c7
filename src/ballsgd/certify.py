"""Second-order stationarity certification.

The minimum Hessian eigenvalue is estimated matrix-free by block Lanczos:
a block Krylov basis built from Hessian-vector products and fully
reorthogonalised, with Rayleigh-Ritz extraction on the whole basis.  A
block of four start vectors keeps near-degenerate bottom clusters from
being mistaken for the bottom eigenvalue.  At small dimension the
certificate uses LAPACK on the dense Hessian instead, which also serves as
the exact reference for the matrix-free estimate.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DimensionTooLarge
from .hyperparams import Schedule
from .problems import Objective
from .rng import _box_muller, _uniforms, random_words

_DENSE_DIM_LIMIT = 200
_CERTIFY_DENSE_DIM = 50
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
        return asdict(self)

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


def min_eigenvalue(obj: Objective, x: np.ndarray, seed: int = 0) -> EigEstimate:
    """Estimate lambda_min of the Hessian at x by block Lanczos.

    The block Krylov basis grows from a (d, k) start block, k = min(4, d),
    by one block of Hessian-vector products per step.  The start block
    holds, row-major, the d*k normals of one Box-Muller request
    (``ballsgd.rng``) over words 0 .. 2*ceil(dk/2) - 1 of the stream of
    seed, any int taken mod 2^64.  Rayleigh-Ritz on the whole basis gives
    the estimate, and the stored products give the Ritz residual
    ||H y - lam y|| without further HVPs.

    With tol = default_tolerance(L), convergence is declared when the
    residual is below tol/10 and the estimate moved at most tol/100 over the
    last three block steps, or when the basis spans an invariant subspace,
    where the Ritz values are exact.  Non-finite HVPs end the solve with the
    last estimate flagged unconverged.
    """
    tol = default_tolerance(obj.constants.L)
    x = np.asarray(x, dtype=float)
    dim = obj.dim
    k = min(_BLOCK, dim)
    pairs = (dim * k + 1) // 2
    u = _uniforms(random_words(int(seed) % 2 ** 64, 0, 2 * pairs))
    Q = _extend_basis(np.empty((dim, 0)),
                      _box_muller(u, dim * k).reshape(dim, k))
    HQ = np.empty((dim, 0))
    history = []
    value, residual, converged = math.nan, math.inf, False
    # every step either adds a basis column or stops, so d steps suffice
    for iterations in range(1, dim + 1):
        lo, fresh = HQ.shape[1], Q[:, HQ.shape[1]:]
        products = np.column_stack([obj.hvp(x, q) for q in fresh.T])
        if not np.all(np.isfinite(products)):
            break
        HQ = np.column_stack([HQ, products])
        T = Q.T @ HQ
        ritz_vals, ritz_vecs = np.linalg.eigh(0.5 * (T + T.T))
        value, s = float(ritz_vals[0]), ritz_vecs[:, 0]
        residual = float(np.linalg.norm(HQ @ s - value * (Q @ s)))
        history.append(value)
        # a small residual alone can belong to the second-smallest
        # eigenvalue while the bottom one is still emerging
        if residual <= 0.1 * tol and len(history) > 3 and \
                abs(value - history[-4]) <= 0.01 * tol:
            converged = True
            break
        m = Q.shape[1]
        Q = _extend_basis(Q, HQ[:, lo:])
        if Q.shape[1] == m:
            # full space or an invariant subspace holding the start block
            converged = residual <= tol
            break
    return EigEstimate(value=value, residual=residual, iterations=iterations,
                       converged=converged)


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
    """Exact lambda_min of the dense Hessian at x by LAPACK, or NaN when the
    Hessian is not finite (LAPACK can return finite values for it)."""
    H = dense_hessian(obj, x)
    if not np.all(np.isfinite(H)):
        return math.nan
    return float(np.linalg.eigvalsh(H)[0])


def certify(obj: Objective, x: np.ndarray, schedule: Schedule,
            seed: int = 0) -> Certificate:
    """Certificate that x is an approximate second-order stationary point
    at the schedule's thresholds: gradient norm against 18*rho*B^2 and
    estimated lambda_min against -17*delta minus the numerical residual."""
    x = np.asarray(x, dtype=float)
    rho = obj.constants.rho
    grad_threshold = 18.0 * rho * schedule.ball_radius ** 2
    eig_threshold = -17.0 * schedule.delta

    # a non-finite gradient or Hessian fails the certificate, so numpy's
    # overflow and invalid-value warnings are off
    with np.errstate(over="ignore", invalid="ignore"):
        grad_norm = float(np.linalg.norm(obj.gradient(x)))
        if obj.dim <= _CERTIFY_DENSE_DIM:
            lam = dense_min_eigenvalue(obj, x)
            residual = 0.0
            converged = math.isfinite(lam)
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
