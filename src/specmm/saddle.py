"""Certified saddle-point solving for a finite family of symmetric matrices.

The quantity of interest is the common value of

    min over spectraplex X of  max_i <A_i, X>
        =  max over simplex y of  lambda_min(sum_i y_i A_i),

the optimum of the semidefinite program that ``embed`` writes out: minimize
delta over PSD diag(X, s, delta) with <A_i + sigma*I, X> + s_i = delta and
tr X = 1. A primal-dual interior-point method solves it
(Helmberg, Rendl, Vanderbei & Wolkowicz, SIAM J. Optim. 1996) with the HKM
direction and Mehrotra's predictor-corrector (SIAM J. Optim. 1992): one
Schur matrix of order m+1 per Newton step, and tens of steps to a tight gap.
It starts from the strictly feasible points of ``embed.interior_primal_point``
and ``embed.interior_dual_point``, in its own scaled coordinates. Coordinates
whose rows are exactly zero off the diagonal in every A_i are isolated: X
keeps them as a vector of linear-programming variables beside s and delta,
and only the coupled coordinates form a dense block (Todd, Toh & Tutuncu,
SIAM J. Optim. 1998, carry LP blocks beside SDP blocks the same way). A
diagonal family, the paper's classic game, is then a linear program.

Certificates are self-verifying. After each Newton step the loop evaluates
the exact bracket at its clipped iterates and keeps the best of each side:
``upper`` is the best-response value at the reported X (feasible for the
min side), ``lower`` the minimum eigenvalue at the reported y (feasible for
the max side), so upper >= value >= lower however the iteration behaved.
The certificate carries these incumbents; ``upper_value`` and
``lower_value`` recompute them from the strategies alone, bit for bit.
Maximin is the same solve on the negated family, bounds negated and swapped.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domains import (
    InstanceSet,
    SimplexPoint,
    SpectraplexPoint,
    _combination,
    _payoffs,
    best_response_index,
    weighted_combination,
)
from .symmat import SymMatrix, _eigh_raw, _eigvals_raw
from .tolerances import DEFAULT_TOLS

__all__ = [
    "SaddleConfig",
    "SaddleCertificate",
    "upper_value",
    "lower_value",
    "solve_minimax",
    "solve_maximin",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SaddleConfig:
    """Solver knobs.

    max_iters: hard cap on Newton steps.
    gap_tol: stop once upper - lower falls below this.
    """

    max_iters: int = 100
    gap_tol: float = 1e-4

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.gap_tol > 0.0:
            raise ValueError("gap_tol must be positive")


@dataclass(frozen=True, eq=False)
class SaddleCertificate:
    """Two-sided bracket on the saddle value with the strategies attaining it.

    For solve_minimax, upper is upper_value(x_bar) and lower is
    lower_value(y_bar); for solve_maximin, lower is min_i <A_i, x_bar> by
    the stacked contraction of best_response_index and upper is the largest
    eigenvalue of weighted_combination(y_bar). Either recompute from the
    stored strategies reproduces the stored floats. gap is exactly
    upper - lower and can only be negative by eigensolver rounding, never
    below -1e-9 times scale, the instance's max_i ||A_i||_2.
    """

    upper: float
    lower: float
    gap: float
    x_bar: SpectraplexPoint
    y_bar: SimplexPoint
    iterations: int
    converged: bool
    scale: float

    def __post_init__(self):
        if self.gap < -DEFAULT_TOLS.weak_duality * self.scale:
            raise ValueError(f"bound crossing beyond tolerance: gap={self.gap!r}")

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.upper + self.lower)


def upper_value(x: SpectraplexPoint, inst: InstanceSet) -> float:
    """max_i <A_i, X>: the value the min player guarantees by playing X."""
    return best_response_index(x, inst)[1]


def lower_value(y: SimplexPoint, inst: InstanceSet) -> float:
    """lambda_min(sum_i y_i A_i): the value the max player guarantees by y."""
    return float(_eigvals_raw(weighted_combination(y, inst).array)[0])


def _tril_inv(l: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix by halves, mostly matrix products."""
    k = len(l) // 2
    if k < 16:
        return np.linalg.inv(l)
    out = np.zeros_like(l)
    out[:k, :k], out[k:, k:] = _tril_inv(l[:k, :k]), _tril_inv(l[k:, k:])
    out[k:, :k] = -out[k:, k:] @ l[k:, :k] @ out[:k, :k]
    return out


def _chol_inv(pair: np.ndarray) -> np.ndarray:
    """Inverse Cholesky factors of a stack of positive definite matrices; empty
    matrices pass through without a LAPACK call."""
    return np.linalg.inv(np.linalg.cholesky(pair)) if pair.size else pair


def _lowest(r: np.ndarray, d) -> np.ndarray:
    """lambda_min(r_i d_i r_i^T) for each pair; +inf, without an eigen call, when
    the matrices are empty."""
    if r.size == 0:
        return np.full(len(r), np.inf)
    return _eigvals_raw(r @ np.stack(d) @ r.transpose(0, 2, 1))[:, 0]


def _interior_point(stack: np.ndarray, spectra: np.ndarray, cfg: SaddleConfig, on_bounds):
    """Mehrotra predictor-corrector with the HKM direction on diag(X, s, delta).

    ``spectra`` holds each A_k's eigenvalues, nondecreasing; they give the scale
    max_i ||A_i||_2 and sigma = max(0, -min_i lambda_min(A_i) / scale) + 1. Top blocks
    F_k = A_k / scale + sigma*I (k < m) and F_m = I; dual multipliers u, slacks
    (Z as zt, w, z). Coordinate j is isolated when row j of every A_k is exactly zero
    off the diagonal. X and Z are held as diag(X_c, diag(x_d)) and diag(Z_c, diag(z_d)):
    the coupled coordinates in one dense block, the isolated ones in a vector. The
    payoffs read no other entry of X, and pinching keeps X in the spectraplex, so this
    is exact. x_d joins s and delta in one vector v = (x_d, s, delta) with slack
    g = (z_d, w, z); G is the matrix of v's terms in the m+1 constraints.

    The start is strictly feasible, as ``embed.interior_primal_point`` (margin 1) and
    ``embed.interior_dual_point`` build it: X = I/n, delta = max_k <F_k, X> + 1 and
    s_k = delta - <F_k, X>; u_k = -1/(2m) and u_m = lambda_min(sum_k F_k / (2m)) - 1,
    so that lambda_min(Z) = 1, w = 1/(2m) and z = 1/2. The residuals only absorb
    rounding drift. After each Newton step the full X clipped to the spectraplex and
    -u[:m] clipped to the simplex get their exact bounds; the least upper bound and
    the greatest lower bound are kept with the strategies attaining them, and
    ``on_bounds(k, upper, lower)``, if given, sees the pair. Stops at cfg.gap_tol,
    cfg.max_iters or a Cholesky breakdown, which evaluates the iterate it started
    from. Returns (upper, lower, x_bar, y_bar, steps, scale); an all-zero family,
    for which any pair is optimal, returns (0, 0, I/n, 1/m, 0, 0) without a step.
    """
    m, n, _ = stack.shape
    scale = float(np.abs(spectra).max())
    if scale == 0.0:
        return 0.0, 0.0, np.eye(n) / n, np.full(m, 1.0 / m), 0, scale
    off = stack.any(axis=0)
    np.fill_diagonal(off, False)
    coupled = off.any(axis=1)
    c, d = np.flatnonzero(coupled), np.flatnonzero(~coupled)
    nc, nd, eye = len(c), len(d), np.eye(len(c))
    sigma = max(0.0, -float(spectra[:, 0].min()) / scale) + 1.0
    f = np.concatenate([stack / scale + sigma * np.eye(n), np.eye(n)[None]])
    f, fd = f[:, c[:, None], c], f[:, d, d]
    ff = f.reshape(m + 1, nc * nc)
    cost = np.zeros(nd + m + 1)
    cost[-1] = 1.0

    def lp(v):
        # G v: diag(F_k) on x_d, plus s_k - delta in row k < m
        r = fd @ v[:nd]
        r[:m] += v[nd:-1] - v[-1]
        return r

    def lp_t(u):
        # G^T u, so that g = cost - G^T u
        return np.concatenate([u @ fd, u[:m], [-u[:m].sum()]])

    x, v = eye / n, np.full(nd + m + 1, 1.0 / n)
    v[nd:-1] = ff[:m] @ x.reshape(-1) + fd[:m] @ v[:nd]  # <F_k, X> until s is set
    v[-1] = v[nd:-1].max() + 1.0
    v[nd:-1] = v[-1] - v[nd:-1]
    u = np.append(np.full(m, -0.5 / m), 0.0)
    zt, zd = -(u @ ff).reshape(nc, nc), -(u @ fd)  # sum_k F_k / (2m), pinched
    u[m] = min(_lowest(eye[None], [zt])[0], zd.min(initial=np.inf)) - 1.0
    zt, g = -(u @ ff).reshape(nc, nc), cost - lp_t(u)
    upper, lower, x_best, y_best = np.inf, -np.inf, None, None
    for k in range(1, cfg.max_iters + 1):
        try:
            rp = -lp(v) - ff @ x.reshape(-1)
            rp[m] += 1.0
            rd, rg = -(u @ ff).reshape(nc, nc) - zt, cost - lp_t(u) - g
            mu = (np.vdot(x, zt) + v @ g) / (n + m + 1)
            rr = _chol_inv(np.array((x, zt)))
            zi = rr[1].T @ rr[1]
            xrz = x @ rd @ zi
            r = v / g
            schur = (fd * r[:nd]) @ fd.T
            schur += ff @ (x @ f @ zi).reshape(m + 1, nc * nc).T
            schur[:m, :m] += np.diag(r[nd:-1]) + r[-1]
            li = np.linalg.cholesky(schur)
            del schur  # dead once factored; freeing it lowers the solver's peak memory
            li = _tril_inv(li)

            def newton(rczi, rcv):
                # X dZ + dX Z = Rc and v dg + dv g = rcv; rczi is Rc Z^-1
                du = li.T @ (li @ (rp - ff @ (rczi - xrz).reshape(-1) - lp((rcv - v * rg) / g)))
                dzt, dg = rd - (du @ ff).reshape(nc, nc), rg - lp_t(du)
                dx = rczi - x @ dzt @ zi
                return (dx + dx.T) / 2.0, (rcv - v * dg) / g, du, dzt, dg

            def lengths(dx, dv, _, dzt, dg):
                # 0.95 of the way to the boundary of each cone, at most 1
                low = _lowest(rr, (dx, dzt))
                return (0.95 / max(-low[0], (-dv / v).max(), 0.95),
                        0.95 / max(-low[1], (-dg / g).max(), 0.95))

            dx, dv, du, dzt, dg = step = newton(-x, -v * g)
            ap, ad = lengths(*step)
            gap_aff = np.vdot(x + ap * dx, zt + ad * dzt) + (v + ap * dv) @ (g + ad * dg)
            tau = mu * min(1.0, gap_aff / (mu * (n + m + 1))) ** 3
            dx, dv, du, dzt, dg = step = newton(tau * zi - x - dx @ dzt @ zi, tau - v * g - dv * dg)
            ap, ad = lengths(*step)
            x, v, u, zt, g = x + ap * dx, v + ap * dv, u + ad * du, zt + ad * dzt, g + ad * dg
            breakdown = False
        except np.linalg.LinAlgError:
            breakdown = True
        full = np.zeros((n, n))
        full[c[:, None], c], full[d, d] = x, v[:nd]
        lam, vec = _eigh_raw(full)
        x_bar = (vec * np.maximum(lam, 0.0)) @ vec.T
        x_bar = (x_bar + x_bar.T) / (2.0 * np.trace(x_bar))
        y_bar = np.maximum(-u[:m], 0.0)
        y_bar = y_bar / y_bar.sum() if y_bar.any() else np.full(m, 1.0 / m)
        up = float(_payoffs(stack, x_bar).max())
        lo = float(_eigvals_raw(_combination(y_bar, stack))[0])
        if up < upper:
            upper, x_best = up, x_bar
        if lo > lower:
            lower, y_best = lo, y_bar
        if on_bounds is not None:
            on_bounds(k, upper, lower)
        logger.debug("round %d: upper=%.12g lower=%.12g mu=%.3e", k, up, lo, mu)
        if breakdown or upper - lower <= cfg.gap_tol:
            break
    return upper, lower, x_best, y_best, k, scale


def _certificate(upper, lower, x_bar, y_bar, iterations, scale, cfg) -> SaddleCertificate:
    """Certificate at the loop's incumbents, with their bounds as they are."""
    gap = upper - lower
    return SaddleCertificate(
        upper=upper,
        lower=lower,
        gap=gap,
        x_bar=SpectraplexPoint(SymMatrix(x_bar)),
        y_bar=SimplexPoint(y_bar),
        iterations=iterations,
        converged=bool(gap <= cfg.gap_tol),
        scale=scale,
    )


def solve_minimax(
    inst: InstanceSet,
    cfg: SaddleConfig | None = None,
    *,
    on_bounds: Callable[[int, float, float], None] | None = None,
) -> SaddleCertificate:
    """Bracket min_X max_i <A_i, X> between recomputable feasible bounds.

    Deterministic: fixed starting point, no sampling. Non-convergence
    within cfg.max_iters Newton steps is reported through
    ``converged=False`` on the certificate, never as an exception; the
    bounds are valid either way. ``on_bounds(k, best_upper, best_lower)``
    is invoked once per Newton step.
    """
    cfg = cfg if cfg is not None else SaddleConfig()
    return _certificate(*_interior_point(inst.stacked, inst.spectra, cfg, on_bounds), cfg)


def solve_maximin(
    inst: InstanceSet,
    cfg: SaddleConfig | None = None,
    *,
    on_bounds: Callable[[int, float, float], None] | None = None,
) -> SaddleCertificate:
    """Bracket max_X min_i <A_i, X> = -min_X max_i <-A_i, X>.

    Runs solve_minimax's loop on the negated family and negates and swaps
    its bounds: lower = -max_i <-A_i, x_bar> is min_i <A_i, x_bar> (what
    x_bar guarantees for the max player) and upper = -lambda_min(-sum_i y_i A_i)
    is lambda_max of the y_bar-weighted combination. Both equal the direct
    recomputes bit for bit: negation is exact in the contraction, and LAPACK,
    rounding to nearest, returns the eigenvalues of -M as those of M negated
    (so the negated family's spectra are ``-inst.spectra[:, ::-1]``).
    ``on_bounds(k, best_upper, best_lower)`` is invoked once per Newton
    step, in maximin sense.
    """
    cfg = cfg if cfg is not None else SaddleConfig()
    # 0.0 - b is -b bit for bit, except that a bound of 0.0 stays +0.0
    mirrored = None if on_bounds is None else lambda k, up, lo: on_bounds(k, 0.0 - lo, 0.0 - up)
    up, lo, x_bar, y_bar, iterations, scale = _interior_point(
        -inst.stacked, -inst.spectra[:, ::-1], cfg, mirrored
    )
    return _certificate(0.0 - lo, 0.0 - up, x_bar, y_bar, iterations, scale, cfg)
