"""Certified saddle-point solving for a finite family of symmetric matrices.

The quantity of interest is the common value of

    min over spectraplex X of  max_i <A_i, X>
        =  max over simplex y of  lambda_min(sum_i y_i A_i),

the optimum of the semidefinite program that ``embed`` writes out: minimize
delta over PSD diag(X, s, delta) with <A_i + sigma*I, X> + s_i = delta and
tr X = 1. An infeasible-start primal-dual interior-point method solves it
(Helmberg, Rendl, Vanderbei & Wolkowicz, SIAM J. Optim. 1996) with the HKM
direction and Mehrotra's predictor-corrector (SIAM J. Optim. 1992): one
Schur matrix of order m+1 per Newton step, and tens of steps to a tight gap.

Certificates are self-verifying. ``upper`` is the exact best-response value
at the reported X (feasible for the min side) and ``lower`` is the exact
minimum eigenvalue at the reported y (feasible for the max side), so
upper >= value >= lower regardless of how the iteration behaved, and both
numbers can be recomputed from the reported strategies alone.
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
    best_response_index,
    weighted_combination,
)
from .symmat import SymMatrix, _eigh_raw, _eigvals_raw, frobenius_inner, lambda_max
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

    upper comes from x_bar (best response of the index player), lower from
    y_bar (minimum eigenvalue of the weighted combination); recomputing
    either from the stored strategies reproduces the stored floats. gap is
    exactly upper - lower and can only be negative by eigensolver rounding,
    never below -1e-9 times scale, the instance's max_i ||A_i||_2.
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


# The bracket's two contractions against the stack flattened to (m, n*n):
# np.tensordot's own np.dot call and floats, without its axis bookkeeping.
def _combination(y: np.ndarray, flat: np.ndarray, n: int) -> np.ndarray:
    """sum_i y_i A_i as an (n, n) array: (1, m) @ (m, n*n)."""
    return np.dot(y.reshape(1, -1), flat).reshape(n, n)


def _payoffs(flat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """<A_i, X> for every i as an (m,) array: (m, n*n) @ (n*n, 1)."""
    return np.dot(flat, x.reshape(-1, 1)).reshape(-1)


def _tril_inv(l: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix by halves, mostly matrix products."""
    k = len(l) // 2
    if k < 16:
        return np.linalg.inv(l)
    out = np.zeros_like(l)
    out[:k, :k], out[k:, k:] = _tril_inv(l[:k, :k]), _tril_inv(l[k:, k:])
    out[k:, :k] = -out[k:, k:] @ l[k:, :k] @ out[:k, :k]
    return out


def _interior_point(stack: np.ndarray, cfg: SaddleConfig, report):
    """Mehrotra predictor-corrector with the HKM direction on diag(X, s, delta).

    Top blocks F_k = A_k / scale + sigma*I (k < m) and F_m = I, scale = max_i ||A_i||_2,
    sigma = max(0, -min_i lambda_min(A_i) / scale) + 1; dual multipliers u, slacks
    (Z as zt, w, z). After each Newton step ``report(k, up, lo, x_bar, y_bar)`` gets X
    clipped to the spectraplex, -u[:m] clipped to the simplex and their exact bounds,
    and returns the best gap. Stops at cfg.gap_tol, cfg.max_iters or a Cholesky
    breakdown, which reports the iterate it started from. Returns (steps, scale).
    """
    m, n, _ = stack.shape
    flat = stack.reshape(m, n * n)
    spectra = _eigvals_raw(stack)
    scale = float(np.abs(spectra).max())
    if scale == 0.0:
        report(0, None, None, np.eye(n) / n, np.full(m, 1.0 / m))
        return 0, scale
    eye = np.eye(n)
    sigma = max(0.0, -float(spectra[:, 0].min()) / scale) + 1.0
    f = np.concatenate([stack / scale + sigma * eye, eye[None]])
    ff = f.reshape(m + 1, n * n)
    x, zt, s, w, delta, z, u = eye, eye, np.ones(m), np.ones(m), 1.0, 1.0, np.zeros(m + 1)
    for k in range(1, cfg.max_iters + 1):
        try:
            rp = np.append(delta - s, 1.0) - ff @ x.reshape(-1)
            rd = -(u @ ff).reshape(n, n) - zt
            rw, rz = -u[:m] - w, 1.0 + u[:m].sum() - z
            mu = (np.vdot(x, zt) + s @ w + delta * z) / (n + m + 1)
            rxi, rzi = (np.linalg.inv(np.linalg.cholesky(a)) for a in (x, zt))
            zi = rzi.T @ rzi
            schur = ff @ (x @ f @ zi).reshape(m + 1, n * n).T
            schur[:m, :m] += np.diag(s / w) + delta / z
            li = _tril_inv(np.linalg.cholesky(schur))

            def newton(rczi, rcs, rcz):
                # X dZ + dX Z = Rc and its diagonal analogue; rczi is Rc Z^-1
                h = rp - ff @ (rczi - x @ rd @ zi).reshape(-1)
                h[:m] -= (rcs - s * rw) / w - (rcz - delta * rz) / z
                du = li.T @ (li @ h)
                dzt = rd - (du @ ff).reshape(n, n)
                dw, dz = rw - du[:m], rz + du[:m].sum()
                dx = rczi - x @ dzt @ zi
                return (dx + dx.T) / 2.0, (rcs - s * dw) / w, (rcz - delta * dz) / z, du, dzt, dw, dz

            def lengths(dx, ds, dd, _, dzt, dw, dz):
                # 0.95 of the way to the boundary of each cone, at most 1
                low = _eigvals_raw(np.stack([rxi @ dx @ rxi.T, rzi @ dzt @ rzi.T]))[:, 0]
                return (0.95 / max(-low[0], (-ds / s).max(), -dd / delta, 0.95),
                        0.95 / max(-low[1], (-dw / w).max(), -dz / z, 0.95))

            dx, ds, dd, du, dzt, dw, dz = step = newton(-x, -s * w, -delta * z)
            ap, ad = lengths(*step)
            gap_aff = (np.vdot(x + ap * dx, zt + ad * dzt) + (s + ap * ds) @ (w + ad * dw)
                       + (delta + ap * dd) * (z + ad * dz))
            tau = mu * min(1.0, gap_aff / (mu * (n + m + 1))) ** 3
            dx, ds, dd, du, dzt, dw, dz = step = newton(
                tau * zi - x - dx @ dzt @ zi, tau - s * w - ds * dw, tau - delta * z - dd * dz)
            ap, ad = lengths(*step)
            x, s, delta = x + ap * dx, s + ap * ds, delta + ap * dd
            u, zt, w, z = u + ad * du, zt + ad * dzt, w + ad * dw, z + ad * dz
            breakdown = False
        except np.linalg.LinAlgError:
            breakdown = True
        lam, vec = _eigh_raw(x)
        x_bar = (vec * np.maximum(lam, 0.0)) @ vec.T
        x_bar = (x_bar + x_bar.T) / (2.0 * np.trace(x_bar))
        y_bar = np.maximum(-u[:m], 0.0)
        y_bar = y_bar / y_bar.sum() if y_bar.any() else np.full(m, 1.0 / m)
        up = float(_payoffs(flat, x_bar).max())
        lo = float(_eigvals_raw(_combination(y_bar, flat, n))[0])
        best_gap = report(k, up, lo, x_bar, y_bar)
        logger.debug("round %d: upper=%.12g lower=%.12g mu=%.3e", k, up, lo, mu)
        if breakdown or best_gap <= cfg.gap_tol:
            return k, scale
    return cfg.max_iters, scale


class _Incumbents:
    """Best-so-far bound tracking; keeps the strategies attaining each bound."""

    def __init__(self):
        self.upper = np.inf
        self.lower = -np.inf
        self.x = None
        self.y = None

    def __call__(self, k, up, lo, x_avg, y_avg):
        if up is None:
            # degenerate all-zero instance: any strategy pair is optimal
            self.upper = self.lower = 0.0
            self.x = x_avg
            self.y = y_avg
            return 0.0
        if up < self.upper:
            self.upper = up
            self.x = x_avg
        if lo > self.lower:
            self.lower = lo
            self.y = y_avg
        return self.upper - self.lower


def _certificate(inc, iterations, scale, cfg, bounds) -> SaddleCertificate:
    """Certificate at the incumbent strategies; ``bounds(x_bar, y_bar)``
    returns the direction's exact (upper, lower) pair."""
    x_bar = SpectraplexPoint(SymMatrix(inc.x))
    y_bar = SimplexPoint(inc.y)
    upper, lower = bounds(x_bar, y_bar)
    gap = upper - lower
    return SaddleCertificate(
        upper=upper,
        lower=lower,
        gap=gap,
        x_bar=x_bar,
        y_bar=y_bar,
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
    inc = _Incumbents()

    def report(k, up, lo, x_avg, y_avg):
        g = inc(k, up, lo, x_avg, y_avg)
        if on_bounds is not None:
            on_bounds(k, inc.upper, inc.lower)
        return g

    iterations, scale = _interior_point(inst.stacked, cfg, report)
    return _certificate(
        inc, iterations, scale, cfg, lambda x, y: (upper_value(x, inst), lower_value(y, inst))
    )


def solve_maximin(
    inst: InstanceSet,
    cfg: SaddleConfig | None = None,
    *,
    on_bounds: Callable[[int, float, float], None] | None = None,
) -> SaddleCertificate:
    """Bracket max_X min_i <A_i, X>, the mirror image of solve_minimax.

    Internally runs the same solver on the negated family. On the
    returned certificate, lower is min_i <A_i, x_bar> (what x_bar
    guarantees for the max player) and upper is lambda_max of the
    y_bar-weighted combination.
    """
    cfg = cfg if cfg is not None else SaddleConfig()
    inc = _Incumbents()

    def report(k, up, lo, x_avg, y_avg):
        g = inc(k, up, lo, x_avg, y_avg)
        if on_bounds is not None:
            # translate the negated-problem bounds back to maximin sense
            on_bounds(k, -inc.lower, -inc.upper)
        return g

    iterations, scale = _interior_point(-inst.stacked, cfg, report)

    def bounds(x, y):
        lower = min(frobenius_inner(a, x.matrix) for a in inst.matrices)
        return lambda_max(weighted_combination(y, inst)), lower

    return _certificate(inc, iterations, scale, cfg, bounds)
