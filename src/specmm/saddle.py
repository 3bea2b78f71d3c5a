"""Certified saddle-point solving for a finite family of symmetric matrices.

The quantity of interest is the common value of

    min over spectraplex X of  max_i <A_i, X>
        =  max over simplex y of  lambda_min(sum_i y_i A_i),

approached from both sides at once by multiplicative-weights dynamics: the
index player takes exponentiated-gradient steps on the simplex, the matrix
player takes matrix-exponentiated steps on the spectraplex (trace-normalized
exponentials of the accumulated loss). Each round uses the extragradient
form of the update: a provisional step, gradients re-evaluated at the
provisional point, then the correction applied to the accumulated state.
Plain simultaneous play orbits the equilibrium and its averages close the
gap like 1/sqrt(T), too slowly for tight certificates; the extragradient
correction damps the orbit and closes the gap at a 1/T rate.

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
from .symmat import SymMatrix, _eigh_raw, _eigvals_raw, lambda_max
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

# step size in multiples of 1 / max_i ||A_i||_2; measured sweet spot for
# closing gaps of 1e-3 .. 1e-4 within a few thousand rounds
BASE_STEP = 3.0
# bound evaluations happen every EVAL_PERIOD rounds and at the last round
EVAL_PERIOD = 25


@dataclass(frozen=True)
class SaddleConfig:
    """Solver knobs.

    max_iters: hard cap on rounds.
    gap_tol: stop once upper - lower falls below this.
    step_scale: multiplies the default step size.
    """

    max_iters: int = 5000
    gap_tol: float = 1e-4
    step_scale: float = 1.0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.gap_tol > 0.0:
            raise ValueError("gap_tol must be positive")
        if not self.step_scale > 0.0:
            raise ValueError("step_scale must be positive")


@dataclass(frozen=True, eq=False)
class SaddleCertificate:
    """Two-sided bracket on the saddle value with the strategies attaining it.

    upper comes from x_bar (best response of the index player), lower from
    y_bar (minimum eigenvalue of the weighted combination); recomputing
    either from the stored strategies reproduces the stored floats. gap is
    exactly upper - lower and can only be negative by eigensolver rounding,
    never below -1e-9.
    """

    upper: float
    lower: float
    gap: float
    x_bar: SpectraplexPoint
    y_bar: SimplexPoint
    iterations: int
    converged: bool

    def __post_init__(self):
        if self.gap < -DEFAULT_TOLS.weak_duality:
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


def _gibbs(b: np.ndarray) -> np.ndarray:
    """Trace-one matrix exponential exp(B) / tr exp(B), spectrum-shifted
    for overflow safety, exactly symmetric."""
    w, u = _eigh_raw(b)
    e = np.exp(w - w[-1])
    x = (u * e) @ u.T
    return (x + x.T) / (2.0 * e.sum())


def _softmax(v: np.ndarray) -> np.ndarray:
    e = np.exp(v - v.max())
    return e / e.sum()


# The round's two contractions against the stack flattened to (m, n*n).
# They make the np.dot call np.tensordot makes internally, on the same 2-D
# shapes, so the floats are the same, without tensordot's per-call axis
# bookkeeping, which costs several times the product itself at small n.
def _combination(y: np.ndarray, flat: np.ndarray, n: int) -> np.ndarray:
    """sum_i y_i A_i as an (n, n) array: (1, m) @ (m, n*n)."""
    return np.dot(y.reshape(1, -1), flat).reshape(n, n)


def _payoffs(flat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """<A_i, X> for every i as an (m,) array: (m, n*n) @ (n*n, 1)."""
    return np.dot(flat, x.reshape(-1, 1)).reshape(-1)


def _run_dynamics(stack: np.ndarray, cfg: SaddleConfig, report):
    """Extragradient multiplicative-weights loop on a (m, n, n) stack.

    ``report(k, up, lo, x_avg, y_avg)`` is called at every bound
    evaluation with the current averaged strategies and their exact
    bounds; it returns the best gap seen so far, and the loop stops once
    that gap reaches cfg.gap_tol. Returns the round count at exit.
    """
    m, n, _ = stack.shape
    flat = stack.reshape(m, n * n)
    scale = 0.0
    for a in stack:
        w = _eigvals_raw(a)
        scale = max(scale, abs(float(w[0])), abs(float(w[-1])))
    if scale == 0.0:
        report(0, None, None, np.eye(n) / n, np.full(m, 1.0 / m))
        return 0
    eta = BASE_STEP * cfg.step_scale / scale

    loss_x = np.zeros((n, n))
    gain_y = np.zeros(m)
    x_sum = np.zeros((n, n))
    y_sum = np.zeros(m)
    verbose = logger.isEnabledFor(logging.DEBUG)

    for k in range(1, cfg.max_iters + 1):
        x0 = _gibbs(-eta * loss_x)
        y0 = _softmax(eta * gain_y)
        gx0 = _combination(y0, flat, n)
        gy0 = _payoffs(flat, x0)
        xh = _gibbs(-eta * (loss_x + gx0))
        yh = _softmax(eta * (gain_y + gy0))
        loss_x += _combination(yh, flat, n)
        gain_y += _payoffs(flat, xh)
        x_sum += xh
        y_sum += yh
        if k % EVAL_PERIOD == 0 or k == cfg.max_iters:
            # candidate bounds from the running average (strong when play
            # orbits the saddle) and from the current half-iterate (strong
            # when the dynamics sharpen onto a pure optimum); the incumbent
            # keeps whichever is better, each being feasible on its own
            x_avg = x_sum / k
            x_avg = (x_avg + x_avg.T) / (2.0 * np.trace(x_avg))
            y_avg = y_sum / k
            y_avg = y_avg / y_avg.sum()
            up = float(_payoffs(flat, x_avg).max())
            lo = float(_eigvals_raw(_combination(y_avg, flat, n))[0])
            up_h = float(_payoffs(flat, xh).max())
            lo_h = float(_eigvals_raw(_combination(yh, flat, n))[0])
            if up_h < up:
                up, x_avg = up_h, xh
            if lo_h > lo:
                lo, y_avg = lo_h, yh
            best_gap = report(k, up, lo, x_avg, y_avg)
            if verbose:
                logger.debug("round %d: upper=%.12g lower=%.12g best_gap=%.3e", k, up, lo, best_gap)
            if best_gap <= cfg.gap_tol:
                return k
    return cfg.max_iters


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


def _certificate(inc, iterations, cfg, bounds) -> SaddleCertificate:
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
    )


def solve_minimax(
    inst: InstanceSet,
    cfg: SaddleConfig | None = None,
    *,
    on_bounds: Callable[[int, float, float], None] | None = None,
) -> SaddleCertificate:
    """Bracket min_X max_i <A_i, X> between recomputable feasible bounds.

    Deterministic: fixed starting point (uniform strategies), no sampling.
    Non-convergence within cfg.max_iters is reported through
    ``converged=False`` on the certificate, never as an exception; the
    bounds are valid either way. ``on_bounds(k, best_upper, best_lower)``
    is invoked after each bound evaluation (every 25 rounds).
    """
    cfg = cfg if cfg is not None else SaddleConfig()
    inc = _Incumbents()

    def report(k, up, lo, x_avg, y_avg):
        g = inc(k, up, lo, x_avg, y_avg)
        if on_bounds is not None:
            on_bounds(k, inc.upper, inc.lower)
        return g

    iterations = _run_dynamics(inst.stacked, cfg, report)
    return _certificate(
        inc, iterations, cfg, lambda x, y: (upper_value(x, inst), lower_value(y, inst))
    )


def solve_maximin(
    inst: InstanceSet,
    cfg: SaddleConfig | None = None,
    *,
    on_bounds: Callable[[int, float, float], None] | None = None,
) -> SaddleCertificate:
    """Bracket max_X min_i <A_i, X>, the mirror image of solve_minimax.

    Internally runs the same dynamics on the negated family. On the
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

    iterations = _run_dynamics(-inst.stacked, cfg, report)

    def bounds(x, y):
        vals = np.tensordot(inst.stacked, x.array, axes=([1, 2], [0, 1]))
        return lambda_max(weighted_combination(y, inst)), float(vals.min())

    return _certificate(inc, iterations, cfg, bounds)
