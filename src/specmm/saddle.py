"""Certified saddle-point solving for a finite family of symmetric matrices.

The quantity of interest is the common value of

    min over spectraplex X of  max_i <A_i, X>
        =  max over simplex y of  lambda_min(sum_i y_i A_i),

the optimum of the semidefinite program that ``embed`` writes out: minimize
delta over PSD diag(X, s, delta) with <A_i + sigma*I, X> + s_i = delta and
tr X = 1, stated in units of the scale by ``embed``'s shift rule and tops.
A primal-dual interior-point method solves it (Helmberg, Rendl, Vanderbei &
Wolkowicz, SIAM J. Optim. 1996) with the HKM direction and Mehrotra's
predictor-corrector (SIAM J. Optim. 1992) on a working set W of the matrices,
3q of them for the q free coordinates of X, which grows while a matrix outside
it pays more at the iterate (constraint reduction: Tits, Absil & Woessner, SIAM
J. Optim. 2006; Park & O'Leary, J. Optim. Theory Appl. 2015): one Schur matrix
of order |W|+1 <= m+1 per Newton step, and tens of steps to a tight gap. It
starts at X = I/n, theta = 0.1 scale units from the boundary: the dual weights
sum to 1 - theta, as they sum to 1 at every optimum, and the primal margin and
the dual slacks' floor are theta (the start sized to the problem, as Mehrotra
and SDPT3 size theirs).
Every family steps on X as one dense n x n block. A diagonal family, the paper's
classic game, has every A_i exactly zero off its diagonal (checked without a
tolerance); its X and Z stay exactly zero off their diagonals, and its exactness
comes from the finish below, not from the steps.

An interior point only approaches the optimal face, so each solve also tries to
finish on it, on faces that ``_attempt_faces``, the one face-attempt policy, guesses
from the incumbents after each Newton step. A diagonal family tries at any gap, and
when it has at most q + 1 = n + 1 matrices, before its first Newton step too, on all
of them, so such a game may close with no Newton step. Its game is converted to
integers once per solve, and the finish is the exact simplex of the classic game
(``_simplex``: Bland's rule with fraction-free pivots) on the face's rows, which adds
every row of the whole game that the face's optimum violates until none does. The
interior point names the face and pivoting finishes on it (Megiddo, ORSA J. Comput.
1991; Mehrotra & Ye, Math. Program. 1993); its exact equilibrium, rounded to floats,
is the third candidate. The last exact solve is remembered, so that
``classic_value_exact`` of a game that a solve has just finished on all its rows
makes no second simplex. A block family tries once the incumbents' gap is within a
tenth of the scale: up to four Gauss-Newton steps on that face's square optimality
system (``_face_step``: Newton on the complementarity system, Alizadeh, Haeberly &
Overton, Math. Program. 1997) solve for X's entries between Z's leading eigenvectors,
eliminating the others, and stop once the residual is half the gap target. The Newton
iterates never depend on any attempt, so a solve can only stop sooner.

Certificates are self-verifying. After each Newton step the loop evaluates
the exact bracket on all m matrices at its clipped iterate, Newton point (y zero
off W) and face point (``_bracket``), skipping an X or a y that clips to zero, and
keeps the best of each side over every round: ``upper`` is the best-response value
at the reported X (feasible for the min side), ``lower`` the minimum eigenvalue at the
reported y (feasible for the max side), so upper >= value >= lower however the
iteration behaved. The certificate carries these incumbents; ``upper_value`` and
``lower_value`` recompute them from the strategies alone, bit for bit.
Maximin is the same solve on the negated family, bounds negated and swapped.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, field
from functools import cache, lru_cache
from operator import mul
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
from .embed import _eye, _shift, _shifted, _triu
from .symmat import _eigh_raw, _eigvals_raw

__all__ = [
    "SaddleConfig",
    "SaddleCertificate",
    "upper_value",
    "lower_value",
    "solve_minimax",
    "solve_maximin",
]

# the bounds may cross by eigensolver rounding up to this times the scale
_CROSSING_TOL = 1e-9
# the cold start's distance from the boundary, in units of the scale
_THETA = 0.1
# a block family's face step is attempted once the incumbents' gap is within this
# fraction of the scale (a diagonal family's exact finish at any gap), on the matrices
# that pay within _FACE_GAPS gaps of the incumbent upper bound
_FACE_GAP = 0.1
_FACE_GAPS = 3.0
# Gauss-Newton iterations per attempt, and the fraction of the gap target that its
# residual must reach to stop sooner: half, since a certificate need only meet the
# target, and a tighter stop spends Gauss-Newton steps that rarely end a solve sooner
_FACE_ITERS = 4
_FACE_TARGET = 0.5

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SaddleConfig:
    """Solver knobs.

    max_iters: hard cap on Newton steps, an integer (not a bool).
    gap_tol: stop once upper - lower falls below this.
    """

    max_iters: int = 100
    gap_tol: float = 1e-4

    def __post_init__(self):
        k = self.max_iters
        if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
            raise ValueError(f"max_iters must be an integer of at least 1, got {k!r}")
        if not self.gap_tol > 0.0:
            raise ValueError("gap_tol must be positive")


@dataclass(frozen=True, eq=False)
class SaddleCertificate:
    """Two-sided bracket on the saddle value with the strategies attaining it.

    For solve_minimax, upper is upper_value(x_bar) and lower is
    lower_value(y_bar); for solve_maximin, lower is min_i <A_i, x_bar> by
    the stacked contraction of best_response_index and upper is the largest
    eigenvalue of weighted_combination(y_bar). Either recompute from the
    stored strategies reproduces the stored floats. gap is not passed in:
    it is derived as upper - lower, and can only be negative by eigensolver
    rounding, never below -1e-9 times scale, the instance's max_i ||A_i||_2.
    iterations counts the Newton steps taken; it is 0 for the all-zero
    family and for a diagonal family of at most n + 1 matrices that its exact
    finish closes before any step.
    """

    upper: float
    lower: float
    gap: float = field(init=False)
    x_bar: SpectraplexPoint
    y_bar: SimplexPoint
    iterations: int
    converged: bool
    scale: float

    def __post_init__(self):
        object.__setattr__(self, "gap", self.upper - self.lower)
        if not self.gap >= -_CROSSING_TOL * self.scale:  # a NaN gap fails too
            raise ValueError(f"bound crossing beyond tolerance: gap={self.gap!r}")

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.upper + self.lower)


def upper_value(x: SpectraplexPoint, inst: InstanceSet) -> float:
    """max_i <A_i, X>: the value the min player guarantees by playing X."""
    return best_response_index(x, inst)[1]


def lower_value(y: SimplexPoint, inst: InstanceSet) -> float:
    """lambda_min(sum_i y_i A_i): the value the max player guarantees by y."""
    return float(_eigvals_raw(weighted_combination(y, inst))[0])


def _bracket(stack: np.ndarray, xs: np.ndarray, ys: np.ndarray):
    """Clip each X of ``xs`` to the spectraplex and each y of ``ys`` to the simplex, and
    bracket the clipped points exactly on all m matrices of ``stack``.

    An X that is not finite is dropped before the eigh call; any other keeps its
    eigenvalues' positive parts, is symmetrised and scaled to unit trace, and is dropped
    if nothing positive is left. A y keeps its positive weights, scaled to sum 1, and is
    dropped if none is positive or their sum is not finite. Returns (x_bars, pays, y_bars,
    los), pays[j] being the payoffs <A_i, x_bars[j]> and los[j] = lambda_min(sum_i
    y_bars[j]_i A_i), by one eigh call on ``xs`` and one eigenvalue call on the
    combinations. The contractions are ``upper_value``'s and ``lower_value``'s, point by
    point, so each bound recomputes bit for bit from its strategy alone.
    """
    if not np.isfinite(xs).all():  # the Newton point's X may not be finite
        xs = xs[np.isfinite(xs).all(axis=(1, 2))]
    lam, vec = _eigh_raw(xs)
    x_bars = (vec * np.maximum(lam, 0.0)[:, None]) @ vec.transpose(0, 2, 1)
    tr = x_bars.trace(axis1=1, axis2=2)
    if not (keep := tr > 0.0).all():  # the Newton point's X may clip to zero
        x_bars, tr = x_bars[keep], tr[keep]
    x_bars = (x_bars + x_bars.transpose(0, 2, 1)) / (2.0 * tr[:, None, None])
    y_bars = np.maximum(ys, 0.0)
    # the Newton point's y may clip to zero, or not be finite, its sum then NaN or inf
    if not (keep := (0.0 < (tot := y_bars.sum(axis=1))) & (tot < np.inf)).all():
        y_bars, tot = y_bars[keep], tot[keep]
    y_bars /= tot[:, None]
    pays = np.array([_payoffs(stack, x_bar) for x_bar in x_bars])
    los = _eigvals_raw(np.array([_combination(y_bar, stack) for y_bar in y_bars]))[:, 0]
    return x_bars, pays, y_bars, los


def _tril_inv(l: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix by halves, mostly matrix products.

    Written over ``l``, which it returns: each diagonal half is inverted in place, then
    the lower-left block becomes -inv(L22) L21 inv(L11), and the upper-right block keeps
    l's zeros. Halves of order below 32 go to ``np.linalg.inv``.
    """
    k = len(l) // 2
    if k < 16:
        l[...] = np.linalg.inv(l)
        return l
    _tril_inv(l[:k, :k]), _tril_inv(l[k:, k:])
    l[k:, :k] = -l[k:, k:] @ l[k:, :k] @ l[:k, :k]
    return l


def _schur_cholesky(schur: np.ndarray) -> np.ndarray:
    """Cholesky factor of the Schur matrix; where that breaks down, of the matrix with
    1e-14, 1e-12, ..., 1e-6 times its largest diagonal entry added to its diagonal, the
    first that factors. A retry writes its diagonal over the one of ``schur``, which is
    copied at the first breakdown: a matrix that factors at once is not copied."""
    diag = None
    for eps in (1e-14, 1e-12, 1e-10, 1e-8, 1e-6, None):
        try:
            return np.linalg.cholesky(schur)
        except np.linalg.LinAlgError:
            if eps is None:
                raise
            diag = schur.diagonal().copy() if diag is None else diag
            schur.flat[:: len(schur) + 1] = diag + eps * diag.max()


def _is_diagonal(stack: np.ndarray) -> bool:
    """True when every A_k is exactly zero off its diagonal: an entry, however small,
    makes the family not diagonal."""
    near = stack.any(axis=0)
    np.fill_diagonal(near, False)
    return not near.any()


def _newton_steps(stack: np.ndarray, work, sigma: float, scale: float, warm=None):
    """Mehrotra predictor-corrector with the HKM direction on diag(X, s, delta).

    Top blocks F_k = A_k / scale + sigma*I for the m matrices of ``stack`` that the mask
    ``work`` marks (k < m) and F_m = I; dual multipliers u, slacks (Z, w, z). X and Z are
    one dense n x n block each, whatever the family: a diagonal family's stay exactly
    zero off their diagonals, since every product of the step keeps them so. s and delta
    form one vector v = (s, delta) with slack g = (w, z); G is the matrix of v's terms in
    the m+1 constraints. The Schur matrix is the block's term plus s's and delta's; the
    residuals, mu and the affine gap add the block's terms to the vector's, and each step
    length is the lesser of the block's and the vector's.

    The start is strictly feasible, theta = ``_THETA`` from the boundary: X = I/n,
    delta = max_k <F_k, X> + theta and s_k = delta - <F_k, X>; u_k = -(1 - theta)/m,
    and u_m is theta below the least eigenvalue of the combination (1 - theta) sum_k
    F_k / m, so that the least of Z's eigenvalues is theta, w = (1 - theta)/m and z =
    theta. ``warm`` = (X, u, kept), an earlier solve's on the matrices ``kept`` marks,
    makes the start 0.8 times it plus 0.2 times that point, margin 0.2 theta included,
    which is strictly feasible too. The residuals only absorb rounding
    drift. A Schur matrix that does not factor is retried with a growing multiple of
    its largest diagonal entry added to its diagonal (``_schur_cholesky``). Each
    Newton step yields (X, U, mu, False), stacks of the n x n X and of u at the damped
    iterate, then at the undamped Newton point X + dX, u + du; a Cholesky breakdown that
    no retry mends yields the iterate it started from alone with True, and ends the
    iteration.
    """
    m, n = int(work.sum()), stack.shape[1]
    i = np.arange(n)
    # i is arange(n), so this identity fancy index changes no value: the copy is kept for
    # its layout, not C-contiguous but with the batch axis innermost (strides (8, 160,
    # 40) for a (5, 4, 4) stack), which the products below read bit for bit. With f =
    # tops, the dense and wide digests move and the 1e-12 fuzz stops short 21 + 22
    # times, over its 18 + 23 gate. Freeing tops lowers the solver's peak memory
    tops = np.concatenate([_shifted(stack[work], sigma, scale), _eye(n)[None]])
    f = tops[:, i[:, None], i]
    del tops
    ff, x = f.reshape(m + 1, -1), _eye(n) / n
    cost = np.zeros(m + 1)
    cost[-1] = 1.0

    def lp(v):
        # G v: s_k - delta in row k < m
        r = v - v[-1]
        r[m] = 0.0
        return r

    def lp_t(u):
        # G^T u, so that g = cost - G^T u
        return np.concatenate((u[:m], -u[:m].sum(keepdims=True)))

    u = np.append(np.full(m, (_THETA - 1.0) / m), 0.0)
    u[m] = _eigvals_raw(-(u @ ff).reshape(x.shape))[0] - _THETA
    margin = _THETA
    if warm is not None:
        last, u_last, kept = warm
        u, margin = 0.2 * u, 0.2 * _THETA
        u[np.append(kept, True)] += 0.8 * u_last
        x = 0.8 * last + 0.2 * x
    v = np.empty(m + 1)
    v[:-1] = ff[:m] @ x.reshape(-1)  # <F_k, X> until s is set
    v[-1] = v[:-1].max() + margin
    v[:-1] = v[-1] - v[:-1]
    z = -(u @ ff).reshape(x.shape)
    g = cost - lp_t(u)

    def step(x, z, v, u, g, mu):
        # one predictor-corrector step: (xs, Z, v, us, g) after it; its temporaries die
        # with it, before the caller brackets and attempts the face
        rp, rg, r = -lp(v) - ff @ x.reshape(-1), cost - lp_t(u) - g, v / g
        rd = -(u @ ff).reshape(z.shape) - z
        # the inverse Cholesky factors of X and Z, and Z^-1
        rr = np.linalg.inv(np.linalg.cholesky(np.array((x, z))))
        zi = rr[1].T @ rr[1]
        schur = ff @ (x @ f @ zi).reshape(m + 1, -1).T
        xrz = x @ rd @ zi
        rp[m] += 1.0
        # s/w + delta/z on the diagonal and delta/z off it, added in place
        diag = schur.diagonal()[:m] + (r[:-1] + r[-1])
        schur[:m, :m] += r[-1]
        schur.reshape(-1)[: m * (m + 2) : m + 2] = diag
        li = _schur_cholesky(schur)
        del schur  # dead once factored; freeing it lowers the solver's peak memory
        _tril_inv(li)

        def newton(rczi, rcv):
            # X dZ + dX Z = Rc and v dg + dv g = rcv, rczi being Rc Z^-1, and the step
            # lengths: 0.95 of the way to each cone's boundary, at most 1
            rhs = rp - ff @ (rczi - xrz).reshape(-1)
            du = li.T @ (li @ (rhs - lp((rcv - v * rg) / g)))
            dg = rg - lp_t(du)
            dv = (rcv - v * dg) / g
            ap, ad = max(-(dv / v).min(), 0.95), max(-(dg / g).min(), 0.95)
            dz = rd - (du @ ff).reshape(rd.shape)
            dx = rczi - x @ dz @ zi
            dx = (dx + dx.T) / 2.0
            low = _eigvals_raw(rr @ np.array((dx, dz)) @ rr.transpose(0, 2, 1))[:, 0]
            return dx, dv, du, dz, dg, 0.95 / max(ap, -low[0]), 0.95 / max(ad, -low[1])

        dx, dv, du, dz, dg, ap, ad = newton(-x, -v * g)
        gap_aff = (v + ap * dv) @ (g + ad * dg) + np.vdot(x + ap * dx, z + ad * dz)
        tau = mu * min(1.0, gap_aff / (mu * (n + m + 1))) ** 3
        dx, dv, du, dz, dg, ap, ad = newton(tau * zi - x - dx @ dz @ zi,
                                            tau - v * g - dv * dg)
        return (np.array((x + ap * dx, x + dx)), z + ad * dz, v + ap * dv,
                np.array((u + ad * du, u + du)), g + ad * dg)

    breakdown = False
    while not breakdown:
        # mu before any factorisation, so that a breakdown round logs it
        mu = (v @ g + np.vdot(x, z)) / (n + m + 1)
        try:
            xs, z, v, us, g = step(x, z, v, u, g, mu)
            x, u = xs[0], us[0]
        except np.linalg.LinAlgError:
            breakdown, xs, us = True, x[None], u[None]
        yield xs, us, mu, breakdown


@cache
def _kept_pairs(ns: int, n: int) -> tuple[np.ndarray, ...]:
    """``_face_step``'s kept pairs j <= l of S x S (|S| = ns, X of order n), read-only: the
    flat indices of (j, l) and (l, j) in S x S and in X, and 1 on the diagonal, 2 off it."""
    tj, tl = _triu(ns)
    pairs = (tj * ns + tl, tl * ns + tj, tj * n + tl, tl * n + tj, np.where(tj == tl, 1.0, 2.0))
    for a in pairs:
        a.flags.writeable = False
    return pairs


def _face_step(stack: np.ndarray, scale: float, face: np.ndarray, x: np.ndarray,
               y: np.ndarray, lower: float, upper: float, tol: float):
    """Gauss-Newton on the optimality system of a block family's face ``face``, from the
    incumbents.

    In units of the scale, the unknowns are X, y on the face, lambda and v; the equations
    are <A_i, X> = v on the face, tr X = 1, sum y = 1 and sym(Z X) = 0, with Z = sum_face
    y_i A_i - lambda I. Each step solves for X's entries between Z's leading eigenvectors
    S and eliminates the others. The system is square, and at a strictly complementary,
    nondegenerate optimum its Jacobian is regular (Alizadeh, Haeberly & Overton, Math.
    Program. 1997), so Newton converges quadratically there. On a degenerate face, where
    a matrix repeated on it leaves y's split among the copies free, the Jacobian is
    singular and the step is the minimum-norm one. It starts at (x, y on the face, lower,
    upper) and stops once the largest residual is ``_FACE_TARGET`` (half) times the gap
    target ``tol`` or less, after ``_FACE_ITERS`` steps, or as soon as a step does not
    shrink it (a step that cannot be solved for, or whose point is not finite, does not:
    it stops before Z's eigh reads that point). One debug line logs |face|, the steps
    taken and "converged", "capped" or "stalled". Returns the n x n X and the m weights,
    zero off the face, of the last point that shrank the residual, neither of them
    clipped, or None if no step did.
    """
    m, n, _ = stack.shape
    k, flat, eye = len(face), stack.reshape(m, -1), _eye(n)
    yf = np.zeros(m)  # the weights on all m

    def newton(point, eig):
        # One Newton step at point = (X, y, lambda, v), the minimum-norm one where the
        # Jacobian is singular; LinAlgError if even that fails.
        # It solves for X's entries (j <= l) between the eigenvectors S, Z's first ns
        # with ns = #{j : zeta_j <= |X_jj|}, with dy, dlambda and dv. X's other entries
        # are eliminated, X + dX = -(sym(dZ X) - dlambda X) / h on them (h = (zeta_j +
        # zeta_l)/2 in Z's eigenbasis), and of their terms, those that X's entries off
        # S x S multiply are dropped: they vanish on the face, so the step still converges
        # quadratically, and it reads the rotated face on the columns S only, not as a
        # (k, n, n) array.
        x, y, lam, v = point
        q, xt, h, ns = eig
        ps, ts, pc, tc, mult = _kept_pairs(ns, n)
        w = 1.0 / h
        w[:ns, :ns] = 0.0
        # T_i = Q^T A_i Q_S, and the identity's; X T_i on the rows S, whose symmetric part
        # is sym(A_i X) on S x S; W o (T_i X_SS + X T_i) on the rows off S, which is
        # 2 W o sym(A_i X) there less the dropped terms, and W o X
        tq = np.empty((k + 1, n, ns))
        tq[:k] = q.T @ (stack @ q[:, :ns]).take(face, axis=0)
        tq[:k] /= scale
        tq[k] = eye[:, :ns]
        ys = (xt[:ns] @ tq[:k]).reshape(k, -1)
        r = np.empty((k + 1, n - ns, ns))
        r[:k] = xt[ns:] @ tq[:k] + tq[:k, ns:] @ xt[:ns, :ns]
        r[k] = xt[ns:, :ns]
        r *= w[ns:, :ns]
        r = tq[:, ns:].reshape(k + 1, -1) @ r.reshape(k + 1, -1).T
        # the Jacobian's columns: the kept entries' new values, dy, dlambda and dv; its
        # rows: the face's payoffs, the trace, sum y, the kept complementarity
        coef, bk = (tq[:, :ns].reshape(k + 1, -1).take(ps, axis=1) * mult,
                    (ys.take(ps, axis=1) + ys.take(ts, axis=1)) / 2.0)
        del tq, ys  # dead once the columns are formed; freeing them lowers the peak
        nk = len(ps)
        jac = np.zeros((nk + k + 2, nk + k + 2))
        jac[: k + 1, :nk], jac[: k + 1, nk: nk + k] = coef, -r[:, :k]
        jac[: k + 1, nk + k] = r[:, k]
        jac[:k, -1], jac[k + 1, nk: nk + k] = -1.0, 1.0
        jac[k + 2:, nk: nk + k], jac[k + 2:, nk + k] = bk.T, -xt.take(pc)
        jac.reshape(-1)[(k + 2) * (nk + k + 2):: nk + k + 3][:nk] = h.take(pc)
        rhs = np.zeros(nk + k + 2)
        rhs[:k], rhs[k], rhs[k + 1] = v, 1.0, 1.0 - y.sum()
        try:
            sol = np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError:  # a degenerate face: the minimum-norm step
            sol = np.linalg.lstsq(jac, rhs, rcond=None)[0]
        del jac, coef, bk  # dead once solved; freeing them lowers the peak
        dy, dlam = sol[nk: nk + k], sol[nk + k]
        # sum_face dy_i A_i = dZ + dlambda I, and X + dX
        yf[face] = dy
        dz = yf @ flat / scale
        xs = q.T @ dz.reshape(n, n) @ q @ xt
        xs = -w * ((xs + xs.T) / 2.0 - dlam * xt)
        xs.put(pc, sol[:nk])
        xs.put(tc, sol[:nk])
        x = q @ xs @ q.T
        # a point that is not finite stops the attempt before Z's eigh reads it
        if not (np.isfinite(sol).all() and np.isfinite(x).all()):
            raise np.linalg.LinAlgError("the Newton step is not finite")
        return x, y + dy, lam + dlam, v + sol[-1]

    point = start = (x, y[face], lower / scale, upper / scale)
    best, res_best, its, outcome = None, np.inf, 0, "capped"
    with np.errstate(all="ignore"):  # a diverging step is caught by its residual
        while True:
            x, y, lam, v = point
            yf[face] = y
            z, xf = yf @ flat / scale, x.reshape(-1)
            # Z's eigensystem, zeta ascending, and |S|
            zeta, q = _eigh_raw(z.reshape(n, n))
            zeta -= lam
            xt = q.T @ x @ q
            h = np.add.outer(zeta, zeta) / 2.0
            eig = (q, xt, h, int((zeta <= np.abs(xt.diagonal())).sum()))
            res = np.abs(np.concatenate(((flat @ xf).take(face) / scale - v,
                                         [xf[:: n + 1].sum() - 1.0, y.sum() - 1.0],
                                         (h * xt).reshape(-1)))).max()
            if not res < res_best:
                outcome = "stalled"
                break
            res_best, best = res, point
            if res <= _FACE_TARGET * tol / scale:
                outcome = "converged"
                break
            if its == _FACE_ITERS:
                break
            its += 1
            try:
                point = newton(point, eig)
            except np.linalg.LinAlgError:
                outcome = "stalled"
                break
    logger.debug("face step on %d matrices: %d Gauss-Newton steps, %s", k, its, outcome)
    if best is None or best is start:
        return None
    yf[:] = 0.0
    yf[face] = best[1]
    return best[0], yf


def _pivot(tab: list[list[int]], r: int, c: int, prev: int) -> int:
    """One fraction-free (Bareiss) pivot on ``tab[r][c]``, in place.

    Every other row becomes (p * row - row[c] * pivot row) // prev, where p
    is the pivot and prev the pivot before it (1 at the start); the pivot
    row is kept. By Sylvester's identity the entries are then minors of the
    starting table, so the division is exact and the work stays in Python
    ints (Edmonds, J. Res. NBS 1967): each entry is the rational table's
    entry times p, the determinant of the pivoted columns up to sign.
    Returns p, the prev of the next pivot.
    """
    top = tab[r]
    p = top[c]
    for i, row in enumerate(tab):
        if i != r:
            f = row[c]
            tab[i] = [(p * a - f * b) // prev for a, b in zip(row, top)]
    return p


def _integers(rows) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Rows of floats as rows of ints with the same ratios, and the factor between them.

    Each float is a dyadic rational p / q in lowest terms; scaled by the common
    denominator ``den`` of them all, every entry is an int, and a game's value scales
    with it. Returns (the int rows, den), the rows as tuples: ``_simplex`` remembers its
    last solve by the payoff, which must therefore be hashable and never change.
    """
    exact = [[x.as_integer_ratio() for x in row] for row in rows]
    den = math.lcm(*[q for row in exact for _, q in row])
    return tuple(map(tuple, [[p * (den // q) for p, q in row] for row in exact])), den


def _simplex(payoff: tuple[tuple[int, ...], ...], rows) -> tuple[tuple, tuple, int, int]:
    """The exact equilibrium of the game of int ``payoff`` rows, solved first on ``rows``.

    The maximizer picks a row i, the minimizer a column j. With every entry of B = A +
    shift at least 1, max sum(u) s.t. B u <= 1, u >= 0 over the rows solved is bounded
    with optimum 1 / (value + shift), and at the optimum u and the slack duals rescale to
    the minimizer's x and the maximizer's y. The tableau starts from the slack basis and
    every step is one fraction-free ``_pivot``, so no entry is ever a fraction. Bland's
    rule (Math. Oper. Res. 1977) picks the lowest-index column with a negative reduced
    cost and, among rows tied in the ratio test, the lowest basic index, so degenerate
    games cannot cycle. Then every row of the whole game is checked exactly at x: each
    row not yet solved on that pays more than the value is added, and the simplex runs
    again from the slack basis on the larger set, until none does. The equilibrium is
    then checked exactly, once, on the whole game: x and y are nonnegative and sum to z,
    and max_i (A x)_i = v = min_j (y^T A)_j; RuntimeError if not. Returns (x, y, z, v):
    the strategies x / z and y / z as tuples (y zero off the rows solved on) and the
    value v / z.

    The last solve is remembered: ``_solve_game``, a one-entry ``lru_cache``, is keyed on
    the payoff, a tuple of tuples (``_integers``), and the tuple of ``rows`` in their
    order. A second call on the same game and rows, such as ``classic_value_exact`` after
    the solver's finish on all of a game's rows, makes no pivot and returns the same
    tuples, bit for bit. A call that raises is not remembered. Each call that returns
    logs one debug line, from the remembered counts on a repeat: the rows first solved
    on, the rows added and the simplex rounds.
    """
    x, y, z, v, added, rounds = _solve_game(payoff, tuple(rows))
    logger.debug("exact finish on %d rows: %d rows added, %d simplex rounds", len(rows),
                 added, rounds)
    return x, y, z, v


@lru_cache(maxsize=1)
def _solve_game(payoff: tuple[tuple[int, ...], ...], rows: tuple[int, ...]) -> tuple:
    """``_simplex``'s solve of the game on ``rows``, remembered for the last arguments:
    (x, y, z, v) with x and y as tuples, then the rows added and the simplex rounds."""
    m, n = len(payoff), len(payoff[0])
    shift = 1 - min(map(min, payoff))
    rows, rounds = list(rows), 0
    first = len(rows)
    while True:
        rounds, k = rounds + 1, len(rows)
        # row l reads (B u)_l + s_l = 1; the last row is the objective, whose reduced
        # costs start at -1 on u and 0 on the slacks s
        tab = [[a + shift for a in payoff[i]] + [int(j == l) for j in range(k)] + [1]
               for l, i in enumerate(rows)]
        tab.append([-1] * n + [0] * (k + 1))
        basis, d = list(range(n, n + k)), 1
        while (c := next((j for j, rc in enumerate(tab[k][:-1]) if rc < 0), None)) is not None:
            # ratio test by cross-multiplication, every table row sharing the positive
            # factor d; B u <= 1 is bounded, so some entry is positive
            r = None
            for i in range(k):
                a = tab[i][c]
                if a > 0:
                    if r is None:
                        r = i
                        continue
                    lhs, rhs = tab[i][-1] * tab[r][c], tab[r][-1] * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[r]):
                        r = i
            d = _pivot(tab, r, c, d)
            basis[r] = c
        # the optimum sum(u) is z / d, so value + shift = d / z; the strategies are read
        # off scaled by z, which keeps the checks in ints
        z, x = tab[k][-1], [0] * n
        for i, b in enumerate(basis):
            if b < n:
                x[b] = tab[i][-1]
        v = d - shift * z
        pays = [sum(map(mul, row, x)) for row in payoff]
        added = [i for i, pay in enumerate(pays) if pay > v and i not in rows]
        if not added:
            break
        rows += added
    y = [0] * m
    for l, i in enumerate(rows):
        y[i] = tab[k][n + l]
    if (min(x) < 0 or min(y) < 0 or sum(x) != z or sum(y) != z or max(pays) != v
            or min([sum(map(mul, y, col)) for col in zip(*payoff)]) != v):
        raise RuntimeError("the simplex optimum is not an equilibrium")
    return tuple(x), tuple(y), z, v, k - first, rounds


def _finish(payoff: tuple[tuple[int, ...], ...], face: np.ndarray, n: int):
    """A diagonal family's exact finish on ``face``: ``_simplex`` on its int game
    ``payoff``, its x and y each divided by z and correctly rounded. Returns the n x n
    diagonal X and the m weights, as ``_face_step`` returns its point."""
    x, y, z, _ = _simplex(payoff, face.tolist())
    xd = np.zeros((n, n))
    xd.reshape(-1)[:: n + 1] = [a / z for a in x]  # int true division rounds correctly
    return xd, np.array([b / z for b in y])


def _attempt_faces(attempt, incumbents, q: int, gate: float, tol: float, stalled: bool):
    """One Newton step's face attempts: the policy that guesses, corrects and retries them.

    ``attempt(face)`` attempts the face, an index array of the matrices, brackets its
    point, if any, and returns (the point or None, whether an incumbent improved);
    ``incumbents()`` returns the payoffs at the incumbent X, and the incumbent upper and
    lower bounds, as they stand. While their gap exceeds ``tol`` and is at most ``gate``,
    the face is guessed as the matrices that pay within ``_FACE_GAPS`` (three) gaps of
    the upper bound, or, when the step is ``stalled`` (it improved neither incumbent) and
    that face holds more than q + 1 matrices, within one gap; a face of more than q + 1
    matrices (a nondegenerate optimum's dual support can hold no more) is not attempted.
    An attempt from interior incumbents may converge on a wrong face or stall. When its
    point weighs some face matrices at zero or below and others above, and the gap is
    open, the face loses the former and is attempted again at once (an active-set
    correction, once per guess). Otherwise, when its point improves an incumbent, the
    face is guessed again from the improved incumbents, once per step. An attempt that
    gives no point, or one that improves neither incumbent, is retried, once per step,
    on the matrices within one gap of the upper bound, that gap the guess's, if they are
    fewer than the face that failed; otherwise the step's attempts end. Two guesses, each
    corrected at most once, and one retry make at most five attempts per step. The retry
    compares only sizes, so after a correction its face may hold a matrix that the
    correction dropped.
    """
    retry = True
    for _ in range(2):
        pays, upper, lower = incumbents()
        if not tol < (gap := upper - lower) <= gate:
            return
        face = (pays >= upper - _FACE_GAPS * gap).nonzero()[0]
        if stalled and len(face) > q + 1:
            face = (pays >= upper - gap).nonzero()[0]
        if len(face) > q + 1:
            return
        correct = True
        while True:
            point, improved = attempt(face)
            pays, upper, lower = incumbents()
            if point is not None and correct and upper - lower > tol:
                pos = point[1].take(face) > 0.0
                if 0 < (kept := pos.sum()) < len(face):
                    logger.debug("face corrected: %d of %d matrices weigh above zero", kept,
                                 len(face))
                    face, correct = face[pos], False
                    continue
            if improved:
                break
            one = (pays >= upper - gap).nonzero()[0]
            if not retry or len(one) >= len(face):
                return
            face, retry = one, False


def _interior_point(stack: np.ndarray, spectra: np.ndarray, cfg: SaddleConfig, on_bounds):
    """``_newton_steps`` on a working set W of the matrices, bracketed on all m.

    ``spectra`` (each A_k's eigenvalues, in any order) give the scale max_i ||A_i||_2
    and sigma = max(0, -min_i lambda_min(A_i) / scale) + 1. Every family's steps are on
    one dense n x n block; whether the family is diagonal (``_is_diagonal``) decides only
    q, X's free coordinates (n for a diagonal family, n(n+1)/2 for any other), which
    sizes W and the face gate, the gate's gap and the attempt. W starts as the 3q
    matrices of largest trace, ties to the lower index. A diagonal family of
    m <= q + 1 matrices, which the face gate below admits whole, is first attempted on
    all m, before W is set up, and its point is bracketed as any; if that meets
    cfg.gap_tol, the solve returns with 0 steps, and otherwise the steps start from those
    incumbents. After each step, the damped iterate and the Newton point, their X and
    their -u[:-1] zero off W, are clipped and bracketed on the whole stack by
    ``_bracket``, one eigh and one eigenvalue call on the pair. Then ``_attempt_faces``
    makes the step's face attempts, gated at ``_FACE_GAP`` times the scale for a block
    family and at any gap for a diagonal one, and each attempt's point, if any, is
    bracketed too. A diagonal family's attempt is ``_finish``, the exact simplex on the
    face's rows of its game, converted to ints (``_integers``) once per solve; a block
    family's is ``_face_step``, from the incumbents. The best of each side over all
    rounds is kept with its strategy, and ``on_bounds(k, upper, lower)``, if given, sees
    the pair. When some matrix outside W pays more at the iterate's X than all of W, all
    such join W and a new round starts warm from the iterate. Stops at cfg.gap_tol,
    after cfg.max_iters steps in all, or at a breakdown. Returns (upper, lower, x_bar,
    y_bar, steps, scale), steps being 0 when the finish before the first step closes the
    solve, or (0, 0, I/n, 1/m, 0, 0) for an all-zero family.
    """
    m, n, _ = stack.shape
    scale = float(np.abs(spectra).max())
    if scale == 0.0:
        return 0.0, 0.0, _eye(n) / n, np.full(m, 1.0 / m), 0, scale
    diagonal, sigma = _is_diagonal(stack), _shift(spectra, scale)
    # a diagonal family's game, in ints, for its exact finish
    payoff = _integers(stack.diagonal(axis1=1, axis2=2).tolist())[0] if diagonal else None
    q, gate = (n, np.inf) if diagonal else (n * (n + 1) // 2, _FACE_GAP * scale)
    upper, lower, k, warm = np.inf, -np.inf, 0, None
    best = [None, None, None]  # the incumbent x_bar, its payoffs, and y_bar

    def better(x_bars, pays, y_bars, los):
        # keeps the best of each side; True if either incumbent improved
        nonlocal upper, lower
        was = upper, lower
        for up, x_bar, pay in zip(pays.max(axis=1).tolist(), x_bars, pays):
            if up < upper:
                upper, best[0], best[1] = up, x_bar, pay
        for lo, y_bar in zip(los.tolist(), y_bars):
            if lo > lower:
                lower, best[2] = lo, y_bar
        return (upper, lower) != was

    def attempt(face):
        # the face's attempt and its point's bracket: (the point or None, improved)
        point = _finish(payoff, face, n) if diagonal else _face_step(
            stack, scale, face, best[0], best[2], lower, upper, cfg.gap_tol)
        return point, point is not None and better(
            *_bracket(stack, point[0][None], point[1][None]))

    # a diagonal family that the face gate admits whole is finished before any step
    if diagonal and m <= q + 1:
        attempt(np.arange(m))
        if upper - lower <= cfg.gap_tol:
            return upper, lower, best[0], best[2], 0, scale
    work = np.zeros(m, dtype=bool)
    work[np.argsort(-stack.trace(axis1=1, axis2=2), kind="stable")[: 3 * q]] = True

    while True:
        for full, us, mu, breakdown in _newton_steps(stack, work, sigma, scale, warm):
            k += 1
            ys = np.zeros((len(us), m))
            ys[:, work] = -us[:, :-1]
            x_bars, pays, y_bars, los = _bracket(stack, full, ys)
            # the step's face attempts, stalled if its bracket improved neither incumbent
            _attempt_faces(attempt, lambda: (best[1], upper, lower), q, gate, cfg.gap_tol,
                           not better(x_bars, pays, y_bars, los))
            if on_bounds is not None:
                on_bounds(k, upper, lower)
            if logger.isEnabledFor(logging.DEBUG):
                logger.debug("round %d: upper=%.12g lower=%.12g mu=%.3e", k, pays[0].max(),
                             los[0], mu)
            if breakdown or upper - lower <= cfg.gap_tol or k == cfg.max_iters:
                return upper, lower, best[0], best[2], k, scale
            # the damped iterate alone steers the working set
            if (top := pays[0][work].max()) < pays[0].max():
                break
        grown = work | (pays[0] > top)
        warm, work = (full[0], us[0], work[grown]), grown
        logger.debug("working set grows to %d of %d matrices", work.sum(), m)


def _certificate(upper, lower, x_bar, y_bar, iterations, scale, cfg) -> SaddleCertificate:
    """Certificate at the loop's incumbents, with their bounds as they are."""
    return SaddleCertificate(
        upper=upper,
        lower=lower,
        x_bar=SpectraplexPoint(x_bar),
        y_bar=SimplexPoint(y_bar),
        iterations=iterations,
        converged=bool(upper - lower <= cfg.gap_tol),
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
    is invoked once per Newton step, so never on a solve of 0 iterations:
    the all-zero family, or a diagonal family of at most n + 1 matrices
    that its exact finish closes before any step.
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
    (so ``-inst.spectra`` holds the negated family's spectra, in reverse order).
    ``on_bounds(k, best_upper, best_lower)`` is invoked once per Newton
    step, in maximin sense.
    """
    cfg = cfg if cfg is not None else SaddleConfig()
    # 0.0 - b is -b bit for bit, except that a bound of 0.0 stays +0.0
    mirrored = None if on_bounds is None else lambda k, up, lo: on_bounds(k, 0.0 - lo, 0.0 - up)
    up, lo, *rest = _interior_point(-inst.stacked, -inst.spectra, cfg, mirrored)
    return _certificate(0.0 - lo, 0.0 - up, *rest, cfg)
