"""Block semidefinite embedding of the matrix saddle problem.

The minimax value can be read off a single semidefinite program over block
matrices of order n' = n + m + 1. Writing A_sig,i = A_i + sigma*I for a
scalar shift sigma, the program has the block matrices

    F_i = diag(A_sig,i, E_i, -1)   (E_i: unit in slot i), i = 1 .. m
    E   = diag(I_n, 0, ..., 0)
    C   = unit in the last diagonal slot

The primal program minimizes the last diagonal entry delta of a PSD block
variable X' = diag(X, s_1 .. s_m, delta) subject to <F_i, X'> = 0 and
<E, X'> = 1; at the optimum delta equals the shifted saddle value. The dual
maximizes t subject to sum_i u_i F_i + t E + S = C with S PSD, and the
simplex strategy is recovered from u by sign flip and rescaling. The shift
exists to keep the optimal delta nonnegative (a PSD diagonal entry cannot
be negative, so without it instances with negative value would be cut
off). It is read off the instance, sigma = max(0, -min_i lambda_min(A_i))
+ 1, so the shifted value is at least 1, and all reported values are
mapped back by subtracting sigma; no other shift can be chosen. ``_shift``
and ``_shifted`` write the rule and the tops once, with a unit: 1 here,
the scale in ``saddle``, which solves this program.

Every block is fixed by the instance, sigma included, so an
``SdpEmbedding`` stores just the instance and the sigma it derives; the
readers below work on the stacked tops A_sig,i and the known unit slots
and corners, and no (n')^2 matrix is formed. A lift keeps its embedding,
takes its free variables and derives the rest: a primal lift takes X and
its least slack, the margin, and derives delta and the slacks, a dual lift
takes u and t and derives its slack. Each fact is checked once, by the
type that carries it, and a function handed a lift refuses the embedding
of another instance. The two interior-point constructors certify strict
feasibility on both sides, which makes the optimum attained and equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .domains import InstanceSet, SimplexPoint, SpectraplexPoint, _combination, _payoffs
from .symmat import _eigvals_raw

__all__ = [
    "SdpEmbedding",
    "PrimalLift",
    "DualLift",
    "ExtractedDual",
    "DualInfeasibleError",
    "DegenerateMultiplierError",
    "build_embedding",
    "lift_primal",
    "interior_primal_point",
    "lift_dual",
    "interior_dual_point",
    "extract_dual",
    "weak_duality_check",
    "sdpa_text",
]

# how far below zero a lift's least eigenvalue may round, and how large its
# measured equality residuals may be
_PSD_TOL = 1e-10
_RESIDUAL_TOL = 1e-10
# extraction cannot rescale weights summing to at most this
_DEGENERATE_SUM = 1e-12


class DualInfeasibleError(ValueError):
    """A proposed dual pair fails positive semidefiniteness; the message
    names the violated block."""


class DegenerateMultiplierError(ValueError):
    """Dual extraction met multipliers summing to (numerical) zero with a
    positive bound, which no feasible lift can produce."""


@dataclass(frozen=True, eq=False)
class SdpEmbedding:
    """The embedded semidefinite program of an instance, which fixes every
    block matrix F_i, E and C. ``shift`` is sigma, derived from ``inst.spectra``
    by ``_shift`` with unit 1; it cannot be set."""

    inst: InstanceSet
    shift: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "shift", _shift(self.inst.spectra, 1.0))

    @property
    def n(self) -> int:
        return self.inst.n

    @property
    def m(self) -> int:
        return self.inst.m


def _shift(spectra: np.ndarray, unit: float) -> float:
    """sigma in units of ``unit``: max(0, -lambda / unit) + 1, lambda the least
    entry of ``spectra``, which holds every A_i's eigenvalues in any order."""
    return max(0.0, -float(spectra.min()) / unit) + 1.0


def _shifted(stack: np.ndarray, sigma: float, unit: float) -> np.ndarray:
    """The (m, n, n) shifted tops A_i / unit + sigma*I, formed in one array."""
    tops = stack / unit
    tops += sigma * _eye(stack.shape[-1])
    return tops


def _tops(emb: SdpEmbedding) -> np.ndarray:
    """(m, n, n) stack of the top-left blocks A_i + sigma*I of the F_i."""
    return _shifted(emb.inst.stacked, emb.shift, 1.0)


@cache
def _triu(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n)``, the rows and columns of the upper triangle in row-major
    order, built once per order and read-only."""
    rows, cols = np.triu_indices(n)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


@cache
def _eye(n: int) -> np.ndarray:
    """``np.eye(n)``, built once per order and read-only."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _check_instance(inst: InstanceSet, emb: SdpEmbedding) -> None:
    """Raise unless ``emb`` is an embedding built for ``inst``: the same
    object, or an equal stack. The identity test costs nothing."""
    if not isinstance(emb, SdpEmbedding):
        raise TypeError(f"expected an SdpEmbedding, got {type(emb).__name__}")
    if inst is not emb.inst and not np.array_equal(inst.stacked, emb.inst.stacked):
        raise ValueError("the embedding was built for a different instance")


def _check_lift(lift, kind: type, emb: SdpEmbedding) -> None:
    """Raise unless ``lift`` is a ``kind`` whose embedding is ``emb``'s."""
    if not isinstance(lift, kind):
        raise TypeError(f"expected a {kind.__name__}, got {type(lift).__name__}")
    _check_instance(lift.emb.inst, emb)


def _readonly(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class PrimalLift:
    """Primal block variable X' = diag(X, s, delta) of an embedding, held as
    its blocks, with the constraint residuals it measures on them.

    Built from the embedding, X and a finite margin >= 0 alone. X is a
    ``SpectraplexPoint``, whose own gates hold it PSD with <E, X'> = tr X = 1.
    delta is max_i <A_i + sigma*I, X> plus the margin, and the equalities fix
    s_i = delta - <A_i + sigma*I, X>, so the least slack is the margin: zero at a
    best-response index with margin 0. The lift checks delta at least -1e-10,
    then measures residuals[i] = |<F_i, X'>| by a second contraction and rejects
    any above 1e-10.
    """

    emb: SdpEmbedding = field(repr=False)
    x: SpectraplexPoint
    margin: float = field(default=0.0, kw_only=True)
    delta: float = field(init=False)
    slacks: np.ndarray = field(init=False)
    residuals: np.ndarray = field(init=False)

    def __post_init__(self):
        if not isinstance(self.x, SpectraplexPoint):
            raise TypeError(f"x must be a SpectraplexPoint, got {type(self.x).__name__}")
        emb, x = self.emb, self.x.array
        if x.shape != (emb.n, emb.n):
            raise ValueError("block shapes do not match the embedding")
        if not np.isfinite(self.margin):
            raise ValueError(f"margin must be finite, got {float(self.margin)!r}")
        if self.margin < 0.0:
            raise ValueError("margin must be nonnegative")
        tops = _tops(emb)
        payoffs = _payoffs(tops, x)
        delta = float(payoffs.max() + self.margin)
        if not delta >= -_PSD_TOL:
            # sigma makes every <A_i + sigma*I, X> at least 1 for PSD X of unit trace
            raise ValueError(
                f"embedded objective would be negative (delta={delta!r}): X's negative "
                "eigenvalues outweigh the shift at the instance's scale"
            )
        slacks = _readonly(delta - payoffs)
        # einsum, not the slacks' product: the residuals measure how far the two disagree
        residuals = _readonly(np.abs(np.einsum("kij,ij->k", tops, x) + slacks - delta))
        if not residuals.max(initial=0.0) <= _RESIDUAL_TOL:
            raise ValueError(f"constraint residual too large: {float(residuals.max())!r}")
        for name, value in (("delta", delta), ("slacks", slacks), ("residuals", residuals)):
            object.__setattr__(self, name, value)

    @property
    def objective(self) -> float:
        """The delta slot: value of the embedded primal objective."""
        return self.delta


@dataclass(frozen=True, eq=False)
class DualLift:
    """Dual pair (multipliers u, bound t) of an embedding with its slack
    S = C - sum_i u_i F_i - t E, held as its top n x n block and its corner.

    Built from the embedding, finite u of shape (m,) and finite t alone; S is
    derived from them, so it meets the dual equality by definition and the lift
    carries no residual. ``top`` is sum_i (0 - u_i)(A_i + sigma*I) - t*I, index
    slot i is 0 - u_i and is not stored, and ``corner`` is 1 + sum_i u_i. S is checked
    PSD at -1e-10: the top block's least eigenvalue, then the least diagonal
    entry (so each weight -u_i is at least -1e-10 and their sum at most 1 +
    1e-10), each failure a DualInfeasibleError naming its block;
    ``lambda_min`` is the least eigenvalue of S so found.
    """

    emb: SdpEmbedding = field(repr=False)
    multipliers: np.ndarray
    bound: float
    top: np.ndarray = field(init=False)
    corner: float = field(init=False)
    lambda_min: float = field(init=False)

    def __post_init__(self):
        emb, u = self.emb, _readonly(self.multipliers)
        if u.shape != (emb.m,):
            raise ValueError("block shapes do not match the embedding")
        if not (np.isfinite(u).all() and np.isfinite(self.bound)):
            raise ValueError(
                f"multipliers and bound must be finite, got bound {float(self.bound)!r}")
        top = _readonly(_combination(0.0 - u, _tops(emb)) - self.bound * _eye(emb.n))
        corner = 1.0 + float(u.sum())
        for name, value in (("multipliers", u), ("top", top), ("corner", corner)):
            object.__setattr__(self, name, value)
        lo = float(_eigvals_raw(top)[0])
        if not lo >= -_PSD_TOL:
            raise DualInfeasibleError(
                f"slack top-left {emb.n}x{emb.n} block is not PSD (lambda_min={lo:.6g}); "
                f"t={float(self.bound)!r} exceeds the weighted shifted eigenvalue bound"
            )
        diag = np.append(0.0 - u, corner)
        k = int(np.argmin(diag))
        if not diag[k] >= -_PSD_TOL:
            block = "corner entry" if k == u.size else f"diagonal entry for index {k}"
            raise DualInfeasibleError(f"slack {block} is negative ({diag[k]:.6g})")
        object.__setattr__(self, "lambda_min", min(lo, float(diag[k])))


@dataclass(frozen=True, eq=False)
class ExtractedDual:
    """Simplex strategy weights and value bound recovered from a dual lift.

    On the regular path ``weights`` is the rescaled strategy, the array of a
    validated ``SimplexPoint``, and ``lower_bound`` the certified bound on
    the original (unshifted) value. When the multipliers sum to numerical
    zero nothing can be rescaled; the raw clamped weights are reported with
    ``degenerate`` set.
    """

    weights: np.ndarray
    lower_bound: float
    degenerate: bool


def build_embedding(inst: InstanceSet) -> SdpEmbedding:
    """The embedding of an instance, whose shift keeps the embedded optimum at
    least 1. The blocks' entries are instance entries (plus sigma on the top
    diagonal), ones, and minus ones."""
    return SdpEmbedding(inst)


def lift_primal(x: SpectraplexPoint, inst: InstanceSet, emb: SdpEmbedding) -> PrimalLift:
    """Lift a spectraplex point to a feasible primal block variable.

    delta is set to max_i <A_i + sigma*I, X>, and the lift derives the slacks,
    which absorb the differences: the slack of a best-response index is exactly
    zero. The objective entry equals the shifted guarantee of X. A lift with a
    margin, every slack strictly positive, is ``PrimalLift(emb, x, margin=...)``.
    """
    _check_instance(inst, emb)
    return PrimalLift(emb, x)


def interior_primal_point(emb: SdpEmbedding) -> PrimalLift:
    """Strictly feasible primal point of the embedding's instance: X = I/n
    lifted with margin 1, so X is positive definite and all slack entries
    and delta are positive."""
    return PrimalLift(emb, SpectraplexPoint(_eye(emb.n) / emb.n), margin=1.0)


def lift_dual(y: SimplexPoint, t: float, inst: InstanceSet, emb: SdpEmbedding) -> DualLift:
    """Lift a simplex strategy and a shifted-value bound to a dual pair.

    t lives in shifted coordinates: the pair is feasible exactly when
    t <= lambda_min(sum_i y_i (A_i + sigma*I)). The multipliers are the
    sign-flipped weights -y; the lift's gates report infeasibility.
    """
    _check_instance(inst, emb)
    return DualLift(emb, -y.weights, float(t))


def interior_dual_point(emb: SdpEmbedding) -> DualLift:
    """Strictly feasible dual pair of the embedding's instance, with
    certified positive-definite slack.

    Multipliers -1/(2m) leave the simplex-sum slot at 1/2 and every index
    slot at 1/(2m); the bound t sits one unit below the corresponding
    weighted eigenvalue floor, so the top block has minimum eigenvalue one.
    """
    m = emb.m
    multipliers = np.full(m, -1.0 / (2.0 * m))
    combo = _combination(-multipliers, _tops(emb))
    t = float(_eigvals_raw(combo)[0]) - 1.0
    lift = DualLift(emb, multipliers, t)
    if not lift.lambda_min > 0.0:
        raise DualInfeasibleError(f"interior construction failed, lambda_min(S)={lift.lambda_min!r}")
    return lift


def extract_dual(lift: DualLift, emb: SdpEmbedding) -> ExtractedDual:
    """Recover a simplex strategy and an unshifted value bound from a
    DualLift of ``emb``'s instance, whose gates fix the weights' signs and sum.

    Flips the multiplier signs, clamps negative weights to zero and rescales
    by their sum w. The lift proves sum_i (-u_i)(A_i + sigma*I) >= (t +
    lambda_min) I, so the bound (t + min(0, lambda_min)) / w - sigma takes
    off the slack's defect before rescaling magnifies it (Jansson, Chaykin &
    Keil, SIAM J. Numer. Anal. 2007). A sum w of at most 1e-12 cannot be
    rescaled: with a positive t that is an error (no feasible lift produces
    it), else the clamped weights come back flagged degenerate, with t - sigma.
    """
    _check_lift(lift, DualLift, emb)
    w = -lift.multipliers
    w = np.where(w < 0.0, 0.0, w)
    total = float(w.sum())
    if total <= _DEGENERATE_SUM:
        if lift.bound > 0.0:
            raise DegenerateMultiplierError(
                f"weights sum to {total!r} while the bound {lift.bound!r} is positive"
            )
        return ExtractedDual(weights=w, lower_bound=lift.bound - emb.shift, degenerate=True)
    return ExtractedDual(
        weights=SimplexPoint(w / total).weights,
        lower_bound=(lift.bound + min(0.0, lift.lambda_min)) / total - emb.shift,
        degenerate=False,
    )


def weak_duality_check(p: PrimalLift, d: DualLift, emb: SdpEmbedding) -> float:
    """Primal objective minus dual objective, <C, X'> - t = delta - t, for a
    pair of lifts of ``emb``'s instance: at least 0 up to rounding, which grows
    with the entries (for a certificate's lifts it is the gap, as low as -1e-9
    times the scale), and 0 up to the solver gap at an optimal pair."""
    _check_lift(p, PrimalLift, emb)
    _check_lift(d, DualLift, emb)
    return p.objective - d.bound


def sdpa_text(emb: SdpEmbedding) -> str:
    """Serialize the embedding in sparse SDPA text form.

    Layout: a comment line recording the shift, the constraint count m+1, the
    block count (3), the block sizes "n -m -1" (diagonal blocks negative by
    convention), the objective vector (m zeros and a one, one entry per
    equality constraint), then one line per nonzero upper-triangle entry as
    "matno blkno i j value" (the value's repr, the shortest decimal that reads
    back as its double) with matno 0 for the objective matrix C, 1..m for the
    constraint matrices F_i, and m+1 for the trace matrix E. Entries are
    emitted in ascending (matno, blkno, i, j) order with 1-based in-block
    indices, so the output is byte-stable across runs. Only the upper
    triangles of the tops A_i + sigma*I are walked; the unit slots and corners
    are known and written directly. Each matrix's lines become one string, from
    a %-template cached per pattern of nonzero slots, and those strings are
    joined once, so the export never holds one string per entry: its peak is
    about twice the text (0.49 MiB at n=8, m=200).
    """
    n, m = emb.n, emb.m
    parts = [f"*shift {emb.shift!r}", str(m + 1), "3", f"{n} -{m} -1"]
    parts.append(" ".join(["0.0"] * m) + " 1.0")
    parts.append("0 3 1 1 1.0")
    rows, cols = _triu(n)
    tops = _tops(emb)[:, rows, cols]
    templates = {}  # a pattern of nonzero slots -> its lines "K 1 i j %r", K the matno
    for k, (upper, nonzero) in enumerate(zip(tops, tops != 0.0), start=1):
        if (key := nonzero.tobytes()) not in templates:
            slots = zip((rows[nonzero] + 1).tolist(), (cols[nonzero] + 1).tolist())
            templates[key] = "".join(f"K 1 {i} {j} %r\n" for i, j in slots)
        lines = templates[key].replace("K", str(k)) % tuple(upper[nonzero].tolist())
        parts.append(f"{lines}{k} 2 {k} {k} 1.0\n{k} 3 1 1 -1.0")
    parts.append("".join(f"{m + 1} 1 {i} {i} 1.0\n" for i in range(1, n + 1)))
    return "\n".join(parts)
