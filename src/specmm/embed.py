"""Block semidefinite embedding of the matrix saddle problem.

The minimax value can be read off a single semidefinite program over block
matrices of order n' = n + m + 1. Writing A_sig,i = A_i + sigma*I for a
scalar shift sigma, the blocks are

    constraint_matrices[i] = diag(A_sig,i, E_i, -1)   (E_i: unit in slot i)
    trace_matrix           = diag(I_n, 0, ..., 0)
    objective_matrix       = unit in the last diagonal slot

The primal program minimizes the last diagonal entry delta of a PSD block
variable X' = diag(X, s_1 .. s_m, delta) subject to
<constraint_matrices[i], X'> = 0 and <trace_matrix, X'> = 1; at the optimum
delta equals the shifted saddle value. The dual maximizes t subject to
sum_i u_i * constraint_matrices[i] + t * trace_matrix + S = objective_matrix
with S PSD, and the simplex strategy is recovered from u by sign flip and
rescaling. The shift exists to keep the optimal delta nonnegative (a PSD
diagonal entry cannot be negative, so without it instances with negative
value would be cut off); "auto" picks sigma = max(0, -min_i lambda_min(A_i)) + 1
so the shifted value is at least 1, and all reported values are mapped back
by subtracting sigma.

Both feasibility directions produce checkable artifacts (lifts) carrying
their own residuals, and the two interior-point constructors certify that
the embedded program satisfies strict feasibility on both sides, which is
what makes its optimum attained and equal on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domains import InstanceSet, SimplexPoint, SpectraplexPoint
from .symmat import SymMatrix, _eigvals_raw
from .tolerances import DEFAULT_TOLS, Tolerances

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


class DualInfeasibleError(ValueError):
    """A proposed dual pair fails positive semidefiniteness; the message
    names the violated block."""


class DegenerateMultiplierError(ValueError):
    """Dual extraction met multipliers summing to (numerical) zero with a
    positive bound, which no feasible lift can produce."""


@dataclass(frozen=True, eq=False)
class SdpEmbedding:
    """The block data of the embedded semidefinite program."""

    constraint_matrices: tuple[SymMatrix, ...]
    trace_matrix: SymMatrix
    objective_matrix: SymMatrix
    n: int
    m: int
    shift: float

    @property
    def n_prime(self) -> int:
        return self.n + self.m + 1


@dataclass(frozen=True, eq=False)
class PrimalLift:
    """Feasible primal block variable with measured constraint residuals.

    matrix is diag(X, s, delta); residuals[i] = |<constraint_matrices[i],
    matrix>| and trace_residual = |<trace_matrix, matrix> - 1| are measured
    on the assembled block matrix, not inferred from the construction.
    """

    matrix: SymMatrix
    residuals: np.ndarray
    trace_residual: float

    def __post_init__(self):
        lo = float(_eigvals_raw(self.matrix.array)[0])
        if lo < -DEFAULT_TOLS.lift_psd:
            raise ValueError(f"primal block matrix must be PSD, lambda_min={lo!r}")
        if self.trace_residual > DEFAULT_TOLS.lift_psd:
            raise ValueError(f"trace constraint violated by {self.trace_residual!r}")
        r = np.asarray(self.residuals, dtype=float)
        if r.size and r.max() > DEFAULT_TOLS.lift_residual:
            raise ValueError(f"constraint residual too large: {r.max()!r}")
        r.flags.writeable = False
        object.__setattr__(self, "residuals", r)

    @property
    def objective(self) -> float:
        """The delta slot: value of the embedded primal objective."""
        return float(self.matrix.array[-1, -1])


@dataclass(frozen=True, eq=False)
class DualLift:
    """Feasible dual triple (multipliers u, bound t, slack S).

    The slack is defined by the dual equality, so the stored residual
    (recomputation error of that equality) is pure floating-point noise;
    PSD-ness of S is what carries information and is constructor-checked.
    """

    multipliers: np.ndarray
    bound: float
    slack: SymMatrix
    residual: float

    def __post_init__(self):
        u = np.asarray(self.multipliers, dtype=float)
        u.flags.writeable = False
        object.__setattr__(self, "multipliers", u)
        lo = float(_eigvals_raw(self.slack.array)[0])
        if lo < -DEFAULT_TOLS.lift_psd:
            raise ValueError(f"dual slack must be PSD, lambda_min={lo!r}")
        if self.residual > DEFAULT_TOLS.lift_residual:
            raise ValueError(f"dual equality violated by {self.residual!r}")


@dataclass(frozen=True, eq=False)
class ExtractedDual:
    """Simplex strategy and value bound recovered from a dual lift.

    On the regular path ``point`` holds the rescaled strategy and
    ``lower_bound`` the certified bound on the original (unshifted) value.
    When the multipliers sum to numerical zero nothing can be rescaled;
    the raw clamped weights are reported with ``degenerate`` set and
    ``point`` is None.
    """

    point: SimplexPoint | None
    weights: np.ndarray
    lower_bound: float
    degenerate: bool


def build_embedding(inst: InstanceSet, shift_policy: str = "auto") -> SdpEmbedding:
    """Assemble the block matrices for an instance.

    shift_policy "auto" sets sigma = max(0, -min_i lambda_min(A_i)) + 1,
    which keeps the embedded optimum at least 1; "none" sets sigma = 0 and
    is only appropriate when the instance value is known nonnegative.
    Blocks are assembled exactly: entries are copies of instance entries
    (plus sigma on the top diagonal), ones, and minus ones.
    """
    if shift_policy == "none":
        sigma = 0.0
    elif shift_policy == "auto":
        sigma = max(0.0, -float(_eigvals_raw(inst.stacked)[:, 0].min())) + 1.0
    else:
        raise ValueError(f"unknown shift_policy {shift_policy!r}")

    n, m = inst.n, inst.m
    np_ = n + m + 1
    blocks = []
    for i, a in enumerate(inst.matrices):
        b = np.zeros((np_, np_))
        b[:n, :n] = a.array + sigma * np.eye(n)
        b[n + i, n + i] = 1.0
        b[-1, -1] = -1.0
        blocks.append(SymMatrix(b))
    e = np.zeros((np_, np_))
    e[:n, :n] = np.eye(n)
    c = np.zeros((np_, np_))
    c[-1, -1] = 1.0
    return SdpEmbedding(
        constraint_matrices=tuple(blocks),
        trace_matrix=SymMatrix(e),
        objective_matrix=SymMatrix(c),
        n=n,
        m=m,
        shift=sigma,
    )


def _shifted_values(x: SpectraplexPoint, emb: SdpEmbedding) -> np.ndarray:
    """<A_i + sigma*I, X> for every i, read from the embedding blocks."""
    tops = np.stack([b.array[: emb.n, : emb.n] for b in emb.constraint_matrices])
    return np.tensordot(tops, x.array, axes=([1, 2], [0, 1]))


def lift_primal(
    x: SpectraplexPoint,
    inst: InstanceSet,
    emb: SdpEmbedding,
    *,
    margin: float = 0.0,
) -> PrimalLift:
    """Lift a spectraplex point to a feasible primal block variable.

    delta is set to max_i <A_i + sigma*I, X> plus the optional margin, and
    the slacks absorb the differences, so every constraint holds by
    construction; the returned residuals re-measure them on the assembled
    block matrix. With margin 0 the slack of a best-response index is
    exactly zero; a positive margin makes every slack strictly positive.
    The objective entry equals the shifted guarantee of X (plus margin).
    """
    if x.n != inst.n or inst.m != emb.m or inst.n != emb.n:
        raise ValueError("dimension mismatch between point, instance, and embedding")
    if margin < 0.0:
        raise ValueError("margin must be nonnegative")
    vals = _shifted_values(x, emb)
    delta = float(vals.max()) + margin
    if delta < -DEFAULT_TOLS.lift_psd:
        raise ValueError(
            f"embedded objective would be negative (delta={delta!r}); "
            "rebuild the embedding with shift_policy='auto'"
        )
    s = delta - vals
    block = np.zeros((emb.n_prime, emb.n_prime))
    block[: emb.n, : emb.n] = x.array
    block[range(emb.n, emb.n + emb.m), range(emb.n, emb.n + emb.m)] = s
    block[-1, -1] = delta
    mat = SymMatrix(block)
    residuals = np.array(
        [abs(float(np.tensordot(b.array, mat.array, 2))) for b in emb.constraint_matrices]
    )
    trace_residual = abs(float(np.tensordot(emb.trace_matrix.array, mat.array, 2)) - 1.0)
    return PrimalLift(matrix=mat, residuals=residuals, trace_residual=trace_residual)


def interior_primal_point(
    inst: InstanceSet, emb: SdpEmbedding, *, margin: float = 1.0
) -> PrimalLift:
    """Strictly feasible primal point: X = I/n with a positive margin, so
    X is positive definite and all slack entries and delta are positive."""
    if margin <= 0.0:
        raise ValueError("an interior point needs a positive margin")
    x = SpectraplexPoint(SymMatrix(np.eye(inst.n) / inst.n))
    return lift_primal(x, inst, emb, margin=margin)


def _assemble_dual(multipliers: np.ndarray, t: float, emb: SdpEmbedding):
    """Slack and equality residual for dual data (multipliers, t)."""
    acc = t * emb.trace_matrix.array.copy()
    for ui, b in zip(multipliers, emb.constraint_matrices):
        acc = acc + ui * b.array
    slack = emb.objective_matrix.array - acc
    residual = float(np.abs(acc + slack - emb.objective_matrix.array).max())
    return slack, residual


def lift_dual(
    y: SimplexPoint,
    t: float,
    inst: InstanceSet,
    emb: SdpEmbedding,
    tols: Tolerances = DEFAULT_TOLS,
) -> DualLift:
    """Lift a simplex strategy and a shifted-value bound to a dual triple.

    t lives in shifted coordinates: the pair is feasible exactly when
    t <= lambda_min(sum_i y_i (A_i + sigma*I)). The multipliers are the
    sign-flipped weights -y. Infeasibility is reported as
    DualInfeasibleError naming the violated diagonal block of the slack.
    """
    if y.m != emb.m or inst.m != emb.m or inst.n != emb.n:
        raise ValueError("dimension mismatch between strategy, instance, and embedding")
    multipliers = -y.weights
    slack, residual = _assemble_dual(multipliers, float(t), emb)
    n, m = emb.n, emb.m
    top_min = float(_eigvals_raw(slack[:n, :n])[0])
    if top_min < -tols.lift_psd:
        raise DualInfeasibleError(
            f"slack top-left {n}x{n} block is not PSD (lambda_min={top_min:.6g}); "
            f"t={t!r} exceeds the weighted shifted eigenvalue bound"
        )
    mid = np.diag(slack)[n : n + m]
    if mid.min() < -tols.lift_psd:
        k = int(np.argmin(mid))
        raise DualInfeasibleError(f"slack diagonal entry for index {k} is negative ({mid[k]:.6g})")
    if slack[-1, -1] < -tols.lift_psd:
        raise DualInfeasibleError(f"slack corner entry is negative ({slack[-1, -1]:.6g})")
    return DualLift(multipliers=multipliers, bound=float(t), slack=SymMatrix(slack), residual=residual)


def interior_dual_point(inst: InstanceSet, emb: SdpEmbedding) -> DualLift:
    """Strictly feasible dual triple with certified positive-definite slack.

    Multipliers -1/(2m) leave the simplex-sum slot at 1/2 and every index
    slot at 1/(2m); the bound t sits one unit below the corresponding
    weighted eigenvalue floor, so the top block has minimum eigenvalue one.
    The returned slack is certified positive definite numerically.
    """
    m = emb.m
    multipliers = np.full(m, -1.0 / (2.0 * m))
    tops = np.stack([b.array[: emb.n, : emb.n] for b in emb.constraint_matrices])
    combo = np.tensordot(-multipliers, tops, axes=(0, 0))
    t = float(_eigvals_raw(combo)[0]) - 1.0
    slack, residual = _assemble_dual(multipliers, t, emb)
    lift = DualLift(multipliers=multipliers, bound=t, slack=SymMatrix(slack), residual=residual)
    lo = float(_eigvals_raw(slack)[0])
    if not lo > 0.0:
        raise DualInfeasibleError(f"interior construction failed, lambda_min(S)={lo!r}")
    return lift


def extract_dual(
    lift: DualLift, emb: SdpEmbedding, tols: Tolerances = DEFAULT_TOLS
) -> ExtractedDual:
    """Recover a simplex strategy and an unshifted value bound from a lift.

    Flips the multiplier signs, clamps entries in [-1e-10, 0) to zero,
    rescales weights and bound by the weight sum to land on the simplex,
    and subtracts the embedding shift from the bound. Multipliers summing
    to numerical zero cannot be rescaled: with a positive bound that is
    flagged as an error (no feasible lift produces it), otherwise the raw
    clamped weights are returned with the degenerate flag set.
    """
    w = -np.asarray(lift.multipliers, dtype=float)
    bad = w < -tols.extract_clamp
    if bad.any():
        k = int(np.argmin(w))
        raise ValueError(f"multiplier {k} has the wrong sign ({lift.multipliers[k]!r})")
    w = np.where(w < 0.0, 0.0, w)
    total = float(w.sum())
    if total > 1.0 + tols.extract_clamp:
        raise ValueError(f"multiplier weights sum to {total!r} > 1")
    if total <= tols.degenerate_sum:
        if lift.bound > 0.0:
            raise DegenerateMultiplierError(
                f"weights sum to {total!r} while the bound {lift.bound!r} is positive"
            )
        return ExtractedDual(
            point=None,
            weights=w,
            lower_bound=lift.bound - emb.shift,
            degenerate=True,
        )
    w_scaled = w / total
    point = SimplexPoint(w_scaled)
    return ExtractedDual(
        point=point,
        weights=w_scaled,
        lower_bound=lift.bound / total - emb.shift,
        degenerate=False,
    )


def weak_duality_check(p: PrimalLift, d: DualLift, emb: SdpEmbedding) -> float:
    """Primal objective minus dual objective for a pair of lifts.

    For feasible lifts this is <objective_matrix, X'> - t >= 0 up to
    rounding (never below -1e-9); at a primal-dual optimal pair it
    vanishes up to the solver gap.
    """
    primal = float(np.tensordot(emb.objective_matrix.array, p.matrix.array, 2))
    return primal - d.bound


def _fmt(v: float) -> str:
    """Shortest exact decimal for a double; '1.0', '-0.5', and so on."""
    return repr(float(v))


def sdpa_text(emb: SdpEmbedding) -> str:
    """Serialize the embedding in sparse SDPA text form.

    Layout: a comment line recording the shift, the constraint count m+1,
    the block count (3), the block sizes "n -m -1" (diagonal blocks
    negative by convention), the objective vector (m zeros and a one, one
    entry per equality constraint), then one line per nonzero
    upper-triangle entry as "matno blkno i j value" with matno 0 for the
    objective block matrix, 1..m for the constraint matrices, and m+1 for
    the trace matrix. Entries are emitted in ascending (matno, blkno, i,
    j) order with 1-based in-block indices, so the output is byte-stable
    across runs.
    """
    n, m = emb.n, emb.m
    lines = [f"*shift {_fmt(emb.shift)}", str(m + 1), "3", f"{n} -{m} -1"]
    lines.append(" ".join(_fmt(0.0) for _ in range(m)) + " " + _fmt(1.0))

    def emit(matno: int, mat: np.ndarray):
        out = []
        top = mat[:n, :n]
        for i in range(n):
            for j in range(i, n):
                if top[i, j] != 0.0:
                    out.append(f"{matno} 1 {i + 1} {j + 1} {_fmt(top[i, j])}")
        for k in range(m):
            v = mat[n + k, n + k]
            if v != 0.0:
                out.append(f"{matno} 2 {k + 1} {k + 1} {_fmt(v)}")
        if mat[-1, -1] != 0.0:
            out.append(f"{matno} 3 1 1 {_fmt(mat[-1, -1])}")
        return out

    lines.extend(emit(0, emb.objective_matrix.array))
    for i, b in enumerate(emb.constraint_matrices):
        lines.extend(emit(i + 1, b.array))
    lines.extend(emit(m + 1, emb.trace_matrix.array))
    return "\n".join(lines) + "\n"
