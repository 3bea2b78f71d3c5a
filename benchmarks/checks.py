"""Correctness checks made apart from the program.

Each checker takes plain outputs of one certify and recomputes what they
claim with numpy and the standard library only; it returns a list of
problems, empty when the outputs hold. Tolerances are relative to the
instance scale ``max_i ||A_i||_2``: ``TOL * scale`` for values, ``TOL``
for the unit-trace strategy ``x_bar``, ``SIMPLEX_TOL`` for the weights.
"""

from __future__ import annotations

import json
import struct

import numpy as np

# relative to the instance scale; Jacobi and LAPACK eigenvalues agree to
# about 1e-14 of it, and the lifts add a few roundings of the shift
TOL = 1e-9
SIMPLEX_TOL = 1e-12


def _close(a: float, b: float, tol: float) -> bool:
    return bool(np.isfinite(a) and np.isfinite(b) and abs(a - b) <= tol)


def _same_bits(a: float, b: float) -> bool:
    return struct.pack("<d", float(a)) == struct.pack("<d", float(b))


def check_strategies(x, y, n: int, m: int) -> list[str]:
    """x_bar has unit trace and is PSD; y_bar lies on the simplex."""
    bad = []
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (n, n) or not np.isfinite(x).all():
        return [f"x_bar has shape {x.shape} or non-finite entries"]
    if not np.array_equal(x, x.T):
        bad.append("x_bar is not symmetric")
    if not _close(float(np.trace(x)), 1.0, TOL):
        bad.append(f"trace(x_bar) = {np.trace(x)!r}")
    low = float(np.linalg.eigvalsh(x)[0])
    if low < -TOL:
        bad.append(f"x_bar is not PSD: eigvalsh gives {low!r}")
    if y.shape != (m,) or not np.isfinite(y).all():
        return bad + [f"y_bar has shape {y.shape} or non-finite entries"]
    if y.min() < -SIMPLEX_TOL:
        bad.append(f"y_bar has a negative weight {y.min()!r}")
    if not _close(float(y.sum()), 1.0, SIMPLEX_TOL * m):
        bad.append(f"y_bar sums to {y.sum()!r}")
    return bad


def check_bracket(mats, upper, lower, gap, converged, gap_tol, x, y, scale,
                  maximin=False) -> list[str]:
    """upper and lower are what x_bar and y_bar guarantee, and bracket.

    Minimax: upper = max_i <A_i, x>, lower = lambda_min(sum_i y_i A_i).
    Maximin: lower = min_i <A_i, x>, upper = lambda_max(sum_i y_i A_i).
    """
    tol = TOL * scale
    payoffs = np.einsum("kij,ij->k", mats, np.asarray(x, dtype=float))
    spectrum = np.linalg.eigvalsh(np.einsum("k,kij->ij", np.asarray(y, dtype=float), mats))
    if maximin:
        want_upper, want_lower = float(spectrum[-1]), float(payoffs.min())
    else:
        want_upper, want_lower = float(payoffs.max()), float(spectrum[0])
    bad = []
    if not _close(upper, want_upper, tol):
        bad.append(f"upper {upper!r} but the strategy guarantees {want_upper!r}")
    if not _close(lower, want_lower, tol):
        bad.append(f"lower {lower!r} but the strategy guarantees {want_lower!r}")
    if not upper >= lower - tol:
        bad.append(f"bounds cross: upper {upper!r} < lower {lower!r}")
    if not _same_bits(gap, upper - lower):
        bad.append(f"gap {gap!r} is not upper - lower")
    if converged and not gap <= gap_tol:
        bad.append(f"reports converged with gap {gap!r} above the target {gap_tol!r}")
    return bad


def check_report(text: str, reloaded_equal, upper, lower, gap, converged, iterations,
                 x, y) -> list[str]:
    """The report JSON carries the certificate bit for bit and reloads."""
    bad = []
    if reloaded_equal is not True:
        bad.append("report_from_json(report_to_json(r)) differs from r")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return bad + [f"report is not JSON: {exc}"]
    for key, want in (("upper", upper), ("lower", lower), ("gap", gap),
                      ("value", 0.5 * (upper + lower))):
        if not _same_bits(doc.get(key, float("nan")), want):
            bad.append(f"report {key} {doc.get(key)!r} is not {want!r}")
    if doc.get("converged") is not converged or doc.get("iterations") != iterations:
        bad.append("report converged or iterations differ from the certificate")
    got_x = np.asarray(doc.get("x_bar"), dtype=float)
    got_y = np.asarray(doc.get("y_bar"), dtype=float)
    if got_x.tobytes() != np.asarray(x, dtype=float).tobytes():
        bad.append("report x_bar differs from the certificate")
    if got_y.tobytes() != np.asarray(y, dtype=float).tobytes():
        bad.append("report y_bar differs from the certificate")
    return bad


def read_sdpa(text: str):
    """Parse the sparse SDPA text that specmm writes.

    Returns (shift comment, block sizes, objective vector, entries) with
    entries a list of (matno, blkno, i, j, value). Lines starting with
    '*' or '"' are comments. The constraint count is taken from the
    length of the objective vector, not from the count line.
    """
    lines = text.splitlines()
    comments = [ln for ln in lines if ln[:1] in ("*", '"')]
    body = [ln for ln in lines if ln[:1] not in ("*", '"') and ln.strip()]
    shift = None
    for ln in comments:
        if ln.startswith("*shift "):
            shift = float(ln.split()[1])
    int(body[0])  # the count line: must be an integer
    nblocks = int(body[1])
    sizes = [int(v) for v in body[2].split()]
    if len(sizes) != nblocks:
        raise ValueError(f"{nblocks} blocks declared, {len(sizes)} sizes given")
    vector = [float(v) for v in body[3].split()]
    entries = []
    for ln in body[4:]:
        matno, blkno, i, j, value = ln.split()
        entries.append((int(matno), int(blkno), int(i), int(j), float(value)))
    return shift, sizes, vector, entries


def check_sdpa(text: str, mats, shift: float, scale: float) -> list[str]:
    """The SDPA text rebuilds A_i + shift*I, the unit slots and the corner."""
    m, n, _ = mats.shape
    try:
        comment_shift, sizes, vector, entries = read_sdpa(text)
    except (ValueError, IndexError) as exc:
        return [f"SDPA text does not parse: {exc}"]
    bad = []
    want_shift = max(0.0, -float(np.linalg.eigvalsh(mats)[:, 0].min())) + 1.0
    if not _close(shift, want_shift, TOL * scale):
        bad.append(f"shift {shift!r}, the auto rule gives {want_shift!r}")
    if comment_shift is None or not _same_bits(comment_shift, shift):
        bad.append(f"shift comment {comment_shift!r} is not the shift {shift!r}")
    if sizes != [n, -m, -1]:
        return bad + [f"block sizes {sizes}, expected {[n, -m, -1]}"]
    if vector != [0.0] * m + [1.0]:
        bad.append("objective vector is not m zeros and a one")
    if [e[:4] for e in entries] != sorted(e[:4] for e in entries):
        bad.append("entries are not in ascending (matno, blkno, i, j) order")
    # rebuild every block matrix: top n x n, the m slots, the corner
    top = np.zeros((m + 2, n, n))
    slots = np.zeros((m + 2, m))
    corner = np.zeros(m + 2)
    for matno, blkno, i, j, value in entries:
        ok = 0 <= matno <= m + 1 and 1 <= i <= j
        if ok and blkno == 1 and j <= n:
            top[matno, i - 1, j - 1] = top[matno, j - 1, i - 1] = value
        elif ok and blkno == 2 and i == j <= m:
            slots[matno, i - 1] = value
        elif ok and blkno == 3 and i == j == 1:
            corner[matno] = value
        else:
            bad.append(f"entry out of place: {matno} {blkno} {i} {j} {value!r}")
    want_top = np.concatenate([np.zeros((1, n, n)), mats + shift * np.eye(n), np.eye(n)[None]])
    want_slots = np.vstack([np.zeros((1, m)), np.eye(m), np.zeros((1, m))])
    want_corner = np.array([1.0] + [-1.0] * m + [0.0])
    if not np.array_equal(top, want_top):
        k = int(np.argmax(np.abs(top - want_top).reshape(m + 2, -1).max(axis=1)))
        bad.append(f"top block of matrix {k} does not rebuild A + shift*I / I / 0")
    if not np.array_equal(slots, want_slots):
        bad.append("slot block is not the unit slots")
    if not np.array_equal(corner, want_corner):
        bad.append("corner entries are not 1, -1 ... -1, 0")
    return bad


def check_lifts(primal_objective, shift, upper, extracted_weights, extracted_lower,
                degenerate, margin, y, lower, scale) -> list[str]:
    """Lifts map back to the certificate, and weak duality holds."""
    tol = TOL * scale
    bad = []
    if not _close(primal_objective - shift, upper, tol):
        bad.append(f"primal objective - shift = {primal_objective - shift!r}, upper {upper!r}")
    if degenerate:
        bad.append("dual extraction reports degenerate multipliers")
    w = np.asarray(extracted_weights, dtype=float)
    if w.shape != np.shape(y) or not np.allclose(w, y, rtol=0.0, atol=TOL):
        bad.append("extract_dual does not return y_bar")
    if not _close(extracted_lower, lower, tol):
        bad.append(f"extract_dual bound {extracted_lower!r}, lower {lower!r}")
    if not margin >= -tol:
        bad.append(f"weak duality margin {margin!r} is negative")
    if not _close(margin, upper - lower, tol):
        bad.append(f"weak duality margin {margin!r} is not the gap {upper - lower!r}")
    return bad


def check_game(exact_value, upper, lower, scale) -> list[str]:
    """The exact rational game value lies in [lower, upper]."""
    tol = TOL * scale
    if exact_value is None or not lower - tol <= exact_value <= upper + tol:
        return [f"exact value {exact_value!r} outside [{lower!r}, {upper!r}]"]
    return []


def check_case(case, out) -> list[str]:
    """Every check that applies to the outputs a certify reached."""
    mats, scale = case.matrices, case.scale
    m, n, _ = mats.shape
    bad = []
    if out.upper is not None:
        bad += check_strategies(out.x_bar, out.y_bar, n, m)
        bad += check_bracket(mats, out.upper, out.lower, out.gap, out.converged,
                             case.gap_tol, out.x_bar, out.y_bar, scale)
    if out.maximin is not None:
        upper, lower, gap, converged, _, x, y = out.maximin
        bad += check_strategies(x, y, n, m)
        bad += check_bracket(mats, upper, lower, gap, converged, case.gap_tol, x, y,
                             scale, maximin=True)
    if out.report_text is not None:
        bad += check_report(out.report_text, out.reloaded_equal, out.upper, out.lower,
                            out.gap, out.converged, out.iterations, out.x_bar, out.y_bar)
    if out.sdpa is not None:
        bad += check_sdpa(out.sdpa, mats, out.shift, scale)
    if out.margin is not None:
        bad += check_lifts(out.primal_objective, out.shift, out.upper, out.extracted_weights,
                           out.extracted_lower, out.extracted_degenerate, out.margin,
                           out.y_bar, out.lower, scale)
    if case.rows is not None and out.error is None:
        bad += check_game(out.exact_value, out.upper, out.lower, scale)
    return [f"{case.name}: {b}" for b in bad]
