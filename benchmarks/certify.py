"""One certify: the operation the benchmark counts and times.

A certify takes one instance file through the whole public path of
``specmm``: parse, solve (both ways on ``dense``), report round trip,
block embedding with SDPA export, both lifts, dual extraction, weak
duality and, for games, the exact rational value. It returns plain
numbers, arrays and strings, so the checkers never touch a specmm object.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass


@dataclass
class Outputs:
    """What one certify produced; fields stay None past a failure."""

    upper: float | None = None
    lower: float | None = None
    gap: float | None = None
    converged: bool | None = None
    iterations: int = 0
    x_bar: object = None
    y_bar: object = None
    maximin: tuple | None = None  # (upper, lower, gap, converged, iterations, x, y)
    report_text: str | None = None
    reloaded_equal: bool | None = None
    shift: float | None = None
    sdpa: str | None = None
    primal_objective: float | None = None
    extracted_weights: object = None
    extracted_lower: float | None = None
    extracted_degenerate: bool | None = None
    margin: float | None = None
    exact_value: float | None = None
    error: str | None = None
    seconds: float = 0.0
    rounds: int = 0

    def fingerprint(self) -> tuple:
        """Every output, reduced to exact values, to compare two passes."""
        sdpa = None if self.sdpa is None else hashlib.sha256(self.sdpa.encode()).hexdigest()
        arrays = tuple(
            None if a is None else a.tobytes()
            for a in (self.x_bar, self.y_bar, self.extracted_weights)
        )
        maximin = None if self.maximin is None else (
            self.maximin[:5] + tuple(a.tobytes() for a in self.maximin[5:])
        )
        return (
            self.upper, self.lower, self.gap, self.converged, self.iterations, arrays,
            maximin, self.report_text, self.reloaded_equal, self.shift, sdpa,
            self.primal_objective, self.extracted_lower, self.extracted_degenerate,
            self.margin, self.exact_value, self.error, self.rounds,
        )


def _certificate(cert) -> tuple:
    return (
        cert.upper, cert.lower, cert.gap, cert.converged, cert.iterations,
        cert.x_bar.array.copy(), cert.y_bar.weights.copy(),
    )


def certify(sm, case, on_bounds) -> Outputs:
    """Run one certify of ``case`` with the specmm modules in ``sm``.

    ``sm`` maps layer names to modules. A program exception ends the
    certify and is recorded in ``error``; ``seconds`` covers the program
    calls only, up to the end or the failure.
    """
    out = Outputs()
    files, saddle, embed = sm["files"], sm["saddle"], sm["embed"]
    t0 = time.perf_counter()
    try:
        inst, _ = files.parse_instance(json.loads(case.text))
        cfg = saddle.SaddleConfig(gap_tol=case.gap_tol)
        cert = saddle.solve_minimax(inst, cfg, on_bounds=on_bounds)
        (out.upper, out.lower, out.gap, out.converged, out.iterations,
         out.x_bar, out.y_bar) = _certificate(cert)
        out.rounds = cert.iterations
        if case.maximin:
            dual_cert = saddle.solve_maximin(inst, cfg, on_bounds=on_bounds)
            out.maximin = _certificate(dual_cert)
            out.rounds += dual_cert.iterations
        report = files.report_from_certificate(cert)
        out.report_text = files.report_to_json(report)
        out.reloaded_equal = files.report_from_json(out.report_text) == report
        emb = embed.build_embedding(inst)
        out.shift = emb.shift
        out.sdpa = embed.sdpa_text(emb)
        primal = embed.lift_primal(cert.x_bar, inst, emb)
        out.primal_objective = primal.objective
        dual = embed.lift_dual(cert.y_bar, cert.lower + emb.shift, inst, emb)
        got = embed.extract_dual(dual, emb)
        out.extracted_weights = got.weights.copy()
        out.extracted_lower = got.lower_bound
        out.extracted_degenerate = got.degenerate
        out.margin = embed.weak_duality_check(primal, dual, emb)
        if case.rows is not None:
            out.exact_value = sm["classic"].classic_value_exact(
                sm["classic"].VectorGame(case.rows)
            )
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        out.error = f"{type(exc).__name__}: {exc}"
    out.seconds = time.perf_counter() - t0
    return out
