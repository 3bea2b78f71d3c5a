"""Command line front end.

Subcommands: solve (minimax), maximin, embed (SDPA export), classic
(diagonal-reduction cross-check), check (invariant battery on an
instance). Exit codes: 0 success, 1 input or validation error, 2
non-convergence under --strict. Verbosity comes from the SPECMM_LOG
environment variable (debug, info, warning, error).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from . import __version__
from .classic import VectorGame, verify_diagonal_reduction
from .domains import (
    SimplexPoint,
    lambda_min_by_bisection,
    sample_simplex,
    sample_spectraplex,
    weighted_combination,
)
from .embed import (
    build_embedding,
    extract_dual,
    interior_dual_point,
    interior_primal_point,
    lift_dual,
    lift_primal,
    sdpa_text,
    weak_duality_check,
)
from .files import (
    InstanceFormatError,
    load_instance,
    report_from_certificate,
    report_to_json,
    report_to_text,
)
from .saddle import SaddleConfig, solve_maximin, solve_minimax
from .symmat import SymMatrix, lambda_min

__all__ = ["main"]

logger = logging.getLogger(__name__)


def _configure_logging():
    level = os.environ.get("SPECMM_LOG", "").strip().lower()
    levels = {
        "debug": logging.DEBUG,
        "info": logging.INFO,
        "warning": logging.WARNING,
        "error": logging.ERROR,
    }
    logging.basicConfig(
        level=levels.get(level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


def _write_out(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _add_solver_flags(p: argparse.ArgumentParser):
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("--tol", type=float, default=1e-4, help="duality gap target (default 1e-4)")
    p.add_argument("--max-iters", type=int, default=SaddleConfig().max_iters,
                   help="cap on Newton steps (default %(default)s)")
    p.add_argument("--strict", action="store_true", help="exit 2 when the gap target is not met")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON report (default: text)")
    fmt.add_argument("--text", action="store_true", help="text report")
    p.add_argument("--out", default=None, help="write the report to a file instead of stdout")


def _run_solver(args, solver) -> int:
    inst, _ = load_instance(args.instance)
    cfg = SaddleConfig(max_iters=args.max_iters, gap_tol=args.tol)
    cert = solver(inst, cfg)
    report = report_from_certificate(cert)
    text = report_to_json(report) if args.json else report_to_text(report)
    _write_out(text, args.out)
    if args.strict and not cert.converged:
        logger.warning("gap %.3e above target %.3e after %d Newton steps",
                       cert.gap, args.tol, cert.iterations)
        return 2
    return 0


def _cmd_solve(args) -> int:
    return _run_solver(args, solve_minimax)


def _cmd_maximin(args) -> int:
    return _run_solver(args, solve_maximin)


def _cmd_embed(args) -> int:
    inst, _ = load_instance(args.instance)
    emb = build_embedding(inst, shift_policy=args.shift)
    _write_out(sdpa_text(emb), args.out)
    return 0


def _parse_rows(text: str) -> VectorGame:
    try:
        rows = tuple(
            tuple(float(x) for x in row.split(",")) for row in text.split(";") if row.strip()
        )
        return VectorGame(rows)
    except ValueError as exc:
        raise InstanceFormatError(f"bad --rows value: {exc}") from None


def _cmd_classic(args) -> int:
    if (args.vectors is None) == (args.rows is None):
        raise InstanceFormatError("provide exactly one of a vectors file or --rows")
    if args.rows is not None:
        game = _parse_rows(args.rows)
    else:
        import json

        with open(args.vectors, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InstanceFormatError(f"invalid JSON: {exc}") from None
        if not isinstance(doc, dict) or "vectors" not in doc:
            raise InstanceFormatError("expected an object with a 'vectors' field")
        game = VectorGame(tuple(tuple(row) for row in doc["vectors"]))
    rep = verify_diagonal_reduction(game, SaddleConfig(gap_tol=args.tol))
    print(f"classic value  {rep.exact_value!r}")
    print(f"spectral value {rep.certificate.midpoint!r}")
    print(f"difference     {rep.difference!r}")
    return 0 if rep.within_tolerance else 2


def _check_line(name: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def _cmd_check(args) -> int:
    inst, _ = load_instance(args.instance)
    ok = True

    # two independent routes to the smallest eigenvalue must agree
    for i, a in enumerate(inst.stacked):
        direct = float(inst.spectra[i, 0])
        bisected = lambda_min_by_bisection(SymMatrix(a), 1e-8)
        ok &= _check_line(
            f"eig-vs-bisection[{i}]", abs(direct - bisected) <= 1e-7,
            f"|{direct:.12g} - {bisected:.12g}| = {abs(direct - bisected):.3e}",
        )

    emb = build_embedding(inst, shift_policy=args.shift)
    n, m = inst.n, inst.m

    p_int = interior_primal_point(inst, emb)
    slacks = np.diag(p_int.matrix.array)[n : n + m]
    ok &= _check_line(
        "primal-interior",
        bool(slacks.min() > 0.0 and p_int.objective > 0.0
             and p_int.residuals.max() <= 1e-12),
        f"min slack {slacks.min():.3e}, delta {p_int.objective:.6g}, "
        f"max residual {p_int.residuals.max():.3e}",
    )

    d_int = interior_dual_point(inst, emb)
    slack_min = lambda_min(d_int.slack)
    ok &= _check_line(
        "dual-interior",
        bool(slack_min > 0.0 and d_int.residual <= 1e-12),
        f"lambda_min(S) {slack_min:.6g}, residual {d_int.residual:.3e}",
    )

    y0 = SimplexPoint.uniform(m)
    t0 = lambda_min(weighted_combination(y0, inst)) + emb.shift
    d0 = lift_dual(y0, t0, inst, emb)
    got = extract_dual(d0, emb)
    round_trip = max(
        float(np.abs(got.weights - y0.weights).max()), abs(got.lower_bound - (t0 - emb.shift))
    )
    ok &= _check_line("dual-roundtrip", round_trip <= 1e-10, f"max deviation {round_trip:.3e}")

    rng = np.random.default_rng(0)
    worst = np.inf
    for _ in range(5):
        x = sample_spectraplex(n, rng)
        y = sample_simplex(m, rng)
        p = lift_primal(x, inst, emb)
        t = lambda_min(weighted_combination(y, inst)) + emb.shift
        d = lift_dual(y, t, inst, emb)
        worst = min(worst, weak_duality_check(p, d, emb))
    ok &= _check_line("weak-duality", worst >= -1e-9, f"min primal-dual margin {worst:.3e}")

    return 0 if ok else 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specmm",
        description="certified minimax values for finite families of symmetric matrices",
    )
    parser.add_argument("--version", action="version", version=f"specmm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="bracket min over X of max_i <A_i, X>")
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("maximin", help="bracket max over X of min_i <A_i, X>")
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_maximin)

    p = sub.add_parser("embed", help="export the block SDP in sparse SDPA form")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--shift", choices=("auto", "none"), default="auto",
                   help="diagonal shift policy (default auto)")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("classic", help="cross-check a matrix game against its diagonal embedding")
    p.add_argument("vectors", nargs="?", default=None,
                   help="JSON file with a 'vectors' field (payoff rows)")
    p.add_argument("--rows", default=None, help="inline payoff rows, e.g. '1,-1;-1,1'")
    p.add_argument("--tol", type=float, default=1e-4, help="comparison tolerance (default 1e-4)")
    p.set_defaults(func=_cmd_classic)

    p = sub.add_parser("check", help="run the invariant battery on an instance")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("--shift", choices=("auto", "none"), default="auto",
                   help="diagonal shift policy (default auto)")
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InstanceFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
