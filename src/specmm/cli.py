"""Command line front end.

Subcommands: solve (minimax), maximin, embed (SDPA export), classic
(diagonal-reduction cross-check), check (invariant battery on an
instance). Exit codes: 0 success, 1 input or validation error, 2
non-convergence under --strict, a failed classic cross-check or any FAIL
line of check. Verbosity comes from the SPECMM_LOG environment variable
(debug, info, warning, error).
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
    _read_json,
    load_instance,
    report_from_certificate,
    report_to_json,
    report_to_text,
)
from .saddle import SaddleConfig, lower_value, solve_maximin, solve_minimax

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
    p.add_argument("--tol", type=float, default=SaddleConfig().gap_tol,
                   help="duality gap target (default %(default)s)")
    p.add_argument("--max-iters", type=int, default=SaddleConfig().max_iters,
                   help="cap on Newton steps (default %(default)s)")
    p.add_argument("--strict", action="store_true", help="exit 2 when the gap target is not met")
    p.add_argument("--json", action="store_true", help="JSON report (default: text)")
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
    _write_out(sdpa_text(build_embedding(inst)), args.out)
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
        doc = _read_json(args.vectors)
        if not isinstance(doc, dict) or not isinstance(doc.get("vectors"), list):
            raise InstanceFormatError("expected an object with a 'vectors' list")
        game = VectorGame(doc["vectors"])
    rep = verify_diagonal_reduction(game, SaddleConfig(gap_tol=args.tol))
    print(f"classic value  {rep.exact_value!r}")
    print(f"spectral value {rep.certificate.midpoint!r}")
    print(f"difference     {rep.difference!r}")
    return 0 if rep.within_tolerance else 2


def _check_line(name: str, run) -> bool:
    """Run one check and print its PASS or FAIL line; an error it raises
    is its FAIL, and the battery goes on."""
    try:
        ok, detail = run()
    except ValueError as exc:
        ok, detail = False, str(exc)
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return bool(ok)


def _cmd_check(args) -> int:
    inst, _ = load_instance(args.instance)
    emb = build_embedding(inst)
    n, m = inst.n, inst.m

    # each check returns (passed, detail)
    def eig_vs_bisection(i):
        # two independent routes must agree to 700 times the worst gap measured between them
        direct = float(inst.spectra[i, 0])
        bisected = lambda_min_by_bisection(inst.stacked[i])
        diff, bound = abs(direct - bisected), 1e-12 * float(np.abs(inst.spectra[i]).max())
        return diff <= bound, f"|{direct:.12g} - {bisected:.12g}| = {diff:.3e}, bound {bound:.3e}"

    def primal_interior():  # the lift gates its own residuals
        p = interior_primal_point(emb)
        return (
            p.slacks.min() > 0.0 and p.delta > 0.0,
            f"min slack {p.slacks.min():.3e}, delta {p.delta:.6g}, "
            f"max residual {p.residuals.max():.3e}",
        )

    def dual_interior():
        d = interior_dual_point(emb)  # raises unless lambda_min(S) > 0
        return True, f"lambda_min(S) {d.lambda_min:.6g}"

    def dual_roundtrip():
        y0 = SimplexPoint.uniform(m)
        t0 = lower_value(y0, inst) + emb.shift
        got = extract_dual(lift_dual(y0, t0, inst, emb), emb)
        dev = max(
            float(np.abs(got.weights - y0.weights).max()), abs(got.lower_bound - (t0 - emb.shift))
        )
        return dev <= 1e-10, f"max deviation {dev:.3e}"

    def weak_duality():
        rng = np.random.default_rng(0)
        worst = np.inf
        for _ in range(5):
            x = sample_spectraplex(n, rng)
            y = sample_simplex(m, rng)
            p = lift_primal(x, inst, emb)
            t = lower_value(y, inst) + emb.shift
            worst = min(worst, weak_duality_check(p, lift_dual(y, t, inst, emb), emb))
        return worst >= -1e-9, f"min primal-dual margin {worst:.3e}"

    ok = True
    for i in range(m):
        ok &= _check_line(f"eig-vs-bisection[{i}]", lambda: eig_vs_bisection(i))
    # the other checks are named after their functions, dashed
    for run in (primal_interior, dual_interior, dual_roundtrip, weak_duality):
        ok &= _check_line(run.__name__.replace("_", "-"), run)
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
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("classic", help="cross-check a matrix game against its diagonal embedding")
    p.add_argument("vectors", nargs="?", default=None,
                   help="JSON file with a 'vectors' field (payoff rows)")
    p.add_argument("--rows", default=None, help="inline payoff rows, e.g. '1,-1;-1,1'")
    p.add_argument("--tol", type=float, default=SaddleConfig().gap_tol,
                   help="comparison tolerance (default %(default)s)")
    p.set_defaults(func=_cmd_classic)

    p = sub.add_parser("check", help="run the invariant battery on an instance")
    p.add_argument("instance", help="instance JSON file")
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
