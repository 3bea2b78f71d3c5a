"""Digests of every benchmark certify, to show that a change moves no bit.

    python3 tools/fingerprints.py [--src DIR] [--seeds 101 102 103]
                                  [--workloads dense wide games] [--fuzz]

specmm is imported from DIR (default: this checkout's ``src/``); the
benchmark's ``certify.py`` and ``workloads.py`` are imported, unchanged, from
this checkout's ``benchmarks/``. For each workload and seed the script
certifies every instance once and prints one line, ``workload seed SHA-256``,
the digest over the cases' ``Outputs.fingerprint()`` in order, then the pass's
Newton steps (the benchmark's ``rounds``) and the face steps taken, how many of
them converged and their total Gauss-Newton steps, which ``rounds`` leaves out,
the exact simplex's calls, how many of them its one-entry memo served without a
pivot (the hits of its ``cache_info()``; 0 for a source tree without the memo) and
the rows they added (a diagonal family's finishes, and on ``games`` also
``classic_value_exact``'s one per case), and the Python-level
calls of a second, warm pass over the same cases (``call`` and ``c_call``
events of a ``sys.setprofile`` hook, so that filling a cache does not count),
and how tight the certificates are: the largest gap over its case's gap target
among the pass's minimax and maximin certificates, those of a case that later
fails in a lift included. One indented line follows per case that ended in an
error, with that error. ``--fuzz`` adds one line with a digest over the
certificates of the seeded fuzz of ``tests/test_saddle.py``: its 400 instances
solved both ways at relative gaps 1e-6 and 1e-8, 1,600 certificates, their total
Newton steps, the counts that stopped short, the face steps with the converged
ones and their Gauss-Newton steps, and the exact finishes with the remembered ones.
Face steps, the finishes that pivot and their rows are counted from the solver's
debug lines, the remembered finishes from the memo's hits, and every finish counts,
served or not, so the line reads the same on a tree whose ``_simplex`` logged every
call; the converged share is the useful outcomes of the face steps made. The line
ends with the same 400 instances solved both ways at relative gap 1e-12, the gate
of ``tests/test_saddle.py``'s tight fuzz: their Newton steps and the counts that
stopped short, outside the digest and the face counts.

Run it on two source trees and compare the outputs line by line:

    python3 tools/fingerprints.py --src ../parent/src --fuzz > before.txt
    python3 tools/fingerprints.py --fuzz > after.txt
    diff before.txt after.txt
"""

import os

# one BLAS thread, pinned before anything imports numpy, as the benchmark runs
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import logging  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "benchmarks"), str(ROOT / "tests")]

from certify import certify  # noqa: E402
from workloads import WORKLOADS, make_cases  # noqa: E402


def _digest(items) -> str:
    """SHA-256 over the reprs of ``items``; a float's repr is exact."""
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
    return h.hexdigest()


def _import(src: Path) -> dict:
    """specmm from ``src``, one module per layer that certify reads."""
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("specmm")
    if Path(pkg.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"imported specmm from {pkg.__file__}, not from {src}")
    return {layer: importlib.import_module(f"specmm.{layer}")
            for layer in ("domains", "files", "saddle", "embed", "classic")}


class FaceCount(logging.Handler):
    """Counts the solver's face steps, those that converged, and their Gauss-Newton steps
    from its debug lines, "face step on <k> matrices: <steps> Gauss-Newton steps,
    <outcome>", and the exact simplex's calls and the rows they added, from "exact finish
    on <k> rows: <added> rows added, <rounds> simplex rounds"; ``face_count`` sets how
    many of those calls the simplex's memo served, and counts them as calls too where a
    served call logs no line."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.attempts = self.converged = self.steps = self.finishes = self.added = 0
        self.remembered = 0

    def emit(self, record):
        if record.msg.startswith("face step"):
            self.attempts += 1
            self.converged += record.args[2] == "converged"
            self.steps += record.args[1]
        elif record.msg.startswith("exact finish"):
            self.finishes += 1
            self.added += record.args[1]

    def __str__(self):
        return (f"{self.attempts} face steps ({self.converged} converged) of {self.steps} "
                f"Gauss-Newton steps, {self.finishes} exact finishes ({self.remembered} "
                f"remembered) adding {self.added} rows")


def memo(saddle):
    """The exact simplex's memo and whether the calls it serves log a line: ``_simplex``
    itself, which logs only when it pivots, or an older tree's ``_solve_game`` behind a
    ``_simplex`` that logs every call; (None, True) for a tree without a memo."""
    if hasattr(saddle, "_solve_game"):
        return saddle._solve_game, True
    return (saddle._simplex, False) if hasattr(saddle._simplex, "cache_info") else (None, True)


@contextlib.contextmanager
def face_count(saddle):
    """A FaceCount that hears ``saddle``'s debug lines, and counts the memo's hits,
    while the block runs."""
    (cache, logged), faces, level = memo(saddle), FaceCount(), saddle.logger.level
    hits = cache.cache_info().hits if cache else 0
    saddle.logger.addHandler(faces)
    saddle.logger.setLevel(logging.DEBUG)
    try:
        yield faces
    finally:
        saddle.logger.removeHandler(faces)
        saddle.logger.setLevel(level)
        faces.remembered = cache.cache_info().hits - hits if cache else 0
        faces.finishes += 0 if logged else faces.remembered


def count_calls(run) -> int:
    """The Python-level calls that ``run()`` makes: the ``call`` and ``c_call`` events
    that a ``sys.setprofile`` hook hears, less run's own call and the hook's removal.
    The hook's own work is not heard."""
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls - 2


def workload_lines(sm: dict, workload: str, seed: int) -> list[str]:
    cases = make_cases(workload, seed)
    with face_count(sm["saddle"]) as faces:
        outs = [(case.name, certify(sm, case, None)) for case in cases]

    def warm_pass():
        for case in cases:
            certify(sm, case, None)

    # the second pass runs warm and with the debug lines off, as the benchmark's passes
    # do; face_count's restored level emptied the logger's cache, so it is filled first
    sm["saddle"].logger.isEnabledFor(logging.DEBUG)
    calls = count_calls(warm_pass)
    steps = sum(out.rounds for _, out in outs)
    # each certificate's gap is stored before the lifts, so a failed case's counts too
    worst = max((gap / case.gap_tol for case, (_, out) in zip(cases, outs)
                 for gap in (out.gap, out.maximin[2] if out.maximin else None)
                 if gap is not None), default=0.0)
    lines = [f"{workload} {seed} {_digest(out.fingerprint() for _, out in outs)} "
             f"{steps} steps, {faces}, {calls} calls, worst gap {worst:.3f} of target"]
    lines += [f"  {name}: {out.error}" for name, out in outs if out.error is not None]
    return lines


def fuzz_line(sm: dict) -> str:
    from test_saddle import FUZZ_SEEDS, fuzz_family  # imports specmm, so after _import

    saddle = sm["saddle"]
    senses = (saddle.solve_minimax, saddle.solve_maximin)

    def fuzz(rels, certs):
        # solves every fuzz instance both ways at each relative gap of ``rels``, appends
        # each certificate's fields to ``certs`` and returns the steps and short stops
        steps, short = 0, dict.fromkeys(senses, 0)
        for kind, seed in FUZZ_SEEDS:
            rng = np.random.default_rng(seed)
            for _ in range(100):
                inst = sm["domains"].InstanceSet(fuzz_family(kind, rng))
                scale = float(np.abs(inst.spectra).max())
                for rel in rels:
                    for solve in senses:
                        cert = solve(inst, saddle.SaddleConfig(gap_tol=rel * scale))
                        short[solve] += not cert.converged
                        steps += cert.iterations
                        certs.append((cert.upper, cert.lower, cert.iterations, cert.converged,
                                      cert.x_bar.array.tobytes(), cert.y_bar.weights.tobytes()))
        return f"{steps} steps, short {short[senses[0]]} minimax, {short[senses[1]]} maximin"

    certs = []
    with face_count(saddle) as faces:
        loose = fuzz((1e-6, 1e-8), certs)
    tight = fuzz((1e-12,), [])
    return f"fuzz {_digest(certs)} {len(certs)} certificates, {loose}, {faces}; at 1e-12: {tight}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the specmm package (default: this checkout's)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[101, 102, 103])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--fuzz", action="store_true", help="add the fuzz certificates' digest")
    args = parser.parse_args(argv)
    sm = _import(args.src)
    for workload in args.workloads:
        for seed in args.seeds:
            print("\n".join(workload_lines(sm, workload, seed)), flush=True)
    if args.fuzz:
        print(fuzz_line(sm))
    return 0


if __name__ == "__main__":
    sys.exit(main())
