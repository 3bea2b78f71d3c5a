"""Digests of every benchmark certify, to show that a change moves no bit.

    python3 tools/fingerprints.py [--src DIR] [--seeds 101 102 103]
                                  [--workloads dense wide games] [--fuzz]

specmm is imported from DIR (default: this checkout's ``src/``); the
benchmark's ``certify.py`` and ``workloads.py`` are imported, unchanged, from
this checkout's ``benchmarks/``. For each workload and seed the script
certifies every instance once and prints one line, ``workload seed SHA-256``,
the digest over the cases' ``Outputs.fingerprint()`` in order, then the pass's
Newton steps (the benchmark's ``rounds``) and the face steps taken with their
total Gauss-Newton steps, which ``rounds`` leaves out, followed by one
indented line per case that ended in an error, with that error. ``--fuzz``
adds one line with a digest over the certificates of the seeded fuzz of
``tests/test_saddle.py``: its 400 instances solved both ways at relative gaps
1e-6 and 1e-8, 1,600 certificates, their total Newton steps, the counts
that stopped short, and the face steps with their Gauss-Newton steps. Face
steps are counted from the solver's debug lines.

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
    """Counts the solver's face steps and their Gauss-Newton steps from its debug lines,
    "face step on <k> matrices: <steps> Gauss-Newton steps, <outcome>"."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.attempts = self.steps = 0

    def emit(self, record):
        if record.msg.startswith("face step"):
            self.attempts += 1
            self.steps += record.args[1]

    def __str__(self):
        return f"{self.attempts} face steps of {self.steps} Gauss-Newton steps"


@contextlib.contextmanager
def face_count(saddle):
    """A FaceCount that hears ``saddle``'s debug lines while the block runs."""
    faces, level = FaceCount(), saddle.logger.level
    saddle.logger.addHandler(faces)
    saddle.logger.setLevel(logging.DEBUG)
    try:
        yield faces
    finally:
        saddle.logger.removeHandler(faces)
        saddle.logger.setLevel(level)


def workload_lines(sm: dict, workload: str, seed: int) -> list[str]:
    with face_count(sm["saddle"]) as faces:
        outs = [(case.name, certify(sm, case, None)) for case in make_cases(workload, seed)]
    steps = sum(out.rounds for _, out in outs)
    lines = [f"{workload} {seed} {_digest(out.fingerprint() for _, out in outs)} "
             f"{steps} steps, {faces}"]
    lines += [f"  {name}: {out.error}" for name, out in outs if out.error is not None]
    return lines


def fuzz_line(sm: dict) -> str:
    from test_saddle import FUZZ_SEEDS, fuzz_family  # imports specmm, so after _import

    saddle = sm["saddle"]
    certs, steps, short = [], 0, {saddle.solve_minimax: 0, saddle.solve_maximin: 0}
    with face_count(saddle) as faces:
        for kind, seed in FUZZ_SEEDS:
            rng = np.random.default_rng(seed)
            for _ in range(100):
                inst = sm["domains"].InstanceSet(fuzz_family(kind, rng))
                scale = float(np.abs(inst.spectra).max())
                for rel in (1e-6, 1e-8):
                    for solve in short:
                        cert = solve(inst, saddle.SaddleConfig(gap_tol=rel * scale))
                        short[solve] += not cert.converged
                        steps += cert.iterations
                        certs.append((cert.upper, cert.lower, cert.iterations, cert.converged,
                                      cert.x_bar.array.tobytes(), cert.y_bar.weights.tobytes()))
    return (f"fuzz {_digest(certs)} {len(certs)} certificates, {steps} steps, short "
            f"{short[saddle.solve_minimax]} minimax, {short[saddle.solve_maximin]} maximin, "
            f"{faces}")


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
