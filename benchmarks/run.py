"""Certify-pass benchmark for specmm.

    python3 benchmarks/run.py --workload dense --seed 1 --seconds 12 --trace 0

One process, one caller, back-to-back passes (a closed loop). A pass
certifies every instance of the workload once; each certify is one
counted operation. specmm is imported from this checkout's ``src/``; the
package need not be installed. The last line on stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics under ``--trace 0`` and the per-layer metrics under ``--trace 1``.
Details of the run go to ``benchmarks/results/``. See README.md.
"""

import os

# one BLAS thread, pinned before anything imports numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from certify import certify  # noqa: E402
from checks import check_case  # noqa: E402
from tracing import Tracer, summarise  # noqa: E402
from workloads import WORKLOADS, make_cases  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
LAYERS = ("symmat", "domains", "saddle", "embed", "classic", "files")
SETUP_REPEATS = 11
MIB = float(1 << 20)

END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("rounds", "count"), ("peak_mib", "MiB"))
PER_LAYER = (
    ("symmat.eigh_calls", "count"), ("symmat.eigh_s", "s"),
    ("symmat.eigvals_calls", "count"), ("symmat.eigvals_s", "s"),
    ("symmat.order3", "count"),
    ("saddle.solve_s", "s"), ("saddle.self_s", "s"), ("saddle.evals", "count"),
    ("saddle.self_us_per_round", "us"),
    ("domains.check_calls", "count"), ("domains.check_s", "s"), ("domains.self_s", "s"),
    ("embed.build_s", "s"), ("embed.export_s", "s"), ("embed.lift_s", "s"),
    ("embed.self_s", "s"), ("embed.sdpa_bytes", "bytes"), ("embed.block_mib", "MiB"),
    ("embed.build_peak_mib", "MiB"),
    ("classic.exact_calls", "count"), ("classic.exact_pct", "%"),
    ("files.parse_s", "s"), ("files.report_s", "s"), ("files.report_bytes", "bytes"),
    ("trace.overhead_s", "s"),
)


def _no_profile(frame, event, arg):
    return None


class EvalCounter:
    """The on_bounds callback: counts bound evaluations."""

    def __init__(self):
        self.count = 0

    def __call__(self, k, upper, lower):
        self.count += 1


def import_specmm() -> dict:
    """A fresh import of specmm from src/, one module per layer."""
    for name in [k for k in sys.modules if k == "specmm" or k.startswith("specmm.")]:
        del sys.modules[name]
    pkg = importlib.import_module("specmm")
    if Path(pkg.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"imported specmm from {pkg.__file__}, not from {SRC}")
    return {layer: importlib.import_module(f"specmm.{layer}") for layer in LAYERS}


class Run:
    """One benchmark run: set-up, checked warm-up pass, measured passes."""

    def __init__(self, workload: str, seed: int):
        self.setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self.sm = import_specmm()
            self.cases = make_cases(workload, seed)
            self.setup_times.append(time.perf_counter() - t0)
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, str] = {}
        self.problems: list[str] = []
        self.reference = None
        self.case_seconds = {case.name: [] for case in self.cases}

    def run_pass(self, tracer=None, keep=False, timed=False):
        """Certify every case once; returns (seconds, rounds, evals, outputs).

        ``timed`` passes also record each certify's time for the results
        file; ``keep`` returns the outputs instead of their fingerprints.
        """
        counter = EvalCounter()
        seconds, rounds, outs = 0.0, 0, []
        for case in self.cases:
            if tracer is None:
                out = certify(self.sm, case, counter)
            else:
                with tracer.span("bench.certify"):
                    out = certify(self.sm, case, counter)
            self.attempted += 1
            if out.error is not None:
                self.failed += 1
                self.failures[case.name] = out.error
            seconds += out.seconds
            rounds += out.rounds
            if timed:
                self.case_seconds[case.name].append(out.seconds)
            outs.append(out if keep else out.fingerprint())
            del out  # so the peak pass never holds two certifies' outputs
        fingerprints = [o.fingerprint() for o in outs] if keep else outs
        if self.reference is None:
            self.reference = fingerprints
        elif fingerprints != self.reference:
            self.problems.append("a pass gave other outputs than the checked pass")
        return seconds, rounds, counter.count, outs

    def warm_up(self):
        """The first pass: every output goes through the independent checks.

        It runs under a no-op profile hook. On CPython 3.11 a profile hook
        gives every code object it sees a line-number array, and with it
        the line lookup tracemalloc makes for each new object becomes an
        index instead of a scan of the code's location table. That brings
        the memory pass of ``dense`` from about 46 pass times to about 6;
        the bytes it counts do not change. The hook is off again before
        any measured pass.
        """
        sys.setprofile(_no_profile)
        try:
            _, _, _, outs = self.run_pass(keep=True)
        finally:
            sys.setprofile(None)
        for case, out in zip(self.cases, outs):
            self.problems += check_case(case, out)
        return outs

    def cases_summary(self, outs) -> list[dict]:
        """Per instance: median certify time over the timed passes."""
        return [
            {"name": case.name, "seconds": statistics.median(self.case_seconds[case.name]),
             "rounds": out.rounds, "converged": out.converged, "gap": out.gap,
             "error": out.error}
            for case, out in zip(self.cases, outs)
        ]

    def result(self, metrics: dict) -> dict:
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def timed_passes(run: Run, seconds: float, times: list):
    """Back-to-back passes for ``seconds``; at least one, always whole."""
    start = time.perf_counter()
    while True:
        times.append(run.run_pass(timed=True)[0])
        if time.perf_counter() - start >= seconds:
            return


def measure_end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    outs = run.warm_up()
    gc.collect()
    times = []
    # the timed passes sit on both sides of the peak-memory pass, so their
    # median spans the whole run and not one phase of a busy host
    timed_passes(run, seconds / 2, times)
    # peak memory in a pass of its own: tracemalloc slows pure-Python code
    tracemalloc.start()
    run.run_pass()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    timed_passes(run, seconds / 2, times)
    metrics = {
        "setup_s": statistics.median(run.setup_times),
        "pass_s": statistics.median(times),
        # every pass repeats the checked pass's rounds, or correct is false
        "rounds": sum(o.rounds for o in outs),
        "peak_mib": peak / MIB,
    }
    return metrics, {"pass_times": times, "cases": run.cases_summary(outs)}


def _per_pass(summary: dict, seconds: float, rounds: int, evals: int, outs, cases) -> dict:
    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    self_saddle = get("saddle.solve", "self")
    return {
        "symmat.eigh_calls": get("symmat.eigh", "calls"),
        "symmat.eigh_s": get("symmat.eigh", "busy"),
        "symmat.eigvals_calls": get("symmat.eigvals", "calls"),
        "symmat.eigvals_s": get("symmat.eigvals", "busy"),
        "symmat.order3": get("symmat.eigh", "order3") + get("symmat.eigvals", "order3"),
        "saddle.solve_s": get("saddle.solve", "busy"),
        "saddle.self_s": self_saddle,
        "saddle.evals": evals,
        "saddle.self_us_per_round": 1e6 * self_saddle / max(rounds, 1),
        "domains.check_calls": get("domains.check", "calls"),
        "domains.check_s": get("domains.check", "busy"),
        "domains.self_s": get("domains.check", "self"),
        "embed.build_s": get("embed.build", "busy"),
        "embed.export_s": get("embed.export", "busy"),
        "embed.lift_s": get("embed.lift", "busy"),
        "embed.self_s": sum(get(k, "self") for k in ("embed.build", "embed.export", "embed.lift")),
        "embed.sdpa_bytes": sum(len(o.sdpa.encode()) for o in outs if o.sdpa is not None),
        "embed.block_mib": sum(
            c.matrices.shape[0] * (c.matrices.shape[0] + c.matrices.shape[1] + 1) ** 2 * 8
            for c, o in zip(cases, outs) if o.shift is not None
        ) / MIB,
        "classic.exact_calls": get("classic.exact", "calls"),
        # a share, not seconds: dense and wide make no call, and a time
        # that reads 0.0 on every run would look like a stuck clock
        "classic.exact_pct": 100.0 * get("classic.exact", "busy") / seconds,
        "files.parse_s": get("files.parse", "busy"),
        "files.report_s": get("files.report", "busy"),
        "files.report_bytes": sum(len(o.report_text.encode()) for o in outs
                                  if o.report_text is not None),
    }


def build_peak_mib(run: Run) -> float:
    """Largest tracemalloc peak of build_embedding over the cases."""
    files, embed = run.sm["files"], run.sm["embed"]
    peak = 0
    for case in run.cases:
        inst, _ = files.parse_instance(json.loads(case.text))
        tracemalloc.start()
        try:
            embed.build_embedding(inst)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / MIB


def measure_layers(run: Run, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    outs = run.warm_up()
    tracer = Tracer(run.sm)
    for layer, names in tracer.unmeasured.items():
        print(f"layer {layer} unmeasured: {', '.join(names)} not found", file=sys.stderr)
    gc.collect()
    plain, traced, per_pass, spans = [], [], [], []
    start = time.perf_counter()
    # untraced and traced passes alternate, so drift hits both alike
    while not traced or time.perf_counter() - start < seconds:
        plain.append(run.run_pass(timed=True)[0])
        tracer.install()
        try:
            t, r, evals, _ = run.run_pass(tracer)
        finally:
            tracer.uninstall()
        traced.append(t)
        spans = tracer.take()
        per_pass.append(_per_pass(summarise(spans), t, r, evals, outs, run.cases))
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["embed.build_peak_mib"] = build_peak_mib(run)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    # without a layer's spans, the self time of the layers above it is wrong
    for name in list(metrics):
        if tracer.unmeasured and (name.split(".")[0] in tracer.unmeasured or "self" in name):
            del metrics[name]
    with open(spans_path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    details = {"untraced_pass_times": plain, "traced_pass_times": traced,
               "unmeasured": tracer.unmeasured, "cases": run.cases_summary(outs)}
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "specmm" / "__init__.py").is_file():
        print(f"error: no specmm package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run = Run(args.workload, args.seed)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        values, details = measure_layers(run, args.seconds, RESULTS / f"{stem}-spans.jsonl")
        units = dict(PER_LAYER)
    else:
        values, details = measure_end_to_end(run, args.seconds)
        units = dict(END_TO_END)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units if k in values}
    result = run.result(metrics)
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, error in run.failures.items():
        print(f"certify failed: {name}: {error}", file=sys.stderr)
    record = {
        "args": vars(args),
        "result": result,
        "setup_times": run.setup_times,
        "failures": run.failures,
        "problems": run.problems,
        "python": platform.python_version(),
        "numpy": np.__version__,
        **details,
    }
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
