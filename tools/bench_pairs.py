"""Paired benchmark runs of a parent revision and of this checkout, in one JSON file.

    python3 tools/bench_pairs.py --workdir DIR --out BENCH_N.json
                                 [--parent-rev HEAD] [--seeds 101 102 ... 110]
                                 [--workloads dense wide games]

Two fresh trees are made under DIR: ``parent``, the files of PARENT_REV exported
with ``git archive``, and ``change``, this checkout's files as git sees them
(tracked and untracked, less the ignored ones, with their working-tree
contents). Neither holds a ``__pycache__``, and every run sets
``PYTHONDONTWRITEBYTECODE=1``, so both sides compile the package from source in
``setup_s`` alike; the repository's own metadata is not touched. For each seed
and workload the script runs ``benchmarks/run.py --trace 0`` once on each side,
for the run length that ``BENCHMARK.json`` fixes (``run_seconds``), one run at a
time, and alternates which side runs first from one pair to the next, so that a
drift of the host's speed falls on both sides alike. The output file holds every
run's last stdout line (the result) and a summary per workload and end-to-end
metric: each side's median and quartiles, the ratio of the medians (change /
parent) and the number of pairs in which the change was better, as
``BENCHMARK.json`` defines better. A gain is resolved when the medians differ by
more than the parent's interquartile range, the distance between its first and
third quartiles.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def git(*args: str) -> str:
    """The standard output of one git command in this checkout."""
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout


def export_parent(rev: str, dest: Path) -> str:
    """The files of ``rev`` under ``dest``; returns the full commit id."""
    sha = git("rev-parse", rev).strip()
    archive = dest.with_suffix(".tar")
    git("archive", "--format=tar", "-o", str(archive), sha)
    with tarfile.open(archive) as tar:
        # the "data" filter, where this Python has it, refuses links and paths out of dest
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    archive.unlink()
    return sha


def export_change(dest: Path) -> None:
    """This checkout's tracked and untracked files, less the ignored ones, under ``dest``."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
    for name in filter(None, names):
        if (ROOT / name).is_file():  # a tracked file deleted in the working tree is gone
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``tree``; its last stdout line, decoded."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, env=env, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> list:
    """The three cut points of ``statistics.quantiles(values, n=4)``; a single value is
    all three, as Python 3.13 and later return it."""
    return statistics.quantiles(values, n=4) if len(values) > 1 else list(values) * 3


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric: each side's median and quartiles, the ratio of the
    medians and the pairs won.

    ``runs`` holds {"workload", "seed", "side", "result"} records, a result being
    ``benchmarks/run.py``'s last line; ``better`` maps a metric to "lower" or "higher".
    A pair is the two sides' runs of one workload at one seed; a tie wins for neither.
    """
    by_key = {(r["workload"], r["seed"], r["side"]): r["result"] for r in runs}
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        seeds = [s for s in dict.fromkeys(r["seed"] for r in runs if r["workload"] == workload)
                 if all((workload, s, side) in by_key for side in SIDES)]
        pairs = [[by_key[workload, s, side] for side in SIDES] for s in seeds]
        entry = {"pairs": len(pairs),
                 "failed": {side: sum(p[i]["failed"] for p in pairs)
                            for i, side in enumerate(SIDES)},
                 "correct": all(res["correct"] for p in pairs for res in p)}
        for metric, sense in better.items():
            values = [[res["metrics"][metric]["value"] for res in p] for p in pairs]
            if not values:
                continue
            sides = list(zip(*values))
            parent, change = map(statistics.median, sides)
            wins = sum((c < p) if sense == "lower" else (c > p) for p, c in values)
            entry[metric] = {"parent": parent, "change": change,
                             "ratio": change / parent if parent else None,
                             "better": wins,
                             "quartiles": dict(zip(SIDES, map(quartiles, sides)))}
        summary[workload] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", type=Path, required=True,
                        help="an empty or missing directory for the two trees")
    parser.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    parser.add_argument("--parent-rev", default="HEAD")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(101, 111)))
    parser.add_argument("--workloads", nargs="+", default=["dense", "wide", "games"])
    args = parser.parse_args(argv)
    if args.workdir.exists() and any(args.workdir.iterdir()):
        parser.error(f"{args.workdir} is not empty")
    trees = {side: args.workdir / side for side in SIDES}
    for tree in trees.values():
        tree.mkdir(parents=True)
    sha = export_parent(args.parent_rev, trees["parent"])
    export_change(trees["change"])
    change = {"head": git("rev-parse", "HEAD").strip(),
              "uncommitted_changes": git("status", "--porcelain") != ""}
    # the benchmark fixes the run length, the same on both sides, and what is better
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    runs = []
    for i, seed in enumerate(args.seeds):
        for j, workload in enumerate(args.workloads):
            order = SIDES if (i + j) % 2 == 0 else SIDES[::-1]
            for side in order:
                result = run_once(trees[side], workload, seed, seconds)
                runs.append({"workload": workload, "seed": seed, "side": side,
                             "result": result})
                print(f"{workload} {seed} {side}: {json.dumps(result)}", flush=True)
    record = {"parent": sha, "change": change,
              "command": f"benchmarks/run.py --trace 0 --seconds {seconds}",
              "seeds": args.seeds, "workloads": args.workloads, "python": sys.version.split()[0],
              "summary": summarize(runs, better), "runs": runs}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
