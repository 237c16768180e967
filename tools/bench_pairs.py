"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload callback_roundtrip \\
        --pairs 10 --seeds 71 72 --seconds 10

Each pair runs ``bench/run.py --trace 0`` once in each checkout, one
process at a time; the side that goes first alternates from pair to pair,
and pair i uses seed ``seeds[i % len(seeds)]`` on both sides.  The last
line a run prints is its result object.  Printed per end-to-end metric of
the parent's BENCHMARK.json: each side's median, the parent's quartiles,
the ratio of the medians and the number of pairs the change won (strictly
better in the metric's own direction).  The line before the result is the
run's report: the two sides' ``digest_chain`` (one sha256 per op) are
compared over their common prefix, and the last line says whether every
pair gave identical outputs or names the first pair and op index where
they diverge.  Each side keeps its bytecode in its own
``PYTHONPYCACHEPREFIX`` under a temporary directory, warmed by one untimed
set-up run (``bench/run.py --setup-probe``) before the first pair, so that
``setup_s`` compares imports on both sides and never a compile of whichever
side's bytecode is stale; ``PYTHONDONTWRITEBYTECODE`` is dropped for the
runs, since under it a cache never fills and every run compiles numpy as
well.  The runs write only to each checkout's ``.bench_out/`` and to that
temporary directory.  Standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

SIDES = ("parent", "change")


def bench(checkout: str, env: dict, *args: str) -> str:
    """The standard output of one ``bench/run.py`` run."""
    cmd = [sys.executable, "bench/run.py", *args]
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} in {checkout} exited {done.returncode}:\n"
                         f"{done.stderr.strip()}")
    return done.stdout


def run_once(checkout: str, env: dict, workload: str, seed: int,
             seconds: float) -> tuple[dict, list]:
    """The end-to-end metrics and the digest chain of one ``bench/run.py`` run."""
    out = bench(checkout, env, "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0")
    report, result = (json.loads(line) for line in out.strip().splitlines()[-2:])
    return ({name: metric["value"] for name, metric in result["metrics"].items()},
            report["digest_chain"])


def first_divergence(parent: list, change: list) -> int | None:
    """The first op index where two digest chains differ over their common prefix."""
    return next((i for i, (p, c) in enumerate(zip(parent, change)) if p != c), None)


def summarise(declared: list, runs: dict) -> list[dict]:
    """Per declared metric: medians, the parent's quartiles and the change's wins."""
    rows = []
    for metric in declared:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else parent * 3
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        p_med, c_med = statistics.median(parent), statistics.median(change)
        rows.append({"metric": name, "better": metric["better"], "parent_median": p_med,
                     "parent_q1": q1, "parent_q3": q3, "change_median": c_med,
                     "ratio": c_med / p_med if p_med else None, "wins": wins,
                     "pairs": len(parent)})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(checkouts["parent"], "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["end_to_end"]

    runs = {side: [] for side in SIDES}
    diverged = None  # (pair, op index) of the first differing digest
    with tempfile.TemporaryDirectory() as caches:
        writes = {key: value for key, value in os.environ.items()
                  if key != "PYTHONDONTWRITEBYTECODE"}  # else the caches never fill
        envs = {side: dict(writes, PYTHONPYCACHEPREFIX=os.path.join(caches, side))
                for side in SIDES}
        for side in SIDES:  # compile each side's bytecode once, untimed
            bench(checkouts[side], envs[side], "--setup-probe", "--workload", args.workload)
        for i in range(args.pairs):
            seed = args.seeds[i % len(args.seeds)]
            chains = {}
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                metrics, chains[side] = run_once(checkouts[side], envs[side], args.workload,
                                                 seed, args.seconds)
                runs[side].append(metrics)
            op = first_divergence(chains["parent"], chains["change"])
            if diverged is None and op is not None:
                diverged = (i + 1, op)
            print(f"pair {i + 1}/{args.pairs} seed {seed}: " + ", ".join(
                f"{side} ops_per_s {runs[side][-1].get('ops_per_s')}" for side in SIDES),
                file=sys.stderr, flush=True)

    rows = summarise(declared, runs)
    print(f"{args.workload}: {args.pairs} pairs, seeds {args.seeds}, {args.seconds} s per run")
    print(f"{'metric':<13}{'better':>7}{'parent median':>15}{'parent [q1, q3]':>26}"
          f"{'change median':>15}{'ratio':>8}{'wins':>7}")
    for row in rows:
        ratio = f"{row['ratio']:.3f}" if row["ratio"] is not None else "-"
        quart = f"[{row['parent_q1']:.4g}, {row['parent_q3']:.4g}]"
        print(f"{row['metric']:<13}{row['better']:>7}{row['parent_median']:>15.4g}{quart:>26}"
              f"{row['change_median']:>15.4g}{ratio:>8}{row['wins']:>4}/{row['pairs']}")
    if diverged is None:
        print(f"outputs identical on {args.pairs}/{args.pairs} pairs")
    else:
        print(f"outputs diverge: first at pair {diverged[0]}, op index {diverged[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
