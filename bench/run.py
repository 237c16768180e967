"""gaborlattice benchmark.

    python3 bench/run.py --workload cli_grid --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  One process, one thread,
closed loop: the next operation starts when the last one finished.

--trace 0 measures the end-to-end metrics with no wrappers installed.
--trace 1 runs the same inputs three times: plain (for the overhead
ratio), with ScaledValue constructions counted, and with a span around
every public function of each layer; it reports per-layer metrics.

The last line of standard output is the result object; the line before
it is the full report (environment, provenance, output digest, tail
percentile, probes), which is also written to ``.bench_out/``.  See
METRICS.md for why each workload and metric was chosen.
"""

import os
import sys

# one thread for BLAS as well as for the program; set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("GABORLATTICE_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

from metrics import Tally, span_totals, tail  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("cli_grid", "callback_roundtrip", "verify_all")
SETUP_SAMPLES = 5
LAYERS = ("qtheta", "signals", "recon", "oracle", "verify", "cli")


def require_sources():
    if not os.path.isfile(os.path.join(SRC, "gaborlattice", "__init__.py")):
        raise SystemExit(f"error: no gaborlattice sources under {SRC}")


def import_program():
    """Import gaborlattice from this checkout's src/, or exit non-zero."""
    require_sources()
    sys.path.insert(0, SRC)
    import gaborlattice

    if not os.path.abspath(gaborlattice.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: gaborlattice imported from {gaborlattice.__file__}, "
                         f"not from {SRC}")
    return gaborlattice


def timed_setup(name: str, workdir: str):
    """Import the package, generate the warm-up input and run it once."""
    start = time.perf_counter()
    import_program()
    import workloads

    workload = workloads.WORKLOADS[name](workdir)
    workload.warm_up(workloads.WARM_UP_FAMILY)
    return workload, time.perf_counter() - start


def setup_in_fresh_interpreter(name: str) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", name],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"error: setup probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_ops(workload, seed: int, budget: float | None = None, count: int | None = None,
            recorder=None, between=None):
    """Run operations until ``budget`` seconds are used, or exactly ``count`` of them.

    Returns the tally, the digest chain (entry k is the sha256 over the
    outputs of operations 0..k in sequence, so runs with different
    operation counts compare on their common prefix) and per-operation
    details.  A failed operation (an
    exception or a wrong output) is recorded and never retried.
    ``between(elapsed)`` runs after each operation; its time is not
    charged to the budget.
    """
    from workloads import op_family

    tally = Tally()
    digest = hashlib.sha256()
    chain = []
    details = []
    start = time.perf_counter()
    paused = 0.0
    index = 0
    while True:
        elapsed = time.perf_counter() - start - paused
        if count is not None:
            if index >= count:
                break
        elif index and elapsed + statistics.median(tally.times) > budget:
            break
        state = workload.prepare(op_family(seed, index))
        if recorder is not None:
            recorder.entry_keys = []
            root = recorder.enter("op")
        error = outcome = None
        t0 = time.perf_counter()
        try:
            result = workload.run(state)
        except (Exception, SystemExit) as exc:  # the operation failed; keep going
            error = f"op {index}: {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if recorder is not None:
            recorder.exit(root)
        if error is None:
            try:
                outcome = workload.check(state, result)
            except Exception as exc:  # malformed output counts as a failed operation
                error = f"op {index} check: {type(exc).__name__}: {exc}"
        if outcome is None:
            digest.update(f"failed {index}".encode())
            tally.add(seconds, False, 0, error)
            info = {}
        else:
            digest.update(outcome.digest)
            tally.add(seconds, outcome.ok, outcome.points,
                      None if outcome.ok else f"op {index}: wrong output {outcome.info}")
            info = dict(outcome.info)
        chain.append(digest.hexdigest())
        if recorder is not None:
            keys = recorder.entry_keys
            info["gamma_entries"] = len(keys)
            info["gamma_distinct_ratio"] = len(set(keys)) / len(keys) if keys else 0.0
        details.append(info)
        index += 1
        if between is not None:
            pause = time.perf_counter()
            between(pause - start - paused)
            paused += time.perf_counter() - pause
    return tally, chain, details


def probes(workdir: str) -> dict:
    import workloads

    return {"wide": workloads.wide_probe(),
            "table_auto": workloads.auto_truncation_probe(workdir)}


def plain_run(workload, args, own_setup: float) -> tuple[dict, dict]:
    # set-up samples are spread over the run, so that one slow spell of
    # the machine does not set their median
    setups = [own_setup]

    def sample_setup(elapsed: float):
        if len(setups) < SETUP_SAMPLES and elapsed >= len(setups) * args.seconds / SETUP_SAMPLES:
            setups.append(setup_in_fresh_interpreter(args.workload))

    tally, chain, _ = run_ops(workload, args.seed, budget=args.seconds, between=sample_setup)
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_in_fresh_interpreter(args.workload))
    metrics = {"setup_s": statistics.median(setups), **tally.end_to_end(),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    report = {"setup_samples_s": setups, "op_times_s": tally.times,
              "op_s_tail": tail(tally.times), "fail_frac": tally.fail_frac,
              "errors": tally.errors, "digest": chain[-1], "digest_chain": chain,
              "probes": probes(workload_dir(args))}
    return metrics, {"tally": tally, "report": report, "consistent": True}


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def traced_run(workload, args) -> tuple[dict, dict]:
    import spans
    from gaborlattice.scaled import ScaledValue

    plain, plain_chain, _ = run_ops(workload, args.seed, budget=args.seconds / 3.0)
    n = plain.attempted
    created = [0]
    with spans.counting_constructions(ScaledValue, created):
        counted, counted_chain, _ = run_ops(workload, args.seed, count=n)
    recorder = spans.Recorder()
    workload.sampler_counter = [0]
    with spans.installed(recorder) as bindings:
        traced, traced_chain, details = run_ops(workload, args.seed, count=n, recorder=recorder)
    sampler_calls = workload.sampler_counter[0]
    workload.sampler_counter = None
    os.makedirs(OUT, exist_ok=True)
    recorder.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))

    totals = span_totals([tuple(s) for s in recorder.spans])
    missing = spans.uncovered(args.workload, totals)
    if missing:
        raise SystemExit(f"error: wrapped functions recorded no call on {args.workload}: "
                         f"{missing}")

    def per_op(name: str, key: str = "self_s") -> float:
        return totals.get(name, {}).get(key, 0) / n

    op_durations = [end - start for name, start, end, _ in recorder.spans if name == "op"]
    probe = probes(workload_dir(args))
    metrics = {
        "scaled.values_created": created[0] / n,
        "qtheta.coeff_E.calls": per_op("qtheta.coeff_E", "calls"),
        "qtheta.coeff_E.self_s": per_op("qtheta.coeff_E"),
        "qtheta.theta_series.calls": per_op("qtheta.theta_series", "calls"),
        "qtheta.theta_series.self_s": per_op("qtheta.theta_series"),
        "qtheta.theta_product.self_s": per_op("qtheta.theta_product"),
        "qtheta.theta_prime_lattice.calls": per_op("qtheta.theta_prime_lattice", "calls"),
        "qtheta.theta_prime_lattice.self_s": per_op("qtheta.theta_prime_lattice"),
        "signals.forward_table.self_s": per_op("signals.forward_table"),
        "signals.gamma_entries": mean(d["gamma_entries"] for d in details),
        "signals.gamma_quadrature.self_s": per_op("signals.gamma_quadrature"),
        "signals.sampler_calls": sampler_calls / n,
        "signals.gamma_distinct_ratio": mean(d["gamma_distinct_ratio"] for d in details),
        "signals.table_payload_s": per_op("signals.to_payload") + per_op("signals.from_payload"),
        "recon.auto_truncation.self_s": per_op("recon.auto_truncation"),
        "recon.reconstruct_grid.self_s": per_op("recon.reconstruct_grid"),
        "recon.reconstruct_point.calls": per_op("recon.reconstruct_point", "calls"),
        "recon.reconstruct_point.self_s": per_op("recon.reconstruct_point"),
        "recon.inner_fourier_sum.calls": per_op("recon.inner_fourier_sum", "calls"),
        "recon.inner_fourier_sum.self_s": per_op("recon.inner_fourier_sum"),
        "recon.points": mean(d.get("points", 0) for d in details),
        "recon.cells": mean(d.get("cells", 0) for d in details),
        "recon.M_used": mean(d.get("M_used", 0) for d in details),
        "recon.K_used": mean(d.get("K_used", 0) for d in details),
        "recon.sup_rel_err": max(d.get("sup_rel_err", 0.0) for d in details),
        "recon.wide_probe.sup_rel_err": probe["wide"]["sup_rel_err"],
        "recon.wide_probe.tail_estimate": probe["wide"]["tail_estimate"],
        "recon.table_auto_probe.sup_rel_err": probe["table_auto"]["sup_rel_err"],
    }
    for oracle in ("laurent_c0", "spatial_A", "G_series", "lagrange_interpolant", "mk_trace"):
        metrics[f"oracle.{oracle}.calls"] = per_op(f"oracle.{oracle}", "calls")
        metrics[f"oracle.{oracle}.self_s"] = per_op(f"oracle.{oracle}")
    for suite in ("theta", "coeffs", "poisson", "interpolation"):
        metrics[f"verify.{suite}_suite.self_s"] = per_op(f"verify.{suite}_suite")
    metrics.update({
        "cli.forward.self_s": per_op("cli.forward"),
        "cli.reconstruct.self_s": per_op("cli.reconstruct"),
        "cli.table_bytes": mean(d.get("table_bytes", 0) for d in details),
        "cli.csv_bytes": mean(d.get("csv_bytes", 0) for d in details),
    })
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            entry["self_s"] for name, entry in totals.items()
            if name.startswith(layer + ".")) / n
    metrics["op.self_s"] = per_op("op")
    metrics["trace.overhead_frac"] = (statistics.median(op_durations)
                                      / statistics.median(plain.times) - 1.0)

    tally = Tally()
    for part in (plain, counted, traced):
        tally.times += part.times
        tally.ok += part.ok
        tally.points += part.points
        tally.errors += part.errors
    digests = {"plain": plain_chain[-1], "counted": counted_chain[-1],
               "traced": traced_chain[-1]}
    report = {"ops_per_pass": n, "digests": digests, "bindings": bindings,
              "span_totals": totals, "errors": tally.errors, "probes": probe}
    return metrics, {"tally": tally, "report": report,
                     "consistent": len(set(digests.values())) == 1}


def workload_dir(args) -> str:
    return os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")


def load_declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_sha256() -> str:
    digest = hashlib.sha256()
    package = os.path.join(SRC, "gaborlattice")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    require_sources()
    workdir = workload_dir(args)
    os.makedirs(workdir, exist_ok=True)
    try:
        workload, own_setup = timed_setup(args.workload, workdir)
        if args.setup_probe:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        if args.trace:
            metrics, run = traced_run(workload, args)
        else:
            metrics, run = plain_run(workload, args, own_setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = {m["name"]: m["unit"] for m in
                load_declared()["per_layer" if args.trace else "end_to_end"]}
    if set(declared) != set(metrics):
        raise SystemExit(f"error: metrics {sorted(set(metrics) ^ set(declared))} differ "
                         "from BENCHMARK.json")

    import gaborlattice

    tally = run["tally"]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "provenance": {"git_commit": git_commit(), "source_sha256": source_sha256(),
                       "gaborlattice_version": gaborlattice.__version__, "seed": args.seed},
        "metrics": metrics, **run["report"],
    }
    os.makedirs(OUT, exist_ok=True)
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(json.dumps(report, sort_keys=True))
    result = {
        "correct": tally.failed == 0 and run["consistent"],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
