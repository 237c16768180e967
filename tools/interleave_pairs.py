"""Compare two checkouts on one benchmark workload, op by op, in one interpreter.

    python3 tools/interleave_pairs.py PARENT CHANGE --workload callback_roundtrip \\
        --ops 400 [--seed 1]

Each checkout's ``src/gaborlattice`` is copied into a temporary directory
under its own package name (``gaborlattice_parent``, ``gaborlattice_change``;
the package imports itself by relative imports only), and that checkout's
``bench/workloads.py`` is loaded bound to it.  After one warm-up per side,
op i draws the seeded family ``op_family(seed, i)``, and each side prepares
and runs the workload's op on it, timed from ``run`` to its return; the side
that goes first flips from op to op.  Both sides' outputs are checked
untimed, and their digests compared.

Timing both sides in one process, op by op, cancels the drift between
processes that whole ``bench/run.py`` runs see.  Printed: the median over
the ops of the per-op speed ratio (parent time / change time, so > 1 means
the change is faster), its quartiles, the ops the change won (strictly
faster), the failures per side, and whether every op gave identical
outputs.  Run it with the same checkout twice for an A/A control.  Standard
library plus numpy; it writes only to its temporary directory.
"""

import argparse
import importlib
import importlib.util
import os
import shutil
import statistics
import sys
import tempfile
import time

SIDES = ("parent", "change")
PACKAGE = "gaborlattice"


def load_side(checkout: str, side: str, tmp: str):
    """The side's workload module, bound to its package copied under its own name."""
    name = f"{PACKAGE}_{side}"
    shutil.copytree(os.path.join(checkout, "src", PACKAGE), os.path.join(tmp, name))
    for sub in ("cli", "verify"):
        importlib.import_module(f"{name}.{sub}")
    # workloads.py does ``import gaborlattice.cli``: alias the side's package while it loads
    saved = {key: sys.modules.get(key) for key in (PACKAGE, f"{PACKAGE}.cli", f"{PACKAGE}.verify")}
    sys.modules.update({key: sys.modules[name + key[len(PACKAGE):]] for key in saved})
    try:
        spec = importlib.util.spec_from_file_location(
            f"workloads_{side}", os.path.join(checkout, "bench", "workloads.py"))
        workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    finally:
        for key, module in saved.items():
            if module is None:
                sys.modules.pop(key, None)
            else:
                sys.modules[key] = module
    return workloads


def timed_op(workloads, workload, family) -> tuple[float, bool, bytes]:
    """Seconds of one ``run``, whether its output checked out, and its digest."""
    state = workload.prepare(family)
    t0 = time.perf_counter()
    try:
        result = workload.run(state)
    except Exception as exc:  # a failed op counts as such and yields no digest
        return time.perf_counter() - t0, False, repr(exc).encode()
    seconds = time.perf_counter() - t0
    outcome = workload.check(state, result)
    return seconds, outcome.ok, outcome.digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--ops", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sides = {}
        for side in SIDES:
            workloads, workdir = load_side(checkouts[side], side, tmp), os.path.join(tmp, side)
            os.makedirs(workdir)
            workload = workloads.WORKLOADS[args.workload](workdir)
            workload.warm_up(workloads.WARM_UP_FAMILY)
            sides[side] = (workloads, workload)
        times = {side: [] for side in SIDES}
        failed = {side: 0 for side in SIDES}
        same = 0
        for i in range(args.ops):
            family = sides["parent"][0].op_family(args.seed, i)
            digests = {}
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                seconds, ok, digests[side] = timed_op(*sides[side], family)
                times[side].append(seconds)
                failed[side] += not ok
            same += digests["parent"] == digests["change"]

    ratios = [p / c for p, c in zip(times["parent"], times["change"])]
    q1, med, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    print(f"{args.workload}: {args.ops} ops, seed {args.seed}: speed x{med:.3f} "
          f"[q1 {q1:.3f}, q3 {q3:.3f}], change faster on {wins}/{args.ops}; "
          f"op ms parent {1e3 * statistics.median(times['parent']):.3f}, "
          f"change {1e3 * statistics.median(times['change']):.3f}; "
          f"failed parent {failed['parent']}, change {failed['change']}; "
          f"outputs identical on {same}/{args.ops}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
