"""Seeded sweep of the closed-form round trip against its own tolerance.

    python3 tools/contract_sweep.py [--seed 2026] [--families 6] [--cap 120]

Run from the root of a source checkout; the package is imported from its
``src/``.  Each run is a ``round_trip`` of one random Gaussian family (1 to
3 components, complex-normal amplitudes, centres in [-2, 2], modulations in
[-4, 4], drawn from ``numpy.random.default_rng(seed)``) at one tau, x_max
and tol, on the grid [-x_max, x_max] with step 0.1.  Its sup error is
relative to sup|f|, as ``ReconReport`` computes it.  A run falls in one of
four classes:

* meets: sup_error <= tol;
* refused: a package error (its class is printed);
* silent miss: a value with sup_error > tol, and nothing said about it;
* runaway: still running at the per-run time cap of ``--cap`` seconds.  It
  is stopped there and counted as a failure, not skipped.

One line per run is printed, then the counts per (tau, x_max, tol) and the
totals.  Standard library plus the package and numpy; the cap uses
SIGALRM, so it runs on POSIX systems only.
"""

import argparse
import collections
import os
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from gaborlattice import GaborLatticeError, ReconConfig, SignalModel, round_trip  # noqa: E402

TAUS = (0.02, 0.05, 0.1, 0.3, 1.0, 2.0, 3.0, 3.14)
X_MAXES = (3.0, 6.0, 10.0)
TOLS = (1e-4, 1e-8, 1e-10)
STEP = 0.1
CLASSES = ("meets", "refused", "silent miss", "runaway")


def families(seed: int, count: int) -> list:
    """``count`` Gaussian families as lists of (amplitude, centre, modulation)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        size = int(rng.integers(1, 4))
        out.append([(complex(rng.normal(), rng.normal()), float(rng.uniform(-2.0, 2.0)),
                     float(rng.uniform(-4.0, 4.0))) for _ in range(size)])
    return out


class _Runaway(Exception):
    pass


def _alarm(signum, frame):
    raise _Runaway


def classify(family, tau: float, x_max: float, tol: float, cap: float) -> tuple[str, str]:
    """The class of one run and a note: its sup error and (M, K), the
    refusal, or the cap it passed."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, cap)
    try:
        report = round_trip(SignalModel.gaussian(family), tau,
                            ReconConfig(tol=tol, grid=(-x_max, x_max, STEP)))
    except _Runaway:
        return "runaway", f"past {cap:g} s"
    except GaborLatticeError as exc:
        return "refused", type(exc).__name__
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    note = f"sup_error={report.sup_error:.3g} M={report.M_used} K={report.K_used}"
    return ("meets" if report.sup_error <= tol else "silent miss"), note


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=2026, help="seed of the families")
    parser.add_argument("--families", type=int, default=6, help="number of families")
    parser.add_argument("--cap", type=float, default=120.0, help="seconds per run")
    args = parser.parse_args(argv)
    counts = collections.defaultdict(collections.Counter)
    for tau in TAUS:
        for x_max in X_MAXES:
            for tol in TOLS:
                for i, family in enumerate(families(args.seed, args.families)):
                    start = time.perf_counter()
                    kind, note = classify(family, tau, x_max, tol, args.cap)
                    counts[tau, x_max, tol][kind] += 1
                    print(f"family={i} tau={tau:g} x_max={x_max:g} tol={tol:g} {kind}: {note} "
                          f"({time.perf_counter() - start:.2f} s)", flush=True)
    print("\ntau x_max tol " + " | ".join(CLASSES))
    for (tau, x_max, tol), row in counts.items():
        print(f"{tau:g} {x_max:g} {tol:g} " + " | ".join(str(row[c]) for c in CLASSES))
    total = sum(counts.values(), collections.Counter())
    print("total " + " | ".join(f"{c} {total[c]}" for c in CLASSES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
