"""One sha256 over the deterministic outputs of seeded inputs.

    python3 tools/output_digest.py [--seed 1] [--families 5]

Run from the root of a source checkout; the package is imported from its
``src/`` and the seeded inputs come from ``bench/workloads.py`` (imported,
not edited).  For each seeded Gaussian family it hashes:

* the ``verify_all`` check payloads (``run_suite("all", 1.0)``);
* the ``mk_trace`` traces of all three kinds, k in [-6, 6], at x = 0.3 and
  tau in {0.6, 1};
* the CLI forward/reconstruct outputs of ``cli_grid`` on 201 points, as two
  parts: ``cli_data``, the raw bytes of the table file, the CSV and the CSV
  of the same reconstruction without a reference signal, and
  ``cli_summary``, the summary without ``meta``;
* the callback round trip of ``callback_roundtrip``, as two parts:
  ``callback_round_trip``, its ``M_used``, ``K_used``, ``tail_estimate`` and
  reconstruction, and ``callback_errors``, its ``sup_error`` and
  ``l2_error``;
* the callback tables, values and error bounds: ``forward_table`` of a
  sampler hiding the family moved off centre (each centre + 2.5, each
  modulation x 6) at M = 5, K = 14 and (tau, growth) in (0.6, 0), (1, 0)
  and (0.3, 0.5), then at M = 5, K = 60 and (1, 0), whose higher levels
  take several column chunks of the quadrature's phases;
* the truncation choices: ``auto_truncation``'s (M, K), ``tail_estimate``,
  table values and error bounds (or the refusal's diagnostics) for the
  family and for a sampler hiding it, at tau in {0.3, 0.6, 1, 2, 3.1},
  tol in {1e-4, 1e-8, 1e-10} and x_max in {0, 0.3, 3, 2 pi};
* the theta layer, the same for every family: at q in {0.05, 0.3, 0.5, 0.8,
  0.9, 0.95}, the series and product forms, ``eta`` and ``ln_eta`` at 62
  points with |ln z| up to 10 |ln q| and the zeros q^n, |n| <= 10, then
  ``theta_on_circles`` on |z| = q^p, p in {-2.5, -0.5, 0.5, 3.5}, at offsets
  0 and 1/2, and Theta'(q^n) with both closed-form candidates for |n| <= 64;
  ``coeff_E`` for |m| <= 64, both variants, at tau in {0.02, 0.05, 0.3, 1, 3};
  a refusal contributes its class name and message;
* the pointwise engine, the same for every family: ``reconstruct_point`` at
  M = 5, K = 9 on the two-component family of the engine's mpmath test, at
  amplitude 1 and 1e-200 and tau in {0.6, 1, 2.5}, on 25 points across
  [-2 pi, 2 pi] as one array and on every sixth of them as a number, so a
  change to the pointwise path shows apart from one to the grid path.

Each part's sha256 is printed on its own line, then the combined one on
the last line.  Two checkouts whose last lines agree give these outputs
bit for bit; a change that moves only the error metrics shows in
``cli_summary`` and ``callback_errors`` alone.  Standard library plus the
package and numpy.
"""

import argparse
import functools
import hashlib
import json
import math
import os
import struct
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from gaborlattice import (  # noqa: E402
    GaborLatticeError, NonConvergenceError, SignalModel, auto_truncation, cli, forward_table,
    oracle, qtheta, reconstruct_point)
from gaborlattice.qtheta import nome_from_tau  # noqa: E402

TRACE_KINDS = (oracle.G_OVER_THETA, oracle.GTILDE_OVER_THETA, oracle.RESIDUAL_ALPHA)
#: (tau, growth, K) of the callback tables, each at M = 5
CALLBACK_SETTINGS = ((0.6, 0.0, 14), (1.0, 0.0, 14), (0.3, 0.5, 14), (1.0, 0.0, 60))
TRUNCATION_GRID = tuple((tau, tol, x_max) for tau in (0.3, 0.6, 1.0, 2.0, 3.1)
                        for tol in (1e-4, 1e-8, 1e-10) for x_max in (0.0, 0.3, 3.0, 2.0 * math.pi))
QTHETA_NOMES = (0.05, 0.3, 0.5, 0.8, 0.9, 0.95)
QTHETA_TAUS = (0.02, 0.05, 0.3, 1.0, 3.0)
ENGINE_FAMILY = ((0.648904 - 0.489038j, 0.551371, -0.824378),
                 (0.455481 - 0.463837j, -0.989469, 0.963685))


def verify_payloads(family) -> bytes:
    workload = workloads.VerifyAll("")
    state = workload.prepare(family)
    return workload.check(state, workload.run(state)).digest


def traces(family) -> bytes:
    signal = workloads.VerifyAll("").prepare(family)["signal"]
    out = b""
    for tau in (0.6, 1.0):
        for kind in TRACE_KINDS:
            trace = oracle.mk_trace(kind, range(-6, 7), 0.3, signal, nome_from_tau(tau))
            out += kind.encode() + struct.pack(f"<{len(trace)}q", *(k for k, _ in trace))
            out += struct.pack(f"<{len(trace)}d", *(value for _, value in trace))
    return out


@functools.cache
def cli_outputs(family: tuple, workdir: str) -> tuple[bytes, bytes]:
    """The data files' bytes and the summary's, of one forward/reconstruct run."""
    workload = workloads.CliGrid(workdir)
    state = workload.prepare(list(family), step=10 * workload.step)
    if workload.run(state) != (0, 0):
        raise SystemExit("error: the CLI forward/reconstruct run failed")
    with open(workload.paths["reconstruct.json"], encoding="utf-8") as fh:
        config = json.load(fh)
    config.pop("signal")
    no_ref = {key: os.path.join(workdir, f"no_ref_{key}") for key in ("config.json", "points.csv")}
    with open(no_ref["config.json"], "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    if cli.main(["reconstruct", "--config", no_ref["config.json"], "--table",
                 workload.paths["table.json"], "--output", no_ref["points.csv"]]) != 0:
        raise SystemExit("error: the CLI reconstruct run without a reference failed")
    with open(workload.paths["points.csv.summary.json"], encoding="utf-8") as fh:
        summary = json.load(fh)
    summary.pop("meta", None)
    data = b""
    for path in (workload.paths["table.json"], workload.paths["points.csv"], no_ref["points.csv"]):
        with open(path, "rb") as fh:
            data += fh.read()
    return data, json.dumps(summary, sort_keys=True).encode()


@functools.cache
def round_trip(family: tuple) -> tuple[bytes, bytes]:
    """The reconstruction's bytes and the error metrics', of one callback round trip."""
    workload = workloads.CallbackRoundTrip("")
    report = workload.run(workload.prepare(list(family)))
    head = struct.pack("<2qd", report.M_used, report.K_used, report.tail_estimate)
    return (head + np.ascontiguousarray(report.reconstructed, dtype="<c16").tobytes(),
            struct.pack("<2d", report.sup_error, report.l2_error))


def callback_tables(family) -> bytes:
    moved = [(a, c + 2.5, 6.0 * b) for a, c, b in family]  # (amplitude, centre, modulation)
    sampler, bound = workloads.make_sampler(moved), sum(abs(a) for a, _, _ in moved)
    out = b""
    for tau, growth, K in CALLBACK_SETTINGS:
        out += table_bytes(forward_table(SignalModel.callback(sampler, bound, growth), tau, 5, K))
    return out


def table_bytes(table) -> bytes:
    out = b""
    for part in (table, table.errors):
        out += np.ascontiguousarray(part.mantissa, dtype="<c16").tobytes()
        out += np.ascontiguousarray(part.exponent, dtype="<i8").tobytes()
    return out


def truncations(family) -> bytes:
    sampler, bound = workloads.make_sampler(family), sum(abs(a) for a, _, _ in family)
    out = b""
    for signal in (SignalModel.gaussian(family), SignalModel.callback(sampler, bound, 0.0)):
        for tau, tol, x_max in TRUNCATION_GRID:
            try:
                choice = auto_truncation(signal, nome_from_tau(tau), tol, x_max)
            except NonConvergenceError as exc:
                out += json.dumps(exc.diagnostics, sort_keys=True).encode()
                continue
            out += struct.pack("<2qd", choice.M, choice.K, choice.tail_estimate)
            out += table_bytes(choice.table)
    return out


def call_bytes(call, *args, **kwargs) -> bytes:
    """The arrays a call gives, each as little-endian bytes, or its refusal."""
    try:
        values = call(*args, **kwargs)
    except GaborLatticeError as exc:
        return f"{type(exc).__name__}: {exc}".encode()
    return b"".join(np.asarray(v, dtype=np.asarray(v).dtype.newbyteorder("<")).tobytes()
                    for v in values)


@functools.cache
def qtheta_values() -> bytes:
    out = b""
    for q in QTHETA_NOMES:
        ln_q = math.log(q)
        zs = np.exp(np.linspace(10 * ln_q, -10 * ln_q, 41) + 1j * np.linspace(0.1, 6.0, 41))
        zs = np.concatenate([zs, [q ** n for n in range(-10, 11)]])
        for form in (qtheta.theta_series_scaled, qtheta.theta_product_scaled):
            out += call_bytes(form, zs, q)
        out += call_bytes(lambda: (qtheta.eta(zs, q), qtheta.ln_eta(zs, q)))
        radii = np.exp(np.array([-2.5, -0.5, 0.5, 3.5]) * ln_q)
        for offset in (0.0, 0.5):
            out += call_bytes(qtheta.theta_on_circles, radii, q, 64, offset)
        ns = np.arange(-64, 65)
        out += call_bytes(qtheta.theta_prime_lattice, ns, q)
        for variant in ("corrected", "printed"):
            out += call_bytes(qtheta.lattice_derivative_candidate, ns, q, variant=variant)
    for tau in QTHETA_TAUS:
        for variant in ("corrected", "printed"):
            out += call_bytes(qtheta.coeff_E, np.arange(-64, 65), nome_from_tau(tau),
                              variant=variant)
    return out


@functools.cache
def engine_values() -> bytes:
    xs = np.linspace(-2.0 * math.pi, 2.0 * math.pi, 25)
    out = b""
    for amplitude in (1.0, 1e-200):
        signal = SignalModel.gaussian([(amplitude * a, c, b) for a, c, b in ENGINE_FAMILY])
        for tau in (0.6, 1.0, 2.5):
            table, params = forward_table(signal, tau, 5, 9), nome_from_tau(tau)
            out += call_bytes(lambda: [reconstruct_point(xs, table, params, 5, 9)] + [
                reconstruct_point(float(x), table, params, 5, 9) for x in xs[::6]])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1, help="seed of the input families")
    parser.add_argument("--families", type=int, default=5, help="families per part")
    args = parser.parse_args(argv)
    families = [workloads.op_family(args.seed, i) for i in range(args.families)]
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as workdir:
        parts = {"verify_all": verify_payloads, "mk_trace": traces,
                 "cli_data": lambda family: cli_outputs(tuple(family), workdir)[0],
                 "cli_summary": lambda family: cli_outputs(tuple(family), workdir)[1],
                 "callback_round_trip": lambda family: round_trip(tuple(family))[0],
                 "callback_errors": lambda family: round_trip(tuple(family))[1],
                 "callback_table": callback_tables,
                 "truncation": truncations,
                 "qtheta": lambda family: qtheta_values(),
                 "engine": lambda family: engine_values()}
        for name, part in parts.items():
            digest = hashlib.sha256(b"".join(part(family) for family in families)).hexdigest()
            print(f"{name} {digest}")
            total.update(f"{name} {digest}\n".encode())
    print(f"sha256 {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
