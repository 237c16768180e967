"""Batch front door: validated JSON configs in, machine-readable files out.

Commands
--------
coeffs       reconstruction coefficients next to their contour-oracle values
forward      compute and serialise a lattice coefficient table
reconstruct  evaluate the inversion on a grid from a stored table
verify       run a named identity suite, emit a JSON report
sweep        fixed-truncation round trips across a list of densities

This module checks only a config's shape (its keys, the signal kind, the
non-empty lists, "auto" or {M, K}) and raises ConfigError; every value goes
as given to the routine that reads it, which checks it through
:mod:`gaborlattice.errors` as for a library call.

Contracts: exit 0 on success, 1 when a verification check fails, 2 on
validation problems, 3 on numerical non-convergence.  Data outputs are
byte-deterministic for a fixed config (timings live in a separate
"meta" object excluded from comparisons); error paths never leave
partial files behind, as each file is written to a temp file renamed at
the end.  CSV numbers are ``format(v, ".17g")``; ``reconstruct`` streams
its rows from :func:`~gaborlattice.fmt17.csv_rows` a block at a time.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import functools
import io
import itertools
import json
import os
import sys
import time
import warnings
from collections.abc import Iterable

import numpy as np

from . import __version__
from .errors import (
    ConfigError,
    DomainError,
    InvalidParameterError,
    NonConvergenceError,
    RegimeError,
    SaturationError,
    check_indices,
    check_real,
)
from .oracle import laurent_c0
from .qtheta import MAX_LATTICE_INDEX, coeff_E, nome_from_tau
from .recon import ReconConfig, auto_truncation, reconstruct_grid, round_trip
from .scaled import BASE_LOG2, ldexp_array
from .signals import GAUSSIAN_FAMILY, GammaTable, SignalModel, forward_table
from .verify import SUITES, run_suite


# ------------------------------------------------------------------ helpers


def _fmt(value: float) -> str:
    """17 significant digits: round-trippable doubles."""
    return format(float(value), ".17g")


def _atomic_write(path: str, chunks: Iterable[str]):
    """Write the text chunks to ``path`` through a temp file renamed at the
    end; on any failure, mid-stream too, neither file is left behind."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def _emit(path: str | None, chunks: Iterable[str], stream=None):
    if path is None:
        (stream or sys.stdout).writelines(chunks)
    else:
        _atomic_write(path, chunks)


def _json_dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _csv_dump(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# ------------------------------------------------------- config validation


def _expect_keys(obj, where: str, required: set[str], optional: set[str] = frozenset()):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - required - set(optional))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    missing = sorted(required - set(obj))
    if missing:
        raise ConfigError(f"{where}: missing required keys {missing}")


def parse_signal(spec) -> SignalModel:
    _expect_keys(spec, "signal", {"kind", "components"})
    if spec["kind"] != GAUSSIAN_FAMILY:
        raise ConfigError(
            f"signal.kind: only {GAUSSIAN_FAMILY!r} signals are expressible in configs")
    if not isinstance(spec["components"], list) or not spec["components"]:
        raise ConfigError("signal.components: expected a non-empty list")
    comps = []
    for i, comp in enumerate(spec["components"]):
        _expect_keys(comp, f"signal.components[{i}]", {"amplitude", "center", "modulation"})
        amp = comp["amplitude"]
        if isinstance(amp, list) and len(amp) == 2:  # [re, im]
            amp = complex(check_real("amplitude real part", amp[0]),
                          check_real("amplitude imaginary part", amp[1]))
        comps.append((amp, comp["center"], comp["modulation"]))
    return SignalModel.gaussian(comps)


def signal_to_spec(signal: SignalModel) -> dict:
    return {
        "kind": signal.kind,
        "components": [
            {
                "amplitude": [c.amplitude.real, c.amplitude.imag],
                "center": c.center,
                "modulation": c.modulation,
            }
            for c in signal.components
        ],
    }


def parse_grid(spec) -> tuple:
    """(min, max, step) as given; ReconConfig checks the values."""
    _expect_keys(spec, "grid", {"min", "max", "step"})
    return (spec["min"], spec["max"], spec["step"])


def parse_truncation(spec) -> tuple | None:
    """None for "auto", else (M, K) as given; the routine they go to checks them."""
    if spec == "auto":
        return None
    _expect_keys(spec, "truncation", {"M", "K"})
    return (spec["M"], spec["K"])


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc


# ------------------------------------------------------------------ coeffs


def cmd_coeffs(args) -> int:
    params = nome_from_tau(args.tau)
    m_min, m_max = check_indices([args.m_min, args.m_max], MAX_LATTICE_INDEX)
    ms = np.arange(m_min, m_max + 1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        mants, exps = coeff_E(ms, params)
    recorded = list(dict.fromkeys(str(w.message) for w in caught))
    oracles = laurent_c0(ms, params)
    # down-converted once; None where a value leaves the double range
    plains = [v if cmath.isfinite(v) else None
              for v in ldexp_array(mants, exps * BASE_LOG2).tolist()]
    rows = []
    for m, mant, exp, plain, oracle in zip(ms.tolist(), mants.tolist(), exps.tolist(), plains,
                                           oracles.tolist()):
        rel = abs(plain - oracle) / abs(oracle) if plain is not None and oracle != 0 else None
        rows.append({
            "m": m,
            "mantissa_re": mant.real,
            "mantissa_im": mant.imag,
            "exponent": exp,
            "value_re": None if plain is None else plain.real,
            "value_im": None if plain is None else plain.imag,
            "oracle_re": oracle.real,
            "oracle_im": oracle.imag,
            "rel_diff_vs_oracle": rel,
        })
    meta = {
        "tau": params.tau,
        "regime": params.regime,
        "variant": "corrected",
        "warnings": recorded,
        "tool_version": __version__,
    }
    if args.format == "json":
        _emit(args.output, [_json_dumps({"meta": meta, "rows": rows})])
    else:
        header = list(rows[0]) if rows else [
            "m", "mantissa_re", "mantissa_im", "exponent", "value_re", "value_im",
            "oracle_re", "oracle_im", "rel_diff_vs_oracle",
        ]
        table = [
            ["" if row[key] is None else
             (str(row[key]) if key in ("m", "exponent") else _fmt(row[key]))
             for key in header]
            for row in rows
        ]
        _emit(args.output, [_csv_dump(header, table)])
        for note in recorded:
            print(f"warning: {note}", file=sys.stderr)
    return 0


# ----------------------------------------------------------------- forward


def _table_document(table: GammaTable, signal_spec: dict | None) -> dict:
    return {
        "meta": {
            "tau": table.tau,
            "M": table.M,
            "K": table.K,
            "signal": signal_spec,
            "tool_version": __version__,
        },
        "data": table.to_payload(),
    }


def _table_json(table: GammaTable, signal_spec: dict | None) -> str:
    """``_json_dumps`` of the table document.  json's encoder is pure Python
    with ``indent``, so the (never empty) data lists are written by ``repr``,
    which is how json writes ints and finite floats."""
    doc = _table_document(table, signal_spec)
    data, doc["data"] = doc["data"], {key: f"@{key}@" for key in doc["data"]}
    text = _json_dumps(doc)
    for key, values in data.items():
        body = ",\n      ".join(map(repr, values))
        text = text.replace(f'"@{key}@"', "[\n      " + body + "\n    ]")
    return text


def _table_from_document(doc: dict, where: str) -> GammaTable:
    _expect_keys(doc, where, {"meta", "data"})
    meta = doc["meta"]
    _expect_keys(meta, f"{where}.meta", {"tau", "M", "K"}, {"signal", "tool_version"})
    return GammaTable.from_payload(meta["M"], meta["K"], meta["tau"], doc["data"])


def cmd_forward(args) -> int:
    config = _load_config(args.config)
    _expect_keys(config, "config", {"tau", "signal", "truncation"}, {"tol", "x_max"})
    signal = parse_signal(config["signal"])
    truncation = parse_truncation(config["truncation"])
    tol = args.tol if args.tol is not None else config.get("tol", 1e-8)
    tol = check_real("tol", tol, 0.0, 1.0)  # read on both branches, used on one
    if truncation is None:
        table = auto_truncation(signal, nome_from_tau(config["tau"]), tol,
                                x_max=config.get("x_max", 0.0)).table
    else:
        table = forward_table(signal, config["tau"], *truncation)
    _emit(args.output, [_table_json(table, signal_to_spec(signal))])
    return 0


# ------------------------------------------------------------- reconstruct


def cmd_reconstruct(args) -> int:
    config = _load_config(args.config)
    _expect_keys(config, "config", {"tau", "grid"}, {"tol", "truncation", "signal"})
    recon_config = ReconConfig(tol=args.tol if args.tol is not None else config.get("tol", 1e-8),
                               grid=parse_grid(config["grid"]),
                               truncation=parse_truncation(config.get("truncation", "auto")))
    reference = parse_signal(config["signal"]) if "signal" in config else None
    params = nome_from_tau(config["tau"])
    table = _table_from_document(_load_config(args.table), "table")
    report = reconstruct_grid(recon_config, table, params, reference=reference)

    rec, ref = report.reconstructed, report.reference
    columns = (None, None) if ref is None else (ref.real, ref.imag)
    columns += (rec.real, rec.imag, report.abs_error)
    summary = {
        "summary": {
            "tau": params.tau,
            "points": len(report.xs),
            "M_used": report.M_used,
            "K_used": report.K_used,
            "tail_estimate": report.tail_estimate,
            "sup_error": report.sup_error,
            "l2_error": report.l2_error,
        },
        "meta": {"elapsed_seconds": report.elapsed, "tool_version": __version__},
    }
    # imported on use, like its tables: only this command needs the formatter
    from . import fmt17

    header = "x,f_ref_re,f_ref_im,f_rec_re,f_rec_im,abs_err\n"
    _emit(args.output, itertools.chain([header], fmt17.csv_rows([report.xs, *columns])))
    summary_path = args.summary or (f"{args.output}.summary.json" if args.output else None)
    _emit(summary_path, [_json_dumps(summary)], sys.stderr)  # stdout carries the CSV alone
    return 0


# ------------------------------------------------------------------ verify


def cmd_verify(args) -> int:
    signal = None
    if args.config is not None:
        config = _load_config(args.config)
        _expect_keys(config, "config", set(), {"signal"})
        if "signal" in config:
            signal = parse_signal(config["signal"])
    start = time.perf_counter()
    report = run_suite(args.suite, args.tau, signal=signal)
    meta = {"elapsed_seconds": time.perf_counter() - start, "tool_version": __version__}
    _emit(args.output, [_json_dumps({**report.to_payload(), "meta": meta})])
    return 0 if report.passed else 1


# ------------------------------------------------------------------- sweep


def cmd_sweep(args) -> int:
    config = _load_config(args.config)
    _expect_keys(config, "config", {"tau_list", "signal", "truncation", "grid"}, {"tol"})
    tau_list = config["tau_list"]
    if not isinstance(tau_list, list) or not tau_list:
        raise ConfigError("config.tau_list: expected a non-empty list of numbers")
    lattices = [nome_from_tau(tau) for tau in tau_list]  # every density before any work
    signal = parse_signal(config["signal"])
    truncation = parse_truncation(config["truncation"])
    if truncation is None:
        raise ConfigError("config.truncation: sweeps need explicit fixed (M, K)")
    recon_config = ReconConfig(tol=config.get("tol", 1e-8), grid=parse_grid(config["grid"]),
                               truncation=truncation)

    header = ["tau", "regime", "status", "sup_error", "l2_error", "M", "K",
              "tail_estimate", "note"]
    rows = []
    for params in lattices:
        try:
            report = round_trip(signal, params.tau, recon_config)
            rows.append([_fmt(params.tau), params.regime, "ok",
                         _fmt(report.sup_error), _fmt(report.l2_error),
                         str(report.M_used), str(report.K_used),
                         _fmt(report.tail_estimate), ""])
        except RegimeError as exc:
            rows.append([_fmt(params.tau), params.regime, "refused",
                         "", "", "", "", "", str(exc)])
    _emit(args.output, [_csv_dump(header, rows)])
    return 0


# ------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser; ``func`` names the ``cmd_*`` that :func:`main` looks up."""
    parser = argparse.ArgumentParser(
        prog="gaborlattice",
        description="Lattice-sample forward transforms, reconstruction, and "
                    "identity verification",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, tol_help=None):
        p.add_argument("--output", help="output path (default: stdout)")
        if tol_help is not None:
            p.add_argument("--tol", type=float, default=None, help=tol_help)

    p = sub.add_parser("coeffs", help="coefficient listing with oracle column")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--m-min", type=int, default=-4)
    p.add_argument("--m-max", type=int, default=4)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    add_common(p)
    p.set_defaults(func="cmd_coeffs")

    p = sub.add_parser("forward", help="compute and store a coefficient table")
    p.add_argument("--config", required=True)
    add_common(p, tol_help="override the config's target accuracy")
    p.set_defaults(func="cmd_forward")

    p = sub.add_parser("reconstruct", help="reconstruct from a stored table")
    p.add_argument("--config", required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--summary", help="summary JSON path (default: <output>.summary.json, "
                                     "or standard error when the CSV goes to standard output)")
    add_common(p, tol_help="override the config's target accuracy")
    p.set_defaults(func="cmd_reconstruct")

    p = sub.add_parser("verify", help="run a named identity suite")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--config", help="optional config carrying a signal override")
    add_common(p)
    p.set_defaults(func="cmd_verify")

    p = sub.add_parser("sweep", help="fixed-truncation error sweep across densities")
    p.add_argument("--config", required=True)
    add_common(p)
    p.set_defaults(func="cmd_sweep")
    return parser


#: main's parser, built on the first call and kept for the process
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return globals()[args.func](args)
    except (ConfigError, InvalidParameterError, DomainError, RegimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NonConvergenceError, SaturationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
