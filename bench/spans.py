"""Benchmark-side spans around the public functions of each gaborlattice layer.

Modules import each other's functions by name (``from .qtheta import
coeff_E`` in recon, cli and verify), so a wrapper is bound into every
package namespace that holds the original object, and every binding is
undone on exit.  Spans are kept in memory and written out at the end.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

PACKAGE = "gaborlattice"

CLI = "cli_grid"
CALLBACK = "callback_roundtrip"
VERIFY = "verify_all"
ALL = frozenset({CLI, CALLBACK, VERIFY})

#: (module, attribute, span name, workloads on which it must record calls).
#: theta_series and theta_product delegate to their scaled forms, so
#: wrapping the scaled forms covers both the plain and the scaled calls.
TARGETS = [
    ("qtheta", "coeff_E", "qtheta.coeff_E", ALL),
    ("qtheta", "theta_series_scaled", "qtheta.theta_series", {VERIFY}),
    ("qtheta", "theta_product_scaled", "qtheta.theta_product", {VERIFY}),
    ("qtheta", "theta_prime_lattice", "qtheta.theta_prime_lattice", {VERIFY}),
    ("signals", "forward_table", "signals.forward_table", ALL),
    ("signals", "gamma_closed_form", "signals.gamma_closed_form", {CLI, VERIFY}),
    ("signals", "gamma_quadrature", "signals.gamma_quadrature", {CALLBACK}),
    ("signals", "GammaTable.to_payload", "signals.to_payload", {CLI}),
    ("signals", "GammaTable.from_payload", "signals.from_payload", {CLI}),
    ("recon", "round_trip", "recon.round_trip", {CALLBACK}),
    ("recon", "auto_truncation", "recon.auto_truncation", ALL),
    ("recon", "reconstruct_grid", "recon.reconstruct_grid", {CLI, CALLBACK}),
    ("recon", "reconstruct_point", "recon.reconstruct_point", {CLI, CALLBACK}),
    ("recon", "inner_fourier_sum", "recon.inner_fourier_sum", ALL),
    ("oracle", "laurent_c0", "oracle.laurent_c0", {VERIFY}),
    ("oracle", "spatial_A", "oracle.spatial_A", {VERIFY}),
    ("oracle", "G_series", "oracle.G_series", {VERIFY}),
    ("oracle", "lagrange_interpolant", "oracle.lagrange_interpolant", {VERIFY}),
    ("oracle", "mk_trace", "oracle.mk_trace", {VERIFY}),
    ("verify", "run_suite", "verify.run_suite", {VERIFY}),
    ("verify", "theta_suite", "verify.theta_suite", {VERIFY}),
    ("verify", "coeffs_suite", "verify.coeffs_suite", {VERIFY}),
    ("verify", "poisson_suite", "verify.poisson_suite", {VERIFY}),
    ("verify", "interpolation_suite", "verify.interpolation_suite", {VERIFY}),
    ("cli", "main", "cli.main", {CLI}),
    ("cli", "cmd_forward", "cli.forward", {CLI}),
    ("cli", "cmd_reconstruct", "cli.reconstruct", {CLI}),
]

#: spans whose first two arguments are a table index (m, k)
GAMMA_ENTRY_SPANS = ("signals.gamma_closed_form", "signals.gamma_quadrature")


class Recorder:
    """Spans of one single-threaded run: [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.entry_keys: list[tuple[int, int]] = []
        self._stack: list[int] = []

    def enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def exit(self, index: int):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _wrap(recorder: Recorder, name: str, fn):
    keyed = name in GAMMA_ENTRY_SPANS

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if keyed:
            recorder.entry_keys.append((args[0], args[1]))
        index = recorder.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.exit(index)

    return wrapper


def _package_modules() -> list:
    return [module for key, module in sorted(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")]


@contextmanager
def installed(recorder: Recorder):
    """Bind a span wrapper for every target; yields {span name: [bindings]}."""
    modules = _package_modules()
    undo = []
    bindings: dict[str, list[str]] = {}
    try:
        for module_name, attribute, name, _ in TARGETS:
            owner = sys.modules[f"{PACKAGE}.{module_name}"]
            if "." in attribute:
                cls_name, method = attribute.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    replacement = classmethod(_wrap(recorder, name, raw.__func__))
                else:
                    replacement = _wrap(recorder, name, raw)
                setattr(cls, method, replacement)
                undo.append((cls, method, raw))
                bindings[name] = [f"{owner.__name__}.{attribute}"]
                continue
            original = getattr(owner, attribute)
            wrapper = _wrap(recorder, name, original)
            bound = []
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        undo.append((module, key, original))
                        bound.append(f"{module.__name__}.{key}")
            bindings[name] = bound
        yield bindings
    finally:
        for holder, key, value in reversed(undo):
            setattr(holder, key, value)


def uncovered(workload: str, totals: dict[str, dict]) -> list[str]:
    """Wrapped functions that recorded no call on a workload expected to use them."""
    return [name for _, _, name, expected in TARGETS
            if workload in expected and totals.get(name, {}).get("calls", 0) == 0]


@contextmanager
def counting_constructions(cls, counter: list[int]):
    """Count calls of ``cls.__init__`` into ``counter[0]`` while active."""
    original = cls.__dict__["__init__"]

    def __init__(self, *args, **kwargs):
        counter[0] += 1
        original(self, *args, **kwargs)

    cls.__init__ = __init__
    try:
        yield
    finally:
        cls.__init__ = original
