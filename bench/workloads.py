"""The benchmark's workloads: seeded inputs, one timed operation, an
independent check of its output, and the untimed probes.

Every operation draws a fresh 2-component Gaussian family from the
seed's stream, so no result can be reused across operations.  The
reference for each family is computed here with numpy in closed form;
the program's own ``eval_signal`` is never used to judge it.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import gaborlattice
import gaborlattice.cli
import gaborlattice.verify

Family = list[tuple[complex, float, float]]  # (amplitude, centre, modulation)


def draw_family(rng: np.random.Generator) -> Family:
    """|a| in [0.5, 1] with a uniform phase, centre in [-1, 1], modulation in [-1.5, 1.5]."""
    family = []
    for _ in range(2):
        magnitude = rng.uniform(0.5, 1.0)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        family.append((complex(magnitude * math.cos(phase), magnitude * math.sin(phase)),
                       float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-1.5, 1.5))))
    return family


def op_family(seed: int, index: int) -> Family:
    return draw_family(np.random.default_rng([seed, 1, index]))


#: the warm-up input is fixed, so set-up time does not depend on the seed
WARM_UP_FAMILY: Family = [(0.8 + 0.1j, 0.3, 0.5), (0.5 - 0.2j, -0.6, -1.0)]


def reference(family: Family, xs: np.ndarray) -> np.ndarray:
    """sum_c a_c exp(-(x - c)^2 / 4 + i b_c x), evaluated with numpy."""
    total = np.zeros(len(xs), dtype=complex)
    for amplitude, centre, modulation in family:
        total += amplitude * np.exp(-(xs - centre) ** 2 / 4.0 + 1j * modulation * xs)
    return total


def sup_rel_err(values: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(values - ref)) / np.max(np.abs(ref)))


def grid(x_min: float, x_max: float, step: float) -> np.ndarray:
    """The grid the program is asked for, computed here to check the one it returns."""
    count = int(math.floor((x_max - x_min) / step + 1e-9)) + 1
    return x_min + step * np.arange(count, dtype=float)


def grid_error(xs: np.ndarray, values: np.ndarray, state: dict) -> float:
    """sup|values - ref| / sup|ref| on the expected grid; inf if the grid differs."""
    expected = state["xs"]
    if len(xs) != len(expected) or not np.allclose(xs, expected, rtol=0, atol=1e-12):
        return math.inf
    return sup_rel_err(values, reference(state["family"], expected))


def signal_spec(family: Family) -> dict:
    return {"kind": "gaussian_family",
            "components": [{"amplitude": [a.real, a.imag], "center": c, "modulation": b}
                           for a, c, b in family]}


def make_sampler(family: Family, counter: list[int] | None = None):
    """A black-box sampler hiding ``family``; counts its calls into ``counter[0]``."""
    def sampler(x):
        total = 0j
        for amplitude, centre, modulation in family:
            d = x - centre
            total += amplitude * math.exp(-d * d / 4.0) * cmath.exp(1j * modulation * x)
        return total

    if counter is None:
        return sampler

    def counting_sampler(x):
        counter[0] += 1
        return sampler(x)

    return counting_sampler


@dataclass
class Outcome:
    ok: bool
    points: int
    digest: bytes
    info: dict = field(default_factory=dict)


class CliGrid:
    """``gaborlattice forward`` then ``reconstruct``, in-process, over 2001 points."""

    name = "cli_grid"
    tau = 1.0
    tol = 1e-8
    x_max = 2.0 * math.pi
    step = 2.0 * math.pi / 1000

    def __init__(self, workdir: str):
        self.sampler_counter = None
        self.paths = {key: os.path.join(workdir, f"cli_{key}") for key in
                      ("forward.json", "reconstruct.json", "table.json", "points.csv",
                       "points.csv.summary.json")}

    def _write(self, key: str, doc: dict):
        with open(self.paths[key], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def prepare(self, family: Family, step: float | None = None) -> dict:
        for key in ("table.json", "points.csv", "points.csv.summary.json"):
            if os.path.exists(self.paths[key]):
                os.unlink(self.paths[key])
        step = step or self.step
        spec = signal_spec(family)
        self._write("forward.json", {"tau": self.tau, "signal": spec, "truncation": "auto",
                                     "tol": self.tol, "x_max": self.x_max})
        return {"family": family, "spec": spec, "xs": grid(-self.x_max, self.x_max, step),
                "grid": {"min": -self.x_max, "max": self.x_max, "step": step}}

    def run(self, state: dict, truncation="table") -> tuple[int, int]:
        """Forward with automatic truncation, then reconstruct with the table's (M, K).

        truncation="auto" lets reconstruct choose (M, K) itself instead;
        only the auto-truncation probe uses it (see METRICS.md).
        """
        main = gaborlattice.cli.main
        p = self.paths
        rc_forward = main(["forward", "--config", p["forward.json"], "--output", p["table.json"]])
        if rc_forward != 0:
            return rc_forward, -1
        if truncation == "table":
            with open(p["table.json"], encoding="utf-8") as fh:
                meta = json.load(fh)["meta"]
            truncation = {"M": meta["M"], "K": meta["K"]}
        self._write("reconstruct.json", {"tau": self.tau, "grid": state["grid"], "tol": self.tol,
                                         "truncation": truncation, "signal": state["spec"]})
        rc_reconstruct = main(["reconstruct", "--config", p["reconstruct.json"],
                               "--table", p["table.json"], "--output", p["points.csv"]])
        return rc_forward, rc_reconstruct

    def check(self, state: dict, result: tuple[int, int]) -> Outcome:
        if result != (0, 0):
            return Outcome(False, 0, repr(result).encode(), {"exit_codes": list(result)})
        with open(self.paths["points.csv"], "rb") as fh:
            csv_bytes = fh.read()
        with open(self.paths["points.csv.summary.json"], encoding="utf-8") as fh:
            summary = json.load(fh)
        rows = list(csv.DictReader(io.StringIO(csv_bytes.decode("utf-8"))))
        xs = np.array([float(r["x"]) for r in rows])
        rec = np.array([complex(float(r["f_rec_re"]), float(r["f_rec_im"])) for r in rows])
        err = grid_error(xs, rec, state)
        summary.pop("meta", None)
        M, K = summary["summary"]["M_used"], summary["summary"]["K_used"]
        info = {"M_used": M, "K_used": K, "cells": (2 * M + 1) * (2 * K + 1),
                "points": len(rows), "sup_rel_err": err, "csv_bytes": len(csv_bytes),
                "table_bytes": os.path.getsize(self.paths["table.json"])}
        digest = csv_bytes + json.dumps(summary, sort_keys=True).encode()
        return Outcome(err <= self.tol, len(rows), digest, info)

    def warm_up(self, family: Family):
        state = self.prepare(family, step=10 * self.step)
        self.check(state, self.run(state))


class CallbackRoundTrip:
    """``round_trip`` of a black-box sampler at tau = 0.6 over 121 points."""

    name = "callback_roundtrip"
    tau = 0.6
    tol = 1e-6
    grid = (-3.0, 3.0, 0.05)

    def __init__(self, workdir: str):
        self.sampler_counter = None  # set to [0] to count sampler calls

    def prepare(self, family: Family) -> dict:
        bound = sum(abs(a) for a, _, _ in family)  # |f(x)| <= sum |a_c|, growth 0
        signal = gaborlattice.SignalModel.callback(
            make_sampler(family, self.sampler_counter), bound, 0.0)
        return {"family": family, "signal": signal, "xs": grid(*self.grid)}

    def run(self, state: dict, tol: float | None = None, grid_spec=None):
        config = gaborlattice.ReconConfig(tol=tol or self.tol, grid=grid_spec or self.grid)
        return gaborlattice.round_trip(state["signal"], self.tau, config, threads=1)

    def check(self, state: dict, report) -> Outcome:
        err = grid_error(report.xs, report.reconstructed, state)
        M, K = report.M_used, report.K_used
        info = {"M_used": M, "K_used": K, "cells": (2 * M + 1) * (2 * K + 1),
                "points": len(report.xs), "sup_rel_err": err}
        return Outcome(err <= self.tol, len(report.xs),
                       np.ascontiguousarray(report.reconstructed, dtype="<c16").tobytes(), info)

    def warm_up(self, family: Family):
        state = self.prepare(family)
        self.run(state, tol=1e-3, grid_spec=(-1.0, 1.0, 0.5))


class VerifyAll:
    """``verify.run_suite("all", 1.0)`` with a seeded signal override."""

    name = "verify_all"
    tau = 1.0

    def __init__(self, workdir: str):
        self.sampler_counter = None

    def prepare(self, family: Family) -> dict:
        return {"signal": gaborlattice.SignalModel.gaussian(family)}

    def run(self, state: dict, suite: str = "all"):
        return gaborlattice.verify.run_suite(suite, self.tau, signal=state["signal"])

    def check(self, state: dict, report) -> Outcome:
        checks = report.to_payload()["checks"]
        digest = json.dumps(checks, sort_keys=True).encode()
        # a "point" of this workload is one check record
        return Outcome(bool(report.passed), len(checks), digest,
                       {"failed_checks": [c["name"] for c in checks if not c["passed"]]})

    def warm_up(self, family: Family):
        self.run(self.prepare(family), suite="poisson")


WORKLOADS = {cls.name: cls for cls in (CliGrid, CallbackRoundTrip, VerifyAll)}

#: a family on which ``reconstruct`` with ``truncation: auto`` misses tol=1e-8
#: on [-2 pi, 2 pi]: it re-chooses (M, K) inside the table without the guard
#: ring that ``auto_truncation`` adds (sup error about 1.2e-7 at this commit)
AUTO_PROBE_FAMILY: Family = [(0.648904 - 0.489038j, 0.551371, -0.824378),
                             (0.455481 - 0.463837j, -0.989469, 0.963685)]


def wide_probe() -> dict:
    """Unit Gaussian round trip at tau=1, tol=1e-8 on [-12, 12]: the known
    wide-grid silent error, recorded next to the program's own tail estimate."""
    config = gaborlattice.ReconConfig(tol=1e-8, grid=(-12.0, 12.0, 0.25))
    report = gaborlattice.round_trip(gaborlattice.SignalModel.gaussian([(1.0, 0.0, 0.0)]),
                                     1.0, config)
    ref = reference([(1.0 + 0j, 0.0, 0.0)], report.xs)
    return {"sup_rel_err": sup_rel_err(report.reconstructed, ref),
            "tail_estimate": report.tail_estimate}


def auto_truncation_probe(workdir: str) -> dict:
    """The cli_grid path with ``truncation: auto`` in reconstruct, on 201 points."""
    workload = CliGrid(workdir)
    state = workload.prepare(AUTO_PROBE_FAMILY, step=10 * workload.step)
    result = workload.run(state, truncation="auto")
    outcome = workload.check(state, result)
    return {"sup_rel_err": outcome.info.get("sup_rel_err", math.inf),
            "tol": workload.tol, "M_used": outcome.info.get("M_used", -1)}
