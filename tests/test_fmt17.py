"""The array formatter against Python's own ``format(v, ".17g")``, field by field."""

import importlib

import numpy as np
import pytest

from gaborlattice import fmt17


def reference(columns) -> str:
    """The CSV text ``fmt17.csv_rows`` must produce, one Python format call per field."""
    n = len(columns[0])
    return "".join(
        ",".join("" if col is None else format(float(col[i]), ".17g") for col in columns) + "\n"
        for i in range(n))


def assert_exact(values, width=3):
    """The values, padded with 1.0 to whole rows of ``width`` fields, format exactly."""
    values = np.asarray(values, dtype=float).ravel()
    values = np.concatenate([values, np.ones(-len(values) % width)])
    columns = list(values.reshape(-1, width).T)
    got, want = "".join(fmt17.csv_rows(columns)), reference(columns)
    if got != want:
        bad = next(i for i, (g, w) in enumerate(zip(got.splitlines(), want.splitlines()))
                   if g != w)
        pytest.fail(f"row {bad}: {got.splitlines()[bad]!r} != {want.splitlines()[bad]!r}")


def powers_of_ten() -> np.ndarray:
    """10**k for k = -323..308 with the doubles one ulp either side, both signs."""
    p = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = np.concatenate([p, np.nextafter(p, np.inf), np.nextafter(p, -np.inf)])
    return np.concatenate([near, -near])


def exact_ties() -> np.ndarray:
    """Odd n / 2**j whose decimal expansion has 18 significant digits ending in 5:
    rounding to 17 digits is an exact tie, broken to even."""
    rng = np.random.default_rng(3)
    out = []
    for j in range(1, 26):
        lo, hi = -(-10 ** 17 // 5 ** j), min((10 ** 18 - 1) // 5 ** j, 2 ** 53 - 1)
        if lo <= hi:
            n = rng.integers(lo, hi + 1, 40) | 1
            out.append(n[n <= hi] / 2.0 ** j)
    ties = np.concatenate(out)
    return np.concatenate([ties, -ties])


class TestExact:
    def test_random_bit_patterns(self):
        bits = np.random.default_rng(1).integers(0, 2 ** 64, 60000, dtype=np.uint64)
        assert_exact(bits.view(np.float64))

    def test_specials_and_subnormals(self):
        rng = np.random.default_rng(2)
        subnormal = rng.integers(1, 2 ** 52, 3000, dtype=np.uint64).view(np.float64)
        assert_exact(np.concatenate([
            [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
             2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308],
            subnormal, -subnormal]))

    def test_powers_of_ten_and_neighbours(self):
        assert_exact(powers_of_ten())

    @pytest.mark.parametrize("d", [-5, -4, 16, 17])
    def test_fixed_scientific_switch(self, d):
        # the switch falls between X = -5 | -4 and 16 | 17; walk 64 ulps across each
        edge = float(f"1e{d}")
        steps = [edge]
        for direction in (np.inf, -np.inf):
            v = edge
            for _ in range(64):
                v = np.nextafter(v, direction)
                steps.append(v)
        assert_exact(np.concatenate([steps, np.negative(steps), 0.5 * np.array(steps),
                                     9.5 * np.array(steps)]))

    def test_exact_ties_go_to_python(self):
        ties = exact_ties()
        assert len(ties) > 1000
        _, _, near_tie = fmt17._significand(np.abs(ties), fmt17._tables())
        assert near_tie.all()
        assert_exact(ties)

    def test_decimal_grid_values(self):
        k = np.arange(-5000, 5000)
        assert_exact(np.concatenate([k * 0.001, k * 0.1, k / 3.0]))


class TestLayout:
    @pytest.mark.parametrize("rows", [0, 1, 511, 512, 513])
    def test_block_edges(self, rows):
        rng = np.random.default_rng(rows)
        columns = [rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, rows)
                   for _ in range(6)]
        chunks = list(fmt17.csv_rows(columns))
        assert len(chunks) == -(-rows // fmt17.BLOCK_ROWS)
        assert "".join(chunks) == reference(columns)

    def test_no_reference_layout(self):
        rng = np.random.default_rng(4)
        x, re, im = (rng.standard_normal(600) for _ in range(3))
        columns = [x, None, None, re, im, None]
        text = "".join(fmt17.csv_rows(columns))
        assert text == reference(columns)
        assert text.splitlines()[0].split(",")[1:3] == ["", ""]
        assert text.splitlines()[0].endswith(",")

    def test_first_column_required(self):
        with pytest.raises(ValueError, match="first column"):
            list(fmt17.csv_rows([None, np.ones(3)]))

    def test_single_column_and_strided_input(self):
        values = np.arange(40.0).reshape(20, 2) / 7.0
        assert "".join(fmt17.csv_rows([values[:, 1]])) == reference([values[:, 1]])

    def test_tables_built_on_first_use_not_at_import(self):
        importlib.reload(fmt17)  # runs the module's top level again
        assert fmt17._tables.cache_info().currsize == 0
        assert "".join(fmt17.csv_rows([np.array([1.5])])) == "1.5\n"
        assert fmt17._tables.cache_info().currsize == 1
