"""The numpy number formatter against Python's ``%``, byte for byte."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabkit import _textfmt
from stabkit._textfmt import csv_rows, svg_rows

CSV = (csv_rows, "%.17g")
SVG = (lambda columns: svg_rows([*columns, "\n"]), "%.2f")


def percent_lines(template, values) -> str:
    values = np.asarray(values, dtype=float).tolist()
    return "".join([template % value + "\n" for value in values])


def assert_formats_like_percent(values, formats=(CSV, SVG), chunk=250_000):
    values = np.asarray(values, dtype=float)
    for rows, template in formats:
        for start in range(0, values.size, chunk):
            part = values[start:start + chunk]
            got, want = rows([part]), percent_lines(template, part)
            if got != want:
                bad = next(i for i, (g, w) in enumerate(zip(got.split("\n"), want.split("\n")))
                           if g != w)
                pytest.fail(f"{template} of {part[bad]!r}: got {got.split(chr(10))[bad]!r}, "
                            f"want {want.split(chr(10))[bad]!r}")


def random_doubles(rng, count, max_exponent=2047):
    """Doubles from random bit patterns whose biased exponent is at most
    ``max_exponent`` (2047 allows every pattern, NaN and inf included)."""
    bits = rng.integers(0, 2**63, count, dtype=np.uint64, endpoint=False)
    exponent = rng.integers(0, max_exponent + 1, count, dtype=np.uint64) << np.uint64(52)
    mantissa = bits & np.uint64(2**52 - 1)
    sign = (bits >> np.uint64(62)) << np.uint64(63)
    return (sign | exponent | mantissa).view(np.float64)


def edge_values():
    values = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e-323, 2.2250738585072009e-308,
              2.2250738585072014e-308, 1.7976931348623157e308, 1e-5, 1e-4, 9.99995e-5, 1e16,
              1e17, 1e16 - 1, 1e16 - 2, 1e17 - 16, 1e17 + 16, 2.0**53, 2.0**53 + 2, 1e-271,
              1e-280, 1e280, _textfmt._F_HIGH, 0.5, 0.125, 0.375, 2.675, 1.005, 0.015, 0.045,
              123456.785, 1e13 + 0.125, 4.5e13 + 0.5]
    for exponent in range(-323, 309):
        power = float(f"1e{exponent}")
        values += [power, np.nextafter(power, 0.0), np.nextafter(power, np.inf)]
    for boundary in (1e-5, 1e-4, 1e16, 1e17, 1e-280, 1e280, _textfmt._F_HIGH):
        values += [np.nextafter(boundary, 0.0), np.nextafter(boundary, np.inf)]
    values += [k / 200 for k in range(-4000, 4001)] + [k / 8 for k in range(-800, 801)]
    # Exact ties at the 17th digit: odd 16-digit integers over 4 end in 25 or 75.
    odd = np.arange(10**15 + 1, 10**15 + 4001, 2, dtype=np.int64)
    values += (odd / 4.0).tolist() + (odd / 8.0).tolist()
    values = np.array(values)
    return np.concatenate([values, -values])


class TestAgainstPercent:
    def test_edge_values(self):
        assert_formats_like_percent(edge_values())

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20261020)
        assert_formats_like_percent(random_doubles(rng, 1_000_000), formats=[CSV])

    def test_random_bit_patterns_in_fixed_range(self):
        # Biased exponents up to 1068 keep |x| < 2^46, all inside the range
        # '%.2f' formats in numpy; a smaller set covers every pattern.
        rng = np.random.default_rng(20261021)
        assert_formats_like_percent(random_doubles(rng, 1_000_000, max_exponent=1068), [SVG])
        assert_formats_like_percent(random_doubles(rng, 2_000), [SVG])

    def test_decimal_grids(self):
        rng = np.random.default_rng(7)
        values = np.concatenate([
            np.arange(20001) * 1e-3,  # sample times k dt
            np.round(rng.uniform(-1e3, 1e3, 20000), 3),
            rng.integers(10**16, 10**17, 20000).astype(float),
            rng.uniform(0.0, 800.0, 20000),  # SVG pixels
        ])
        assert_formats_like_percent(values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40))
    def test_any_float(self, values):
        assert_formats_like_percent(values)


class TestDocuments:
    def test_pieces_in_row_order(self):
        xs = np.array([1.5, -2.25, np.inf])
        labels = np.array(["a", "bcdefghijk", ""])
        text = svg_rows(["<", xs, '" y="', labels, ",", xs * 2, "/>\n"])
        assert text == "".join(
            "<%.2f\" y=\"%s,%.2f/>\n" % row for row in zip(xs.tolist(), labels, (xs * 2).tolist())
        )

    def test_empty_strings_and_columns(self):
        xs = np.array([0.1, 2.0])
        assert csv_rows([xs, "", ""]) == "0.10000000000000001,,\n2,,\n"
        assert csv_rows([np.array([]), np.array([])]) == ""

    def test_many_blocks_with_long_spliced_values(self):
        rows = 3 * _textfmt._BLOCK + 17
        rng = np.random.default_rng(3)
        table = rng.normal(size=(rows, 3)) * 10.0 ** rng.integers(-300, 300, (rows, 3))
        table[::997, 1] = np.nan
        table[5::1013, 2] = 1e300  # '%.2f' text far longer than a slot
        names = np.where(np.arange(rows) % 2 == 0, "even", "odd")
        got_csv = csv_rows([names, *table.T])
        got_svg = svg_rows([names, ":", table[:, 0], ",", table[:, 1], " ", table[:, 2], "\n"])
        lines = zip(names.tolist(), *(column.tolist() for column in table.T))
        want_csv = want_svg = ""
        for name, a, b, c in lines:
            want_csv += "%s,%.17g,%.17g,%.17g\n" % (name, a, b, c)
            want_svg += "%s:%.2f,%.2f %.2f\n" % (name, a, b, c)
        assert got_csv == want_csv
        assert got_svg == want_svg
