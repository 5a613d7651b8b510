"""The SVG writer against documents recorded from the per-element
formatter it replaced: the text must match character for character."""

import math
import os

import numpy as np
import pytest

from stabkit import _svg

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def golden(name: str) -> str:
    with open(os.path.join(GOLDEN, name), encoding="utf-8", newline="") as handle:
        return handle.read()


STABLE_3X4 = [[True, False, False, True], [True, True, False, False], [False, False, False, True]]


@pytest.mark.parametrize("as_array", [False, True])
def test_region_map_3x4(as_array):
    xs, ys = [-1.0, 0.25, 3.5], [0.1, 0.4, 1.6, 2.0]
    stable = STABLE_3X4
    if as_array:
        xs, ys, stable = np.array(xs), np.array(ys), np.array(stable)
    text = _svg.region_map(
        xs, ys, stable, [(-1.0, 0.25), (0.25, 1.0), (3.5, 1.8)],
        title="stability region", xlabel="A", ylabel="kprime",
    )
    assert text == golden("region_map_3x4.svg")


def test_region_map_single_row_uses_band_edges():
    # one axis1 value: its cell spans max(0.5, 5% of |x|) either side
    text = _svg.region_map(
        [40.0], [0.5, 1.0, 1.5, 2.5, 3.0], [[False, True, True, False, True]], [],
        title="one row", xlabel="K", ylabel="sigma",
    )
    assert text == golden("region_map_1xN.svg")
    assert "polyline" not in text


def test_line_chart_skips_non_finite_points_and_draws_empty_legend():
    text = _svg.line_chart(
        [("a", [0.0, 1.0, math.nan, 3.0, math.inf, 4.5], [1.0, -2.0, 0.5, math.nan, 4.0, 2.25]),
         ("empty", [], []),
         ("b", np.array([-math.inf, 2.5, 1.5, -0.75]), np.array([0.0, 1e-3, -1.0, 3.0]))],
        title="augmented phase plane", xlabel="x", ylabel="u",
    )
    assert text == golden("line_chart_nonfinite.svg")
    assert text.count("<polyline") == 2
