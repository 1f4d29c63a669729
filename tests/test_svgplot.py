"""Deterministic SVG rendering."""

import hashlib

import numpy as np
import pytest

from ikdlab.errors import ValidationError
from ikdlab.evalkit import DriftScenario, Rect
from ikdlab.svgplot import (HEIGHT, PALETTE, WIDTH, svg_bar_chart,
                            svg_line_chart, svg_trajectory)


def test_line_chart_structure(tmp_path):
    path = str(tmp_path / "chart.svg")
    xs = np.arange(5.0)
    svg_line_chart([("a", xs, xs * 2.0), ("b", xs, xs * 0.5)], path,
                   title="two lines", xlabel="t", ylabel="v")
    text = open(path, encoding="utf-8").read()
    assert text.startswith("<svg ")
    assert text.rstrip().endswith("</svg>")
    assert text.count("<polyline") == 2
    assert PALETTE[0] in text and PALETTE[1] in text
    assert "two lines" in text
    assert f'width="{int(WIDTH)}"' in text and f'height="{int(HEIGHT)}"' in text


def test_line_chart_is_byte_deterministic(tmp_path):
    xs = np.linspace(0.0, 1.0, 20)
    ys = np.sin(xs * 6.0)
    p1, p2 = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
    svg_line_chart([("s", xs, ys)], p1, title="t")
    svg_line_chart([("s", xs, ys)], p2, title="t")
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_line_chart_flat_series_does_not_divide_by_zero(tmp_path):
    path = str(tmp_path / "flat.svg")
    svg_line_chart([("flat", [0.0, 1.0], [2.0, 2.0])], path)
    assert "<polyline" in open(path, encoding="utf-8").read()


def test_line_chart_rejects_empty_input(tmp_path):
    with pytest.raises(ValidationError):
        svg_line_chart([], str(tmp_path / "x.svg"))
    with pytest.raises(ValidationError):
        svg_line_chart([("e", [], [])], str(tmp_path / "x.svg"))


def test_bar_chart_draws_one_rect_per_bin(tmp_path):
    path = str(tmp_path / "bars.svg")
    svg_bar_chart([3.0, 0.0, 5.0, 1.0], (0.0, 4.0), path, title="hist")
    text = open(path, encoding="utf-8").read()
    # one background rect plus one bar per bin
    assert text.count("<rect") == 1 + 4
    with pytest.raises(ValidationError):
        svg_bar_chart([], (0.0, 1.0), str(tmp_path / "y.svg"))


def test_bar_chart_all_zero_counts(tmp_path):
    path = str(tmp_path / "zeros.svg")
    svg_bar_chart([0.0, 0.0], (0.0, 1.0), path)
    assert 'height="0.00"' in open(path, encoding="utf-8").read()


def test_trajectory_plot_draws_obstacles(tmp_path):
    path = str(tmp_path / "traj.svg")
    scenario = DriftScenario(boxes=(Rect(cx=2.0, cy=2.0, w=0.56, h=0.56),),
                             cones=((1.0, 1.0), (3.0, 1.0)), gap_width=1.0)
    svg_trajectory([("run", np.linspace(0, 4, 30), np.linspace(0, 1, 30))], path,
                   scenario=scenario, title="course")
    text = open(path, encoding="utf-8").read()
    assert text.count("<polygon") == 1
    assert text.count("<circle") == 2
    assert text.count("<polyline") == 1


def test_trajectory_equal_aspect(tmp_path):
    # A wide flat trace must not be stretched: equal world spans per pixel.
    path = str(tmp_path / "aspect.svg")
    svg_trajectory([("r", [0.0, 10.0], [0.0, 0.1])], path)
    text = open(path, encoding="utf-8").read()
    # y labels get the padded x span of 11 centered on y=0.05
    assert ">-5.45<" in text and ">5.55<" in text


def test_trajectory_requires_traces(tmp_path):
    with pytest.raises(ValidationError):
        svg_trajectory([], str(tmp_path / "none.svg"))


def test_charts_match_their_pinned_bytes(tmp_path):
    """Fixed inputs to each chart; the sha256 of each file is pinned, so a
    refactor of the drawing code cannot move a byte of any plot."""
    xs = np.linspace(0.0, 2.0, 9)
    t = np.linspace(0.0, 3.0, 25)
    traces = [("plain", 2.0 * np.cos(t), 2.0 * np.sin(t)),
              ("fixed", 1.5 * np.cos(t) + 0.25, 1.5 * np.sin(t) - 0.5)]
    scenario = DriftScenario(boxes=(Rect(cx=0.5, cy=1.0, w=0.6, h=0.3, angle=0.4),),
                             cones=((-1.0, 0.5), (1.2, -0.8)), gap_width=1.0)
    paths = {name: str(tmp_path / f"{name}.svg") for name in ("line", "bar", "traj")}
    svg_line_chart([("sin", xs, np.sin(xs)), ("cos3", xs, 3.0 * np.cos(xs))],
                   paths["line"], title="golden lines", xlabel="t [s]", ylabel="v")
    svg_bar_chart([3.0, 0.0, 5.0, 1.5], (0.0, 2.0), paths["bar"], title="golden bars",
                  xlabel="v [m/s]")
    svg_trajectory(traces, paths["traj"], scenario=scenario, title="golden course")
    digests = {name: hashlib.sha256(open(p, "rb").read()).hexdigest()
               for name, p in paths.items()}
    assert digests == {
        "line": "84e0ab18d0fb7a5b643084dd65af3859dd4d7bfafdf32fd95de541b02680eadf",
        "bar": "548d700632fd1e4aa039a02ae80ac0cedb068f3d394653e8dd6d3cdcbec87268",
        "traj": "f63ae3cbb138e369d90b7f3e344fdc94c7ea69c96b7d8f966f7b8a1e4aa80c78"}
