import re

import numpy as np
import pytest

from conftest import reference_coords
from parafold.svgfig import SvgCanvas

WINDOWS = [1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2]


def _points_attr(element):
    return re.search(r'points="([^"]*)"', element).group(1)


def _emitted(canvas, points, kind):
    if kind == "polyline":
        canvas.polyline(points, stroke="gray")
    else:
        canvas.polygon(points, stroke="black")
    return _points_attr(canvas._elements[-1])


@pytest.mark.parametrize("kind", ["polyline", "polygon"])
class TestOneCallEmission:
    """``polyline`` and ``polygon`` against ``conftest.reference_coords``,
    the point-by-point formatter they replaced, byte for byte."""

    def test_random_canvases(self, kind):
        rng = np.random.default_rng(14)
        for half in WINDOWS:
            for _ in range(25):
                cx, cy = rng.uniform(-half, half, 2)
                canvas = SvgCanvas(
                    size=int(rng.choice([200, 800, 1000])),
                    window=(cx - half, cx + half, cy - half, cy + half),
                )
                n = int(rng.integers(2, 300))
                z = (rng.uniform(-1.5, 1.5, n) + 1j * rng.uniform(-1.5, 1.5, n)) * half
                z += complex(cx, cy)
                for points in (z, z.tolist()):  # ndarray and list input
                    assert _emitted(canvas, points, kind) == reference_coords(canvas, points)

    def test_negative_zero(self, kind):
        # points a hair left of / above the window edge map to -0.000
        canvas = SvgCanvas(size=800, window=(-1.0, 1.0, -1.0, 1.0))
        tiny = np.array([-1e-9, -4e-7, -1e-300, -0.0, 0.0, 4e-7])
        z = (-1.0 + tiny) + 1j * (1.0 - tiny)
        got = _emitted(canvas, z, kind)
        assert got == reference_coords(canvas, z)
        assert "-0.000" not in got and got.startswith("0.000,0.000 ")

    def test_ties(self, kind):
        # x maps to itself on this canvas, so x sits on .xxx5: the binary-
        # exact ties round to even, the rest by their exact binary value
        canvas = SvgCanvas(size=1024, window=(0.0, 1024.0, 0.0, 1024.0))
        px = np.array([0.0625, 0.1875, 0.3125, 1.0005, 2.0015, 0.0005, 12.3455, 999.9995])
        z = px + 1j * (1024.0 - px)
        assert reference_coords(canvas, z).startswith("0.062,0.062 0.188,0.188 0.312,0.312 ")
        assert _emitted(canvas, z, kind) == reference_coords(canvas, z)
        assert _emitted(canvas, -z, kind) == reference_coords(canvas, -z)

    def test_two_points(self, kind):
        canvas = SvgCanvas(size=800, window=(-2.5, 2.5, -2.5, 2.5))
        seg = [0.3 - 0.2j, 0.3 - 0.2j + 4.0 * np.exp(0.7j)]
        assert _emitted(canvas, seg, kind) == reference_coords(canvas, seg)


def test_polyline_needs_two_points():
    canvas = SvgCanvas()
    canvas.polyline([0.5j], stroke="gray")
    canvas.polyline(np.array([], dtype=complex), stroke="gray")
    assert canvas._elements == []
