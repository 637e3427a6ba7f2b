"""Minimal deterministic SVG 1.1 emission.

Figures are assembled as explicit element strings with fixed-precision
coordinates, so identical inputs produce byte-identical files and tests can
assert on path data directly.

``polyline`` and ``polygon`` emit a point list in one call: the points are
mapped to pixels as numpy float arrays, by the expressions that map one
point for ``dot`` and ``circle``, all coordinates are formatted by one
``"%.3f,%.3f " * n`` format, and one ``str.replace`` turns each ``-0.000``
into ``0.000``.  Every token has exactly three decimals, so the replace
touches whole tokens only.
"""

from __future__ import annotations

import numpy as np

# figure palette: matches the phase-portrait conventions
COLOR_INCOMING = "blue"
COLOR_OUTGOING = "red"
COLOR_SEPARATING = "green"
COLOR_GENERIC = "gray"
COLOR_MARKER = "black"


def _fmt(value: float) -> str:
    out = f"{value:.3f}"
    return "0.000" if out == "-0.000" else out


class SvgCanvas:
    """Fixed-size canvas mapping a complex-plane window to pixel space."""

    def __init__(self, size=800, window=(-1.0, 1.0, -1.0, 1.0)):
        self.size = int(size)
        self.xmin, self.xmax, self.ymin, self.ymax = window
        self._elements = []

    def _px(self, re, im):
        """Pixel (x, y) of re + i im; floats and float arrays alike."""
        x = (re - self.xmin) / (self.xmax - self.xmin) * self.size
        y = (self.ymax - im) / (self.ymax - self.ymin) * self.size
        return x, y

    def map_point(self, z):
        return self._px(z.real, z.imag)

    def _coords(self, points):
        """``"x,y x,y ..."`` of the points, each coordinate as ``_fmt`` gives it."""
        z = np.asarray(points, dtype=complex)
        xy = np.empty((len(z), 2))
        xy[:, 0], xy[:, 1] = self._px(z.real, z.imag)
        return ("%.3f,%.3f " * len(xy) % tuple(xy.ravel().tolist()))[:-1].replace("-0.000", "0.000")

    def polyline(self, points, stroke, width=1.0, cls=None, dash=None):
        if len(points) < 2:
            return
        coords = self._coords(points)
        attrs = f'points="{coords}" fill="none" stroke="{stroke}" stroke-width="{_fmt(width)}"'
        if dash:
            attrs += f' stroke-dasharray="{dash}"'
        if cls:
            attrs += f' class="{cls}"'
        self._elements.append(f"<polyline {attrs} />")

    def polygon(self, points, stroke, width=1.0, cls=None):
        coords = self._coords(points)
        self._elements.append(
            f'<polygon points="{coords}" fill="none" stroke="{stroke}" '
            f'stroke-width="{_fmt(width)}"' + (f' class="{cls}"' if cls else "") + " />"
        )

    def dot(self, z, radius_px=4.0, cls=None):
        x, y = self.map_point(z)
        self._elements.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(radius_px)}" fill="{COLOR_MARKER}"'
            + (f' class="{cls}"' if cls else "")
            + " />"
        )

    def circle(self, center, radius, stroke, width=1.0, cls=None):
        x, y = self.map_point(center)
        rx = radius / (self.xmax - self.xmin) * self.size
        attrs = (
            f'cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(rx)}" fill="none" '
            f'stroke="{stroke}" stroke-width="{_fmt(width)}"'
        )
        if cls:
            attrs += f' class="{cls}"'
        self._elements.append(f"<circle {attrs} />")

    def tostring(self) -> str:
        header = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{self.size}" height="{self.size}" '
            f'viewBox="0 0 {self.size} {self.size}">\n'
            f'<rect width="{self.size}" height="{self.size}" fill="white" />\n'
        )
        return header + "\n".join(self._elements) + "\n</svg>\n"
