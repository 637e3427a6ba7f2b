"""Minimal deterministic SVG 1.1 emission.

Figures are assembled as explicit element strings with fixed-precision
coordinates, so identical inputs produce byte-identical files and tests can
assert on path data directly.
"""

from __future__ import annotations

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

    def map_point(self, z):
        x = (z.real - self.xmin) / (self.xmax - self.xmin) * self.size
        y = (self.ymax - z.imag) / (self.ymax - self.ymin) * self.size
        return x, y

    def polyline(self, points, stroke, width=1.0, cls=None, dash=None):
        if len(points) < 2:
            return
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in map(self.map_point, points))
        attrs = f'points="{coords}" fill="none" stroke="{stroke}" stroke-width="{_fmt(width)}"'
        if dash:
            attrs += f' stroke-dasharray="{dash}"'
        if cls:
            attrs += f' class="{cls}"'
        self._elements.append(f"<polyline {attrs} />")

    def polygon(self, points, stroke, width=1.0, cls=None, fill="none"):
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in map(self.map_point, points))
        self._elements.append(
            f'<polygon points="{coords}" fill="{fill}" stroke="{stroke}" '
            f'stroke-width="{_fmt(width)}"' + (f' class="{cls}"' if cls else "") + " />"
        )

    def dot(self, z, radius_px=4.0, fill=COLOR_MARKER, cls=None):
        x, y = self.map_point(z)
        self._elements.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(radius_px)}" fill="{fill}"'
            + (f' class="{cls}"' if cls else "")
            + " />"
        )

    def circle(self, center, radius, stroke, width=1.0, cls=None, dash=None):
        x, y = self.map_point(center)
        rx = radius / (self.xmax - self.xmin) * self.size
        attrs = (
            f'cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(rx)}" fill="none" '
            f'stroke="{stroke}" stroke-width="{_fmt(width)}"'
        )
        if dash:
            attrs += f' stroke-dasharray="{dash}"'
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
