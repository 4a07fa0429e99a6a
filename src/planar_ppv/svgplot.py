"""Dependency-free SVG rendering of section CSVs.

Output is built from plain strings with fixed formatting, so identical
input bytes always produce identical output bytes.
"""

import csv
import math

from .errors import ArgumentError

__all__ = ["plot_svg", "PLOT_KINDS"]

PLOT_KINDS = ("cycle", "basis", "lock", "density", "isochron")

_W, _H, _M = 640, 480, 50


class _Row(dict):
    """One CSV record, keyed by column, with the ``line`` it ends on."""


class _BadCell(Exception):
    """A short row or a cell that does not parse; plot_svg adds the file."""

    def __init__(self, row, message):
        super().__init__(f"line {row.line}: {message}")


def _read_csv(path):
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for record in reader:
            row = _Row(record)
            row.line = reader.line_num
            if None in row.values():  # DictReader pads a short row with None
                n = sum(v is not None for v in row.values())
                raise _BadCell(row, f"{n} fields, the header has {len(row)}")
            rows.append(row)
    if not rows:
        raise ArgumentError(f"empty CSV: {path}")
    return rows


def _num(row, name):
    """row[name] as a finite float; a missing column raises KeyError."""
    cell = row[name]
    try:
        value = float(cell)
    except ValueError:
        raise _BadCell(row, f"{name} = {cell!r} is not a number") from None
    if not math.isfinite(value):
        raise _BadCell(row, f"{name} = {cell!r} is not a finite number")
    return value


class _Frame:
    """Data-to-pixel affine map with margins."""

    def __init__(self, xs, ys):
        self.x0, self.x1 = min(xs), max(xs)
        self.y0, self.y1 = min(ys), max(ys)
        if self.x1 == self.x0:
            self.x1 = self.x0 + 1.0
        if self.y1 == self.y0:
            self.y1 = self.y0 + 1.0

    def px(self, x):
        return _M + (x - self.x0) / (self.x1 - self.x0) * (_W - 2 * _M)

    def py(self, y):
        return _H - _M - (y - self.y0) / (self.y1 - self.y0) * (_H - 2 * _M)

    def map(self, x, y):
        return f"{self.px(x):.3f},{self.py(y):.3f}"


def _document(body):
    return (f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">\n'
            f'<rect width="{_W}" height="{_H}" fill="white"/>\n'
            + body + "</svg>\n")


def _polyline(frame, xs, ys, color, closed=False):
    pts = " ".join(frame.map(x, y) for x, y in zip(xs, ys))
    tag = "polygon" if closed else "polyline"
    return (f'<{tag} points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.2"/>\n')


def _plot_cycle(rows):
    xs = [_num(r, "x") for r in rows]
    ys = [_num(r, "y") for r in rows]
    frame = _Frame(xs, ys)
    return _document(_polyline(frame, xs, ys, "#1f4e9c", closed=True))


def _plot_basis(rows):
    ts = [_num(r, "t") for r in rows]
    series = [("v1x", "#1f4e9c"), ("v1y", "#b03030"),
              ("v2x", "#2e8b57"), ("v2y", "#8860b0")]
    vals = [_num(r, name) for name, _ in series for r in rows]
    frame = _Frame(ts, vals)
    body = "".join(_polyline(frame, ts, [_num(r, name) for r in rows], color)
                   for name, color in series)
    return _document(body)


def _plot_lock(rows):
    xs = [_num(r, "delta_omega") for r in rows]
    ys = [_num(r, "eps") for r in rows]
    frame = _Frame(xs, ys)
    body = ""
    for r in rows:
        cx = frame.px(_num(r, "delta_omega"))
        cy = frame.py(_num(r, "eps"))
        locked = r["locked"] not in ("0", "False", "false")
        color = "#b03030" if locked else "#bbbbbb"
        cls = "locked" if locked else "unlocked"
        body += (f'<circle class="{cls}" cx="{cx:.3f}" cy="{cy:.3f}" '
                 f'r="4" fill="{color}"/>\n')
    return _document(body)


def _plot_density(rows):
    t_last = rows[-1]["t"]
    final = [r for r in rows if r["t"] == t_last]
    xs = [_num(r, "psi") for r in final]
    ys = [_num(r, "p") for r in final]
    frame = _Frame(xs, ys)
    return _document(_polyline(frame, xs, ys, "#1f4e9c"))


def _plot_isochron(rows):
    xs = [_num(r, "offset") for r in rows]
    ys = [_num(r, "phase") for r in rows]
    frame = _Frame(xs, ys)
    body = ""
    for r in rows:
        x = frame.px(_num(r, "offset"))
        y = frame.py(_num(r, "phase"))
        if r["set"] == "isochron":
            body += (f'<circle class="isochron" cx="{x:.3f}" cy="{y:.3f}" '
                     f'r="4" fill="#1f4e9c"/>\n')
        else:
            body += (f'<rect class="control" x="{x - 4:.3f}" '
                     f'y="{y - 4:.3f}" width="8" height="8" '
                     f'fill="#b03030"/>\n')
    return _document(body)


_RENDERERS = {
    "cycle": _plot_cycle,
    "basis": _plot_basis,
    "lock": _plot_lock,
    "density": _plot_density,
    "isochron": _plot_isochron,
}


def plot_svg(csv_path, kind, out_path):
    """Render a section CSV to a self-contained SVG file; a CSV without
    a column the kind needs, a short row, or a number that does not parse
    or is not finite raises ``ArgumentError``."""
    if kind not in _RENDERERS:
        raise ArgumentError(
            f"unknown plot kind {kind!r}; choose from {', '.join(PLOT_KINDS)}")
    try:
        svg = _RENDERERS[kind](_read_csv(csv_path))
    except KeyError as exc:
        raise ArgumentError(f"{csv_path} has no column {exc.args[0]!r} "
                            f"for a {kind} plot") from None
    except _BadCell as exc:
        raise ArgumentError(f"{csv_path} {exc}") from None
    with open(out_path, "w", newline="") as fh:
        fh.write(svg)
