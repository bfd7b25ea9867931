"""Lattice field grids, stencils, and field comparison.

A FieldGrid holds scattered (or total) displacement on a rectangular
index window.  Honeycomb grids carry both sublattice fields u and v per
cell; Bloch grids cover one vertical period and extend to arbitrary rows
through the stored multiplier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .branches import Lattice
from .errors import InvalidSpec, WindowMismatch

__all__ = [
    "FieldGrid",
    "ComparisonReport",
    "compare_fields",
]


@dataclass
class FieldGrid:
    """Site values u (and v for honeycomb) on a rectangular index window."""

    lattice: Lattice
    x_range: tuple[int, int]
    y_range: tuple[int, int]
    u: np.ndarray
    v: np.ndarray | None = None
    bloch_multiplier: complex | None = None
    meta: dict | None = None

    def __post_init__(self):
        self.lattice = Lattice(self.lattice)
        nx = self.x_range[1] - self.x_range[0] + 1
        ny = self.y_range[1] - self.y_range[0] + 1
        if self.u.shape != (ny, nx):
            raise ValueError(f"u has shape {self.u.shape}, expected {(ny, nx)}")
        if self.lattice is Lattice.HONEYCOMB and self.v is None:
            raise ValueError("honeycomb field grids require the v sublattice")

    @property
    def xs(self) -> np.ndarray:
        return np.arange(self.x_range[0], self.x_range[1] + 1)

    @property
    def ys(self) -> np.ndarray:
        return np.arange(self.y_range[0], self.y_range[1] + 1)

    def _wrap_row(self, y: int) -> tuple[int, complex]:
        y0, y1 = self.y_range
        if y0 <= y <= y1:
            return y - y0, 1.0
        if self.bloch_multiplier is None:
            raise WindowMismatch(f"row {y} outside grid rows [{y0}, {y1}]")
        period = y1 - y0 + 1
        shift, rem = divmod(y - y0, period)
        return rem, self.bloch_multiplier**shift

    def row(self, y: int, sublattice: str = "u") -> np.ndarray:
        """Values along row y for all stored x (Bloch rows wrap with psi^j)."""
        data = {"u": self.u, "v": self.v}.get(sublattice)
        if data is None:
            raise InvalidSpec(f"no sublattice {sublattice!r} on the {self.lattice.value} lattice")
        i, factor = self._wrap_row(y)
        return factor * data[i, :]

    def value(self, x: int, y: int, sublattice: str = "u") -> complex:
        x0, x1 = self.x_range
        if not x0 <= x <= x1:
            raise WindowMismatch(f"column {x} outside grid columns [{x0}, {x1}]")
        return complex(self.row(y, sublattice)[x - x0])

    def window(self, x_range, y_range) -> "FieldGrid":
        """Copy restricted to the given inclusive index window, read row by
        row through row(), so a Bloch grid's window may take any rows."""
        x0, x1 = x_range
        y0, y1 = y_range
        if x0 > x1 or y0 > y1:
            raise WindowMismatch(f"reversed window {(x0, x1)} x {(y0, y1)}")
        if (x0 < self.x_range[0] or x1 > self.x_range[1] or self.bloch_multiplier is None
                and (y0 < self.y_range[0] or y1 > self.y_range[1])):
            raise WindowMismatch("requested window exceeds the stored grid")
        sx = slice(x0 - self.x_range[0], x1 - self.x_range[0] + 1)

        def part(sub):
            return np.array([self.row(y, sub)[sx] for y in range(y0, y1 + 1)])

        return FieldGrid(
            lattice=self.lattice,
            x_range=(x0, x1),
            y_range=(y0, y1),
            u=part("u"),
            v=None if self.v is None else part("v"),
            bloch_multiplier=None,
            meta=self.meta,
        )

    def stacked(self) -> np.ndarray:
        if self.v is None:
            return self.u
        return np.concatenate([self.u.ravel(), self.v.ravel()])

    def to_csv(self, path):
        """Columns x, y, re_u, im_u (plus re_v, im_v for honeycomb), under a
        header naming the grid's own lattice, whatever meta holds, and its Bloch multiplier."""
        meta = {**(self.meta or {}), "lattice": self.lattice.value}
        if self.bloch_multiplier is not None:
            meta["bloch_multiplier"] = complex(self.bloch_multiplier)
        with open(path, "w") as fh:
            for key in sorted(meta):
                fh.write(f"# {key} = {meta[key]}\n")
            fh.write("x,y,re_u,im_u" + (",re_v,im_v" if self.v is not None else "") + "\n")
            X, Y = np.meshgrid(self.xs, self.ys)
            values = [self.u] if self.v is None else [self.u, self.v]
            cols = [X, Y] + [part for val in values for part in (val.real, val.imag)]
            np.savetxt(fh, np.column_stack([c.ravel() for c in cols]),
                       fmt=["%d", "%d"] + ["%.17e"] * (len(cols) - 2), delimiter=",")

    @staticmethod
    def from_csv(path) -> "FieldGrid":
        """The grid to_csv wrote.  InvalidSpec unless the file has data
        rows, all of 4 or all of 6 columns, whose sites fill the rectangle
        of their x and y ranges exactly once."""
        meta = {}
        rows = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line.startswith("#"):
                    key, _, val = line[1:].partition("=")
                    meta[key.strip()] = val.strip()
                elif line and not line.startswith("x,"):
                    rows.append([float(tok) for tok in line.split(",")])
        if not rows:
            raise InvalidSpec(f"{path} holds no data rows")
        if {len(row) for row in rows} not in ({4}, {6}):
            raise InvalidSpec(f"{path}: data rows need 4 columns (x, y, u) or 6, all alike")
        data = np.asarray(rows)
        xs = data[:, 0].astype(int)
        ys = data[:, 1].astype(int)
        x_range = (int(xs.min()), int(xs.max()))
        y_range = (int(ys.min()), int(ys.max()))
        nx = x_range[1] - x_range[0] + 1
        ny = y_range[1] - y_range[0] + 1
        site = (ys - y_range[0], xs - x_range[0])
        if len(data) != nx * ny or np.unique(np.ravel_multi_index(site, (ny, nx))).size != nx * ny:
            raise InvalidSpec(f"{path}: the sites do not fill their x/y rectangle exactly once")
        u = np.zeros((ny, nx), dtype=complex)
        v = np.zeros((ny, nx), dtype=complex) if data.shape[1] > 4 else None
        for grid, column in ((u, 2), (v, 4)):  # part by part: x + 1j * y loses a -0.0
            if grid is not None:
                grid.real[site], grid.imag[site] = data[:, column], data[:, column + 1]
        lattice = Lattice(meta.get("lattice", "square" if v is None else "honeycomb"))
        bloch = meta.pop("bloch_multiplier", None)
        return FieldGrid(lattice=lattice, x_range=x_range, y_range=y_range, u=u, v=v,
                         bloch_multiplier=bloch and complex(bloch), meta=meta)


@dataclass(frozen=True)
class ComparisonReport:
    rel_l2: float
    max_abs: float
    window: tuple

    def as_dict(self) -> dict:
        return {"rel_l2": self.rel_l2, "max_abs": self.max_abs,
                "window": [list(self.window[0]), list(self.window[1])]}


def compare_fields(a: FieldGrid, b: FieldGrid, window) -> ComparisonReport:
    """Relative l2 and max-abs difference of two grids on a common window.

    window = ((xmin, xmax), (ymin, ymax)), inclusive.  Honeycomb grids
    compare both sublattices stacked.  Grids of different lattices are a
    WindowMismatch, even where they hold the same numbers.
    """
    if a.lattice is not b.lattice:
        raise WindowMismatch(f"cannot compare a {a.lattice.value} grid with a "
                             f"{b.lattice.value} grid")
    x_range, y_range = window
    aw = a.window(x_range, y_range)
    bw = b.window(x_range, y_range)
    if (aw.v is None) != (bw.v is None):
        raise WindowMismatch("cannot compare grids with different sublattice structure")
    da = aw.stacked().ravel()
    db = bw.stacked().ravel()
    diff = da - db
    denom = float(np.linalg.norm(db))
    rel = float(np.linalg.norm(diff)) / denom if denom > 0 else float(np.linalg.norm(diff))
    return ComparisonReport(rel_l2=rel, max_abs=float(np.max(np.abs(diff))),
                            window=(tuple(x_range), tuple(y_range)))
