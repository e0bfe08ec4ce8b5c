"""Standardized steel section catalogs and discrete design-variable pools.

All geometric properties are kept in a single unit system: cm, cm^2, cm^3,
cm^4.  Stresses elsewhere in the package are kN/cm^2; catalog files must
already be converted (the bundled ones are).
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from importlib import resources
from operator import attrgetter

import numpy as np

__all__ = [
    "PROPERTIES",
    "SectionShape",
    "SectionPool",
    "SectionTableError",
    "load_section_table",
    "load_bundled_pool",
    "load_pool",
    "pool_index_of_nearest_area",
    "circular_properties",
    "interpolated_properties",
    "property_block",
]

CSV_HEADER = ["name", "area_cm2", "ix_cm4", "sx_cm3", "zx_cm3", "rx_cm", "ry_cm", "depth_cm"]

# the column order of SectionPool.properties and of a design's property
# block: the SectionShape fields after the name, as in the CSV
PROPERTIES = ("area", "moment_of_inertia_x", "section_modulus_x", "plastic_modulus_x",
              "radius_of_gyration_x", "radius_of_gyration_y", "depth")
AREA, INERTIA, SECTION_MODULUS, PLASTIC_MODULUS, RADIUS_X, RADIUS_Y, DEPTH = \
    range(len(PROPERTIES))
_properties_of = attrgetter(*PROPERTIES)

BUNDLED_POOLS = {
    "w-all": "w_shapes.csv",
    "w14": "w14_shapes.csv",
}


class SectionTableError(ValueError):
    """Raised for malformed or physically invalid section table rows."""

    def __init__(self, message, row=None):
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)
        self.row = row


@dataclass(frozen=True)
class SectionShape:
    """One catalog cross-section (wide-flange or circular)."""

    name: str
    area: float              # cm^2
    moment_of_inertia_x: float  # cm^4
    section_modulus_x: float    # cm^3
    plastic_modulus_x: float    # cm^3
    radius_of_gyration_x: float  # cm
    radius_of_gyration_y: float  # cm
    depth: float              # cm

    def __post_init__(self):
        for field, value in zip(PROPERTIES, self.row):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{self.name}: {field} must be finite and positive, "
                                 f"got {value!r}")
        if self.section_modulus_x > self.plastic_modulus_x * (1 + 1e-12):
            raise ValueError(
                f"{self.name}: elastic modulus {self.section_modulus_x} exceeds "
                f"plastic modulus {self.plastic_modulus_x}"
            )

    @property
    def row(self) -> tuple:
        """The properties in PROPERTIES order."""
        return _properties_of(self)


class SectionPool:
    """Immutable ordered catalog: shape names and their property table,
    sorted ascending by area.

    Ties in area are broken by ascending depth, then name, so the ordering
    is total and reproducible.  ``properties`` is the read-only (n, k) table
    in PROPERTIES column order, column-major; ``pool[i]`` is row i as a
    SectionShape.  ``slopes`` is the read-only (n, k) table of each
    property's slope in area from row i to row i + 1, as ``np.interp``
    computes it, with 0 for the last row and between equal areas.  Safe for
    concurrent read.
    """

    def __init__(self, shapes, label=""):
        if not shapes:
            raise SectionTableError("empty section table")
        shapes = sorted(shapes, key=lambda s: (s.area, s.depth, s.name))
        self.names = tuple(s.name for s in shapes)
        self.label = label
        self.properties = np.array([s.row for s in shapes], order="F")
        rise, run = np.diff(self.properties, axis=0), np.diff(self.areas)[:, None]
        self.slopes = np.zeros_like(self.properties)
        np.divide(rise, run, out=self.slopes[:-1], where=run > 0)
        for table in (self.properties, self.slopes):
            table.flags.writeable = False

    def __len__(self):
        return len(self.names)

    def __getitem__(self, i) -> SectionShape:
        return SectionShape(self.names[i], *self.properties[i].tolist())

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    @property
    def areas(self) -> np.ndarray:
        """Ascending area vector (read-only view)."""
        return self.properties[:, AREA]

    @property
    def min_area(self) -> float:
        return float(self.properties[0, AREA])

    @property
    def max_area(self) -> float:
        return float(self.properties[-1, AREA])


def load_section_table(source, label="") -> SectionPool:
    """Parse a section CSV (header row required) into a SectionPool.

    ``source`` may be a text stream or a path.  Rows are validated
    and re-ordered ascending by area; all other content is preserved.
    """
    if isinstance(source, str) or hasattr(source, "__fspath__"):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return load_section_table(fh, label=label)

    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise SectionTableError("empty section table") from None
    header = [h.strip() for h in header]
    if header != CSV_HEADER:
        raise SectionTableError(
            f"unexpected header {header!r}; expected {CSV_HEADER!r}", row=1
        )

    shapes = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(CSV_HEADER):
            raise SectionTableError(
                f"expected {len(CSV_HEADER)} fields, got {len(row)}", row=lineno
            )
        name = row[0].strip()
        try:
            vals = [float(c) for c in row[1:]]
        except ValueError as exc:
            raise SectionTableError(f"unparseable number ({exc})", row=lineno) from None
        try:
            shapes.append(SectionShape(name, *vals))
        except ValueError as exc:
            raise SectionTableError(str(exc), row=lineno) from None
    if not shapes:
        raise SectionTableError("section table has a header but no rows")
    return SectionPool(shapes, label=label)


@functools.cache
def load_bundled_pool(name: str) -> SectionPool:
    """Load one of the catalogs shipped with the package ('w-all' or 'w14');
    each is parsed once per process and shared, as pools are immutable."""
    try:
        filename = BUNDLED_POOLS[name]
    except KeyError:
        raise KeyError(
            f"unknown bundled pool {name!r}; available: {sorted(BUNDLED_POOLS)}"
        ) from None
    ref = resources.files("framefx.data").joinpath(filename)
    with ref.open("r", encoding="utf-8") as fh:
        return load_section_table(fh, label=name)


def load_pool(label: str) -> SectionPool:
    """Load a bundled pool by name, or any other label as a CSV path."""
    if label in BUNDLED_POOLS:
        return load_bundled_pool(label)
    return load_section_table(label, label=label)


def pool_index_of_nearest_area(pool: SectionPool, target_area):
    """Index of the shape with area closest to ``target_area``: an int for a
    number, an index array for an array of targets.

    Each target takes the first index at the smallest distance, so ties go
    to the smaller area of the ascending pool.
    """
    target = np.asarray(target_area, dtype=float)
    if np.any(target <= 0):
        raise ValueError(f"target areas must be positive, got {target_area}")
    index = np.abs(pool.areas - target[..., None]).argmin(axis=-1)
    return int(index) if index.ndim == 0 else index


def circular_properties(radius: float) -> SectionShape:
    """Closed-form solid circular section properties for a given radius (cm)."""
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    r = float(radius)
    area = math.pi * r**2
    inertia = math.pi * r**4 / 4.0
    return SectionShape(
        name=f"CIRC-{r:g}",
        area=area,
        moment_of_inertia_x=inertia,
        section_modulus_x=inertia / r,          # = pi r^3 / 4
        plastic_modulus_x=4.0 * r**3 / 3.0,
        radius_of_gyration_x=r / 2.0,
        radius_of_gyration_y=r / 2.0,
        depth=2.0 * r,
    )


def interpolated_properties(pool: SectionPool, area) -> np.ndarray:
    """Property rows interpolated from the catalog at ``area``: one row for a
    number, one row per entry for an array, in PROPERTIES column order.

    Piecewise-linear in area between neighbouring catalog rows, clamped to the
    catalog ends; the area column is the clamped area itself.  Used for the
    continuous relaxation that interaction analysis probes; never for
    strength checks of actual designs.
    """
    areas = pool.areas
    a = np.minimum(np.maximum(area, areas[0]), areas[-1])  # np.clip's bits
    # np.interp's arithmetic: j is the last row at or below a (as a >= areas[0],
    # the count of the later rows at or below a), continued along its slope
    # above its area and taken as it is at its area
    j = areas[1:].searchsorted(a, side="right")
    row = pool.properties[j]
    offset = (a - row[..., AREA])[..., None]
    rows = pool.slopes[j] * offset + row
    np.copyto(rows, row, where=offset == 0)
    rows[..., AREA] = a
    return rows


def property_block(assignment) -> np.ndarray:
    """One frame design as a (G, k) array, a row per group in PROPERTIES
    column order.

    ``assignment`` holds one SectionShape or one property row per group; a
    (G, k) block, or a (p, G, k) stack of p designs' blocks, is returned as
    it is.
    """
    if not isinstance(assignment, np.ndarray):
        assignment = np.array([s.row if isinstance(s, SectionShape) else s
                               for s in assignment], dtype=float)
    if assignment.ndim not in (2, 3) or assignment.shape[-1] != len(PROPERTIES):
        raise ValueError(f"expected one row of {len(PROPERTIES)} section properties "
                         f"per group, got an array of shape {assignment.shape}")
    return assignment
