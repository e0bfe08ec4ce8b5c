"""Standardized steel section catalogs and discrete design-variable pools.

All geometric properties are kept in a single unit system: cm, cm^2, cm^3,
cm^4.  Stresses elsewhere in the package are kN/cm^2; catalog files must
already be converted (the bundled ones are).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from functools import cached_property
from importlib import resources

import numpy as np

__all__ = [
    "SectionShape",
    "SectionPool",
    "SectionTableError",
    "load_section_table",
    "load_bundled_pool",
    "pool_index_of_nearest_area",
    "circular_properties",
    "interpolated_properties",
]

CSV_HEADER = ["name", "area_cm2", "ix_cm4", "sx_cm3", "zx_cm3", "rx_cm", "ry_cm", "depth_cm"]

# the properties interpolated_properties interpolates in area
_INTERPOLATED = ("moment_of_inertia_x", "section_modulus_x", "plastic_modulus_x",
                 "radius_of_gyration_x", "radius_of_gyration_y", "depth")

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
        for field in ("area", "moment_of_inertia_x", "depth"):
            if getattr(self, field) <= 0:
                raise ValueError(f"{self.name}: {field} must be positive")
        if self.section_modulus_x > self.plastic_modulus_x * (1 + 1e-12):
            raise ValueError(
                f"{self.name}: elastic modulus {self.section_modulus_x} exceeds "
                f"plastic modulus {self.plastic_modulus_x}"
            )

    @property
    def min_radius_of_gyration(self) -> float:
        return min(self.radius_of_gyration_x, self.radius_of_gyration_y)


class SectionPool:
    """Immutable ordered catalog: shapes sorted ascending by area.

    Ties in area are broken by ascending depth, then name, so the ordering
    is total and reproducible.  Safe for concurrent read.
    """

    def __init__(self, shapes, label=""):
        if not shapes:
            raise SectionTableError("empty section table")
        self.shapes = tuple(sorted(shapes, key=lambda s: (s.area, s.depth, s.name)))
        self.label = label
        self._areas = np.array([s.area for s in self.shapes])

    def __len__(self):
        return len(self.shapes)

    def __getitem__(self, i) -> SectionShape:
        return self.shapes[i]

    def __iter__(self):
        return iter(self.shapes)

    @property
    def areas(self) -> np.ndarray:
        """Ascending area vector (read-only view)."""
        v = self._areas.view()
        v.flags.writeable = False
        return v

    @cached_property
    def _property_table(self) -> dict:
        """One array per interpolated property, in pool order."""
        return {attr: np.array([getattr(s, attr) for s in self.shapes])
                for attr in _INTERPOLATED}

    @property
    def min_area(self) -> float:
        return float(self._areas[0])

    @property
    def max_area(self) -> float:
        return float(self._areas[-1])


def load_section_table(source, label="") -> SectionPool:
    """Parse a section CSV (header row required) into a SectionPool.

    ``source`` may be a text or byte stream, or a path.  Rows are validated
    and re-ordered ascending by area; all other content is preserved.
    """
    if isinstance(source, (str,)) or hasattr(source, "__fspath__"):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return load_section_table(fh, label=label)
    if isinstance(source, (bytes, bytearray)):
        source = io.StringIO(source.decode("utf-8"))
    elif hasattr(source, "read") and isinstance(source.read(0), bytes):
        source = io.TextIOWrapper(source, encoding="utf-8")

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


def load_bundled_pool(name: str) -> SectionPool:
    """Load one of the catalogs shipped with the package ('w-all' or 'w14')."""
    try:
        filename = BUNDLED_POOLS[name]
    except KeyError:
        raise KeyError(
            f"unknown bundled pool {name!r}; available: {sorted(BUNDLED_POOLS)}"
        ) from None
    ref = resources.files("framefx.data").joinpath(filename)
    with ref.open("r", encoding="utf-8") as fh:
        return load_section_table(fh, label=name)


def pool_index_of_nearest_area(pool: SectionPool, target_area: float, cap_area=None) -> int:
    """Index of the shape with area closest to ``target_area``.

    Ties break toward the smaller area.  When ``cap_area`` is given only
    shapes with area <= cap_area are considered; if none qualify, the
    smallest shape's index is returned (documented fallback so expansion
    never fails).
    """
    if target_area <= 0:
        raise ValueError(f"target_area must be positive, got {target_area}")
    areas = pool.areas
    if cap_area is not None:
        n_ok = int(np.searchsorted(areas, cap_area, side="right"))
        if n_ok == 0:
            return 0
        areas = areas[:n_ok]
    # ascending scan with strict improvement keeps the first (smaller) shape on ties
    diffs = np.abs(areas - target_area)
    return int(np.argmin(diffs))


def circular_properties(radius: float, name=None) -> SectionShape:
    """Closed-form solid circular section properties for a given radius (cm)."""
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    r = float(radius)
    area = math.pi * r**2
    inertia = math.pi * r**4 / 4.0
    return SectionShape(
        name=name or f"CIRC-{r:g}",
        area=area,
        moment_of_inertia_x=inertia,
        section_modulus_x=inertia / r,          # = pi r^3 / 4
        plastic_modulus_x=4.0 * r**3 / 3.0,
        radius_of_gyration_x=r / 2.0,
        radius_of_gyration_y=r / 2.0,
        depth=2.0 * r,
    )


def interpolated_properties(pool: SectionPool, area: float) -> SectionShape:
    """Synthetic shape with properties interpolated from the catalog at ``area``.

    Piecewise-linear in area between neighbouring catalog rows, clamped to the
    catalog ends.  Used for the continuous relaxation that interaction
    analysis probes; never for strength checks of actual designs.
    """
    areas = pool.areas
    a = float(min(max(area, areas[0]), areas[-1]))
    return SectionShape(
        name=f"{pool.label or 'pool'}-interp-{a:.3f}",
        area=a,
        **{attr: float(np.interp(a, areas, values))
           for attr, values in pool._property_table.items()},
    )
