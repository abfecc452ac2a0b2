"""Synthetic Copernicus Global Land Service products.

The paper's deployment exposes BioPar BA300 (burnt area), LAI (leaf
area index), NDVI, and the PROBA-V S5 TOC NDVI 100M product. We cannot
ship the real archives, so this module generates deterministic synthetic
rasters with the properties the downstream experiments rely on:

- CF-style metadata (units, fill values, time encoding, ACDD globals);
- a seasonal cycle (northern-hemisphere summer peak);
- spatial structure driven by a ``greenness`` field in [0, 1], so green
  features (parks) genuinely show higher LAI/NDVI than industrial areas
  — the signal the "greenness of Paris" case study visualizes;
- reprocessing semantics: successive RT (real-time) versions of the
  same date carry less noise, mirroring how the production centre
  reprocesses products when better meteorological data arrives.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from datetime import date, datetime, timezone
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ..opendap import DapDataset

GreennessFn = Callable[[float, float], float]


@dataclass(frozen=True)
class ProductSpec:
    """Static description of one Global Land product."""

    name: str
    long_name: str
    units: str
    valid_min: float
    valid_max: float
    fill_value: float
    cadence_days: int
    base_level: float       # value at greenness == 0
    seasonal_amplitude: float  # extra value at greenness == 1, summer peak


LAI_SPEC = ProductSpec(
    name="LAI",
    long_name="Leaf Area Index",
    units="m2/m2",
    valid_min=0.0,
    valid_max=10.0,
    fill_value=-1.0,
    cadence_days=10,
    base_level=0.3,
    seasonal_amplitude=5.5,
)

NDVI_SPEC = ProductSpec(
    name="NDVI",
    long_name="Normalized Difference Vegetation Index",
    units="1",
    valid_min=-0.08,
    valid_max=0.92,
    fill_value=-0.1,
    cadence_days=10,
    base_level=0.08,
    seasonal_amplitude=0.75,
)

BA300_SPEC = ProductSpec(
    name="BA300",
    long_name="Burnt Area 300m",
    units="1",
    valid_min=0.0,
    valid_max=1.0,
    fill_value=-1.0,
    cadence_days=10,
    base_level=0.0,
    seasonal_amplitude=0.0,
)

S5_TOC_NDVI_SPEC = ProductSpec(
    name="S5_TOC_NDVI_100M",
    long_name="PROBA-V S5 Top of Canopy NDVI 100m",
    units="1",
    valid_min=-0.08,
    valid_max=0.92,
    fill_value=-0.1,
    cadence_days=5,
    base_level=0.08,
    seasonal_amplitude=0.75,
)

ALL_SPECS = {
    s.name: s for s in (LAI_SPEC, NDVI_SPEC, BA300_SPEC, S5_TOC_NDVI_SPEC)
}


@dataclass(frozen=True)
class Grid:
    """A regular lon/lat grid."""

    min_lon: float
    min_lat: float
    max_lon: float
    max_lat: float
    n_lon: int
    n_lat: int

    @property
    def lons(self) -> np.ndarray:
        return np.linspace(self.min_lon, self.max_lon, self.n_lon)

    @property
    def lats(self) -> np.ndarray:
        return np.linspace(self.min_lat, self.max_lat, self.n_lat)


#: Paris-and-surroundings grid used throughout the case study.
PARIS_GRID = Grid(2.15, 48.75, 2.55, 48.95, 24, 12)

#: A coarse continental grid for volume-oriented benchmarks.
EUROPE_GRID = Grid(-10.0, 35.0, 30.0, 60.0, 80, 50)

TIME_UNITS = "days since 2014-01-01"
_EPOCH = date(2014, 1, 1)


def default_greenness(lon: float, lat: float) -> float:
    """A smooth deterministic pseudo-landscape in [0, 1]."""
    value = (
        0.5
        + 0.3 * math.sin(lon * 9.7) * math.cos(lat * 11.3)
        + 0.2 * math.sin((lon + lat) * 23.0)
    )
    return min(1.0, max(0.0, value))


def seasonal_factor(day: date) -> float:
    """0..1 seasonal cycle peaking around July 1 (northern hemisphere)."""
    doy = day.timetuple().tm_yday
    return 0.5 - 0.5 * math.cos(2 * math.pi * (doy - 10) / 365.25)


def _day_number(day: date) -> int:
    return (day - _EPOCH).days


def generate_product(spec: ProductSpec, day: date,
                     grid: Grid = PARIS_GRID,
                     greenness: Optional[GreennessFn] = None,
                     version: int = 0,
                     seed: int = 7,
                     cloud_fraction: float = 0.02) -> DapDataset:
    """Generate one dated product raster.

    ``version`` is the reprocessing index (RT0, RT1, ...): higher
    versions use better meteo data, modelled as lower observation noise.
    """
    greenness = greenness or default_greenness
    lons, lats = grid.lons, grid.lats
    g_field = np.array(
        [[greenness(float(lon), float(lat)) for lon in lons] for lat in lats]
    )
    season = seasonal_factor(day)
    field = spec.base_level + spec.seasonal_amplitude * season * g_field

    # crc32, not hash(): str hashes are salted per process, and one
    # seed must give the same product in every process.
    rng = np.random.default_rng(
        (seed, zlib.crc32(spec.name.encode()) & 0xFFFF, _day_number(day))
    )
    noise_scale = 0.15 / (1 + version)  # RT1 is twice as clean as RT0
    field = field * (1 + rng.normal(0.0, noise_scale, size=field.shape))
    field = np.clip(field, spec.valid_min, spec.valid_max)

    if cloud_fraction > 0:
        clouds = rng.random(field.shape) < cloud_fraction
        field = np.where(clouds, spec.fill_value, field)

    ds = DapDataset(
        spec.name,
        attributes={
            "title": spec.long_name,
            "Conventions": "CF-1.6, ACDD-1.3",
            "institution": "VITO (synthetic reproduction)",
            "source": "Copernicus Global Land Service (simulated)",
            "product_version": f"RT{version}",
            "time_coverage_start": day.isoformat(),
            "date_created": day.isoformat(),
        },
    )
    ds.add_variable(
        "time", ["time"],
        np.array([_day_number(day)], dtype=np.int32),
        {"units": TIME_UNITS, "axis": "T", "standard_name": "time"},
    )
    ds.add_variable(
        "lat", ["lat"], lats,
        {"units": "degrees_north", "axis": "Y", "standard_name": "latitude"},
    )
    ds.add_variable(
        "lon", ["lon"], lons,
        {"units": "degrees_east", "axis": "X", "standard_name": "longitude"},
    )
    ds.add_variable(
        spec.name, ["time", "lat", "lon"],
        field[np.newaxis, :, :].astype(np.float32),
        {
            "units": spec.units,
            "long_name": spec.long_name,
            "_FillValue": spec.fill_value,
            "valid_min": spec.valid_min,
            "valid_max": spec.valid_max,
            "grid_mapping": "crs",
        },
    )
    return ds


def dekad_dates(start: date, count: int, cadence_days: int = 10
                ) -> Sequence[date]:
    """The observation dates for *count* consecutive composites."""
    from datetime import timedelta

    return [start + timedelta(days=i * cadence_days) for i in range(count)]
