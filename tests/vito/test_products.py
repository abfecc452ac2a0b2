"""Synthetic product generator tests."""

import os
import pathlib
import subprocess
import sys
from datetime import date

import numpy as np
import pytest

from repro.opendap import apply_fill_and_scale, decode_time
from repro.vito import (
    ALL_SPECS,
    LAI_SPEC,
    NDVI_SPEC,
    PARIS_GRID,
    dekad_dates,
    default_greenness,
    generate_product,
    seasonal_factor,
)


def test_all_four_products_defined():
    assert set(ALL_SPECS) == {"LAI", "NDVI", "BA300", "S5_TOC_NDVI_100M"}
    assert ALL_SPECS["S5_TOC_NDVI_100M"].cadence_days == 5


def test_generate_structure():
    ds = generate_product(LAI_SPEC, date(2018, 6, 1))
    assert ds["LAI"].shape == (1, PARIS_GRID.n_lat, PARIS_GRID.n_lon)
    assert ds["time"].attributes["units"].startswith("days since")
    assert ds.attributes["product_version"] == "RT0"
    assert decode_time(ds["time"])[0].date() == date(2018, 6, 1)


def test_deterministic():
    a = generate_product(LAI_SPEC, date(2018, 6, 1), seed=3)
    b = generate_product(LAI_SPEC, date(2018, 6, 1), seed=3)
    np.testing.assert_array_equal(a["LAI"].data, b["LAI"].data)


def test_different_seeds_differ():
    a = generate_product(LAI_SPEC, date(2018, 6, 1), seed=3)
    b = generate_product(LAI_SPEC, date(2018, 6, 1), seed=4)
    assert not np.array_equal(a["LAI"].data, b["LAI"].data)


def test_values_within_valid_range():
    ds = generate_product(LAI_SPEC, date(2018, 6, 1))
    values = apply_fill_and_scale(ds["LAI"])
    finite = values[~np.isnan(values)]
    assert finite.min() >= LAI_SPEC.valid_min
    assert finite.max() <= LAI_SPEC.valid_max


def test_seasonality_summer_greater_than_winter():
    summer = generate_product(LAI_SPEC, date(2018, 7, 1), cloud_fraction=0)
    winter = generate_product(LAI_SPEC, date(2018, 1, 1), cloud_fraction=0)
    assert summer["LAI"].data.mean() > winter["LAI"].data.mean() * 2


def test_seasonal_factor_bounds():
    assert 0.9 < seasonal_factor(date(2018, 7, 1)) <= 1.0
    assert 0.0 <= seasonal_factor(date(2018, 1, 10)) < 0.1


def test_greenness_drives_values():
    """A park greenness function must yield higher LAI inside the park."""

    def greenness(lon, lat):
        return 1.0 if lon < 2.3 else 0.05

    ds = generate_product(
        LAI_SPEC, date(2018, 7, 1), greenness=greenness, cloud_fraction=0
    )
    lons = ds["lon"].data
    west = ds["LAI"].data[0][:, lons < 2.3].mean()
    east = ds["LAI"].data[0][:, lons >= 2.3].mean()
    assert west > east * 3


def test_reprocessing_reduces_noise():
    def flat(lon, lat):
        return 0.5

    rt0 = generate_product(
        LAI_SPEC, date(2018, 7, 1), greenness=flat, version=0,
        cloud_fraction=0,
    )
    rt2 = generate_product(
        LAI_SPEC, date(2018, 7, 1), greenness=flat, version=2,
        cloud_fraction=0,
    )
    assert rt2["LAI"].data.std() < rt0["LAI"].data.std()


def test_cloud_fraction_produces_fill():
    ds = generate_product(LAI_SPEC, date(2018, 6, 1), cloud_fraction=0.5)
    values = apply_fill_and_scale(ds["LAI"])
    assert np.isnan(values).mean() > 0.3


def test_default_greenness_bounded():
    for lon in np.linspace(-10, 30, 17):
        for lat in np.linspace(35, 60, 11):
            g = default_greenness(float(lon), float(lat))
            assert 0.0 <= g <= 1.0


def test_dekad_dates():
    days = dekad_dates(date(2018, 1, 1), 4)
    assert days == [date(2018, 1, 1), date(2018, 1, 11),
                    date(2018, 1, 21), date(2018, 1, 31)]


def test_ndvi_range():
    ds = generate_product(NDVI_SPEC, date(2018, 7, 1), cloud_fraction=0)
    assert ds["NDVI"].data.max() <= NDVI_SPEC.valid_max + 1e-6


_DIGEST_SCRIPT = """
import hashlib
from datetime import date
from repro.vito import LAI_SPEC, NDVI_SPEC, generate_product
digest = hashlib.sha256()
for spec in (LAI_SPEC, NDVI_SPEC):
    ds = generate_product(spec, date(2018, 6, 1), seed=7)
    digest.update(ds[spec.name].data.tobytes())
print(digest.hexdigest())
"""


def test_product_is_identical_across_processes():
    """Str hashes are salted per process; the product RNG must not be."""
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT],
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        digests.add(proc.stdout.strip())
    assert len(digests) == 1
