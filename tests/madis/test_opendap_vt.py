"""The opendap virtual-table operator: Listing 2's source query."""

from datetime import date

import pytest

from repro.madis import MadisConnection, MadisError, attach_opendap
from repro.opendap import DapServer, LatencyModel, ServerRegistry
from repro.vito import LAI_SPEC, GlobalLandArchive, MepDeployment, \
    dekad_dates, generate_product


@pytest.fixture
def setup():
    archive = GlobalLandArchive()
    for day in dekad_dates(date(2018, 6, 1), 2):
        archive.publish(
            "LAI", day, 0,
            generate_product(LAI_SPEC, day, cloud_fraction=0.1),
        )
    mep = MepDeployment(archive, host="vito.test")
    mep.mount_product("LAI")
    registry = ServerRegistry()
    registry.register(mep.server)
    conn = MadisConnection()
    clock = {"now": 0.0}
    operator = attach_opendap(conn, registry, clock=lambda: clock["now"])
    return conn, operator, clock, mep


URL = "dap://vito.test/Copernicus/LAI"


def test_listing2_source_query(setup):
    conn, operator, clock, mep = setup
    rows = conn.execute(
        f"SELECT id, LAI, ts, loc FROM (ordered opendap url:{URL}, 10) "
        "WHERE LAI > 0"
    )
    assert len(rows) > 100
    row = rows[0]
    assert row["LAI"] > 0
    assert row["ts"].endswith("Z")
    assert row["loc"].startswith("POINT (")
    assert "_2018" in row["id"]


def test_fill_values_skipped(setup):
    conn, operator, __, mep = setup
    rows = conn.execute(f"SELECT LAI FROM (opendap url:{URL})")
    total_cells = 2 * 12 * 24
    assert len(rows) < total_cells  # ~10% clouds removed
    assert all(r["LAI"] >= 0 for r in rows)


def test_cache_window_hits(setup):
    conn, operator, clock, __ = setup
    query = f"SELECT count(*) AS n FROM (opendap url:{URL}, 10)"
    conn.execute(query)
    assert operator.server_calls == 1
    clock["now"] = 5 * 60.0  # 5 minutes later, inside w=10
    conn.execute(query)
    assert operator.server_calls == 1
    assert operator.cache_hits == 1


def test_cache_window_expiry(setup):
    conn, operator, clock, __ = setup
    query = f"SELECT count(*) AS n FROM (opendap url:{URL}, 10)"
    conn.execute(query)
    clock["now"] = 11 * 60.0  # outside w
    conn.execute(query)
    assert operator.server_calls == 2


def test_no_window_never_caches(setup):
    conn, operator, __, __unused = setup
    query = f"SELECT count(*) AS n FROM (opendap url:{URL})"
    conn.execute(query)
    conn.execute(query)
    assert operator.server_calls == 2
    assert operator.cache_hits == 0


def test_constraint_pushed_to_server(setup):
    conn, operator, __, mep = setup
    rows = conn.execute(
        f"SELECT ts FROM (opendap url:{URL} , 0, constraint:'LAI&time<=1612')"
    )
    timestamps = {r["ts"] for r in rows}
    assert timestamps == {"2018-06-01T00:00:00Z"}


def test_explicit_variable(setup):
    conn, operator, __, __unused = setup
    rows = conn.execute(
        f"SELECT LAI FROM (opendap url:{URL}, 0, variable:LAI) LIMIT 5"
    )
    assert len(rows) == 5


def test_unknown_variable_rejected(setup):
    conn, operator, __, __unused = setup
    with pytest.raises(MadisError):
        conn.execute(f"SELECT * FROM (opendap url:{URL}, 0, variable:NDVI)")


def test_missing_url_rejected(setup):
    conn, __, __u, __v = setup
    with pytest.raises(MadisError):
        conn.execute("SELECT * FROM (opendap)")


def test_aggregation_over_virtual_table(setup):
    """The RAMANI-analytics style query: spatial mean via plain SQL."""
    conn, __, __u, __v = setup
    rows = conn.execute(
        f"SELECT ts, AVG(LAI) AS mean_lai FROM (opendap url:{URL}) "
        "GROUP BY ts ORDER BY ts"
    )
    assert len(rows) == 2
    assert all(r["mean_lai"] > 0 for r in rows)


def test_spatial_udf_over_virtual_table(setup):
    conn, __, __u, __v = setup
    bbox = "POLYGON ((2.2 48.8, 2.3 48.8, 2.3 48.9, 2.2 48.9, 2.2 48.8))"
    rows = conn.execute(
        f"SELECT count(*) AS n FROM (opendap url:{URL}) "
        f"WHERE ST_WITHIN(loc, '{bbox}')"
    )
    all_rows = conn.execute(
        f"SELECT count(*) AS n FROM (opendap url:{URL})"
    )
    assert 0 < rows[0]["n"] < all_rows[0]["n"]


class _CountingBudget:
    """Just enough of a QueryBudget to count the flatten's deadline checks."""

    def __init__(self):
        self.deadline_checks = 0

    def charge_fetch(self):
        pass

    def check_deadline(self):
        self.deadline_checks += 1


def test_flatten_pins_ids_loc_and_order():
    """Two time steps over a 2x3 grid with fill values: every row's id,
    value, timestamp and POINT text, in time, lat, lon order."""
    from repro.opendap import DapDataset

    dataset = DapDataset("G")
    dataset.add_variable("time", ("time",), [0, 10],
                         {"units": "days since 2018-06-01 00:00:00"})
    dataset.add_variable("lat", ("lat",), [48.5, 48.75])
    dataset.add_variable("lon", ("lon",), [2.0, 2.25, 2.5])
    dataset.add_variable(
        "LAI", ("time", "lat", "lon"),
        [[[2, -1, 4], [6, 8, -1]],
         [[-1, -1, 1], [3, 5, 7]]],
        {"_FillValue": -1, "scale_factor": 0.5},
    )
    server = DapServer("grid.test", latency=LatencyModel(sleep=False))
    server.mount("G", dataset)
    registry = ServerRegistry()
    registry.register(server)
    operator = attach_opendap(MadisConnection(), registry)
    budget = _CountingBudget()

    columns, rows = operator("dap://grid.test/G", budget=budget)

    assert columns == ("id", "LAI", "ts", "loc")
    t0, t1 = "2018-06-01T00:00:00Z", "2018-06-11T00:00:00Z"
    assert rows == [
        ("2.0000_48.5000_201806010000", 1.0, t0, "POINT (2 48.5)"),
        ("2.5000_48.5000_201806010000", 2.0, t0, "POINT (2.5 48.5)"),
        ("2.0000_48.7500_201806010000", 3.0, t0, "POINT (2 48.75)"),
        ("2.2500_48.7500_201806010000", 4.0, t0, "POINT (2.25 48.75)"),
        ("2.5000_48.5000_201806110000", 0.5, t1, "POINT (2.5 48.5)"),
        ("2.0000_48.7500_201806110000", 1.5, t1, "POINT (2 48.75)"),
        ("2.2500_48.7500_201806110000", 2.5, t1, "POINT (2.25 48.75)"),
        ("2.5000_48.7500_201806110000", 3.5, t1, "POINT (2.5 48.75)"),
    ]
    assert all(type(row[1]) is float for row in rows)
    # one cooperative deadline check per latitude row of each time step
    assert budget.deadline_checks == 2 * 2
