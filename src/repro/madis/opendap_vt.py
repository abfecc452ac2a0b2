"""The ``opendap`` MadIS virtual-table operator (Section 3.2).

Usage inside a MadIS query, exactly as in the paper's Listing 2::

    SELECT id, LAI, ts, loc
    FROM (ordered opendap url:dap://vito.test/Copernicus/LAI, 10)
    WHERE LAI > 0

The operator

- contacts the OPeNDAP server, fetches the (optionally constrained)
  gridded product and flattens it into an observation table with schema
  ``(id, <VAR>, ts, loc)`` — ``id`` "constructed from the location and
  the time of observation", ``ts`` an ISO timestamp, ``loc`` a WKT
  point;
- caches results for a *time window w* (the trailing numeric argument,
  in minutes, exactly as Listing 2's ``10``): an identical call within
  the window is served from cache without touching the server.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..opendap import ServerRegistry, decode_time, open_url
from ..opendap.model import apply_fill_and_scale
from ..resilience import ResilienceStats, RetryPolicy
from .engine import MadisError

Row = Tuple

COLUMNS_TEMPLATE = ("id", None, "ts", "loc")  # None replaced by the variable


class OpendapVTOperator:
    """Stateful operator: holds the server registry and the call cache."""

    #: MadIS passes the caller's QueryBudget when this is set: the
    #: remote fetch is charged (and its retries deadline-capped) and
    #: the flattening loop becomes cooperatively cancellable.
    supports_budget = True

    def __init__(self, registry: ServerRegistry,
                 clock: Callable[[], float] = time.monotonic,
                 retry_policy: Optional[RetryPolicy] = None,
                 stats: Optional[ResilienceStats] = None,
                 tracer=None):
        self.registry = registry
        self.clock = clock
        self.retry_policy = retry_policy
        self.stats = stats if stats is not None else ResilienceStats()
        self.tracer = tracer
        self._cache: Dict[Tuple, Tuple[float, Sequence[str], List[Row]]] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.server_calls = 0

    def __call__(self, *args, budget=None, **kwargs):
        """MadIS entry point: (columns, rows)."""
        url = kwargs.get("url")
        positional = list(args)
        if url is None:
            if not positional:
                raise MadisError("opendap operator requires url:<dap-url>")
            url = positional.pop(0)
        window_minutes = 0.0
        if positional:
            try:
                window_minutes = float(positional.pop(0))
            except ValueError:
                raise MadisError(
                    "opendap window argument must be numeric (minutes)"
                ) from None
        variable = kwargs.get("variable")
        constraint = kwargs.get("constraint", "")
        if self.tracer is None:
            return self._call(url, variable, constraint, window_minutes,
                              budget)
        with self.tracer.span("madis.opendap", url=url) as span:
            columns, rows = self._call(url, variable, constraint,
                                       window_minutes, budget, span=span)
            span.record("rows_flattened", len(rows))
            return columns, rows

    def _call(self, url, variable, constraint, window_minutes, budget,
              span=None):
        key = (url, variable, constraint)
        if window_minutes > 0:
            cached = self._cache.get(key)
            if cached is not None:
                stamp, columns, rows = cached
                if self.clock() - stamp <= window_minutes * 60.0:
                    self.cache_hits += 1
                    if span is not None:
                        span.record("vt_cache_hits")
                    return columns, rows
                del self._cache[key]
        self.cache_misses += 1
        if span is not None:
            span.record("vt_cache_misses")
        columns, rows = self._fetch(url, variable, constraint, budget=budget)
        if window_minutes > 0:
            self._cache[key] = (self.clock(), columns, rows)
        return columns, rows

    # -- data access -------------------------------------------------------
    def _fetch(self, url: str, variable: Optional[str],
               constraint: str, budget=None
               ) -> Tuple[Sequence[str], List[Row]]:
        self.server_calls += 1
        remote = open_url(url, self.registry,
                          retry_policy=self.retry_policy,
                          stats=self.stats.labeled(url=url),
                          tracer=self.tracer)
        dataset = remote.fetch(constraint, budget=budget)
        if variable is None:
            variable = _main_variable(dataset)
        if variable not in dataset:
            raise MadisError(
                f"no variable {variable!r} at {url}; "
                f"have {list(dataset.variables)}"
            )
        var = dataset[variable]
        if var.dims != ("time", "lat", "lon"):
            raise MadisError(
                f"opendap operator expects (time, lat, lon) grids, "
                f"got {var.dims}"
            )
        times = decode_time(dataset["time"])
        lats = dataset["lat"].data.astype(float).tolist()
        lons = dataset["lon"].data.astype(float).tolist()
        values = apply_fill_and_scale(var)

        # Per-cell text is the same at every time step: format it once
        # per grid. Only the time stamp changes between planes.
        cells = [
            [(f"{lon:.4f}_{lat:.4f}_", f"POINT ({lon:g} {lat:g})")
             for lon in lons]
            for lat in lats
        ]
        rows: List[Row] = []
        append = rows.append
        for ti, moment in enumerate(times):
            ts = moment.strftime("%Y-%m-%dT%H:%M:%SZ")
            stamp_key = moment.strftime("%Y%m%d%H%M")
            for line, row_cells in zip(values[ti].tolist(), cells):
                if budget is not None:
                    budget.check_deadline()
                for value, (prefix, loc) in zip(line, row_cells):
                    if value != value:  # NaN: fill value or masked
                        continue
                    append((prefix + stamp_key, value, ts, loc))
        return ("id", variable, "ts", "loc"), rows

    # -- cache administration --------------------------------------------------
    def clear_cache(self) -> None:
        self._cache.clear()
        self.cache_hits = 0
        self.cache_misses = 0


def _main_variable(dataset) -> str:
    candidates = [
        name for name, var in dataset.variables.items()
        if len(var.dims) == 3
    ]
    if not candidates:
        raise MadisError(
            f"dataset {dataset.name!r} has no 3-D (time, lat, lon) variable"
        )
    return candidates[0]


def attach_opendap(conn, registry: ServerRegistry,
                   clock: Callable[[], float] = time.monotonic,
                   retry_policy: Optional[RetryPolicy] = None,
                   stats: Optional[ResilienceStats] = None,
                   tracer=None) -> OpendapVTOperator:
    """Register the operator on a MadIS connection; returns it for stats."""
    operator = OpendapVTOperator(registry, clock=clock,
                                 retry_policy=retry_policy, stats=stats,
                                 tracer=tracer)
    conn.register_vt_operator("opendap", operator)
    return operator
