"""Operator-level cardinality/timing feedback: the adaptive StatsStore.

PR 4 made every executed query emit per-operator estimate-vs-actual
rows keyed to EXPLAIN ids; this module is what finally consumes them.
A :class:`StatsStore` persists per-operator feedback keyed by *stable
plan-node signatures* — a signature encodes the pattern shape plus the
bound-variable mask (``?b`` for a variable already bound when the scan
probes, ``?f`` for a free one), never the variable names, so the same
scan shape in two different queries shares one feedback record:

    scan(?f <http://ex/follows> ?f)     # both vars free
    scan(?b <http://ex/follows> ?f)     # subject bound by the join

All estimates are stored *per probe* (mean enumerated rows per input
binding), which is exactly the unit
:func:`repro.sparql.plan.estimate_pattern` produces — a recorded mean
is directly substitutable for an index estimate.

The store is deliberately boring about time: it holds no clocks and
draws no randomness (the determinism lint enforces a total ban for
this module). Records update by EWMA; ``stats_version`` bumps
monotonically, but only on a *material* change — a new signature, or a
drift of the smoothed mean past ``drift_ratio`` — so the plan caches
keyed on the version are not invalidated by measurement noise.
``freeze()`` turns every ingestion into a no-op, which is what makes
same-seed runs against a fixed snapshot byte-identical.
"""

from __future__ import annotations

import json
import threading
from typing import Dict, Iterable, Optional, Set

from .ast import TriplePattern, Var

__all__ = [
    "FeedbackRecord",
    "StatsStore",
    "pattern_signature",
    "bgp_signature",
    "service_signature",
    "federation_signature",
]

#: Signature atoms for variable positions: bound-by-join vs free.
BOUND_MARK = "?b"
FREE_MARK = "?f"


def _term_text(node) -> str:
    n3 = getattr(node, "n3", None)
    return n3() if n3 else str(node)


def pattern_signature(pattern: TriplePattern, bound: Set[str],
                      spatial: bool = False) -> str:
    """Stable signature of one scan: pattern shape + bound-var mask.

    Constants keep their N3 text; variables collapse to ``?b``/``?f``
    depending on whether the join has bound them by the time this scan
    probes. ``spatial`` marks R-tree-assisted scans, whose per-probe
    actuals are not comparable with plain index scans of the same shape.
    """
    parts = []
    for node in (pattern.s, pattern.p, pattern.o):
        if isinstance(node, Var):
            parts.append(BOUND_MARK if node.name in bound else FREE_MARK)
        else:
            parts.append(_term_text(node))
    sig = "scan(" + " ".join(parts) + ")"
    return sig + "@spatial" if spatial else sig


def bgp_signature(scan_signatures: Iterable[str]) -> str:
    """Signature of a whole BGP: the sorted multiset of its scans.

    Sorted, not join-ordered — the signature identifies the *pattern
    set*, so feedback recorded under one join order still keys the
    output-cardinality estimate of a re-ordered plan for the same BGP.
    """
    return "bgp(" + " & ".join(sorted(scan_signatures)) + ")"


def service_signature(endpoint) -> str:
    """Signature of a SERVICE exchange with one remote endpoint."""
    return f"service({endpoint})"


def federation_signature(endpoint_iri: str, s, p, o) -> str:
    """Signature of a federated per-endpoint scan.

    The predicate keeps its identity (it drives source selection); the
    subject/object positions collapse to a bound/free mask, mirroring
    what the planner can know at estimation time.
    """
    parts = [
        BOUND_MARK if s is not None else FREE_MARK,
        _term_text(p) if p is not None else FREE_MARK,
        BOUND_MARK if o is not None else FREE_MARK,
    ]
    return f"fed({endpoint_iri} " + " ".join(parts) + ")"


class FeedbackRecord:
    """EWMA-smoothed feedback for one signature (rows/time per probe)."""

    __slots__ = ("signature", "observations", "mean_rows", "last_rows",
                 "mean_time_s")

    def __init__(self, signature: str, mean_rows: float,
                 mean_time_s: float = 0.0, observations: int = 1,
                 last_rows: Optional[float] = None):
        self.signature = signature
        self.observations = observations
        self.mean_rows = mean_rows
        self.last_rows = mean_rows if last_rows is None else last_rows
        self.mean_time_s = mean_time_s

    def to_dict(self) -> Dict[str, object]:
        return {
            "observations": self.observations,
            "mean_rows": self.mean_rows,
            "last_rows": self.last_rows,
            "mean_time_s": self.mean_time_s,
        }

    @classmethod
    def from_dict(cls, signature: str,
                  data: Dict[str, object]) -> "FeedbackRecord":
        return cls(
            signature,
            float(data["mean_rows"]),
            mean_time_s=float(data.get("mean_time_s", 0.0)),
            observations=int(data.get("observations", 1)),
            last_rows=float(data.get("last_rows", data["mean_rows"])),
        )

    def __repr__(self) -> str:
        return (f"<FeedbackRecord {self.signature!r} "
                f"mean_rows={self.mean_rows:.3f} "
                f"n={self.observations}>")


class StatsStore:
    """Thread-safe store of per-signature cardinality/timing feedback.

    ``version`` (the *stats version*) starts at 1 and bumps
    monotonically whenever ingestion materially changes what the
    planner would see. Consumers that cache plans record the version
    they planned under and re-plan when it moves
    (:class:`~repro.service.plancache.PlanCache`).
    """

    def __init__(self, ewma_alpha: float = 0.5, drift_ratio: float = 2.0):
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if drift_ratio <= 1.0:
            raise ValueError("drift_ratio must be > 1")
        self.ewma_alpha = ewma_alpha
        self.drift_ratio = drift_ratio
        self.frozen = False
        self._records: Dict[str, FeedbackRecord] = {}
        self._version = 1
        self._lock = threading.Lock()

    # -- reading -----------------------------------------------------------
    @property
    def version(self) -> int:
        return self._version

    def estimate(self, signature: Optional[str]) -> Optional[float]:
        """Mean rows-per-probe recorded for *signature*, or ``None``."""
        if signature is None:
            return None
        record = self._records.get(signature)
        return None if record is None else record.mean_rows

    def timing(self, signature: Optional[str]) -> Optional[float]:
        """Mean seconds-per-probe recorded for *signature*, or ``None``."""
        if signature is None:
            return None
        record = self._records.get(signature)
        return None if record is None else record.mean_time_s

    def record_for(self, signature: str) -> Optional[FeedbackRecord]:
        return self._records.get(signature)

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, signature: str) -> bool:
        return signature in self._records

    # -- freezing ----------------------------------------------------------
    def freeze(self) -> "StatsStore":
        """Make every ingestion a no-op (fixed-snapshot replay mode)."""
        self.frozen = True
        return self

    def thaw(self) -> "StatsStore":
        self.frozen = False
        return self

    # -- ingestion ---------------------------------------------------------
    def _ingest(self, signature: str, mean_rows: float,
                mean_time_s: float) -> bool:
        """Fold one observation in; returns True on a material change."""
        record = self._records.get(signature)
        if record is None:
            self._records[signature] = FeedbackRecord(
                signature, mean_rows, mean_time_s)
            return True
        old = record.mean_rows
        alpha = self.ewma_alpha
        record.mean_rows = (1.0 - alpha) * old + alpha * mean_rows
        record.mean_time_s = ((1.0 - alpha) * record.mean_time_s
                              + alpha * mean_time_s)
        record.last_rows = mean_rows
        record.observations += 1
        hi, lo = ((record.mean_rows, old) if record.mean_rows >= old
                  else (old, record.mean_rows))
        return (hi + 1.0) / (lo + 1.0) >= self.drift_ratio

    def record(self, signature: str, mean_rows: float,
               mean_time_s: float = 0.0) -> bool:
        """Ingest one observation; bumps the version if material."""
        if self.frozen:
            return False
        with self._lock:
            material = self._ingest(signature, float(mean_rows),
                                    float(mean_time_s))
            if material:
                self._version += 1
            return material

    def observe_plan(self, plan_root) -> bool:
        """Ingest an executed plan tree (one batched version bump).

        Walks the tree for nodes that carry a signature and actually
        probed (``probes > 0``; never-executed display-only subtrees
        keep ``actual_rows=None`` and are skipped). Zero-row operators
        are *not* skipped: an empty scan is exactly the feedback that
        corrects a wild overestimate.
        """
        if self.frozen:
            return False
        material = False
        with self._lock:
            for node in plan_root.walk():
                signature = getattr(node, "signature", None)
                if signature is None or node.actual_rows is None:
                    continue
                probes = getattr(node, "probes", 0)
                if not probes:
                    continue
                mean_rows = node.actual_rows / probes
                mean_time_s = node.time_s / probes
                if self._ingest(signature, mean_rows, mean_time_s):
                    material = True
            if material:
                self._version += 1
        return material

    def observe_profile(self, profile) -> bool:
        """Ingest :meth:`SPARQLResult.profile` rows (one version bump).

        Accepts any iterable of profile-row dicts carrying
        ``signature``/``probes``/``rows_out``/``time_s``. This is the
        post-query feedback path the executor drives.
        """
        if self.frozen:
            return False
        material = False
        with self._lock:
            for row in profile:
                signature = row.get("signature")
                probes = row.get("probes") or 0
                rows_out = row.get("rows_out")
                if signature is None or rows_out is None or not probes:
                    continue
                mean_rows = rows_out / probes
                mean_time_s = (row.get("time_s") or 0.0) / probes
                if self._ingest(signature, mean_rows, mean_time_s):
                    material = True
            if material:
                self._version += 1
        return material

    # -- persistence -------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """JSON-serializable state (sorted for byte-stable dumps)."""
        with self._lock:
            return {
                "stats_version": self._version,
                "ewma_alpha": self.ewma_alpha,
                "drift_ratio": self.drift_ratio,
                "records": {
                    sig: self._records[sig].to_dict()
                    for sig in sorted(self._records)
                },
            }

    def load_snapshot(self, data: Dict[str, object]) -> "StatsStore":
        """Replace the store's contents from a :meth:`snapshot` dict."""
        with self._lock:
            self._records = {
                sig: FeedbackRecord.from_dict(sig, rec)
                for sig, rec in data.get("records", {}).items()
            }
            self._version = int(data.get("stats_version", 1))
        return self

    def save(self, path) -> None:
        """Persist the snapshot as deterministic JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path, ewma_alpha: float = 0.5,
             drift_ratio: float = 2.0) -> "StatsStore":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        store = cls(ewma_alpha=float(data.get("ewma_alpha", ewma_alpha)),
                    drift_ratio=float(data.get("drift_ratio", drift_ratio)))
        return store.load_snapshot(data)

    # -- reporting ---------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "stats_version": self._version,
                "signatures": len(self._records),
                "frozen": self.frozen,
            }

    def __repr__(self) -> str:
        return (f"<StatsStore v{self._version} "
                f"{len(self._records)} signatures"
                f"{' frozen' if self.frozen else ''}>")
