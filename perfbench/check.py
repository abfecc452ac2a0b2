"""The paper's central promise, checked on one seed: the virtual and the
materialized workflow give the same answers.

Builds both workflows in one process (so both read the same generated
LAI product), runs the four shared LAI queries on each, and compares the
bags of projected values with the subject IRIs left out (those differ by
mapping). Prints one JSON line and exits 0 when all four agree, 1
otherwise.

    python3 perfbench/check.py --seed 7
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def canonical(term):
    """A comparable value: numbers to 12 significant digits (the two
    workflows may sum an AVG in different orders), anything else as
    its string form."""
    value = getattr(term, "value", term)
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def projected_bag(result, skip=("s",)):
    keep = [v for v in result.vars if v not in skip]
    return Counter(tuple(canonical(row.get(v)) for v in keep)
                   for row in result.rows)


def agreement(seed):
    """Per shared query: row counts on both sides and whether the bags
    of projected values are equal."""
    from workloads import (SHARED_QUERIES, ParisMaterialized, ParisVirtual,
                           lai_dataset_sha256)

    materialized = ParisMaterialized().build(seed)
    virtual = ParisVirtual().build(seed)
    # One process, one hash salt: both builds generate the same rasters.
    same_data = (lai_dataset_sha256(materialized.study)
                 == lai_dataset_sha256(virtual.study))
    queries = {}
    for name, text in SHARED_QUERIES.items():
        left = materialized.store.query(text)
        right = virtual.engine.query(text)
        queries[name] = {
            "materialized_rows": len(left.rows),
            "virtual_rows": len(right.rows),
            "agree": projected_bag(left) == projected_bag(right),
        }
    return {"seed": seed, "same_data": same_data,
            "dataset_sha256": lai_dataset_sha256(virtual.study),
            "queries": queries,
            "agree": same_data and all(q["agree"]
                                       for q in queries.values())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the repro package is missing under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    outcome = agreement(args.seed)
    print(json.dumps(outcome, sort_keys=True))
    return 0 if outcome["agree"] else 1


if __name__ == "__main__":
    sys.exit(main())
