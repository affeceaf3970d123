"""The metric catalog: ``BENCHMARK.json`` at the checkout root.

It is the single list of workloads, metric names, units, directions
and regression bounds; the workloads report against it and
``compare`` judges against it.
"""

from __future__ import annotations

import json

from bench.host import ROOT

CATALOG_PATH = ROOT / "BENCHMARK.json"


def load_catalog() -> dict:
    return json.loads(CATALOG_PATH.read_text())


def metric_specs(catalog: dict) -> "dict[str, dict]":
    """Every listed metric by name; end-to-end ones carry a ``bound``."""
    return {m["name"]: m for m in catalog["end_to_end"] + catalog["per_layer"]}
