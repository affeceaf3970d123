"""C2L002: cache-key completeness against the FINGERPRINT_SCHEMA manifest."""

from __future__ import annotations

import pytest

from repro.errors import InvalidParameterError
from repro.sim import cache_store

GOOD_CONFIG = """\
from dataclasses import dataclass


@dataclass(frozen=True)
class ChipConfig:
    n_cores: int = 4
    size_kib: float = 32.0
"""

GOOD_STORE = """\
import hashlib
from dataclasses import fields

SIM_MODEL_VERSION = "1"

FINGERPRINT_SCHEMA = {
    "ChipConfig": ("n_cores", "size_kib"),
}

SHARD_PREFIX_LEN = 2
SHARD_COUNT = 256


def fingerprint(obj):
    return sorted(str(f.name) for f in fields(obj))


def sim_cache_keys(objs):
    return [hashlib.sha256(repr(fingerprint(obj)).encode()).hexdigest()
            for obj in objs]


def sim_cache_key(obj):
    return sim_cache_keys([obj])[0]


def shard_of_key(key):
    return int(key[:SHARD_PREFIX_LEN], 16)


class SimCacheStore:
    def path_for(self, key):
        return key[:SHARD_PREFIX_LEN] + "/" + key + ".json"
"""

GOOD_EVALUATE = """\
def canonical_key(config):
    return tuple(sorted(config.items()))
"""


def codes(result):
    return [d.code for d in result.diagnostics]


def messages(result):
    return " | ".join(d.message for d in result.diagnostics)


def test_aligned_schema_is_clean(lint_tree):
    result = lint_tree(
        {"sim/config.py": GOOD_CONFIG, "sim/cache_store.py": GOOD_STORE,
         "dse/evaluate.py": GOOD_EVALUATE},
        rules=["C2L002"])
    assert codes(result) == []


def test_new_field_drift_detected(lint_tree):
    drifted = GOOD_CONFIG.replace(
        "size_kib: float = 32.0",
        "size_kib: float = 32.0\n    voltage: float = 1.0")
    result = lint_tree(
        {"sim/config.py": drifted, "sim/cache_store.py": GOOD_STORE},
        rules=["C2L002"])
    assert codes(result) == ["C2L002"]
    assert "voltage" in messages(result)
    assert "SIM_MODEL_VERSION" in messages(result)


def test_new_dataclass_drift_detected(lint_tree):
    drifted = GOOD_CONFIG + (
        "\n\n@dataclass(frozen=True)\nclass NoCConfig:\n    hops: int = 2\n")
    result = lint_tree(
        {"sim/config.py": drifted, "sim/cache_store.py": GOOD_STORE},
        rules=["C2L002"])
    assert codes(result) == ["C2L002"]
    assert "NoCConfig" in messages(result)


def test_stale_schema_field_detected(lint_tree):
    stale = GOOD_STORE.replace('("n_cores", "size_kib")',
                               '("n_cores", "size_kib", "ghost")')
    result = lint_tree(
        {"sim/config.py": GOOD_CONFIG, "sim/cache_store.py": stale},
        rules=["C2L002"])
    assert codes(result) == ["C2L002"]
    assert "ghost" in messages(result)


def test_missing_schema_detected(lint_tree):
    no_schema = GOOD_STORE.replace("FINGERPRINT_SCHEMA", "OTHER_NAME")
    result = lint_tree(
        {"sim/config.py": GOOD_CONFIG, "sim/cache_store.py": no_schema},
        rules=["C2L002"])
    assert "must declare a FINGERPRINT_SCHEMA" in messages(result)


def test_computed_model_version_detected(lint_tree):
    computed = GOOD_STORE.replace('SIM_MODEL_VERSION = "1"',
                                  'SIM_MODEL_VERSION = str(1)')
    result = lint_tree(
        {"sim/config.py": GOOD_CONFIG, "sim/cache_store.py": computed},
        rules=["C2L002"])
    assert "literal string" in messages(result)


def test_fingerprint_losing_fields_walk_detected(lint_tree):
    broken = GOOD_STORE.replace(
        "return sorted(str(f.name) for f in fields(obj))",
        "return sorted(obj.__dict__)")
    result = lint_tree(
        {"sim/config.py": GOOD_CONFIG, "sim/cache_store.py": broken},
        rules=["C2L002"])
    assert "dataclasses.fields" in messages(result)


def test_unsorted_canonical_key_detected(lint_tree):
    unsorted = GOOD_EVALUATE.replace("sorted(config.items())",
                                     "config.items()")
    result = lint_tree(
        {"sim/config.py": GOOD_CONFIG, "sim/cache_store.py": GOOD_STORE,
         "dse/evaluate.py": unsorted},
        rules=["C2L002"])
    assert "canonical_key" in messages(result)


def test_computed_shard_prefix_detected(lint_tree):
    computed = GOOD_STORE.replace("SHARD_PREFIX_LEN = 2",
                                  "SHARD_PREFIX_LEN = 1 + 1")
    result = lint_tree(
        {"sim/config.py": GOOD_CONFIG, "sim/cache_store.py": computed},
        rules=["C2L002"])
    assert "SHARD_PREFIX_LEN must be a literal int" in messages(result)


def test_shard_count_prefix_mismatch_detected(lint_tree):
    drifted = GOOD_STORE.replace("SHARD_COUNT = 256", "SHARD_COUNT = 64")
    result = lint_tree(
        {"sim/config.py": GOOD_CONFIG, "sim/cache_store.py": drifted},
        rules=["C2L002"])
    assert "16 ** 2" in messages(result)


def test_shard_of_key_hardcoded_width_detected(lint_tree):
    magic = GOOD_STORE.replace("int(key[:SHARD_PREFIX_LEN], 16)",
                               "int(key[:2], 16)")
    result = lint_tree(
        {"sim/config.py": GOOD_CONFIG, "sim/cache_store.py": magic},
        rules=["C2L002"])
    assert "no longer references SHARD_PREFIX_LEN" in messages(result)


def test_shard_of_key_non_hex_parse_detected(lint_tree):
    broken = GOOD_STORE.replace("int(key[:SHARD_PREFIX_LEN], 16)",
                                "hash(key[:SHARD_PREFIX_LEN])")
    result = lint_tree(
        {"sim/config.py": GOOD_CONFIG, "sim/cache_store.py": broken},
        rules=["C2L002"])
    assert "int(..., 16)" in messages(result)


def test_non_hex_cache_key_detected(lint_tree):
    non_hex = GOOD_STORE.replace(
        "hashlib.sha256(repr(fingerprint(obj)).encode()).hexdigest()",
        "str(hash(repr(fingerprint(obj))))")
    result = lint_tree(
        {"sim/config.py": GOOD_CONFIG, "sim/cache_store.py": non_hex},
        rules=["C2L002"])
    assert "sha256" in messages(result)


def test_path_for_magic_width_detected(lint_tree):
    magic = GOOD_STORE.replace(
        'key[:SHARD_PREFIX_LEN] + "/" + key + ".json"',
        'key[:2] + "/" + key + ".json"')
    result = lint_tree(
        {"sim/config.py": GOOD_CONFIG, "sim/cache_store.py": magic},
        rules=["C2L002"])
    assert "path_for() must slice" in messages(result)


def test_runtime_shard_constants_consistent():
    assert cache_store.SHARD_COUNT == 16 ** cache_store.SHARD_PREFIX_LEN


def test_partial_tree_skips_cleanly(lint_tree):
    # Linting a tree without the cache modules must not fabricate findings.
    result = lint_tree({"pkg/misc.py": "X = 1\n"}, rules=["C2L002"])
    assert codes(result) == []


# ----- runtime twin -------------------------------------------------------

def test_runtime_schema_verifies_against_live_dataclasses():
    cache_store.verify_fingerprint_schema()


def test_runtime_schema_detects_drift(monkeypatch):
    drifted = dict(cache_store.FINGERPRINT_SCHEMA)
    drifted["SimulatedChip"] = drifted["SimulatedChip"][:-1]  # drop "noc"
    monkeypatch.setattr(cache_store, "FINGERPRINT_SCHEMA", drifted)
    with pytest.raises(InvalidParameterError, match="noc"):
        cache_store.verify_fingerprint_schema()
