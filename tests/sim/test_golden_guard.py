"""Guards on the golden-digest machinery itself.

The differential wall is only as strong as its pin: if the digest
depended on dict iteration order, or the golden file could be silently
regenerated after a semantic change, bit-identity would rot without a
failing test.  This module pins both properties of
:mod:`tests.sim.golden_util`:

- ``_sha`` is canonical — key order and assembly history never leak
  into a digest (layer-stat dicts are built by unordered accumulation,
  so insertion-order hashing would be nondeterministic across
  refactors);
- ``regeneration_error`` refuses to rewrite any existing digest or
  corpus hash unless ``SIM_MODEL_VERSION`` is bumped, while allowing
  purely additive changes (new cases, new corpus entries, new fields).
"""

from __future__ import annotations

import json

from tests.sim.golden_util import (GOLDEN_PATH, GOLDEN_SCHEMA, _sha,
                                   load_golden, regeneration_error)


# ----- digest canonicalization ------------------------------------------
def test_sha_is_insertion_order_invariant():
    forward = {"l2.hits": 10, "l2.misses": 3, "dram.writes": 1}
    reversed_ = dict(reversed(list(forward.items())))
    assert list(forward) != list(reversed_)  # genuinely different orders
    assert _sha(forward) == _sha(reversed_)


def test_sha_nested_dicts_and_lists_are_canonical():
    a = {"cores": [{"hits": 1, "misses": 2}], "meta": {"x": 1, "y": 2}}
    b = {"meta": {"y": 2, "x": 1}, "cores": [{"misses": 2, "hits": 1}]}
    assert _sha(a) == _sha(b)
    # List order is content, not assembly history: it must matter.
    assert _sha([1, 2]) != _sha([2, 1])


def test_sha_distinguishes_values_and_types():
    assert _sha({"k": 1}) != _sha({"k": 2})
    assert _sha({"k": "1"}) != _sha({"k": 1})


# ----- regeneration refusal ---------------------------------------------
def _pin(version="v1", corpus=None, **cases):
    return {"schema": GOLDEN_SCHEMA, "sim_model_version": version,
            "cases": cases, "corpus": corpus or {}}


def test_regeneration_refused_when_digest_changes_without_bump():
    old = _pin(default={"exec_cycles": 100, "ipc": "0.5"})
    new = _pin(default={"exec_cycles": 101, "ipc": "0.5"})
    error = regeneration_error(old, new)
    assert error is not None
    assert "SIM_MODEL_VERSION" in error


def test_regeneration_allowed_with_version_bump():
    old = _pin("v1", default={"exec_cycles": 100})
    new = _pin("v2", default={"exec_cycles": 101})
    assert regeneration_error(old, new) is None


def test_regeneration_allows_additive_changes():
    old = _pin(default={"exec_cycles": 100})
    new = _pin(default={"exec_cycles": 100, "ipc": "0.5"},
               extra_case={"exec_cycles": 7})
    assert regeneration_error(old, new) is None


def test_regeneration_refused_when_corpus_hash_changes_without_bump():
    old = _pin(corpus={"fuzz_000": "a" * 64, "fuzz_001": "b" * 64})
    new = _pin(corpus={"fuzz_000": "a" * 64, "fuzz_001": "c" * 64})
    error = regeneration_error(old, new)
    assert error is not None
    assert "fuzz_001" in error and "SIM_MODEL_VERSION" in error
    assert regeneration_error(
        old, dict(new, sim_model_version="v2")) is None


def test_regeneration_allows_new_corpus_entries():
    old = _pin(corpus={"fuzz_000": "a" * 64})
    new = _pin(corpus={"fuzz_000": "a" * 64, "fuzz_001": "b" * 64})
    assert regeneration_error(old, new) is None


def test_regeneration_identical_is_allowed():
    old = _pin(default={"exec_cycles": 100})
    assert regeneration_error(old, old) is None


# ----- the committed golden file itself ---------------------------------
def test_golden_file_is_canonically_serialized():
    """The pin on disk is sorted-keys JSON — diffs stay reviewable."""
    text = GOLDEN_PATH.read_text()
    data = json.loads(text)
    assert text == json.dumps(data, indent=2, sort_keys=True) + "\n"
    assert data["schema"] == GOLDEN_SCHEMA


def test_golden_file_digests_have_expected_shape():
    golden = load_golden()
    for name, digest in golden["cases"].items():
        assert isinstance(digest["exec_cycles"], int), name
        assert isinstance(digest["cores"], list) and digest["cores"], name
        for core in digest["cores"]:
            assert len(core["records_sha"]) == 64, name
        assert set(digest["layer_apc"]) == {"l1", "llc", "dram"}, name
    assert golden["corpus"]
    for name, value in golden["corpus"].items():
        assert len(value) == 64 and int(value, 16) >= 0, name
