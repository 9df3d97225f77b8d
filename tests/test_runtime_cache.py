"""Content-addressed result cache: storage, corruption, lifecycle."""

from __future__ import annotations

import json
import os

import pytest

from repro.runtime.cache import ENTRY_VERSION, META_NAME, ResultCache


def _key(n: int) -> str:
    return f"{n:02x}" + "0" * 62


def test_roundtrip(tmp_path):
    cache = ResultCache(str(tmp_path))
    record = {"label": "a", "tflops": 1.25, "plan": {"stripes": [1, 2]}}
    assert cache.get(_key(1)) is None
    cache.put(_key(1), record)
    assert cache.get(_key(1)) == record
    assert cache.hits == 1
    assert cache.misses == 1


def test_entries_are_sharded_by_key_prefix(tmp_path):
    cache = ResultCache(str(tmp_path))
    cache.put(_key(0xAB), {"label": "x"})
    assert os.path.exists(tmp_path / "ab" / (_key(0xAB) + ".json"))


def test_corrupt_entry_is_a_miss(tmp_path):
    cache = ResultCache(str(tmp_path))
    cache.put(_key(2), {"label": "ok"})
    path = tmp_path / "02" / (_key(2) + ".json")
    path.write_text("{not json")
    assert cache.get(_key(2)) is None


@pytest.mark.parametrize("payload", [
    b"\xff\xfe\x00garbage",                       # binary, invalid UTF-8
    b'{"version": 1, "key": "ab", "record": {"la',   # truncated JSON
    b"[1, 2, 3]",                                   # not an object
    b'{"version": 1, "record": [1, 2]}',            # record not an object
], ids=["binary", "truncated", "list", "record-shape"])
def test_unreadable_entry_is_a_counted_miss(tmp_path, payload):
    cache = ResultCache(str(tmp_path))
    cache.put(_key(7), {"label": "ok"})
    (tmp_path / "07" / (_key(7) + ".json")).write_bytes(payload)
    assert cache.get(_key(7)) is None
    assert (cache.hits, cache.misses) == (0, 1)
    # The next put overwrites the corrupt entry.
    cache.put(_key(7), {"label": "again"})
    assert cache.get(_key(7)) == {"label": "again"}


@pytest.mark.parametrize("payload", [
    b"\xff\xfe\x00garbage",
    b'{"evictions": 3',
    b'{"evictions": "many"}',
], ids=["binary", "truncated", "wrong-shape"])
def test_unreadable_meta_reads_as_no_evictions(tmp_path, payload):
    (tmp_path / META_NAME).write_bytes(payload)
    cache = ResultCache(str(tmp_path), max_bytes=10)
    assert cache.total_evictions() == 0
    cache.put(_key(0), _pad_record(0))
    cache.put(_key(1), _pad_record(1))
    assert cache.total_evictions() == 1


def test_wrong_entry_version_is_a_miss(tmp_path):
    cache = ResultCache(str(tmp_path))
    cache.put(_key(3), {"label": "ok"})
    path = tmp_path / "03" / (_key(3) + ".json")
    entry = json.loads(path.read_text())
    entry["version"] = ENTRY_VERSION + 1
    path.write_text(json.dumps(entry))
    assert cache.get(_key(3)) is None


def test_put_overwrites(tmp_path):
    cache = ResultCache(str(tmp_path))
    cache.put(_key(4), {"label": "old"})
    cache.put(_key(4), {"label": "new"})
    assert cache.get(_key(4))["label"] == "new"


def test_stats_and_clear(tmp_path):
    cache = ResultCache(str(tmp_path))
    for n in range(3):
        cache.put(_key(n), {"label": str(n)})
    stats = cache.stats()
    assert stats.entries == 3
    assert stats.total_bytes > 0
    assert "3 entries" in stats.summary()
    assert sorted(cache.keys()) == sorted(_key(n) for n in range(3))
    removed = cache.clear()
    assert removed == 3
    assert cache.stats().entries == 0
    assert cache.get(_key(0)) is None


def test_stats_count_shards(tmp_path):
    cache = ResultCache(str(tmp_path))
    cache.put(_key(0xAA), {"label": "a"})
    cache.put(_key(0xAA)[:2] + "f" * 62, {"label": "same shard"})
    cache.put(_key(0xBB), {"label": "b"})
    stats = cache.stats()
    assert stats.entries == 3
    assert stats.shards == 2


def test_stats_dict_merges_directory_and_counters(tmp_path):
    cache = ResultCache(str(tmp_path))
    cache.put(_key(5), {"label": "x"})
    cache.get(_key(5))
    cache.get(_key(6))
    stats = cache.stats_dict()
    assert stats["entries"] == 1
    assert stats["shards"] == 1
    assert stats["total_bytes"] > 0
    assert stats["hits"] == 1
    assert stats["misses"] == 1
    json.dumps(stats)  # must stay JSON-serializable for the CLI


def test_missing_root_stats(tmp_path):
    cache = ResultCache(str(tmp_path / "never-created"))
    assert cache.stats().entries == 0
    assert cache.clear() == 0


# -- LRU eviction ------------------------------------------------------------


def _pad_record(n: int) -> dict:
    return {"label": str(n), "pad": "x" * 200}


def test_max_bytes_must_be_positive(tmp_path):
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        ResultCache(str(tmp_path), max_bytes=0)


def test_put_evicts_oldest_beyond_cap(tmp_path):
    one = len(json.dumps({"version": 1, "key": _key(0),
                          "record": _pad_record(0)}, sort_keys=True))
    cache = ResultCache(str(tmp_path), max_bytes=2 * one)
    for n in range(3):
        cache.put(_key(n), _pad_record(n))
    assert cache.keys() == sorted([_key(1), _key(2)])
    assert cache.evictions == 1
    assert cache.total_bytes() <= 2 * one


def test_hit_protects_an_entry_from_the_next_eviction(tmp_path):
    one = len(json.dumps({"version": 1, "key": _key(0),
                          "record": _pad_record(0)}, sort_keys=True))
    cache = ResultCache(str(tmp_path), max_bytes=2 * one)
    cache.put(_key(0), _pad_record(0))
    cache.put(_key(1), _pad_record(1))
    assert cache.get(_key(0)) is not None   # 0 is now most recent
    cache.put(_key(2), _pad_record(2))      # overflow: 1 is LRU
    assert cache.keys() == sorted([_key(0), _key(2)])


def test_just_put_entry_is_never_its_own_victim(tmp_path):
    # A cap smaller than a single record still stores the newest one.
    cache = ResultCache(str(tmp_path), max_bytes=10)
    cache.put(_key(0), _pad_record(0))
    cache.put(_key(1), _pad_record(1))
    assert cache.keys() == [_key(1)]


def test_evictions_persist_across_instances(tmp_path):
    one = len(json.dumps({"version": 1, "key": _key(0),
                          "record": _pad_record(0)}, sort_keys=True))
    first = ResultCache(str(tmp_path), max_bytes=one)
    first.put(_key(0), _pad_record(0))
    first.put(_key(1), _pad_record(1))
    assert first.evictions == 1
    second = ResultCache(str(tmp_path))
    assert second.total_evictions() == 1
    assert second.stats().evictions == 1
    # _meta.json never masquerades as an entry.
    assert second.stats().entries == 1


def test_evict_to_one_shot(tmp_path):
    cache = ResultCache(str(tmp_path))
    for n in range(4):
        cache.put(_key(n), _pad_record(n))
    cache.get(_key(0))                      # 0 becomes most recent
    removed = cache.evict_to(cache.total_bytes() // 2)
    assert removed >= 1
    assert _key(0) in cache.keys()
    assert cache.max_bytes is None          # one-shot, cap not retained


def test_stats_dict_reports_hit_rate_and_evictions(tmp_path):
    cache = ResultCache(str(tmp_path), max_bytes=1 << 20)
    cache.put(_key(0), _pad_record(0))
    cache.get(_key(0))
    cache.get(_key(1))
    cache.get(_key(2))
    stats = cache.stats_dict()
    assert stats["hits"] == 1 and stats["misses"] == 2
    assert abs(stats["hit_rate"] - 1 / 3) < 1e-9
    assert stats["evictions"] == 0
    assert stats["max_bytes"] == 1 << 20
    json.dumps(stats)


def test_hit_rate_is_zero_without_lookups(tmp_path):
    assert ResultCache(str(tmp_path)).stats_dict()["hit_rate"] == 0.0


# -- guarded clear -----------------------------------------------------------


def test_clear_keep_newer_than_spares_recent_entries(tmp_path):
    cache = ResultCache(str(tmp_path))
    cache.put(_key(0), {"label": "old"})
    cache.put(_key(1), {"label": "new"})
    # Age the first entry far past any guard window.
    old_path = cache.path_for(_key(0))
    stat = os.stat(old_path)
    os.utime(old_path, ns=(stat.st_mtime_ns - int(3600e9),
                           stat.st_mtime_ns - int(3600e9)))
    removed = cache.clear(keep_newer_than=60.0)
    assert removed == 1
    assert cache.keys() == [_key(1)]


def test_clear_keep_newer_than_rejects_negative(tmp_path):
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        ResultCache(str(tmp_path)).clear(keep_newer_than=-1.0)


def test_full_clear_resets_persistent_evictions(tmp_path):
    cache = ResultCache(str(tmp_path), max_bytes=10)
    cache.put(_key(0), _pad_record(0))
    cache.put(_key(1), _pad_record(1))
    assert cache.total_evictions() == 1
    cache.clear()
    assert cache.total_evictions() == 0
