"""Paged KV-cache ledger: refcounts, prefix sharing, and book parity."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.inference.kvcache import KVBlockManager
from repro.sim.memory import DeviceMemory

BLOCK = 64


def manager(capacity_blocks: int = 100) -> KVBlockManager:
    book = DeviceMemory("gpu0", capacity=capacity_blocks * BLOCK, strict=True)
    return KVBlockManager(book, block_bytes=BLOCK)


class TestLifecycle:
    def test_admit_append_free_balance_the_book(self):
        kv = manager()
        assert kv.admit(1, 3, now=0.0) == 3 * BLOCK
        assert kv.bytes_in_use == 3 * BLOCK
        assert kv.append(1, 2, now=1.0) == 2 * BLOCK
        assert kv.blocks_of(1) == [0, 1, 2, 3, 4]
        assert kv.free_request(1, now=2.0) == 5 * BLOCK
        assert kv.bytes_in_use == 0
        kv.check_books()

    def test_evict_then_restore_round_trips(self):
        kv = manager()
        kv.admit(1, 4, now=0.0)
        freed = kv.evict_private(1, now=1.0)
        assert freed == 4 * BLOCK
        assert kv.blocks_of(1) == []
        kv.restore_private(1, 4, now=2.0)
        assert kv.private_blocks(1) == 4
        kv.check_books()

    def test_can_allocate_respects_capacity(self):
        kv = manager(capacity_blocks=4)
        kv.admit(1, 3, now=0.0)
        assert kv.can_allocate(1)
        assert not kv.can_allocate(2)

    def test_double_admit_rejected(self):
        kv = manager()
        kv.admit(1, 1, now=0.0)
        with pytest.raises(SimulationError, match="admitted twice"):
            kv.admit(1, 1, now=1.0)

    def test_double_free_rejected(self):
        kv = manager()
        kv.admit(1, 2, now=0.0)
        kv.free_request(1, now=1.0)
        with pytest.raises(SimulationError, match="no KV blocks"):
            kv.free_request(1, now=2.0)


class TestPrefixSharing:
    def test_second_sharer_allocates_no_prefix_bytes(self):
        kv = manager()
        first = kv.admit(1, 5, now=0.0, prefix_key="sys", prefix_blocks=2)
        assert first == 5 * BLOCK
        second = kv.admit(2, 4, now=1.0, prefix_key="sys", prefix_blocks=2)
        assert second == 2 * BLOCK  # only the private tail
        assert kv.blocks_of(1)[:2] == kv.blocks_of(2)[:2]
        kv.check_books()

    def test_prefix_survives_all_sharers_leaving(self):
        kv = manager()
        kv.admit(1, 3, now=0.0, prefix_key="sys", prefix_blocks=2)
        freed = kv.free_request(1, now=1.0)
        assert freed == 1 * BLOCK  # index still holds the prefix
        assert kv.has_prefix("sys")
        assert kv.bytes_in_use == 2 * BLOCK
        kv.check_books()

    def test_eviction_keeps_the_shared_prefix(self):
        kv = manager()
        kv.admit(1, 4, now=0.0, prefix_key="sys", prefix_blocks=2)
        assert kv.evict_private(1, now=1.0) == 2 * BLOCK
        assert kv.blocks_of(1) == kv._prefix_index["sys"]
        kv.check_books()

    def test_mismatched_prefix_width_rejected(self):
        kv = manager()
        kv.admit(1, 3, now=0.0, prefix_key="sys", prefix_blocks=2)
        with pytest.raises(SimulationError, match="cached with 2 blocks"):
            kv.admit(2, 3, now=1.0, prefix_key="sys", prefix_blocks=3)


# -- property: the ledger never drifts from the DeviceMemory book ----------

_commands = st.lists(
    st.tuples(
        st.sampled_from(["admit", "admit_shared", "append", "evict",
                         "restore", "free"]),
        st.integers(min_value=0, max_value=4),     # rid
        st.integers(min_value=1, max_value=3),     # block count
    ),
    max_size=60,
)


@given(cmds=_commands)
@settings(max_examples=200)
def test_ledger_matches_book_under_any_interleaving(cmds):
    """No double-free, refcounts never negative, ledger == book, always.

    Drives admit/append/evict/restore/free in arbitrary interleavings
    (including invalid ones, which must raise rather than corrupt) and
    checks after every step that the manager's byte ledger equals the
    strict DeviceMemory book's per-tag balance.
    """
    kv = manager(capacity_blocks=10_000)
    admitted = set()
    evicted = set()
    now = 0.0
    for op, rid, count in cmds:
        now += 1.0
        if op in ("admit", "admit_shared"):
            kwargs = {}
            if op == "admit_shared":
                kwargs = {"prefix_key": "sys", "prefix_blocks": 1}
            if rid in admitted:
                with pytest.raises(SimulationError):
                    kv.admit(rid, count, now, **kwargs)
            else:
                kv.admit(rid, count, now, **kwargs)
                admitted.add(rid)
                evicted.discard(rid)
        elif op == "append":
            if rid not in admitted:
                with pytest.raises(SimulationError):
                    kv.append(rid, count, now)
            else:
                kv.append(rid, count, now)
                evicted.discard(rid)
        elif op == "evict":
            if rid not in admitted:
                with pytest.raises(SimulationError):
                    kv.evict_private(rid, now)
            else:
                kv.evict_private(rid, now)
                evicted.add(rid)
        elif op == "restore":
            if rid not in admitted:
                with pytest.raises(SimulationError):
                    kv.restore_private(rid, count, now)
            else:
                kv.restore_private(rid, count, now)
                evicted.discard(rid)
        elif op == "free":
            if rid not in admitted:
                with pytest.raises(SimulationError):
                    kv.free_request(rid, now)
            else:
                kv.free_request(rid, now)
                admitted.discard(rid)
                evicted.discard(rid)
        # Invariants hold after every operation, valid or rejected.
        assert all(c > 0 for c in kv._refcount.values())
        assert kv.bytes_in_use == kv.book.usage_by_tag().get("kv", 0)
        kv.check_books()
    # Teardown: freeing everything leaves only the cached prefix.
    for rid in sorted(admitted):
        kv.free_request(rid, now)
    prefix_bytes = BLOCK if kv.has_prefix("sys") else 0
    assert kv.bytes_in_use == prefix_bytes
    assert kv.book.in_use == prefix_bytes
