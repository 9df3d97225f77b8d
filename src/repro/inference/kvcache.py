"""Paged KV-cache accounting: fixed-size blocks with prefix sharing.

The KV cache is serving's dominant memory consumer, so it gets the
same first-class treatment training state does: every block lives in
a :class:`~repro.sim.memory.DeviceMemory` book, allocated in
fixed-size pages (vLLM-style) and shared across requests that carry
the same prompt prefix (SGLang radix-tree-style, flattened to
whole-block exact-prefix reuse with refcounts).

:class:`KVBlockManager` is the planning-time ledger: the serving
scheduler drives it with admit/append/evict/free calls and emits the
resulting byte deltas as ``Alloc``/``Drop`` effects on the lowered
instruction program, so the interpreters' strict memory books replay
exactly what the ledger decided.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import SimulationError
from repro.sim.memory import DeviceMemory


class KVBlockManager:
    """Refcounted fixed-size KV blocks drawn from one device book."""

    def __init__(self, book: DeviceMemory, block_bytes: int, tag: str = "kv"):
        if block_bytes <= 0:
            raise SimulationError(f"block_bytes must be positive, got {block_bytes}")
        self.book = book
        self.block_bytes = block_bytes
        self.tag = tag
        self._refcount: Dict[int, int] = {}
        self._next_block = 0
        # rid -> block ids, shared prefix blocks first.
        self.block_table: Dict[int, List[int]] = {}
        self._shared_count: Dict[int, int] = {}
        # prefix key -> block ids; the index holds one reference of its
        # own so cached prefixes survive gaps between sharers (a radix
        # cache retains entries until explicitly dropped).
        self._prefix_index: Dict[str, List[int]] = {}

    # -- invariants --------------------------------------------------------

    @property
    def live_blocks(self) -> int:
        return len(self._refcount)

    @property
    def bytes_in_use(self) -> int:
        return self.live_blocks * self.block_bytes

    def blocks_of(self, rid: int) -> List[int]:
        if rid not in self.block_table:
            raise SimulationError(f"request {rid} holds no KV blocks")
        return list(self.block_table[rid])

    def private_blocks(self, rid: int) -> int:
        return len(self.blocks_of(rid)) - self._shared_count.get(rid, 0)

    def can_allocate(self, n_blocks: int) -> bool:
        return self.book.in_use + n_blocks * self.block_bytes <= self.book.capacity

    def has_prefix(self, prefix_key: str) -> bool:
        return prefix_key in self._prefix_index

    # -- block plumbing ----------------------------------------------------

    def _new_block(self, now: float) -> int:
        self.book.alloc(self.block_bytes, now, self.tag)
        bid = self._next_block
        self._next_block += 1
        self._refcount[bid] = 1
        return bid

    def _retain(self, bid: int) -> None:
        count = self._refcount.get(bid, 0)
        if count <= 0:
            raise SimulationError(f"retain of dead KV block {bid}")
        self._refcount[bid] = count + 1

    def _release(self, bid: int, now: float) -> int:
        """Drop one reference; returns bytes physically freed (0 or block)."""
        count = self._refcount.get(bid, 0)
        if count <= 0:
            raise SimulationError(f"double free of KV block {bid}")
        count -= 1
        if count == 0:
            del self._refcount[bid]
            self.book.free(self.block_bytes, now, self.tag)
            return self.block_bytes
        self._refcount[bid] = count
        return 0

    # -- request lifecycle -------------------------------------------------

    def admit(
        self,
        rid: int,
        n_blocks: int,
        now: float,
        prefix_key: Optional[str] = None,
        prefix_blocks: int = 0,
    ) -> int:
        """Give ``rid`` its prefill footprint; returns fresh bytes allocated.

        ``prefix_blocks`` leading blocks are looked up in (or inserted
        into) the prefix cache; a hit retains the cached blocks instead
        of allocating, which is exactly the radix-reuse saving.
        """
        if rid in self.block_table:
            raise SimulationError(f"request {rid} admitted twice")
        if prefix_blocks < 0 or prefix_blocks > n_blocks:
            raise SimulationError(
                f"prefix_blocks {prefix_blocks} out of range for {n_blocks} blocks")
        blocks: List[int] = []
        fresh = 0
        if prefix_key is not None and prefix_blocks > 0:
            shared = self._prefix_index.get(prefix_key)
            if shared is None:
                # First sharer materializes the prefix: one reference
                # for the index, one for this request.
                shared = []
                for _ in range(prefix_blocks):
                    bid = self._new_block(now)
                    self._retain(bid)
                    shared.append(bid)
                    fresh += 1
                self._prefix_index[prefix_key] = shared
            else:
                if len(shared) != prefix_blocks:
                    raise SimulationError(
                        f"prefix {prefix_key!r} cached with {len(shared)} blocks, "
                        f"asked for {prefix_blocks}")
                for bid in shared:
                    self._retain(bid)
            blocks.extend(shared)
        else:
            prefix_blocks = 0
        for _ in range(n_blocks - prefix_blocks):
            blocks.append(self._new_block(now))
            fresh += 1
        self.block_table[rid] = blocks
        self._shared_count[rid] = prefix_blocks
        return fresh * self.block_bytes

    def append(self, rid: int, n_blocks: int, now: float) -> int:
        """Grow ``rid`` by fresh private blocks; returns bytes allocated."""
        if n_blocks < 0:
            raise SimulationError(f"cannot append {n_blocks} blocks")
        blocks = self.block_table.get(rid)
        if blocks is None:
            raise SimulationError(f"request {rid} holds no KV blocks")
        for _ in range(n_blocks):
            blocks.append(self._new_block(now))
        return n_blocks * self.block_bytes

    def evict_private(self, rid: int, now: float) -> int:
        """Swap-out: release ``rid``'s private blocks, keep shared prefix.

        Returns the bytes physically freed — the spill volume the
        lowering must move off-device.  The request stays in the table
        holding only its shared prefix, ready for :meth:`restore_private`.
        """
        blocks = self.block_table.get(rid)
        if blocks is None:
            raise SimulationError(f"request {rid} holds no KV blocks")
        shared = self._shared_count.get(rid, 0)
        freed = 0
        for bid in blocks[shared:]:
            freed += self._release(bid, now)
        del blocks[shared:]
        return freed

    def restore_private(self, rid: int, n_blocks: int, now: float) -> int:
        """Swap-in: re-allocate private blocks after an eviction."""
        return self.append(rid, n_blocks, now)

    def free_request(self, rid: int, now: float) -> int:
        """Completion/preemption: drop every reference ``rid`` holds.

        Returns bytes physically freed (shared prefix blocks stay
        cached — the index keeps its own reference).
        """
        blocks = self.block_table.pop(rid, None)
        if blocks is None:
            raise SimulationError(f"request {rid} holds no KV blocks")
        self._shared_count.pop(rid, None)
        freed = 0
        for bid in blocks:
            freed += self._release(bid, now)
        return freed

    def check_books(self) -> None:
        """Assert the ledger and the DeviceMemory book agree exactly."""
        booked = self.book.usage_by_tag().get(self.tag, 0)
        if booked != self.bytes_in_use:
            raise SimulationError(
                f"KV ledger says {self.bytes_in_use} bytes but book holds {booked}")
