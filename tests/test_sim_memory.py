"""Device memory tracking tests."""

import pytest

from repro.errors import OutOfMemoryError, SimulationError
from repro.sim.memory import DeviceMemory, MemoryModel, PinnedPool


class TestDeviceMemory:
    def test_alloc_free_roundtrip(self):
        mem = DeviceMemory("gpu0", capacity=100)
        mem.alloc(40, 1.0, tag="a")
        mem.alloc(30, 2.0, tag="b")
        mem.free(40, 3.0, tag="a")
        assert mem.in_use == 30
        assert mem.peak == 70

    def test_strict_raises_on_overflow(self):
        mem = DeviceMemory("gpu0", capacity=100, strict=True)
        mem.alloc(80, 0.0)
        with pytest.raises(OutOfMemoryError) as err:
            mem.alloc(30, 1.0)
        assert err.value.device == "gpu0"
        assert err.value.requested == 30

    def test_non_strict_records_overflow(self):
        mem = DeviceMemory("gpu0", capacity=100)
        mem.alloc(150, 0.0)
        assert mem.overflow == 50
        assert mem.headroom == 0

    def test_headroom_when_fitting(self):
        mem = DeviceMemory("gpu0", capacity=100)
        mem.alloc(60, 0.0)
        assert mem.headroom == 40

    def test_free_more_than_held_rejected(self):
        mem = DeviceMemory("gpu0", capacity=100)
        mem.alloc(10, 0.0, tag="x")
        with pytest.raises(SimulationError):
            mem.free(20, 1.0, tag="x")

    def test_free_unknown_tag_rejected(self):
        mem = DeviceMemory("gpu0", capacity=100)
        with pytest.raises(SimulationError):
            mem.free(1, 0.0, tag="ghost")

    def test_timeline_records_every_change(self):
        mem = DeviceMemory("gpu0", capacity=100)
        mem.alloc(10, 1.0)
        mem.free(10, 2.0)
        assert mem.timeline == [(1.0, 10), (2.0, 0)]

    def test_composition_at_replays_history(self):
        mem = DeviceMemory("gpu0", capacity=100)
        mem.alloc(10, 1.0, tag="a")
        mem.alloc(20, 2.0, tag="b")
        mem.free(10, 3.0, tag="a")
        assert mem.composition_at(2.5) == {"a": 10, "b": 20}
        assert mem.composition_at(3.5) == {"b": 20}

    def test_usage_by_tag(self):
        mem = DeviceMemory("gpu0", capacity=100)
        mem.alloc(10, 0.0, tag="a")
        mem.alloc(5, 0.0, tag="b")
        mem.free(5, 1.0, tag="b")
        assert mem.usage_by_tag() == {"a": 10}


class TestMemoryModel:
    def test_per_gpu_tracking(self):
        model = MemoryModel([100, 200], host_capacity=1000)
        model.gpu(0).alloc(50, 0.0)
        model.gpu(1).alloc(150, 0.0)
        assert model.peaks() == [50, 150]
        assert model.total_peak() == 200

    def test_overflow_detection(self):
        model = MemoryModel([100, 100], host_capacity=1000)
        model.gpu(1).alloc(120, 0.0)
        assert model.any_overflow()
        assert model.overflowed_gpus() == [1]

    def test_gpu_index_bounds(self):
        model = MemoryModel([100], host_capacity=10)
        with pytest.raises(SimulationError):
            model.gpu(1)


class TestPinnedPool:
    def test_take_give(self):
        pool = PinnedPool(capacity=100)
        pool.take(60)
        pool.give(10)
        assert pool.in_use == 50
        assert pool.peak == 60

    def test_exhaustion_raises(self):
        pool = PinnedPool(capacity=100)
        pool.take(90)
        with pytest.raises(OutOfMemoryError):
            pool.take(20)

    def test_invalid_give_rejected(self):
        pool = PinnedPool(capacity=100)
        with pytest.raises(SimulationError):
            pool.give(1)
