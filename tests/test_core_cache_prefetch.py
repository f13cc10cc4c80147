"""Tests for the activation store and the AB-LL rebatcher."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import ActivationStore
from repro.core.prefetcher import rebatch
from repro.errors import ConfigError, ShapeError
from repro.utils.rng import spawn_rng


def _batch(n, seed=0, c=2, h=3):
    rng = spawn_rng(seed, "cache")
    return (
        rng.normal(size=(n, c, h, h)).astype(np.float32),
        rng.integers(0, 4, size=n).astype(np.int64),
    )


class TestActivationStore:
    def test_roundtrip_preserves_order_and_values(self, tmp_path):
        with ActivationStore(tmp_path / "c") as store:
            written = [_batch(4, seed=i) for i in range(5)]
            for x, y in written:
                store.write(0, x, y)
            read = list(store.batches(0))
            assert len(read) == 5
            for (wx, wy), (rx, ry) in zip(written, read):
                np.testing.assert_array_equal(wx, rx)
                np.testing.assert_array_equal(wy, ry)

    def test_blocks_are_independent(self, tmp_path):
        with ActivationStore(tmp_path / "c") as store:
            store.write(0, *_batch(2, seed=1))
            store.write(1, *_batch(3, seed=2))
            assert [len(y) for _, y in store.batches(0)] == [2]
            assert [len(y) for _, y in store.batches(1)] == [3]

    def test_bytes_written_accumulates(self, tmp_path):
        with ActivationStore(tmp_path / "c") as store:
            assert store.bytes_written == 0
            n = store.write(0, *_batch(4))
            assert n > 0
            assert store.bytes_written == n
            store.write(0, *_batch(4))
            assert store.bytes_written > n

    def test_clear_block(self, tmp_path):
        with ActivationStore(tmp_path / "c") as store:
            store.write(0, *_batch(2))
            store.clear_block(0)
            assert list(store.batches(0)) == []

    def test_missing_block_iterates_empty(self, tmp_path):
        with ActivationStore(tmp_path / "c") as store:
            assert list(store.batches(7)) == []

    def test_mismatched_lengths_raise(self, tmp_path):
        with ActivationStore(tmp_path / "c") as store:
            x, y = _batch(4)
            with pytest.raises(ConfigError):
                store.write(0, x, y[:2])

    def test_tempdir_mode_cleans_up(self):
        store = ActivationStore()
        root = store.root
        store.write(0, *_batch(2))
        store.close()
        assert not root.exists()

    @settings(deadline=None, max_examples=15)
    @given(sizes=st.lists(st.integers(1, 9), min_size=1, max_size=6))
    def test_roundtrip_property(self, tmp_path_factory, sizes):
        with ActivationStore(tmp_path_factory.mktemp("cache")) as store:
            total = 0
            for i, n in enumerate(sizes):
                store.write(0, *_batch(n, seed=100 + i))
                total += n
            got = sum(len(y) for _, y in store.batches(0))
            assert got == total


class TestRebatch:
    def _stream(self, sizes, seed=0):
        offset = 0
        for i, n in enumerate(sizes):
            x = np.arange(offset, offset + n, dtype=np.float32).reshape(n, 1)
            y = np.arange(offset, offset + n, dtype=np.int64)
            offset += n
            yield x, y

    def test_exact_chunks(self):
        out = list(rebatch(self._stream([4, 4, 4]), 6))
        assert [len(y) for _, y in out] == [6, 6]

    def test_final_partial_kept(self):
        out = list(rebatch(self._stream([4, 3]), 5))
        assert [len(y) for _, y in out] == [5, 2]

    def test_drop_last(self):
        out = list(rebatch(self._stream([4, 3]), 5, drop_last=True))
        assert [len(y) for _, y in out] == [5]

    def test_order_preserved(self):
        out = list(rebatch(self._stream([3, 5, 2, 7]), 4))
        ys = np.concatenate([y for _, y in out])
        np.testing.assert_array_equal(ys, np.arange(17))

    def test_split_larger_batches(self):
        out = list(rebatch(self._stream([10]), 3))
        assert [len(y) for _, y in out] == [3, 3, 3, 1]

    def test_x_and_y_stay_aligned(self):
        for x, y in rebatch(self._stream([5, 1, 8, 2]), 4):
            np.testing.assert_array_equal(x[:, 0].astype(np.int64), y)

    def test_empty_stream(self):
        assert list(rebatch(iter([]), 4)) == []

    def test_skips_empty_batches(self):
        def stream():
            yield np.zeros((0, 1), dtype=np.float32), np.zeros(0, dtype=np.int64)
            yield np.ones((2, 1), dtype=np.float32), np.zeros(2, dtype=np.int64)

        out = list(rebatch(stream(), 2))
        assert [len(y) for _, y in out] == [2]

    def test_bad_batch_size(self):
        with pytest.raises(ConfigError):
            list(rebatch(self._stream([2]), 0))

    def test_mismatched_stream_raises(self):
        def bad():
            yield np.zeros((3, 1), dtype=np.float32), np.zeros(2, dtype=np.int64)

        with pytest.raises(ShapeError):
            list(rebatch(bad(), 2))

    @settings(deadline=None, max_examples=60)
    @given(
        sizes=st.lists(st.integers(1, 13), min_size=0, max_size=12),
        target=st.integers(1, 17),
    )
    def test_conservation_property(self, sizes, target):
        """Every sample appears exactly once, in order; all chunks except the
        last have exactly the target size."""
        out = list(rebatch(self._stream(sizes), target))
        total = sum(sizes)
        ys = np.concatenate([y for _, y in out]) if out else np.zeros(0)
        np.testing.assert_array_equal(ys, np.arange(total))
        if out:
            assert all(len(y) == target for _, y in out[:-1])
            assert 1 <= len(out[-1][1]) <= target
