"""Operation batches and trace cursors."""

import pytest

from repro.sim.trace import OpBatch, TraceCursor, merge_batches


class TestOpBatch:
    def test_validation_rejects_negative(self):
        with pytest.raises(ValueError):
            OpBatch(reads=-1, writes=0, atomics=0)

    def test_with_return_bounded_by_atomics(self):
        with pytest.raises(ValueError):
            OpBatch(reads=0, writes=0, atomics=2, atomics_with_return=3)

    def test_divergence_bounds(self):
        with pytest.raises(ValueError):
            OpBatch(reads=0, writes=0, atomics=0, divergent_warp_ratio=1.5)

    def test_total_ops(self):
        b = OpBatch(reads=3, writes=2, atomics=5)
        assert b.total_ops == 10

    def test_scaled_rounds_counts(self):
        b = OpBatch(reads=10, writes=4, atomics=7, atomics_with_return=3,
                    compute_cycles=100, threads=64)
        s = b.scaled(0.5)
        assert (s.reads, s.writes, s.atomics) == (5, 2, 4)
        assert s.atomics_with_return == 2
        assert s.compute_cycles == 50

    def test_scaled_rejects_negative_factor(self):
        with pytest.raises(ValueError):
            OpBatch(1, 1, 1).scaled(-0.5)

    def test_frozen(self):
        b = OpBatch(1, 1, 1)
        with pytest.raises(Exception):
            b.reads = 5


class TestMerge:
    def test_merge_sums_counts(self):
        a = OpBatch(reads=1, writes=2, atomics=3, compute_cycles=10, threads=32)
        b = OpBatch(reads=10, writes=20, atomics=30, compute_cycles=5, threads=32)
        m = merge_batches([a, b])
        assert (m.reads, m.writes, m.atomics) == (11, 22, 33)
        assert m.compute_cycles == 15
        assert m.threads == 64

    def test_merge_weights_divergence_by_threads(self):
        a = OpBatch(0, 0, 0, threads=10, divergent_warp_ratio=1.0)
        b = OpBatch(0, 0, 0, threads=30, divergent_warp_ratio=0.0)
        assert merge_batches([a, b]).divergent_warp_ratio == pytest.approx(0.25)

    def test_merge_empty(self):
        m = merge_batches([])
        assert m.total_ops == 0


class TestCursor:
    def _cursor(self):
        return TraceCursor(OpBatch(reads=i, writes=0, atomics=0) for i in range(3))

    def test_iterates_in_order(self):
        cur = self._cursor()
        assert [b.reads for b in cur] == [0, 1, 2]

    def test_next_until_exhausted(self):
        cur = self._cursor()
        seen = []
        while not cur.exhausted:
            seen.append(cur.next().reads)
        assert seen == [0, 1, 2]
        assert cur.next() is None

    def test_rewind_replays(self):
        cur = self._cursor()
        cur.next()
        cur.next()
        cur.rewind()
        assert cur.position == 0
        assert cur.next().reads == 0

    def test_totals_ignores_position(self):
        cur = self._cursor()
        cur.next()
        assert cur.totals().reads == 3

    def test_len(self):
        assert len(self._cursor()) == 3
