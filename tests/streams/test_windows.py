"""Windows, windowed keys, and window assignment."""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys

import pytest

from repro.streams.windows import TimeWindows, Window, Windowed


class TestWindow:
    def test_half_open_interval(self):
        w = Window(10, 15)
        assert w.contains(10)
        assert w.contains(14.999)
        assert not w.contains(15)
        assert not w.contains(9.999)

    def test_degenerate_window_rejected(self):
        with pytest.raises(ValueError):
            Window(5, 5)

    def test_windowed_key_is_hashable_and_eq(self):
        a = Windowed("k", Window(0, 5))
        b = Windowed("k", Window(0, 5))
        assert a == b
        assert hash(a) == hash(b)
        assert a != Windowed("k", Window(5, 10))


class TestHashedOnce:
    """``Window`` / ``Windowed`` compute their hash where they are built and
    hand it back from ``__hash__``; nothing else about them may show it."""

    KEYS = [
        Windowed("user-1", Window(10.0, 15.0)),
        Windowed(("a", 7), Window(0, 5)),
        Windowed(None, Window(-5.0, 5.0)),
    ]

    def test_twins_built_separately_find_each_other(self):
        for key in self.KEYS:
            twin = Windowed(key.key, Window(key.window.start, key.window.end))
            assert twin is not key and twin == key and hash(twin) == hash(key)
            assert {key: "found"}[twin] == "found"
            assert {key.window: "found"}[twin.window] == "found"
        # int and float bounds are one window, as they were one tuple.
        assert {Window(0, 5): 1}[Window(0.0, 5.0)] == 1
        assert len(set(self.KEYS) | set(self.KEYS)) == len(self.KEYS)

    def test_the_hash_is_the_field_tuples(self):
        """Equal to the hash the dataclass generated before it was cached:
        set and dict layouts holding windowed keys do not move."""
        for key in self.KEYS:
            assert hash(key.window) == hash((key.window.start, key.window.end))
            assert hash(key) == hash((key.key, key.window))

    def test_copies_find_their_twin(self):
        for key in self.KEYS:
            for clone in (copy.copy(key), copy.deepcopy(key),
                          pickle.loads(pickle.dumps(key))):
                assert clone == key and {key: 1}[clone] == 1
                assert {key.window: 1}[clone.window] == 1

    def test_a_pickle_from_a_process_with_another_hash_seed_finds_its_twin(self):
        """A ``str`` hashes differently under another ``PYTHONHASHSEED``: a
        key that carried its cached hash across would be lost in every
        dict here. Pickles rebuild through the constructor."""
        script = (
            "import pickle, sys\n"
            "from repro.streams.windows import Window, Windowed\n"
            "key = Windowed('user-1', Window(10.0, 15.0))\n"
            "sys.stdout.buffer.write(pickle.dumps((key, hash(key))))\n"
        )
        ours = Windowed("user-1", Window(10.0, 15.0))
        theirs = []
        for seed in ("1", "2"):
            out = subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONHASHSEED": seed,
                     "PYTHONPATH": os.pathsep.join(sys.path)},
                capture_output=True, check=True, timeout=60,
            ).stdout
            key, their_hash = pickle.loads(out)
            theirs.append(their_hash)
            assert key == ours and hash(key) == hash(ours)
            assert {ours: "found"}[key] == "found"
        assert theirs[0] != theirs[1], "the seeds did not change str hashing"

    def test_nothing_but_the_hash_is_cached(self):
        key = self.KEYS[0]
        assert repr(key) == "Windowed('user-1', [10.0, 15.0))"
        assert repr(key.window) == "[10.0, 15.0)"
        assert [f.name for f in dataclasses.fields(key)] == ["key", "window"]
        assert [f.name for f in dataclasses.fields(key.window)] == ["start", "end"]
        assert dataclasses.astuple(key) == ("user-1", (10.0, 15.0))
        assert dataclasses.replace(key, key="user-2") == Windowed("user-2", key.window)
        assert {dataclasses.replace(key, key="user-2"): 1}[Windowed("user-2", key.window)]
        # Not a tuple, and not equal to one.
        assert key != ("user-1", key.window) and not isinstance(key, tuple)
        assert key.window != (10.0, 15.0)

    def test_serde_round_trip_finds_its_twin(self):
        """Through bytes and back: the key rebuilt from its fields by
        ``__reduce__`` finds its twin."""
        for key in self.KEYS:
            back = pickle.loads(pickle.dumps(key, protocol=pickle.HIGHEST_PROTOCOL))
            assert back is not key
            assert back == key and {key: 1}[back] == 1
            assert {key.window: 1}[back.window] == 1

    def test_still_immutable_and_still_validated(self):
        key = self.KEYS[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            key.key = "other"
        with pytest.raises(dataclasses.FrozenInstanceError):
            key.window.end = 99.0
        for start, end in ((5, 5), (5, 4), (0.0, -1.0)):
            with pytest.raises(ValueError):
                Window(start, end)


class TestTumblingWindows:
    def test_of_creates_tumbling(self):
        w = TimeWindows.of(5000)
        assert w.size_ms == w.advance_ms == 5000

    def test_assignment_single_window(self):
        w = TimeWindows.of(5000)
        assert w.windows_for(12) == [Window(0, 5000)]
        assert w.windows_for(5000) == [Window(5000, 10000)]
        assert w.windows_for(4999.9) == [Window(0, 5000)]

    def test_figure6_window_assignment(self):
        """Records at ts 12, 16, 14, 23 with 5-unit windows land as the
        paper's Figure 6 shows (scaled units)."""
        w = TimeWindows.of(5)
        assert w.windows_for(12) == [Window(10, 15)]
        assert w.windows_for(16) == [Window(15, 20)]
        assert w.windows_for(14) == [Window(10, 15)]
        assert w.windows_for(23) == [Window(20, 25)]

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            TimeWindows.of(0)

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError):
            TimeWindows.of(10).windows_for(-1)


class TestHoppingWindows:
    def test_overlapping_assignment(self):
        w = TimeWindows.of(10).advance_by(5)
        assert w.windows_for(12) == [Window(5, 15), Window(10, 20)]

    def test_early_timestamps_do_not_produce_negative_windows(self):
        w = TimeWindows.of(10).advance_by(5)
        assert w.windows_for(2) == [Window(0, 10)]

    def test_advance_larger_than_size_rejected(self):
        with pytest.raises(ValueError):
            TimeWindows.of(10).advance_by(20)


class TestGrace:
    def test_grace_setting(self):
        w = TimeWindows.of(5000).grace(10_000)
        assert w.grace_ms == 10_000
        assert w.retention_ms == 15_000

    def test_negative_grace_rejected(self):
        with pytest.raises(ValueError):
            TimeWindows.of(5000).grace(-1)

    def test_default_grace_is_one_day(self):
        assert TimeWindows.of(5000).grace_ms == 24 * 3600 * 1000.0
