"""StageLatencyTracker: telescoping per-stage latency decomposition."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.log.record import Record
from repro.metrics.latency import CREATED_AT_HEADER
from repro.metrics.registry import Histogram
from repro.obs.stages import (
    EMITTED_AT_HEADER,
    FETCHED_AT_HEADER,
    PROCESSED_AT_HEADER,
    STAGES,
    StageLatencyTracker,
)


def stamped_record(created=0.0, fetched=4.0, processed=5.0, emitted=6.0):
    return Record(
        key="k",
        value=1,
        headers={
            CREATED_AT_HEADER: created,
            FETCHED_AT_HEADER: fetched,
            PROCESSED_AT_HEADER: processed,
            EMITTED_AT_HEADER: emitted,
        },
    )


class ReferenceTracker:
    """The stage decomposition as defined, into plain lists: the end-to-end
    latency when the record carries ``created_at``, and each stage's delta
    when it carries all three stage stamps too."""

    def __init__(self):
        self.e2e = []
        self.stages = {stage: [] for stage in STAGES}

    def record_output(self, record, received_at_ms):
        headers = record.headers
        if headers.get(CREATED_AT_HEADER) is None:
            return None
        stamps = [headers[CREATED_AT_HEADER]] + [
            headers.get(name)
            for name in (FETCHED_AT_HEADER, PROCESSED_AT_HEADER, EMITTED_AT_HEADER)
        ] + [received_at_ms]
        self.e2e.append(received_at_ms - stamps[0])
        if None not in stamps:
            for stage, start, end in zip(STAGES, stamps, stamps[1:]):
                self.stages[stage].append(end - start)
        return received_at_ms - stamps[0]

    def summary(self):
        """Stats of histograms built afresh from the lists (no cached view)."""
        histograms = []
        for values in [self.e2e] + [self.stages[stage] for stage in STAGES]:
            histograms.append(Histogram("reference"))
            histograms[-1].observe_many(values)
        return [stats(h) for h in histograms]


def stats(h):
    return (h.count, h.mean(), h.max(),
            [h.percentile(p) for p in (0, 37, 50, 99, 100)])


def summary(tracker):
    return [stats(tracker.histogram)] + [
        stats(tracker.stage_histograms[stage]) for stage in STAGES
    ]


stamp = st.floats(min_value=0.0, max_value=100.0)


@st.composite
def records(draw):
    headers = {}
    for name in (CREATED_AT_HEADER, FETCHED_AT_HEADER, PROCESSED_AT_HEADER,
                 EMITTED_AT_HEADER):
        if draw(st.integers(0, 4)):       # mostly present
            headers[name] = draw(stamp)
    if draw(st.booleans()):
        headers["other"] = "x"
    return Record(key="k", value=1, headers=headers), draw(stamp)


class TestStageLatencyTracker:
    def test_stages_telescope_to_e2e(self):
        tracker = StageLatencyTracker()
        latency = tracker.record_output(stamped_record(), received_at_ms=10.0)
        assert latency == 10.0
        assert tracker.breakdown() == {
            "produce": 4.0, "queue": 1.0, "process": 1.0, "commit": 4.0
        }
        assert tracker.stage_sum_ms() == pytest.approx(tracker.mean_ms())

    def test_breakdown_order_matches_pipeline(self):
        tracker = StageLatencyTracker()
        tracker.record_output(stamped_record(), 10.0)
        assert tuple(tracker.breakdown()) == STAGES

    def test_unstamped_record_counts_only_e2e(self):
        tracker = StageLatencyTracker()
        record = Record(key="k", value=1, headers={CREATED_AT_HEADER: 0.0})
        assert tracker.record_output(record, 7.0) == 7.0
        assert tracker.count == 1
        assert tracker.stamped_count == 0
        assert tracker.breakdown() == {}
        assert tracker.stage_sum_ms() == 0.0

    def test_record_without_created_at_ignored(self):
        tracker = StageLatencyTracker()
        assert tracker.record_output(Record(key="k", value=1), 7.0) is None
        assert tracker.count == 0 and tracker.stamped_count == 0

    def test_mixed_population(self):
        tracker = StageLatencyTracker()
        tracker.record_output(stamped_record(), 10.0)
        tracker.record_output(
            Record(key="k", value=1, headers={CREATED_AT_HEADER: 0.0}), 20.0
        )
        assert tracker.count == 2 and tracker.stamped_count == 1

    @given(
        st.lists(records(), max_size=40),
        st.lists(st.integers(0, 40), max_size=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_the_stage_by_stage_reference(self, population, reads):
        """Stamped, partly stamped, unstamped and ``created_at``-less
        records, with percentile reads between them: every return value and
        every histogram equal the definition, applied a record at a time."""
        tracker = StageLatencyTracker()
        reference = ReferenceTracker()
        for number, (record, received) in enumerate(population):
            assert tracker.record_output(record, received) == (
                reference.record_output(record, received)
            )
            if number in reads:
                assert summary(tracker) == reference.summary()
        assert summary(tracker) == reference.summary()

    def test_stage_sum_over_many_records(self):
        tracker = StageLatencyTracker()
        for i in range(50):
            base = float(i)
            tracker.record_output(
                stamped_record(
                    created=base,
                    fetched=base + 1.0 + i % 3,
                    processed=base + 2.0 + i % 3,
                    emitted=base + 2.5 + i % 3,
                ),
                received_at_ms=base + 10.0 + i % 5,
            )
        # Per-record telescoping means the means telescope too.
        assert tracker.stage_sum_ms() == pytest.approx(tracker.mean_ms())
