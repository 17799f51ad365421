"""Configuration validation tests."""

import dataclasses

import pytest

from repro.config import (
    AT_LEAST_ONCE,
    EXACTLY_ONCE,
    BrokerConfig,
    ConsumerConfig,
    ProducerConfig,
    StreamsConfig,
)
from repro.errors import InvalidConfigError


class TestBrokerConfig:
    def test_defaults_valid(self):
        BrokerConfig().validate()

    def test_min_isr_above_rf_rejected(self):
        with pytest.raises(InvalidConfigError):
            BrokerConfig(replication_factor=2, min_insync_replicas=3).validate()

    def test_zero_rf_rejected(self):
        with pytest.raises(InvalidConfigError):
            BrokerConfig(replication_factor=0).validate()


class TestProducerConfig:
    def test_defaults_valid(self):
        ProducerConfig().validate()

    def test_txn_requires_idempotence(self):
        with pytest.raises(InvalidConfigError):
            ProducerConfig(transactional_id="t", enable_idempotence=False).validate()

    def test_bad_acks_rejected(self):
        with pytest.raises(InvalidConfigError):
            ProducerConfig(acks="0").validate()

    def test_negative_retries_rejected(self):
        with pytest.raises(InvalidConfigError):
            ProducerConfig(retries=-1).validate()


class TestConsumerConfig:
    def test_defaults_valid(self):
        ConsumerConfig().validate()

    def test_bad_isolation_rejected(self):
        with pytest.raises(InvalidConfigError):
            ConsumerConfig(isolation_level="dirty").validate()

    def test_bad_reset_rejected(self):
        with pytest.raises(InvalidConfigError):
            ConsumerConfig(auto_offset_reset="middle").validate()


class TestStreamsConfig:
    def test_defaults_valid(self):
        StreamsConfig().validate()

    def test_eos_flag(self):
        assert StreamsConfig(processing_guarantee=EXACTLY_ONCE).eos_enabled
        assert not StreamsConfig(processing_guarantee=AT_LEAST_ONCE).eos_enabled

    def test_bad_guarantee_rejected(self):
        with pytest.raises(InvalidConfigError):
            StreamsConfig(processing_guarantee="at_most_once").validate()

    def test_nonpositive_commit_interval_rejected(self):
        with pytest.raises(InvalidConfigError):
            StreamsConfig(commit_interval_ms=0).validate()

    def test_empty_application_id_rejected(self):
        with pytest.raises(InvalidConfigError):
            StreamsConfig(application_id="").validate()


def test_field_count_is_pinned():
    """Every independently settable value doubles what tests and benches
    have to cover: a new knob has to show up as a diff of this number."""
    counts = {
        cls.__name__: len(dataclasses.fields(cls))
        for cls in (BrokerConfig, ProducerConfig, ConsumerConfig, StreamsConfig)
    }
    assert counts == {
        "BrokerConfig": 2,
        "ProducerConfig": 11,
        "ConsumerConfig": 10,
        "StreamsConfig": 14,
    }
    assert sum(counts.values()) == 37
