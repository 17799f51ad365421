"""Configuration dataclasses for brokers, clients, and streams.

Field names follow the Kafka configuration keys they model (snake_cased),
so users of the real system can map them directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import InvalidConfigError

# Processing guarantees (StreamsConfig.processing_guarantee).
# EXACTLY_ONCE uses one transactional producer per instance thread that
# groups all its tasks into one ongoing transaction (the Kafka 2.6 behaviour
# Section 6.1 highlights: coordination overhead scales with threads, not
# partitions). EXACTLY_ONCE_V1 is the original design with one transactional
# producer per task.
AT_LEAST_ONCE = "at_least_once"
EXACTLY_ONCE = "exactly_once"
EXACTLY_ONCE_V1 = "exactly_once_v1"

# Group rebalance protocols (StreamsConfig.rebalance_protocol /
# ConsumerConfig.rebalance_protocol). EAGER is the classic stop-the-world
# protocol: every membership change revokes *all* partitions from *all*
# members, which commit, close, and re-open every task. COOPERATIVE is the
# KIP-429 incremental protocol: a rebalance first hands each member the
# intersection of its old and new assignment; partitions that must move are
# granted to their new owner only in a follow-up generation, after the old
# owner has committed and released them.
EAGER = "eager"
COOPERATIVE = "cooperative"

# Consumer isolation levels. READ_SPECULATIVE is this repo's
# implementation of the paper's future-work idea (Section 8): it returns
# records of *open* transactions (no LSO gating) so downstream processing
# can start early, but still filters records of aborted transactions so a
# rolled-back speculation never re-reads poisoned data.
READ_UNCOMMITTED = "read_uncommitted"
READ_COMMITTED = "read_committed"
READ_SPECULATIVE = "read_speculative"


@dataclass
class BrokerConfig:
    """Per-cluster broker settings."""

    replication_factor: int = 3
    min_insync_replicas: int = 2

    def validate(self) -> None:
        if self.replication_factor < 1:
            raise InvalidConfigError("replication_factor must be >= 1")
        if not 1 <= self.min_insync_replicas <= self.replication_factor:
            raise InvalidConfigError(
                "min_insync_replicas must be in [1, replication_factor]"
            )


@dataclass
class ProducerConfig:
    """Producer client settings."""

    client_id: str = "producer"
    enable_idempotence: bool = True
    transactional_id: Optional[str] = None
    acks: str = "all"                 # "all" or "1"
    # As in Kafka ≥ 2.1: retries is effectively unbounded and the *time*
    # budget below (delivery_timeout_ms) is what gives up on a send. A
    # sustained fault — gray broker, severed link, ISR below min — is
    # ridden out with exponential backoff until the path heals or the
    # delivery deadline passes, whichever comes first.
    retries: int = 2**31 - 1
    delivery_timeout_ms: float = 120_000.0
    batch_max_records: int = 500
    transaction_timeout_ms: float = 60_000.0
    # How long a blocking call (e.g. CONCURRENT_TRANSACTIONS backoff in
    # add_partitions_to_txn) may wait before MaxBlockTimeoutError, and the
    # exponential backoff bounds used while waiting (virtual milliseconds).
    max_block_ms: float = 60_000.0
    retry_backoff_ms: float = 0.5
    retry_backoff_max_ms: float = 50.0

    def validate(self) -> None:
        if self.transactional_id is not None and not self.enable_idempotence:
            raise InvalidConfigError(
                "transactional producers require enable_idempotence=True"
            )
        if self.acks not in ("all", "1"):
            raise InvalidConfigError(f"acks must be 'all' or '1', got {self.acks!r}")
        if self.retries < 0:
            raise InvalidConfigError("retries must be >= 0")
        if self.delivery_timeout_ms <= 0:
            raise InvalidConfigError("delivery_timeout_ms must be > 0")
        if self.batch_max_records < 1:
            raise InvalidConfigError("batch_max_records must be >= 1")
        if self.max_block_ms <= 0:
            raise InvalidConfigError("max_block_ms must be > 0")
        if not 0 < self.retry_backoff_ms <= self.retry_backoff_max_ms:
            raise InvalidConfigError(
                "retry_backoff_ms must be in (0, retry_backoff_max_ms]"
            )


@dataclass
class ConsumerConfig:
    """Consumer client settings."""

    client_id: str = "consumer"
    group_id: Optional[str] = None
    isolation_level: str = READ_UNCOMMITTED
    auto_offset_reset: str = "earliest"   # "earliest" | "latest" | "none"
    session_timeout_ms: float = 10_000.0
    # Protocol this member offers at join_group. The group coordinator
    # negotiates down to EAGER unless *every* member offers COOPERATIVE.
    rebalance_protocol: str = EAGER
    # Coordinator RPCs (offset commits): retriable failures are retried
    # with exponential backoff until default_api_timeout_ms elapses.
    retry_backoff_ms: float = 0.5
    retry_backoff_max_ms: float = 50.0
    default_api_timeout_ms: float = 60_000.0
    # Gray-failure hedging: keep a per-broker latency EWMA over fetch
    # round trips and, while a leader is demoted as gray, hedge fetches
    # to another in-sync replica (KIP-392-style follower read). Off by
    # default — steady-state fetch routing is leader-only.
    hedged_fetch: bool = False

    def validate(self) -> None:
        if self.isolation_level not in (
            READ_UNCOMMITTED,
            READ_COMMITTED,
            READ_SPECULATIVE,
        ):
            raise InvalidConfigError(
                f"unknown isolation level: {self.isolation_level!r}"
            )
        if self.auto_offset_reset not in ("earliest", "latest", "none"):
            raise InvalidConfigError(
                f"unknown auto_offset_reset: {self.auto_offset_reset!r}"
            )
        if self.rebalance_protocol not in (EAGER, COOPERATIVE):
            raise InvalidConfigError(
                f"unknown rebalance_protocol: {self.rebalance_protocol!r}"
            )
        if not 0 < self.retry_backoff_ms <= self.retry_backoff_max_ms:
            raise InvalidConfigError(
                "retry_backoff_ms must be in (0, retry_backoff_max_ms]"
            )
        if self.default_api_timeout_ms <= 0:
            raise InvalidConfigError("default_api_timeout_ms must be > 0")


@dataclass
class StreamsConfig:
    """Kafka Streams application settings.

    ``commit_interval_ms`` is the transaction commit interval in EOS mode
    (the knob on the x-axis of Figure 5.b); ``processing_guarantee``
    switches between at-least-once and exactly-once with a single value,
    as the paper describes in Section 4.3.

    How a task executes is not a setting: every task processes column
    chunks, and an operator defined only per record is walked through
    them (``Processor.process_batch``).
    """

    application_id: str = "streams-app"
    processing_guarantee: str = AT_LEAST_ONCE
    commit_interval_ms: float = 100.0
    transaction_timeout_ms: float = 60_000.0
    # Group-membership session timeout for the instances' consumers: a
    # silently crashed instance is evicted (and its tasks migrated) when
    # its session timer expires without a heartbeat.
    session_timeout_ms: float = 10_000.0
    # >0 keeps warm shadow copies of stateful tasks' stores on non-owner
    # instances, replayed continuously from the changelogs, so task
    # migration restores incrementally instead of from scratch.
    num_standby_replicas: int = 0
    # The paper's future-work optimization (Section 8): process upstream
    # data *before* its transaction commits (read_speculative sources) and
    # gate this instance's own commit on the upstream outcome, rolling the
    # speculation back if the upstream transaction aborts. Requires
    # processing_guarantee=EXACTLY_ONCE. Commit dependencies are tracked
    # per fetched batch.
    speculative: bool = False
    # KIP-429: "cooperative" rebalances incrementally — retained tasks keep
    # processing while moved partitions are handed over in a follow-up
    # generation. "eager" is the classic revoke-everything protocol.
    rebalance_protocol: str = EAGER
    # KIP-441: with the cooperative protocol, a stateful task only moves to
    # an instance whose changelog lag (end offset minus standby position) is
    # at most this many records. A laggier destination first gets a warmup
    # standby, and a probing rebalance completes the migration once the
    # warmup has caught up.
    acceptable_recovery_lag: int = 10_000
    # Virtual-time interval between probing rebalances while any warmup
    # standby is still catching up.
    probing_rebalance_interval_ms: float = 1_000.0
    # Restore throttling: >0 caps how many changelog records one instance
    # replays per poll cycle, spread across its restoring tasks
    # (smallest-lag-first), so a mass restore after instance loss cannot
    # starve live tasks on the same instance. 0 restores unthrottled at
    # task (re)creation, blocking that poll — the classic behaviour.
    restore_max_records_per_poll: int = 0
    # Graceful degradation under sustained coordinator loss: when a
    # commit exhausts its blocking budget (MaxBlockTimeoutError from the
    # producer after its max_block_ms, or a retriable coordinator error
    # that outlived the consumer's retry deadline), the instance pauses
    # for a bounded, exponentially growing window instead of retrying
    # unboundedly; shed polls are accounted in streams.degraded_* metrics.
    degraded_pause_ms: float = 50.0
    degraded_pause_max_ms: float = 2_000.0
    # Gray-failure hardening for the instances' consumers: track per-broker
    # fetch latency and hedge fetches to another in-sync replica while a
    # broker is demoted (see repro.clients.gray). Only observable when the
    # network charges latency.
    hedged_fetch: bool = False

    def validate(self) -> None:
        if self.processing_guarantee not in (
            AT_LEAST_ONCE,
            EXACTLY_ONCE,
            EXACTLY_ONCE_V1,
        ):
            raise InvalidConfigError(
                f"unknown processing_guarantee: {self.processing_guarantee!r}"
            )
        if self.commit_interval_ms <= 0:
            raise InvalidConfigError("commit_interval_ms must be > 0")
        if not self.application_id:
            raise InvalidConfigError("application_id must be non-empty")
        if self.num_standby_replicas < 0:
            raise InvalidConfigError("num_standby_replicas must be >= 0")
        if self.speculative and self.processing_guarantee != EXACTLY_ONCE:
            raise InvalidConfigError(
                "speculative processing requires processing_guarantee="
                "exactly_once (per-thread transactions)"
            )
        if self.rebalance_protocol not in (EAGER, COOPERATIVE):
            raise InvalidConfigError(
                f"unknown rebalance_protocol: {self.rebalance_protocol!r}"
            )
        if self.acceptable_recovery_lag < 0:
            raise InvalidConfigError("acceptable_recovery_lag must be >= 0")
        if self.probing_rebalance_interval_ms <= 0:
            raise InvalidConfigError("probing_rebalance_interval_ms must be > 0")
        if self.restore_max_records_per_poll < 0:
            raise InvalidConfigError("restore_max_records_per_poll must be >= 0")
        if not 0 < self.degraded_pause_ms <= self.degraded_pause_max_ms:
            raise InvalidConfigError(
                "degraded_pause_ms must be in (0, degraded_pause_max_ms]"
            )

    @property
    def eos_enabled(self) -> bool:
        return self.processing_guarantee in (EXACTLY_ONCE, EXACTLY_ONCE_V1)

    @property
    def eos_per_task_producer(self) -> bool:
        return self.processing_guarantee == EXACTLY_ONCE_V1
