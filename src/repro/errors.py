"""Exception hierarchy for the repro Kafka/Streams stack.

Mirrors the split the real Kafka clients make between *retriable* errors
(transient: the operation may succeed if retried, e.g. a request timeout)
and *fatal* errors (the client instance must not continue, e.g. a fenced
transactional producer).
"""

from __future__ import annotations


class KafkaError(Exception):
    """Base class for every error raised by the broker or the clients."""

    retriable = False


class RetriableError(KafkaError):
    """Transient failure; the caller may retry the same operation."""

    retriable = True


class RequestTimeoutError(RetriableError):
    """An RPC timed out. The operation may or may not have been applied."""


class NotLeaderError(RetriableError):
    """The addressed broker is not (or no longer) the partition leader."""


class BrokerUnavailableError(RetriableError):
    """The addressed broker is down."""


class NotEnoughReplicasError(RetriableError):
    """Fewer in-sync replicas than required to accept the write."""


class CoordinatorNotAvailableError(RetriableError):
    """The group or transaction coordinator is not currently available."""


class UnknownTopicOrPartitionError(KafkaError):
    """The topic or partition does not exist."""


class TopicAlreadyExistsError(KafkaError):
    """Attempted to create a topic that already exists."""


class OffsetOutOfRangeError(KafkaError):
    """A fetch or seek addressed an offset outside the log's range."""


class InvalidConfigError(KafkaError):
    """A configuration value is out of its legal range."""


class AuthorizationError(KafkaError):
    """The principal is not allowed to perform the operation."""


# --- idempotence / transactions -------------------------------------------


class DuplicateSequenceError(KafkaError):
    """The batch was already appended (same producer id + sequence).

    Not really an *error* for the producer: it treats this as a successful
    (deduplicated) append. Raised internally by the log.
    """


class OutOfOrderSequenceError(KafkaError):
    """A producer batch skipped sequence numbers; previous data was lost."""


class ProducerFencedError(KafkaError):
    """Another producer with the same transactional id and a newer epoch
    has registered; this producer is a zombie and must close."""


class InvalidProducerEpochError(ProducerFencedError):
    """The producer epoch is stale for this partition."""


class InvalidTxnStateError(KafkaError):
    """The transaction is not in a state that allows the operation."""


class TransactionAbortedError(KafkaError):
    """The ongoing transaction was aborted (e.g. by timeout) and the
    producer must start a new one."""


class ConcurrentTransactionsError(RetriableError):
    """The previous transaction with this id has not finished completing."""


class MaxBlockTimeoutError(KafkaError):
    """A blocking producer call exceeded ``max_block_ms`` (e.g. waiting out
    CONCURRENT_TRANSACTIONS backoff while the previous transaction's
    markers land)."""


# --- consumer groups --------------------------------------------------------


class RebalanceInProgressError(RetriableError):
    """The consumer group is rebalancing; rejoin before continuing."""


class IllegalGenerationError(KafkaError):
    """The member's generation id is stale; it was kicked from the group."""


class UnknownMemberError(KafkaError):
    """The member id is not part of the group."""


class CommitFailedError(KafkaError):
    """An offset commit was rejected (stale generation / fenced member)."""


class UnstableOffsetCommitError(RetriableError):
    """The group's committed offsets are not final: a transaction on its
    offsets partition is still open (KIP-447)."""


# --- streams ----------------------------------------------------------------


class StreamsError(Exception):
    """Base class for errors raised by the streams library."""


class TopologyError(StreamsError):
    """The topology definition is invalid."""


class TaskMigratedError(StreamsError):
    """The task was migrated to another instance (producer got fenced);
    the losing instance must drop the task and rejoin."""


class StateStoreError(StreamsError):
    """A state store operation failed."""


# --- interactive queries ----------------------------------------------------


class QueryError(StreamsError):
    """Base class for interactive-query failures."""

    retriable = False


class NotOwnedError(QueryError):
    """The addressed instance does not (or no longer) host the task the
    query needs — e.g. it is mid-migration during a cooperative rebalance.
    Retriable: ``hint`` carries fresh routing metadata so the caller can
    re-route instead of blocking on the rebalance."""

    retriable = True

    def __init__(self, message: str, hint=None) -> None:
        super().__init__(message)
        self.hint = hint


class StaleEpochError(QueryError):
    """The query was routed with a stale routing epoch (the group has
    rebalanced since the metadata was cached). Retriable after a metadata
    refresh — the same re-route idiom the clients use for stale
    leadership caches. ``epoch`` is the coordinator's current epoch."""

    retriable = True

    def __init__(self, message: str, epoch: int = -1) -> None:
        super().__init__(message)
        self.epoch = epoch


class StaleStoreError(QueryError):
    """A bounded-staleness read found every eligible replica further
    behind the committed changelog than the caller's ``max_staleness``
    bound allows. ``staleness`` is the best (smallest) lag observed."""

    retriable = True

    def __init__(self, message: str, staleness: float = float("inf")) -> None:
        super().__init__(message)
        self.staleness = staleness


class QueryUnavailableError(QueryError):
    """The router exhausted its capped retry budget without finding a
    servable replica — the availability failure the IQ benchmarks count."""

    retriable = False

