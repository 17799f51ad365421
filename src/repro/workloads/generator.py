"""Rate-controlled workload generation with out-of-order lateness.

Every produced record carries a ``created_at`` header (the virtual send
time) so the benchmark harness can compute per-record end-to-end latency
exactly as the paper does. Event timestamps can lag behind send time via a
:class:`LatenessModel`, producing the out-of-order arrivals Section 5's
mechanisms exist to handle.

A generator at ``rate_per_sec`` sends a record every ``interarrival_ms``
of virtual time: send, ``clock.advance(step)``, send, ... Between two clock
events nothing runs but the generator, so nothing can observe one record
before the next is drawn. :meth:`WorkloadGenerator.produce_for` therefore produces in *runs*: the
records whose following ``advance(step)`` fires no timer are drawn in one
pass (:meth:`~WorkloadGenerator._draw`) and handed to the producer as one
chunk (``Producer.send_chunk``). A run ends at the first of

* the clock's next timer deadline (``SimClock.next_deadline``; the advance
  after the run's last record crosses it),
* the slice deadline,
* the producer's ``buffer_room``: a run that could fill a partition's batch
  ends on that record, so the full batch goes out when it always did.

The record stream is the record-at-a-time loop's, bit for bit. A run's
send times are built with ``t += step``, the very additions the per-record
advances make. The clock is moved to the last of them with ``advance_to``,
which fires nothing: every timer is due after the run. The chunk is sent
there, so a full batch's RPC, and any timer it crosses, happens at the
virtual time it did. Then ``advance(step)`` fires what falls due, exactly
as before. The draws consume the rng record by record in the old order, and
``send_chunk`` gives traced records their trace ids in record order.
``tests/workloads/test_generator_runs.py`` holds all of this against the
old loop, kept test-side as the oracle.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from repro.broker.cluster import Cluster
from repro.clients.producer import Producer
from repro.config import ProducerConfig
from repro.metrics.latency import CREATED_AT_HEADER


@dataclass(frozen=True)
class LatenessModel:
    """How far event time lags behind send time.

    A fraction ``late_fraction`` of records is late by an exponential-ish
    delay with mean ``mean_late_ms`` (capped at ``max_late_ms``); the rest
    are on time.
    """

    late_fraction: float = 0.0
    mean_late_ms: float = 0.0
    max_late_ms: float = float("inf")

    def sample(self, rng: random.Random) -> float:
        if self.late_fraction <= 0 or rng.random() >= self.late_fraction:
            return 0.0
        return min(rng.expovariate(1.0 / max(self.mean_late_ms, 1e-9)),
                   self.max_late_ms)


class WorkloadGenerator:
    """Produces keyed records into a topic at a configured rate."""

    def __init__(
        self,
        cluster: Cluster,
        topic: str,
        rate_per_sec: float = 1000.0,
        key_space: int = 100,
        key_prefix: str = "key",
        value_fn: Optional[Callable[[random.Random, int], Any]] = None,
        lateness: Optional[LatenessModel] = None,
        seed: int = 42,
    ) -> None:
        if rate_per_sec <= 0:
            raise ValueError("rate_per_sec must be > 0")
        if key_space < 1:
            raise ValueError("key_space must be >= 1")
        self.cluster = cluster
        self.topic = topic
        self.rate_per_sec = rate_per_sec
        self.key_space = key_space
        self.key_prefix = key_prefix
        self.value_fn = value_fn or (lambda rng, i: i)
        self.lateness = lateness or LatenessModel()
        self.rng = random.Random(seed)
        self.producer = Producer(
            cluster, ProducerConfig(client_id=f"workload-{topic}")
        )
        self.records_produced = 0
        self._sequence = 0
        # The key-string table (a key is drawn as an index into it).
        self._key_strings = [
            f"{key_prefix}-{i}" for i in range(key_space)
        ]

    @property
    def interarrival_ms(self) -> float:
        return 1000.0 / self.rate_per_sec

    def produce_for(self, duration_ms: float, flush: bool = True) -> int:
        """Produce at the configured rate for ``duration_ms`` virtual time.

        Returns the number of records produced.
        """
        produced = self._produce(self.cluster.clock.now + duration_ms, math.inf)
        if flush:
            self.producer.flush()
        return produced

    def _produce(self, deadline: float, count: float) -> int:
        """Send records while the clock is before ``deadline``, at most
        ``count`` of them, one run at a time; returns how many."""
        clock = self.cluster.clock
        produced = 0
        while produced < count and clock.now < deadline:
            produced += self._run(deadline, count - produced)
        return produced

    def _run(self, deadline: float, count: float) -> int:
        """Produce one run (see the module docstring) starting now, of at
        most ``count`` records sent before ``deadline``; returns its length.
        Its first record is due now whatever the timers: a timer due now
        fires in the advance after it, as it always did."""
        clock = self.cluster.clock
        producer = self.producer
        step = self.interarrival_ms
        t = clock.now
        bound = min(deadline, clock.next_deadline())
        times = [t]
        for _ in range(min(count, producer.buffer_room) - 1):
            t += step
            if t >= bound:
                break
            times.append(t)
        n = len(times)
        keys, values, event_times = self._draw(times, self._sequence)
        if n > 1:
            clock.advance_to(times[-1])
        producer.send_chunk(
            self.topic, keys, values, event_times,
            [{CREATED_AT_HEADER: created} for created in times],
        )
        self._sequence += n
        self.records_produced += n
        clock.advance(step)
        return n

    def _draw(
        self, times: List[float], first_sequence: int
    ) -> Tuple[List[Any], List[Any], List[float]]:
        """The keys, values and event times of the records sent at
        ``times``, the first of them number ``first_sequence``.

        The contract of a subclass's override: draw record by record, in
        send order, consuming ``self.rng`` exactly as one record at a time
        would, and read nothing but ``times``, ``first_sequence`` and the
        generator's own state (the clock stands at ``times[0]``). Here a
        record draws its lateness, then its key, then its value.
        """
        rng = self.rng
        getrandbits = rng.getrandbits
        key_space = self.key_space
        bits = key_space.bit_length()
        key_strings = self._key_strings
        value_fn = self.value_fn
        # An on-time record draws no lateness: its event time is
        # max(0.0, created - 0.0).
        sample = self.lateness.sample if self.lateness.late_fraction > 0 else None
        keys: List[Any] = []
        values: List[Any] = []
        event_times: List[float] = []
        for sequence, created in enumerate(times, first_sequence):
            if sample is not None:
                event_times.append(max(0.0, created - sample(rng)))
            # rng.randrange(key_space), unrolled: the same getrandbits
            # draws and rejections, without its two Python frames.
            index = getrandbits(bits)
            while index >= key_space:
                index = getrandbits(bits)
            keys.append(key_strings[index])
            values.append(value_fn(rng, sequence))
        if sample is None:
            event_times = [created if created > 0.0 else 0.0 for created in times]
        return keys, values, event_times

    def produce_for_columnar(self, duration_ms: float, flush: bool = True) -> int:
        """Columnar twin of :meth:`produce_for`: the same record stream
        (key distribution, rate, lateness model, creation stamps), built as
        whole columns and handed to :meth:`Producer.send_chunk` — one
        bulk rng draw for the keys and one clock advance for the whole
        slice, where
        :meth:`produce_for` stops at every timer deadline. (The rng
        consumption differs from the scalar path, so a given seed yields
        different — equally distributed — keys.)
        """
        clock = self.cluster.clock
        now = clock.now
        deadline = now + duration_ms
        step = self.interarrival_ms
        rng = self.rng

        times: list = []
        t = now
        while t < deadline:
            times.append(t)
            t += step
        n = len(times)
        if n == 0:
            if flush:
                self.producer.flush()
            return 0

        keys = rng.choices(self._key_strings, k=n)
        if self.lateness.late_fraction > 0:
            sample = self.lateness.sample
            event_times = []
            for created in times:
                late = sample(rng)
                event_times.append(created - late if late < created else 0.0)
        else:
            event_times = times
        value_fn = self.value_fn
        sequence = self._sequence
        values = [value_fn(rng, sequence + i) for i in range(n)]
        headers = [{CREATED_AT_HEADER: created} for created in times]

        self._sequence = sequence + n
        self.records_produced += n
        self.producer.send_chunk(self.topic, keys, values, event_times, headers)
        clock.advance(t - now)
        if flush:
            self.producer.flush()
        return n
