"""The record-at-a-time production loop, kept as the test oracle.

``WorkloadGenerator`` produces a run of records per clock event (see its
module docstring). This is the loop it replaced, word for word: draw one
record, ``Producer.send`` it, ``clock.advance`` one interarrival, repeat.
A generator driven through :class:`ReferenceLoop` must leave exactly the
log, clock and counters its own ``produce_for`` / ``produce_batch`` leave.
"""

from repro.metrics.latency import CREATED_AT_HEADER
from repro.workloads.conversations import EVENT_TYPES, ConversationGenerator


class ReferenceLoop:
    """Drives ``generator``'s rng, producer and counters one record at a
    time."""

    def __init__(self, generator) -> None:
        self.generator = generator

    def produce_batch(self, count: int, flush: bool = True) -> None:
        generator = self.generator
        for _ in range(count):
            self.produce_one()
            generator.cluster.clock.advance(generator.interarrival_ms)
        if flush:
            generator.producer.flush()

    def produce_for(self, duration_ms: float, flush: bool = True) -> int:
        generator = self.generator
        deadline = generator.cluster.clock.now + duration_ms
        produced = 0
        while generator.cluster.clock.now < deadline:
            self.produce_one()
            produced += 1
            generator.cluster.clock.advance(generator.interarrival_ms)
        if flush:
            generator.producer.flush()
        return produced

    def produce_one(self) -> None:
        generator = self.generator
        if isinstance(generator, ConversationGenerator):
            self._conversation_one()
        else:
            now = generator.cluster.clock.now
            event_time = max(0.0, now - generator.lateness.sample(generator.rng))
            generator.producer.send(
                generator.topic,
                key=f"{generator.key_prefix}-"
                    f"{generator.rng.randrange(generator.key_space)}",
                value=generator.value_fn(generator.rng, generator._sequence),
                timestamp=event_time,
                headers={CREATED_AT_HEADER: now},
            )
        generator._sequence += 1
        generator.records_produced += 1

    def _conversation_one(self) -> None:
        generator = self.generator
        rng = generator.rng
        now = generator.cluster.clock.now
        conversation = f"{generator.key_prefix}-{rng.randrange(generator.key_space)}"
        seq = generator._seq_in_conversation.get(conversation, 0)
        generator._seq_in_conversation[conversation] = seq + 1
        if rng.random() < generator.close_fraction:
            event_type = "conversation_closed"
        else:
            event_type = rng.choice(EVENT_TYPES)
        amount = rng.choice([120, 480, 960]) if event_type == "payment" else 0
        event_time = max(0.0, now - generator.lateness.sample(rng))
        generator.producer.send(
            generator.topic,
            key=conversation,
            value={
                "conversation": conversation,
                "seq": seq,
                "type": event_type,
                "amount": amount,
            },
            timestamp=event_time,
            headers={CREATED_AT_HEADER: now},
        )
