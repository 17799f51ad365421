"""Client-side APIs: producer (idempotent/transactional) and consumer."""

from repro.clients.producer import Producer
from repro.clients.consumer import Consumer, ConsumerRecord

__all__ = ["Producer", "Consumer", "ConsumerRecord"]
