"""Client-side APIs: producer (idempotent/transactional), consumer, admin."""

from repro.clients.producer import Producer
from repro.clients.consumer import Consumer, ConsumerRecord
from repro.clients.admin import AdminClient

__all__ = ["Producer", "Consumer", "ConsumerRecord", "AdminClient"]
