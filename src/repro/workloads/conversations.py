"""Conversation events — a synthetic stand-in for Expedia's Conversational
Platform traffic (Section 6.2): strictly ordered dialogue events per
conversation, at the platform's modest steady rate.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.broker.cluster import Cluster
from repro.workloads.generator import LatenessModel, WorkloadGenerator

EVENT_TYPES = [
    "customer_message",
    "agent_message",
    "booking_request",
    "cancellation_request",
    "payment",
]


class ConversationGenerator(WorkloadGenerator):
    """Conversation events keyed by conversation id.

    Keying by conversation keeps each dialogue strictly ordered within one
    partition — the ordering contract CP relies on."""

    def __init__(
        self,
        cluster: Cluster,
        topic: str = "conversation-events",
        rate_per_sec: float = 14.0,     # the paper's stable per-app average
        conversations: int = 50,
        close_fraction: float = 0.05,
        lateness: Optional[LatenessModel] = None,
        seed: int = 42,
    ) -> None:
        super().__init__(
            cluster,
            topic,
            rate_per_sec=rate_per_sec,
            key_space=conversations,
            key_prefix="conv",
            lateness=lateness,
            seed=seed,
        )
        self.close_fraction = close_fraction
        self._seq_in_conversation: dict = {}

    def _draw(
        self, times: List[float], first_sequence: int
    ) -> Tuple[List[Any], List[Any], List[float]]:
        """Per record: the conversation, whether it closes (else its event
        type), a payment's amount, then the lateness."""
        rng = self.rng
        keys: List[Any] = []
        values: List[Any] = []
        event_times: List[float] = []
        for created in times:
            conversation = self._key_strings[rng.randrange(self.key_space)]
            seq = self._seq_in_conversation.get(conversation, 0)
            self._seq_in_conversation[conversation] = seq + 1
            if rng.random() < self.close_fraction:
                event_type = "conversation_closed"
            else:
                event_type = rng.choice(EVENT_TYPES)
            amount = rng.choice([120, 480, 960]) if event_type == "payment" else 0
            keys.append(conversation)
            values.append({
                "conversation": conversation,
                "seq": seq,
                "type": event_type,
                "amount": amount,
            })
            event_times.append(max(0.0, created - self.lateness.sample(rng)))
        return keys, values, event_times
