"""Completion queues: HCA-written rings living in guest memory.

A CQ is the one structure both the guest *and* the hardware touch: the
HCA DMA-writes CQEs and advances the producer index; the application
polls, consuming entries and advancing the consumer index.  Because the
ring physically lives in a guest page (whose frame ``content`` points
back at this object), dom0 can map it read-only and watch the producer
index move — that observation channel is all IBMon gets (paper §III).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.errors import CQOverflowError
from repro.hw.memory import Buffer
from repro.sim.events import PENDING, Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Environment


class WCStatus(enum.Enum):
    """Work-completion status codes (subset)."""

    SUCCESS = "success"
    LOC_PROT_ERR = "local-protection-error"
    REM_ACCESS_ERR = "remote-access-error"
    RNR_RETRY_EXC = "rnr-retry-exceeded"


class WCOpcode(enum.Enum):
    """Completed-operation type as reported in the CQE."""

    SEND = "send"
    RECV = "recv"
    RDMA_WRITE = "rdma-write"
    RECV_RDMA_WITH_IMM = "recv-rdma-with-imm"
    RDMA_READ = "rdma-read"


@dataclass(frozen=True)
class CQE:
    """One completion queue entry."""

    wr_id: int
    qp_num: int
    opcode: WCOpcode
    status: WCStatus
    byte_len: int
    imm_data: Optional[int]
    timestamp_ns: int
    #: Stand-in for the delivered data (see SendWR.payload).
    payload: object = None


class CompletionQueue:
    """Fixed-depth CQE ring with HCA producer / guest consumer indices."""

    def __init__(self, env: "Environment", cqn: int, depth: int, page: Buffer) -> None:
        if depth < 1:
            raise CQOverflowError(f"CQ depth must be >= 1, got {depth}")
        self.env = env
        self.cqn = cqn
        self.depth = depth
        #: The guest page backing this ring (content points back here).
        self.page = page
        self._ring: List[Optional[CQE]] = [None] * depth
        #: Monotonic indices; slot = index % depth.
        self.producer_index = 0
        self.consumer_index = 0
        self._arrival_event: Optional[Event] = None
        #: Lifetime counters (monitoring convenience).
        self.total_completions = 0
        self.total_bytes_completed = 0
        # Make the ring introspectable through the page frame.
        frame = page.address_space.translate(page.gpfn_start)
        frame.content = self

    # -- hardware side -------------------------------------------------------
    def hw_push(self, cqe: CQE) -> None:
        """HCA writes a CQE and advances the producer index."""
        if self.producer_index - self.consumer_index >= self.depth:
            raise CQOverflowError(
                f"CQ {self.cqn}: overflow at depth {self.depth}"
            )
        self._ring[self.producer_index % self.depth] = cqe
        self.producer_index += 1
        self.total_completions += 1
        self.total_bytes_completed += cqe.byte_len
        arrival = self._arrival_event
        if arrival is not None and arrival._value is PENDING:
            arrival.succeed()
            self._arrival_event = None

    # -- guest side -----------------------------------------------------------
    @property
    def pending(self) -> int:
        """Entries produced but not yet consumed."""
        return self.producer_index - self.consumer_index

    def poll(self, max_entries: int = 16) -> List[CQE]:
        """Consume up to ``max_entries`` CQEs (non-blocking).

        Consuming only advances the consumer index — entry contents stay
        in the ring until the producer overwrites the slot, as on real
        hardware.  IBMon depends on this: it reads CQE contents *after*
        the guest has polled them.
        """
        out: List[CQE] = []
        while self.pending > 0 and len(out) < max_entries:
            cqe = self._ring[self.consumer_index % self.depth]
            assert cqe is not None
            out.append(cqe)
            self.consumer_index += 1
        return out

    def arrival_event(self) -> Event:
        """Event that fires when the next CQE lands.

        If entries are already pending the event is pre-triggered, so a
        ``poll_until`` on it costs only one poll check.
        """
        ev = Event(self.env)
        if self.pending > 0:
            ev.succeed()
            return ev
        arrival = self._arrival_event
        if arrival is None or arrival._value is not PENDING:
            arrival = self._arrival_event = Event(self.env)
        # Chain: multiple waiters share the single hardware-facing event.
        arrival.callbacks.append(lambda _e: ev.succeed())
        return ev

    def __repr__(self) -> str:
        return (
            f"<CQ {self.cqn} depth={self.depth} "
            f"prod={self.producer_index} cons={self.consumer_index}>"
        )
