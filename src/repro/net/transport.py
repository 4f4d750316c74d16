"""Channel semantics: UDP datagrams and TCP streams.

The paper's etcd baseline carries *all* Raft traffic over TCP; Dynatune
moves heartbeats to UDP so losses are visible to the estimator instead of
being masked by retransmission (§III-E).  Both behaviours matter for the
evaluation:

* **UDP** — packets can be dropped (the loss process decides), reordered
  (independent per-packet jitter) and duplicated.  This is what exercises
  Dynatune's ids-list dedup/ordering logic and the loss-rate estimator.
* **TCP** — every segment is eventually delivered, in FIFO order per
  directed pair.  A loss costs one retransmission timeout (RTO), and FIFO
  ordering converts that into *head-of-line blocking*: every message behind
  the lost one stalls too.  This is exactly why TCP-heartbeat Raft suffers
  correlated heartbeat gaps under loss (§II-C2) — the behaviour emerges here
  rather than being scripted.

The RTO model is deliberately minimal but shaped like the kernel's:
``RTO = max(rto_min, 2 × path RTT)`` with exponential backoff per retry and
Linux's default ``rto_min`` of 200 ms.

Each semantics has exactly one implementation, on the per-message hot
path: the datagram path lives in :meth:`repro.net.network.Network.transmit`
and the stream path in :meth:`TcpChannelState.send`, which that method
calls.  Neither allocates per message.
"""

from __future__ import annotations

from repro.net.link import Link

__all__ = ["CHANNEL_UDP", "CHANNEL_TCP", "TcpChannelState"]

CHANNEL_UDP = "udp"
CHANNEL_TCP = "tcp"

#: Linux default minimum retransmission timeout (ms).
RTO_MIN_MS = 200.0
#: Give-up bound on retransmissions per segment.  In practice unreachable for
#: the loss rates in the paper (<= 50 %); it guards the simulator against a
#: schedule that sets loss = 1.0 on a TCP link.
MAX_TCP_ATTEMPTS = 30


class TcpChannelState:
    """Per-directed-pair TCP stream state: FIFO horizon and RTT estimate.

    One instance exists per ``(src, dst)`` pair (per direction), matching
    one TCP connection in etcd's peer transport.
    """

    __slots__ = ("last_delivery_ms", "srtt_ms")

    def __init__(self) -> None:
        #: Latest delivery time already promised on this stream; later
        #: segments may not be delivered before it (FIFO).
        self.last_delivery_ms = 0.0
        #: Smoothed RTT estimate; seeded lazily from the link's nominal RTT.
        self.srtt_ms: float | None = None

    def send(self, link: Link, now_ms: float) -> float:
        """Push one segment through ``link`` at ``now_ms``; return its delay.

        Reliable-stream semantics: the segment always arrives, loss becomes
        delay.  It is (re)transmitted until the loss process lets it
        through; each failed attempt costs one RTO
        (``max(RTO_MIN_MS, 2 × RTT)``, RTT the smoothed estimate once there
        is one, else the link's nominal RTT) with exponential backoff, up
        to ``MAX_TCP_ATTEMPTS`` retries.  The one-way delay is drawn after
        the drops.  The RTT estimate then takes one RFC 6298 EWMA step
        (alpha = 1/8) toward the link's nominal RTT, and the delivery time
        is clamped to the stream's FIFO horizon (head-of-line blocking).
        Retries are counted in ``link.stats.retransmits``.

        The draw order (drops, then the delay) fixes the per-link RNG
        stream consumption, and the caller schedules delivery at
        ``now_ms + delay``: both are part of seeded reproducibility.
        """
        rng = link.rng
        should_drop = link.should_drop
        rtt = link.rtt_ms
        srtt = self.srtt_ms
        rto = max(RTO_MIN_MS, 2.0 * (srtt if srtt is not None else rtt))
        waited = 0.0
        retransmits = 0
        while should_drop(rng):
            waited += rto * (2.0**retransmits)
            retransmits += 1
            if retransmits >= MAX_TCP_ATTEMPTS:
                break
        link.stats.retransmits += retransmits
        delay = waited + link.sample_delay(rng)
        self.srtt_ms = rtt if srtt is None else srtt + (rtt - srtt) / 8.0

        # FIFO: cannot overtake the previous segment on this stream.
        deliver_at = now_ms + delay
        if deliver_at < self.last_delivery_ms:
            deliver_at = self.last_delivery_ms
            delay = deliver_at - now_ms
        self.last_delivery_ms = deliver_at
        return delay
