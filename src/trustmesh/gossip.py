"""Gossip-based signature aggregation without a distinguished aggregator.

Each signer holds its own partial response from the start.  Each round a
node forwards its transcript to a logarithmic fan-out of random peers;
receivers check every contribution against the session context, so forged
partials never spread.  The node's PartialVerifier holds the session
(the package, which derives the binding values and R, the key shares and
the group key) and is the one store of the partials the node holds: it checks an incoming transcript with one call (its new
contributions in one random-weight sum on ed25519, member by member when
that sum fails) and keeps each partial it accepts, so a contribution seen
again, or aggregated later, costs no group work.  A node's transcript is a
view of those accepted partials.  Once it holds the whole coalition, a node
broadcasts it with small probability; everyone who observes a broadcast
aggregates it into the final signature and stops gossiping.  A node keeps
the first broadcast that aggregates: each coalition member has exactly one
valid partial, so every broadcast that aggregates yields the same signature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import ProtocolAbort
from .groups import GroupBackend, Scalar, id_bytes
from .signing import PartialVerifier, Signature, aggregate


def fan_out(n: int, c: int) -> int:
    """Peers contacted per round: ceil(c * log2 n), capped at everyone else."""
    if n < 2:
        return 0
    return min(n - 1, math.ceil(c * math.log2(n)))


@dataclass
class Transcript:
    """A set of partial responses for one session, as gossip carries it."""

    context_hash: bytes
    contributions: dict[int, Scalar]

    def to_bytes(self, backend: GroupBackend) -> bytes:
        body = b"".join(
            id_bytes(i) + backend.encode_scalar(self.contributions[i])
            for i in sorted(self.contributions)
        )
        return self.context_hash + body


@dataclass
class GossipNode:
    """Per-node aggregation-gossip state for one signing session."""

    node_id: int
    peers: tuple[int, ...]            # everyone else in the domain
    verifier: PartialVerifier
    c: int = 4
    broadcast_prob_num: int = 2       # broadcast probability = num / (peers+1)
    flagged: set[int] = field(default_factory=set)
    stopped: bool = False
    finalized: Optional[Signature] = None

    @property
    def n(self) -> int:
        return len(self.peers) + 1

    @property
    def transcript(self) -> Transcript:
        """A fresh transcript of the partials the verifier holds, the caller's to keep."""
        return Transcript(self.verifier.package.context_hash, dict(self.verifier.accepted))

    def seed_own_partial(self, z: Scalar) -> None:
        """Hold this node's own partial, which it computed and does not check."""
        self.verifier.accepted[self.node_id] = z

    def is_complete(self) -> bool:
        # only coalition members' partials pass the verifier
        return len(self.verifier.accepted) >= len(self.verifier.package.coalition)


def gossip_round(node: GossipNode, rng) -> list[tuple[int, Transcript]]:
    """Pick this round's fan-out peers and address each its own transcript."""
    if node.stopped or not node.verifier.accepted:
        return []
    k = fan_out(node.n, node.c)
    if k == 0:
        return []
    targets = sorted(rng.sample(list(node.peers), k))
    return [(peer, node.transcript) for peer in targets]


def gossip_receive(node: GossipNode, sender: int, incoming: Transcript) -> None:
    """Check an incoming transcript's contributions in one verify call.

    A context mismatch drops the whole message; the verifier keeps every
    valid contribution, and an invalid one flags its carrier.
    """
    if incoming.context_hash != node.verifier.package.context_hash:
        return
    if node.verifier.verify(incoming.contributions):
        node.flagged.add(sender)


def gossip_maybe_terminate(node: GossipNode, rng) -> Optional[Transcript]:
    """With probability num/n, broadcast a complete transcript."""
    if node.stopped or not node.is_complete():
        return None
    if rng.randbelow(node.n) < node.broadcast_prob_num:
        node.stopped = True
        return node.transcript
    return None


def observe_broadcast(node: GossipNode, transcript: Transcript) -> None:
    """Aggregate the first broadcast that aggregates, with the node's verifier.

    Each coalition member has exactly one partial that passes the verifier,
    so every aggregatable broadcast yields the same signature and a node that
    already holds one ignores later broadcasts.  Broadcasts that cannot be
    aggregated (wrong context, missing or invalid partials) are ignored.  The
    verifier holds the key shares and group key.
    """
    if node.finalized is not None or transcript.context_hash != node.verifier.package.context_hash:
        return
    coalition = set(node.verifier.package.coalition)
    if not coalition <= set(transcript.contributions):
        return  # cannot aggregate a partial coalition
    try:
        node.finalized = aggregate(
            node.verifier.package,
            {m: transcript.contributions[m] for m in coalition},
            node.verifier.pk_shares,
            node.verifier.group_pk,
            verifier=node.verifier,
        )
    except ProtocolAbort:
        return
    node.stopped = True
