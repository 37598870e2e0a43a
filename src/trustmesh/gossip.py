"""Gossip-based signature aggregation without a distinguished aggregator.

Signers seed per-node transcripts with their own verified partial response.
Each round a node forwards its transcript to a logarithmic fan-out of random
peers; receivers check every contribution against the session context before
merging, so forged partials never spread.  The node's PartialVerifier holds
the session (package, key shares, group key) and checks an incoming
transcript with one call: its new contributions in one random-weight sum on
ed25519, member by member when that sum fails.  The verifier remembers each
accepted partial, so a contribution seen again, or aggregated later, costs
no group work.  Once a node's transcript holds the whole coalition, it
broadcasts the full transcript with small probability; everyone who observes
a broadcast aggregates it into the final signature and stops gossiping.  A
node keeps the first broadcast that aggregates: each coalition member has
exactly one valid partial, so every broadcast that aggregates yields the
same signature.
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
    """A mergeable set of verified partial responses for one session."""

    context_hash: bytes
    contributions: dict[int, Scalar] = field(default_factory=dict)

    def copy(self) -> "Transcript":
        return Transcript(self.context_hash, dict(self.contributions))

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
    transcript: Transcript = field(init=False)
    flagged: set[int] = field(default_factory=set)
    stopped: bool = False
    finalized: Optional[Signature] = None

    def __post_init__(self):
        self.transcript = Transcript(self.verifier.package.context_hash())

    @property
    def n(self) -> int:
        return len(self.peers) + 1

    def seed_own_partial(self, z: Scalar) -> bool:
        """Self-check this node's own partial, then install it."""
        if self.verifier.verify({self.node_id: z}):
            return False
        self.transcript.contributions[self.node_id] = z
        return True

    def is_complete(self) -> bool:
        # only coalition members' partials pass the verifier
        return len(self.transcript.contributions) >= len(self.verifier.package.coalition)


def gossip_round(node: GossipNode, rng) -> list[tuple[int, Transcript]]:
    """Pick this round's fan-out peers and address them a transcript copy."""
    if node.stopped or not node.transcript.contributions:
        return []
    k = fan_out(node.n, node.c)
    if k == 0:
        return []
    targets = sorted(rng.sample(list(node.peers), k))
    return [(peer, node.transcript.copy()) for peer in targets]


def gossip_receive(node: GossipNode, sender: int, incoming: Transcript) -> None:
    """Merge an incoming transcript, verifying its contributions in one call.

    A context mismatch drops the whole message; an invalid contribution is
    dropped and its carrier flagged, while valid entries still merge.
    """
    if incoming.context_hash != node.transcript.context_hash:
        return
    rejected = node.verifier.verify(incoming.contributions)
    if rejected:
        node.flagged.add(sender)
    mine = node.transcript.contributions
    for member in sorted(incoming.contributions):
        if member not in rejected:
            mine[member] = incoming.contributions[member]


def gossip_maybe_terminate(node: GossipNode, rng) -> Optional[Transcript]:
    """With probability num/n, broadcast a complete transcript."""
    if node.stopped or not node.is_complete():
        return None
    if rng.randbelow(node.n) < node.broadcast_prob_num:
        node.stopped = True
        return node.transcript.copy()
    return None


def observe_broadcast(node: GossipNode, transcript: Transcript) -> None:
    """Aggregate the first broadcast that aggregates, with the node's verifier.

    Each coalition member has exactly one partial that passes the verifier,
    so every aggregatable broadcast yields the same signature and a node that
    already holds one ignores later broadcasts.  Broadcasts that cannot be
    aggregated (wrong context, missing or invalid partials) are ignored.  The
    verifier holds the key shares and group key.
    """
    if node.finalized is not None or transcript.context_hash != node.transcript.context_hash:
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
