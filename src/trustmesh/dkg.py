"""Two-round leaderless distributed key generation.

Every participant simultaneously deals a threshold sharing of its own random
secret: round 1 broadcasts per-coefficient commitments plus a proof of
knowledge of the dealt secret, a Schnorr ``signing.Signature`` whose challenge
is bound to a common reference string against replay (as in FROST's key
generation, Komlo and Goldberg, SAC 2020); round 2 privately distributes
shares, verifies everything received against the broadcast commitments, and
derives the signing share as the sum of all received shares.  The group
public key is the sum of the constant-term commitments, so no party ever
holds the group secret.

A node keeps its peers' messages in its own state by one rule, whether they
come as whole rounds (dkg_accept_round1, dkg_round2_finalize, run by run_dkg)
or one at a time (dkg_receive_broadcast, dkg_receive_share, by the simulator).

Each node checks only its peers' inputs: its own proof and share come from
its own polynomial.  A node checks each received share on its own with
``sharing.feldman_verify``, value*G == C_j(id), so a failure names every bad
dealer.  A random-weight batch of these checks measured no faster up to
n=32: value*G runs on the fixed-base combs and costs about as much as the
128-bit weight a batch puts on each C_j(id).  Verification shares are stepped
by forward differences (Knuth, TAOCP Vol. 2, 4.6.4) rather than evaluated one
by one.

A proof's challenge has 128 bits, not the group order's 253, so checking it
takes a c*A whose doubling chain is half as long.  A Schnorr proof needs only
as many challenge bits as its security level (Schnorr, J. Cryptology 1991;
Neven, Smart and Warinschi, J. Math. Cryptology 2009): a prover who does not
know the secret must guess c, at 2^-128 per hash query, while Ed25519's
discrete logarithm already caps the system at about 2^126.  Signing
challenges stay full width (``signing.challenge_scalar``).

Here the threshold t is the signing coalition size: each dealt polynomial has
degree t-1 and commitment vectors carry t entries.  Any verification failure
aborts the run naming the misbehaving dealer; there is no complaint round.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .errors import ProtocolAbort
from .groups import GroupBackend, GroupElement, Scalar, hash_bytes, id_bytes
from .polynomials import Polynomial, interpolate_at, random_polynomial
from .sharing import CommitmentVector, SharePacket, commit_polynomial, feldman_verify
from .signing import Signature, schnorr_holds


EPOCH_LIMIT = 1 << 64   # CRS epochs are encoded in 8 bytes


def check_dkg_parameters(t: int, n: int, q: int) -> None:
    """A key generation's rule: 2 <= t <= n, and n < q so that the ids 1..n are distinct mod q."""
    if t < 2:
        raise ValueError("threshold must be >= 2 (a degree t-1 sharing needs t >= 2)")
    if t > n:
        raise ValueError(f"threshold {t} exceeds participant count {n}")
    if n >= q:
        raise ValueError("participant ids must be distinct modulo the group order")


def make_crs(domain_id: str, epoch: int = 0) -> bytes:
    """Run-scoped common reference string from a domain label and epoch."""
    return hash_bytes("trustmesh/crs", [domain_id.encode("utf-8"), epoch.to_bytes(8, "big")])[:32]


def _pok_challenge(sender: int, crs: bytes, public_secret: GroupElement, R: GroupElement) -> Scalar:
    """The proof's 128-bit challenge: the first 16 bytes of the hash, read big-endian."""
    digest = hash_bytes("H", [id_bytes(sender), crs, public_secret.encode(), R.encode()])
    return public_secret.backend.scalar(int.from_bytes(digest[:16], "big"))


def pok_prove(sender: int, crs: bytes, secret: Scalar, public_secret: GroupElement, rng) -> Signature:
    """Prove ``secret`` (public value secret*G) by the signature (k*G, k + secret*c)."""
    backend = public_secret.backend
    k = backend.random_scalar(rng)
    R = k * backend.generator()
    return Signature(R, k + secret * _pok_challenge(sender, crs, public_secret, R))


def pok_verify(sender: int, crs: bytes, public_secret: GroupElement, proof: Signature) -> bool:
    challenge = _pok_challenge(sender, crs, public_secret, proof.R)
    return schnorr_holds(proof, challenge, public_secret)


@dataclass(frozen=True, slots=True)
class Round1Broadcast:
    """Round-1 message: coefficient commitments plus proof of knowledge."""

    sender: int
    commitment: CommitmentVector
    proof: Signature

    def to_bytes(self, backend: GroupBackend) -> bytes:
        return id_bytes(self.sender) + self.commitment.to_bytes() + self.proof.to_bytes(backend)


class Phase(enum.Enum):
    INIT = "init"
    ROUND1_DONE = "round1-done"
    ROUND2_DONE = "round2-done"
    ABORTED = "aborted"


@dataclass
class Participant:
    """Per-node DKG state machine."""

    id: int
    t: int
    n: int
    crs: bytes
    backend: GroupBackend
    phase: Phase = Phase.INIT
    own_polynomial: Optional[Polynomial] = None
    received_broadcasts: dict[int, Round1Broadcast] = field(default_factory=dict)
    pending_shares: dict[int, Scalar] = field(default_factory=dict)
    sk_share: Optional[Scalar] = None
    pk_share: Optional[GroupElement] = None
    group_pk: Optional[GroupElement] = None
    peer_pk_shares: dict[int, GroupElement] = field(default_factory=dict)
    transcript: list[dict] = field(default_factory=list)

    def __post_init__(self):
        check_dkg_parameters(self.t, self.n, self.backend.order)
        if not 1 <= self.id <= self.n:
            raise ValueError(f"participant id must be in 1..{self.n}")

    def _require_phase(self, expected: Phase, action: str) -> None:
        if self.phase is not expected:
            raise ValueError(f"cannot {action} in phase {self.phase.value}")

    def missing(self, received: Mapping) -> list[int]:
        """The peers other than this node, in id order, with no entry in ``received``."""
        return [i for i in range(1, self.n + 1) if i != self.id and i not in received]

    def _abort(self, reason: str, faulty_ids) -> None:
        self.phase = Phase.ABORTED
        raise ProtocolAbort(reason, faulty_ids)

    def _record(self, round_no: int, payload: bytes) -> None:
        self.transcript.append({
            "node": self.id,
            "round": round_no,
            "hash": hash_bytes("transcript", [payload]).hex()[:32],
        })


def dkg_round1(state: Participant, rng) -> Round1Broadcast:
    """Sample the dealing polynomial, commit to it and prove the secret."""
    state._require_phase(Phase.INIT, "run round 1")
    secret = state.backend.random_scalar(rng)
    state.own_polynomial = random_polynomial(secret, state.t - 1, rng)
    commitment = commit_polynomial(state.backend, state.own_polynomial)
    proof = pok_prove(state.id, state.crs, secret, commitment.entries[0], rng)
    broadcast = Round1Broadcast(state.id, commitment, proof)
    state.received_broadcasts[state.id] = broadcast
    state.phase = Phase.ROUND1_DONE
    state._record(1, broadcast.to_bytes(state.backend))
    return broadcast


def dkg_verify_round1(broadcasts: Mapping[int, Round1Broadcast], crs: bytes, t: int) -> list[int]:
    """Verify every broadcast's proof; return the (possibly empty) faulty set."""
    faulty = []
    for sender, bc in broadcasts.items():
        if bc.sender != sender:
            faulty.append(sender)
            continue
        if len(bc.commitment) != t:
            faulty.append(sender)
            continue
        if not pok_verify(sender, crs, bc.commitment.entries[0], bc.proof):
            faulty.append(sender)
    return sorted(faulty)


def dkg_accept_round1(state: Participant, broadcasts: Mapping[int, Round1Broadcast]) -> None:
    """Keep the peers' broadcasts by the intake's rule, then verify them; abort on any bad proof."""
    state._require_phase(Phase.ROUND1_DONE, "accept round 1 broadcasts")
    for sender, bc in broadcasts.items():
        _keep(state, sender, bc, state.received_broadcasts)
    missing = state.missing(state.received_broadcasts)
    if missing:
        state._abort("missing round-1 broadcasts from ", missing)
    peers = {sender: bc for sender, bc in state.received_broadcasts.items() if sender != state.id}
    faulty = dkg_verify_round1(peers, state.crs, state.t)
    if faulty:
        state._abort("invalid proof of knowledge from ", faulty)


def dkg_round2_send(state: Participant) -> list[tuple[int, Scalar]]:
    """Evaluate the own polynomial for every peer."""
    state._require_phase(Phase.ROUND1_DONE, "send round 2 shares")
    return [
        (peer, state.own_polynomial.evaluate(peer))
        for peer in range(1, state.n + 1)
        if peer != state.id
    ]


def committed_evaluations(vector: CommitmentVector, n: int) -> dict[int, GroupElement]:
    """The committed values at ids 1..n, for n >= len(vector).

    Ids 1..t (t = len(vector)) are evaluated directly; every later id costs
    t-1 additions to a table of backward differences, which is constant in
    its last entry because the committed polynomial has degree t-1.
    """
    t = len(vector)
    values = {i: vector.share_commitment(i) for i in range(1, t + 1)}
    diffs = [values[t - k] for k in range(t)]
    for k in range(1, t):
        for j in range(t - 1, k - 1, -1):
            diffs[j] = diffs[j - 1] - diffs[j]
    # now diffs[k] is the k-th backward difference at id t
    for i in range(t + 1, n + 1):
        for k in range(t - 2, -1, -1):
            diffs[k] = diffs[k] + diffs[k + 1]
        values[i] = diffs[0]
    return values


def dkg_round2_finalize(state: Participant, shares: Mapping[int, Scalar]) -> None:
    """Keep the peers' shares by the intake's rule, verify them, then derive key material.

    Received share values are dropped from the state once the signing share
    is derived.
    """
    state._require_phase(Phase.ROUND1_DONE, "finalize round 2")
    broadcasts = state.received_broadcasts
    if state.missing(broadcasts):
        raise ValueError("round-1 broadcasts must be accepted before finalizing")

    pending = state.pending_shares
    for sender, value in shares.items():
        _keep(state, sender, value, pending)
    missing = state.missing(pending)
    if missing:
        state._abort("missing round-2 shares from ", missing)

    backend = state.backend
    faulty = [s for s in sorted(pending)
              if not feldman_verify(SharePacket(state.id, pending[s]), broadcasts[s].commitment)]
    if faulty:
        state._abort("share verification failed for ", faulty)

    all_shares = {**pending, state.id: state.own_polynomial.evaluate(state.id)}
    sk = backend.scalar(sum(v.value for v in all_shares.values()))
    state.sk_share = sk

    # the summed commitment vector commits to the sum of all dealt
    # polynomials: its constant term is the group key, and its evaluation at
    # each peer id is that peer's verification share (at this node's own id,
    # sk*G, since every share matched its commitment)
    summed_vector = CommitmentVector(tuple(
        backend.element_sum(broadcasts[s].commitment.entries[k] for s in sorted(broadcasts))
        for k in range(state.t)
    ))
    state.group_pk = summed_vector.entries[0]
    state.peer_pk_shares = committed_evaluations(summed_vector, state.n)
    state.pk_share = state.peer_pk_shares[state.id]

    state.pending_shares.clear()
    state.phase = Phase.ROUND2_DONE
    state._record(2, b"".join(backend.encode_scalar(all_shares[s]) for s in sorted(all_shares)))
    state._record(3, state.group_pk.encode())


# Per-node intake: a node that has dealt takes its peers' messages one at a
# time, in any order.  _keep is its one rule, for the round functions' mappings
# too: the first message from each peer in 1..n counts while the node is in
# round 1.  The node finalizes once round 1 is accepted and every share is in,
# whichever comes last, raising ProtocolAbort as the round functions do.


def _keep(state: Participant, sender: int, message, received: dict) -> bool:
    if state.phase is Phase.INIT:
        raise ValueError("cannot receive before dealing round 1")
    kept = (state.phase is Phase.ROUND1_DONE and 1 <= sender <= state.n and sender != state.id
            and sender not in received)
    if kept:
        received[sender] = message
    return kept


def _finalize_when_complete(state: Participant) -> None:
    if not (state.missing(state.received_broadcasts) or state.missing(state.pending_shares)):
        dkg_round2_finalize(state, state.pending_shares)


def dkg_receive_broadcast(state: Participant, sender: int, broadcast: Round1Broadcast) -> list:
    """Take one round-1 broadcast; the last one returns the round-2 shares to send."""
    received = state.received_broadcasts
    if not _keep(state, sender, broadcast, received) or state.missing(received):
        return []
    dkg_accept_round1(state, received)
    shares = dkg_round2_send(state)
    _finalize_when_complete(state)
    return shares


def dkg_receive_share(state: Participant, sender: int, value: Scalar) -> None:
    """Take one round-2 share into ``pending_shares``."""
    if _keep(state, sender, value, state.pending_shares):
        _finalize_when_complete(state)


def transcript_jsonl(participants) -> str:
    """Transcript log as JSON lines, one record per round per node."""
    lines = []
    for p in participants:
        for record in p.transcript:
            lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + "\n"


def combine_signing_shares(participants, coalition) -> Scalar:
    """Lagrange-combine coalition signing shares at 0.

    The result s* satisfies s* . G = group_pk when the coalition has at least
    t members of a completed run; used by tests and the CLI to cross-check a
    finished DKG without ever materializing the key on one node in protocol
    flows.
    """
    by_id = {p.id: p for p in participants}
    points = [(member, by_id[member].sk_share) for member in coalition]
    return interpolate_at(points, Scalar(0, points[0][1].q))


def run_round1(backend: GroupBackend, t: int, n: int, rng, crs: bytes) -> list[Participant]:
    """Round 1 across an in-process network: every node deals, then checks every proof."""
    check_dkg_parameters(t, n, backend.order)
    participants = [Participant(i, t, n, crs, backend) for i in range(1, n + 1)]
    broadcasts = {p.id: dkg_round1(p, rng.fork(f"dkg/{p.id}")) for p in participants}
    for p in participants:
        dkg_accept_round1(p, broadcasts)
    return participants


def run_round2(participants: list[Participant]) -> None:
    """Round 2 across an in-process network: every node sends, checks and finalizes shares."""
    outbound = {p.id: dict(dkg_round2_send(p)) for p in participants}
    for p in participants:
        dkg_round2_finalize(p, {s: shares[p.id] for s, shares in outbound.items() if s != p.id})


def run_dkg(backend: GroupBackend, t: int, n: int, rng, crs: Optional[bytes] = None) -> list[Participant]:
    """Convenience in-process honest run; returns all finalized participants."""
    participants = run_round1(backend, t, n, rng, make_crs("default") if crs is None else crs)
    run_round2(participants)
    return participants
