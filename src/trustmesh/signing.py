"""Two-round binding threshold Schnorr signing over DKG outputs.

Round 1 publishes one single-use nonce commitment pair per signer.
Round 2 binds every partial response to the exact message and commitment set
through per-signer binding values, so responses from different sessions can
never be mixed into a valid signature.  Any participant can aggregate:
partials are individually verifiable, and a bad one aborts the session naming
its author.  The final signature satisfies the single-party Schnorr equation
z*G = R + H2(R || pk || m)*pk, so verifiers never learn it was thresholded.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional

from .errors import NonceReuseError, ProtocolAbort
from .groups import (
    GroupBackend, GroupElement, Scalar, batch_weights, failed_equations, hash_bytes, hash_to_scalar,
    id_bytes,
)
from .polynomials import lagrange_coefficient


@dataclass(frozen=True, slots=True)
class Signature:
    R: GroupElement
    z: Scalar

    def to_bytes(self, backend: GroupBackend) -> bytes:
        return self.R.encode() + backend.encode_scalar(self.z)

    @classmethod
    def from_bytes(cls, data: bytes, backend: GroupBackend) -> "Signature":
        eb = backend.element_bytes
        if len(data) != eb + backend.scalar_bytes:
            raise ValueError("bad signature length")
        return cls(backend.decode_element(data[:eb]), backend.decode_scalar(data[eb:]))


def challenge_scalar(R: GroupElement, pk: GroupElement, message: bytes) -> Scalar:
    return hash_to_scalar(pk.backend, "H2", [R.encode(), pk.encode(), message])


def schnorr_holds(sig: Signature, challenge: Scalar, pk: GroupElement) -> bool:
    """The Schnorr equation z*G == R + c*pk, for signatures and DKG proofs of knowledge."""
    return sig.z * pk.backend.generator() == sig.R + challenge * pk


def verify(pk: GroupElement, message: bytes, sig: Signature) -> bool:
    """Accept iff z*G = R + H2(R || pk || m)*pk."""
    return schnorr_holds(sig, challenge_scalar(sig.R, pk, message), pk)


def sign_with_nonce(sk: Scalar, message: bytes, nonce: Scalar, backend: GroupBackend) -> Signature:
    """Schnorr signature with a caller-supplied nonce (single-party path)."""
    g = backend.generator()
    R = nonce * g
    c = challenge_scalar(R, sk * g, message)
    return Signature(R, nonce + sk * c)


def single_party_sign(sk: Scalar, message: bytes, rng, backend: GroupBackend) -> Signature:
    """Plain Schnorr signing under the same verify contract as threshold runs."""
    if sk.value == 0:
        warnings.warn("signing with a zero secret key: the public key is the identity")
    return sign_with_nonce(sk, message, backend.random_nonzero_scalar(rng), backend)


# ---------------------------------------------------------------------------
# Key material
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KeyShare:
    """A participant's slice of a thresholded key, as produced by the DKG."""

    id: int
    t: int
    sk_share: Scalar
    group_pk: GroupElement
    pk_shares: Mapping[int, GroupElement]

    @classmethod
    def from_participant(cls, participant) -> "KeyShare":
        if participant.sk_share is None:
            raise ValueError("participant has not finished key generation")
        return cls(
            id=participant.id,
            t=participant.t,
            sk_share=participant.sk_share,
            group_pk=participant.group_pk,
            pk_shares=dict(participant.peer_pk_shares),
        )


# ---------------------------------------------------------------------------
# Nonce commitments and signing packages
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class NonceCommitmentList:
    """Published view of a signer's one nonce pair: commitment points only."""

    owner: int
    pair: tuple[GroupElement, GroupElement]

    def to_bytes(self) -> bytes:
        return id_bytes(self.owner) + self.pair[0].encode() + self.pair[1].encode()


@dataclass
class _Nonce:
    a: Optional[Scalar]
    b: Optional[Scalar]
    pair: tuple[GroupElement, GroupElement]

    def scrub(self) -> None:
        self.a = None
        self.b = None


@dataclass(frozen=True)
class SigningPackage:
    """The shared round-2 context: message, coalition, one pair per signer."""

    message: bytes
    coalition: tuple[int, ...]
    commitments: tuple[tuple[int, GroupElement, GroupElement], ...]

    @classmethod
    def build(
        cls, message: bytes, commitments: Mapping[int, tuple[GroupElement, GroupElement]]
    ) -> "SigningPackage":
        coalition = tuple(sorted(commitments))
        if not coalition:
            raise ValueError("empty signing coalition")
        packed = tuple((member, *commitments[member]) for member in coalition)
        return cls(message=message, coalition=coalition, commitments=packed)

    def pair(self, member: int) -> tuple[GroupElement, GroupElement]:
        for owner, a, b in self.commitments:
            if owner == member:
                return a, b
        raise KeyError(member)

    def commitment_bytes(self) -> bytes:
        return b"".join(id_bytes(i) + a.encode() + b.encode() for i, a, b in self.commitments)

    @cached_property
    def context_hash(self) -> bytes:
        """The session's context hash, derived once, on first use."""
        return hash_bytes("sign-context", [self.message, self.commitment_bytes()])[:32]

    @cached_property
    def betas(self) -> dict[int, Scalar]:
        """The session's binding values, derived once, on first use."""
        return binding_values(self)

    @cached_property
    def R(self) -> GroupElement:
        """The session's group commitment, derived once, on first use."""
        return bound_commitments(self, self.betas)


def binding_values(package: SigningPackage) -> dict[int, Scalar]:
    """Per-signer binding value tying the response to message and commitments."""
    backend = package.commitments[0][1].backend
    pairs_bytes = package.commitment_bytes()
    return {
        member: hash_to_scalar(backend, "H1", [id_bytes(member), package.message, pairs_bytes])
        for member in package.coalition
    }


def bound_commitments(package: SigningPackage, betas: Mapping[int, Scalar]) -> GroupElement:
    """Group commitment R = sum(A_i) + sum(beta_i*B_i) under binding values ``betas``.

    The beta_i*B_i terms share one multi-scalar mul.
    """
    commitments = package.commitments
    backend = commitments[0][1].backend
    return backend.element_sum(a for _, a, _ in commitments) + backend.multi_mul(
        [betas[member] for member, _, _ in commitments], [b for _, _, b in commitments]
    )


# ---------------------------------------------------------------------------
# Signer
# ---------------------------------------------------------------------------


class Signer:
    """Per-node signing state: owns the key share and at most one unused nonce pair."""

    def __init__(self, key: KeyShare):
        self.key = key
        self._nonce: Optional[_Nonce] = None

    def round1(self, rng) -> NonceCommitmentList:
        """Draw a single-use nonce pair, replacing any unused one; publish its commitments."""
        backend = self.key.group_pk.backend
        a = backend.random_nonzero_scalar(rng)
        b = backend.random_nonzero_scalar(rng)
        g = backend.generator()
        self._nonce = _Nonce(a=a, b=b, pair=(a * g, b * g))
        return NonceCommitmentList(self.key.id, self._nonce.pair)

    def round2_partial(self, package: SigningPackage) -> Scalar:
        """Compute this signer's bound partial response and burn the nonce pair."""
        key = self.key
        if key.id not in package.coalition:
            raise ValueError(f"signer {key.id} is not in the coalition {package.coalition}")
        if len(package.coalition) < key.t:
            raise ValueError(
                f"coalition of {len(package.coalition)} is below the threshold {key.t}"
            )
        nonce = self._nonce
        if nonce is None or nonce.pair != package.pair(key.id):
            raise NonceReuseError("package names a used, replaced or unknown nonce pair; "
                                  "reuse would leak the key share")
        c = challenge_scalar(package.R, key.group_pk, package.message)
        lam = lagrange_coefficient(key.id, package.coalition, key.group_pk.backend.scalar(0))
        z = nonce.a + nonce.b * package.betas[key.id] + lam * key.sk_share * c
        nonce.scrub()
        self._nonce = None
        return z


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


_PARTIAL_BATCH_TAG = "trustmesh/partial-batch"


class PartialVerifier:
    """One node's signing session: the one holder of its package and keys.

    Building it derives the challenge c; the binding values beta_m and the
    group commitment R come from the package.  A partial z_m is valid iff
    z_m*G == A_m + beta_m*B_m + (c*lambda_m)*pk_m.  ``verify`` hands these
    equations to ``groups.failed_equations`` in one call: on ed25519 two or
    more partials are tested as one random-weight sum (Bellare, Garay and
    Rabin, EUROCRYPT 1998), and when that sum fails, or on toy, each partial
    alone, so a bad partial is named as FROST (Komlo and Goldberg, SAC 2020)
    names it.  ``accepted``, the node's one store of the partials it holds,
    keeps each partial that passed, and the node's own; asking again about
    one costs no group operation, and a rejected one is never stored.
    """

    def __init__(
        self,
        package: SigningPackage,
        pk_shares: Mapping[int, GroupElement],
        group_pk: GroupElement,
    ):
        self.backend = group_pk.backend
        self.package = package
        self.pk_shares = pk_shares
        self.group_pk = group_pk
        self.challenge = challenge_scalar(package.R, group_pk, package.message)
        self.accepted: dict[int, Scalar] = {}

    def verify(self, partials: Mapping[int, Scalar]) -> list[int]:
        """Check ``partials`` (member -> z); return the sorted members rejected.

        A partial already accepted with the same value costs nothing, and a
        member outside the coalition is rejected without group work.
        """
        coalition = self.package.coalition
        rejected = [m for m in partials if m not in coalition]
        pending = {
            m: partials[m] for m in sorted(partials)
            if m in coalition and self.accepted.get(m) != partials[m]
        }
        zero = self.backend.scalar(0)
        equations = {}
        for m, z in pending.items():
            a, b = self.package.pair(m)
            c_lam = self.challenge * lagrange_coefficient(m, coalition, zero)
            equations[m] = (z, [(1, a), (self.package.betas[m], b), (c_lam, self.pk_shares[m])])
        # weights from the session's context hash, the group key and each (member, z)
        failed = failed_equations(self.backend, equations, lambda: batch_weights(
            _PARTIAL_BATCH_TAG,
            [self.package.context_hash, self.group_pk.encode()],
            {m: (self.backend.encode_scalar(z),) for m, z in pending.items()},
        ))
        self.accepted.update((m, z) for m, z in pending.items() if m not in failed)
        return sorted(rejected + failed)


def aggregate(
    package: SigningPackage,
    partials: Mapping[int, Scalar],
    pk_shares: Mapping[int, GroupElement],
    group_pk: GroupElement,
    *,
    verifier: Optional[PartialVerifier] = None,
) -> Signature:
    """Verify every coalition partial and sum them into the final signature.

    A caller that already holds this session's PartialVerifier passes it as
    ``verifier``; one built for another package or group key is rejected.
    """
    missing = sorted(set(package.coalition) - set(partials))
    if missing:
        raise ValueError(f"incomplete session: missing partials from {missing}")
    if verifier is None:
        verifier = PartialVerifier(package, pk_shares, group_pk)
    elif verifier.package != package or verifier.group_pk != group_pk:
        raise ValueError("verifier was built for another signing package or group key")
    faulty = verifier.verify({member: partials[member] for member in package.coalition})
    if faulty:
        raise ProtocolAbort("partial verification failed for ", faulty)
    backend = group_pk.backend
    z = backend.scalar(sum(partials[m].value for m in package.coalition))
    return Signature(package.R, z)


class NonceIntake:
    """One node's round-1 intake: the coalition's nonce pairs, one at a time.

    Pairs may arrive in any order.  The first pair from each coalition member
    counts; repeats, pairs from outside the coalition and pairs owned by
    someone other than their sender are dropped.  ``receive`` returns the
    SigningPackage once every coalition member's pair is in.
    """

    def __init__(self, message: bytes, coalition: Iterable[int]):
        self.message = message
        self.coalition = tuple(sorted(coalition))
        self.lists: dict[int, NonceCommitmentList] = {}
        self.package: Optional[SigningPackage] = None

    def receive(self, sender: int, nonces: NonceCommitmentList) -> Optional[SigningPackage]:
        if (self.package is not None or sender not in self.coalition or sender in self.lists
                or nonces.owner != sender):
            return None
        self.lists[sender] = nonces
        if len(self.lists) < len(self.coalition):
            return None
        self.package = SigningPackage.build(
            self.message, {m: self.lists[m].pair for m in self.coalition}
        )
        return self.package

    def missing(self) -> list[int]:
        """Coalition members whose nonce pair has not arrived yet."""
        return [m for m in self.coalition if m not in self.lists]


def run_session(keys: Mapping[int, KeyShare], message: bytes, rng) -> Signature:
    """One in-process signing session by the coalition holding ``keys`` (id -> share).

    Each member's nonces come from ``rng`` forked by member id and by a hash of
    the message, so a seed reused for two messages never reuses a nonce pair
    (which would leak the key).
    """
    message_tag = hash_bytes("sign-nonce", [message])[:32].hex()
    signers = {i: Signer(key) for i, key in keys.items()}
    intake = NonceIntake(message, signers)
    for i, s in signers.items():
        intake.receive(i, s.round1(rng.fork(f"nonce/{i}/{message_tag}")))
    key = next(iter(keys.values()))
    partials = {i: s.round2_partial(intake.package) for i, s in signers.items()}
    return aggregate(intake.package, partials, key.pk_shares, key.group_pk)
