"""Shamir splitting/recovery plus Feldman and Pedersen verifiable sharing.

Conventions: a threshold-t sharing uses a degree-t polynomial, so any t+1
shares reconstruct and t shares reveal nothing.  Shares are indexed from 1;
the wire format is a 4-byte big-endian id followed by the canonical scalar
bytes (and the blinding scalar for Pedersen shares).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

from .groups import GroupBackend, GroupElement, Scalar, id_bytes
from .polynomials import Polynomial, interpolate_at, random_polynomial


@dataclass(frozen=True, slots=True)
class SharePacket:
    """One participant's share: id plus value (plus blinding for Pedersen)."""

    id: int
    value: Scalar
    blinding: Optional[Scalar] = None

    def __post_init__(self):
        if self.id < 1:
            raise ValueError("share ids start at 1")

    def to_bytes(self, backend: GroupBackend) -> bytes:
        data = id_bytes(self.id) + backend.encode_scalar(self.value)
        if self.blinding is not None:
            data += backend.encode_scalar(self.blinding)
        return data

    @classmethod
    def from_bytes(cls, data: bytes, backend: GroupBackend) -> "SharePacket":
        """Decode id || value; a blinded share is encoded but never decoded."""
        if len(data) != 4 + backend.scalar_bytes:
            raise ValueError(f"share packet must be {4 + backend.scalar_bytes} bytes")
        return cls(int.from_bytes(data[:4], "big"), backend.decode_scalar(data[4:]))


@dataclass(frozen=True, slots=True)
class CommitmentVector:
    """Group-element commitments to polynomial coefficients, constant first."""

    entries: tuple[GroupElement, ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("commitment vector cannot be empty")

    def __len__(self):
        return len(self.entries)

    @property
    def backend(self) -> GroupBackend:
        return self.entries[0].backend

    def share_commitment(self, participant_id: int) -> GroupElement:
        """Sum of (id^k) * entries[k]: the committed value of f(id).

        Horner's rule from the top entry down, so each multiplier is the id
        itself rather than a power of it.
        """
        acc = self.entries[-1]
        for entry in reversed(self.entries[:-1]):
            acc = participant_id * acc + entry
        return acc

    def to_bytes(self) -> bytes:
        return b"".join(e.encode() for e in self.entries)

    @classmethod
    def from_bytes(cls, data: bytes, backend: GroupBackend) -> "CommitmentVector":
        size = backend.element_bytes
        if not data or len(data) % size != 0:
            raise ValueError("commitment vector bytes are not a whole number of elements")
        return cls(tuple(
            backend.decode_element(data[i:i + size]) for i in range(0, len(data), size)
        ))


class Verdict(enum.Enum):
    DEALER_FAULTY = "dealer-faulty"
    ACCUSER_FAULTY = "accuser-faulty"


@dataclass(frozen=True, slots=True)
class Complaint:
    """A participant's public accusation that the dealer sent a bad share."""

    accuser: int
    share: SharePacket
    commitments: CommitmentVector

    def __post_init__(self):
        if self.accuser != self.share.id:
            raise ValueError("complaint must carry the accuser's own share")


def _check_split_params(t: int, n: int, q: int) -> None:
    if t < 1:
        raise ValueError("threshold degree must be >= 1")
    if t >= n:
        raise ValueError(f"need more shares than the threshold degree (t={t}, n={n})")
    if n >= q:
        raise ValueError(f"cannot issue {n} distinct shares modulo {q}")


def shares_from_polynomial(poly: Polynomial, n: int) -> list[SharePacket]:
    """Evaluate a sharing polynomial at ids 1..n."""
    return [SharePacket(i, poly.evaluate(i)) for i in range(1, n + 1)]


def shamir_split(secret: Scalar, t: int, n: int, rng) -> list[SharePacket]:
    """Split ``secret`` into n shares, any t+1 of which reconstruct it."""
    _check_split_params(t, n, secret.q)
    poly = random_polynomial(secret, t, rng)
    return shares_from_polynomial(poly, n)


def shamir_combine(shares: Sequence[SharePacket], expected_threshold: Optional[int] = None) -> Scalar:
    """Interpolate the shares at 0.

    Without ``expected_threshold`` the caller owns the count: an undersized
    set interpolates to a wrong value rather than an error.  Passing the
    sharing's threshold degree turns an undersized set into an explicit error.
    """
    if not shares:
        raise ValueError("no shares given")
    if expected_threshold is not None and len(shares) < expected_threshold + 1:
        raise ValueError(
            f"cannot recover from {len(shares)} shares; threshold needs {expected_threshold + 1}"
        )
    q = shares[0].value.q
    return interpolate_at([(s.id, s.value) for s in shares], Scalar(0, q))


# ---------------------------------------------------------------------------
# Feldman VSS
# ---------------------------------------------------------------------------


def commit_polynomial(backend: GroupBackend, poly: Polynomial) -> CommitmentVector:
    """Per-coefficient commitments c_k = coeff_k * G."""
    g = backend.generator()
    return CommitmentVector(tuple(c * g for c in poly.coefficients))


def feldman_split(secret: Scalar, t: int, n: int, rng, backend: GroupBackend):
    """Shamir shares plus a public commitment vector binding the polynomial."""
    _check_split_params(t, n, secret.q)
    poly = random_polynomial(secret, t, rng)
    return commit_polynomial(backend, poly), shares_from_polynomial(poly, n)


def _share_holds(share: SharePacket, commitments: CommitmentVector) -> bool:
    """The one share check: value*G, plus blinding*H for a blinded share, == C(id)."""
    backend = commitments.backend
    if share.blinding is None:
        dealt = share.value * backend.generator()
    else:
        dealt = backend.multi_mul([share.value, share.blinding],
                                  [backend.generator(), backend.second_generator()])
    return dealt == commitments.share_commitment(share.id)


def feldman_verify(share: SharePacket, commitments: CommitmentVector) -> bool:
    """Check share.value * G against the committed evaluation at share.id."""
    return _share_holds(SharePacket(share.id, share.value), commitments)


# ---------------------------------------------------------------------------
# Pedersen VSS
# ---------------------------------------------------------------------------


def commit_polynomial_pair(
    backend: GroupBackend, poly: Polynomial, blinding_poly: Polynomial
) -> CommitmentVector:
    """Dual-generator commitments c_k = f_k * G + g_k * H."""
    if poly.degree != blinding_poly.degree:
        raise ValueError("value and blinding polynomials must have the same degree")
    g = backend.generator()
    h = backend.second_generator()
    return CommitmentVector(tuple(
        f * g + b * h for f, b in zip(poly.coefficients, blinding_poly.coefficients)
    ))


def pedersen_split(secret: Scalar, t: int, n: int, rng, backend: GroupBackend):
    """Blinded sharing: shares carry (f(j), g(j)) for a random blinding poly g."""
    _check_split_params(t, n, secret.q)
    poly = random_polynomial(secret, t, rng)
    blinding_poly = random_polynomial(backend.random_scalar(rng), t, rng)
    commitments = commit_polynomial_pair(backend, poly, blinding_poly)
    shares = [
        SharePacket(i, poly.evaluate(i), blinding_poly.evaluate(i))
        for i in range(1, n + 1)
    ]
    return commitments, shares


def pedersen_verify(share: SharePacket, commitments: CommitmentVector) -> bool:
    """Check value*G + blinding*H against the committed evaluation at share.id."""
    if share.blinding is None:
        raise ValueError("pedersen verification needs a blinded share")
    return _share_holds(share, commitments)


def adjudicate_complaint(complaint: Complaint) -> Verdict:
    """Public, deterministic resolution of a complaint against the dealer.

    The revealed share is re-checked against the dealer's commitments: if it
    fails, the dealer cheated; if it passes, the accusation was baseless.
    """
    ok = _share_holds(complaint.share, complaint.commitments)
    return Verdict.ACCUSER_FAULTY if ok else Verdict.DEALER_FAULTY
