"""Asynchronous verifiable secret sharing over bivariate polynomials.

The dealer samples a t-by-t coefficient matrix (degree t-1 in each variable)
with the secret at position [0][0], plus a fully random companion matrix for
blinding, and commits to both through a matrix of dual-generator commitments.
Each node i receives the row polynomials f(i, y), f'(i, y) and the column
polynomials f(x, i), f'(x, i).  Nodes that never hear from the dealer can
rebuild their polynomials from the overlap points their peers send, checking
every point against the commitment matrix, so t honest deliveries are enough
for the whole network to complete.

The bivariate layer is Pedersen VSS once per row: each commitment-matrix row
commits to one univariate polynomial pair, and an overlap point f(x, y) is a
Pedersen share, at id y, of the row polynomial f(x, .).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .groups import GroupBackend, GroupElement, Scalar
from .polynomials import Polynomial, interpolate_at, interpolate_polynomial
from .sharing import CommitmentVector, SharePacket, commit_polynomial_pair, pedersen_verify


@dataclass(frozen=True, slots=True)
class BivariatePolynomial:
    """t-by-t coefficient matrix: coeffs[j][l] multiplies x^l * y^j."""

    coeffs: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self):
        side = len(self.coeffs)
        if side == 0 or any(len(row) != side for row in self.coeffs):
            raise ValueError("coefficient matrix must be square and non-empty")

    def evaluate(self, x: int, y: int) -> Scalar:
        return self.row_polynomial(x).evaluate(y)

    def row_polynomial(self, i: int) -> Polynomial:
        """f(i, y) as a polynomial in y."""
        return Polynomial(tuple(Polynomial(row).evaluate(i) for row in self.coeffs))

    def column_polynomial(self, i: int) -> Polynomial:
        """f(x, i) as a polynomial in x."""
        return Polynomial(tuple(Polynomial(col).evaluate(i) for col in zip(*self.coeffs)))


def random_bivariate(secret: Scalar, t: int, rng) -> BivariatePolynomial:
    """Uniform t-by-t matrix with the secret planted at [0][0]."""
    if t < 1:
        raise ValueError("threshold must be >= 1")
    q = secret.q
    rows = []
    for j in range(t):
        row = []
        for l in range(t):
            if j == 0 and l == 0:
                row.append(secret)
            else:
                row.append(Scalar(rng.randbelow(q), q))
        rows.append(tuple(row))
    return BivariatePolynomial(tuple(rows))


@dataclass(frozen=True, slots=True)
class CommitmentMatrix:
    """entries[j][l] = coeffs[j][l]*G + coeffs'[j][l]*H for the dealer's pair."""

    entries: tuple[tuple[GroupElement, ...], ...]

    def share_vector(self) -> CommitmentVector:
        """Row 0 commits to the main shares: f(m, 0) is its evaluation at m."""
        return CommitmentVector(self.entries[0])

    def row_commitment(self, x: int) -> CommitmentVector:
        """Commitments to the coefficients of f(x, y) as a polynomial in y."""
        return CommitmentVector(tuple(
            CommitmentVector(row).share_commitment(x) for row in self.entries
        ))

    def column_commitment(self, y: int) -> CommitmentVector:
        """Commitments to the coefficients of f(x, y) as a polynomial in x."""
        return CommitmentVector(tuple(
            CommitmentVector(col).share_commitment(y) for col in zip(*self.entries)
        ))

    def to_bytes(self) -> bytes:
        return b"".join(e.encode() for row in self.entries for e in row)


def commitment_matrix(
    backend: GroupBackend, f: BivariatePolynomial, f_prime: BivariatePolynomial
) -> CommitmentMatrix:
    return CommitmentMatrix(tuple(
        commit_polynomial_pair(backend, Polynomial(row), Polynomial(prow)).entries
        for row, prow in zip(f.coeffs, f_prime.coeffs)
    ))


@dataclass(frozen=True, slots=True)
class AvssDeal:
    """What the dealer hands node ``recipient``: row and column polynomials."""

    recipient: int
    commitment: CommitmentMatrix
    a: Polynomial          # f(recipient, y)
    a_prime: Polynomial    # f'(recipient, y)
    b: Polynomial          # f(x, recipient)
    b_prime: Polynomial    # f'(x, recipient)

    def share(self) -> Scalar:
        """The node's main secret share f(recipient, 0)."""
        return self.a.evaluate(0)


def check_deal_parameters(t: int, n: int, q: int) -> None:
    """A dealing's rule: 1 <= t <= n, and n < q so that the node ids 1..n are distinct mod q."""
    if t < 1 or t > n:
        raise ValueError(f"threshold must satisfy 1 <= t <= n (t={t}, n={n})")
    if n >= q:
        raise ValueError(f"cannot deal to {n} distinct nodes modulo {q}")


def avss_deal(secret: Scalar, t: int, n: int, rng, backend: GroupBackend):
    """Dealer side: commitment matrix plus one deal per node id 1..n."""
    check_deal_parameters(t, n, secret.q)
    f = random_bivariate(secret, t, rng)
    f_prime = random_bivariate(backend.random_scalar(rng), t, rng)
    commitment = commitment_matrix(backend, f, f_prime)
    deals = [
        AvssDeal(
            recipient=i,
            commitment=commitment,
            a=f.row_polynomial(i),
            a_prime=f_prime.row_polynomial(i),
            b=f.column_polynomial(i),
            b_prime=f_prime.column_polynomial(i),
        )
        for i in range(1, n + 1)
    ]
    return commitment, deals


def avss_verify_share(
    commitment: CommitmentMatrix, m: int, sigma: Scalar, sigma_prime: Scalar
) -> bool:
    """Check a claimed main share (sigma, sigma') = (f(m,0), f'(m,0)) against C."""
    return pedersen_verify(SharePacket(m, sigma, sigma_prime), commitment.share_vector())


def avss_point_valid(
    commitment: CommitmentMatrix, x: int, y: int, value: Scalar, blinding: Scalar
) -> bool:
    """Check a claimed overlap point (f(x,y), f'(x,y)) against C."""
    return pedersen_verify(SharePacket(y, value, blinding), commitment.row_commitment(x))


@dataclass(frozen=True, slots=True)
class PointExchange:
    """Overlap points node ``sender`` forwards to node ``recipient``.

    row_value/row_blind claim f(recipient, sender) and f'(recipient, sender)
    (a point on the recipient's row polynomial); col_value/col_blind claim
    f(sender, recipient) and f'(sender, recipient) (a point on its column).
    """

    sender: int
    recipient: int
    row_value: Scalar
    row_blind: Scalar
    col_value: Scalar
    col_blind: Scalar


def exchange_messages(deal: AvssDeal, recipients: Sequence[int]) -> list[PointExchange]:
    """The overlap points a dealt node sends to each peer."""
    out = []
    for j in recipients:
        if j == deal.recipient:
            continue
        out.append(PointExchange(
            sender=deal.recipient,
            recipient=j,
            row_value=deal.b.evaluate(j),
            row_blind=deal.b_prime.evaluate(j),
            col_value=deal.a.evaluate(j),
            col_blind=deal.a_prime.evaluate(j),
        ))
    return out


def exchange_message_valid(commitment: CommitmentMatrix, msg: PointExchange) -> bool:
    """Both claimed overlap points must match the commitment matrix."""
    return avss_point_valid(
        commitment, msg.recipient, msg.sender, msg.row_value, msg.row_blind
    ) and avss_point_valid(
        commitment, msg.sender, msg.recipient, msg.col_value, msg.col_blind
    )


@dataclass
class NodeRecovery:
    """One node's side of a dealing: the dealer's deal, or one rebuilt from points."""

    node: int
    commitment: CommitmentMatrix
    deal: Optional[AvssDeal] = None
    flagged: set[int] = field(default_factory=set)
    points: dict[int, PointExchange] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return self.deal is not None

    def share(self) -> Scalar:
        if self.deal is None:
            raise ValueError(f"node {self.node} has not completed its share yet")
        return self.deal.share()

    def accept_deal(self, deal: AvssDeal) -> bool:
        """Keep the dealer's deal; False unless its row and column polynomials open C."""
        c = self.commitment
        polys = (deal.a, deal.a_prime, deal.b, deal.b_prime)
        if deal.recipient != self.node or any(len(p.coefficients) != len(c.entries) for p in polys):
            return False
        backend = c.entries[0][0].backend
        if commit_polynomial_pair(backend, deal.a, deal.a_prime) != c.row_commitment(self.node):
            return False
        if commit_polynomial_pair(backend, deal.b, deal.b_prime) != c.column_commitment(self.node):
            return False
        self.deal = deal
        return True

    def receive(self, msg: PointExchange) -> bool:
        """Take one overlap point; True when it completes the node.

        A point for another node is dropped unflagged, as the network may have
        misrouted it; an invalid point flags its sender, also after completion;
        a repeated sender is dropped; the first t valid senders' points, t the
        side of the commitment matrix, are interpolated into the node's deal.
        """
        if msg.recipient != self.node:
            return False
        if not exchange_message_valid(self.commitment, msg):
            self.flagged.add(msg.sender)
            return False
        if self.complete or msg.sender in self.points:
            return False
        self.points[msg.sender] = msg
        if len(self.points) < len(self.commitment.entries):
            return False
        # row points rebuild a and a', column points b and b'
        polys = [interpolate_polynomial([(s, getattr(m, name)) for s, m in self.points.items()])
                 for name in ("row_value", "row_blind", "col_value", "col_blind")]
        self.deal = AvssDeal(self.node, self.commitment, *polys)
        return True


def avss_exchange_and_interpolate(
    commitment: CommitmentMatrix, deals: Mapping[int, AvssDeal], n: int
) -> dict[int, NodeRecovery]:
    """One full overlap-point exchange among nodes 1..n.

    ``deals`` holds whatever the dealer managed to deliver; every node that
    accepts its deal sends its overlap points, and nodes without a deal
    reconstruct from t commitment-consistent points, t being the side of the
    commitment matrix.  Nodes with fewer than t valid points stay incomplete
    (no failure: the exchange can be rerun once more deals or points arrive).
    """
    results = {j: NodeRecovery(j, commitment) for j in range(1, n + 1)}
    senders = [deal for j, deal in deals.items() if results[j].accept_deal(deal)]
    for deal in senders:
        for msg in exchange_messages(deal, range(1, n + 1)):
            results[msg.recipient].receive(msg)
    return results


def avss_recover_secret(shares: Sequence[tuple[int, Scalar]]) -> Scalar:
    """Interpolate main shares (i, f(i, 0)) at 0 to recover f(0, 0)."""
    if not shares:
        raise ValueError("no shares given")
    q = shares[0][1].q
    return interpolate_at(list(shares), Scalar(0, q))
