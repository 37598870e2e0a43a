"""Polynomials over Z_q and Lagrange interpolation.

Sharing polynomials store their constant term first: a degree-t polynomial
f(x) = c0 + c1*x + ... + ct*x^t backs a (t+1)-of-n sharing with f(0) = c0 the
shared secret.  Participant ids are integers >= 1; the evaluation point 0 is
reserved for the secret.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .groups import Scalar


@dataclass(frozen=True, slots=True)
class Polynomial:
    """Coefficient list over Z_q, constant term first."""

    coefficients: tuple[Scalar, ...]

    def __post_init__(self):
        if not self.coefficients:
            raise ValueError("polynomial needs at least one coefficient")
        q = self.coefficients[0].q
        if any(c.q != q for c in self.coefficients):
            raise ValueError("mixed scalar fields in one polynomial")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def q(self) -> int:
        return self.coefficients[0].q

    def evaluate(self, x: int) -> Scalar:
        """Horner evaluation at the integer x."""
        acc = 0
        q = self.q
        for c in reversed(self.coefficients):
            acc = (acc * x + c.value) % q
        return Scalar(acc, q)


def random_polynomial(secret: Scalar, degree: int, rng) -> Polynomial:
    """Uniform polynomial with the given constant term.

    ``degree`` must be >= 1: a degree-0 "sharing" would hand the secret to
    every participant.
    """
    if degree < 1:
        raise ValueError("sharing polynomial must have degree >= 1")
    coeffs = [secret]
    for _ in range(degree):
        coeffs.append(Scalar(rng.randbelow(secret.q), secret.q))
    return Polynomial(tuple(coeffs))


def _check_ids(ids: Sequence[int], q: int) -> None:
    # ids are field elements: two that agree mod q are the same point
    residues = {i % q for i in ids}
    if len(residues) != len(ids):
        raise ValueError("duplicate participant ids")
    if 0 in residues:
        raise ValueError("participant id 0 is reserved for the secret")


def lagrange_coefficient(index: int, coalition: Iterable[int], x: Scalar) -> Scalar:
    """Interpolation weight of ``index`` within ``coalition``, evaluated at x.

    For any polynomial f of degree < |coalition|, summing
    lagrange_coefficient(i, coalition, x) * f(i) over the coalition gives f(x).
    """
    ids = sorted(coalition)
    q = x.q
    _check_ids(ids, q)
    if index not in ids:
        raise ValueError(f"index {index} is not in the coalition")
    num, den = 1, 1
    for other in ids:
        if other == index:
            continue
        num = num * (x.value - other) % q
        den = den * (index - other) % q
    return Scalar(num * pow(den, -1, q) % q, q)


def interpolate_at(points: Sequence[tuple[int, Scalar]], x: Scalar) -> Scalar:
    """Evaluate at x the unique polynomial through the given (id, value) points."""
    if not points:
        raise ValueError("need at least one point")
    ids = [i for i, _ in points]
    return sum((y * lagrange_coefficient(i, ids, x) for i, y in points), Scalar(0, x.q))


def interpolate_polynomial(points: Sequence[tuple[int, Scalar]]) -> Polynomial:
    """Reconstruct the full degree-(len-1) polynomial through the points."""
    if not points:
        raise ValueError("need at least one point")
    ids = [i for i, _ in points]
    q = points[0][1].q
    _check_ids(ids, q)
    size = len(points)
    total = [0] * size
    for i, y in points:
        # expand the Lagrange basis polynomial for node i
        basis = [1]
        den = 1
        for j in ids:
            if j == i:
                continue
            # basis *= (x - j)
            shifted = [0] + basis
            for k in range(len(basis)):
                shifted[k] = (shifted[k] - j * basis[k]) % q
            basis = shifted
            den = den * (i - j) % q
        scale = y.value * pow(den, -1, q) % q
        for k in range(len(basis)):
            total[k] = (total[k] + scale * basis[k]) % q
    return Polynomial(tuple(Scalar(c, q) for c in total))
