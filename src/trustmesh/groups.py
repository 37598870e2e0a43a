"""Prime-order group backends, scalar field arithmetic and protocol hashes.

Two interchangeable backends sit behind one additive-group API:

* ``ed25519`` -- the prime-order subgroup of the Ed25519 curve, for real runs.
* ``toy``    -- the order-11 subgroup of Z_23* (g=2, h=3), small enough that
  every protocol equation can be cross-checked by brute force in tests.

Scalars live in Z_q for the backend order q and are canonically reduced after
every operation.  Group elements are immutable; the second generator H backs
the blinding side of Pedersen-style commitments and is derived by hashing the
encoding of G onto the curve (fixed h=3 on the toy backend).
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence


# ---------------------------------------------------------------------------
# Scalars
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Scalar:
    """Residue modulo the group order q."""

    value: int
    q: int

    def __post_init__(self):
        if not 0 <= self.value < self.q:
            object.__setattr__(self, "value", self.value % self.q)

    def _coerce(self, other) -> int:
        if isinstance(other, Scalar):
            if other.q != self.q:
                raise ValueError("mixed scalar fields")
            return other.value
        if isinstance(other, int):
            return other % self.q
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Scalar((self.value + v) % self.q, self.q)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Scalar((self.value - v) % self.q, self.q)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Scalar((self.value * v) % self.q, self.q)

    __rmul__ = __mul__

    def __neg__(self):
        return Scalar((-self.value) % self.q, self.q)

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.value == other.value and self.q == other.q
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.q))

    def __repr__(self):
        return f"Scalar({self.value} mod {self.q})"


# ---------------------------------------------------------------------------
# Group elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True, eq=False)
class GroupElement:
    """Element of the backend's prime-order group, written additively."""

    backend: "GroupBackend"
    rep: object
    _enc: bytes | None = field(default=None, init=False, repr=False, compare=False)

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        return GroupElement(self.backend, self.backend._add(self.rep, other.rep))

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        return GroupElement(self.backend, self.backend._add(self.rep, self.backend._neg(other.rep)))

    def __neg__(self) -> "GroupElement":
        return GroupElement(self.backend, self.backend._neg(self.rep))

    def mul(self, k) -> "GroupElement":
        """Scalar multiplication k*P (k a Scalar or int)."""
        backend = self.backend
        return GroupElement(backend, backend._multi_mul(((backend._reduce(k), self.rep),)))

    __rmul__ = mul

    def __eq__(self, other):
        if not isinstance(other, GroupElement) or other.backend is not self.backend:
            return NotImplemented
        return self.backend._eq(self.rep, other.rep)

    def __hash__(self):
        return hash((self.backend.name, self.encode()))

    def is_identity(self) -> bool:
        return self.backend._eq(self.rep, self.backend._identity)

    def encode(self) -> bytes:
        # encoding normalizes projective coordinates (one field inversion);
        # cache it, elements are immutable
        if self._enc is None:
            object.__setattr__(self, "_enc", self.backend._encode(self.rep))
        return self._enc

    def __repr__(self):
        return f"GroupElement<{self.backend.name}:{self.encode().hex()}>"

    def _check(self, other):
        if not isinstance(other, GroupElement) or other.backend is not self.backend:
            raise ValueError("elements from different groups")


# ---------------------------------------------------------------------------
# Backend base
# ---------------------------------------------------------------------------


class GroupBackend:
    """Shared surface of a prime-order group with generators G and H."""

    name: str
    order: int
    scalar_bytes: int
    element_bytes: int
    # representations of G, H and the identity, declared per backend
    _gen: object
    _second_gen: object
    _identity: object

    # -- scalars ----------------------------------------------------------

    def scalar(self, value: int) -> Scalar:
        return Scalar(value % self.order, self.order)

    def random_scalar(self, rng) -> Scalar:
        return Scalar(rng.randbelow(self.order), self.order)

    def random_nonzero_scalar(self, rng) -> Scalar:
        return Scalar(1 + rng.randbelow(self.order - 1), self.order)

    def encode_scalar(self, s: Scalar) -> bytes:
        if s.q != self.order:
            raise ValueError("scalar from a different field")
        return s.value.to_bytes(self.scalar_bytes, "little")

    def decode_scalar(self, data: bytes) -> Scalar:
        if len(data) != self.scalar_bytes:
            raise ValueError(f"scalar encoding must be {self.scalar_bytes} bytes")
        value = int.from_bytes(data, "little")
        if value >= self.order:
            raise ValueError("non-canonical scalar encoding")
        return Scalar(value, self.order)

    # -- elements ---------------------------------------------------------

    def generator(self) -> GroupElement:
        return GroupElement(self, self._gen)

    def second_generator(self) -> GroupElement:
        return GroupElement(self, self._second_gen)

    def identity(self) -> GroupElement:
        return GroupElement(self, self._identity)

    def element_sum(self, elements: Iterable[GroupElement]) -> GroupElement:
        elements = list(elements)
        return self.multi_mul([1] * len(elements), elements)

    def multi_mul(self, scalars: Sequence, elements: Sequence[GroupElement]) -> GroupElement:
        """Sum of k_i*P_i (each k_i a Scalar or int); the identity when empty."""
        if len(scalars) != len(elements):
            raise ValueError("multi_mul needs one scalar per element")
        terms = []
        for k, e in zip(scalars, elements):
            if not isinstance(e, GroupElement) or e.backend is not self:
                raise ValueError("elements from different groups")
            terms.append((self._reduce(k), e.rep))
        return GroupElement(self, self._multi_mul(terms))

    def _reduce(self, k) -> int:
        """A Scalar of this field or an int, as an int in [0, q)."""
        if isinstance(k, Scalar):
            if k.q != self.order:
                raise ValueError("scalar from a different field")
            return k.value
        return k % self.order

    def decode_element(self, data: bytes) -> GroupElement:
        return GroupElement(self, self._decode(data))

    # hooks implemented per backend
    def _add(self, a, b):
        raise NotImplementedError

    def _neg(self, a):
        raise NotImplementedError

    def _multi_mul(self, terms):
        """Sum of k*a over (k, a) terms, each 0 <= k < order; every scalar
        multiplication, one term or many, comes here."""
        raise NotImplementedError

    def _eq(self, a, b) -> bool:
        raise NotImplementedError

    def _encode(self, a) -> bytes:
        raise NotImplementedError

    def _decode(self, data: bytes):
        raise NotImplementedError

    def __repr__(self):
        return f"<GroupBackend {self.name}>"


# ---------------------------------------------------------------------------
# Toy backend: order-11 subgroup of Z_23*
# ---------------------------------------------------------------------------


class ToyGroup(GroupBackend):
    """Multiplicative subgroup of Z_23* of prime order 11, g=2, h=3.

    Group operations are written additively in the API but are modular
    multiplications underneath, so tests can brute-force every discrete log.
    """

    name = "toy"
    modulus = 23
    order = 11
    scalar_bytes = 1
    element_bytes = 1

    _gen = 2
    _second_gen = 3
    _identity = 1

    def _add(self, a, b):
        return (a * b) % self.modulus

    def _neg(self, a):
        return pow(a, -1, self.modulus)

    def _multi_mul(self, terms):
        acc = self._identity
        for k, a in terms:
            acc = acc * pow(a, k, self.modulus) % self.modulus
        return acc

    def _eq(self, a, b):
        return a == b

    def _encode(self, a):
        return bytes([a])

    def _decode(self, data):
        if len(data) != 1:
            raise ValueError("toy element encoding must be 1 byte")
        a = data[0]
        if not (0 < a < self.modulus and pow(a, self.order, self.modulus) == 1):
            raise ValueError(f"{a} is not in the order-11 subgroup of Z_23*")
        return a


# ---------------------------------------------------------------------------
# Ed25519 backend: prime-order subgroup of the Ed25519 curve
# ---------------------------------------------------------------------------

_P = 2**255 - 19
_D = 37095705934669439343138083508754565189542113879843219016388785533085940283555  # -121665/121666
_SQRT_M1 = 19681161376707505956807079304988542015446066515923890162744021073123829784752  # 2^((p-1)/4)
_BASE_X = 15112221349535400772501151409588531511454012693041857206046113283949847762202
_BASE_Y = 46316835694926478169428394003475163141307993866256225615783033603165251855960

_D2 = 2 * _D % _P
_M = 2**255 - 1  # (v & _M) + 19 * (v >> 255) is v mod P, since 2^255 = 19 mod P
_INV_D = pow(_D, -1, _P)

# Curve25519, v^2 = u^3 + A*u^2 + u, is Ed25519 under u = (1+y)/(1-y) and
# v = sqrt(-(A+2)) * u/x (RFC 7748, section 4.1)
_MONT_A = 486662
_SQRT_MINUS_A2 = 6853475219497561581579357271197624642482790079785650197046958215289687604742

_WNAF_WIDTH = 5  # odd digits up to +-15: a table of 8 points per term
_SMALL_SCALAR = 1 << 16  # below this a term takes +-1 digits instead


def _ed_add(p1, p2):
    # complete, so _ed_add(p, p) is 2P; the products fold as in _ed_straus
    # and the coordinates returned are reduced
    x1, y1, z1, t1 = p1
    x2, y2, z2, t2 = p2
    a = (y1 - x1) * (y2 - x2)
    a = (a & _M) + 19 * (a >> 255)
    b = (y1 + x1) * (y2 + x2)
    b = (b & _M) + 19 * (b >> 255)
    c = t1 * t2
    c = (c & _M) + 19 * (c >> 255)
    c *= _D2
    c = (c & _M) + 19 * (c >> 255)
    d = z1 * z2 * 2
    d = (d & _M) + 19 * (d >> 255)
    e = b - a
    f = d - c
    g = d + c
    h = b + a
    return (e * f % _P, g * h % _P, f * g % _P, e * h % _P)


_ED_IDENTITY = (0, 1, 1, 0)


def _wnaf(k: int) -> list[tuple[int, int]]:
    """Width-w NAF of k > 0 as (bit position, odd digit) pairs.

    Digits lie in [-(2^(w-1) - 1), 2^(w-1) - 1], so a term's table holds
    the odd multiples of its point up to 2^(w-1) - 1.  w is 5 (digits up to
    +-15, 8 table points) for k >= 2^16 and 2 below, where the digits are
    +-1 and the table is the point itself: for a share id, building 8
    points would cost more than the additions they save.
    """
    width = _WNAF_WIDTH if k >= _SMALL_SCALAR else 2
    digits = []
    pos = 0
    while k:
        zeros = (k & -k).bit_length() - 1
        k >>= zeros
        pos += zeros
        d = k & ((1 << width) - 1)
        if d > 1 << (width - 1):
            d -= 1 << width
        digits.append((pos, d))
        # k - d is a multiple of 2^width: the next width - 1 digits are zero
        k = (k - d) >> width
        pos += width
    return digits


def _ed_cached(p) -> tuple:
    """P = (X, Y, Z, T) as (Y+X, Y-X, 2Z, 2*D*T), the form the Straus loop adds."""
    x, y, z, t = p
    return ((y + x) % _P, (y - x) % _P, 2 * z % _P, t * _D2 % _P)


def _ed_cached_multiples(p, top: int) -> dict:
    """{+-j: j*P} for odd j <= top, in cached form."""
    table = {}
    q = p
    two_p = None
    for j in range(1, top + 1, 2):
        if j > 1:
            if two_p is None:
                two_p = _ed_add(p, p)
            q = _ed_add(q, two_p)
        ypx, ymx, z2, t2d = table[j] = _ed_cached(q)
        table[-j] = (ymx, ypx, z2, _P - t2d)  # -(X, Y, Z, T) = (-X, Y, Z, -T)
    return table


# _SPREAD[b] moves bit j of the byte b to bit 32*j
_SPREAD = [sum(((b >> j) & 1) << (32 * j) for j in range(8)) for b in range(256)]


def _ed_comb(base) -> list[list]:
    """Four 8-tooth Lim-Lee combs for base B, in cached form.

    Entry idx-1 of comb t is sum(idx_i * 2^(64t + 8i) * B) over the bits
    idx_i of idx = 1..255 ("More Flexible Exponentiation with
    Precomputation", Lim and Lee, CRYPTO 1994).  Entry 2^i - 1 is tooth i,
    made by 8 doublings of the tooth before it, and entry 2^i + j - 1 is
    entry j - 1 plus tooth i.  The tables are built once per process.
    """
    combs = []
    for _ in range(4):
        comb = []
        for _ in range(8):
            comb += [base] + [_ed_add(p, base) for p in comb]
            for _ in range(8):
                base = _ed_add(base, base)
        combs.append([_ed_cached(p) for p in comb])
    return combs


def _comb_points(combs, k: int) -> list[tuple[int, tuple]]:
    """k*B as (bit position j < 8, comb entry) pairs for the Straus loop.

    Column j's index into comb t collects bit j of bytes 8t..8t+7 of k.
    Spreading byte b's bit j to bit 32j + b transposes the scalar, so byte
    4j + t of the result is that index.
    """
    spread = 0
    for b, byte in enumerate(k.to_bytes(32, "little")):
        spread |= _SPREAD[byte] << b
    return [(i >> 2, combs[i & 3][idx - 1])
            for i, idx in enumerate(spread.to_bytes(32, "little")) if idx]


def _ed_straus(terms, extra=()) -> tuple:
    """Sum of k*P over (k, P) terms, k >= 0, plus 2^j*E over (j, E) in extra.

    Every term shares one doubling chain (Straus, as Moller's "Algorithms
    for multi-exponentiation" interleaves wNAF digits), so a sum of m
    253-bit terms costs about 253 doublings and 43*m additions.  A term
    below 2^16, such as a share id, takes +-1 digits and no table (_wnaf),
    about one addition per three bits.  An extra point E is a cached point
    added at bit position j of the chain, with j doublings after it: comb
    entries sit at j = 0..7, so a sum of fixed bases alone costs at most 7
    doublings.  The additions use cached points (Hisil et al., "Twisted
    Edwards Curves Revisited").  T is formed only before an addition: the
    loop carries E and H of the last step, whose product is T, and
    doublings never use it.

    Reduction is lazy.  A fold, v = (v & M) + 19*(v >> 255) with
    M = 2^255 - 1, keeps v's residue mod P but not its size; ``>>`` floors,
    so negative values fold correctly too.  A product that is only added
    or subtracted before the next multiplication (a, b, c and d of an
    addition, where c's two products are folded one by one; a, b, c and e
    of a doubling) is folded once.  x, y and z are folded twice after every
    step.  One fold takes |v| < 2^(255+k) below 2^255 + 19*2^k, so with x,
    y and z below 2^256 in absolute value, a, b, d and H stay below 2^263, E
    below 2^265, c and so f and g below 2^284, and each product below
    2^570.  Two folds take any |v| < 2^570 into (-2^70, 2^255 + 2^70), so
    x, y and z are again below 2^256 and nothing grows from one step to
    the next.  A folded value can still be at or above P, or below 0, so
    every coordinate the function returns is reduced with % P.  _ed_add,
    which builds the wNAF tables and the combs, folds its products the same
    way.
    """
    adds: dict[int, list] = {}
    for pos, p in extra:
        adds.setdefault(pos, []).append(p)
    for k, p in terms:
        if not k:
            continue
        digits = _wnaf(k)
        table = _ed_cached_multiples(p, max(abs(d) for _, d in digits))
        for pos, d in digits:
            adds.setdefault(pos, []).append(table[d])
    if not adds:
        return _ED_IDENTITY
    P, M = _P, _M
    positions = sorted(adds, reverse=True)
    # start from the first point: (Y+X, Y-X, 2Z, 2dT) is (2X, 2Y, 2Z) with
    # e*h = 2T
    ypx, ymx, z, e = adds[positions[0]].pop()
    x, y, h = (ypx - ymx) % P, (ypx + ymx) % P, _INV_D
    for i, pos in enumerate(positions):
        for ypx, ymx, z2, t2d in adds[pos]:
            a = (y - x) * ymx
            a = (a & M) + 19 * (a >> 255)
            b = (y + x) * ypx
            b = (b & M) + 19 * (b >> 255)
            c = e * h
            c = (c & M) + 19 * (c >> 255)
            c *= t2d
            c = (c & M) + 19 * (c >> 255)
            d = z * z2
            d = (d & M) + 19 * (d >> 255)
            e = b - a
            f = d - c
            g = d + c
            h = b + a
            x, y, z = e * f, g * h, f * g
            x, y, z = (x & M) + 19 * (x >> 255), (y & M) + 19 * (y >> 255), (z & M) + 19 * (z >> 255)
            x, y, z = (x & M) + 19 * (x >> 255), (y & M) + 19 * (y >> 255), (z & M) + 19 * (z >> 255)
        for _ in range(pos - (positions[i + 1] if i + 1 < len(positions) else 0)):
            # s * s and z * z square one int object, which CPython does
            # faster than (x + y) * (x + y) or (2 * z) * z
            s = x + y
            a = x * x
            a = (a & M) + 19 * (a >> 255)
            b = y * y
            b = (b & M) + 19 * (b >> 255)
            c = z * z * 2
            c = (c & M) + 19 * (c >> 255)
            h = a + b
            e = h - s * s
            e = (e & M) + 19 * (e >> 255)
            g = a - b
            f = c + g
            x, y, z = e * f, g * h, f * g
            x, y, z = (x & M) + 19 * (x >> 255), (y & M) + 19 * (y >> 255), (z & M) + 19 * (z >> 255)
            x, y, z = (x & M) + 19 * (x >> 255), (y & M) + 19 * (y >> 255), (z & M) + 19 * (z >> 255)
    return (x % P, y % P, z % P, e * h % P)


def _pow22523(z: int) -> int:
    """z^(2^252 - 3) = z^((p-5)/8) mod p, for 0 <= z < p.

    The addition chain of pow22523 in the reference code of Bernstein et
    al., "High-speed high-security signatures" (CHES 2011): 252 squarings
    and 11 multiplications.  Each product is folded twice, as in
    _ed_straus, which keeps every value below 2^256, and only the result
    is fully reduced.
    """
    def sq_mul(v, n, w):  # v^(2^n) * w
        M = _M
        for _ in range(n):
            v *= v
            v = (v & M) + 19 * (v >> 255)
            v = (v & M) + 19 * (v >> 255)
        v *= w
        v = (v & M) + 19 * (v >> 255)
        return (v & M) + 19 * (v >> 255)

    # zN is z^(2^N - 1); z5 is z^(2*11 + 9)
    z9 = sq_mul(z, 3, z)
    z5 = sq_mul(sq_mul(z, 1, z9), 1, z9)
    z10 = sq_mul(z5, 5, z5)
    z20 = sq_mul(z10, 10, z10)
    z50 = sq_mul(sq_mul(z20, 20, z20), 10, z10)
    z100 = sq_mul(z50, 50, z50)
    z250 = sq_mul(sq_mul(z100, 100, z100), 50, z50)
    return sq_mul(z250, 2, z) % _P


def _sqrt_ratio(u: int, v: int):
    """A square root of u/v mod p (v nonzero), or None when u/v is not a square.

    One exponentiation and no inversion (RFC 8032, section 5.1.3).
    """
    x = u * pow(v, 3, _P) % _P * _pow22523(u * pow(v, 7, _P) % _P) % _P
    vx2 = v * x * x % _P
    if vx2 == u % _P:
        return x
    if vx2 == -u % _P:
        return x * _SQRT_M1 % _P
    return None


def _legendre(a: int) -> int:
    """The Legendre symbol (a/p): 1, -1, or 0 when p divides a.

    A binary Jacobi loop, about a quarter of the time of Euler's a^((p-1)/2).
    """
    a %= _P
    n, sign = _P, 1
    while a:
        zeros = (a & -a).bit_length() - 1
        a >>= zeros
        if zeros & 1 and (n & 7) in (3, 5):
            sign = -sign  # (2/n) = -1 for n = 3, 5 mod 8
        if a & n & 2:
            sign = -sign  # reciprocity flips the sign when both are 3 mod 4
        a, n = n % a, a
    return sign if n == 1 else 0


def _in_prime_subgroup(x: int, y: int) -> bool:
    """Whether the affine Ed25519 point (x, y) lies in the order-q subgroup.

    The curve group is Z_8 x Z_q, so the subgroup is 8E, and P is in it
    exactly when a half of a half of P is in 2E; halves differ by the
    order-2 point, which lies in 4E, so any half will do.  The test runs on
    the Montgomery model (u = (1+y)/(1-y), A = 486662), where:

    * a point with u != 0 is in 2E exactly when u is a square;
    * a half Q of P has w = u_Q + 1/u_Q = 2*(u_P +- t), t^2 = u_P^2 + A*u_P + 1.
      The root with w + A square belongs to a rational half (the two values
      of w + A multiply to the non-square A^2 - 4), and for it
      u_Q = w/2 + sqrt(u_P)*sqrt(w + A);
    * a half R of Q is in 2E exactly when w_R + 2 = (sqrt(u_R) + 1/sqrt(u_R))^2
      is a square.  Since 2 - A is a non-square, (w + A)*(w + 2) has the
      same Legendre symbol for both roots w, so this step needs no choice.

    Three square roots and two Legendre symbols, no scalar multiplication
    (after Pornin, "Point-Halving and Subgroup Membership in Twisted Edwards
    Curves", IACR ePrint 2022/1164).
    """
    if x == 0:
        return y == 1  # the identity; (0, -1) has order 2
    r = _sqrt_ratio(1 + y, (1 - y) * x * x)  # sqrt(u)/x; x^2 is a nonzero square
    if r is None:
        return False  # P is not in 2E
    s = r * x % _P
    u = s * s % _P
    t = _SQRT_MINUS_A2 * r % _P  # v/sqrt(u)
    h = (u + t) % _P  # w/2
    if _legendre(2 * h + _MONT_A) != 1:
        h = (u - t) % _P
    u = (h + s * _sqrt_ratio(2 * h + _MONT_A, 1)) % _P  # u_Q
    t = _sqrt_ratio(u * u + _MONT_A * u + 1, 1)
    if t is None:
        return False  # Q is not in 2E, so P is not in 4E
    w = 2 * (u + t)
    return _legendre((w + _MONT_A) * (w + 2)) == 1


class Ed25519Group(GroupBackend):
    """Prime-order subgroup of Ed25519 (order 2^252 + 27742...493).

    Multiples of G and H add one point per comb and bit column from four
    precomputed 8-tooth combs per generator (7 doublings and up to 32
    additions for k*G); every other point goes through the interleaved wNAF
    chain.  Both kinds of term, and sums of points, share one accumulation
    loop and its doublings.  Points are kept in extended twisted-Edwards
    coordinates.  Not hardened against timing side channels: the wNAF
    digits and table lookups depend on the scalar.
    """

    name = "ed25519"
    order = 2**252 + 27742317777372353535851937790883648493
    scalar_bytes = 32
    element_bytes = 32

    _gen = (_BASE_X, _BASE_Y, 1, _BASE_X * _BASE_Y % _P)
    _identity = _ED_IDENTITY

    def __init__(self):
        self._second_gen = self._derive_second_generator()

    # -- second generator ---------------------------------------------------

    def _derive_second_generator(self):
        """Hash the encoding of G to a curve point, clear the cofactor."""
        seed = self._encode(self._gen)
        counter = 0
        while True:
            digest = hashlib.sha512(b"trustmesh/generator-h" + seed + bytes([counter])).digest()
            try:
                candidate = self._decode_point(digest[:32])
            except ValueError:
                counter += 1
                continue
            cleared = _ed_straus(((8, candidate),))
            if not self._eq(cleared, _ED_IDENTITY):
                return cleared
            counter += 1

    # -- precomputed base combs ----------------------------------------------

    @functools.cached_property
    def _gen_combs(self):
        return _ed_comb(self._gen)

    @functools.cached_property
    def _second_combs(self):
        return _ed_comb(self._second_gen)

    # -- backend hooks --------------------------------------------------------

    _add = staticmethod(_ed_add)

    def _neg(self, a):
        x, y, z, t = a
        return ((-x) % _P, y, z, (-t) % _P)

    def _fixed_combs(self, a):
        """The combs of G or H when a is one of them, else None."""
        if a == self._gen:
            return self._gen_combs
        return self._second_combs if a == self._second_gen else None

    def _multi_mul(self, terms):
        # G and H terms add comb points in the chain's last 8 bit positions,
        # unit terms their own point after the last doubling; the rest
        # share the chain
        variable, extra = [], []
        for k, a in terms:
            combs = self._fixed_combs(a)
            if combs is not None:
                extra += _comb_points(combs, k)
            elif k == 1:
                extra.append((0, _ed_cached(a)))
            else:
                variable.append((k, a))
        return _ed_straus(variable, extra)

    def _eq(self, a, b):
        x1, y1, z1, _ = a
        x2, y2, z2, _ = b
        return (x1 * z2 - x2 * z1) % _P == 0 and (y1 * z2 - y2 * z1) % _P == 0

    def _encode(self, a):
        x, y, z, _ = a
        zinv = pow(z, -1, _P)
        xa = x * zinv % _P
        ya = y * zinv % _P
        return (ya | ((xa & 1) << 255)).to_bytes(32, "little")

    def _decode_point(self, data: bytes):
        """Decode 32 bytes to a curve point (may lie outside the subgroup)."""
        if len(data) != 32:
            raise ValueError("point encoding must be 32 bytes")
        raw = int.from_bytes(data, "little")
        sign = raw >> 255
        y = raw & ((1 << 255) - 1)
        if y >= _P:
            raise ValueError("non-canonical point encoding")
        y2 = y * y % _P
        x = _sqrt_ratio(y2 - 1, _D * y2 + 1)
        if x is None:
            raise ValueError("not a point on the curve")
        if x == 0 and sign:
            raise ValueError("invalid sign bit for x=0")
        if x & 1 != sign:
            x = _P - x
        return (x, y, 1, x * y % _P)

    def _decode(self, data: bytes):
        point = self._decode_point(data)
        # reject small-order components: decoded wire points must sit in the
        # prime-order subgroup
        if not _in_prime_subgroup(point[0], point[1]):
            raise ValueError("point is not in the prime-order subgroup")
        return point


# ---------------------------------------------------------------------------
# Backend registry
# ---------------------------------------------------------------------------

BACKENDS = {cls.name: cls for cls in (ToyGroup, Ed25519Group)}


@functools.cache
def get_backend(name: str) -> GroupBackend:
    """Return the shared instance of the backend class named in BACKENDS."""
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r} (expected {' or '.join(map(repr, BACKENDS))})")
    return BACKENDS[name]()


# ---------------------------------------------------------------------------
# Protocol hashes
# ---------------------------------------------------------------------------


def hash_bytes(domain_tag: str, parts: Sequence[bytes]) -> bytes:
    """SHA-512 over a domain tag and length-prefixed parts."""
    h = hashlib.sha512(domain_tag.encode("ascii"))
    for part in parts:
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.digest()


def hash_to_scalar(backend: GroupBackend, domain_tag: str, parts: Sequence[bytes]) -> Scalar:
    """Reduce the 512-bit domain-separated hash into Z_q."""
    return backend.scalar(int.from_bytes(hash_bytes(domain_tag, parts), "big"))


def id_bytes(participant_id: int) -> bytes:
    """Canonical 4-byte big-endian participant id used in transcripts."""
    return participant_id.to_bytes(4, "big")


# ---------------------------------------------------------------------------
# Random-weight batch checks
# ---------------------------------------------------------------------------


def failed_equations(
    backend: GroupBackend,
    equations: Mapping[int, tuple],
    weights: Callable[[], Mapping[int, int]],
) -> list[int]:
    """The sorted ids whose equation s*G == sum k*P fails.

    ``equations`` maps each id to (s, terms), terms a list of (k, P) pairs,
    each k a Scalar or int.  On a group of order above 2^128 two or more
    equations are first tested as one random-weight sum (Bellare, Garay and
    Rabin, EUROCRYPT 1998), one multi_mul weighted by the nonzero 128-bit
    values ``weights()`` returns per id; ``weights`` runs only then.  When
    that sum fails, or on toy, where a weight can vanish mod the order and
    drop its equation, each equation is tested alone to name the failing ones.
    """
    if len(equations) > 1 and backend.order > 1 << 128 and _sum_is_zero(backend, equations, weights()):
        return []
    return sorted(i for i in equations if not _sum_is_zero(backend, equations, {i: 1}))


def _sum_is_zero(backend: GroupBackend, equations, weights: Mapping[int, int]) -> bool:
    """sum_i w_i*(sum k*P) - (sum_i w_i*s_i)*G == 0 over the ids of ``weights``."""
    scalars = [-sum(w * backend._reduce(equations[i][0]) for i, w in weights.items())]
    elements = [backend.generator()]
    for i, w in weights.items():
        for k, point in equations[i][1]:
            scalars.append(w * backend._reduce(k))
            elements.append(point)
    return backend.multi_mul(scalars, elements).is_identity()


def batch_weights(
    domain_tag: str, context: Sequence[bytes], entries: Mapping[int, Sequence[bytes]]
) -> dict[int, int]:
    """Nonzero 128-bit weight per id for one random-weight test.

    The weights hash ``context`` and every (id, entry parts) in id order, so
    no entry can be chosen knowing its weight, and no rng is drawn.
    """
    ids = sorted(entries)
    seed = hash_bytes(domain_tag, list(context) + [
        part for i in ids for part in (id_bytes(i), *entries[i])
    ])
    return {i: int.from_bytes(hash_bytes(domain_tag, [seed, id_bytes(i)])[:16], "big") or 1 for i in ids}
