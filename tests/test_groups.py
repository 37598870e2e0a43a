"""Group backends checked against independent modular-arithmetic oracles.

The toy backend (order-11 subgroup of Z_23*, g=2, h=3) is small enough to
check every operation exhaustively with plain pow()/% arithmetic that never
touches the library's own group code.
"""

import hashlib

import pytest

from trustmesh import groups
from trustmesh.groups import GroupElement, Scalar, get_backend, hash_bytes, hash_to_scalar
from trustmesh.polynomials import lagrange_coefficient
from trustmesh.rng import SeededRng
from trustmesh.sharing import CommitmentVector, SharePacket
from trustmesh.signing import Signature

TOY_P = 23
TOY_Q = 11
TOY_G = 2
TOY_H = 3
SUBGROUP = sorted(pow(TOY_G, k, TOY_P) for k in range(TOY_Q))


class TestToyOracle:
    def test_subgroup_is_order_11(self):
        assert len(set(SUBGROUP)) == 11
        assert pow(TOY_G, TOY_Q, TOY_P) == 1
        assert pow(TOY_H, TOY_Q, TOY_P) == 1

    def test_scalar_mul_matches_modexp_for_all_exponents(self, toy):
        g = toy.generator()
        for a in range(TOY_Q + 1):  # includes a = q -> identity
            assert (toy.scalar(a) * g).rep == pow(TOY_G, a % TOY_Q, TOY_P)

    def test_scalar_mul_matches_modexp_all_bases_all_exponents(self, toy):
        for base in SUBGROUP:
            element = toy.decode_element(bytes([base]))
            for a in range(TOY_Q):
                assert (toy.scalar(a) * element).rep == pow(base, a, TOY_P)

    def test_add_matches_modmul_exhaustive(self, toy):
        for x in SUBGROUP:
            for y in SUBGROUP:
                ex = toy.decode_element(bytes([x]))
                ey = toy.decode_element(bytes([y]))
                assert (ex + ey).rep == (x * y) % TOY_P

    def test_neg_matches_modinv_exhaustive(self, toy):
        for x in SUBGROUP:
            ex = toy.decode_element(bytes([x]))
            assert (-ex).rep == pow(x, TOY_P - 2, TOY_P)
            assert (ex + (-ex)).is_identity()

    def test_sub(self, toy):
        g, h = toy.generator(), toy.second_generator()
        assert ((g + h) - h) == g

    def test_second_generator_fixed(self, toy):
        assert toy.second_generator().rep == TOY_H

    def test_order_annihilates_every_element(self, toy):
        for x in SUBGROUP:
            assert (TOY_Q * toy.decode_element(bytes([x]))).is_identity()

    def test_decode_rejects_non_subgroup_bytes(self, toy):
        for v in range(256):
            if not (0 < v < TOY_P) or pow(v, TOY_Q, TOY_P) != 1:
                with pytest.raises(ValueError):
                    toy.decode_element(bytes([v]))

    def test_multi_mul_matches_modexp_exhaustive(self, toy):
        elements = [toy.decode_element(bytes([x])) for x in SUBGROUP]
        for x, ex in zip(SUBGROUP, elements):
            for y, ey in zip(SUBGROUP, elements):
                for a in range(TOY_Q):
                    for b in range(TOY_Q):
                        want = pow(x, a, TOY_P) * pow(y, b, TOY_P) % TOY_P
                        assert toy.multi_mul([a, toy.scalar(b)], [ex, ey]).rep == want

    def test_multi_mul_rejects_mismatched_inputs(self, toy, ed25519):
        g = toy.generator()
        with pytest.raises(ValueError):
            toy.multi_mul([1, 2], [g])
        with pytest.raises(ValueError):
            toy.multi_mul([1], [ed25519.generator()])
        with pytest.raises(ValueError):
            toy.multi_mul([ed25519.scalar(1)], [g])


class TestScalarField:
    def test_canonical_reduction(self, backend):
        q = backend.order
        assert backend.scalar(q).value == 0
        assert backend.scalar(-1).value == q - 1
        assert backend.scalar(2 * q + 3).value == 3

    def test_field_axioms_randomized(self, backend):
        rng = SeededRng(f"axioms-{backend.name}")
        q = backend.order
        for _ in range(1000):
            a = backend.scalar(rng.randbelow(q))
            b = backend.scalar(rng.randbelow(q))
            c = backend.scalar(rng.randbelow(q))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == backend.scalar(0)
            if a.value != 0:
                assert a * backend.scalar(pow(a.value, -1, q)) == backend.scalar(1)

    def test_equal_scalars_hash_equal(self):
        # a Scalar equals only a Scalar of its field, never an int, so
        # equality and hash agree
        a, b = Scalar(3, 11), Scalar(14, 11)
        assert a == b and hash(a) == hash(b)
        assert a != 3 and a != 14 and a != Scalar(3, 13)

    def test_mixed_field_rejected(self, toy, ed25519):
        with pytest.raises(ValueError):
            toy.scalar(1) + ed25519.scalar(1)

    def test_division(self, toy):
        # the Lagrange coefficient of id 1 in {1, 2} at 0 is (0 - 2) / (1 - 2) = 2 mod 11
        assert lagrange_coefficient(1, [1, 2], toy.scalar(0)).value == 2

    def test_scalar_encoding_round_trip(self, backend):
        rng = SeededRng(f"scalar-enc-{backend.name}")
        for _ in range(50):
            s = backend.random_scalar(rng)
            assert backend.decode_scalar(backend.encode_scalar(s)) == s

    def test_scalar_decode_rejects_non_canonical(self, backend):
        too_big = backend.order.to_bytes(backend.scalar_bytes, "little")
        with pytest.raises(ValueError):
            backend.decode_scalar(too_big)


class TestEd25519:
    def test_order_matches_known_constant(self, ed25519):
        assert ed25519.order == 2**252 + 27742317777372353535851937790883648493

    def test_known_scalar_mult_vector(self, ed25519):
        # independently published Ed25519 value for 10 * basepoint
        want = "2c7be86ab07488ba43e8e03d85a67625cfbf98c8544de4c877241b7aaafc7fe3"
        assert (ed25519.scalar(10) * ed25519.generator()).encode().hex() == want

    def test_generators_annihilated_by_order(self, ed25519):
        assert (ed25519.order * ed25519.generator()).is_identity()
        assert (ed25519.order * ed25519.second_generator()).is_identity()

    def test_second_generator_differs_from_g(self, ed25519):
        h = ed25519.second_generator()
        assert h != ed25519.generator()
        assert not h.is_identity()
        assert ed25519.decode_element(h.encode()) == h

    def test_element_encoding_round_trip(self, ed25519):
        rng = SeededRng("ed-enc")
        g = ed25519.generator()
        for _ in range(25):
            p = ed25519.random_scalar(rng) * g
            assert ed25519.decode_element(p.encode()) == p

    def test_decode_rejects_garbage(self, ed25519):
        with pytest.raises(ValueError):
            ed25519.decode_element(b"\xff" * 32)
        with pytest.raises(ValueError):
            ed25519.decode_element(b"\x00")

    def test_group_laws_randomized(self, ed25519):
        rng = SeededRng("ed-laws")
        g = ed25519.generator()
        for _ in range(20):
            a = ed25519.random_scalar(rng)
            b = ed25519.random_scalar(rng)
            assert a * g + b * g == (a + b) * g
            assert a * (b * g) == (a * b) * g

    def test_identity_behaviour(self, ed25519):
        g = ed25519.generator()
        ident = ed25519.identity()
        assert g + ident == g
        assert (ed25519.scalar(0) * g).is_identity()


def reference_mul(k: int, point: GroupElement) -> GroupElement:
    """k*P by plain double-and-add over point additions: no wNAF, no tables."""
    acc = point.backend.identity()
    while k:
        if k & 1:
            acc = acc + point
        point = point + point
        k >>= 1
    return acc


class TestEd25519Kernel:
    """Variable-base and multi-scalar muls against the double-and-add reference."""

    ORDER = 2**252 + 27742317777372353535851937790883648493
    EDGE_SCALARS = (0, 1, 15, 16, 17, 31, 32, 33, 2**16 - 1, 2**16, 2**252, ORDER - 1)

    @pytest.fixture(scope="class")
    def points(self, ed25519):
        rng = SeededRng("kernel-points")
        g = ed25519.generator()
        return [ed25519.random_scalar(rng) * g + ed25519.second_generator() for _ in range(3)]

    def scalars(self, ed25519):
        rng = SeededRng("kernel-scalars")
        return list(self.EDGE_SCALARS) + [ed25519.random_scalar(rng).value for _ in range(4)]

    def test_mul_matches_reference(self, ed25519, points):
        for k in self.scalars(ed25519):
            assert points[0].mul(k) == reference_mul(k, points[0])

    def test_multi_mul_matches_reference(self, ed25519, points):
        ks = self.scalars(ed25519)
        for i, k in enumerate(ks):
            others = (ks[(i + 5) % len(ks)], ks[(i + 11) % len(ks)])
            want = reference_mul(k, points[0]) + reference_mul(others[0], points[1])
            want = want + reference_mul(others[1], points[2])
            assert ed25519.multi_mul([k, *others], points) == want

    def test_empty_sum_is_identity(self, ed25519):
        assert ed25519.multi_mul([], []).is_identity()

    def test_repeated_points_and_identity(self, ed25519, points):
        p = points[0]
        a, b = self.scalars(ed25519)[-2:]
        assert ed25519.multi_mul([a, b], [p, p]) == reference_mul((a + b) % self.ORDER, p)
        assert ed25519.multi_mul([a, -a], [p, p]).is_identity()
        ident = ed25519.identity()
        assert ed25519.multi_mul([a, b], [ident, p]) == reference_mul(b, p)
        assert ed25519.multi_mul([a], [ident]).is_identity()
        assert ident.mul(a).is_identity()

    def test_generators_mixed_with_other_points(self, ed25519, points):
        g, h = ed25519.generator(), ed25519.second_generator()
        ks = self.scalars(ed25519)[-4:]
        elements = [g, points[0], h, points[1]]
        want = ed25519.identity()
        for k, e in zip(ks, elements):
            want = want + reference_mul(k, e)
        assert ed25519.multi_mul(ks, elements) == want
        assert ed25519.multi_mul(ks[:2], [g, g]) == reference_mul(sum(ks[:2]), g)


class TestEd25519Torsion:
    """decode_element keeps every point with a small-order component out."""

    @pytest.fixture(scope="class")
    def torsion(self, ed25519):
        """The 8-torsion points T_j = j*T_1, j = 0..7, T_1 of order 8."""
        q = ed25519.order
        for y in range(2, 200):
            try:
                x = GroupElement(ed25519, ed25519._decode_point(y.to_bytes(32, "little")))
            except ValueError:
                continue
            t1 = reference_mul(q, x)
            if not reference_mul(4, t1).is_identity():
                break
        points = [reference_mul(j, t1) for j in range(8)]
        assert points[0].is_identity() and reference_mul(8, t1).is_identity()
        assert len({p.encode() for p in points}) == 8
        return points

    def test_rejects_subgroup_point_plus_torsion(self, ed25519, torsion):
        rng = SeededRng("torsion")
        p = ed25519.random_scalar(rng) * ed25519.generator()
        for t in torsion[1:]:
            with pytest.raises(ValueError, match="subgroup"):
                ed25519.decode_element((p + t).encode())

    def test_rejects_every_small_order_encoding(self, ed25519, torsion):
        field_p = 2**255 - 19
        encodings = set()
        for t in torsion:
            enc = int.from_bytes(t.encode(), "little")
            encodings |= {enc, enc ^ (1 << 255)}
        # non-canonical y = p and y = p + 1 (the order-4 points and the identity)
        for y in (field_p, field_p + 1):
            encodings |= {y, y | (1 << 255)}
        # the identity is the one small-order point inside the subgroup
        encodings.remove(int.from_bytes(torsion[0].encode(), "little"))
        assert len(encodings) == 13
        for enc in encodings:
            with pytest.raises(ValueError):
                ed25519.decode_element(enc.to_bytes(32, "little"))

    def test_accepts_clean_subgroup_points(self, ed25519):
        rng = SeededRng("clean")
        g = ed25519.generator()
        clean = [g, ed25519.second_generator(), ed25519.identity()]
        clean += [ed25519.random_scalar(rng) * g for _ in range(5)]
        for p in clean:
            assert ed25519.decode_element(p.encode()) == p


FIELD_P = 2**255 - 19


def affine(point: GroupElement) -> tuple[int, int]:
    x, y, z, _ = point.rep
    zinv = pow(z, FIELD_P - 2, FIELD_P)
    return x * zinv % FIELD_P, y * zinv % FIELD_P


def in_subgroup_oracle(point: GroupElement) -> bool:
    """[q]P == O by affine double-and-add: the reference for the halving test,
    sharing no curve code with the library."""
    return affine_mul(point.backend.order, affine(point)) == (0, 1)


class TestEd25519PointCode:
    """The halving subgroup test, the field helpers and encode, against oracles."""

    @pytest.fixture(scope="class")
    def torsion(self, ed25519):
        """The 8-torsion points j*T, j = 0..7, T of order 8 (from a random curve point)."""
        rng = SeededRng("point-code-torsion")
        while True:
            data = rng.getrandbits(256).to_bytes(32, "little")
            try:
                x = GroupElement(ed25519, ed25519._decode_point(data))
            except ValueError:
                continue
            t1 = reference_mul(ed25519.order, x)
            if not reference_mul(4, t1).is_identity():
                return [reference_mul(j, t1) for j in range(8)]

    def test_membership_matches_q_times_p_on_every_coset(self, ed25519, torsion):
        rng = SeededRng("point-code-cosets")
        g = ed25519.generator()
        bases = [ed25519.identity()] + [ed25519.random_scalar(rng) * g for _ in range(12)]
        for base in bases:
            for j, t in enumerate(torsion):
                point = base + t
                assert groups._in_prime_subgroup(*affine(point)) is (j == 0)
                assert in_subgroup_oracle(point) is (j == 0)

    def test_membership_matches_q_times_p_on_random_curve_points(self, ed25519):
        rng = SeededRng("point-code-random")
        verdicts = []
        while len(verdicts) < 60:
            data = rng.getrandbits(256).to_bytes(32, "little")
            try:
                point = GroupElement(ed25519, ed25519._decode_point(data))
            except ValueError:
                continue
            verdicts.append(in_subgroup_oracle(point))
            assert groups._in_prime_subgroup(*affine(point)) is verdicts[-1]
        assert True in verdicts and False in verdicts

    def test_encode_matches_fermat_inversion(self, ed25519, torsion):
        def fermat_encode(point):
            x, y, z, _ = point.rep
            zinv = pow(z, FIELD_P - 2, FIELD_P)
            xa, ya = x * zinv % FIELD_P, y * zinv % FIELD_P
            return (ya | ((xa & 1) << 255)).to_bytes(32, "little")

        rng = SeededRng("point-code-encode")
        g = ed25519.generator()
        points = [ed25519.identity(), *torsion]
        points += [ed25519.random_scalar(rng) * g + torsion[j % 8] for j in range(20)]
        for point in points:
            assert ed25519._encode(point.rep) == fermat_encode(point)

    def test_legendre_and_square_roots_match_euler(self):
        rng = SeededRng("point-code-field")
        values = [0, 1, 2, FIELD_P - 1] + [rng.randbelow(FIELD_P) for _ in range(200)]
        for a in values:
            euler = pow(a, (FIELD_P - 1) // 2, FIELD_P)
            want = {0: 0, 1: 1, FIELD_P - 1: -1}[euler]
            assert groups._legendre(a) == want
            assert groups._legendre(a + 5 * FIELD_P) == want
            b = 1 + rng.randbelow(FIELD_P - 1)
            root = groups._sqrt_ratio(a, b)
            if pow(a * b, (FIELD_P - 1) // 2, FIELD_P) == FIELD_P - 1:
                assert root is None
            else:
                assert b * root * root % FIELD_P == a

    def test_pow22523_matches_modexp(self):
        rng = SeededRng("point-code-pow22523")
        square, non_square = 4, 2  # 2 is a non-square since p = 5 mod 8
        values = [0, 1, 2, FIELD_P - 2, FIELD_P - 1, (FIELD_P - 1) // 2, square, non_square]
        values += [rng.randbelow(FIELD_P) for _ in range(200)]
        for z in values:
            assert groups._pow22523(z) == pow(z, (FIELD_P - 5) // 8, FIELD_P)

    def test_literal_constants_satisfy_their_equations(self, ed25519):
        p, a = FIELD_P, groups._MONT_A
        assert groups._P == p
        assert groups._D * 121666 % p == -121665 % p
        assert groups._SQRT_M1 == pow(2, (p - 1) // 4, p)
        assert groups._SQRT_M1**2 % p == p - 1
        assert a == 486662
        assert groups._SQRT_MINUS_A2**2 % p == -(a + 2) % p
        # the Montgomery map sends G to Curve25519's base point u = 9 (RFC 7748)
        x, y = affine(ed25519.generator())
        assert (-x * x + y * y - 1 - groups._D * x * x % p * y * y) % p == 0
        u = (1 + y) * pow(1 - y, p - 2, p) % p
        v = groups._SQRT_MINUS_A2 * u % p * pow(x, p - 2, p) % p
        assert u == 9
        assert (v * v - (u**3 + a * u * u + u)) % p == 0


class TestProtocolHashes:
    def test_deterministic(self, backend):
        parts = [b"alpha", b"beta"]
        assert hash_to_scalar(backend, "H", parts) == hash_to_scalar(backend, "H", parts)

    def test_domain_separation_strict_on_curve(self, ed25519):
        rng = SeededRng("domains")
        for _ in range(100):
            part = rng.getrandbits(128).to_bytes(16, "big")
            h1 = hash_to_scalar(ed25519, "H1", [part])
            h2 = hash_to_scalar(ed25519, "H2", [part])
            assert h1 != h2  # a collision needs ~2^-252 bad luck per trial

    def test_domain_separation_toy(self, toy):
        # with q=11 individual collisions are inevitable; the tagged functions
        # must still be independent, i.e. not the same function
        rng = SeededRng("domains-toy")
        parts = [rng.getrandbits(64).to_bytes(8, "big") for _ in range(100)]
        seq1 = [hash_to_scalar(toy, "H1", [p]).value for p in parts]
        seq2 = [hash_to_scalar(toy, "H2", [p]).value for p in parts]
        assert seq1 != seq2

    def test_output_in_range(self, backend):
        rng = SeededRng("range")
        for _ in range(1000):
            part = rng.getrandbits(64).to_bytes(8, "big")
            assert 0 <= hash_to_scalar(backend, "H", [part]).value < backend.order

    def test_length_prefixing_blocks_ambiguity(self, backend):
        a = hash_to_scalar(backend, "H", [b"ab", b"c"])
        b = hash_to_scalar(backend, "H", [b"a", b"bc"])
        assert a != b

    def test_hash_bytes_length(self):
        assert len(hash_bytes("tag", [b"x"])) == 64


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = SeededRng(99)
        b = SeededRng(99)
        assert [a.randbelow(1000) for _ in range(20)] == [b.randbelow(1000) for _ in range(20)]

    def test_fork_is_deterministic_and_independent(self):
        a = SeededRng(7).fork("x")
        b = SeededRng(7).fork("x")
        c = SeededRng(7).fork("y")
        seq_a = [a.randbelow(1 << 30) for _ in range(10)]
        seq_b = [b.randbelow(1 << 30) for _ in range(10)]
        seq_c = [c.randbelow(1 << 30) for _ in range(10)]
        assert seq_a == seq_b
        assert seq_a != seq_c

    def test_seed_types(self):
        assert SeededRng(b"bytes").randbelow(10) == SeededRng(b"bytes").randbelow(10)
        assert SeededRng("text").randbelow(10) == SeededRng("text").randbelow(10)
        with pytest.raises(TypeError):
            SeededRng(3.14)


class TestFixedBaseAndSums:
    """The G/H window path and element_sum against plain point additions."""

    WINDOW_EDGES = (0, 1, 15, 16, 17, 255, 256, 2**252, TestEd25519Kernel.ORDER - 1)

    @staticmethod
    def pairwise_sum(backend, elements):
        acc = backend.identity()
        for e in elements:
            acc = acc + e
        return acc

    def test_fixed_base_matches_reference_at_window_edges(self, ed25519):
        rng = SeededRng("fixed-base-edges")
        ks = list(self.WINDOW_EDGES) + [ed25519.random_scalar(rng).value for _ in range(6)]
        for base in (ed25519.generator(), ed25519.second_generator()):
            for k in ks:
                want = reference_mul(k, base)
                assert base.mul(k) == want
                assert ed25519.scalar(k) * base == want
                assert ed25519.multi_mul([k], [base]) == want

    def test_element_sum_matches_pairwise_sum(self, ed25519):
        rng = SeededRng("element-sum")
        g, h = ed25519.generator(), ed25519.second_generator()
        p = ed25519.random_scalar(rng) * g
        assert ed25519.element_sum([]).is_identity()
        mixed = [g, h, p, -p, ed25519.identity()]
        assert ed25519.element_sum(mixed) == self.pairwise_sum(ed25519, mixed) == g + h
        many = [ed25519.random_scalar(rng) * (g if i % 3 else h) for i in range(40)] + [g, h, g]
        assert ed25519.element_sum(many) == self.pairwise_sum(ed25519, many)
        assert ed25519.element_sum(iter(many)) == self.pairwise_sum(ed25519, many)

    def test_element_sum_matches_modmul_on_toy(self, toy):
        assert toy.element_sum([]).rep == 1
        for x in SUBGROUP:
            for y in SUBGROUP:
                elements = [toy.decode_element(bytes([x])), toy.decode_element(bytes([y]))]
                assert toy.element_sum(elements).rep == x * y % TOY_P


class TestCombTables:
    """k*G and k*H through the comb tables against plain point additions.

    The combs split a scalar into four 64-bit tables with eight teeth 8 bits
    apart; the scalars below hit each tooth, each column and each table edge.
    """

    ORDER = TestEd25519Kernel.ORDER
    BOUNDARIES = (2**64 - 1, 2**64, 2**128, 2**192, ORDER - 1)

    @pytest.fixture(params=["G", "H"])
    def base(self, request, ed25519):
        return ed25519.generator() if request.param == "G" else ed25519.second_generator()

    def test_every_single_bit(self, base):
        # 2^b * B by b point doublings, which is what reference_mul computes
        want = base
        for b in range(253):
            assert base.mul(1 << b) == want, b
            want = want + want

    def test_every_full_column(self, base):
        for j in range(8):
            # bits below 252 keep k < q, so the combs see the column unreduced
            k = sum(1 << (8 * i + j) for i in range(32) if 8 * i + j < 252)
            assert base.mul(k) == reference_mul(k, base), j

    def test_every_comb_entry(self, base):
        # tooth m is 2^(8m) * B by repeated doubling; entry idx of comb t sums
        # tooth 8t + i over the set bits i of idx
        teeth = [base]
        for _ in range(31):
            tooth = teeth[-1]
            for _ in range(8):
                tooth = tooth + tooth
            teeth.append(tooth)
        for t in range(4):
            for idx in range(1, 256):
                bits = [i for i in range(8) if idx >> i & 1]
                k = sum(1 << (64 * t + 8 * i) for i in bits)
                want = teeth[8 * t + bits[0]]
                for i in bits[1:]:
                    want = want + teeth[8 * t + i]
                assert base.mul(k) == want, (t, idx)

    def test_table_boundaries(self, base):
        for k in self.BOUNDARIES:
            assert base.mul(k) == reference_mul(k, base), k

    def test_multi_mul_mixes_combs_variable_unit_and_zero_terms(self, ed25519):
        rng = SeededRng("comb-multi-mul")
        g, h = ed25519.generator(), ed25519.second_generator()
        p = ed25519.random_scalar(rng) * g + h
        unit = ed25519.random_scalar(rng) * h
        a, b, c = (ed25519.random_scalar(rng).value for _ in range(3))
        got = ed25519.multi_mul([a, b, c, 1, 0], [g, h, p, unit, g])
        assert got == reference_mul(a, g) + reference_mul(b, h) + reference_mul(c, p) + unit


# RFC 8032, section 5.1: d = -121665/121666, computed here rather than read
# from the library
ED_D = -121665 * pow(121666, -1, FIELD_P) % FIELD_P


def affine_add(p1: tuple[int, int], p2: tuple[int, int]) -> tuple[int, int]:
    """Affine Edwards addition with field inversions (RFC 8032, section 5.1.4)."""
    (x1, y1), (x2, y2) = p1, p2
    k = ED_D * x1 * x2 * y1 * y2 % FIELD_P
    x3 = (x1 * y2 + x2 * y1) * pow(1 + k, -1, FIELD_P)
    y3 = (y1 * y2 + x1 * x2) * pow(1 - k, -1, FIELD_P)
    return x3 % FIELD_P, y3 % FIELD_P


def affine_mul(k: int, point: tuple[int, int]) -> tuple[int, int]:
    """k*P by double-and-add over affine_add: shares no code with the library."""
    acc = (0, 1)
    while k:
        if k & 1:
            acc = affine_add(acc, point)
        point = affine_add(point, point)
        k >>= 1
    return acc


def extended_to_affine(rep: tuple) -> tuple[int, int]:
    """The affine point of a library point (X, Y, Z, T), which must be fully
    reduced and consistent (T*Z = X*Y)."""
    x, y, z, t = rep
    assert all(0 <= v < FIELD_P for v in rep), rep
    assert t * z % FIELD_P == x * y % FIELD_P
    zinv = pow(z, -1, FIELD_P)
    return x * zinv % FIELD_P, y * zinv % FIELD_P


def small_x_points(count: int) -> list[tuple[int, int]]:
    """Affine curve points with the smallest x > 0 and the x of their
    negations, P - x: the largest coordinates a point can have."""
    points = []
    x = 0
    while len(points) < 2 * count:
        x += 1
        y2 = (1 + x * x) * pow(1 - ED_D * x * x, -1, FIELD_P) % FIELD_P
        y = pow(y2, (FIELD_P + 3) // 8, FIELD_P)
        if y * y % FIELD_P != y2:
            y = y * pow(2, (FIELD_P - 1) // 4, FIELD_P) % FIELD_P
        if y * y % FIELD_P == y2:
            points += [(x, y), (FIELD_P - x, y)]
    return points


class TestAffineOracle:
    """The extended-coordinate kernels against affine arithmetic with inversions.

    reference_mul adds through _ed_add, so it cannot see a fault in the
    addition law itself; this oracle shares no curve code with the library.
    """

    ORDER = TestEd25519Kernel.ORDER
    SCALARS = (0, 1, 2, 2**16 - 1, 2**16, ORDER - 1)

    @pytest.fixture(scope="class")
    def points(self, ed25519):
        """Subgroup points, their negations (X is P minus the original X)
        and the identity."""
        rng = SeededRng("affine-oracle-points")
        g, h = ed25519.generator(), ed25519.second_generator()
        points = [g, h] + [ed25519.random_scalar(rng) * g + h for _ in range(2)]
        return points + [-p for p in points] + [ed25519.identity()]

    @pytest.fixture(scope="class")
    def outside(self):
        """Curve points outside the subgroup whose x is 1, 2, ... or P - 1,
        P - 2, ..., each with Z = 1 and with Z != 1."""
        reps = []
        for x, y in small_x_points(2):
            z = pow(3, 200 + x, FIELD_P)
            reps += [(x, y, 1, x * y % FIELD_P),
                     (x * z % FIELD_P, y * z % FIELD_P, z, x * y * z % FIELD_P)]
        return reps

    def test_add_and_double(self, points, outside):
        reps = [p.rep for p in points] + outside
        for p1 in reps:
            a1 = extended_to_affine(p1)
            assert extended_to_affine(groups._ed_add(p1, p1)) == affine_add(a1, a1)
            for p2 in reps:
                want = affine_add(a1, extended_to_affine(p2))
                assert extended_to_affine(groups._ed_add(p1, p2)) == want

    def test_mul(self, ed25519, points):
        rng = SeededRng("affine-oracle-mul")
        ks = list(self.SCALARS) + [ed25519.random_scalar(rng).value]
        for p in points:
            a = extended_to_affine(p.rep)
            for k in ks:
                assert extended_to_affine(p.mul(k).rep) == affine_mul(k, a), k

    def test_mul_outside_the_subgroup(self, outside):
        for rep in outside:
            a = extended_to_affine(rep)
            for k in (2, 3, 2**16 - 1, 2**16, self.ORDER - 1):
                assert extended_to_affine(groups._ed_straus(((k, rep),))) == affine_mul(k, a), k

    def test_mul_by_small_scalars(self, ed25519, points, outside):
        # scalars below 2^16 take +-1 digits: every share id the workloads
        # use, and both sides of the width switch
        for rep in (points[2].rep, outside[1]):
            p, a = GroupElement(ed25519, rep), extended_to_affine(rep)
            for k in [*range(65), 2**16 - 1, 2**16, 2**16 + 1]:
                assert extended_to_affine(p.mul(k).rep) == affine_mul(k, a), k

    def test_multi_mul(self, ed25519, points):
        rng = SeededRng("affine-oracle-multi-mul")
        ks = list(self.SCALARS)
        ks += [ed25519.random_scalar(rng).value for _ in range(len(points) - len(ks))]
        want = (0, 1)
        for k, p in zip(ks, points):
            want = affine_add(want, affine_mul(k, extended_to_affine(p.rep)))
        assert extended_to_affine(ed25519.multi_mul(ks, points).rep) == want

    def test_multi_mul_property(self, ed25519, points):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        scalars = st.one_of(st.sampled_from([0, 1, self.ORDER - 1]), st.integers(0, self.ORDER - 1))
        affines = [extended_to_affine(p.rep) for p in points]
        term = st.tuples(scalars, st.integers(0, len(points) - 1))

        # the length is drawn first: st.lists alone rarely goes past 15 terms
        @hypothesis.settings(max_examples=20, deadline=None, derandomize=True, database=None)
        @hypothesis.given(st.integers(1, 40).flatmap(lambda n: st.lists(term, min_size=n, max_size=n)))
        def check(terms):
            want = (0, 1)
            for k, i in terms:
                want = affine_add(want, affine_mul(k, affines[i]))
            got = ed25519.multi_mul([k for k, _ in terms], [points[i] for _, i in terms])
            assert extended_to_affine(got.rep) == want

        check()


class TestFailedEquations:
    """failed_equations names exactly the equations s*G == sum k*P that fail."""

    def test_matches_a_one_by_one_oracle(self, backend):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        q, g = backend.order, backend.generator()
        logs = [1, 2, q - 1] + [backend.random_scalar(SeededRng(f"logs/{i}")).value for i in range(3)]
        points = [r * g for r in logs]
        scalar = st.one_of(st.sampled_from([0, 1, q - 1]), st.integers(0, q - 1))
        offset = st.one_of(st.just(0), st.integers(1, q - 1))
        terms = st.lists(st.tuples(scalar, st.integers(0, len(points) - 1)), min_size=1, max_size=3)

        @hypothesis.settings(max_examples=25, deadline=None, derandomize=True, database=None)
        @hypothesis.given(
            st.integers(1, 5).flatmap(lambda n: st.lists(st.tuples(terms, offset), min_size=n, max_size=n)),
            st.booleans(),
        )
        def check(drawn, cancel):
            if cancel and len(drawn) > 1:
                # offsets d and -d: the unweighted sum of the two still holds
                drawn[1] = (drawn[1][0], -drawn[0][1] % q)
            equations = {}
            for n, (pairs, d) in enumerate(drawn):
                s = backend.scalar(sum(k * logs[i] for k, i in pairs) + d)
                equations[3 * n + 1] = (s, [(k, points[i]) for k, i in pairs])

            def holds(s, pairs):
                total = backend.identity()
                for k, point in pairs:
                    total = total + k * point
                return s * g == total

            def weights():
                return groups.batch_weights("test/failed-equations", [], {
                    i: (backend.encode_scalar(s),) for i, (s, _) in equations.items()
                })
            expected = sorted(i for i, (s, pairs) in equations.items() if not holds(s, pairs))
            assert groups.failed_equations(backend, equations, weights) == expected

        check()

    @pytest.mark.parametrize("count", [1, 2, 5])
    def test_weights_run_only_when_a_sum_is_tested(self, backend, count, monkeypatch):
        hashed, ran = [], []
        monkeypatch.setattr(groups, "hash_bytes", lambda *args: hashed.append(args) or hash_bytes(*args))
        g = backend.generator()
        equations = {i: (backend.scalar(3 * i), [(3, i * g)]) for i in range(1, count + 1)}

        def weights():
            ran.append(True)
            return groups.batch_weights("test/failed-equations", [], {i: (b"",) for i in equations})
        assert groups.failed_equations(backend, equations, weights) == []
        # toy, where a weight can vanish mod 11, and a lone equation never batch
        batched = backend.name == "ed25519" and count > 1
        assert len(ran) == batched
        assert len(hashed) == (count + 1 if batched else 0)


def test_fixed_base_matches_the_cryptography_package(ed25519):
    """RFC 8032 public keys from the comb path and encode, against code we did not write."""
    ed = pytest.importorskip("cryptography.hazmat.primitives.asymmetric.ed25519")
    rng = SeededRng("rfc8032-public-keys")
    g = ed25519.generator()
    for _ in range(32):
        seed = rng.getrandbits(256).to_bytes(32, "little")
        a = int.from_bytes(hashlib.sha512(seed).digest()[:32], "little")
        a = a & (2**254 - 8) | 2**254  # clamp (RFC 8032, section 5.1.5)
        want = ed.Ed25519PrivateKey.from_private_bytes(seed).public_key().public_bytes_raw()
        assert g.mul(a).encode() == want


class TestWireDecoders:
    """Each wire decoder rejects random and mutated bytes with ValueError and
    no other exception, and what it accepts re-encodes to the same bytes."""

    def test_random_and_mutated_bytes(self, backend):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        k = backend.scalar(7)
        points = (k * backend.generator(), backend.second_generator())
        decoders = {
            "decode_scalar": (backend.decode_scalar, backend.encode_scalar, k),
            "decode_element": (backend.decode_element, GroupElement.encode, points[0]),
            "SharePacket": (lambda data: SharePacket.from_bytes(data, backend),
                            lambda packet: packet.to_bytes(backend), SharePacket(3, k)),
            "CommitmentVector": (lambda data: CommitmentVector.from_bytes(data, backend),
                                 CommitmentVector.to_bytes, CommitmentVector(points)),
            "Signature": (lambda data: Signature.from_bytes(data, backend),
                          lambda sig: sig.to_bytes(backend), Signature(points[1], k)),
        }

        def mutations(good: bytes):
            bits = 8 * len(good)
            return st.one_of(
                st.binary(max_size=2 * len(good) + 2),
                st.integers(0, bits - 1).map(
                    lambda b: (int.from_bytes(good, "little") ^ 1 << b).to_bytes(len(good), "little")),
                st.tuples(st.integers(0, len(good) - 1), st.integers(0, 255)).map(
                    lambda t: good[:t[0]] + bytes([t[1]]) + good[t[0] + 1:]),
                st.integers(0, len(good) - 1).map(lambda n: good[:n]),
                st.binary(min_size=1, max_size=4).map(lambda extra: good + extra),
            )

        @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @hypothesis.given(st.sampled_from(sorted(decoders)), st.data())
        def check(name, data):
            decode, encode, value = decoders[name]
            raw = data.draw(mutations(encode(value)))
            try:
                decoded = decode(raw)
            except ValueError:
                return
            assert encode(decoded) == raw, name

        check()
