"""Shamir/Feldman/Pedersen sharing against brute-force toy-group oracles."""

import itertools

import pytest

from trustmesh.polynomials import Polynomial
from trustmesh.rng import SeededRng
from trustmesh.sharing import (
    CommitmentVector,
    Complaint,
    SharePacket,
    Verdict,
    adjudicate_complaint,
    commit_polynomial,
    commit_polynomial_pair,
    feldman_split,
    feldman_verify,
    pedersen_split,
    pedersen_verify,
    shamir_combine,
    shamir_split,
    shares_from_polynomial,
)

TOY_P, TOY_Q, TOY_G, TOY_H = 23, 11, 2, 3


def poly(backend, coeffs):
    return Polynomial(tuple(backend.scalar(c) for c in coeffs))


def feldman_oracle(commit_reps, j, value):
    """prod c_k^(j^k mod q) == g^value, all in plain ints mod 23."""
    lhs = 1
    for k, c in enumerate(commit_reps):
        lhs = lhs * pow(c, pow(j, k, TOY_Q), TOY_P) % TOY_P
    return lhs == pow(TOY_G, value, TOY_P)


def pedersen_oracle(commit_reps, j, value, blinding):
    lhs = 1
    for k, c in enumerate(commit_reps):
        lhs = lhs * pow(c, pow(j, k, TOY_Q), TOY_P) % TOY_P
    return lhs == pow(TOY_G, value, TOY_P) * pow(TOY_H, blinding, TOY_P) % TOY_P


class TestShamir:
    def test_forced_quadratic(self, ed25519):
        # f(x) = 2x^2 - 2x + 5: secret at f(0)
        p = Polynomial((ed25519.scalar(5), ed25519.scalar(-2), ed25519.scalar(2)))
        shares = shares_from_polynomial(p, 4)
        assert [s.value.value for s in shares] == [5, 9, 17, 29]
        assert shamir_combine(shares[:3]).value == 5

    def test_zero_slope(self, backend):
        p = poly(backend, [7, 0])
        shares = shares_from_polynomial(p, 2)
        assert all(s.value.value == 7 for s in shares)

    def test_all_threshold_subsets_agree_toy(self, toy):
        rng = SeededRng("subsets")
        secret = toy.random_scalar(rng)
        shares = shamir_split(secret, 2, 5, rng)
        for subset in itertools.combinations(shares, 3):
            assert shamir_combine(list(subset)) == secret

    def test_undersized_set_gives_wrong_value(self, ed25519):
        p = poly(ed25519, [5, 2, 4])
        shares = shares_from_polynomial(p, 4)
        assert shamir_combine(shares[:2]).value != 5

    def test_explicit_threshold_rejects_undersized(self, ed25519):
        p = poly(ed25519, [5, 2, 4])
        shares = shares_from_polynomial(p, 4)
        with pytest.raises(ValueError, match="[Cc]annot recover"):
            shamir_combine(shares[:2], expected_threshold=2)
        assert shamir_combine(shares[:3], expected_threshold=2).value == 5

    def test_single_share_of_constant_sharing(self, backend):
        p = Polynomial((backend.scalar(6),))
        share = shares_from_polynomial(p, 1)[0]
        assert shamir_combine([share]).value == 6

    def test_duplicate_ids_rejected(self, backend):
        s = SharePacket(1, backend.scalar(3))
        with pytest.raises(ValueError):
            shamir_combine([s, s])

    def test_split_parameter_validation(self, toy, rng):
        with pytest.raises(ValueError):
            shamir_split(toy.scalar(1), 3, 3, rng)  # t >= n
        with pytest.raises(ValueError):
            shamir_split(toy.scalar(1), 2, 11, rng)  # n >= q
        with pytest.raises(ValueError):
            shamir_split(toy.scalar(1), 0, 3, rng)

    def test_split_combine_round_trip_randomized(self, backend):
        rng = SeededRng(f"roundtrip-{backend.name}")
        for _ in range(10):
            t = 1 + rng.randbelow(4)
            n = min(t + 1 + rng.randbelow(4), 8)
            secret = backend.random_scalar(rng)
            shares = shamir_split(secret, t, n, rng)
            chosen = rng.sample(shares, t + 1)
            assert shamir_combine(chosen) == secret


class TestFeldman:
    def test_forced_commitments_match_oracle(self, toy):
        com = commit_polynomial(toy, poly(toy, [5, 2, 4]))
        assert [e.rep for e in com.entries] == [
            pow(TOY_G, 5, TOY_P), pow(TOY_G, 2, TOY_P), pow(TOY_G, 4, TOY_P)
        ]
        assert [e.rep for e in com.entries] == [9, 4, 16]

    def test_worked_share_verifies_both_sides_equal_8(self, toy):
        com = commit_polynomial(toy, poly(toy, [5, 2, 4]))
        share = SharePacket(3, toy.scalar(47))  # f(3) = 47 = 3 mod 11
        assert feldman_verify(share, com)
        # both sides equal g^3 = 8 mod 23 by the independent oracle
        assert pow(TOY_G, 47 % TOY_Q, TOY_P) == 8
        assert feldman_oracle([9, 4, 16], 3, 3)

    def test_tampered_value_rejected(self, toy):
        com = commit_polynomial(toy, poly(toy, [5, 2, 4]))
        assert not feldman_verify(SharePacket(3, toy.scalar(48)), com)

    def test_all_split_shares_verify(self, backend):
        rng = SeededRng(f"feldman-{backend.name}")
        com, shares = feldman_split(backend.random_scalar(rng), 2, 5, rng, backend)
        assert all(feldman_verify(s, com) for s in shares)

    def test_zero_polynomial_gives_identity_commitments(self, backend):
        com = commit_polynomial(backend, poly(backend, [0, 0]))
        assert all(e.is_identity() for e in com.entries)

    def test_commitment_length(self, toy, rng):
        for t, n in [(1, 3), (2, 4), (3, 6)]:
            com, _ = feldman_split(toy.scalar(4), t, n, rng, toy)
            assert len(com) == t + 1

    def test_exhaustive_soundness_toy(self, toy):
        com = commit_polynomial(toy, poly(toy, [5, 2, 4]))
        reps = [e.rep for e in com.entries]
        for j in range(1, 11):
            true_value = (5 + 2 * j + 4 * j * j) % TOY_Q
            for forged in range(TOY_Q):
                accepted = feldman_verify(SharePacket(j, toy.scalar(forged)), com)
                assert accepted == (forged == true_value)
                assert accepted == feldman_oracle(reps, j, forged)


class TestPedersen:
    def test_split_recovers_secret_and_blinding(self, backend):
        rng = SeededRng(f"pedersen-{backend.name}")
        secret = backend.random_scalar(rng)
        com, shares = pedersen_split(secret, 2, 5, rng, backend)
        value_parts = [SharePacket(s.id, s.value) for s in shares[:3]]
        blind_parts = [SharePacket(s.id, s.blinding) for s in shares[:3]]
        assert shamir_combine(value_parts) == secret
        recovered_blinding = shamir_combine(blind_parts)
        # the recovered blinding constant must open the first commitment
        g, h = backend.generator(), backend.second_generator()
        assert secret * g + recovered_blinding * h == com.entries[0]

    def test_forced_entry_zero_matches_oracle(self, toy):
        com = commit_polynomial_pair(toy, poly(toy, [5, 2, 4]), poly(toy, [7, 1, 0]))
        assert com.entries[0].rep == pow(TOY_G, 5, TOY_P) * pow(TOY_H, 7, TOY_P) % TOY_P
        assert com.entries[0].rep == 18

    def test_zero_polynomials_give_identity(self, backend):
        com = commit_polynomial_pair(backend, poly(backend, [0, 0]), poly(backend, [0, 0]))
        assert all(e.is_identity() for e in com.entries)

    def test_honest_shares_verify(self, backend):
        rng = SeededRng(f"pedersen-honest-{backend.name}")
        com, shares = pedersen_split(backend.random_scalar(rng), 2, 4, rng, backend)
        assert all(pedersen_verify(s, com) for s in shares)

    def test_flipped_blinding_rejected(self, toy, rng):
        com, shares = pedersen_split(toy.scalar(5), 2, 4, rng, toy)
        s = shares[0]
        bad = SharePacket(s.id, s.value, s.blinding + 1)
        assert not pedersen_verify(bad, com)

    def test_share_without_blinding_rejected(self, toy, rng):
        com, shares = pedersen_split(toy.scalar(5), 2, 4, rng, toy)
        with pytest.raises(ValueError):
            pedersen_verify(SharePacket(1, shares[0].value), com)

    def test_feldman_valid_but_wrong_blinding_rejected(self, toy):
        # a forged pair can satisfy the single-generator relation yet fail the
        # dual-generator check: binding uses both generators
        value_poly = poly(toy, [5, 2, 4])
        blind_poly = poly(toy, [7, 1, 3])
        com = commit_polynomial_pair(toy, value_poly, blind_poly)
        j = 2
        true_value = value_poly.evaluate(j)
        true_blind = blind_poly.evaluate(j)
        found = False
        for forged_blind in range(TOY_Q):
            if forged_blind == true_blind.value:
                continue
            candidate = SharePacket(j, true_value, toy.scalar(forged_blind))
            assert not pedersen_verify(candidate, com)
            found = True
        assert found

    def test_exhaustive_value_soundness_toy(self, toy):
        value_poly = poly(toy, [5, 2, 4])
        blind_poly = poly(toy, [7, 1, 3])
        com = commit_polynomial_pair(toy, value_poly, blind_poly)
        reps = [e.rep for e in com.entries]
        for j in range(1, 11):
            tv = value_poly.evaluate(j).value
            tb = blind_poly.evaluate(j).value
            for forged in range(TOY_Q):
                accepted = pedersen_verify(SharePacket(j, toy.scalar(forged), toy.scalar(tb)), com)
                assert accepted == (forged == tv)
                assert accepted == pedersen_oracle(reps, j, forged, tb)

    def test_hiding_two_secrets_same_commitments_exist(self, toy):
        # brute-force witness: different secrets with suitable blinding collide
        target = commit_polynomial_pair(toy, poly(toy, [5, 0]), poly(toy, [7, 0]))
        found = None
        for s in range(TOY_Q):
            if s == 5:
                continue
            for b in range(TOY_Q):
                com = commit_polynomial_pair(toy, poly(toy, [s, 0]), poly(toy, [b, 0]))
                if com.entries[0] == target.entries[0]:
                    found = (s, b)
                    break
            if found:
                break
        assert found is not None

    def test_feldman_constant_entry_is_binding(self, toy):
        # unlike Pedersen, entry[0] = g^s pins the secret
        seen = {}
        for s in range(TOY_Q):
            rep = commit_polynomial(toy, poly(toy, [s, 1])).entries[0].rep
            assert rep not in seen
            seen[rep] = s


class TestSerialization:
    def test_share_packet_round_trip(self, backend):
        rng = SeededRng(f"wire-{backend.name}")
        packet = SharePacket(7, backend.random_scalar(rng))
        assert SharePacket.from_bytes(packet.to_bytes(backend), backend) == packet
        # the Pedersen layout, id || value || blinding, is written but never decoded
        blinded = SharePacket(7, backend.random_scalar(rng), backend.random_scalar(rng))
        with pytest.raises(ValueError, match=f"share packet must be {4 + backend.scalar_bytes} bytes"):
            SharePacket.from_bytes(blinded.to_bytes(backend), backend)

    def test_wire_layout_id_prefix(self, backend):
        packet = SharePacket(1, backend.scalar(3))
        data = packet.to_bytes(backend)
        assert data[:4].hex() == "00000001"
        assert len(data) == 4 + backend.scalar_bytes

    def test_share_packet_bad_length(self, backend):
        with pytest.raises(ValueError):
            SharePacket.from_bytes(b"\x00\x00\x00\x01", backend)

    def test_share_id_validation(self, backend):
        with pytest.raises(ValueError):
            SharePacket(0, backend.scalar(1))

    def test_commitment_vector_round_trip(self, backend):
        rng = SeededRng(f"comvec-{backend.name}")
        com = commit_polynomial(
            backend,
            Polynomial(tuple(backend.random_scalar(rng) for _ in range(3))),
        )
        data = com.to_bytes()
        assert CommitmentVector.from_bytes(data, backend) == com


class TestComplaints:
    def _setup(self, toy, corrupt):
        rng = SeededRng("complaint")
        com, shares = pedersen_split(toy.scalar(5), 2, 4, rng, toy)
        share = shares[0]
        if corrupt:
            share = SharePacket(share.id, share.value + 1, share.blinding)
        return Complaint(accuser=share.id, share=share, commitments=com)

    def test_honest_share_blames_accuser(self, toy):
        assert adjudicate_complaint(self._setup(toy, corrupt=False)) is Verdict.ACCUSER_FAULTY

    def test_corrupted_share_blames_dealer(self, toy):
        assert adjudicate_complaint(self._setup(toy, corrupt=True)) is Verdict.DEALER_FAULTY

    def test_verdict_deterministic_across_observers(self, toy):
        complaint = self._setup(toy, corrupt=True)
        verdicts = {adjudicate_complaint(complaint) for _ in range(5)}
        assert verdicts == {Verdict.DEALER_FAULTY}

    def test_accuser_must_own_share(self, toy, rng):
        com, shares = pedersen_split(toy.scalar(5), 2, 4, rng, toy)
        with pytest.raises(ValueError):
            Complaint(accuser=2, share=shares[0], commitments=com)

    def test_feldman_complaint_supported(self, toy, rng):
        com, shares = feldman_split(toy.scalar(5), 2, 4, rng, toy)
        bad = SharePacket(shares[0].id, shares[0].value + 1)
        complaint = Complaint(accuser=bad.id, share=bad, commitments=com)
        assert adjudicate_complaint(complaint) is Verdict.DEALER_FAULTY
