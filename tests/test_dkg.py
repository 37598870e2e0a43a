"""Distributed key generation: proofs of knowledge, share checks, key derivation."""

import hashlib
import json
import random

import pytest

from trustmesh import dkg as dkg_mod
from trustmesh.dkg import (
    Participant,
    Phase,
    Round1Broadcast,
    combine_signing_shares,
    committed_evaluations,
    dkg_accept_round1,
    dkg_receive_broadcast,
    dkg_receive_share,
    dkg_round1,
    dkg_round2_finalize,
    dkg_round2_send,
    dkg_verify_round1,
    make_crs,
    pok_prove,
    pok_verify,
    run_dkg,
    run_round2,
    transcript_jsonl,
)
from trustmesh.errors import ProtocolAbort
from trustmesh.groups import hash_to_scalar, id_bytes
from trustmesh.rng import SeededRng
from trustmesh.sharing import CommitmentVector
from trustmesh.signing import Signature

TOY_P, TOY_Q, TOY_G = 23, 11, 2


def fresh(backend, t=2, n=4, crs=None):
    crs = crs or make_crs("test")
    return [Participant(i, t, n, crs, backend) for i in range(1, n + 1)]


def full_run(backend, t=2, n=4, seed=0):
    return run_dkg(backend, t, n, SeededRng(seed))


def pok_challenge_oracle(sender, crs, public_bytes, r_bytes):
    """A proof's challenge from hashlib alone: the first 16 bytes of SHA-512
    over the tag "H" and the length-prefixed parts, read big-endian."""
    h = hashlib.sha512(b"H")
    for part in (sender.to_bytes(4, "big"), crs, public_bytes, r_bytes):
        h.update(len(part).to_bytes(8, "big") + part)
    return int.from_bytes(h.digest()[:16], "big")


class TestProofOfKnowledge:
    def test_honest_proof_verifies(self, backend, rng):
        crs = make_crs("pok")
        secret = backend.random_scalar(rng)
        proof = pok_prove(1, crs, secret, secret * backend.generator(), rng)
        assert pok_verify(1, crs, secret * backend.generator(), proof)

    def test_exhaustive_candidate_scan_matches_oracle(self, toy):
        # check implementation accept/reject against plain-int arithmetic for
        # every candidate public value in the toy group
        rng = SeededRng("pok-scan")
        crs = make_crs("pok-scan")
        secret = toy.scalar(4)
        proof = pok_prove(2, crs, secret, secret * toy.generator(), rng)
        r_rep = proof.R.rep
        for candidate_dlog in range(TOY_Q):
            candidate = toy.scalar(candidate_dlog) * toy.generator()
            challenge = pok_challenge_oracle(2, crs, candidate.encode(), proof.R.encode())
            # oracle: g^response == R * candidate^challenge  (mod 23)
            lhs = pow(TOY_G, proof.z.value, TOY_P)
            rhs = r_rep * pow(candidate.rep, challenge, TOY_P) % TOY_P
            assert pok_verify(2, crs, candidate, proof) == (lhs == rhs)
        assert pok_verify(2, crs, secret * toy.generator(), proof)

    def test_challenge_is_128_bits_of_the_hash(self, ed25519, rng):
        crs = make_crs("width")
        g = ed25519.generator()
        for sender in (1, 2, 255):
            A = ed25519.random_scalar(rng) * g
            R = ed25519.random_scalar(rng) * g
            challenge = dkg_mod._pok_challenge(sender, crs, A, R)
            assert challenge.value == pok_challenge_oracle(sender, crs, A.encode(), R.encode())
            assert challenge.value < 2**128

    def test_crs_binding(self, backend, rng):
        secret = backend.random_scalar(rng)
        proof = pok_prove(1, make_crs("ctx-a"), secret, secret * backend.generator(), rng)
        assert not pok_verify(1, make_crs("ctx-b"), secret * backend.generator(), proof)

    def test_sender_binding(self, backend, rng):
        secret = backend.random_scalar(rng)
        crs = make_crs("sender")
        proof = pok_prove(1, crs, secret, secret * backend.generator(), rng)
        assert not pok_verify(2, crs, secret * backend.generator(), proof)

    def test_round1_proof_is_a_signature_on_the_wire(self, backend, rng):
        p = fresh(backend)[1]
        bc = dkg_round1(p, rng)
        public = bc.commitment.entries[0]
        data = bc.proof.to_bytes(backend)
        assert bc.to_bytes(backend).endswith(data)
        decoded = Signature.from_bytes(data, backend)
        assert decoded == bc.proof
        assert pok_verify(2, p.crs, public, decoded)
        assert not pok_verify(2, p.crs, public, Signature(decoded.R, decoded.z + 1))
        assert not pok_verify(3, p.crs, public, decoded)


class TestRound1:
    def test_broadcast_verifies(self, backend, rng):
        p = fresh(backend)[0]
        bc = dkg_round1(p, rng)
        assert dkg_verify_round1({1: bc}, p.crs, p.t) == []

    def test_same_seed_identical_bytes(self, backend):
        crs = make_crs("det")
        p1 = Participant(1, 2, 4, crs, backend)
        p2 = Participant(1, 2, 4, crs, backend)
        bc1 = dkg_round1(p1, SeededRng(11))
        bc2 = dkg_round1(p2, SeededRng(11))
        assert bc1.to_bytes(backend) == bc2.to_bytes(backend)

    @pytest.mark.parametrize("t", [2, 3, 5])
    def test_commitment_length_is_t(self, backend, t):
        p = Participant(1, t, 6, make_crs("len"), backend)
        bc = dkg_round1(p, SeededRng(t))
        assert len(bc.commitment) == t

    def test_double_round1_rejected(self, backend, rng):
        p = fresh(backend)[0]
        dkg_round1(p, rng)
        with pytest.raises(ValueError):
            dkg_round1(p, rng)

    def test_flipped_response_aborts_naming_sender(self, backend, rng):
        parts = fresh(backend)
        bcs = {p.id: dkg_round1(p, rng.fork(str(p.id))) for p in parts}
        bad = bcs[3]
        bcs[3] = type(bad)(
            bad.sender, bad.commitment,
            Signature(bad.proof.R, bad.proof.z + 1),
        )
        assert dkg_verify_round1(bcs, parts[0].crs, 2) == [3]
        with pytest.raises(ProtocolAbort) as exc:
            dkg_accept_round1(parts[0], {i: bc for i, bc in bcs.items() if i != 1})
        assert exc.value.faulty_ids == (3,)
        assert exc.value.reason == "invalid proof of knowledge from "
        assert parts[0].phase is Phase.ABORTED

    @pytest.mark.parametrize("fault", ["full-width-challenge", "made-for-another-id",
                                       "response-plus-one"])
    def test_forged_proof_aborts_naming_sender(self, backend, rng, fault):
        parts = fresh(backend)
        bcs = {p.id: dkg_round1(p, rng.fork(str(p.id))) for p in parts}
        bad, crs = bcs[3], parts[0].crs
        if fault == "response-plus-one":
            proof = Signature(bad.proof.R, bad.proof.z + 1)
        else:
            secret, A = parts[2].own_polynomial.evaluate(0), bad.commitment.entries[0]
            k = backend.random_scalar(rng)
            R = k * backend.generator()
            # the full-width rule reduces all 512 hash bits mod q, as before
            # challenges were cut to 128 bits
            c = (hash_to_scalar(backend, "H", [id_bytes(3), crs, A.encode(), R.encode()])
                 if fault == "full-width-challenge" else dkg_mod._pok_challenge(4, crs, A, R))
            # on toy two challenges agree one time in 11, and the proof would hold
            assert c != dkg_mod._pok_challenge(3, crs, A, R)
            proof = Signature(R, k + secret * c)
        bcs[3] = Round1Broadcast(3, bad.commitment, proof)
        with pytest.raises(ProtocolAbort) as exc:
            dkg_accept_round1(parts[0], {i: bc for i, bc in bcs.items() if i != 1})
        assert str(exc.value) == "invalid proof of knowledge from [3]"
        assert exc.value.faulty_ids == (3,)

    @pytest.mark.parametrize("fault", ["filed-under-another-id", "t-1-commitments",
                                       "t+1-commitments"])
    def test_malformed_broadcast_aborts_naming_the_id_it_is_filed_under(self, backend, rng,
                                                                        fault):
        # each keeps node 3's valid proof for its constant term, so only the
        # sender and length checks can reject it
        parts = fresh(backend, t=3, n=4)
        bcs = {p.id: dkg_round1(p, rng.fork(str(p.id))) for p in parts}
        bad = bcs[3]
        entries = {
            "filed-under-another-id": bad.commitment.entries,
            "t-1-commitments": bad.commitment.entries[:-1],
            "t+1-commitments": bad.commitment.entries + (backend.generator(),),
        }[fault]
        sender = 4 if fault == "filed-under-another-id" else 3
        bcs[3] = Round1Broadcast(sender, CommitmentVector(entries), bad.proof)
        with pytest.raises(ProtocolAbort) as exc:
            dkg_accept_round1(parts[0], {i: bc for i, bc in bcs.items() if i != 1})
        assert str(exc.value) == "invalid proof of knowledge from [3]"

    def test_replayed_proof_under_other_crs_aborts(self, backend, rng):
        crs_a, crs_b = make_crs("a"), make_crs("b")
        p_a = Participant(1, 2, 4, crs_a, backend)
        bc = dkg_round1(p_a, rng)
        assert dkg_verify_round1({1: bc}, crs_b, 2) == [1]

    def test_missing_broadcast_aborts_with_missing_ids(self, backend, rng):
        parts = fresh(backend)
        bcs = {p.id: dkg_round1(p, rng.fork(str(p.id))) for p in parts}
        del bcs[2]
        with pytest.raises(ProtocolAbort) as exc:
            dkg_accept_round1(parts[0], {i: bc for i, bc in bcs.items() if i != 1})
        assert exc.value.faulty_ids == (2,)
        assert exc.value.reason == "missing round-1 broadcasts from "


class TestRound2:
    def _to_round1_done(self, backend, t=2, n=4, seed=0):
        rng = SeededRng(seed)
        parts = fresh(backend, t, n)
        bcs = {p.id: dkg_round1(p, rng.fork(str(p.id))) for p in parts}
        for p in parts:
            dkg_accept_round1(p, bcs)
        return parts

    def test_share_values_match_own_polynomial(self, backend):
        parts = self._to_round1_done(backend)
        p = parts[0]
        sends = dkg_round2_send(p)
        assert len(sends) == p.n - 1
        for recipient, value in sends:
            assert value == p.own_polynomial.evaluate(recipient)

    def test_shares_verify_at_every_recipient(self, backend):
        parts = self._to_round1_done(backend)
        for sender in parts:
            com = sender.received_broadcasts[sender.id].commitment
            for recipient, value in dkg_round2_send(sender):
                assert value * backend.generator() == com.share_commitment(recipient)

    def test_finalize_agreement_and_key_equation(self, backend):
        parts = full_run(backend, 2, 4)
        keys = {p.group_pk.encode() for p in parts}
        assert len(keys) == 1
        for p in parts:
            assert p.phase is Phase.ROUND2_DONE
            assert p.pk_share == p.sk_share * backend.generator()
            assert p.peer_pk_shares[p.id] == p.pk_share

    def test_lagrange_reconstruction_hits_group_key(self, backend):
        parts = full_run(backend, 2, 4, seed=3)
        for coalition in [(1, 2), (2, 4), (1, 3)]:
            s_star = combine_signing_shares(parts, coalition)
            assert s_star * backend.generator() == parts[0].group_pk

    def test_corrupted_share_aborts_naming_sender(self, backend):
        parts = self._to_round1_done(backend)
        receiver = parts[0]
        inbound = {}
        for sender in parts[1:]:
            value = dict(dkg_round2_send(sender))[receiver.id]
            if sender.id == 3:
                value = value + 1
            inbound[sender.id] = value
        with pytest.raises(ProtocolAbort) as exc:
            dkg_round2_finalize(receiver, inbound)
        assert exc.value.faulty_ids == (3,)
        assert exc.value.reason == "share verification failed for "
        assert receiver.phase is Phase.ABORTED

    def test_share_commitment_soundness_exhaustive_toy(self, toy):
        parts = self._to_round1_done(toy)
        receiver = parts[0]
        honest = {
            sender.id: dict(dkg_round2_send(sender))[receiver.id] for sender in parts[1:]
        }
        true_value = honest[2].value
        for forged in range(TOY_Q):
            if forged == true_value:
                continue
            inbound = dict(honest)
            inbound[2] = toy.scalar(forged)
            fresh_receiver = self._to_round1_done(toy)[0]
            with pytest.raises(ProtocolAbort):
                dkg_round2_finalize(fresh_receiver, inbound)

    def test_joint_secret_identity_toy_oracle(self, toy):
        # sum of dealt secrets == interpolation of the signing shares at 0,
        # checked with plain-int arithmetic against the dealt polynomials
        for seed in range(5):
            parts = full_run(toy, 3, 8, seed=seed)
            dealt_sum = sum(p.own_polynomial.coefficients[0].value for p in parts) % TOY_Q
            s_star = combine_signing_shares(parts, (1, 2, 3))
            assert s_star.value == dealt_sum
            assert pow(TOY_G, dealt_sum, TOY_P) == parts[0].group_pk.rep

    def test_received_shares_dropped_after_finalize(self, backend):
        parts = self._to_round1_done(backend)
        outbound = {p.id: dict(dkg_round2_send(p)) for p in parts}
        receiver = parts[0]
        receiver.pending_shares.update(
            {s: msgs[receiver.id] for s, msgs in outbound.items() if s != receiver.id}
        )
        dkg_round2_finalize(receiver, dict(receiver.pending_shares))
        assert receiver.pending_shares == {}

    def test_missing_share_aborts(self, backend):
        parts = self._to_round1_done(backend)
        receiver = parts[0]
        inbound = {
            s.id: dict(dkg_round2_send(s))[receiver.id] for s in parts[1:] if s.id != 4
        }
        with pytest.raises(ProtocolAbort) as exc:
            dkg_round2_finalize(receiver, inbound)
        assert exc.value.faulty_ids == (4,)
        assert exc.value.reason == "missing round-2 shares from "


def broadcasts_to(p, bcs, skip=()):
    """Feed p every peer broadcast not in skip; the round-2 shares it returns."""
    shares = []
    for sender in sorted(bcs):
        if sender != p.id and sender not in skip:
            shares = dkg_receive_broadcast(p, sender, bcs[sender]) or shares
    return dict(shares)


class TestIntake:
    """The per-node intake: one message at a time, in any arrival order."""

    def _dealt(self, backend, t=2, n=4, seed=0):
        rng = SeededRng(seed)
        parts = fresh(backend, t, n)
        bcs = {p.id: dkg_round1(p, rng.fork(str(p.id))) for p in parts}
        return parts, bcs

    def test_shares_before_the_last_broadcast(self, backend):
        # node 1 gets every share before node 4's broadcast; that broadcast
        # then accepts round 1 and finalizes in one step
        parts, bcs = self._dealt(backend)
        node1 = parts[0]
        outbound = {p.id: broadcasts_to(p, bcs) for p in parts[1:]}
        assert broadcasts_to(node1, bcs, skip={4}) == {}
        for sender, shares in outbound.items():
            dkg_receive_share(node1, sender, shares[1])
        assert node1.phase is Phase.ROUND1_DONE
        outbound[1] = dict(dkg_receive_broadcast(node1, 4, bcs[4]))
        assert node1.phase is Phase.ROUND2_DONE
        for p in parts[1:]:
            for sender, shares in outbound.items():
                if sender != p.id:
                    dkg_receive_share(p, sender, shares[p.id])
        # the same dealings run through the in-process round steps
        reference, ref_bcs = self._dealt(backend)
        for p in reference:
            dkg_accept_round1(p, ref_bcs)
        run_round2(reference)
        for p, ref in zip(parts, reference):
            assert p.phase is Phase.ROUND2_DONE
            assert p.pending_shares == {}
            assert (p.sk_share, p.group_pk) == (ref.sk_share, ref.group_pk)

    def test_repeats_and_own_id_are_ignored(self, backend):
        parts, bcs = self._dealt(backend)
        node1 = parts[0]
        assert dkg_receive_broadcast(node1, 2, bcs[2]) == []
        assert dkg_receive_broadcast(node1, 2, bcs[3]) == []
        assert dkg_receive_broadcast(node1, 1, bcs[3]) == []
        assert node1.received_broadcasts[2] is bcs[2]
        assert node1.received_broadcasts[1] is bcs[1]
        dkg_receive_share(node1, 1, backend.scalar(3))
        assert node1.pending_shares == {}

    def test_broadcast_under_an_id_outside_1_to_n_is_dropped(self, backend):
        # node 1 holds 2's and 3's broadcasts when one arrives under id 99:
        # counted, it would complete round 1 and blame node 4, merely slow
        parts, bcs = self._dealt(backend)
        node1 = parts[0]
        assert broadcasts_to(node1, bcs, skip={4}) == {}
        for sender in (99, 5, 0, -1):
            assert dkg_receive_broadcast(node1, sender, bcs[4]) == []
        assert sorted(node1.received_broadcasts) == [1, 2, 3]
        assert node1.phase is Phase.ROUND1_DONE
        assert sorted(dict(dkg_receive_broadcast(node1, 4, bcs[4]))) == [2, 3, 4]

    def test_share_under_an_id_outside_1_to_n_is_dropped(self, backend):
        parts, bcs = self._dealt(backend)
        outbound = {p.id: broadcasts_to(p, bcs) for p in parts}
        node1 = parts[0]
        dkg_receive_share(node1, 2, outbound[2][1])
        dkg_receive_share(node1, 3, outbound[3][1])
        for sender in (99, 5, 0, -1):
            dkg_receive_share(node1, sender, outbound[4][1])
        assert sorted(node1.pending_shares) == [2, 3]
        assert node1.phase is Phase.ROUND1_DONE
        dkg_receive_share(node1, 4, outbound[4][1])
        assert node1.phase is Phase.ROUND2_DONE

    def test_bad_share_aborts_and_later_messages_are_dropped(self, backend):
        parts, bcs = self._dealt(backend)
        outbound = {p.id: broadcasts_to(p, bcs) for p in parts}
        node1 = parts[0]
        dkg_receive_share(node1, 2, outbound[2][1])
        dkg_receive_share(node1, 3, outbound[3][1] + 1)
        with pytest.raises(ProtocolAbort) as exc:
            dkg_receive_share(node1, 4, outbound[4][1])
        assert exc.value.faulty_ids == (3,)
        assert node1.phase is Phase.ABORTED
        dkg_receive_share(node1, 4, outbound[4][1])
        assert dkg_receive_broadcast(node1, 4, bcs[4]) == []

    def test_receiving_before_dealing_is_rejected(self, backend):
        parts, bcs = self._dealt(backend)
        fresh_node = fresh(backend)[0]
        with pytest.raises(ValueError):
            dkg_receive_broadcast(fresh_node, 2, bcs[2])
        with pytest.raises(ValueError):
            dkg_receive_share(fresh_node, 2, backend.scalar(1))


class TestStateMachine:
    def test_phase_order_enforced(self, backend, rng):
        p = fresh(backend)[0]
        with pytest.raises(ValueError):
            dkg_round2_send(p)
        with pytest.raises(ValueError):
            dkg_round2_finalize(p, {})
        dkg_round1(p, rng)
        with pytest.raises(ValueError):
            dkg_round1(p, rng)

    def test_aborted_is_terminal(self, backend, rng):
        parts = fresh(backend)
        bcs = {p.id: dkg_round1(p, rng.fork(str(p.id))) for p in parts}
        del bcs[2]
        with pytest.raises(ProtocolAbort):
            dkg_accept_round1(parts[0], {i: b for i, b in bcs.items() if i != 1})
        assert parts[0].phase is Phase.ABORTED
        with pytest.raises(ValueError):
            dkg_round2_send(parts[0])

    def test_parameter_validation(self, backend):
        crs = make_crs("params")
        with pytest.raises(ValueError):
            Participant(1, 1, 4, crs, backend)  # degree-0 dealing
        with pytest.raises(ValueError):
            Participant(1, 5, 4, crs, backend)
        with pytest.raises(ValueError):
            Participant(0, 2, 4, crs, backend)

    def test_no_participants_is_refused(self, backend, rng):
        # no Participant is built for n = 0, so run_round1 checks the rule itself
        with pytest.raises(ValueError, match="threshold 2 exceeds participant count 0"):
            dkg_mod.run_dkg(backend, 2, 0, rng)

    def test_toy_id_space_limit(self, toy):
        with pytest.raises(ValueError):
            Participant(1, 2, 11, make_crs("big"), toy)


class TestTranscript:
    def test_jsonl_one_record_per_round_per_node(self, backend):
        parts = full_run(backend, 2, 4)
        lines = transcript_jsonl(parts).strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert len(records) == 3 * len(parts)
        for p in parts:
            rounds = [r["round"] for r in records if r["node"] == p.id]
            assert rounds == [1, 2, 3]

    def test_group_pk_record_identical_across_nodes(self, backend):
        parts = full_run(backend, 2, 4)
        final_hashes = {p.transcript[-1]["hash"] for p in parts}
        assert len(final_hashes) == 1


def dealt_and_accepted(backend, t=3, n=5, seed=0):
    """Participants that have dealt and accepted round 1, plus each one's outbound shares."""
    rng = SeededRng(seed)
    parts = fresh(backend, t, n)
    bcs = {p.id: dkg_round1(p, rng.fork(str(p.id))) for p in parts}
    for p in parts:
        dkg_accept_round1(p, bcs)
    return parts, {p.id: dict(dkg_round2_send(p)) for p in parts}


def inbound_for(receiver, outbound):
    return {s: shares[receiver.id] for s, shares in outbound.items() if s != receiver.id}


def counting(monkeypatch, name):
    """Replace dkg.<name> with a wrapper that records each call's arguments."""
    calls = []
    original = getattr(dkg_mod, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(dkg_mod, name, wrapper)
    return calls


def evaluations(monkeypatch):
    """Record (vector, id) for each CommitmentVector.share_commitment call."""
    calls = []
    original = CommitmentVector.share_commitment

    def wrapper(self, participant_id):
        calls.append((self, participant_id))
        return original(self, participant_id)
    monkeypatch.setattr(CommitmentVector, "share_commitment", wrapper)
    return calls


def checked_dealers(receiver, evaluated):
    """The dealers whose round-1 commitment was evaluated, at the receiver's id."""
    by_commitment = {id(bc.commitment): s for s, bc in receiver.received_broadcasts.items()}
    dealt = [(vector, i) for vector, i in evaluated if id(vector) in by_commitment]
    assert all(i == receiver.id for _, i in dealt)
    return sorted(by_commitment[id(vector)] for vector, _ in dealt)


class TestShareCheck:
    """Round 2 checks each peer's share on its own, with no random-weight batch."""

    def test_offsets_that_cancel_are_blamed_on_both_dealers(self, backend):
        parts, outbound = dealt_and_accepted(backend)
        receiver = parts[0]
        inbound = inbound_for(receiver, outbound)
        delta = backend.scalar(12345)
        inbound[2] = inbound[2] + delta
        inbound[4] = inbound[4] - delta
        with pytest.raises(ProtocolAbort) as exc:
            dkg_round2_finalize(receiver, inbound)
        assert exc.value.faulty_ids == (2, 4)
        assert str(exc.value) == "share verification failed for [2, 4]"

    def test_one_corrupt_dealer_is_named_alone(self, backend):
        parts, outbound = dealt_and_accepted(backend)
        receiver = parts[2]
        inbound = inbound_for(receiver, outbound)
        inbound[5] = inbound[5] + 1
        with pytest.raises(ProtocolAbort) as exc:
            dkg_round2_finalize(receiver, inbound)
        assert exc.value.faulty_ids == (5,)
        assert str(exc.value) == "share verification failed for [5]"
        assert receiver.phase is Phase.ABORTED

    def test_an_honest_run_evaluates_each_peer_commitment_once(self, backend, monkeypatch):
        parts, outbound = dealt_and_accepted(backend)
        evaluated = evaluations(monkeypatch)
        for p in parts:
            evaluated.clear()
            dkg_round2_finalize(p, inbound_for(p, outbound))
            assert checked_dealers(p, evaluated) == [i for i in range(1, 6) if i != p.id]
        assert len({p.group_pk.encode() for p in parts}) == 1
        assert not hasattr(dkg_mod, "batch_weights")


class TestBatchedShareCheck:
    """A failed round 2 checks each peer dealer once; the class keeps the name
    it had when the checks were first tried as one random-weight batch."""

    def test_a_failed_batch_checks_each_peer_dealer_once(self, ed25519, monkeypatch):
        parts, outbound = dealt_and_accepted(ed25519)
        receiver = parts[0]
        inbound = inbound_for(receiver, outbound)
        inbound[3] = inbound[3] + 1
        evaluated = evaluations(monkeypatch)
        checks = counting(monkeypatch, "feldman_verify")
        with pytest.raises(ProtocolAbort) as exc:
            dkg_round2_finalize(receiver, inbound)
        assert checked_dealers(receiver, evaluated) == [2, 3, 4, 5]
        # value*G == C_j(id) for each peer dealer, each on the share it sent
        assert [share.id for share, _ in checks] == [receiver.id] * 4
        assert sorted(share.value.value for share, _ in checks) == sorted(v.value for v in inbound.values())
        assert exc.value.faulty_ids == (3,)

    def test_a_failed_check_evaluates_each_commitment_once(self, backend, monkeypatch):
        parts, outbound = dealt_and_accepted(backend, t=3, n=6)
        receiver = parts[0]
        inbound = inbound_for(receiver, outbound)
        inbound[4] = inbound[4] + 1
        evaluated = evaluations(monkeypatch)
        with pytest.raises(ProtocolAbort) as exc:
            dkg_round2_finalize(receiver, inbound)
        assert len(evaluated) == 5
        assert checked_dealers(receiver, evaluated) == [2, 3, 4, 5, 6]
        assert not hasattr(dkg_mod, "batch_weights")
        assert exc.value.faulty_ids == (4,)
        assert str(exc.value) == "share verification failed for [4]"


def dealt_and_sent(backend, t=3, n=5, seed=0):
    """Participants that have dealt round 1, their broadcasts and each one's outbound shares."""
    rng = SeededRng(seed)
    parts = fresh(backend, t, n)
    bcs = {p.id: dkg_round1(p, rng.fork(str(p.id))) for p in parts}
    return parts, bcs, {p.id: dict(dkg_round2_send(p)) for p in parts}


class TestOneIntakeRule:
    """The round functions keep each mapping entry as the per-node intake keeps it."""

    def test_finalize_drops_shares_outside_the_peers(self, backend):
        parts, outbound = dealt_and_accepted(backend)
        reference, ref_outbound = dealt_and_accepted(backend)
        receiver, ref = parts[1], reference[1]
        honest = inbound_for(receiver, outbound)
        stray = honest[1] + 1
        dkg_round2_finalize(receiver, {99: stray, 0: stray, -1: stray, receiver.id: stray, **honest})
        dkg_round2_finalize(ref, inbound_for(ref, ref_outbound))
        assert receiver.sk_share == ref.sk_share
        assert receiver.peer_pk_shares == ref.peer_pk_shares
        assert receiver.transcript == ref.transcript

    def test_accept_round1_drops_a_broadcast_under_id_99(self, backend):
        parts, bcs, _ = dealt_and_sent(backend, t=2, n=4)
        reference, ref_bcs, _ = dealt_and_sent(backend, t=2, n=4)
        dkg_accept_round1(parts[0], {**bcs, 99: bcs[3]})
        dkg_accept_round1(reference[0], ref_bcs)
        assert parts[0].phase is Phase.ROUND1_DONE
        assert parts[0].received_broadcasts == reference[0].received_broadcasts

    @staticmethod
    def _both_routes(backend, tamper=lambda bcs, outbound: None, receiver=2, seed=0):
        """One node given the same messages, plus strays, through the round
        functions and, in shuffled order, through the intake: (node, abort) per route."""
        routes = []
        for through_intake in (False, True):
            parts, bcs, outbound = dealt_and_sent(backend)
            tamper(bcs, outbound)
            node = parts[receiver - 1]
            stray_bc, stray_share = bcs[1], outbound[1][receiver]
            broadcasts = {**bcs, 99: stray_bc, receiver: stray_bc}
            shares = {s: sent[receiver] for s, sent in outbound.items() if receiver in sent}
            shares.update({99: stray_share, 0: stray_share, -1: stray_share, receiver: stray_share})
            abort = None
            try:
                if through_intake:
                    messages = ([(dkg_receive_broadcast, s, bc) for s, bc in broadcasts.items()]
                                + [(dkg_receive_share, s, v) for s, v in shares.items()])
                    random.Random(seed).shuffle(messages)
                    for receive, sender, message in messages + messages:   # every message twice
                        try:
                            receive(node, sender, message)
                        except ProtocolAbort as exc:
                            assert abort is None
                            abort = exc
                    # a node still short of a peer is asked to finish as it stands
                    if abort is None and node.phase is Phase.ROUND1_DONE:
                        if node.missing(node.received_broadcasts):
                            dkg_accept_round1(node, {})
                        dkg_round2_finalize(node, {})
                else:
                    dkg_accept_round1(node, broadcasts)
                    dkg_round2_finalize(node, shares)
            except ProtocolAbort as exc:
                abort = exc
            routes.append((node, abort and (str(abort), abort.faulty_ids, node.phase)))
        return routes

    @pytest.mark.parametrize("seed", range(4))
    def test_honest_messages_end_in_identical_state(self, backend, seed):
        (mapped, no_abort), (taken, none_either) = self._both_routes(backend, seed=seed)
        assert no_abort is None and none_either is None
        assert mapped.phase is Phase.ROUND2_DONE
        assert taken == mapped

    def test_bad_proof_aborts_alike(self, backend):
        def tamper(bcs, outbound):
            proof = bcs[4].proof
            bcs[4] = Round1Broadcast(4, bcs[4].commitment,
                                     Signature(proof.R, proof.z + 1))
        (_, mapped), (_, taken) = self._both_routes(backend, tamper)
        assert mapped == taken == ("invalid proof of knowledge from [4]", (4,), Phase.ABORTED)

    def test_bad_share_aborts_alike(self, backend):
        def tamper(bcs, outbound):
            outbound[3][2] = outbound[3][2] + 1
        (_, mapped), (_, taken) = self._both_routes(backend, tamper)
        assert mapped == taken == ("share verification failed for [3]", (3,), Phase.ABORTED)

    @pytest.mark.parametrize("lost", ["broadcast", "share"])
    def test_missing_peer_aborts_alike(self, backend, lost):
        def tamper(bcs, outbound):
            if lost == "broadcast":
                del bcs[5]
            else:
                del outbound[5][2]
        (_, mapped), (_, taken) = self._both_routes(backend, tamper)
        what = "round-1 broadcasts" if lost == "broadcast" else "round-2 shares"
        assert mapped == taken == (f"missing {what} from [5]", (5,), Phase.ABORTED)

    def test_missing_names_the_lacking_peers_in_id_order(self, toy):
        node = fresh(toy, t=2, n=5)[2]
        assert node.missing({}) == [1, 2, 4, 5]
        assert node.missing({5: None, 3: None, 99: None, 1: None}) == [2, 4]
        assert node.missing(dict.fromkeys(range(1, 6))) == []


class TestNoSelfChecks:
    def test_round1_verifies_peer_proofs_only(self, backend, monkeypatch):
        rng = SeededRng(5)
        parts = fresh(backend, 2, 4)
        bcs = {p.id: dkg_round1(p, rng.fork(str(p.id))) for p in parts}
        checked = counting(monkeypatch, "pok_verify")
        dkg_accept_round1(parts[1], bcs)
        assert sorted(args[0] for args in checked) == [1, 3, 4]
        assert parts[1].received_broadcasts[2] is bcs[2]
        assert set(parts[1].received_broadcasts) == {1, 2, 3, 4}

    def test_round2_does_not_check_the_own_share(self, toy, monkeypatch):
        parts, outbound = dealt_and_accepted(toy, t=2, n=4)
        receiver = parts[3]
        evaluated = evaluations(monkeypatch)
        dkg_round2_finalize(receiver, inbound_for(receiver, outbound))
        assert checked_dealers(receiver, evaluated) == [1, 2, 3]
        own = receiver.own_polynomial.evaluate(receiver.id)
        assert receiver.sk_share == sum((v for v in inbound_for(receiver, outbound).values()), own)


class TestVerificationShares:
    @pytest.mark.parametrize("t,n", [(2, 2), (2, 7), (3, 3), (3, 9), (4, 10)])
    def test_forward_differences_match_direct_evaluation(self, backend, t, n):
        rng = SeededRng(f"fd/{t}/{n}")
        vector = CommitmentVector(tuple(
            backend.random_scalar(rng) * backend.generator() for _ in range(t)))
        values = committed_evaluations(vector, n)
        assert sorted(values) == list(range(1, n + 1))
        for i in range(1, n + 1):
            assert values[i] == vector.share_commitment(i)

    @pytest.mark.parametrize("t,n", [(2, 2), (2, 6), (3, 3), (3, 7)])
    def test_peer_pk_shares_commit_to_every_signing_share(self, backend, t, n):
        parts = run_dkg(backend, t, n, SeededRng(t * 100 + n))
        bcs = parts[0].received_broadcasts
        for p in parts:
            assert p.pk_share == p.sk_share * backend.generator()
            for i in range(1, n + 1):
                direct = backend.element_sum(bcs[s].commitment.share_commitment(i) for s in bcs)
                assert p.peer_pk_shares[i] == direct
                assert p.peer_pk_shares[i] == parts[i - 1].sk_share * backend.generator()
