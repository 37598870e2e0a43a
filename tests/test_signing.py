"""Threshold signing: binding, partial verification, aggregation, nonce hygiene."""

import itertools

import pytest

from trustmesh import signing as signing_mod
from trustmesh.dkg import run_dkg
from trustmesh.errors import NonceReuseError, ProtocolAbort
from trustmesh.polynomials import lagrange_coefficient
from trustmesh.rng import SeededRng
from trustmesh.signing import (
    KeyShare,
    NonceIntake,
    PartialVerifier,
    Signature,
    Signer,
    SigningPackage,
    aggregate,
    binding_values,
    bound_commitments,
    challenge_scalar,
    run_session as signing_session,
    schnorr_holds,
    sign_with_nonce,
    single_party_sign,
    verify,
)

TOY_P, TOY_Q, TOY_G = 23, 11, 2


def make_signers(backend, t=2, n=4, seed=0):
    parts = run_dkg(backend, t, n, SeededRng(seed))
    keys = {p.id: KeyShare.from_participant(p) for p in parts}
    return keys, {i: Signer(keys[i]) for i in keys}


def run_session(backend, keys, signers, coalition, message, seed=1):
    rng = SeededRng(seed)
    lists = {i: signers[i].round1(rng.fork(f"n{i}")) for i in coalition}
    package = SigningPackage.build(message, {i: lists[i].pair for i in coalition})
    partials = {i: signers[i].round2_partial(package) for i in coalition}
    any_key = keys[coalition[0]]
    sig = aggregate(package, partials, any_key.pk_shares, any_key.group_pk)
    return package, partials, sig


class TestSingleParty:
    def test_sign_verify_round_trip(self, backend, rng):
        sk = backend.random_scalar(rng)
        sig = single_party_sign(sk, b"message", rng, backend)
        assert verify(sk * backend.generator(), b"message", sig)

    def test_zero_key_warns_but_verifies(self, backend, rng):
        zero = backend.scalar(0)
        with pytest.warns(UserWarning):
            sig = single_party_sign(zero, b"m", rng, backend)
        assert verify(backend.identity(), b"m", sig)

    def test_forced_nonce_toy_oracle(self, toy):
        # both sides of the verify equation recomputed with plain modular
        # exponentiation
        sk, r = toy.scalar(4), toy.scalar(6)
        msg = b"oracle"
        sig = sign_with_nonce(sk, msg, r, toy)
        pk = sk * toy.generator()
        c = challenge_scalar(sig.R, pk, msg)
        lhs = pow(TOY_G, sig.z.value, TOY_P)
        rhs = sig.R.rep * pow(pk.rep, c.value, TOY_P) % TOY_P
        assert lhs == rhs
        assert verify(pk, msg, sig)

    def test_response_flip_always_rejected(self, backend, rng):
        # for fixed R and m exactly one response satisfies the equation, so a
        # response flip rejects even on the 11-element toy group
        sk = backend.random_scalar(rng)
        pk = sk * backend.generator()
        sig = single_party_sign(sk, b"stable", rng, backend)
        for delta in range(1, min(backend.order, 16)):
            assert not verify(pk, b"stable", Signature(sig.R, sig.z + delta))

    def test_bit_flips_rejected_on_curve(self, ed25519):
        rng = SeededRng("flips")
        sk = ed25519.random_scalar(rng)
        pk = sk * ed25519.generator()
        sig = single_party_sign(sk, b"stable", rng, ed25519)
        assert not verify(pk, b"stablE", sig)
        assert not verify(pk, b"stable", Signature(sig.R, sig.z + 1))
        assert not verify(pk, b"stable", Signature(sig.R + ed25519.generator(), sig.z))


class TestRound1:
    def test_single_pair_shape(self, backend, rng):
        _, signers = make_signers(backend)
        nl = signers[1].round1(rng)
        assert nl.owner == 1
        assert len(nl.pair) == 2
        assert len(nl.to_bytes()) == 4 + 2 * backend.element_bytes
        # each commitment survives the wire decoder, the one validity gate
        for point in nl.pair:
            assert backend.decode_element(point.encode()) == point

    def test_pairs_never_repeat_under_seeded_rng(self, backend, rng):
        _, signers = make_signers(backend)
        nl1 = signers[1].round1(rng)
        nl2 = signers[1].round1(rng)
        assert nl1.pair != nl2.pair


class TestRound2:
    def test_full_coalition_all_views_agree(self, toy):
        keys, signers = make_signers(toy, 2, 4, seed=3)
        coalition = (1, 2, 3, 4)
        rng = SeededRng(9)
        lists = {i: signers[i].round1(rng.fork(str(i))) for i in coalition}
        package = SigningPackage.build(b"m", {i: lists[i].pair for i in coalition})
        R = bound_commitments(package, binding_values(package))
        c = challenge_scalar(R, keys[1].group_pk, b"m")
        # every participant recomputes the identical group commitment and
        # challenge from the shared package
        for _ in coalition:
            R2 = bound_commitments(package, binding_values(package))
            assert R2 == R
            assert challenge_scalar(R2, keys[1].group_pk, b"m") == c

    @pytest.mark.parametrize("size_offset", [0, 1])
    def test_coalitions_of_size_t_and_t_plus_one(self, toy, size_offset):
        keys, signers = make_signers(toy, 2, 4, seed=5)
        coalition = tuple(range(1, 3 + size_offset))
        _, _, sig = run_session(toy, keys, signers, coalition, b"payload")
        assert verify(keys[1].group_pk, b"payload", sig)

    def test_nonce_reuse_hard_error(self, backend):
        keys, signers = make_signers(backend)
        coalition = (1, 2)
        rng = SeededRng(2)
        lists = {i: signers[i].round1(rng.fork(str(i))) for i in coalition}
        package = SigningPackage.build(b"m", {i: lists[i].pair for i in coalition})
        signers[1].round2_partial(package)
        with pytest.raises(NonceReuseError):
            signers[1].round2_partial(package)

    def test_replaced_pair_is_refused(self, backend, rng):
        # a second round 1 replaces the unused pair: only the latest can sign
        keys, signers = make_signers(backend)
        first = {i: signers[i].round1(rng.fork(f"first{i}")) for i in (1, 2)}
        signers[1].round1(rng.fork("again"))
        package = SigningPackage.build(b"m", {i: first[i].pair for i in (1, 2)})
        with pytest.raises(NonceReuseError):
            signers[1].round2_partial(package)
        assert signers[2].round2_partial(package) is not None

    def test_unknown_pair_rejected(self, backend, rng):
        keys, signers = make_signers(backend)
        g = backend.generator()
        fake = (backend.scalar(3) * g, backend.scalar(4) * g)
        package = SigningPackage.build(b"m", {1: fake, 2: fake})
        with pytest.raises(NonceReuseError):
            signers[1].round2_partial(package)

    def test_absent_from_coalition_rejected(self, backend, rng):
        keys, signers = make_signers(backend)
        lists = {i: signers[i].round1(rng.fork(str(i))) for i in (2, 3)}
        package = SigningPackage.build(b"m", {i: lists[i].pair for i in (2, 3)})
        with pytest.raises(ValueError):
            signers[1].round2_partial(package)

    def test_undersized_coalition_rejected(self, backend, rng):
        keys, signers = make_signers(backend, t=3, n=4)
        lists = {1: signers[1].round1(rng)}
        package = SigningPackage.build(b"m", {1: lists[1].pair})
        with pytest.raises(ValueError, match="threshold"):
            signers[1].round2_partial(package)

    def test_consumed_nonces_are_scrubbed(self, backend, rng):
        keys, signers = make_signers(backend)
        lists = {i: signers[i].round1(rng.fork(str(i))) for i in (1, 2)}
        package = SigningPackage.build(b"m", {i: lists[i].pair for i in (1, 2)})
        entry = signers[1]._nonce
        signers[1].round2_partial(package)
        assert signers[1]._nonce is None
        assert entry.a is None and entry.b is None


class TestAggregate:
    def test_corrupted_partial_aborts_naming_exactly_the_culprit(self, toy):
        keys, signers = make_signers(toy, 2, 4, seed=7)
        coalition = (1, 2, 3)
        rng = SeededRng(3)
        lists = {i: signers[i].round1(rng.fork(str(i))) for i in coalition}
        package = SigningPackage.build(b"m", {i: lists[i].pair for i in coalition})
        partials = {i: signers[i].round2_partial(package) for i in coalition}
        partials[2] = partials[2] + 1
        with pytest.raises(ProtocolAbort) as exc:
            aggregate(package, partials, keys[1].pk_shares, keys[1].group_pk)
        assert exc.value.faulty_ids == (2,)
        assert exc.value.reason == "partial verification failed for "

    def test_order_independent_signature_bytes(self, toy):
        keys, signers = make_signers(toy, 2, 4, seed=8)
        coalition = (1, 2, 3)
        rng = SeededRng(4)
        lists = {i: signers[i].round1(rng.fork(str(i))) for i in coalition}
        package = SigningPackage.build(b"m", {i: lists[i].pair for i in coalition})
        partials = {i: signers[i].round2_partial(package) for i in coalition}
        encodings = set()
        for order in itertools.permutations(coalition):
            shuffled = {i: partials[i] for i in order}
            sig = aggregate(package, shuffled, keys[1].pk_shares, keys[1].group_pk)
            encodings.add(sig.to_bytes(toy))
        assert len(encodings) == 1

    def test_missing_partial_is_incomplete_not_abort(self, backend, rng):
        keys, signers = make_signers(backend)
        coalition = (1, 2)
        lists = {i: signers[i].round1(rng.fork(str(i))) for i in coalition}
        package = SigningPackage.build(b"m", {i: lists[i].pair for i in coalition})
        partials = {1: signers[1].round2_partial(package)}
        with pytest.raises(ValueError, match="missing partials"):
            aggregate(package, partials, keys[1].pk_shares, keys[1].group_pk)

    def test_partial_soundness_exhaustive_toy(self, toy):
        keys, signers = make_signers(toy, 2, 4, seed=9)
        coalition = (1, 3)
        rng = SeededRng(5)
        lists = {i: signers[i].round1(rng.fork(str(i))) for i in coalition}
        package = SigningPackage.build(b"m", {i: lists[i].pair for i in coalition})
        partials = {i: signers[i].round2_partial(package) for i in coalition}
        verifier = PartialVerifier(package, keys[1].pk_shares, keys[1].group_pk)
        for member in coalition:
            for z in range(TOY_Q):
                expected = z == partials[member].value
                assert verifier.verify({member: toy.scalar(z)}) == ([] if expected else [member])

    def test_two_coalitions_same_key_both_accept(self, toy):
        keys, signers = make_signers(toy, 2, 4, seed=10)
        _, _, sig_a = run_session(toy, keys, signers, (1, 2), b"msg", seed=20)
        _, _, sig_b = run_session(toy, keys, signers, (2, 3), b"msg", seed=21)
        assert verify(keys[1].group_pk, b"msg", sig_a)
        assert verify(keys[1].group_pk, b"msg", sig_b)

    def test_ed25519_end_to_end(self, ed25519):
        keys, signers = make_signers(ed25519, 2, 4, seed=11)
        _, _, sig = run_session(ed25519, keys, signers, (2, 4), b"real curve")
        assert verify(keys[1].group_pk, b"real curve", sig)
        assert len(sig.to_bytes(ed25519)) == 64

    def test_coalition_independence_randomized(self, toy):
        # any coalition of size >= t signs under the same group key
        keys, _ = make_signers(toy, 3, 8, seed=15)
        rng = SeededRng("coalitions")
        for trial in range(15):
            size = 3 + rng.randbelow(6)
            coalition = tuple(sorted(rng.sample(range(1, 9), size)))
            signers = {i: Signer(keys[i]) for i in coalition}
            _, _, sig = run_session(toy, keys, signers, coalition, b"any coalition",
                                    seed=100 + trial)
            assert verify(keys[coalition[0]].group_pk, b"any coalition", sig)


class TestEd25519SessionEquivalence:
    """The multi-scalar group commitment and partial checks match the term-by-term forms."""

    @pytest.fixture(scope="class")
    def keys(self, ed25519):
        return make_signers(ed25519, 3, 5, seed=31)[0]

    def test_commitment_and_targets_match_bound_shares(self, ed25519, keys, monkeypatch):
        import trustmesh.signing as signing_mod

        seen_R = []
        challenge = signing_mod.challenge_scalar

        def recording_challenge(R, pk, message):
            seen_R.append(R)
            return challenge(R, pk, message)

        monkeypatch.setattr(signing_mod, "challenge_scalar", recording_challenge)
        zero = ed25519.scalar(0)
        for seed, coalition in enumerate([(1, 2, 3), (2, 4, 5), (1, 3, 5)]):
            signers = {i: Signer(keys[i]) for i in coalition}
            seen_R.clear()
            package, partials, sig = run_session(ed25519, keys, signers, coalition, b"eq", seed)
            verifier = PartialVerifier(package, keys[1].pk_shares, keys[1].group_pk)
            betas = binding_values(package)
            R = bound_commitments(package, betas)
            per_signer = {}
            for m in coalition:
                a, b = package.pair(m)
                per_signer[m] = a + betas[m] * b
            summed = ed25519.element_sum(per_signer[m] for m in coalition)
            # three signers, the aggregator's verifier and the one built here
            assert len(seen_R) == 5
            assert all(r == summed for r in seen_R) and R == summed and sig.R == summed
            c = verifier.challenge
            for m in coalition:
                lam = lagrange_coefficient(m, coalition, zero)
                lhs = partials[m] * ed25519.generator()
                assert lhs == per_signer[m] + (c * lam) * keys[m].pk_shares[m]
                assert verifier.verify({m: partials[m]}) == []
                assert verifier.verify({m: partials[m] + 1}) == [m]

    def test_corrupted_partial_aborts_naming_exactly_the_culprit(self, ed25519, keys):
        coalition = (1, 3, 4)
        for culprit in coalition:
            signers = {i: Signer(keys[i]) for i in coalition}
            rng = SeededRng(culprit)
            lists = {i: signers[i].round1(rng.fork(str(i))) for i in coalition}
            package = SigningPackage.build(b"m", {i: lists[i].pair for i in coalition})
            partials = {i: signers[i].round2_partial(package) for i in coalition}
            partials[culprit] = partials[culprit] + 1
            with pytest.raises(ProtocolAbort) as exc:
                aggregate(package, partials, keys[1].pk_shares, keys[1].group_pk)
            assert exc.value.faulty_ids == (culprit,)
            assert exc.value.reason == "partial verification failed for "


class TestBinding:
    def test_cross_message_partials_always_fail(self, toy):
        keys, signers = make_signers(toy, 2, 4, seed=12)
        coalition = (1, 2)
        rng = SeededRng(6)
        lists_a = {i: signers[i].round1(rng.fork(f"a{i}")) for i in coalition}
        # each member's second signer holds its pair for message b
        signers_b = {i: Signer(keys[i]) for i in coalition}
        lists_b = {i: signers_b[i].round1(rng.fork(f"b{i}")) for i in coalition}
        pkg_a = SigningPackage.build(b"message-a", {i: lists_a[i].pair for i in coalition})
        pkg_b = SigningPackage.build(b"message-b", {i: lists_b[i].pair for i in coalition})
        partial_a1 = signers[1].round2_partial(pkg_a)
        partial_b = {i: signers_b[i].round2_partial(pkg_b) for i in coalition}
        mixed = dict(partial_b)
        mixed[1] = partial_a1
        with pytest.raises(ProtocolAbort):
            aggregate(pkg_b, mixed, keys[1].pk_shares, keys[1].group_pk)

    def test_changing_commitment_set_changes_binding_values(self, toy):
        keys, signers = make_signers(toy, 2, 4, seed=13)
        rng = SeededRng(7)
        # one stream per member, read twice: the draws of the old two-pair batch
        streams = {i: rng.fork(str(i)) for i in (1, 2)}
        first = {i: signers[i].round1(streams[i]) for i in (1, 2)}
        second = {i: signers[i].round1(streams[i]) for i in (1, 2)}
        pkg1 = SigningPackage.build(b"m", {i: first[i].pair for i in (1, 2)})
        pkg2 = SigningPackage.build(b"m", {i: second[i].pair for i in (1, 2)})
        assert binding_values(pkg1) != binding_values(pkg2) or (
            bound_commitments(pkg1, binding_values(pkg1))
            != bound_commitments(pkg2, binding_values(pkg2))
        )

    def test_package_requires_valid_points(self, toy):
        # a commitment arrives as bytes; decode_element refuses 5 (5^11 mod
        # 23 != 1), so a point outside the subgroup never reaches build
        good = toy.generator()
        with pytest.raises(ValueError, match="not in the order-11 subgroup"):
            toy.decode_element(bytes([5]))
        package = SigningPackage.build(b"m", {1: (good, good), 2: (good, toy.decode_element(bytes([4])))})
        assert package.pair(2) == (good, good + good)


class TestSinglePartyEquivalence:
    def test_one_of_one_coalition_equals_plain_schnorr(self, backend):
        # a sole signer with lambda = 1: same bytes as plain signing with the
        # bound nonce a + b*beta
        rng = SeededRng(14)
        sk = backend.random_scalar(rng)
        key = KeyShare(
            id=1, t=1,
            sk_share=sk,
            group_pk=sk * backend.generator(),
            pk_shares={1: sk * backend.generator()},
        )
        signer = Signer(key)
        nl = signer.round1(rng)
        package = SigningPackage.build(b"solo", {1: nl.pair})
        beta = binding_values(package)[1]
        nonce_entry = signer._nonce
        effective = nonce_entry.a + nonce_entry.b * beta
        z = signer.round2_partial(package)
        sig = aggregate(package, {1: z}, key.pk_shares, key.group_pk)
        plain = sign_with_nonce(sk, b"solo", effective, backend)
        assert sig.to_bytes(backend) == plain.to_bytes(backend)
        assert verify(key.group_pk, b"solo", sig)


class TestSchnorrEquation:
    def test_exhaustive_toy_oracle(self, toy):
        # z*G == R + c*pk against g^z == R * pk^c (mod 23), over every z, c and pk
        R = toy.scalar(3) * toy.generator()
        for pk_dlog, c, z in itertools.product(range(TOY_Q), repeat=3):
            pk = toy.scalar(pk_dlog) * toy.generator()
            expected = pow(TOY_G, z, TOY_P) == R.rep * pow(pk.rep, c, TOY_P) % TOY_P
            assert schnorr_holds(Signature(R, toy.scalar(z)), toy.scalar(c), pk) == expected

    def test_verify_is_the_equation_under_the_message_challenge(self, backend, rng):
        sk = backend.random_scalar(rng)
        pk = sk * backend.generator()
        sig = single_party_sign(sk, b"eq", rng, backend)
        c = challenge_scalar(sig.R, pk, b"eq")
        assert schnorr_holds(sig, c, pk) and verify(pk, b"eq", sig)
        assert not schnorr_holds(sig, c + 1, pk)


class TestSignatureSerialization:
    def test_round_trip(self, backend, rng):
        sk = backend.random_scalar(rng)
        sig = single_party_sign(sk, b"wire", rng, backend)
        data = sig.to_bytes(backend)
        parsed = Signature.from_bytes(data, backend)
        assert parsed.R == sig.R and parsed.z == sig.z

    def test_bad_length_rejected(self, backend):
        with pytest.raises(ValueError):
            Signature.from_bytes(b"\x01", backend)


class TestRunSession:
    def test_signs_and_binds_nonces_to_the_message(self, ed25519, monkeypatch):
        keys, _ = make_signers(ed25519, t=2, n=3, seed=8)
        coalition = {i: keys[i] for i in (1, 3)}
        published = []
        round1 = Signer.round1

        def recording_round1(signer, rng):
            nonces = round1(signer, rng)
            published.append(nonces.pair[0].encode() + nonces.pair[1].encode())
            return nonces

        monkeypatch.setattr(Signer, "round1", recording_round1)
        sigs = [signing_session(coalition, m, SeededRng(2)) for m in (b"one", b"two", b"one")]
        assert verify(keys[1].group_pk, b"one", sigs[0])
        assert verify(keys[1].group_pk, b"two", sigs[1])
        assert sigs[0] == sigs[2]
        # one seed, two messages: four distinct nonce pairs, the repeat reuses its own
        assert len(set(published[:4])) == 4 and published[4:] == published[:2]


    def test_the_session_is_derived_once(self, backend, monkeypatch):
        keys, _ = make_signers(backend, t=3, n=5, seed=9)
        built = []
        init = PartialVerifier.__init__

        def counting_init(verifier, *args):
            built.append(args[0])
            init(verifier, *args)

        monkeypatch.setattr(PartialVerifier, "__init__", counting_init)
        sig = signing_session({i: keys[i] for i in (1, 2, 4)}, b"once", SeededRng(3))
        assert len(built) == 1 and built[0].coalition == (1, 2, 4)
        assert verify(keys[1].group_pk, b"once", sig)


class TestPackageSession:
    """The package derives the binding values and R once, for every role that holds it."""

    def test_one_package_derives_the_session_once(self, backend, monkeypatch):
        keys, _ = make_signers(backend, t=3, n=5, seed=9)
        coalition = (1, 2, 4)
        # twin signers draw the same nonce pair, so each pair can answer once per package
        twins = {i: [Signer(keys[i]) for _ in range(2)] for i in coalition}
        lists = {i: [s.round1(SeededRng(4).fork(f"n{i}")) for s in twins[i]] for i in coalition}
        pairs = {i: lists[i][0].pair for i in coalition}
        calls = []
        for name in ("binding_values", "bound_commitments"):
            original = getattr(signing_mod, name)

            def counting(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)
            monkeypatch.setattr(signing_mod, name, counting)
        shared = SigningPackage.build(b"shared", pairs)
        partials = {i: twins[i][0].round2_partial(shared) for i in coalition}
        sig = aggregate(shared, partials, keys[5].pk_shares, keys[5].group_pk)
        assert sorted(calls) == ["binding_values", "bound_commitments"]
        assert verify(keys[5].group_pk, b"shared", sig)
        separate = {i: twins[i][1].round2_partial(SigningPackage.build(b"shared", pairs))
                    for i in coalition}
        assert separate == partials


class TestIntake:
    """One node's nonce-list intake, fed one list at a time."""

    def lists(self, backend, seed=16):
        _, signers = make_signers(backend, t=3, n=5, seed=seed)
        rng = SeededRng(seed)
        return {i: signers[i].round1(rng.fork(str(i))) for i in signers}

    def test_any_order_gives_the_built_package(self, backend):
        lists = self.lists(backend)
        coalition = (1, 2, 4)
        expected = SigningPackage.build(b"intake", {i: lists[i].pair for i in coalition})
        for order in itertools.permutations(coalition):
            intake = NonceIntake(b"intake", coalition)
            returned = [intake.receive(i, lists[i]) for i in order]
            assert returned[:-1] == [None, None]
            assert returned[-1] == expected
            assert intake.package == expected

    def test_repeats_and_outsiders_are_ignored(self, toy):
        lists = self.lists(toy)
        later = self.lists(toy, seed=17)
        intake = NonceIntake(b"intake", (4, 1, 2))
        assert intake.coalition == (1, 2, 4)
        assert intake.receive(3, lists[3]) is None          # not in the coalition
        assert intake.receive(1, lists[1]) is None
        assert intake.receive(1, later[1]) is None          # repeat: the first list counts
        assert intake.receive(5, lists[5]) is None
        assert intake.missing() == [2, 4]
        assert intake.receive(2, lists[2]) is None
        package = intake.receive(4, lists[4])
        assert package.pair(1) == lists[1].pair
        assert package.coalition == (1, 2, 4)
        assert intake.receive(4, later[4]) is None          # complete: nothing more counts
        assert intake.package is package

    def test_empty_and_misowned_lists_are_dropped(self, toy):
        lists = self.lists(toy)
        intake = NonceIntake(b"m", (1, 2))
        assert intake.receive(1, lists[1]) is None
        assert intake.receive(2, lists[1]) is None          # member 1's list, sent by 2
        assert intake.missing() == [2]
        package = intake.receive(2, lists[2])
        assert package.pair(1) == lists[1].pair
        assert package.pair(2) == lists[2].pair

    def test_missing_shrinks_to_empty(self, toy):
        lists = self.lists(toy)
        intake = NonceIntake(b"intake", (1, 2, 4))
        seen = [intake.missing()]
        for i in (4, 1, 2):
            intake.receive(i, lists[i])
            seen.append(intake.missing())
        assert seen == [[1, 2, 4], [1, 2], [2], []]

    def test_run_session_signature_is_unchanged(self, backend):
        # bytes from the signing session as it stood before it went through
        # the intake: seeded `trustmesh sign` output must not move
        expected = {
            "toy": "0600",
            "ed25519": "2ba21eb307493c2bda1551c34855ca992b539683330929ecd5230cf57de1c9fd"
                       "b697d58e1943e8aaecc36063af5057428e5eb398d14fb43056259d196a9b5808",
        }
        keys, _ = make_signers(backend, t=2, n=3, seed=8)
        sig = signing_session({i: keys[i] for i in (1, 3)}, b"intake", SeededRng(2))
        assert sig.to_bytes(backend).hex() == expected[backend.name]
        assert verify(keys[1].group_pk, b"intake", sig)


class TestAggregateWithVerifier:
    def session(self, backend):
        keys, signers = make_signers(backend, t=2, n=4, seed=11)
        return keys, run_session(backend, keys, signers, (1, 3), b"reuse")

    def test_given_verifier_gives_the_same_signature(self, backend):
        keys, (package, partials, sig) = self.session(backend)
        verifier = PartialVerifier(package, keys[2].pk_shares, keys[2].group_pk)
        again = aggregate(package, partials, keys[2].pk_shares, keys[2].group_pk, verifier=verifier)
        assert again.to_bytes(backend) == sig.to_bytes(backend)

    def test_given_verifier_still_blames_a_bad_partial(self, backend):
        keys, (package, partials, _) = self.session(backend)
        verifier = PartialVerifier(package, keys[1].pk_shares, keys[1].group_pk)
        bad = dict(partials)
        bad[3] = bad[3] + 1
        with pytest.raises(ProtocolAbort) as exc:
            aggregate(package, bad, keys[1].pk_shares, keys[1].group_pk, verifier=verifier)
        assert exc.value.faulty_ids == (3,)

    def test_verifier_for_another_package_is_rejected(self, backend):
        keys, (package, partials, _) = self.session(backend)
        other = SigningPackage.build(b"another message", {m: package.pair(m) for m in package.coalition})
        verifier = PartialVerifier(other, keys[1].pk_shares, keys[1].group_pk)
        with pytest.raises(ValueError, match="another signing package"):
            aggregate(package, partials, keys[1].pk_shares, keys[1].group_pk, verifier=verifier)

    def test_verifier_for_another_group_key_is_rejected(self, ed25519):
        keys, (package, partials, _) = self.session(ed25519)
        other_keys, _ = make_signers(ed25519, t=2, n=4, seed=12)
        verifier = PartialVerifier(package, other_keys[1].pk_shares, other_keys[1].group_pk)
        with pytest.raises(ValueError, match="group key"):
            aggregate(package, partials, keys[1].pk_shares, keys[1].group_pk, verifier=verifier)


class TestPartialVerifierChecksOnce:
    """verify checks a partial once and remembers it only when it is accepted."""

    def session(self, backend):
        keys, signers = make_signers(backend, t=2, n=4, seed=11)
        package, partials, _ = run_session(backend, keys, signers, (1, 3), b"once")
        return PartialVerifier(package, keys[2].pk_shares, keys[2].group_pk), partials

    def test_accepted_partial_is_rechecked_without_group_work(self, backend, monkeypatch):
        verifier, partials = self.session(backend)
        calls = []
        multi_mul = backend.multi_mul

        def counting(scalars, elements):
            calls.append(len(scalars))
            return multi_mul(scalars, elements)
        monkeypatch.setattr(backend, "multi_mul", counting)
        assert verifier.verify({3: partials[3]}) == []
        assert calls == [4]
        assert verifier.verify({3: partials[3]}) == [] and verifier.verify({3: partials[3]}) == []
        assert calls == [4]

    def test_rejected_partial_is_never_remembered(self, backend):
        verifier, partials = self.session(backend)
        z = partials[1]
        checks = [verifier.verify({1: w}) for w in (z + 1, z + 1, z, z + 1)]
        assert checks == [[1], [1], [], [1]]

    def test_non_member_is_rejected(self, backend):
        verifier, partials = self.session(backend)
        assert verifier.verify({2: partials[3]}) == [2]
        assert verifier.verify({9: partials[3]}) == [9]


# a 3-of-5 session signed by (1, 2, 3): tamper(partials) -> the members verify rejects
TAMPERS = {
    "one bad partial": (lambda p: {**p, 2: p[2] + 1}, [2]),
    "two bad partials": (lambda p: {**p, 1: p[1] + 1, 3: p[3] + 2}, [1, 3]),
    # the unweighted sum of these equations still holds
    "cancelling pair": (lambda p: {**p, 1: p[1] + 7, 2: p[2] - 7}, [1, 2]),
    "partial under another member's id": (lambda p: {**p, 2: p[1]}, [2]),
    "non-coalition id": (lambda p: {**p, 5: p[1]}, [5]),
}


class TestBatchedPartialCheck:
    """verify tests a session's partials in one weighted sum and still names each bad one."""

    @pytest.fixture
    def session(self, backend):
        keys, signers = make_signers(backend, t=3, n=5, seed=51)
        package, partials, _ = run_session(backend, keys, signers, (1, 2, 3), b"batch")
        return keys, package, partials

    def count_multi_muls(self, backend, monkeypatch):
        calls = []
        multi_mul = backend.multi_mul

        def counting(scalars, elements):
            calls.append(len(scalars))
            return multi_mul(scalars, elements)
        monkeypatch.setattr(backend, "multi_mul", counting)
        return calls

    @pytest.mark.parametrize("case", TAMPERS)
    def test_aggregate_names_exactly_the_bad_partials(self, session, case):
        keys, package, partials = session
        tamper, rejected = TAMPERS[case]
        bad = tamper(partials)
        if rejected == [5]:
            # aggregate reads only the coalition's partials
            sig = aggregate(package, bad, keys[5].pk_shares, keys[5].group_pk)
            assert verify(keys[5].group_pk, b"batch", sig)
            return
        with pytest.raises(ProtocolAbort) as exc:
            aggregate(package, bad, keys[5].pk_shares, keys[5].group_pk)
        assert str(exc.value) == f"partial verification failed for {rejected}"
        assert exc.value.faulty_ids == tuple(rejected)

    @pytest.mark.parametrize("case", TAMPERS)
    def test_good_partials_of_a_failed_sum_are_remembered(self, session, case, backend, monkeypatch):
        keys, package, partials = session
        tamper, rejected = TAMPERS[case]
        verifier = PartialVerifier(package, keys[4].pk_shares, keys[4].group_pk)
        assert verifier.verify(tamper(partials)) == rejected
        calls = self.count_multi_muls(backend, monkeypatch)
        good = {m: z for m, z in partials.items() if m not in rejected}
        assert verifier.verify(good) == []
        assert calls == []

    def test_honest_aggregate_is_one_sum_on_ed25519(self, session, backend, monkeypatch):
        keys, package, partials = session
        verifier = PartialVerifier(package, keys[5].pk_shares, keys[5].group_pk)
        calls = self.count_multi_muls(backend, monkeypatch)
        aggregate(package, partials, keys[5].pk_shares, keys[5].group_pk, verifier=verifier)
        # G plus A, B and pk per member; toy, where a weight can vanish, checks one by one
        assert calls == ([1 + 3 * 3] if backend.name == "ed25519" else [4, 4, 4])

    def test_non_member_costs_no_group_work(self, session, backend, monkeypatch):
        keys, package, partials = session
        verifier = PartialVerifier(package, keys[5].pk_shares, keys[5].group_pk)
        calls = self.count_multi_muls(backend, monkeypatch)
        assert verifier.verify({4: partials[1], 9: partials[2]}) == [4, 9]
        assert calls == []

    def test_partial_weights_are_a_pure_function_of_the_inputs(self, ed25519, monkeypatch):
        keys, signers = make_signers(ed25519, t=3, n=5, seed=51)
        package, partials, _ = run_session(ed25519, keys, signers, (1, 2, 3), b"batch")
        returned = []
        original = signing_mod.batch_weights

        def recording(*args):
            returned.append(original(*args))
            return returned[-1]
        monkeypatch.setattr(signing_mod, "batch_weights", recording)

        def weights(checked, node=5, session=package):
            # a fresh verifier, so every partial is new to it
            PartialVerifier(session, keys[node].pk_shares, keys[node].group_pk).verify(checked)
            return returned[-1]

        honest = weights(partials)
        assert weights({m: ed25519.scalar(z.value) for m, z in reversed(partials.items())}, node=4) == honest
        assert sorted(honest) == [1, 2, 3]
        assert all(0 < w < 1 << 128 for w in honest.values())
        assert len(set(honest.values())) == len(honest)
        for m in partials:
            assert weights({**partials, m: partials[m] + 1}) != honest
        other = SigningPackage.build(b"another message", {m: package.pair(m) for m in package.coalition})
        assert weights(partials, session=other) != honest

    def test_verify_matches_an_independent_oracle(self, session, backend):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        keys, package, partials = session
        pk_shares, group_pk = keys[5].pk_shares, keys[5].group_pk
        g, zero, q = backend.generator(), backend.scalar(0), backend.order
        betas = binding_values(package)
        c = challenge_scalar(bound_commitments(package, betas), group_pk, b"batch")

        def oracle_accepts(m, z):
            if m not in package.coalition:
                return False
            a, b = package.pair(m)
            lam = lagrange_coefficient(m, package.coalition, zero)
            return z * g == a + betas[m] * b + (c * lam) * pk_shares[m]

        # one verifier for every example, so remembered partials are exercised too
        verifier = PartialVerifier(package, pk_shares, group_pk)
        offset = st.one_of(st.just(0), st.integers(1, q - 1))

        @hypothesis.settings(max_examples=25, deadline=None, derandomize=True, database=None)
        @hypothesis.given(
            st.tuples(offset, offset, offset), st.booleans(),
            st.dictionaries(st.sampled_from([4, 5, 9]), st.integers(0, q - 1), max_size=2),
        )
        def check(offsets, cancel, outsiders):
            if cancel:
                offsets = (offsets[0], offsets[1], -offsets[0] - offsets[1])
            tampered = {m: partials[m] + d for m, d in zip((1, 2, 3), offsets)}
            tampered.update({m: backend.scalar(z) for m, z in outsiders.items()})
            expected = sorted(m for m, z in tampered.items() if not oracle_accepts(m, z))
            assert verifier.verify(tampered) == expected

        check()
