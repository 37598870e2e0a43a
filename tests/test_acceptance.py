"""Acceptance suite: one test per headline criterion, with its time budget.

Each test prints a single ``[acceptance] <name>: PASS/FAIL`` line (visible
with ``pytest -v -s tests/test_acceptance.py``) and fails if its criterion or
its wall-clock budget is violated.
"""

import math
import statistics
import time
from contextlib import contextmanager

import pytest

from trustmesh.avss import avss_deal, avss_exchange_and_interpolate, avss_recover_secret, avss_verify_share
from trustmesh.bench import run_benchmark
from trustmesh.dkg import combine_signing_shares, run_dkg
from trustmesh.errors import ProtocolAbort
from trustmesh.gossip import GossipNode, gossip_maybe_terminate, gossip_receive, gossip_round, observe_broadcast
from trustmesh.groups import get_backend
from trustmesh.polynomials import Polynomial
from trustmesh.rng import SeededRng
from trustmesh.sharing import (
    SharePacket,
    commit_polynomial,
    commit_polynomial_pair,
    feldman_verify,
    pedersen_verify,
    shamir_combine,
    shares_from_polynomial,
)
from trustmesh.signing import (
    KeyShare,
    PartialVerifier,
    Signer,
    SigningPackage,
    aggregate,
    challenge_scalar,
    verify,
)
from trustmesh.simnet import load_scenario, run_simulation

TOY_P, TOY_Q, TOY_G, TOY_H = 23, 11, 2, 3


@contextmanager
def criterion(name, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < budget_s
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL (time budget)'} "
          f"({elapsed:.1f}s / {budget_s}s)")
    assert ok, f"{name} exceeded its {budget_s}s budget"


def toy_session(keys, signers, coalition, message, seed):
    rng = SeededRng(seed)
    lists = {i: signers[i].round1(rng.fork(str(i))) for i in coalition}
    package = SigningPackage.build(message, {i: lists[i].pair for i in coalition})
    partials = {i: signers[i].round2_partial(package) for i in coalition}
    return package, partials


def test_feldman_worked_example(ed25519):
    with criterion("feldman-worked-example", 1.0):
        poly = Polynomial(tuple(ed25519.scalar(c) for c in (5, 2, 4)))
        shares = shares_from_polynomial(poly, 4)
        assert [s.value.value for s in shares[1:]] == [25, 47, 77]
        commitments = commit_polynomial(ed25519, poly)
        assert all(feldman_verify(s, commitments) for s in shares)
        for triple in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
            subset = [shares[i] for i in triple]
            assert shamir_combine(subset).value == 5


def test_toy_group_oracle_equivalence(toy):
    with criterion("toy-group-oracle-equivalence", 30.0):
        subgroup = sorted(pow(TOY_G, k, TOY_P) for k in range(TOY_Q))
        mismatches = 0

        # group operations, exhaustive
        for x in subgroup:
            ex = toy.decode_element(bytes([x]))
            for y in subgroup:
                if (ex + toy.decode_element(bytes([y]))).rep != x * y % TOY_P:
                    mismatches += 1
            for a in range(TOY_Q + 1):
                if (toy.scalar(a) * ex).rep != pow(x, a % TOY_Q, TOY_P):
                    mismatches += 1
            if (-ex).rep != pow(x, TOY_P - 2, TOY_P):
                mismatches += 1

        # scalar field against int arithmetic, randomized >= 1000 cases
        rng = SeededRng("acceptance-oracle")
        for _ in range(1000):
            a, b = rng.randbelow(TOY_Q), rng.randbelow(TOY_Q)
            if (toy.scalar(a) + toy.scalar(b)).value != (a + b) % TOY_Q:
                mismatches += 1
            if (toy.scalar(a) * toy.scalar(b)).value != (a * b) % TOY_Q:
                mismatches += 1

        def product_oracle(entry_reps, j, exponent_mod):
            acc = 1
            for k, rep in enumerate(entry_reps):
                acc = acc * pow(rep, pow(j, k, exponent_mod), TOY_P) % TOY_P
            return acc

        # Feldman verification, exhaustive over (id, forged value)
        fpoly = Polynomial(tuple(toy.scalar(c) for c in (5, 2, 4)))
        fcom = commit_polynomial(toy, fpoly)
        freps = [e.rep for e in fcom.entries]
        for j in range(1, TOY_Q):
            for v in range(TOY_Q):
                expected = pow(TOY_G, v, TOY_P) == product_oracle(freps, j, TOY_Q)
                if feldman_verify(SharePacket(j, toy.scalar(v)), fcom) != expected:
                    mismatches += 1

        # Pedersen verification, exhaustive over (id, forged value) and
        # (id, forged blinding)
        bpoly = Polynomial(tuple(toy.scalar(c) for c in (7, 1, 3)))
        pcom = commit_polynomial_pair(toy, fpoly, bpoly)
        preps = [e.rep for e in pcom.entries]
        for j in range(1, TOY_Q):
            tv, tb = fpoly.evaluate(j).value, bpoly.evaluate(j).value
            target = product_oracle(preps, j, TOY_Q)
            for v in range(TOY_Q):
                expected = pow(TOY_G, v, TOY_P) * pow(TOY_H, tb, TOY_P) % TOY_P == target
                got = pedersen_verify(SharePacket(j, toy.scalar(v), toy.scalar(tb)), pcom)
                if got != expected:
                    mismatches += 1
            for b in range(TOY_Q):
                expected = pow(TOY_G, tv, TOY_P) * pow(TOY_H, b, TOY_P) % TOY_P == target
                got = pedersen_verify(SharePacket(j, toy.scalar(tv), toy.scalar(b)), pcom)
                if got != expected:
                    mismatches += 1

        # asynchronous-sharing verification, exhaustive over (sigma, sigma')
        rng_avss = SeededRng("acceptance-avss")
        commitment, deals = avss_deal(toy.scalar(5), 2, 4, rng_avss, toy)
        row_reps = [e.rep for e in commitment.entries[0]]
        for m in (1, 2, 3):
            target = 1
            for l, rep in enumerate(row_reps):
                target = target * pow(rep, pow(m, l, TOY_Q), TOY_P) % TOY_P
            for s in range(TOY_Q):
                for sp in range(TOY_Q):
                    expected = pow(TOY_G, s, TOY_P) * pow(TOY_H, sp, TOY_P) % TOY_P == target
                    got = avss_verify_share(commitment, m, toy.scalar(s), toy.scalar(sp))
                    if got != expected:
                        mismatches += 1

        # key-generation share check, exhaustive over forged share values
        parts = run_dkg(toy, 2, 4, SeededRng("acceptance-dkg"))
        receiver = parts[0]
        sender_com = receiver.received_broadcasts[2].commitment
        creps = [e.rep for e in sender_com.entries]
        for v in range(TOY_Q):
            expected = pow(TOY_G, v, TOY_P) == product_oracle(creps, receiver.id, TOY_Q)
            got = (toy.scalar(v) * toy.generator()) == sender_com.share_commitment(receiver.id)
            if got != expected:
                mismatches += 1

        # signing partial check, exhaustive over forged responses; the oracle
        # recomputes the target R_m * pk_m^(c*lambda_m) from public values
        from trustmesh.polynomials import lagrange_coefficient
        from trustmesh.signing import binding_values, bound_commitments

        keys = {p.id: KeyShare.from_participant(p) for p in parts}
        signers = {i: Signer(keys[i]) for i in keys}
        package, partials = toy_session(keys, signers, (1, 3), b"oracle", seed=77)
        verifier = PartialVerifier(package, keys[1].pk_shares, keys[1].group_pk)
        c = verifier.challenge.value
        betas = binding_values(package)
        per_signer = {}
        for member in (1, 3):
            a, b = package.pair(member)
            per_signer[member] = a.rep * pow(b.rep, betas[member].value, TOY_P) % TOY_P
        R = bound_commitments(package, betas)
        if R.rep != per_signer[1] * per_signer[3] % TOY_P:
            mismatches += 1
        for member in (1, 3):
            lam = lagrange_coefficient(member, (1, 3), toy.scalar(0)).value
            target = per_signer[member] * pow(
                keys[1].pk_shares[member].rep, c * lam % TOY_Q, TOY_P
            ) % TOY_P
            for z in range(TOY_Q):
                expected = pow(TOY_G, z, TOY_P) == target
                if (verifier.verify({member: toy.scalar(z)}) == []) != expected:
                    mismatches += 1
            if verifier.verify({member: partials[member]}) != []:
                mismatches += 1

        assert mismatches == 0


@pytest.mark.parametrize("t,n", [(2, 4), (3, 5), (3, 8)])
def test_dkg_correctness(t, n, toy, ed25519):
    with criterion(f"dkg-correctness-t{t}-n{n}", 10.0):
        for backend in (toy, ed25519):
            parts = run_dkg(backend, t, n, SeededRng(f"dkg-{t}-{n}"))
            keys = {p.group_pk.encode() for p in parts}
            assert len(keys) == 1
            rng = SeededRng(f"coalitions-{t}-{n}")
            ids = [p.id for p in parts]
            coalitions = [tuple(sorted(rng.sample(ids, t))) for _ in range(4)]
            coalitions.append(tuple(range(1, t + 1)))
            for coalition in coalitions:
                s_star = combine_signing_shares(parts, coalition)
                assert s_star * backend.generator() == parts[0].group_pk


def test_threshold_signature_validity(toy, ed25519):
    with criterion("threshold-signature-validity", 30.0):
        configs = [(2, 4), (3, 5), (3, 8)]

        # completeness on both backends: coalitions of size t and t+1
        for backend in (toy, ed25519):
            for t, n in configs:
                parts = run_dkg(backend, t, n, SeededRng(f"sig-{backend.name}-{t}-{n}"))
                keys = {p.id: KeyShare.from_participant(p) for p in parts}
                for size in (t, t + 1):
                    signers = {i: Signer(keys[i]) for i in keys}
                    coalition = tuple(range(1, size + 1))
                    package, partials = toy_session(
                        keys, signers, coalition, b"validity", seed=size
                    )
                    sig = aggregate(package, partials, keys[1].pk_shares, keys[1].group_pk)
                    assert verify(keys[1].group_pk, b"validity", sig)

        # 50 randomized single-bit-corruption trials: abort names the corrupter
        rng = SeededRng("corruption-trials")
        aborts = 0
        for trial in range(50):
            t, n = configs[rng.randbelow(len(configs))]
            parts = run_dkg(toy, t, n, SeededRng(f"trial-{trial}"))
            keys = {p.id: KeyShare.from_participant(p) for p in parts}
            signers = {i: Signer(keys[i]) for i in keys}
            coalition = tuple(sorted(rng.sample(range(1, n + 1), t)))
            package, partials = toy_session(keys, signers, coalition, b"trial", seed=trial)
            victim = coalition[rng.randbelow(len(coalition))]
            bit = rng.randbelow(TOY_Q.bit_length())
            forged = toy.scalar(partials[victim].value ^ (1 << bit))
            assert forged != partials[victim]
            partials[victim] = forged
            try:
                aggregate(package, partials, keys[1].pk_shares, keys[1].group_pk)
            except ProtocolAbort as abort:
                assert abort.faulty_ids == (victim,)
                aborts += 1
        assert aborts == 50


def test_binding_property(ed25519):
    # on the 11-element toy group a cross-wired partial can coincide with the
    # session's one valid response; the always-fails claim is cryptographic,
    # so the 100-trial sweep runs on the curve backend
    with criterion("binding-property", 10.0):
        parts = run_dkg(ed25519, 2, 4, SeededRng("binding"))
        keys = {p.id: KeyShare.from_participant(p) for p in parts}
        rng = SeededRng("binding-trials")
        failures = 0
        for trial in range(100):
            signers = {i: Signer(keys[i]) for i in keys}
            coalition = tuple(sorted(rng.sample(range(1, 5), 2)))
            msg_a = b"session-a-%d" % trial
            # half the trials differ in message, half in commitment set only
            msg_b = msg_a if trial % 2 else b"session-b-%d" % trial
            pkg_a, partials_a = toy_session(keys, signers, coalition, msg_a, seed=trial * 2)
            pkg_b, partials_b = toy_session(keys, signers, coalition, msg_b, seed=trial * 2 + 1)
            victim = coalition[0]
            mixed = dict(partials_b)
            mixed[victim] = partials_a[victim]
            try:
                aggregate(pkg_b, mixed, keys[1].pk_shares, keys[1].group_pk)
            except ProtocolAbort as abort:
                assert victim in abort.faulty_ids
                failures += 1
        assert failures == 100


def test_avss_criterion(toy, ed25519):
    with criterion("avss", 30.0):
        # honest dealer: all n shares verify (both backends)
        for backend in (toy, ed25519):
            commitment, deals = avss_deal(
                backend.scalar(5), 3, 5, SeededRng(f"avss-{backend.name}"), backend
            )
            for deal in deals:
                assert avss_verify_share(
                    commitment, deal.recipient, deal.share(), deal.a_prime.evaluate(0)
                )

        # exhaustive tamper rejection on the toy backend
        commitment, deals = avss_deal(toy.scalar(5), 2, 4, SeededRng("avss-ex"), toy)
        for deal in deals:
            sigma, sigma_p = deal.share(), deal.a_prime.evaluate(0)
            for forged in range(TOY_Q):
                if forged != sigma.value:
                    assert not avss_verify_share(
                        commitment, deal.recipient, toy.scalar(forged), sigma_p
                    )
                if forged != sigma_p.value:
                    assert not avss_verify_share(
                        commitment, deal.recipient, sigma, toy.scalar(forged)
                    )

        # dealer crash after t deliveries: every node completes via exchange
        t, n = 3, 5
        commitment, all_deals = avss_deal(toy.scalar(5), t, n, SeededRng("avss-crash"), toy)
        held = {d.recipient: d for d in all_deals if d.recipient <= t}
        results = avss_exchange_and_interpolate(commitment, held, n)
        assert all(results[j].complete for j in range(1, n + 1))

        # the simulator variant of the same scenario
        report = run_simulation(load_scenario("avss-dealer-crash"))
        dom = report.domain("async")
        assert dom["ok"] and dom["completed_members"] == [2, 3, 4, 5]

        # recovery returns the planted secret
        shares = [(j, results[j].share()) for j in (1, 4, 5)]
        assert avss_recover_secret(shares).value == 5


def test_scaling_shape(ed25519):
    with criterion("scaling-shape", 600.0):
        rows = run_benchmark("ed25519", 3, [4, 8, 16, 32, 64], repetitions=5, seed=0)
        round2 = [r.round2_ms for r in rows]
        assert round2 == sorted(round2) and len(set(round2)) == len(round2), \
            f"round-2 medians not strictly increasing: {round2}"
        ratio = round2[-1] / round2[0]
        assert ratio >= 20, f"round2(64)/round2(4) = {ratio:.1f} < 20"
        sign_times = [r.sign_ms for r in rows]
        spread = max(sign_times) / min(sign_times)
        assert spread < 3, f"signing time varies {spread:.2f}x across n"


def test_gossip_liveness(toy):
    with criterion("gossip-liveness", 300.0):
        # fixed toy key material (the liveness claim is about the gossip
        # rounds, not key generation); 100 seeded runs per network size
        parts = run_dkg(toy, 2, 4, SeededRng("liveness-key"))
        keys = {p.id: KeyShare.from_participant(p) for p in parts}
        coalition = (1, 2)

        for n in (8, 16, 32, 64):
            bound = math.ceil(4 * math.log2(n))
            within = 0
            for seed in range(100):
                signers = {i: Signer(keys[i]) for i in coalition}
                package, partials = toy_session(
                    keys, signers, coalition, b"liveness", seed=seed
                )
                verifier_args = (package, keys[1].pk_shares, keys[1].group_pk)
                nodes = {}
                for node_id in range(1, n + 1):
                    node = GossipNode(
                        node_id=node_id,
                        peers=tuple(p for p in range(1, n + 1) if p != node_id),
                        verifier=PartialVerifier(*verifier_args),
                    )
                    if node_id in coalition:
                        node.seed_own_partial(partials[node_id])
                    nodes[node_id] = node
                rng = SeededRng(f"gossip-{n}-{seed}")
                rounds_used = None
                inboxes = {i: [] for i in nodes}
                broadcasts = []
                for round_no in range(1, bound + 1):
                    for i in sorted(nodes):
                        for sender, transcript in inboxes[i]:
                            gossip_receive(nodes[i], sender, transcript)
                    inboxes = {i: [] for i in nodes}
                    for i in sorted(nodes):
                        for peer, transcript in gossip_round(nodes[i], rng.fork(f"r{round_no}/{i}")):
                            inboxes[peer].append((i, transcript))
                        b = gossip_maybe_terminate(nodes[i], rng.fork(f"t{round_no}/{i}"))
                        if b is not None:
                            broadcasts.append(b)
                    if broadcasts:
                        rounds_used = round_no
                        break
                if rounds_used is None:
                    continue
                for i in sorted(nodes):
                    for b in broadcasts:
                        observe_broadcast(nodes[i], b)
                encodings = {
                    nodes[i].finalized.to_bytes(toy) for i in nodes if nodes[i].finalized
                }
                assert len(encodings) == 1
                assert all(nodes[i].finalized is not None for i in nodes)
                within += 1
            assert within >= 90, f"n={n}: only {within}/100 runs terminated within {bound} rounds"


def test_determinism_criterion():
    with criterion("determinism", 60.0):
        for scenario in ("three-domains", "corrupt-dealer", "avss-dealer-crash"):
            config = load_scenario(scenario)
            first = run_simulation(config)
            second = run_simulation(config)
            assert first.trace_hash == second.trace_hash, scenario
            assert first.canonical_json() == second.canonical_json(), scenario
