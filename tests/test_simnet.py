"""Simulator scenarios: determinism, trust overlays, adversaries, timeouts."""

import dataclasses
import hashlib
import json
import re
from pathlib import Path

import pytest

from trustmesh import groups as groups_mod
from trustmesh import signing as signing_mod
from trustmesh.errors import ConfigError
from trustmesh.groups import get_backend
from trustmesh.polynomials import interpolate_at
from trustmesh.rng import SeededRng
from trustmesh.sharing import SharePacket
from trustmesh.signing import PartialVerifier, Signature, verify
from trustmesh.simnet import (
    AdversarySpec,
    DelaySpec,
    DomainSpec,
    GossipSpec,
    Message,
    SimConfig,
    Simulator,
    load_scenario,
    run_simulation,
)


def dkg_domain(domain_id="d", members=(1, 2, 3, 4), t=2, **kw):
    return DomainSpec(domain_id, tuple(members), t, **kw)


class TestDeterminism:
    def test_same_seed_identical_reports(self):
        config = load_scenario("three-domains")
        r1 = run_simulation(config)
        r2 = run_simulation(config)
        assert r1.trace_hash == r2.trace_hash
        assert r1.canonical_json() == r2.canonical_json()

    def test_uniform_delays_still_deterministic(self):
        config = SimConfig(
            seed=42, nodes=5, domains=(dkg_domain(members=(1, 2, 3, 4, 5), t=3),),
            delay=DelaySpec(model="uniform", lo=1, hi=4),
        )
        r1 = run_simulation(config)
        r2 = run_simulation(config)
        assert r1.trace_hash == r2.trace_hash
        assert r1.core["ok"]
        # pins the uniform delay draws, which no bundled scenario uses
        digest = hashlib.sha256(r1.canonical_json().encode()).hexdigest()
        assert (digest, r1.trace_hash) == (
            "fcd0a0fd1780d453da99477839446a3b6178cc6a697fb8b755ccb1f52715accc",
            "86ff403c09f639e319c2b6ca24ae555ad465ad6482df48fbaa5b3e8ac3a5f888",
        )

    def test_different_seeds_differ(self):
        base = dict(nodes=4, domains=(dkg_domain(),))
        r1 = run_simulation(SimConfig(seed=1, **base))
        r2 = run_simulation(SimConfig(seed=2, **base))
        assert r1.trace_hash != r2.trace_hash

    def test_timings_excluded_from_canonical_json(self):
        config = SimConfig(seed=4, nodes=4, domains=(dkg_domain(),))
        report = run_simulation(config)
        assert "timings" not in json.loads(report.canonical_json())
        assert "timings" in json.loads(report.to_json())


# sha256 of canonical_json() and the trace hash of each bundled scenario.  A
# change to either makes archived replays stale, so it must be deliberate.
GOLDEN = {
    "three-domains": (
        "ef37a3fd3be458ada86ba80c14c9d54c5cf9a35e952dedc02e8c69fe19d5b945",
        "17babee6ef9f9d6f6336bcc3f8a15257a895e91d66e0f8b5276857595885678d",
    ),
    "corrupt-dealer": (
        "65c230dbef0ac05f9eadb25a1bbf3b14d272de33cb6f3f68a2ac256ee363ad0f",
        "2df995805f7d3a295957c877221f219af266f7072dd04a7139884eb24ec4d693",
    ),
    "avss-dealer-crash": (
        "3cac2c572eb97bc7fd7719b61a777e9f427c84ff4989cbb25bf3fab54d4c486f",
        "2e0b450391c6ce57b075b28d1a906526f220c7920776b3f5a4cde511a79971e9",
    ),
    # the benchmark's 14-node ed25519 scenario at its own seed 0: pins the
    # simulator on the curve, not only on the toy group
    "sim-mesh": (
        "6c978f07378bef76eb81dd56ab24c41778719fe1f123159c9fffd7b5561b9a93",
        "f8fdf5baa5bb33bb6c787e91f68e7c5c4c4f5961aa6fa560d1e69a0147daec95",
    ),
}
SCENARIO_FILES = {"sim-mesh": Path(__file__).resolve().parents[1] / "perfbench" / "sim_mesh.json"}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bundled_scenario_golden(name):
    report = run_simulation(load_scenario(str(SCENARIO_FILES.get(name, name))))
    digest = hashlib.sha256(report.canonical_json().encode()).hexdigest()
    assert (digest, report.trace_hash) == GOLDEN[name]


class TestTrustOverlays:
    def test_three_overlapping_domains(self):
        report = run_simulation(load_scenario("three-domains"))
        domains = report.core["domains"]
        assert set(domains) == {"A", "B", "C"}
        keys = {d["group_pk"] for d in domains.values()}
        assert len(keys) == 3  # one independent key per trust domain
        backend = get_backend(report.core["backend"])
        message = bytes.fromhex(report.core["message"])
        for dom in domains.values():
            assert dom["ok"]
            assert sorted(dom["completed_members"]) == dom["members"]
            sig = Signature.from_bytes(bytes.fromhex(dom["signature"]), backend)
            pk = backend.decode_element(bytes.fromhex(dom["group_pk"]))
            assert verify(pk, message, sig)

    def test_shared_nodes_have_a_share_in_each_domain(self):
        config = SimConfig(
            seed=21, nodes=4,
            domains=(
                dkg_domain("X", (1, 2, 3), 2),
                dkg_domain("Y", (2, 3, 4), 2),
            ),
        )
        sim = Simulator(config)
        sim.run()
        x, y = (sim.engines[d].participants for d in ("X", "Y"))
        for shared in (2, 3):
            assert x[shared].sk_share is not None and y[shared].sk_share is not None

    def test_domain_isolation_under_exfiltration(self, toy):
        config = SimConfig(
            seed=22, nodes=4,
            domains=(dkg_domain("X", (1, 2, 3), 2), dkg_domain("Y", (2, 3, 4), 2)),
        )
        baseline = run_simulation(config)
        sim = Simulator(config)
        report = sim.run()
        # reading a domain's shares is passive: identical traffic and identical domain keys
        assert report.trace_hash == baseline.trace_hash
        x, y = report.domain("X"), report.domain("Y")
        assert x["group_pk"] != y["group_pk"]
        # the shares X's members hold really do reconstruct X's group secret ...
        shares = [
            (p.id, p.sk_share) for _, p in sorted(sim.engines["X"].participants.items())
            if p.sk_share is not None
        ]
        secret = interpolate_at(shares[:2], toy.scalar(0))
        assert (secret * toy.generator()).encode().hex() == x["group_pk"]
        # ... yet Y's signature still verifies and Y's key is untouched
        pk_y = toy.decode_element(bytes.fromhex(y["group_pk"]))
        sig_y = Signature.from_bytes(bytes.fromhex(y["signature"]), toy)
        assert verify(pk_y, bytes.fromhex(report.core["message"]), sig_y)
        assert (secret * toy.generator()).encode().hex() != y["group_pk"]


class TestAdversaries:
    def test_corrupt_dealer_scenario_records_dealer_faulty(self):
        report = run_simulation(load_scenario("corrupt-dealer"))
        dom = report.domain("vault")
        verdicts = set(dom["complaint_verdicts"].values())
        assert verdicts == {"dealer-faulty"}
        assert any("dealer-faulty" in v for v in dom["verdicts"])

    def test_honest_pedersen_domain_verifies_all_shares(self):
        config = SimConfig(
            seed=30, nodes=4,
            domains=(DomainSpec("v", (1, 2, 3, 4), 2, protocol="pedersen_vss"),),
        )
        dom = run_simulation(config).domain("v")
        assert dom["ok"]
        assert all(dom["share_results"].values())
        assert dom["complaint_verdicts"] == {}

    def test_corrupt_dkg_share_aborts_naming_corrupter(self):
        config = SimConfig(
            seed=31, nodes=4, domains=(dkg_domain(),),
            adversaries=(AdversarySpec(3, "corrupt_shares"),),
        )
        dom = run_simulation(config).domain("d")
        assert not dom["ok"]
        assert any("blaming [3]" in v for v in dom["verdicts"])

    def test_silent_node_times_out_with_missing_ids(self):
        config = SimConfig(
            seed=32, nodes=4, domains=(dkg_domain(),),
            adversaries=(AdversarySpec(2, "silent"),),
            timeout_ticks=8,
        )
        dom = run_simulation(config).domain("d")
        assert not dom["ok"]
        assert any("waiting for [2]" in v for v in dom["verdicts"])

    def test_equivocation_detected_as_key_disagreement(self):
        config = SimConfig(
            seed=33, nodes=4, domains=(dkg_domain(),),
            adversaries=(AdversarySpec(2, "equivocate"),),
        )
        dom = run_simulation(config).domain("d")
        assert not dom["ok"]
        assert any("equivocation" in v for v in dom["verdicts"])

    def test_equivocation_with_agreeing_group_keys_detected(self):
        # on toy, node 2's two dealings share their constant term for this
        # seed: the group keys agree and only the verification shares differ
        config = SimConfig(
            seed=1, nodes=5, domains=(dkg_domain(members=(1, 2, 3, 4, 5)),),
            adversaries=(AdversarySpec(2, "equivocate"),),
        )
        dom = run_simulation(config).domain("d")
        assert not dom["ok"]
        assert dom["verdicts"] == ["verification share disagreement: equivocation by dealers [2]"]
        assert dom["completed_members"] == []

    @pytest.mark.parametrize("backend", ["toy", "ed25519"])
    def test_group_key_split_names_its_dealer(self, backend):
        # node 2's two dealings differ in their constant term, so the group
        # keys split; the split commitment still names node 2
        config = SimConfig(
            seed=33, nodes=5, backend=backend,
            domains=(DomainSpec("d", (1, 2, 3, 4, 5), 3),),
            adversaries=(AdversarySpec(2, "equivocate"),),
        )
        dom = run_simulation(config).domain("d")
        assert dom["verdicts"] == ["verification share disagreement: equivocation by dealers [2]"]
        assert dom["completed_members"] == []

    def test_crash_outside_coalition_is_tolerated(self):
        config = SimConfig(
            seed=34, nodes=4, domains=(dkg_domain(coalition=(1, 2)),),
            adversaries=(AdversarySpec(4, "crash", at_tick=4),),
        )
        dom = run_simulation(config).domain("d")
        assert dom["ok"]
        assert 4 not in dom["completed_members"]

    @pytest.mark.parametrize("backend", ["toy", "ed25519"])
    def test_forged_partial_is_flagged_during_gossip(self, backend, monkeypatch):
        # node 2 passes key generation honestly, then every transcript it
        # gossips carries one forged partial; on ed25519 a receiver given two
        # new partials tests them in one weighted sum, which the forged one
        # fails, so each is then checked alone
        sums = []
        is_zero = groups_mod._sum_is_zero

        def recording(backend, equations, weights):
            ok = is_zero(backend, equations, weights)
            sums.append((len(weights), ok))
            return ok
        monkeypatch.setattr(groups_mod, "_sum_is_zero", recording)
        config = SimConfig(
            seed=0, nodes=5, backend=backend,
            domains=(DomainSpec("d", (1, 2, 3, 4, 5), 3),),
            adversaries=(AdversarySpec(2, "forge_partial"),),
        )
        dom = run_simulation(config).domain("d")
        assert dom["ok"]
        assert dom["verdicts"] == [
            "key generation complete: group keys agree",
            "signature agreement and verification succeeded",
            *(f"node {n} flagged [2] during gossip" for n in (1, 3, 4, 5)),
        ]
        assert (2, False) in sums if backend == "ed25519" else {n for n, _ in sums} == {1}

    def test_forged_partial_never_merges_and_blocks_termination(self):
        # corrupt_shares corrupts node 2's round-2 shares, so key generation
        # aborts naming it and gossip never starts; an adversary that forges
        # its signing partial is ROADMAP item 8a
        config = SimConfig(
            seed=35, nodes=4, domains=(dkg_domain(coalition=(1, 2)),),
            adversaries=(AdversarySpec(2, "corrupt_shares"),),
            timeout_ticks=12,
        )
        dom = run_simulation(config).domain("d")
        assert not dom["ok"]
        assert dom["signature"] is None
        assert dom["completed_members"] == []
        assert dom["flagged"] == {}
        assert dom["verdicts"] == ["node 3 aborted key generation blaming [2]"]


class TestReportIds:
    @pytest.mark.parametrize("backend", ["toy", "ed25519"])
    def test_every_id_in_a_dkg_sign_report_is_a_member(self, backend):
        # members are not 1..n, so a domain-local id (node 10 is local id 5)
        # would show in the report
        members = (2, 4, 6, 8, 10)
        config = SimConfig(
            seed=1, nodes=10, backend=backend,
            domains=(DomainSpec("d", members, 3),),
            adversaries=(AdversarySpec(10, "corrupt_shares"),),
        )
        dom = run_simulation(config).domain("d")
        assert not dom["ok"] and dom["aborted"]
        # ids in "[..]" lists and after "node" in every text, plus the keys
        # and lists of aborted and flagged
        texts = " ".join([*dom["aborted"].values(), *dom["verdicts"]])
        lists = re.findall(r"\[([\d, ]*)\]", texts)
        named = {int(i) for i in re.findall(r"\d+", " ".join(lists))}
        named |= {int(i) for i in re.findall(r"node (\d+)", texts)}
        named |= {int(node) for node in (*dom["aborted"], *dom["flagged"])}
        named |= {i for flagged in dom["flagged"].values() for i in flagged}
        assert named <= set(members)
        assert all(reason.endswith("[10]") for reason in dom["aborted"].values())
        assert any("blaming [10]" in v for v in dom["verdicts"])


class TestMessageOrder:
    def test_last_share_before_last_broadcast_completes(self):
        # node 1 receives every round-2 share before its last round-1
        # broadcast; the intake must finalize once that broadcast arrives
        config = SimConfig(
            seed=1776, nodes=3, domains=(dkg_domain(members=(1, 2, 3), t=2),),
            delay=DelaySpec(model="uniform", lo=1, hi=3),
        )
        report = run_simulation(config)
        dom = report.domain("d")
        assert dom["ok"]
        assert dom["group_pk_agreement"]
        assert dom["completed_members"] == [1, 2, 3]
        toy = get_backend("toy")
        pk = toy.decode_element(bytes.fromhex(dom["group_pk"]))
        sig = Signature.from_bytes(bytes.fromhex(dom["signature"]), toy)
        assert verify(pk, bytes.fromhex(report.core["message"]), sig)

    @pytest.mark.parametrize("backend", ["toy", "ed25519"])
    def test_round2_share_sender_is_the_channel_not_the_packet(self, backend, monkeypatch):
        # node 3 sends node 1 its own share labelled with id 2: it counts as
        # node 3's share (its later copy is a repeat), not as node 2's
        config = SimConfig(seed=1, nodes=4, backend=backend, domains=(dkg_domain(),))
        sim = Simulator(config)
        engine = sim.engines["d"]
        start = engine.start

        def start_then_inject():
            start()
            value = engine.participants[3].own_polynomial.evaluate(1)
            engine.on_message(1, Message("d", 3, 1, "dkg-round2", SharePacket(2, value)), 0)
        monkeypatch.setattr(engine, "start", start_then_inject)
        report = sim.run()
        assert report.domain("d")["verdicts"][0] == "key generation complete: group keys agree"
        assert report.canonical_json() == run_simulation(config).canonical_json()

    def test_pedersen_waits_for_live_nodes_after_a_completed_node_crashes(self):
        # node 3 verifies its share, then crashes before nodes 2 and 4 hear
        # from the dealer; the domain must still wait for them
        config = SimConfig(
            seed=12, nodes=4,
            domains=(DomainSpec("v", (1, 2, 3, 4), 1, protocol="pedersen_vss"),),
            adversaries=(AdversarySpec(3, "crash", at_tick=2),),
            delay=DelaySpec(model="uniform", lo=1, hi=3),
        )
        dom = run_simulation(config).domain("v")
        assert dom["ok"]
        assert dom["share_results"] == {"1": True, "2": True, "3": True, "4": True}

    def test_avss_waits_for_live_nodes_after_a_completed_node_crashes(self):
        config = SimConfig(
            seed=1, nodes=5,
            domains=(DomainSpec(
                "a", (1, 2, 3, 4, 5), 2, protocol="avss", deliver_to=(1, 2, 3),
            ),),
            adversaries=(AdversarySpec(2, "crash", at_tick=2),),
        )
        dom = run_simulation(config).domain("a")
        assert dom["ok"]
        assert dom["completed_members"] == [1, 2, 3, 4, 5]


class TestAvssScenarios:
    def test_dealer_crash_after_t_deliveries_completes_everywhere(self):
        report = run_simulation(load_scenario("avss-dealer-crash"))
        dom = report.domain("async")
        assert dom["ok"]
        # the crashed dealer (node 1) is excluded; everyone else completes
        assert dom["completed_members"] == [2, 3, 4, 5]
        assert any("recovered secret matches" in v for v in dom["verdicts"])

    def test_corrupt_point_sender_is_flagged_and_tolerated(self):
        config = SimConfig(
            seed=36, nodes=4,
            domains=(DomainSpec(
                "a", (1, 2, 3, 4), 2, protocol="avss", deliver_to=(1, 2, 3),
            ),),
            adversaries=(AdversarySpec(2, "corrupt_shares"),),
        )
        dom = run_simulation(config).domain("a")
        assert dom["ok"]
        assert dom["completed_members"] == [1, 2, 3, 4]
        assert dom["flagged"].get("4") == [2]

    def test_dealer_reaching_nobody_times_out_everywhere(self):
        config = SimConfig.from_dict({"seed": 3, "nodes": 4, "domains": [
            {"id": "a", "members": [1, 2, 3, 4], "threshold": 2, "protocol": "avss",
             "deliver_to": []}]})
        assert config.domains[0].deliver_to == ()
        dom = run_simulation(config).domain("a")
        assert not dom["ok"]
        assert dom["verdicts"] == [
            f"node {n} timed out waiting for a deal from [1]" for n in (1, 2, 3, 4)
        ] + ["timeout at tick 50"]


class TestDeadlines:
    def test_coalition_crash_before_nonce_lists_times_out_naming_it(self):
        # node 2 finishes key generation, then crashes before signing starts:
        # no node can build a session, so the signing deadline (timeout_ticks
        # from sign_start) ends the run instead of max_ticks
        config = SimConfig(
            seed=0, nodes=4, domains=(dkg_domain(),),
            adversaries=(AdversarySpec(2, "crash", at_tick=2),),
        )
        report = run_simulation(config)
        dom = report.domain("d")
        assert not dom["ok"]
        assert dom["marks"]["sign_start"] == 3
        assert report.core["final_tick"] == 53
        assert dom["verdicts"] == [
            "key generation complete: group keys agree",
            "node 1 timed out waiting for nonce lists from [2]",
            "node 3 timed out waiting for nonce lists from [2]",
            "node 4 timed out waiting for nonce lists from [2]",
            "timeout at tick 53",
        ]

    def test_end_of_run_timeout_reports_the_last_tick_run(self):
        # the run stops at max_ticks, long before the domain's own deadline
        config = SimConfig(
            seed=0, nodes=3, domains=(dkg_domain(members=(1, 2, 3), t=2),),
            adversaries=(AdversarySpec(3, "silent"),), max_ticks=5, timeout_ticks=50,
        )
        report = run_simulation(config)
        assert report.core["final_tick"] == 5
        assert report.domain("d")["verdicts"][-1] == "timeout at tick 5"

    def test_a_domain_takes_no_messages_after_its_verdict(self):
        # d1 times out with node 3 and node 4 waiting for partials; a gossip
        # broadcast that arrives later must not finalize either of them
        data = {
            "seed": 2062458836, "nodes": 4, "backend": "toy", "timeout_ticks": 8,
            "delay": {"model": "uniform", "lo": 1, "hi": 4},
            "domains": [
                {"id": "d0", "members": [1, 2, 4], "threshold": 3, "protocol": "avss",
                 "deliver_to": [1, 2, 4]},
                {"id": "d1", "members": [1, 3, 4], "threshold": 2},
                {"id": "d2", "members": [1, 2, 3, 4], "threshold": 3},
            ],
            "adversaries": [{"node": 2, "behavior": "forge_partial"},
                            {"node": 1, "behavior": "forge_partial"}],
        }
        dom = run_simulation(SimConfig.from_dict(data)).domain("d1")
        assert dom["verdicts"] == [
            "key generation complete: group keys agree",
            "node 3 timed out waiting for an aggregating broadcast",
            "node 4 timed out waiting for partials from [1]",
            "timeout at tick 18",
        ]
        assert dom["completed_members"] == [1]


class TestWaitRule:
    """One rule for every protocol: a phase completes once no live member
    waits, and times out timeout_ticks after its wait began, naming what each
    waiting node lacks."""

    @pytest.mark.parametrize("backend", ["toy", "ed25519"])
    def test_avss_nodes_short_of_valid_points_time_out_naming_senders(self, backend):
        # the dealer reaches 1-3 and node 3 corrupts its points: nodes 4-6
        # hold two valid points where three are needed
        config = SimConfig(
            seed=0, nodes=6, backend=backend,
            domains=(DomainSpec(
                "a", (1, 2, 3, 4, 5, 6), 3, protocol="avss", deliver_to=(1, 2, 3),
            ),),
            adversaries=(AdversarySpec(3, "corrupt_shares"),),
            delay=DelaySpec(model="uniform", lo=1, hi=3),
        )
        report = run_simulation(config)
        dom = report.domain("a")
        assert not dom["ok"]
        assert report.core["final_tick"] == 50
        assert dom["verdicts"] == [
            "node 4 timed out waiting for points from [3]",
            "node 5 timed out waiting for points from [3]",
            "node 6 timed out waiting for points from [3]",
            "timeout at tick 50",
        ]

    def test_pedersen_dealer_crash_times_out_naming_the_dealer(self):
        config = SimConfig(
            seed=0, nodes=4,
            domains=(DomainSpec("v", (1, 2, 3, 4), 2, protocol="pedersen_vss"),),
            adversaries=(AdversarySpec(1, "crash", at_tick=0),),
        )
        report = run_simulation(config)
        assert report.core["final_tick"] == 50
        assert report.domain("v")["verdicts"] == [
            "node 2 timed out waiting for a share from [1]",
            "node 3 timed out waiting for a share from [1]",
            "node 4 timed out waiting for a share from [1]",
            "timeout at tick 50",
        ]

    @pytest.mark.parametrize("crashed, at_tick, seed, completed", [
        (2, 12, 1, [1, 3]),       # every other node has finalized when 2 crashes
        (3, 5, 0, [1, 2]),        # 1 and 2 finished key generation when 3 crashes
    ])
    def test_a_crash_that_leaves_every_live_member_done_completes(
        self, crashed, at_tick, seed, completed
    ):
        config = SimConfig(
            seed=seed, nodes=3, domains=(dkg_domain(members=(1, 2, 3), t=2),),
            adversaries=(AdversarySpec(crashed, "crash", at_tick=at_tick),),
            delay=DelaySpec(model="uniform", lo=1, hi=3),
        )
        report = run_simulation(config)
        dom = report.domain("d")
        assert dom["ok"]
        assert dom["completed_members"] == completed
        assert dom["verdicts"] == [
            "key generation complete: group keys agree",
            "signature agreement and verification succeeded",
        ]
        toy = get_backend("toy")
        pk = toy.decode_element(bytes.fromhex(dom["group_pk"]))
        sig = Signature.from_bytes(bytes.fromhex(dom["signature"]), toy)
        assert verify(pk, bytes.fromhex(report.core["message"]), sig)

    def test_gossip_stall_names_the_missing_partials(self):
        # coalition member 1 sends its nonce list, then crashes before it can
        # contribute a partial: the gossip wait runs timeout_ticks from the
        # tick the first session opened
        config = SimConfig(
            seed=0, nodes=3, domains=(dkg_domain(members=(1, 2, 3), t=2),),
            adversaries=(AdversarySpec(1, "crash", at_tick=4),),
        )
        report = run_simulation(config)
        dom = report.domain("d")
        assert dom["marks"]["gossip_start"] == 4
        assert report.core["final_tick"] == 54
        assert dom["verdicts"] == [
            "key generation complete: group keys agree",
            "node 2 timed out waiting for partials from [1]",
            "node 3 timed out waiting for partials from [1]",
            "timeout at tick 54",
        ]


class TestCpuAttribution:
    def test_time_is_booked_by_dispatched_work(self):
        report = run_simulation(SimConfig(seed=4, nodes=4, domains=(dkg_domain(),)))
        labels = set(report.timings["cpu_s_by_phase"])
        assert "d/dkg-round2" in labels
        assert "d/init" not in labels
        assert labels <= {"d/start", "d/tick", "d/dkg-round1", "d/dkg-round2", "d/nonce-list",
                          "d/gossip", "d/gossip-broadcast"}


class TestGossipLiveness:
    def test_termination_within_bound_small(self):
        hits = 0
        runs = 20
        n = 8
        bound = 4 * 3  # c * log2 n
        for seed in range(runs):
            config = SimConfig(
                seed=seed, nodes=n,
                domains=(dkg_domain(members=tuple(range(1, n + 1)), t=2),),
            )
            dom = run_simulation(config).domain("d")
            assert dom["ok"]
            if dom["gossip_rounds"] is not None and dom["gossip_rounds"] <= bound:
                hits += 1
        assert hits >= int(0.9 * runs)


class TestConfigValidation:
    def test_unknown_member(self):
        with pytest.raises(ConfigError, match="outside"):
            SimConfig(seed=1, nodes=3, domains=(dkg_domain(members=(1, 9), t=2),)).validate()

    def test_threshold_too_large(self):
        with pytest.raises(ConfigError, match="threshold"):
            SimConfig(seed=1, nodes=3, domains=(dkg_domain(members=(1, 2), t=3),)).validate()

    def test_unknown_behavior(self):
        with pytest.raises(ConfigError, match="behavior"):
            SimConfig(
                seed=1, nodes=3, domains=(dkg_domain(members=(1, 2), t=2),),
                adversaries=(AdversarySpec(1, "meteor"),),
            ).validate()

    def test_crash_requires_tick(self):
        with pytest.raises(ConfigError, match="at_tick"):
            SimConfig(
                seed=1, nodes=3, domains=(dkg_domain(members=(1, 2), t=2),),
                adversaries=(AdversarySpec(1, "crash"),),
            ).validate()

    def test_delay_bounds(self):
        with pytest.raises(ConfigError, match="delay"):
            SimConfig(
                seed=1, nodes=3, domains=(dkg_domain(members=(1, 2), t=2),),
                delay=DelaySpec(model="uniform", lo=3, hi=1),
            ).validate()

    def test_gossip_success_parameter_bound(self):
        with pytest.raises(ConfigError, match="success parameter"):
            SimConfig(
                seed=1, nodes=3, domains=(dkg_domain(members=(1, 2), t=2),),
                gossip=GossipSpec(c=2),
            ).validate()

    def test_unknown_scenario_name(self):
        with pytest.raises(ConfigError, match="scenario"):
            load_scenario("does-not-exist")

    def test_from_dict_reports_missing_keys(self):
        with pytest.raises(ConfigError, match="seed"):
            SimConfig.from_dict({"nodes": 3, "domains": []})

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_the_crs_epoch_range(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            SimConfig.from_dict({
                "seed": seed, "nodes": 3,
                "domains": [{"id": "d", "members": [1, 2, 3], "threshold": 2}],
            })

    @pytest.mark.parametrize("field, value", [
        ("timeout_ticks", 0), ("timeout_ticks", -5), ("max_ticks", 0), ("max_ticks", -1),
    ])
    def test_tick_limits_must_be_positive(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field}: must be >= 1"):
            SimConfig(seed=1, nodes=3, domains=(dkg_domain(members=(1, 2, 3), t=2),),
                      **{field: value}).validate()
        with pytest.raises(ConfigError, match=f"^{field}:"):
            SimConfig.from_dict({"seed": 1, "nodes": 3, field: value,
                                 "domains": [{"id": "d", "members": [1, 2, 3], "threshold": 2}]})

    def test_one_tick_limits_accepted(self):
        SimConfig(seed=1, nodes=3, domains=(dkg_domain(members=(1, 2, 3), t=2),),
                  max_ticks=1, timeout_ticks=1).validate()

    def test_largest_seed_accepted(self):
        SimConfig(seed=2**64 - 1, nodes=3, domains=(dkg_domain(members=(1, 2, 3), t=2),)).validate()

    def test_delay_draw_respects_bounds(self):
        spec = DelaySpec(model="uniform", lo=2, hi=5)
        rng = SeededRng(1)
        draws = {spec.draw(rng) for _ in range(200)}
        assert draws <= {2, 3, 4, 5}
        assert min(draws) >= 2


class TestVerifierBuilds:
    @pytest.mark.parametrize("backend", ["toy", "ed25519"])
    def test_one_partial_verifier_per_node_that_builds_a_session(self, backend, monkeypatch):
        built = []
        original = PartialVerifier.__init__

        def counting_init(self, *args):
            built.append(self)
            original(self, *args)
        monkeypatch.setattr(PartialVerifier, "__init__", counting_init)
        config = SimConfig(
            seed=7, nodes=5, backend=backend,
            domains=(dkg_domain(members=(1, 2, 3, 4, 5), t=3),),
        )
        sim = Simulator(config)
        report = sim.run()
        gnodes = sim.engines["d"].gnodes
        assert report.domain("d")["ok"]
        assert sorted(gnodes) == [1, 2, 3, 4, 5]
        assert all(g.finalized is not None for g in gnodes.values())
        assert sorted(map(id, built)) == sorted(id(g.verifier) for g in gnodes.values())

    @pytest.mark.parametrize("backend", ["toy", "ed25519"])
    def test_each_node_derives_the_session_once(self, backend, monkeypatch):
        derived = []
        bound_commitments = signing_mod.bound_commitments

        def counting(package, betas):
            derived.append(package)
            return bound_commitments(package, betas)
        monkeypatch.setattr(signing_mod, "bound_commitments", counting)
        config = SimConfig(
            seed=7, nodes=5, backend=backend,
            domains=(dkg_domain(members=(1, 2, 3, 4, 5), t=3),),
        )
        sim = Simulator(config)
        report = sim.run()
        engine = sim.engines["d"]
        assert report.domain("d")["ok"] and len(engine.signers) >= 3
        # one R per node's package, shared by its verifier and, on a signer, its partial
        assert sorted(map(id, derived)) == sorted(id(g.verifier.package) for g in engine.gnodes.values())


class TestScenarioShapes:
    """from_dict names the section of a malformed scenario instead of crashing."""

    def base(self, **patch):
        return {"seed": 1, "nodes": 3, "domains": [{"id": "d", "members": [1, 2, 3],
                                                      "threshold": 2}], **patch}

    def test_duplicate_coalition_ids_rejected(self):
        domain = {"id": "d", "members": [1, 2, 3], "threshold": 2, "coalition": [1, 1]}
        with pytest.raises(ConfigError, match=r"domains\[0\]\.coalition: duplicate node ids"):
            SimConfig.from_dict(self.base(domains=[domain]))
        with pytest.raises(ConfigError, match="coalition: duplicate"):
            SimConfig(seed=1, nodes=3, domains=(dkg_domain(members=(1, 2, 3), coalition=(2, 2)),)
                      ).validate()

    @pytest.mark.parametrize("patch, section", [
        ({"adversaries": [{"node": [1], "behavior": "silent"}]}, "adversaries[0].node"),
        ({"adversaries": 3}, "adversaries"),
        ({"gossip": {"c": "many"}}, "gossip.c"),
        ({"domains": [{"id": "d", "members": ["1"], "threshold": 1}]}, "domains[0].members"),
        ({"domains": [{"id": "d", "members": [1, 2], "threshold": 2, "coalition": 7}]},
         "domains[0].coalition"),
        ({"max_ticks": {}}, "max_ticks"),
        ({"delay": {"model": "gamma"}}, "delay.model"),
        ({"nodes": "3"}, "nodes"),
        ({"domains": [{"id": "d", "members": [1, 2, 3], "threshold": 2.9}]}, "domains[0].threshold"),
        ({"domains": [{"id": "d", "members": [1, 2, 3], "threshold": "2"}]}, "domains[0].threshold"),
        ({"max_ticks": 99.5}, "max_ticks"),
        ({"seed": True}, "seed"),
        ({"message": 5}, "message"),
        ({"delay": {"ticks": "2"}}, "delay.ticks"),
        ({"timeout_tick": 5}, "scenario"),
        ({"domains": [{"id": "d", "members": [1, 2, 3], "threshold": 2, "colaition": [1, 2]}]},
         "domains[0]"),
        ({"gossip": {"prob": 1}}, "gossip"),
        ({"adversaries": [{"node": 2, "behavior": "crash", "tick": 4}]}, "adversaries[0]"),
        # these cases keep the ids they had when validate named a domain by
        # its id ("d") rather than by its index
        pytest.param({"domains": [{"id": "d", "members": [1, 2, 3], "threshold": 2,
                                   "coalition": []}]},
                     "domains[0].coalition", id="patch18-domains[d].coalition"),
        pytest.param({"domains": [{"id": "d", "members": [1, 2, 3], "threshold": 2,
                                   "protocol": "pedersen_vss", "secret": 16}]},
                     "domains[0].secret", id="patch19-domains[d].secret"),
        pytest.param({"domains": [{"id": "d", "members": [1, 2, 3], "threshold": 2,
                                   "protocol": "avss", "secret": -6}]},
                     "domains[0].secret", id="patch20-domains[d].secret"),
        pytest.param({"domains": [{"id": "d", "members": [1, 2, 3], "threshold": 3,
                                   "protocol": "pedersen_vss"}]},
                     "domains[0].threshold", id="patch21-domains[d].threshold"),
        pytest.param({"nodes": 11, "domains": [{"id": "d", "members": list(range(1, 12)),
                                                "threshold": 2}]},
                     "domains[0].members", id="patch22-domains[d].members"),
        pytest.param({"nodes": 11, "domains": [{"id": "d", "members": list(range(1, 12)),
                                                "threshold": 2, "protocol": "pedersen_vss"}]},
                     "domains[0].members", id="patch23-domains[d].members"),
        pytest.param({"nodes": 11, "domains": [{"id": "d", "members": list(range(1, 12)),
                                                "threshold": 2, "protocol": "avss"}]},
                     "domains[0].members", id="patch24-domains[d].members"),
        ({"backend": "p256"}, "backend"),
        ({"domains": [{"id": "d", "members": [1, 2, 3], "threshold": 2},
                      {"id": "e", "members": [1, 2, 3], "threshold": 2, "coalition": []}]},
         "domains[1].coalition"),
        ({"adversaries": [{"node": 2, "behavior": "crash", "at_tick": 0},
                          {"node": 2, "behavior": "silent"}]}, "adversaries"),
        ({"adversaries": [{"node": 4, "behavior": "silent"}]}, "adversaries"),
        ({"domains": [{"id": "d", "members": [1, 2, 3], "threshold": 2, "protocol": "raft"}]},
         "domains[0].protocol"),
        ({"domains": [{"id": "d", "members": [1, 2, 2], "threshold": 2}]}, "domains[0].members"),
        ({"domains": [{"id": "d", "members": [1, 2, 3], "threshold": 1}]}, "domains[0].threshold"),
        ({"domains": [{"id": "d", "members": [1, 2], "threshold": 2, "coalition": [1, 3]}]},
         "domains[0].coalition"),
        ({"domains": [{"id": "d", "members": [1, 2], "threshold": 2, "protocol": "avss",
                       "deliver_to": [3]}]}, "domains[0].deliver_to"),
        ({"gossip": {"broadcast_prob_num": 0}}, "gossip.broadcast_prob_num"),
        ({"nodes": 0}, "nodes"),
        ({"domains": []}, "domains"),
        ({"domains": [{"id": "d", "members": [1, 2], "threshold": 2},
                      {"id": "d", "members": [2, 3], "threshold": 2}]}, "domains"),
        ({"adversaries": [{"node": 2, "behavior": "silent", "at_tick": 3}]}, "adversaries"),
        ({"domains": [{"id": "d", "members": [1, 2, 3], "threshold": 2, "protocol": "avss",
                       "coalition": [1, 2]}]}, "domains[0].coalition"),
        ({"domains": [{"id": "d", "members": [1, 2, 3], "threshold": 2, "protocol": "pedersen_vss",
                       "deliver_to": [1, 2]}]}, "domains[0].deliver_to"),
        ({"domains": [{"id": "d", "members": [1, 2, 3], "threshold": 2, "secret": 9}]},
         "domains[0].secret"),
    ])
    def test_malformed_section_named(self, patch, section):
        with pytest.raises(ConfigError, match=f"^{re.escape(section)}:"):
            SimConfig.from_dict(self.base(**patch))

    def test_well_formed_optional_sections_still_parse(self):
        config = SimConfig.from_dict(self.base(
            delay={"model": "uniform", "lo": 1, "hi": 3}, gossip={"c": 5},
            adversaries=[{"node": 2, "behavior": "crash", "at_tick": 4}],
            domains=[{"id": "d", "members": [1, 2, 3], "threshold": 2, "coalition": None}],
            max_ticks=99))
        assert config.delay == DelaySpec(model="uniform", lo=1, hi=3)
        assert config.gossip == GossipSpec(c=5)
        assert config.adversaries == (AdversarySpec(2, "crash", 4),)
        assert config.max_ticks == 99
        assert config.domains == (DomainSpec("d", (1, 2, 3), 2),)
        silent = SimConfig.from_dict(self.base(adversaries=[{"node": 3, "behavior": "silent",
                                                             "at_tick": None}]))
        assert silent.adversaries == (AdversarySpec(3, "silent"),)

    def test_protocol_limits_accepted(self):
        SimConfig.from_dict(self.base(nodes=10, domains=[
            {"id": "v", "members": [1, 2, 3], "threshold": 2, "protocol": "pedersen_vss",
             "secret": 10},
            {"id": "a", "members": list(range(1, 11)), "threshold": 2, "protocol": "avss",
             "secret": 0},
            {"id": "k", "members": list(range(1, 11)), "threshold": 10}]))
        SimConfig.from_dict(self.base(backend="ed25519", domains=[
            {"id": "a", "members": [1, 2, 3], "threshold": 2, "protocol": "avss",
             "secret": 424242}]))

    def test_repeated_key_rejected(self, tmp_path):
        path = tmp_path / "repeated.json"
        path.write_text('{"seed": 1, "seed": 2, "nodes": 3, '
                        '"domains": [{"id": "d", "members": [1, 2, 3], "threshold": 2}]}')
        with pytest.raises(ConfigError, match="^scenario: repeated key 'seed'"):
            load_scenario(str(path))
        path.write_text('{"seed": 1, "nodes": 3, "domains": [{"id": "d", "members": [1, 2, 3], '
                        '"threshold": 2, "threshold": 3}]}')
        with pytest.raises(ConfigError, match="^scenario: repeated key 'threshold'"):
            load_scenario(str(path))

    def test_readme_scenario_example_parses(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = re.search(r"## Scenario files.*?```json\n(.*?)```", readme, re.S).group(1)
        config = SimConfig.from_dict(json.loads(example))
        assert [d.domain_id for d in config.domains] == ["A", "vss", "async"]
        assert config.domains[2].deliver_to == (2, 3, 4)


class TestScenarioSchema:
    """The spec dataclasses are the scenario schema: from_dict reads every field."""

    def test_every_field_read_from_its_key(self):
        config = SimConfig(
            seed=9, nodes=6, backend="ed25519", message=b"hello",
            domains=(
                DomainSpec("k", (1, 2, 3, 4), 3, coalition=(1, 2, 4)),
                DomainSpec("a", (2, 3, 4, 5, 6), 2, protocol="avss", secret=7,
                           deliver_to=(2, 4, 5)),
            ),
            delay=DelaySpec(model="uniform", ticks=2, lo=2, hi=4),
            adversaries=(AdversarySpec(5, "crash", at_tick=3),),
            gossip=GossipSpec(c=6, broadcast_prob_num=3),
            max_ticks=200, timeout_ticks=40,
        )
        data = {
            "seed": 9, "nodes": 6, "backend": "ed25519", "message": "hello",
            "domains": [
                {"id": "k", "members": [1, 2, 3, 4], "threshold": 3, "coalition": [1, 2, 4]},
                {"id": "a", "members": [2, 3, 4, 5, 6], "threshold": 2, "protocol": "avss",
                 "secret": 7, "deliver_to": [2, 4, 5]},
            ],
            "delay": {"model": "uniform", "ticks": 2, "lo": 2, "hi": 4},
            "adversaries": [{"node": 5, "behavior": "crash", "at_tick": 3}],
            "gossip": {"c": 6, "broadcast_prob_num": 3},
            "max_ticks": 200, "timeout_ticks": 40,
        }
        # every field that has a default is set away from it somewhere above,
        # so a field the reader skipped would leave the two configs unequal
        moved = set()
        for spec in (config, config.delay, config.gossip, *config.domains, *config.adversaries):
            moved |= {(type(spec), f.name) for f in dataclasses.fields(spec)
                      if f.default is not dataclasses.MISSING
                      and getattr(spec, f.name) != f.default}
        classes = (SimConfig, DelaySpec, GossipSpec, DomainSpec, AdversarySpec)
        assert moved == {(cls, f.name) for cls in classes for f in dataclasses.fields(cls)
                         if f.default is not dataclasses.MISSING}
        assert SimConfig.from_dict(data) == config


BEHAVIORS = ("crash", "corrupt_shares", "equivocate", "forge_partial", "silent")


def scenario_dicts(st, backend: str, max_nodes: int):
    """A hypothesis strategy of scenario dicts as a file would hold them.

    It draws 1-3 domains of every protocol with their thresholds, coalitions,
    secrets and AVSS delivery sets; up to three adversaries of every
    behaviour, with crash ticks; and fixed or uniform delays of at most 5
    ticks, far below the default 50-tick timeout.
    """
    @st.composite
    def scenarios(draw):
        nodes = draw(st.integers(3, max_nodes))
        domains = []
        for k in range(draw(st.integers(1, 3))):
            protocol = draw(st.sampled_from(["dkg_sign", "pedersen_vss", "avss"]))
            members = sorted(draw(st.sets(st.integers(1, nodes), min_size=3)))
            low, high = {"dkg_sign": (2, len(members)), "pedersen_vss": (1, len(members) - 1),
                         "avss": (1, len(members))}[protocol]
            domain = {"id": f"d{k}", "members": members, "protocol": protocol,
                      "threshold": draw(st.integers(low, high))}
            if protocol == "dkg_sign":
                if draw(st.booleans()):
                    domain["coalition"] = sorted(draw(st.sets(
                        st.sampled_from(members), min_size=domain["threshold"])))
            else:
                domain["secret"] = draw(st.integers(0, 10))
            if protocol == "avss" and draw(st.booleans()):
                domain["deliver_to"] = sorted(draw(st.sets(st.sampled_from(members))))
            domains.append(domain)
        adversaries = []
        for node in sorted(draw(st.sets(st.integers(1, nodes), max_size=3))):
            adversary = {"node": node, "behavior": draw(st.sampled_from(BEHAVIORS))}
            if adversary["behavior"] == "crash":
                adversary["at_tick"] = draw(st.integers(0, 12))
            adversaries.append(adversary)
        lo = draw(st.integers(1, 3))
        delay = draw(st.sampled_from([
            {"ticks": lo}, {"model": "uniform", "lo": lo, "hi": lo + draw(st.integers(0, 2))}]))
        return {"seed": draw(st.integers(0, 2**64 - 1)), "nodes": nodes, "backend": backend,
                "domains": domains, "adversaries": adversaries, "delay": delay}

    return scenarios()


def listed_ids(text: str) -> set[int]:
    """The ids in every "[..]" list of a report text."""
    return {int(i) for group in re.findall(r"\[([\d, ]*)\]", text) for i in re.findall(r"\d+", group)}


class TestGeneratedScenarios:
    """Blame properties of generated scenarios (ROADMAP item 10).

    A domain's faulty members are its adversaries, plus an AVSS dealer told to
    deliver to fewer than all members.  Per domain:
    1. every id that an honest node's verdict, abort reason or flagged list
       names is faulty; so is every id a verdict of no one node names;
    2. a domain with no faulty member ends ok;
    3. two runs give the same canonical report;
    4. every id in the report is a member of the domain;
    5. no node that a timeout verdict names is among the completed members.
    """

    @pytest.mark.parametrize("backend, max_nodes, examples", [("toy", 8, 300), ("ed25519", 4, 4)])
    def test_blame_properties(self, backend, max_nodes, examples):
        hypothesis = pytest.importorskip("hypothesis")

        @hypothesis.settings(max_examples=examples, deadline=None, derandomize=True,
                             database=None)
        @hypothesis.given(scenario_dicts(hypothesis.strategies, backend, max_nodes))
        def check(data):
            config = SimConfig.from_dict(data)
            report = run_simulation(config)
            assert run_simulation(config).canonical_json() == report.canonical_json()
            adversaries = {a["node"] for a in data["adversaries"]}
            for domain in data["domains"]:
                members = set(domain["members"])
                faulty = adversaries & members
                if domain.get("deliver_to", domain["members"]) != domain["members"]:
                    faulty.add(domain["members"][0])
                dom = report.domain(domain["id"])
                texts = [*dom["verdicts"], *dom.get("aborted", {}).values()]
                named = {i for text in texts for i in listed_ids(text)}
                named |= {int(i) for text in texts for i in re.findall(r"node (\d+)", text)}
                for key in ("aborted", "flagged", "share_results", "complaint_verdicts"):
                    named |= {int(node) for node in dom.get(key, {})}
                named |= {i for flagged in dom.get("flagged", {}).values() for i in flagged}
                named |= {*dom.get("coalition", ()), *dom.get("completed_members", ())}
                named |= {dom["dealer"]} if "dealer" in dom else set()
                assert named <= members, texts
                assert dom["ok"] or faulty, dom["verdicts"]
                timed_out = {int(i) for text in dom["verdicts"]
                             for i in re.findall(r"node (\d+) timed out", text)}
                assert not timed_out & set(dom.get("completed_members", ())), dom

                blamed = set()
                for text in dom["verdicts"]:
                    who = re.match(r"node (\d+) ", text)
                    if who is None or int(who.group(1)) not in faulty:
                        blamed |= listed_ids(text)
                for node, reason in dom.get("aborted", {}).items():
                    if int(node) not in faulty:
                        blamed |= listed_ids(reason)
                for node, flagged in dom.get("flagged", {}).items():
                    if int(node) not in faulty:
                        blamed |= set(flagged)
                assert blamed <= faulty, dom["verdicts"]

        check()
