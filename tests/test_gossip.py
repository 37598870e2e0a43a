"""Aggregation gossip: fan-out, verified merging, probabilistic termination."""

import pytest

from trustmesh import gossip as gossip_mod
from trustmesh.dkg import run_dkg
from trustmesh.gossip import (
    GossipNode,
    Transcript,
    fan_out,
    gossip_maybe_terminate,
    gossip_receive,
    gossip_round,
    observe_broadcast,
)
from trustmesh.rng import SeededRng
from trustmesh.signing import KeyShare, PartialVerifier, Signer, SigningPackage, verify


@pytest.fixture
def session(toy):
    """A 4-node key with a full-coalition signing session on the toy backend."""
    parts = run_dkg(toy, 2, 4, SeededRng(31))
    keys = {p.id: KeyShare.from_participant(p) for p in parts}
    signers = {i: Signer(keys[i]) for i in keys}
    rng = SeededRng(32)
    coalition = (1, 2)
    lists = {i: signers[i].round1(rng.fork(str(i))) for i in coalition}
    package = SigningPackage.build(b"gossip", {i: lists[i].pair for i in coalition})
    partials = {i: signers[i].round2_partial(package) for i in coalition}
    return keys, package, partials


def make_node(keys, package, node_id, n=4, prob=2):
    verifier = PartialVerifier(package, keys[1].pk_shares, keys[1].group_pk)
    peers = tuple(i for i in range(1, n + 1) if i != node_id)
    return GossipNode(
        node_id=node_id, peers=peers, verifier=verifier,
        c=4, broadcast_prob_num=prob,
    )


class TestFanOut:
    def test_capped_at_everyone_else(self):
        assert fan_out(8, 4) == 7      # ceil(4*log2 8) = 12, capped
        assert fan_out(16, 4) == 15    # ceil(4*log2 16) = 16, capped
        assert fan_out(2, 4) == 1

    def test_logarithmic_regime(self):
        assert fan_out(64, 4) == 24
        assert fan_out(256, 4) == 32

    def test_degenerate(self):
        assert fan_out(1, 4) == 0


class TestRounds:
    def test_round_targets_are_deterministic_under_seed(self, session):
        keys, package, partials = session
        node = make_node(keys, package, 1)
        node.seed_own_partial(partials[1])
        out1 = gossip_round(node, SeededRng(77).fork("g"))
        out2 = gossip_round(node, SeededRng(77).fork("g"))
        assert [peer for peer, _ in out1] == [peer for peer, _ in out2]

    def test_no_partial_no_gossip(self, session):
        keys, package, _ = session
        node = make_node(keys, package, 3)
        assert gossip_round(node, SeededRng(1)) == []

    def test_n2_always_sends_to_single_peer(self, session):
        keys, package, partials = session
        verifier = PartialVerifier(package, keys[1].pk_shares, keys[1].group_pk)
        node = GossipNode(node_id=1, peers=(2,), verifier=verifier)
        node.seed_own_partial(partials[1])
        for seed in range(5):
            out = gossip_round(node, SeededRng(seed))
            assert [peer for peer, _ in out] == [2]


class TestReceive:
    def test_disjoint_merge_is_union(self, session):
        keys, package, partials = session
        node = make_node(keys, package, 3)
        t1 = Transcript(node.transcript.context_hash, {1: partials[1]})
        t2 = Transcript(node.transcript.context_hash, {2: partials[2]})
        gossip_receive(node, 1, t1)
        gossip_receive(node, 2, t2)
        assert set(node.transcript.contributions) == {1, 2}
        assert node.is_complete()

    def test_merge_idempotent(self, session):
        keys, package, partials = session
        node = make_node(keys, package, 3)
        t1 = Transcript(node.transcript.context_hash, {1: partials[1]})
        gossip_receive(node, 1, t1)
        snapshot = dict(node.transcript.contributions)
        gossip_receive(node, 1, t1)
        assert node.transcript.contributions == snapshot
        assert node.flagged == set()

    def test_forged_entry_dropped_valid_entries_merged(self, session):
        keys, package, partials = session
        node = make_node(keys, package, 3)
        mixed = Transcript(node.transcript.context_hash, {
            1: partials[1],
            2: partials[2] + 1,   # forged
        })
        gossip_receive(node, 4, mixed)
        assert set(node.transcript.contributions) == {1}
        assert node.flagged == {4}

    def test_context_mismatch_drops_whole_message(self, session):
        keys, package, partials = session
        node = make_node(keys, package, 3)
        alien = Transcript(b"\x00" * 32, {1: partials[1]})
        gossip_receive(node, 2, alien)
        assert node.transcript.contributions == {}


class TestTermination:
    def test_incomplete_transcript_never_broadcasts(self, session):
        keys, package, partials = session
        node = make_node(keys, package, 1, prob=4)  # probability 1
        node.seed_own_partial(partials[1])
        assert gossip_maybe_terminate(node, SeededRng(1)) is None

    def test_forced_probability_one_broadcasts(self, session):
        keys, package, partials = session
        node = make_node(keys, package, 1, prob=4)
        node.seed_own_partial(partials[1])
        gossip_receive(node, 2, Transcript(node.transcript.context_hash, {2: partials[2]}))
        broadcast = gossip_maybe_terminate(node, SeededRng(1))
        assert broadcast is not None
        assert node.stopped

    def test_all_nodes_converge_on_broadcast(self, session):
        keys, package, partials = session
        nodes = {i: make_node(keys, package, i) for i in range(1, 5)}
        full = Transcript(nodes[1].transcript.context_hash, dict(partials))
        signatures = set()
        for node in nodes.values():
            observe_broadcast(node, full)
            assert node.finalized is not None
            signatures.add(node.finalized.to_bytes(keys[1].group_pk.backend))
        assert len(signatures) == 1
        sig = nodes[1].finalized
        assert verify(keys[1].group_pk, b"gossip", sig)

    def test_tie_break_is_order_independent(self, session):
        keys, package, partials = session
        ctx = make_node(keys, package, 1).transcript.context_hash
        t_small = Transcript(ctx, dict(partials))
        # same aggregatable coalition plus an extra (unverified) entry: each
        # member has one valid partial, so either order gives one signature
        extra = dict(partials)
        extra[9] = partials[1]
        t_big = Transcript(ctx, extra)
        signatures = set()
        for first, second in ([t_small, t_big], [t_big, t_small]):
            node = make_node(keys, package, 2)
            observe_broadcast(node, first)
            observe_broadcast(node, second)
            signatures.add(node.finalized.to_bytes(keys[1].group_pk.backend))
        assert len(signatures) == 1
        assert verify(keys[1].group_pk, b"gossip", node.finalized)

    def test_invalid_broadcast_ignored(self, session):
        keys, package, partials = session
        node = make_node(keys, package, 2)
        forged = Transcript(node.transcript.context_hash, {1: partials[1], 2: partials[2] + 1})
        observe_broadcast(node, forged)
        assert node.finalized is None
        assert not node.stopped

    def test_incomplete_coalition_broadcast_ignored(self, session):
        keys, package, partials = session
        node = make_node(keys, package, 2)
        partial_only = Transcript(node.transcript.context_hash, {1: partials[1]})
        observe_broadcast(node, partial_only)
        assert node.finalized is None


class TestSessionFromVerifier:
    """Gossip reads the session from the node's verifier and keeps no copy of it."""

    @pytest.fixture
    def session(self, backend):
        parts = run_dkg(backend, 2, 4, SeededRng(41))
        keys = {p.id: KeyShare.from_participant(p) for p in parts}
        signers = {i: Signer(keys[i]) for i in (1, 2, 3)}
        rng = SeededRng(42)
        lists = {i: s.round1(rng.fork(str(i))) for i, s in signers.items()}
        package = SigningPackage.build(b"owner", {i: lists[i].pair for i in signers})
        partials = {i: s.round2_partial(package) for i, s in signers.items()}
        return keys, package, partials

    def test_held_contribution_costs_no_group_work(self, session, backend, monkeypatch):
        keys, package, partials = session
        node = make_node(keys, package, 1)
        node.seed_own_partial(partials[1])
        ctx = node.transcript.context_hash
        gossip_receive(node, 2, Transcript(ctx, {2: partials[2]}))
        calls = []
        multi_mul = backend.multi_mul

        def counting(scalars, elements):
            calls.append(len(scalars))
            return multi_mul(scalars, elements)
        monkeypatch.setattr(backend, "multi_mul", counting)
        gossip_receive(node, 3, Transcript(ctx, {1: partials[1], 2: partials[2]}))
        assert calls == []
        assert node.flagged == set()
        assert node.transcript.contributions == {1: partials[1], 2: partials[2]}

    def test_own_partial_is_held_without_group_work(self, session, backend, monkeypatch):
        keys, package, partials = session
        node = make_node(keys, package, 1)
        calls = []
        multi_mul = backend.multi_mul

        def counting(scalars, elements):
            calls.append(len(scalars))
            return multi_mul(scalars, elements)
        monkeypatch.setattr(backend, "multi_mul", counting)
        node.seed_own_partial(partials[1])
        assert calls == []
        assert node.verifier.accepted == {1: partials[1]}
        assert node.transcript.contributions == {1: partials[1]}

    def test_each_peer_gets_its_own_transcript(self, session):
        keys, package, partials = session
        node = make_node(keys, package, 1)
        node.seed_own_partial(partials[1])
        gossip_receive(node, 2, Transcript(node.transcript.context_hash, {2: partials[2]}))
        sent = gossip_round(node, SeededRng(5))
        assert len(sent) == 3
        # raise one entry as the forge_partial adversary does
        held = sent[0][1].contributions
        held[2] = held[2] + 1
        assert node.transcript.contributions == {1: partials[1], 2: partials[2]}
        assert all(t.contributions == {1: partials[1], 2: partials[2]} for _, t in sent[1:])

    def test_complete_once_the_whole_coalition_is_held(self, session):
        keys, package, partials = session
        node = make_node(keys, package, 4)
        ctx = node.transcript.context_hash
        gossip_receive(node, 1, Transcript(ctx, {1: partials[1], 2: partials[2]}))
        assert len(node.transcript.contributions) == 2 and not node.is_complete()
        gossip_receive(node, 3, Transcript(ctx, {3: partials[3]}))
        assert node.is_complete()

    def test_broadcast_aggregates_with_the_nodes_verifier(self, session, monkeypatch):
        keys, package, partials = session
        node = make_node(keys, package, 4)
        builds = []
        init = PartialVerifier.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(args)
            init(self, *args, **kwargs)
        monkeypatch.setattr(PartialVerifier, "__init__", counting_init)
        observe_broadcast(node, Transcript(b"\x00" * 32, dict(partials)))
        assert node.finalized is None and not node.stopped
        observe_broadcast(node, Transcript(node.transcript.context_hash, dict(partials)))
        assert builds == []
        assert verify(keys[1].group_pk, b"owner", node.finalized)

    def test_later_broadcasts_are_ignored(self, session, monkeypatch):
        keys, package, partials = session
        node = make_node(keys, package, 4)
        ctx = node.transcript.context_hash
        observe_broadcast(node, Transcript(ctx, dict(partials)))
        signature = node.finalized
        assert verify(keys[1].group_pk, b"owner", signature)
        calls = []
        monkeypatch.setattr(gossip_mod, "aggregate", lambda *args, **kwargs: calls.append(args))
        extra = {**partials, 4: partials[1]}
        observe_broadcast(node, Transcript(ctx, extra))
        assert calls == []
        assert node.finalized is signature


class TestBlame:
    """A transcript is checked in one verify call; its carrier is flagged and good entries merge."""

    # tamper(partials) -> the members rejected, for a 3-of-5 session signed by (1, 2, 3)
    TAMPERS = {
        "one bad partial": (lambda p: {**p, 2: p[2] + 1}, [2]),
        "two bad partials": (lambda p: {**p, 1: p[1] + 1, 3: p[3] + 2}, [1, 3]),
        "cancelling pair": (lambda p: {**p, 1: p[1] + 7, 2: p[2] - 7}, [1, 2]),
        "partial under another member's id": (lambda p: {**p, 2: p[1]}, [2]),
        "non-coalition id": (lambda p: {**p, 5: p[1]}, [5]),
        "good entries with one bad": (lambda p: {1: p[1], 3: p[3] + 1}, [3]),
    }

    @pytest.fixture
    def session(self, backend):
        parts = run_dkg(backend, 3, 5, SeededRng(61))
        keys = {p.id: KeyShare.from_participant(p) for p in parts}
        signers = {i: Signer(keys[i]) for i in (1, 2, 3)}
        rng = SeededRng(62)
        lists = {i: s.round1(rng.fork(str(i))) for i, s in signers.items()}
        package = SigningPackage.build(b"blame", {i: lists[i].pair for i in signers})
        partials = {i: s.round2_partial(package) for i, s in signers.items()}
        return keys, package, partials

    @pytest.mark.parametrize("case", TAMPERS)
    def test_sender_flagged_and_good_entries_merged(self, session, case, monkeypatch):
        keys, package, partials = session
        tamper, rejected = self.TAMPERS[case]
        node = make_node(keys, package, 5, n=5)
        calls = []
        check = node.verifier.verify

        def recording(contributions):
            calls.append(dict(contributions))
            return check(contributions)
        monkeypatch.setattr(node.verifier, "verify", recording)
        incoming = tamper(partials)
        gossip_receive(node, 4, Transcript(node.transcript.context_hash, incoming))
        assert calls == [incoming]
        assert node.flagged == {4}
        assert node.transcript.contributions == {
            m: z for m, z in incoming.items() if m not in rejected
        }
