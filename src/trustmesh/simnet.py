"""Seeded discrete-event network simulator for the protocol suite.

The simulator hosts key generation, signing and gossip aggregation across
overlapping trust domains (a node may belong to several), plus standalone
verifiable-sharing and asynchronous-sharing scenarios.  Time advances in
ticks; each tick delivers due messages (FIFO by send sequence) and then lets
every live node act, so a run is a pure function of its configuration,
including the seed.  Adversary hooks mutate a node's outbound payloads
(corrupt_shares, forge_partial), split its view of the world (equivocate),
silence it, or crash it at a chosen tick.

The report separates a deterministic core (keys, signatures, verdicts, tick
spans, message counts, trace hash) from wall-clock CPU timings, which are
excluded from the canonical serialization.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import json
import time
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Optional, Union, get_args, get_origin, get_type_hints

from . import avss as avss_mod
from . import dkg as dkg_mod
from . import gossip as gossip_mod
from . import sharing as sharing_mod
from . import signing as signing_mod
from .errors import ConfigError, ProtocolAbort
from .groups import ToyGroup, get_backend
from .rng import SeededRng

# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

_BEHAVIORS = ("crash", "corrupt_shares", "equivocate", "forge_partial", "silent")


@dataclass(frozen=True)
class DelaySpec:
    model: str = "fixed"     # "fixed" or "uniform"
    ticks: int = 1           # fixed delay
    lo: int = 1
    hi: int = 1

    def validate(self) -> None:
        if self.model == "fixed":
            if self.ticks < 1:
                raise ConfigError("delay.ticks: must be >= 1")
        elif self.model == "uniform":
            if not 1 <= self.lo <= self.hi:
                raise ConfigError("delay: need 1 <= lo <= hi")
        else:
            raise ConfigError(f"delay.model: unknown model {self.model!r}")

    def draw(self, rng) -> int:
        if self.model == "fixed":
            return self.ticks
        return self.lo + rng.randbelow(self.hi - self.lo + 1)


@dataclass(frozen=True)
class AdversarySpec:
    node: int
    behavior: str
    at_tick: Optional[int] = None

    def validate(self, nodes: int) -> None:
        if self.behavior not in _BEHAVIORS:
            raise ConfigError(f"adversaries: unknown behavior {self.behavior!r}")
        if not 1 <= self.node <= nodes:
            raise ConfigError(f"adversaries: node {self.node} outside 1..{nodes}")
        if (self.behavior == "crash") != (self.at_tick is not None):
            raise ConfigError("adversaries: crash needs at_tick, and no other behavior reads it")


@dataclass(frozen=True)
class DomainSpec:
    domain_id: str
    members: tuple[int, ...]
    threshold: int
    protocol: str = "dkg_sign"
    coalition: Optional[tuple[int, ...]] = None   # global node ids (dkg_sign)
    secret: Optional[int] = None                  # planted secret (vss / avss; 5 if unset)
    deliver_to: Optional[tuple[int, ...]] = None  # avss: who the dealer reaches

    def validate(self, index: int, nodes: int, q: int) -> None:
        """Check domain ``index`` of the scenario against the node count and the group order q."""
        prefix = f"domains[{index}]"
        if self.protocol not in _ENGINES:
            raise ConfigError(f"{prefix}.protocol: unknown protocol {self.protocol!r}")
        if len(set(self.members)) != len(self.members):
            raise ConfigError(f"{prefix}.members: duplicate node ids")
        if self.coalition is not None and len(set(self.coalition)) != len(self.coalition):
            raise ConfigError(f"{prefix}.coalition: duplicate node ids")
        for m in self.members:
            if not 1 <= m <= nodes:
                raise ConfigError(f"{prefix}.members: node {m} outside 1..{nodes}")
        if len(self.members) >= q:
            raise ConfigError(f"{prefix}.members: group order {q} allows at most {q - 1} members")
        if not 1 <= self.threshold <= len(self.members):
            raise ConfigError(f"{prefix}.threshold: need 1 <= t <= members")
        if self.protocol == "pedersen_vss" and self.threshold >= len(self.members):
            raise ConfigError(f"{prefix}.threshold: Pedersen VSS needs t < members")
        if self.protocol == "dkg_sign" and self.threshold < 2:
            raise ConfigError(f"{prefix}.threshold: key generation needs t >= 2")
        if self.coalition is not None:
            if self.protocol != "dkg_sign":
                raise ConfigError(f"{prefix}.coalition: only dkg_sign reads a coalition")
            bad = set(self.coalition) - set(self.members)
            if bad:
                raise ConfigError(f"{prefix}.coalition: {sorted(bad)} not members")
            if len(self.coalition) < self.threshold:
                raise ConfigError(f"{prefix}.coalition: smaller than the threshold")
        if self.deliver_to is not None:
            if self.protocol != "avss":
                raise ConfigError(f"{prefix}.deliver_to: only avss reads deliver_to")
            bad = set(self.deliver_to) - set(self.members)
            if bad:
                raise ConfigError(f"{prefix}.deliver_to: {sorted(bad)} not members")
        if self.secret is not None:
            if self.protocol not in ("pedersen_vss", "avss"):
                raise ConfigError(f"{prefix}.secret: only pedersen_vss and avss read a secret")
            if not 0 <= self.secret < q:
                raise ConfigError(f"{prefix}.secret: must be in 0..{q - 1}")

    @property
    def planted_secret(self) -> int:
        """The secret a pedersen_vss or avss dealer shares."""
        return 5 if self.secret is None else self.secret


@dataclass(frozen=True)
class GossipSpec:
    c: int = 4
    broadcast_prob_num: int = 2

    def validate(self) -> None:
        if self.c < 4:
            raise ConfigError("gossip.c: success parameter must be >= 4")
        if self.broadcast_prob_num < 1:
            raise ConfigError("gossip.broadcast_prob_num: must be >= 1")


@dataclass(frozen=True)
class SimConfig:
    seed: int
    nodes: int
    domains: tuple[DomainSpec, ...]
    backend: str = ToyGroup.name
    message: bytes = b"agree"
    delay: DelaySpec = DelaySpec()
    adversaries: tuple[AdversarySpec, ...] = ()
    gossip: GossipSpec = GossipSpec()
    max_ticks: int = 300
    timeout_ticks: int = 50

    def validate(self) -> None:
        if not 0 <= self.seed < dkg_mod.EPOCH_LIMIT:
            raise ConfigError("seed: must be in 0..2^64-1 (it is the 8-byte CRS epoch)")
        if self.nodes < 1:
            raise ConfigError("nodes: must be >= 1")
        if self.max_ticks < 1:
            raise ConfigError("max_ticks: must be >= 1")
        if self.timeout_ticks < 1:
            raise ConfigError("timeout_ticks: must be >= 1")
        if not self.domains:
            raise ConfigError("domains: at least one domain required")
        try:
            q = get_backend(self.backend).order
        except ValueError as exc:
            raise ConfigError(f"backend: {exc}") from None
        ids = set()
        for index, d in enumerate(self.domains):
            if d.domain_id in ids:
                raise ConfigError(f"domains: duplicate id {d.domain_id!r}")
            ids.add(d.domain_id)
            d.validate(index, self.nodes, q)
        for a in self.adversaries:
            a.validate(self.nodes)
            if sum(b.node == a.node for b in self.adversaries) > 1:
                raise ConfigError(f"adversaries: node {a.node} listed twice")
        self.delay.validate()
        self.gossip.validate()

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        """A validated config from a parsed scenario file: its keys are the spec fields."""
        config = _read_fields(cls, data, "scenario", prefix="")
        config.validate()
        return config


_JSON_KEY = {"domain_id": "id"}   # fields whose scenario key is not their name


@functools.cache
def _keys(cls) -> dict:
    """Spec dataclass cls's scenario keys: key -> (field name, type, required)."""
    types = get_type_hints(cls)
    return {_JSON_KEY.get(f.name, f.name): (f.name, types[f.name], f.default is MISSING)
            for f in fields(cls)}


def _read_fields(cls, value, name: str, prefix: str):
    """A JSON object read into spec dataclass cls.  A key that is absent or
    null takes the field's default; a field without one is required."""
    if type(value) is not dict:
        raise ConfigError(f"{name}: expected dict")
    keys = _keys(cls)
    unknown = sorted(value.keys() - keys.keys())
    if unknown:
        raise ConfigError(f"{name}: unknown keys {unknown}")
    for key, (_, _, required) in keys.items():
        if required and value.get(key) is None:
            raise ConfigError(f"{prefix}{key}: missing")
    return cls(**{keys[key][0]: _read(keys[key][1], v, prefix + key)
                  for key, v in value.items() if v is not None})


def _read(typ, value, name: str):
    """value read as a field of type typ: exactly int (no bool) or str, bytes
    from a UTF-8 string, tuple[t, ...] from a list of t, Optional[t] as t, and
    a spec dataclass from an object."""
    if typ is bytes:
        return _read(str, value, name).encode("utf-8")
    if typ is int or typ is str:
        if type(value) is not typ:
            raise ConfigError(f"{name}: expected {typ.__name__}")
        return value
    if is_dataclass(typ):
        return _read_fields(typ, value, name, f"{name}.")
    item = get_args(typ)[0]
    if get_origin(typ) is Union:
        return _read(item, value, name)
    if type(value) is not list:
        raise ConfigError(f"{name}: expected list")
    if is_dataclass(item):
        return tuple(_read(item, v, f"{name}[{i}]") for i, v in enumerate(value))
    if any(type(v) is not item for v in value):
        raise ConfigError(f"{name}: expected a list of {item.__name__}")
    return tuple(value)


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict; a key written twice is an error."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"scenario: repeated key {key!r}")
        obj[key] = value
    return obj


def load_scenario(ref: str) -> SimConfig:
    """Load a scenario from a path or from the bundled scenario set."""
    path = Path(ref)
    if path.exists():
        text = path.read_text()
    else:
        name = ref.removesuffix(".json") + ".json"
        try:
            text = resources.files("trustmesh.scenarios").joinpath(name).read_text()
        except (FileNotFoundError, ModuleNotFoundError):
            raise ConfigError(f"scenario {ref!r}: not a file and not a bundled scenario")
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario {ref!r}: invalid JSON ({exc})") from None
    return SimConfig.from_dict(data)


# ---------------------------------------------------------------------------
# Messages and report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Message:
    domain: str
    src: int
    dst: int
    kind: str
    payload: object


class SimReport:
    """Run outcome: deterministic core plus wall-clock timings."""

    def __init__(self, core: dict, timings: dict):
        self.core = core
        self.timings = timings

    @property
    def trace_hash(self) -> str:
        return self.core["trace_hash"]

    def domain(self, domain_id: str) -> dict:
        return self.core["domains"][domain_id]

    def canonical_json(self) -> str:
        return json.dumps(self.core, sort_keys=True, separators=(",", ":"))

    def to_json(self, indent: int = 2) -> str:
        full = dict(self.core)
        full["timings"] = self.timings
        return json.dumps(full, sort_keys=True, indent=indent)


# ---------------------------------------------------------------------------
# Domain engines
# ---------------------------------------------------------------------------


class _DomainEngine:
    """One domain's protocol run.

    An engine says, per live node, what it still waits for in the current
    phase (``waiting_for``); ``settle`` is the one rule that turns this into
    completion (``phase_done``) or a timeout.
    """

    wait_start = 0      # tick the current phase's wait began

    def __init__(self, sim: "Simulator", spec: DomainSpec):
        self.sim = sim
        self.spec = spec
        self.backend = sim.backend
        self.members = tuple(sorted(spec.members))
        self.local = {g: i + 1 for i, g in enumerate(self.members)}
        self.globl = {i + 1: g for i, g in enumerate(self.members)}
        self.verdicts: list[str] = []
        self.completed = False
        self.failed = False
        self.marks: dict[str, int] = {}

    def mark(self, name: int | str, tick: int) -> None:
        self.marks.setdefault(name, tick)

    def globals_of(self, local_ids) -> list[int]:
        return sorted(self.globl[i] for i in local_ids)

    def live_members(self, tick: int) -> list[int]:
        return [m for m in self.members if self.sim.is_live(m, tick)]

    def rng(self, stream: str, node: int):
        return self.sim.rng(f"{stream}/{self.spec.domain_id}/{node}")

    def send(self, tick, src, dst, kind, payload, payload_bytes) -> None:
        self.sim.send(tick, self.spec.domain_id, src, dst, kind, payload, payload_bytes)

    def broadcast(self, tick, node, kind, payload, payload_bytes) -> None:
        """Send to every other member, in member order."""
        for peer in self.members:
            if peer != node:
                self.send(tick, node, peer, kind, payload, payload_bytes)

    def finish(self, failed: bool = False) -> None:
        self.completed = True
        self.failed = self.failed or failed

    # overridden by engines
    def start(self) -> None:
        raise NotImplementedError

    def on_message(self, node: int, msg: Message, tick: int) -> None:
        raise NotImplementedError

    def on_tick(self, node: int, tick: int) -> None:
        pass

    def waiting_for(self, node: int) -> Optional[str]:
        """What this live node still waits for, naming the senders; None once it is done."""
        raise NotImplementedError

    def phase_done(self, tick: int) -> None:
        raise NotImplementedError

    def settle(self, tick: int, deadline: bool = False) -> None:
        """Run phase_done once no live member waits; with ``deadline``, time out
        ``timeout_ticks`` after ``wait_start``.  The simulator checks the deadline
        after each tick's deliveries, so a message arriving on time still counts."""
        if self.completed:
            return
        live = self.live_members(tick)
        if live and all(self.waiting_for(node) is None for node in live):
            self.phase_done(tick)
        elif deadline and tick - self.wait_start >= self.sim.config.timeout_ticks:
            self.time_out(tick)

    def time_out(self, tick: int) -> None:
        for node in self.live_members(tick):
            waiting = self.waiting_for(node)
            if waiting is not None:
                self.verdicts.append(f"node {node} timed out waiting for {waiting}")
        self.verdicts.append(f"timeout at tick {tick}")
        self.finish(failed=True)

    def report(self) -> dict:
        return {
            "protocol": self.spec.protocol,
            "members": list(self.members),
            "threshold": self.spec.threshold,
            "verdicts": self.verdicts,
            "marks": {k: v for k, v in sorted(self.marks.items())},
            "ok": self.completed and not self.failed,
        }


class DkgSignEngine(_DomainEngine):
    """Key generation, a two-round signing session, then gossip aggregation.

    Protocol state lives in each node's ``dkg.Participant``, ``signing.NonceIntake``,
    ``signing.Signer`` (in ``signers``, coalition members only) and ``gossip.GossipNode``;
    the engine routes messages between them and applies the adversaries' share mutations.
    """

    def __init__(self, sim, spec):
        super().__init__(sim, spec)
        self.crs = dkg_mod.make_crs(spec.domain_id, epoch=sim.config.seed)
        self.participants: dict[int, dkg_mod.Participant] = {}
        self.shadows = {}      # equivocators' second dealing
        self.signers: dict[int, signing_mod.Signer] = {}
        self.gnodes: dict[int, gossip_mod.GossipNode] = {}
        self.aborted: dict[int, str] = {}   # node -> abort reason in global ids
        self.sign_start: Optional[int] = None
        coalition = spec.coalition or self.members[: spec.threshold]
        self.coalition = tuple(sorted(coalition))
        signers = [self.local[m] for m in self.coalition]
        self.intakes = {m: signing_mod.NonceIntake(sim.config.message, signers) for m in self.members}

    @property
    def wait_start(self) -> int:
        # key generation waits from tick 0, nonce collection from sign_start,
        # gossip from the tick the first node opens its session
        return self.marks.get("gossip_start", self.sign_start or 0)

    def _in_phase(self, phase: dkg_mod.Phase) -> dict[int, dkg_mod.Participant]:
        return {node: p for node, p in sorted(self.participants.items()) if p.phase is phase}

    def _group_keys(self) -> set[bytes]:
        return {p.group_pk.encode() for p in self._in_phase(dkg_mod.Phase.ROUND2_DONE).values()}

    def _signed(self) -> dict[int, gossip_mod.GossipNode]:
        return {node: g for node, g in sorted(self.gnodes.items()) if g.finalized is not None}

    def _signatures(self) -> set[bytes]:
        return {g.finalized.to_bytes(self.backend) for g in self._signed().values()}

    def _flagged(self) -> dict[int, list[int]]:
        return {node: self.globals_of(g.flagged) for node, g in sorted(self.gnodes.items()) if g.flagged}

    def waiting_for(self, node: int) -> Optional[str]:
        p = self.participants[node]
        if self.sign_start is None:
            if p.phase is dkg_mod.Phase.ROUND2_DONE:
                return None
            return str(self.globals_of(p.missing(p.received_broadcasts) or p.missing(p.pending_shares)))
        gnode = self.gnodes.get(node)
        if gnode is None:
            return f"nonce lists from {self.globals_of(self.intakes[node].missing())}"
        if gnode.finalized is not None:
            return None
        held = gnode.verifier.accepted
        missing = [m for m in self.coalition if self.local[m] not in held]
        return f"partials from {missing}" if missing else "an aggregating broadcast"

    def phase_done(self, tick: int) -> None:
        if self.sign_start is None:
            self._dkg_complete(tick)
        else:
            self.mark("all_finalized", tick)
            self._conclude(tick)

    # -- key generation -------------------------------------------------------

    def start(self) -> None:
        self.mark("dkg_start", 0)
        n = len(self.members)
        for node in self.live_members(0):
            local = self.local[node]
            p = dkg_mod.Participant(local, self.spec.threshold, n, self.crs, self.backend)
            rng = self.rng("proto", node)
            bc = dkg_mod.dkg_round1(p, rng)
            self.participants[node] = p
            variant = None
            if self.sim.behavior(node) == "equivocate":
                shadow = dkg_mod.Participant(local, self.spec.threshold, n, self.crs, self.backend)
                variant = dkg_mod.dkg_round1(shadow, rng.fork("equivocate"))
                self.shadows[node] = shadow
            for peer in self.members:
                if peer == node:
                    continue
                payload = variant if (variant is not None and peer > node) else bc
                self.send(0, node, peer, "dkg-round1", payload, payload.to_bytes(self.backend))

    def _send_shares(self, node: int, shares, tick: int) -> None:
        self.mark("round1_verified", tick)
        behavior = self.sim.behavior(node)
        shadow = self.shadows.get(node)
        sender = self.local[node]
        for local_peer, value in shares:
            peer = self.globl[local_peer]
            if behavior == "corrupt_shares":
                value = value + 1
            elif shadow is not None and peer > node:
                value = shadow.own_polynomial.evaluate(local_peer)
            share = sharing_mod.SharePacket(sender, value)
            self.send(tick, node, peer, "dkg-round2", share, share.to_bytes(self.backend))

    def _dkg_receive(self, node: int, msg: Message, tick: int) -> None:
        p = self.participants[node]
        try:
            if msg.kind == "dkg-round1":
                shares = dkg_mod.dkg_receive_broadcast(p, self.local[msg.src], msg.payload)
                if shares:
                    self._send_shares(node, shares, tick)
            else:
                dkg_mod.dkg_receive_share(p, self.local[msg.src], msg.payload.value)
        except ProtocolAbort as abort:
            culprits = self.globals_of(abort.faulty_ids)
            self.verdicts.append(f"node {node} aborted key generation blaming {culprits}")
            self.aborted[node] = f"{abort.reason}{culprits}"
            self.finish(failed=True)

    def _dkg_complete(self, tick: int) -> None:
        self.mark("dkg_done", tick)
        # the group key and the verification shares are sums over the dealers'
        # commitments: finished nodes disagree on either only where a dealer
        # sent them different commitments (with n >= t, a split group key
        # splits the verification shares too)
        done = list(self._in_phase(dkg_mod.Phase.ROUND2_DONE).values())
        first = done[0].received_broadcasts
        dealers = self.globals_of(
            j for j in first
            if any(p.received_broadcasts[j].commitment != first[j].commitment for p in done[1:])
        )
        if dealers:
            self.verdicts.append(
                f"verification share disagreement: equivocation by dealers {dealers}")
            self.finish(failed=True)
            return
        self.verdicts.append("key generation complete: group keys agree")
        self.sign_start = tick + 1

    # -- signing + gossip -----------------------------------------------------

    def on_tick(self, node: int, tick: int) -> None:
        if tick == self.sign_start and node in self.coalition:
            self.mark("sign_start", tick)
            key = signing_mod.KeyShare.from_participant(self.participants[node])
            self.signers[node] = signer = signing_mod.Signer(key)
            nonces = signer.round1(self.rng("proto", node).fork("nonce"))
            self.broadcast(tick, node, "nonce-list", nonces, nonces.to_bytes())
            self._take_nonces(node, node, nonces, tick)
            return
        gnode = self.gnodes.get(node)
        if gnode is not None and not gnode.stopped:
            grng = self.rng("gossip", node)
            for peer_local, transcript in gossip_mod.gossip_round(gnode, grng):
                if self.sim.behavior(node) == "forge_partial":
                    # one contribution plus one: the lowest-id one not its own, if any
                    held = transcript.contributions
                    forged = min(held, key=lambda m: (m == gnode.node_id, m))
                    held[forged] = held[forged] + 1
                peer = self.globl[peer_local]
                self.send(tick, node, peer, "gossip", transcript,
                          transcript.to_bytes(self.backend))
            broadcast = gossip_mod.gossip_maybe_terminate(gnode, grng)
            if broadcast is not None:
                self.mark("first_broadcast", tick)
                self.broadcast(tick, node, "gossip-broadcast", broadcast,
                               broadcast.to_bytes(self.backend))
                self._observe(node, broadcast)

    def _take_nonces(self, node: int, sender: int, nonces, tick: int) -> None:
        intake = self.intakes[node]
        package = intake.receive(self.local[sender], nonces)
        if package is None:
            return
        self.mark("gossip_start", tick)
        p = self.participants[node]
        gnode = gossip_mod.GossipNode(
            node_id=self.local[node],
            peers=tuple(self.local[m] for m in self.members if m != node),
            verifier=signing_mod.PartialVerifier(package, p.peer_pk_shares, p.group_pk),
            c=self.sim.config.gossip.c,
            broadcast_prob_num=self.sim.config.gossip.broadcast_prob_num,
        )
        if node in self.signers:
            gnode.seed_own_partial(self.signers[node].round2_partial(package))
        self.gnodes[node] = gnode

    def _observe(self, node: int, transcript) -> None:
        gnode = self.gnodes.get(node)
        if gnode is not None:
            gossip_mod.observe_broadcast(gnode, transcript)

    def _conclude(self, tick: int) -> None:
        signatures = self._signatures()
        ok = len(signatures) == 1
        if ok:
            sig = signing_mod.Signature.from_bytes(signatures.pop(), self.backend)
            group_pk = self.participants[next(iter(self._signed()))].group_pk
            ok = signing_mod.verify(group_pk, self.sim.config.message, sig)
        self.verdicts.append(
            "signature agreement and verification succeeded" if ok
            else "signature agreement or verification failed"
        )
        for node, flagged in self._flagged().items():
            self.verdicts.append(f"node {node} flagged {flagged} during gossip")
        self.finish(failed=not ok)

    def on_message(self, node: int, msg: Message, tick: int) -> None:
        if msg.kind in ("dkg-round1", "dkg-round2"):
            self._dkg_receive(node, msg, tick)
        elif msg.kind == "nonce-list":
            self._take_nonces(node, msg.src, msg.payload, tick)
        elif msg.kind == "gossip":
            gnode = self.gnodes.get(node)
            if gnode is not None:
                gossip_mod.gossip_receive(gnode, self.local[msg.src], msg.payload)
        elif msg.kind == "gossip-broadcast":
            self._observe(node, msg.payload)

    def report(self) -> dict:
        keys = self._group_keys()
        pk = keys.pop().hex() if len(keys) == 1 else None
        sigs = self._signatures()
        rounds = None
        if "first_broadcast" in self.marks and "gossip_start" in self.marks:
            rounds = self.marks["first_broadcast"] - self.marks["gossip_start"] + 1
        return {
            **super().report(),
            "coalition": list(self.coalition),
            "group_pk": pk,
            "group_pk_agreement": pk is not None,
            "signature": sigs.pop().hex() if len(sigs) == 1 else None,
            "completed_members": list(self._signed()),
            "aborted": {str(node): reason for node, reason in sorted(self.aborted.items())},
            "flagged": {str(node): flagged for node, flagged in self._flagged().items()},
            "gossip_rounds": rounds,
        }


class PedersenVssEngine(_DomainEngine):
    """A dealer distributes blinded verifiable shares; complaints are adjudicated."""

    def __init__(self, sim, spec):
        super().__init__(sim, spec)
        self.dealer = self.members[0]
        self.share_results: dict[int, bool] = {}
        self.complaint_verdicts: dict[int, str] = {}

    def waiting_for(self, node: int) -> Optional[str]:
        if self.local[node] not in self.share_results:
            return f"a share from {[self.dealer]}"
        complainants = self.globals_of(i for i, ok in self.share_results.items() if not ok)
        if complainants and node not in self.complaint_verdicts:
            return f"complaints from {complainants}"
        return None

    def start(self) -> None:
        self.mark("deal_start", 0)
        if not self.sim.is_live(self.dealer, 0):
            return
        rng = self.rng("proto", self.dealer)
        secret = self.backend.scalar(self.spec.planted_secret)
        commitments, shares = sharing_mod.pedersen_split(
            secret, self.spec.threshold, len(self.members), rng, self.backend
        )
        corrupt = self.sim.behavior(self.dealer) == "corrupt_shares"
        for share in shares:
            recipient = self.globl[share.id]
            if corrupt and recipient != self.dealer:
                share = sharing_mod.SharePacket(share.id, share.value + 1, share.blinding)
            self.send(0, self.dealer, recipient, "vss-share",
                      (commitments, share), share.to_bytes(self.backend))
        self.share_results[self.local[self.dealer]] = True

    def on_message(self, node: int, msg: Message, tick: int) -> None:
        if msg.kind == "vss-share":
            commitments, share = msg.payload
            ok = sharing_mod.pedersen_verify(share, commitments)
            self.share_results[share.id] = ok
            if not ok:
                complaint = sharing_mod.Complaint(share.id, share, commitments)
                self.broadcast(tick, node, "vss-complaint", complaint, share.to_bytes(self.backend))
                self.complaint_verdicts[node] = sharing_mod.adjudicate_complaint(complaint).value
        elif msg.kind == "vss-complaint":
            self.complaint_verdicts[node] = sharing_mod.adjudicate_complaint(msg.payload).value

    def phase_done(self, tick: int) -> None:
        self.mark("done", tick)
        if all(self.share_results.values()):
            self.verdicts.append("all shares verified")
        else:
            unique = sorted(set(self.complaint_verdicts.values()))
            self.verdicts.append(f"complaint adjudicated: {', '.join(unique)}")
        self.finish(failed=False)

    def report(self) -> dict:
        return {
            **super().report(),
            "dealer": self.dealer,
            "share_results": {str(self.globl[i]): ok for i, ok in sorted(self.share_results.items())},
            "complaint_verdicts": {str(n): v for n, v in sorted(self.complaint_verdicts.items())},
        }


class AvssEngine(_DomainEngine):
    """Bivariate dealing with overlap-point exchange for undealt nodes."""

    def __init__(self, sim, spec):
        super().__init__(sim, spec)
        self.dealer = self.members[0]
        self.nodes: dict[int, avss_mod.NodeRecovery] = {}    # by local id, once dealt
        self.exchanged: set[int] = set()

    def start(self) -> None:
        self.mark("deal_start", 0)
        if not self.sim.is_live(self.dealer, 0):
            return
        rng = self.rng("proto", self.dealer)
        secret = self.backend.scalar(self.spec.planted_secret)
        t = self.spec.threshold
        commitment, deals = avss_mod.avss_deal(secret, t, len(self.members), rng, self.backend)
        self.nodes = {local: avss_mod.NodeRecovery(local, commitment) for local in self.globl}
        targets = self.members if self.spec.deliver_to is None else self.spec.deliver_to
        for deal in deals:
            recipient = self.globl[deal.recipient]
            if recipient not in targets:
                continue
            self.send(0, self.dealer, recipient, "avss-deal",
                      deal, self.backend.encode_scalar(deal.share()))

    def waiting_for(self, node: int) -> Optional[str]:
        recovery = self.nodes.get(self.local[node])
        if recovery is None:
            return f"a deal from {[self.dealer]}"
        if recovery.complete:
            return None
        # points come only from members that hold their polynomials (the node
        # itself does not); once none is left, only the dealer can complete it
        senders = [m for m in self.members
                   if self.nodes[self.local[m]].complete and self.local[m] not in recovery.points]
        if senders:
            return f"points from {senders}"
        return f"a deal from {[self.dealer]}"

    def on_message(self, node: int, msg: Message, tick: int) -> None:
        recovery = self.nodes[self.local[node]]
        if msg.kind == "avss-deal":
            if not recovery.accept_deal(msg.payload):
                self.verdicts.append(f"node {node} rejected its deal")
        else:
            recovery.receive(msg.payload)

    def on_tick(self, node: int, tick: int) -> None:
        local = self.local[node]
        recovery = self.nodes.get(local)
        if recovery is not None and recovery.complete and local not in self.exchanged:
            self.exchanged.add(local)
            corrupt = self.sim.behavior(node) == "corrupt_shares"
            for pmsg in avss_mod.exchange_messages(recovery.deal, list(self.globl)):
                if corrupt:
                    pmsg = replace(pmsg, row_value=pmsg.row_value + 1)
                recipient = self.globl[pmsg.recipient]
                self.send(tick, node, recipient, "avss-point", pmsg,
                          self.backend.encode_scalar(pmsg.row_value))

    def _completed(self) -> list[int]:
        return [local for local, recovery in self.nodes.items() if recovery.complete]

    def phase_done(self, tick: int) -> None:
        self.mark("done", tick)
        sample = self._completed()[:self.spec.threshold]
        secret = avss_mod.avss_recover_secret([(i, self.nodes[i].share()) for i in sample])
        if secret == self.backend.scalar(self.spec.planted_secret):
            self.verdicts.append("all nodes completed; recovered secret matches")
            self.finish(failed=False)
        else:
            self.verdicts.append("recovered secret does not match the planted value")
            self.finish(failed=True)

    def report(self) -> dict:
        return {
            **super().report(),
            "dealer": self.dealer,
            "completed_members": self.globals_of(self._completed()),
            "flagged": {
                str(self.globl[i]): self.globals_of(r.flagged)
                for i, r in sorted(self.nodes.items()) if r.flagged
            },
        }


_ENGINES = {
    "dkg_sign": DkgSignEngine,
    "pedersen_vss": PedersenVssEngine,
    "avss": AvssEngine,
}


# ---------------------------------------------------------------------------
# Simulator core
# ---------------------------------------------------------------------------


class Simulator:
    def __init__(self, config: SimConfig):
        config.validate()
        self.config = config
        self.backend = get_backend(config.backend)
        self.root_rng = SeededRng(config.seed)
        self._rngs: dict[str, SeededRng] = {}
        self.queue: list = []
        self.seq = 0
        self.trace: list[str] = []
        self.counts: dict[str, int] = {}
        self.cpu: dict[str, float] = {}
        self.adversaries = {a.node: a for a in config.adversaries}
        self.engines = {
            d.domain_id: _ENGINES[d.protocol](self, d) for d in config.domains
        }

    # -- node status / rng streams ------------------------------------------

    def behavior(self, node: int) -> Optional[str]:
        adv = self.adversaries.get(node)
        return adv.behavior if adv else None

    def is_live(self, node: int, tick: int) -> bool:
        adv = self.adversaries.get(node)
        return not (adv and adv.behavior == "crash" and tick >= adv.at_tick)

    def rng(self, label: str) -> SeededRng:
        """The root stream's child under `label`; one stream per label for the whole run."""
        if label not in self._rngs:
            self._rngs[label] = self.root_rng.fork(label)
        return self._rngs[label]

    # -- messaging -------------------------------------------------------------

    def send(self, tick, domain, src, dst, kind, payload, payload_bytes) -> None:
        if not self.is_live(src, tick) or self.behavior(src) == "silent":
            return
        delay = self.config.delay.draw(self.rng("delay"))
        deliver_at = tick + delay
        digest = hashlib.sha256(payload_bytes).hexdigest()[:16]
        self.trace.append(f"{tick}>{deliver_at}|{domain}|{src}>{dst}|{kind}|{digest}")
        self.counts[kind] = self.counts.get(kind, 0) + 1
        heapq.heappush(self.queue, (deliver_at, self.seq, Message(domain, src, dst, kind, payload)))
        self.seq += 1

    # -- main loop ---------------------------------------------------------------

    def run(self) -> SimReport:
        started = time.perf_counter()
        for domain_id in sorted(self.engines):
            self._timed(f"{domain_id}/start", self.engines[domain_id].start)
        tick = 0
        while tick <= self.config.max_ticks:
            while self.queue and self.queue[0][0] == tick:
                _, _, msg = heapq.heappop(self.queue)
                engine = self.engines[msg.domain]
                if engine.completed or not self.is_live(msg.dst, tick):
                    continue
                label = f"{msg.domain}/{msg.kind}"
                self._timed(label, engine.on_message, msg.dst, msg, tick)
                self._timed(label, engine.settle, tick)
            for domain_id in sorted(self.engines):
                engine = self.engines[domain_id]
                label = f"{domain_id}/tick"
                self._timed(label, engine.settle, tick, True)
                for node in engine.live_members(tick):
                    if engine.completed:
                        break
                    self._timed(label, engine.on_tick, node, tick)
                    self._timed(label, engine.settle, tick)
            if all(e.completed for e in self.engines.values()) and not self.queue:
                break
            tick += 1
        tick = min(tick, self.config.max_ticks)   # the last tick the loop ran
        for domain_id in sorted(self.engines):
            engine = self.engines[domain_id]
            if not engine.completed:
                engine.time_out(tick)
        return self._report(tick, time.perf_counter() - started)

    def _timed(self, label: str, fn, *args) -> None:
        """Run fn, booking its CPU time under label: <domain>/start, /tick or /<message kind>."""
        t0 = time.perf_counter()
        fn(*args)
        self.cpu[label] = self.cpu.get(label, 0.0) + (time.perf_counter() - t0)

    def _report(self, final_tick: int, wall: float) -> SimReport:
        trace_hash = hashlib.sha256("\n".join(self.trace).encode()).hexdigest()
        core = {
            "seed": self.config.seed,
            "backend": self.config.backend,
            "nodes": self.config.nodes,
            "message": self.config.message.hex(),
            "final_tick": final_tick,
            "message_counts": {k: v for k, v in sorted(self.counts.items())},
            "domains": {
                domain_id: engine.report() for domain_id, engine in sorted(self.engines.items())
            },
            "trace_hash": trace_hash,
            "ok": all(not e.failed for e in self.engines.values()),
        }
        timings = {
            "wall_s": wall,
            "cpu_s_by_phase": {k: round(v, 6) for k, v in sorted(self.cpu.items())},
        }
        return SimReport(core, timings)


def run_simulation(config: SimConfig) -> SimReport:
    """Execute one deterministic scenario and return its report."""
    return Simulator(config).run()
