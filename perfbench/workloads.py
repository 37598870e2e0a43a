"""The benchmark's three workloads, driven through trustmesh's public API.

Each workload has a ``setup`` (all work done before the first timed op), an
``op`` (one timed unit of work, returning its output) and a ``check`` (the
output's correctness, run outside the timed region).  trustmesh is imported
inside ``setup`` so that every set-up repeat pays for a fresh import.

All three are closed loops with one client in one thread: the next op starts
when the previous one has returned.  Every input is derived from the
workload seed and the op index, so a seed always gives the same work.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace

MODULES = ("groups", "polynomials", "sharing", "avss", "dkg", "signing", "gossip", "simnet", "rng")
SCENARIO = Path(__file__).with_name("sim_mesh.json")


def fresh_trustmesh() -> SimpleNamespace:
    """Drop every loaded trustmesh module and import the package again."""
    for name in [n for n in sys.modules if n == "trustmesh" or n.startswith("trustmesh.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"trustmesh.{m}") for m in MODULES})


def warm_backend(tm):
    """The ed25519 backend with its G and H window tables built."""
    backend = tm.groups.get_backend("ed25519")
    backend.generator().mul(3)
    backend.second_generator().mul(3)
    return backend


class DkgCeremony:
    """One leaderless DKG ceremony per op."""

    name = "dkg-ceremony"
    t, n = 3, 32
    kernel_reps = 40
    about = {
        "loop": "closed", "clients": 1,
        "sizes": "one dkg.run_dkg per op, t=3, n=32, ed25519",
        "seeding": "op i runs on SeededRng('dkg-ceremony/<seed>/<i>')",
        "why": "n^2 proof-of-knowledge checks dominate; runs no decode, signing, gossip or simnet code, "
               "so it is the bypass workload for changes there",
    }

    def setup(self, seed: int) -> None:
        self.tm = tm = fresh_trustmesh()
        self.seed = seed
        self.backend = warm_backend(tm)

    def op(self, i: int):
        rng = self.tm.rng.SeededRng(f"dkg-ceremony/{self.seed}/{i}")
        return self.tm.dkg.run_dkg(self.backend, self.t, self.n, rng)

    def check(self, i: int, participants) -> list[str]:
        tm, backend = self.tm, self.backend
        problems = []
        group_pk = participants[0].group_pk
        if len({p.group_pk.encode() for p in participants}) != 1:
            problems.append("nodes disagree on group_pk")
        pick = tm.rng.SeededRng(f"dkg-ceremony/{self.seed}/{i}/coalition")
        coalition = sorted(pick.sample(range(1, self.n + 1), self.t))
        secret = tm.dkg.combine_signing_shares(participants, coalition)
        if secret * backend.generator() != group_pk:
            problems.append(f"coalition {coalition} does not reconstruct the group key")
        for p in participants:
            if any(p.peer_pk_shares[q.id] != q.pk_share for q in participants):
                problems.append(f"node {p.id} holds wrong peer verification shares")
                break
        return problems

    def digest(self, participants) -> bytes:
        return participants[0].group_pk.encode()

    def ticks(self, participants) -> int:
        return 0


class SignStream:
    """One networked threshold-signing session per op over a fixed key."""

    name = "sign-stream"
    t, n = 3, 16
    kernel_reps = 4
    about = {
        "loop": "closed", "clients": 1,
        "sizes": "key t=3, n=16 made in setup; one 3-signer session per op with a 32-byte message, ed25519",
        "seeding": "key from SeededRng('sign-stream/<seed>/key'); session i draws its coalition, "
                   "message and nonces from SeededRng('sign-stream/<seed>/<i>')",
        "why": "covers the signing layer and point decoding as a coordinator and a verifier see them; "
               "no DKG work is timed",
    }

    def setup(self, seed: int) -> None:
        self.tm = tm = fresh_trustmesh()
        self.seed = seed
        self.backend = warm_backend(tm)
        participants = tm.dkg.run_dkg(
            self.backend, self.t, self.n, tm.rng.SeededRng(f"sign-stream/{seed}/key")
        )
        self.keys = {p.id: tm.signing.KeyShare.from_participant(p) for p in participants}

    def op(self, i: int):
        signing, backend = self.tm.signing, self.backend
        rng = self.tm.rng.SeededRng(f"sign-stream/{self.seed}/{i}")
        coalition = sorted(rng.sample(range(1, self.n + 1), self.t))
        message = rng.getrandbits(256).to_bytes(32, "big")
        signers = {m: signing.Signer(self.keys[m]) for m in coalition}
        # signers publish their nonce commitments as bytes; the coordinator
        # decodes every point before building the package
        wire = {m: signers[m].round1(rng.fork(f"nonce/{m}")).to_bytes() for m in coalition}
        size = backend.element_bytes
        commitments = {}
        for m, data in wire.items():
            owner = int.from_bytes(data[:4], "big")
            a = backend.decode_element(data[4:4 + size])
            b = backend.decode_element(data[4 + size:4 + 2 * size])
            commitments[owner] = (a, b)
        package = signing.SigningPackage.build(message, commitments)
        partial_wire = {m: backend.encode_scalar(signers[m].round2_partial(package)) for m in coalition}
        partials = {m: backend.decode_scalar(z) for m, z in partial_wire.items()}
        key = self.keys[coalition[0]]
        sig_bytes = signing.aggregate(package, partials, key.pk_shares, key.group_pk).to_bytes(backend)
        received = signing.Signature.from_bytes(sig_bytes, backend)
        return sig_bytes, message, signing.verify(key.group_pk, message, received)

    def check(self, i: int, output) -> list[str]:
        sig_bytes, _, accepted = output
        problems = [] if accepted else ["verifier rejected the signature"]
        if len(sig_bytes) != self.backend.element_bytes + self.backend.scalar_bytes:
            problems.append(f"signature is {len(sig_bytes)} bytes")
        return problems

    def digest(self, output) -> bytes:
        return output[0]

    def ticks(self, output) -> int:
        return 0


class SimMesh:
    """One seeded simulator run of a 14-node, 5-domain scenario per op."""

    name = "sim-mesh"
    scenario_seeds = 8
    kernel_reps = 10
    about = {
        "loop": "closed", "clients": 1,
        "sizes": "sim_mesh.json: 14 nodes; dkg_sign domains A and B (8 nodes, t=3, 5 shared), "
                 "avss C (8 nodes, dealer reaches 3 then crashes at tick 1), pedersen_vss D (4 nodes), "
                 "dkg_sign E (6 nodes, one corrupt_shares node); uniform delay 1-3 ticks, ed25519",
        "seeding": "op i runs scenario seed i mod 8 from a list of 8 derived from "
                   "SeededRng('sim-mesh/<seed>'), so each run repeats the same scenarios",
        "why": "the only workload for simnet, gossip, avss, sharing and the blame path, with faults injected",
    }

    def setup(self, seed: int) -> None:
        self.tm = tm = fresh_trustmesh()
        self.backend = warm_backend(tm)
        data = json.loads(SCENARIO.read_text())
        pick = tm.rng.SeededRng(f"sim-mesh/{seed}")
        self.configs = []
        for _ in range(self.scenario_seeds):
            data["seed"] = pick.randbelow(2**32)
            self.configs.append(tm.simnet.SimConfig.from_dict(data))
        self.canonical: dict[int, str] = {}

    def op(self, i: int):
        return self.tm.simnet.run_simulation(self.configs[i % self.scenario_seeds])

    def check(self, i: int, report) -> list[str]:
        tm, backend = self.tm, self.backend
        config = self.configs[i % self.scenario_seeds]
        problems = []
        first = self.canonical.setdefault(config.seed, report.canonical_json())
        if report.canonical_json() != first:
            problems.append(f"scenario seed {config.seed}: report differs from an earlier run")
        for name in ("A", "B"):
            d = report.domain(name)
            if not d["ok"] or d["completed_members"] != d["members"]:
                problems.append(f"domain {name} did not sign on every member: {d['verdicts']}")
                continue
            pk = backend.decode_element(bytes.fromhex(d["group_pk"]))
            sig = tm.signing.Signature.from_bytes(bytes.fromhex(d["signature"]), backend)
            if not tm.signing.verify(pk, config.message, sig):
                problems.append(f"domain {name}: signature does not verify")
        c = report.domain("C")
        dealt_live = [m for m in c["members"] if m != c["dealer"]]
        if not c["ok"] or c["completed_members"] != dealt_live:
            problems.append(f"domain C did not recover the planted secret: {c['verdicts']}")
        d = report.domain("D")
        shares = d["share_results"]
        if not d["ok"] or len(shares) != len(d["members"]) or not all(shares.values()):
            problems.append(f"domain D did not verify every share: {d['verdicts']}")
        e = report.domain("E")
        blames = [v for v in e["verdicts"] if "aborted key generation blaming" in v]
        corrupt = [a.node for a in config.adversaries if a.behavior == "corrupt_shares"]
        if e["ok"] or not blames or any(not v.endswith(f"blaming {corrupt}") for v in blames):
            problems.append(f"domain E did not abort blaming exactly {corrupt}: {e['verdicts']}")
        return problems

    def digest(self, report) -> str:
        return report.canonical_json()

    def ticks(self, report) -> int:
        return report.core["final_tick"]


WORKLOADS = {w.name: w for w in (DkgCeremony, SignStream, SimMesh)}
