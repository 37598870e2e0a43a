"""Run-time tracing of trustmesh's public API, for the per-layer metrics.

``Tracer.install`` wraps public functions and methods of every layer in
place.  A wrapped function is replaced in every trustmesh module that binds
it by name, so calls made through ``from .groups import hash_to_scalar``
are seen as well.  ``uninstall`` puts the originals back, so untraced ops run
the unmodified program.

Each wrapped call records a span (name, start, end, parent, op) in memory;
``write`` saves them when the run ends.  A call whose direct parent span has
the same name records no span of its own (``hash_to_scalar`` calling
``hash_bytes`` is one hash, not two).
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

# (module, class or None, attribute, span name).  The span name's prefix is
# the layer; the rest names the metric key it feeds.
TARGETS = (
    ("groups", "GroupElement", "__add__", "groups.add"),
    ("groups", "GroupElement", "__sub__", "groups.add"),
    ("groups", "GroupElement", "encode", "groups.encode"),
    ("groups", "GroupBackend", "decode_element", "groups.decode"),
    ("groups", None, "hash_to_scalar", "groups.hash"),
    ("groups", None, "hash_bytes", "groups.hash"),
    ("polynomials", "Polynomial", "evaluate", "polynomials.evaluate"),
    ("polynomials", None, "random_polynomial", "polynomials.random"),
    ("polynomials", None, "lagrange_coefficient", "polynomials.lagrange"),
    ("polynomials", None, "interpolate_at", "polynomials.interpolate"),
    ("polynomials", None, "interpolate_polynomial", "polynomials.interpolate"),
    ("sharing", "CommitmentVector", "share_commitment", "sharing.share_commitment"),
    ("sharing", None, "feldman_verify", "sharing.verify"),
    ("sharing", None, "pedersen_verify", "sharing.verify"),
    ("sharing", None, "shamir_split", "sharing.split"),
    ("sharing", None, "feldman_split", "sharing.split"),
    ("sharing", None, "pedersen_split", "sharing.split"),
    ("sharing", None, "shamir_combine", "sharing.combine"),
    ("sharing", None, "commit_polynomial", "sharing.commit"),
    ("sharing", None, "commit_polynomial_pair", "sharing.commit"),
    ("sharing", None, "adjudicate_complaint", "sharing.adjudicate"),
    ("avss", None, "avss_point_valid", "avss.point_check"),
    ("avss", None, "avss_deal", "avss.deal"),
    ("avss", None, "avss_verify_share", "avss.verify_share"),
    ("avss", None, "exchange_messages", "avss.exchange"),
    ("avss", None, "exchange_message_valid", "avss.exchange_check"),
    ("avss", None, "avss_exchange_and_interpolate", "avss.exchange_and_interpolate"),
    ("avss", None, "avss_recover_secret", "avss.recover"),
    ("dkg", None, "make_crs", "dkg.make_crs"),
    ("dkg", None, "pok_prove", "dkg.pok_prove"),
    ("dkg", None, "pok_verify", "dkg.pok_verify"),
    ("dkg", None, "dkg_round1", "dkg.round1"),
    ("dkg", None, "dkg_accept_round1", "dkg.round1"),
    ("dkg", None, "dkg_verify_round1", "dkg.round1"),
    ("dkg", None, "dkg_round2_send", "dkg.round2"),
    ("dkg", None, "dkg_round2_finalize", "dkg.round2"),
    ("dkg", None, "run_dkg", "dkg.run_dkg"),
    ("dkg", None, "combine_signing_shares", "dkg.combine"),
    ("signing", None, "binding_values", "signing.binding_values"),
    ("signing", None, "bound_commitments", "signing.bound_commitments"),
    ("signing", None, "challenge_scalar", "signing.challenge"),
    ("signing", "PartialVerifier", "__init__", "signing.verifier_build"),
    ("signing", "PartialVerifier", "verify", "signing.partial_verify"),
    ("signing", "Signer", "round1", "signing.round1"),
    ("signing", "Signer", "round2_partial", "signing.partial"),
    ("signing", None, "aggregate", "signing.aggregate"),
    ("signing", None, "verify", "signing.verify"),
    ("signing", "SigningPackage", "build", "signing.package"),
    ("signing", "NonceCommitmentList", "to_bytes", "signing.encode"),
    ("signing", "Signature", "to_bytes", "signing.encode"),
    ("signing", "Signature", "from_bytes", "signing.decode"),
    ("gossip", None, "gossip_round", "gossip.round"),
    ("gossip", None, "gossip_maybe_terminate", "gossip.terminate"),
    ("gossip", None, "observe_broadcast", "gossip.observe"),
    ("gossip", "GossipNode", "seed_own_partial", "gossip.seed"),
    ("simnet", None, "run_simulation", "simnet.run"),
    ("simnet", "Simulator", "run", "simnet.run"),
)

OP = "op"
SMALL_SCALAR = 1 << 16   # below this, _ed_mul takes its double-and-add path


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.ops: list[int] = []
        self.stack: list[int] = []
        self.op_counts: list[Counter] = []   # per traced op: calls and tallies
        self.counts = Counter()
        self._undo: list[tuple[object, str, object]] = []
        self._op = -1

    # -- spans -------------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        stack = self.stack
        parent = stack[-1] if stack else -1
        if parent >= 0 and self.names[parent] == name:
            return fn(*args, **kwargs)
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(parent)
        self.ops.append(self._op)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.counts[name] += 1
        stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = perf_counter()
            self.starts[idx] = start
            stack.pop()

    def run_op(self, op_id: int, fn, *args):
        """Run one op traced; returns (output, traced seconds)."""
        self._op = op_id
        self.counts = Counter()
        idx = len(self.names)
        out = self._call(OP, fn, args, {})
        self.op_counts.append(self.counts)
        return out, self.ends[idx] - self.starts[idx]

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return wrapper

    # -- special wrappers ----------------------------------------------------

    def _wrap_mul(self, fn, tm):
        backend = tm.groups.get_backend("ed25519")
        bases = (backend.generator().rep, backend.second_generator().rep)
        order = backend.order
        call = self._call

        @functools.wraps(fn)
        def mul(element, k):
            if element.rep == bases[0] or element.rep == bases[1]:
                name = "groups.mul_fixed"
            elif (k.value if isinstance(k, tm.groups.Scalar) else k % order) < SMALL_SCALAR:
                name = "groups.mul_small"
            else:
                name = "groups.mul_var"
            return call(name, fn, (element, k), {})
        return mul

    def _wrap_receive(self, fn):
        call = self._call

        @functools.wraps(fn)
        def gossip_receive(node, sender, incoming):
            before = dict(node.transcript.contributions)
            out = call("gossip.receive", fn, (node, sender, incoming), {})
            after = node.transcript.contributions
            self.counts["gossip.received"] += len(incoming.contributions)
            self.counts["gossip.merged"] += sum(1 for m, z in after.items() if before.get(m) != z)
            return out
        return gossip_receive

    def _wrap_send(self, fn):
        @functools.wraps(fn)
        def send(sim, tick, domain, src, dst, kind, payload, payload_bytes):
            seq = sim.seq
            fn(sim, tick, domain, src, dst, kind, payload, payload_bytes)
            if sim.seq != seq:
                self.counts["simnet.messages"] += 1
                self.counts["simnet.bytes"] += len(payload_bytes)
        return send

    # -- patching --------------------------------------------------------------

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, value)

    def _patch_function(self, modules, home, attr, wrapper_for):
        original = getattr(home, attr)
        wrapper = wrapper_for(original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapper)

    def _patch_method(self, cls, attr, wrapper_for):
        raw = cls.__dict__[attr]   # KeyError when the method was renamed or moved
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(wrapper_for(raw.__func__)))
        else:
            self._set(cls, attr, wrapper_for(raw))

    def install(self, tm) -> None:
        """Wrap every target in the trustmesh modules loaded in ``tm``."""
        modules = [m for n, m in sys.modules.items() if n == "trustmesh" or n.startswith("trustmesh.")]
        for module_name, owner, attr, name in TARGETS:
            home = getattr(tm, module_name)
            wrapper_for = functools.partial(self._wrap, name)
            if owner is None:
                self._patch_function(modules, home, attr, wrapper_for)
            else:
                self._patch_method(getattr(home, owner), attr, wrapper_for)
        element = tm.groups.GroupElement
        self._patch_method(element, "mul", lambda fn: self._wrap_mul(fn, tm))
        self._patch_method(element, "__rmul__", lambda fn: self._wrap_mul(fn, tm))
        self._patch_function(modules, tm.gossip, "gossip_receive", self._wrap_receive)
        self._patch_method(tm.simnet.Simulator, "send", self._wrap_send)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    # -- results -----------------------------------------------------------------

    def layer_times(self) -> dict[str, float]:
        """Per span name and per layer: inclusive and self seconds.

        Keys are ``<name>`` and ``<layer>`` for inclusive time (counting a
        span only when no ancestor has the same name, or layer), and
        ``<layer>.self`` for span time minus direct child spans.  ``op``
        holds the traced op time and ``op.children`` the part of it covered
        by spans.
        """
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        child = [0.0] * len(names)
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += ends[i] - starts[i]
        times = Counter()
        for i, name in enumerate(names):
            dur = ends[i] - starts[i]
            if name == OP:
                times[OP] += dur
                times["op.children"] += child[i]
                continue
            layer = name.split(".", 1)[0]
            times[f"{layer}.self"] += dur - child[i]
            same_name = same_layer = False
            p = parents[i]
            while p >= 0 and names[p] != OP:
                same_name = same_name or names[p] == name
                same_layer = same_layer or names[p].split(".", 1)[0] == layer
                p = parents[p]
            if not same_name:
                times[name] += dur
            if not same_layer:
                times[layer] += dur
        return times

    def write(self, path) -> None:
        """Spans as tab-separated lines: name, start_us, end_us, parent, op."""
        t0 = min(self.starts) if self.starts else 0.0
        with open(path, "w") as fh:
            fh.write("name\tstart_us\tend_us\tparent\top\n")
            for i, name in enumerate(self.names):
                fh.write(f"{name}\t{(self.starts[i] - t0) * 1e6:.1f}\t{(self.ends[i] - t0) * 1e6:.1f}"
                         f"\t{self.parents[i]}\t{self.ops[i]}\n")
