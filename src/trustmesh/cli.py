"""Command-line front end.

Subcommands: ``dkg`` (run key generation and write share/group files),
``sign`` / ``verify`` (threshold-sign a message from share files and check
signatures), ``bench`` (scaling benchmark with CSV output), ``simulate``
(run scenario files or bundled scenarios through the network simulator) and
``avss-demo`` (print a full asynchronous-sharing dealing).

Exit codes: 0 success, 2 protocol abort, 3 verification failure, 4 bad
configuration or usage, or a file that cannot be read or written; ``main``
alone maps exceptions to them.
"""

from __future__ import annotations

import argparse
import json
import os
import secrets
import sys
from pathlib import Path

from . import avss as avss_mod
from . import bench as bench_mod
from . import dkg as dkg_mod
from . import signing as signing_mod
from .errors import ConfigError, ProtocolAbort
from .groups import BACKENDS, Ed25519Group, get_backend
from .polynomials import lagrange_coefficient
from .rng import SeededRng
from .sharing import SharePacket
from .simnet import load_scenario, run_simulation

EXIT_OK = 0
EXIT_ABORT = 2
EXIT_VERIFY = 3
EXIT_CONFIG = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 means protocol abort here
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _seed(text: str) -> int:
    """A --seed value: 0..2^64-1, the range of the 8-byte CRS epoch that dkg derives from it."""
    if not text.isdecimal() or int(text) >= dkg_mod.EPOCH_LIMIT:
        raise argparse.ArgumentTypeError(f"expected an integer in 0..2^64-1, got {text!r}")
    return int(text)


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"expected a comma-separated list of integers, got {text!r}")


# ---------------------------------------------------------------------------
# dkg
# ---------------------------------------------------------------------------


def _rng(seed) -> SeededRng:
    """The given seed's stream, or one seeded from OS randomness without a seed."""
    return SeededRng(secrets.token_bytes(32) if seed is None else seed)


def _refuse_existing_key(out: Path) -> None:
    """A key directory is written once: stop if ``out`` already holds a key's files."""
    for path in [out / "group.json", *sorted(out.glob("share_*.bin"))]:
        if path.exists():
            raise ConfigError(f"refusing to overwrite {path}: choose a new --out directory")


def _cmd_dkg(args) -> int:
    backend = get_backend(args.backend)
    if args.out:
        _refuse_existing_key(Path(args.out))
    epoch = secrets.randbits(64) if args.seed is None else args.seed
    crs = dkg_mod.make_crs("cli", epoch=epoch)
    participants = dkg_mod.run_dkg(backend, args.t, args.n, _rng(args.seed), crs)
    group_pk = participants[0].group_pk
    print(f"group public key: {group_pk.encode().hex()}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        group = {
            "backend": args.backend,
            "t": args.t,
            "n": args.n,
            "crs": crs.hex(),
            "group_pk": group_pk.encode().hex(),
            "pk_shares": {
                str(i): pk.encode().hex()
                for i, pk in sorted(participants[0].peer_pk_shares.items())
            },
        }
        (out / "group.json").write_text(json.dumps(group, indent=2) + "\n")
        for p in participants:
            # private whatever the umask, and never replaces an existing file
            fd = os.open(out / f"share_{p.id}.bin", os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
            with os.fdopen(fd, "wb") as share_file:
                share_file.write(SharePacket(p.id, p.sk_share).to_bytes(backend))
        (out / "transcript.jsonl").write_text(dkg_mod.transcript_jsonl(participants))
        print(f"wrote group.json, {args.n} share files and transcript.jsonl to {out}")
    for record in participants[0].transcript:
        print(f"transcript node={record['node']} round={record['round']} hash={record['hash']}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sign / verify
# ---------------------------------------------------------------------------


def _load_group(path: str):
    try:
        data = json.loads(Path(path).read_text())
        backend = get_backend(data["backend"])
        for key in ("t", "n"):   # JSON integers: not 2.9, "2" or true
            if type(data[key]) is not int:
                raise ValueError(f"{key!r} must be an integer, got {json.dumps(data[key])}")
        t, n = data["t"], data["n"]
        try:
            dkg_mod.check_dkg_parameters(t, n, backend.order)
        except ValueError as exc:
            raise ValueError(f"'t' and 'n': {exc}")
        group_pk = backend.decode_element(bytes.fromhex(data["group_pk"]))
        pk_shares = {
            int(i): backend.decode_element(bytes.fromhex(hexval))
            for i, hexval in data["pk_shares"].items()
        }
        return backend, t, n, group_pk, pk_shares
    except (OSError, KeyError, ValueError, TypeError, AttributeError) as exc:
        raise ConfigError(f"cannot load group file {path}: {exc}")


def _require_interpolation(path: str, group_pk, pk_shares, ids, members: str) -> None:
    """Stop unless the verification shares of ``ids`` interpolate to ``group_pk``."""
    zero = group_pk.backend.scalar(0)
    if any(i not in pk_shares for i in ids) or group_pk != group_pk.backend.multi_mul(
            [lagrange_coefficient(i, ids, zero) for i in ids], [pk_shares[i] for i in ids]):
        raise ConfigError(f"group file {path}: the verification shares of {members} "
                          f"do not interpolate to group_pk")


def _cmd_sign(args) -> int:
    backend, t, _, group_pk, pk_shares = _load_group(args.group)
    coalition = sorted(set(_int_list(args.coalition)))
    if len(coalition) < t:
        raise ConfigError(f"refusing to sign: coalition of {len(coalition)} is below the "
                          f"threshold {t}")
    # t wrong in the file would give a signature that does not verify
    _require_interpolation(args.group, group_pk, pk_shares, range(1, t + 1), f"members 1..{t}")

    shares = {}
    for path in args.share:
        try:
            packet = SharePacket.from_bytes(Path(path).read_bytes(), backend)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load share file {path}: {exc}")
        expected = pk_shares.get(packet.id)
        if expected is None or packet.value * backend.generator() != expected:
            raise ConfigError(f"share file {path} (member {packet.id}) is not a share of "
                              f"the key in {args.group}")
        shares[packet.id] = packet.value
    missing = sorted(set(coalition) - set(shares))
    if missing:
        raise ConfigError(f"no share files given for coalition members {missing}")
    # a forged verification share above t passes the checks above, with a
    # share file to match, and would give a signature that does not verify
    _require_interpolation(args.group, group_pk, pk_shares, coalition,
                           f"coalition members {coalition}")

    keys = {
        i: signing_mod.KeyShare(id=i, t=t, sk_share=shares[i], group_pk=group_pk,
                                pk_shares=pk_shares)
        for i in coalition
    }
    sig = signing_mod.run_session(keys, args.message.encode("utf-8"), _rng(args.seed))
    sig_hex = sig.to_bytes(backend).hex()
    print(f"signature: {sig_hex}")
    if args.out:
        Path(args.out).write_text(sig_hex + "\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    backend, _, _, group_pk, _ = _load_group(args.group)
    try:
        sig_hex = Path(args.signature).read_text().strip()
        sig = signing_mod.Signature.from_bytes(bytes.fromhex(sig_hex), backend)
    except (OSError, ValueError) as exc:
        print(f"cannot parse signature: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    if signing_mod.verify(group_pk, args.message.encode("utf-8"), sig):
        print("signature valid")
        return EXIT_OK
    print("signature INVALID", file=sys.stderr)
    return EXIT_VERIFY


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _cmd_bench(args) -> int:
    n_list = _int_list(args.n_list)
    rows = bench_mod.run_benchmark(
        args.backend, args.t, n_list, repetitions=args.repetitions, seed=args.seed
    )
    print(bench_mod.format_table(rows))
    if args.csv:
        bench_mod.write_csv(rows, args.csv)
        print(f"wrote {args.csv}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    config = load_scenario(args.scenario)
    report = run_simulation(config)
    if args.out:
        Path(args.out).write_text(report.to_json() + "\n")
        print(f"wrote report to {args.out}")
    if args.trace_out:
        Path(args.trace_out).write_text(report.trace_hash + "\n")
    for domain_id, dom in sorted(report.core["domains"].items()):
        status = "ok" if dom["ok"] else "FAILED"
        print(f"domain {domain_id}: {status}; " + "; ".join(dom["verdicts"]))
    print(f"trace hash: {report.trace_hash}")
    if args.replay:
        expected = args.replay
        path = Path(expected)
        if path.exists():
            expected = path.read_text().strip()
        if expected != report.trace_hash:
            print("replay MISMATCH: trace hash differs from the archived one", file=sys.stderr)
            return EXIT_VERIFY
        print("replay matches the archived trace hash")
    return EXIT_OK if report.core["ok"] else EXIT_ABORT


# ---------------------------------------------------------------------------
# avss demo
# ---------------------------------------------------------------------------


def _cmd_avss_demo(args) -> int:
    backend = get_backend(args.backend)
    avss_mod.check_deal_parameters(args.t, args.n, backend.order)
    if not 0 <= args.secret < backend.order:
        raise ConfigError(f"--secret: must be in 0..{backend.order - 1}")
    rng = SeededRng(args.seed)
    secret = backend.scalar(args.secret)
    print(f"Secret={args.secret}, threshold={args.t}, nodes={args.n}")

    f = avss_mod.random_bivariate(secret, args.t, rng)
    f_prime = avss_mod.random_bivariate(backend.random_scalar(rng), args.t, rng)
    commitment = avss_mod.commitment_matrix(backend, f, f_prime)

    print("=== coefficient matrix (secret at [0][0]) ===")
    for row in f.coeffs:
        print("Row:", " ".join(str(c.value) for c in row))
    print("=== companion matrix ===")
    for row in f_prime.coeffs:
        print("Row:", " ".join(str(c.value) for c in row))
    print("=== commitment matrix ===")
    for row in commitment.entries:
        print("Row:", " ".join(e.encode().hex() for e in row))

    sigma = f.row_polynomial(args.t).evaluate(0)
    sigma_prime = f_prime.row_polynomial(args.t).evaluate(0)
    print(f"share of node {args.t}: sigma={sigma.value}, sigma'={sigma_prime.value}")
    ok = avss_mod.avss_verify_share(commitment, args.t, sigma, sigma_prime)
    print(f"Verified share: {str(ok).lower()}")
    return EXIT_OK if ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="trustmesh", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dkg", help="run distributed key generation")
    p.add_argument("--t", type=int, required=True, help="signing threshold (coalition size)")
    p.add_argument("--n", type=int, required=True, help="number of participants")
    p.add_argument("--backend", choices=BACKENDS, default=Ed25519Group.name)
    p.add_argument("--seed", type=_seed, default=None,
                   help="derive key material and CRS from this seed (default: OS randomness)")
    p.add_argument("--out", help="directory for group.json and share files")
    p.set_defaults(func=_cmd_dkg)

    p = sub.add_parser("sign", help="threshold-sign a message from share files")
    p.add_argument("--group", required=True, help="group.json written by dkg")
    p.add_argument("--share", action="append", default=[], help="share file (repeatable)")
    p.add_argument("--coalition", required=True, help="comma-separated participant ids")
    p.add_argument("--message", required=True)
    p.add_argument("--seed", type=_seed, default=None,
                   help="derive nonces from this seed and the message (default: OS randomness)")
    p.add_argument("--out", help="file to write the signature hex to")
    p.set_defaults(func=_cmd_sign)

    p = sub.add_parser("verify", help="verify a signature file")
    p.add_argument("--group", required=True)
    p.add_argument("--message", required=True)
    p.add_argument("--signature", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="scaling benchmark")
    p.add_argument("--t", type=int, default=3)
    p.add_argument("--n-list", default="4,8,16,32,64")
    p.add_argument("--repetitions", type=int, default=5)
    p.add_argument("--backend", choices=BACKENDS, default=Ed25519Group.name)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--csv", help="CSV output path")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("simulate", help="run a simulator scenario")
    p.add_argument("--scenario", required=True, help="path or bundled name")
    p.add_argument("--out", help="write the full JSON report here")
    p.add_argument("--trace-out", help="write the trace hash here")
    p.add_argument("--replay", help="archived trace hash (or file) that this run must match")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("avss-demo", help="print one asynchronous dealing end to end")
    p.add_argument("--secret", type=int, default=5)
    p.add_argument("--t", type=int, default=3)
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--backend", choices=BACKENDS, default=Ed25519Group.name)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=_cmd_avss_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ProtocolAbort as abort:
        print(f"protocol abort: {abort}", file=sys.stderr)
        return EXIT_ABORT


if __name__ == "__main__":
    sys.exit(main())
