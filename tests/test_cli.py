"""Command-line interface: exit codes, file artifacts, determinism."""

import csv
import hashlib
import json
import os
import stat

import pytest

from trustmesh.cli import main
from trustmesh.groups import get_backend
from trustmesh.sharing import SharePacket
from trustmesh.signing import Signer


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture
def keydir(tmp_path):
    out = tmp_path / "keys"
    rc = run_cli("dkg", "--t", 2, "--n", 4, "--backend", "toy", "--seed", 3, "--out", out)
    assert rc == 0
    return out


class TestDkgCommand:
    def test_writes_group_and_share_files(self, keydir):
        group = json.loads((keydir / "group.json").read_text())
        assert group["backend"] == "toy"
        assert group["t"] == 2 and group["n"] == 4
        assert set(group["pk_shares"]) == {"1", "2", "3", "4"}
        for i in range(1, 5):
            data = (keydir / f"share_{i}.bin").read_bytes()
            packet = SharePacket.from_bytes(data, get_backend("toy"))
            assert packet.id == i
        assert (keydir / "transcript.jsonl").read_text().count("\n") == 12

    def test_same_seed_identical_outputs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli("dkg", "--t", 2, "--n", 4, "--backend", "toy",
                           "--seed", 7, "--out", out) == 0
        assert (out1 / "group.json").read_bytes() == (out2 / "group.json").read_bytes()
        for i in range(1, 5):
            assert (out1 / f"share_{i}.bin").read_bytes() == (out2 / f"share_{i}.bin").read_bytes()

    # sha256 of group.json and share_1..3.bin for `dkg --t 2 --n 3 --seed 1`.
    # A proof of knowledge's challenge reaches only transcript.jsonl, so a
    # change to the challenge rule must leave these files as they are.
    KEY_FILES = {
        "toy": (
            "7dfcd243e1a7f923f46499b2908e2bd507fb77e84e8ab5c07ce85fc8c6128ea4",
            "f9ae747330aee555c8e4ec58277f20e9368ce09e0896d998c4505a3da2e9abe6",
            "af3ae59d520be75d96babc9eba4f648008bc0e3f66f473dad5b23e33c2d14cd9",
            "598cd1428ca03f178cc23c367994cd739eb3e029f63b3e7079e4df62717f2dd0",
        ),
        "ed25519": (
            "34514f4b2cae4c899de3c0b3a2232a30eb4f251540456bdd6aa8feb41b728361",
            "7e59495b08ec37b1364f0be235ca99fc6f54293ffeb82cd1e6942df00148fe0b",
            "01a17a9502de4df791c072cedcb84a54daa66d482291466f6ce3efcff75232ff",
            "5ec9fdacdc400ae16c88ff3124324f884f5133a99fbe7ee815358140fe2aab9a",
        ),
    }

    @pytest.mark.parametrize("backend", sorted(KEY_FILES))
    def test_seeded_key_files_are_pinned(self, backend, tmp_path):
        assert run_cli("dkg", "--t", 2, "--n", 3, "--backend", backend,
                       "--seed", 1, "--out", tmp_path) == 0
        names = ["group.json", "share_1.bin", "share_2.bin", "share_3.bin"]
        digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in names)
        assert digests == self.KEY_FILES[backend]

    def test_share_file_matches_group_pk_share(self, keydir):
        toy = get_backend("toy")
        group = json.loads((keydir / "group.json").read_text())
        packet = SharePacket.from_bytes((keydir / "share_2.bin").read_bytes(), toy)
        expected = toy.decode_element(bytes.fromhex(group["pk_shares"]["2"]))
        assert packet.value * toy.generator() == expected

    def test_invalid_params_exit_config(self, tmp_path):
        assert run_cli("dkg", "--t", 5, "--n", 4, "--backend", "toy") == 4
        assert run_cli("dkg", "--t", 2, "--n", 4, "--backend", "nope") == 4

    def test_no_participants_exit_config(self, capsys):
        assert run_cli("dkg", "--t", 2, "--n", 0) == 4
        assert "configuration error: threshold 2 exceeds participant count 0" in capsys.readouterr().err

    def test_unseeded_runs_draw_fresh_keys(self, tmp_path):
        # the toy group has 11 elements, too few to tell keys apart
        keys = []
        for k in range(2):
            out = tmp_path / str(k)
            assert run_cli("dkg", "--t", 2, "--n", 3, "--backend", "ed25519", "--out", out) == 0
            keys.append(json.loads((out / "group.json").read_text()))
        assert keys[0]["group_pk"] != keys[1]["group_pk"]
        assert keys[0]["crs"] != keys[1]["crs"]

    def test_share_files_are_private_under_a_permissive_umask(self, tmp_path):
        out = tmp_path / "keys"
        old = os.umask(0o022)
        try:
            assert run_cli("dkg", "--t", 2, "--n", 4, "--backend", "toy",
                           "--seed", 3, "--out", out) == 0
        finally:
            os.umask(old)
        modes = [stat.S_IMODE((out / f"share_{i}.bin").stat().st_mode) for i in range(1, 5)]
        assert modes == [0o600] * 4

    def test_second_dkg_into_a_key_directory_refused(self, keydir, capsys):
        before = {p.name: p.read_bytes() for p in keydir.iterdir()}
        capsys.readouterr()
        assert run_cli("dkg", "--t", 2, "--n", 4, "--backend", "toy",
                       "--seed", 4, "--out", keydir) == 4
        assert f"refusing to overwrite {keydir / 'group.json'}" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in keydir.iterdir()} == before

    def test_stray_share_file_refuses_the_directory(self, tmp_path, capsys):
        out = tmp_path / "keys"
        out.mkdir()
        (out / "share_7.bin").write_bytes(b"kept")
        assert run_cli("dkg", "--t", 2, "--n", 4, "--backend", "toy",
                       "--seed", 3, "--out", out) == 4
        assert f"refusing to overwrite {out / 'share_7.bin'}" in capsys.readouterr().err
        assert [(p.name, p.read_bytes()) for p in out.iterdir()] == [("share_7.bin", b"kept")]


class TestSignVerifyCommands:
    def test_sign_and_verify_round_trip(self, keydir, tmp_path):
        sig = tmp_path / "sig.txt"
        rc = run_cli(
            "sign", "--group", keydir / "group.json",
            "--share", keydir / "share_1.bin", "--share", keydir / "share_3.bin",
            "--coalition", "1,3", "--message", "pay alice 5", "--seed", 2, "--out", sig,
        )
        assert rc == 0
        assert run_cli("verify", "--group", keydir / "group.json",
                       "--message", "pay alice 5", "--signature", sig) == 0
        # deterministic under --seed
        sig2 = tmp_path / "sig2.txt"
        run_cli("sign", "--group", keydir / "group.json",
                "--share", keydir / "share_1.bin", "--share", keydir / "share_3.bin",
                "--coalition", "1,3", "--message", "pay alice 5", "--seed", 2, "--out", sig2)
        assert sig.read_text() == sig2.read_text()

    def test_wrong_message_fails_verification(self, keydir, tmp_path):
        sig = tmp_path / "sig.txt"
        run_cli("sign", "--group", keydir / "group.json",
                "--share", keydir / "share_1.bin", "--share", keydir / "share_2.bin",
                "--coalition", "1,2", "--message", "original", "--seed", 2, "--out", sig)
        assert run_cli("verify", "--group", keydir / "group.json",
                       "--message", "tampered", "--signature", sig) == 3

    def test_tampered_signature_file_fails(self, keydir, tmp_path):
        sig = tmp_path / "sig.txt"
        run_cli("sign", "--group", keydir / "group.json",
                "--share", keydir / "share_1.bin", "--share", keydir / "share_2.bin",
                "--coalition", "1,2", "--message", "m", "--seed", 2, "--out", sig)
        raw = bytearray(bytes.fromhex(sig.read_text().strip()))
        raw[-1] ^= 1
        sig.write_text(raw.hex() + "\n")
        assert run_cli("verify", "--group", keydir / "group.json",
                       "--message", "m", "--signature", sig) == 3

    def test_undersized_coalition_refused(self, keydir):
        rc = run_cli("sign", "--group", keydir / "group.json",
                     "--share", keydir / "share_1.bin",
                     "--coalition", "1", "--message", "m")
        assert rc == 4

    def test_missing_share_file_for_member(self, keydir):
        rc = run_cli("sign", "--group", keydir / "group.json",
                     "--share", keydir / "share_1.bin",
                     "--coalition", "1,2", "--message", "m")
        assert rc == 4

    @pytest.fixture
    def edkeys(self, tmp_path):
        # the toy group has 11 nonce commitments, too few to tell nonces apart
        out = tmp_path / "ed"
        assert run_cli("dkg", "--t", 2, "--n", 3, "--backend", "ed25519",
                       "--seed", 4, "--out", out) == 0
        return out

    @staticmethod
    def _sign(keys, sig, message, *seed):
        assert run_cli("sign", "--group", keys / "group.json",
                       "--share", keys / "share_1.bin", "--share", keys / "share_3.bin",
                       "--coalition", "1,3", "--message", message, *seed, "--out", sig) == 0
        return bytes.fromhex(sig.read_text().strip())

    @pytest.fixture
    def published(self, monkeypatch):
        """Encodings of every nonce commitment pair the signers publish."""
        seen = []
        round1 = Signer.round1

        def recording_round1(signer, rng):
            nonces = round1(signer, rng)
            seen.append(nonces.pair[0].encode() + nonces.pair[1].encode())
            return nonces

        monkeypatch.setattr(Signer, "round1", recording_round1)
        return seen

    def test_one_seed_never_reuses_a_nonce_across_messages(self, edkeys, tmp_path, published):
        first = self._sign(edkeys, tmp_path / "a.txt", "pay alice 5", "--seed", 2)
        second = self._sign(edkeys, tmp_path / "b.txt", "pay alice 6", "--seed", 2)
        assert first[:32] != second[:32]
        # R differs even under a reused nonce (the binding values change), so
        # also check the nonce commitments themselves
        assert len(published) == 4 and len(set(published)) == 4

    def test_unseeded_runs_use_fresh_nonces(self, edkeys, tmp_path, published):
        sigs = [self._sign(edkeys, tmp_path / f"{k}.txt", "pay alice 5") for k in range(2)]
        assert sigs[0] != sigs[1]
        assert len(published) == 4 and len(set(published)) == 4
        for k in range(2):
            assert run_cli("verify", "--group", edkeys / "group.json", "--message",
                           "pay alice 5", "--signature", tmp_path / f"{k}.txt") == 0

    def test_share_from_another_key_refused_before_any_nonce(self, keydir, tmp_path, capsys,
                                                            published):
        other = tmp_path / "other"
        assert run_cli("dkg", "--t", 2, "--n", 4, "--backend", "toy",
                       "--seed", 4, "--out", other) == 0
        foreign = other / "share_2.bin"
        assert foreign.read_bytes() != (keydir / "share_2.bin").read_bytes()
        capsys.readouterr()
        assert run_cli("sign", "--group", keydir / "group.json",
                       "--share", keydir / "share_1.bin", "--share", foreign,
                       "--coalition", "1,2", "--message", "m", "--seed", 2) == 4
        assert f"share file {foreign} (member 2) is not a share" in capsys.readouterr().err
        assert published == []

    def test_repeated_coalition_id_counts_once(self, tmp_path, capsys, published):
        # 1,1,2 names two members of a t=3 key: refused before any nonce is drawn
        keys = tmp_path / "t3"
        assert run_cli("dkg", "--t", 3, "--n", 4, "--backend", "toy",
                       "--seed", 3, "--out", keys) == 0
        capsys.readouterr()
        assert run_cli("sign", "--group", keys / "group.json",
                       "--share", keys / "share_1.bin", "--share", keys / "share_2.bin",
                       "--coalition", "1,1,2", "--message", "m", "--seed", 2) == 4
        assert "refusing to sign: coalition of 2 is below the threshold 3" in capsys.readouterr().err
        assert published == []

    def test_share_for_a_member_outside_the_group_refused(self, keydir, tmp_path, capsys,
                                                          published):
        toy = get_backend("toy")
        stray = tmp_path / "share_9.bin"
        stray.write_bytes(SharePacket(9, toy.scalar(3)).to_bytes(toy))
        assert run_cli("sign", "--group", keydir / "group.json",
                       "--share", keydir / "share_1.bin", "--share", stray,
                       "--coalition", "1,9", "--message", "m", "--seed", 2) == 4
        assert f"share file {stray} (member 9) is not a share" in capsys.readouterr().err
        assert published == []

    def test_lowered_threshold_in_the_group_file_refused_before_any_nonce(
            self, tmp_path, capsys, published):
        # a 3-of-4 key whose group.json says t=2: two shares would make a
        # signature that does not verify
        keys = tmp_path / "ed"
        assert run_cli("dkg", "--t", 3, "--n", 4, "--backend", "ed25519",
                       "--seed", 1, "--out", keys) == 0
        group = keys / "group.json"
        group.write_text(json.dumps(dict(json.loads(group.read_text()), t=2)))
        capsys.readouterr()
        assert run_cli("sign", "--group", group,
                       "--share", keys / "share_1.bin", "--share", keys / "share_2.bin",
                       "--coalition", "1,2", "--message", "m", "--seed", 2) == 4
        err = capsys.readouterr().err
        assert f"group file {group}: the verification shares of members 1..2" in err
        assert published == []

    def test_group_file_missing_a_low_verification_share_refused(self, keydir, tmp_path,
                                                                 capsys, published):
        group = json.loads((keydir / "group.json").read_text())
        del group["pk_shares"]["1"]
        bad = tmp_path / "group.json"
        bad.write_text(json.dumps(group))
        assert run_cli("sign", "--group", bad,
                       "--share", keydir / "share_2.bin", "--share", keydir / "share_3.bin",
                       "--coalition", "2,3", "--message", "m", "--seed", 2) == 4
        assert f"group file {bad}: the verification shares" in capsys.readouterr().err
        assert published == []

    @pytest.mark.parametrize("backend", ["toy", "ed25519"])
    def test_forged_verification_share_above_t_refused_before_any_nonce(
            self, backend, tmp_path, capsys, published):
        # member 4's verification share and share file agree with each other
        # but not with the key: members 1..t still interpolate to group_pk
        keys = tmp_path / "k"
        assert run_cli("dkg", "--t", 2, "--n", 4, "--backend", backend,
                       "--seed", 1, "--out", keys) == 0
        group_backend = get_backend(backend)
        group = keys / "group.json"
        data = json.loads(group.read_text())
        data["pk_shares"]["4"] = (group_backend.scalar(7) * group_backend.generator()).encode().hex()
        group.write_text(json.dumps(data))
        forged = keys / "share_4.bin"
        forged.write_bytes(SharePacket(4, group_backend.scalar(7)).to_bytes(group_backend))
        capsys.readouterr()
        assert run_cli("sign", "--group", group,
                       "--share", keys / "share_1.bin", "--share", forged,
                       "--coalition", "1,4", "--message", "m", "--seed", 1) == 4
        err = capsys.readouterr().err
        assert f"group file {group}: the verification shares of coalition members [1, 4]" in err
        assert published == []

    @pytest.mark.parametrize("keys_fixture", ["keydir", "edkeys"], ids=["toy", "ed25519"])
    def test_share_file_with_a_blinding_scalar_refused(self, keys_fixture, request, tmp_path,
                                                       capsys, published):
        # dkg writes id || scalar; the Pedersen length (one more scalar) is no key share
        keys = request.getfixturevalue(keys_fixture)
        padded = tmp_path / "share_1.bin"
        data = (keys / "share_1.bin").read_bytes()
        padded.write_bytes(data + bytes(len(data) - 4))
        capsys.readouterr()
        assert run_cli("sign", "--group", keys / "group.json",
                       "--share", padded, "--share", keys / "share_3.bin",
                       "--coalition", "1,3", "--message", "m", "--seed", 2) == 4
        assert f"cannot load share file {padded}: " in capsys.readouterr().err
        assert published == []

    def test_truncated_share_file_refused(self, edkeys, tmp_path, capsys, published):
        cut = tmp_path / "share_1.bin"
        cut.write_bytes((edkeys / "share_1.bin").read_bytes()[:-1])
        capsys.readouterr()
        assert run_cli("sign", "--group", edkeys / "group.json",
                       "--share", cut, "--share", edkeys / "share_3.bin",
                       "--coalition", "1,3", "--message", "m", "--seed", 2) == 4
        assert f"cannot load share file {cut}: " in capsys.readouterr().err
        assert published == []

    @pytest.mark.parametrize("text", ["not hex at all", "ab" * 63], ids=["non-hex", "short"])
    def test_unparsable_signature_file(self, edkeys, tmp_path, capsys, text):
        sig = tmp_path / "sig.txt"
        sig.write_text(text + "\n")
        capsys.readouterr()
        assert run_cli("verify", "--group", edkeys / "group.json",
                       "--message", "m", "--signature", sig) == 3
        assert "cannot parse signature: " in capsys.readouterr().err

    def test_ed25519_round_trip(self, tmp_path):
        out = tmp_path / "ed"
        assert run_cli("dkg", "--t", 2, "--n", 3, "--backend", "ed25519",
                       "--seed", 5, "--out", out) == 0
        sig = tmp_path / "sig.txt"
        assert run_cli("sign", "--group", out / "group.json",
                       "--share", out / "share_2.bin", "--share", out / "share_3.bin",
                       "--coalition", "2,3", "--message", "curve", "--out", sig) == 0
        assert run_cli("verify", "--group", out / "group.json",
                       "--message", "curve", "--signature", sig) == 0


class TestBenchCommand:
    def test_csv_schema_and_monotone_round2(self, tmp_path):
        csv_path = tmp_path / "bench.csv"
        rc = run_cli("bench", "--t", 2, "--n-list", "4,8,12", "--repetitions", 2,
                     "--backend", "ed25519", "--csv", csv_path)
        assert rc == 0
        with open(csv_path) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["n"] for r in rows] == ["4", "8", "12"]
        assert set(rows[0]) == {"t", "n", "round1_ms", "round2_ms", "sign_ms"}
        times = [float(r["round2_ms"]) for r in rows]
        assert times == sorted(times)

    def test_bad_n_list_is_config_error(self):
        assert run_cli("bench", "--n-list", "4,banana") == 4

    def test_zero_repetitions_is_config_error(self, capsys):
        assert run_cli("bench", "--n-list", "4", "--repetitions", 0, "--backend", "toy") == 4
        assert "repetitions must be >= 1" in capsys.readouterr().err

    def test_no_participants_is_config_error(self, capsys):
        assert run_cli("bench", "--n-list", "0") == 4
        assert "configuration error: " in capsys.readouterr().err


class TestSimulateCommand:
    def test_bundled_scenario_ok(self, tmp_path):
        report_path = tmp_path / "report.json"
        rc = run_cli("simulate", "--scenario", "three-domains", "--out", report_path)
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert set(report["domains"]) == {"A", "B", "C"}
        assert report["ok"]

    def test_corrupt_dealer_scenario_verdict(self, tmp_path):
        report_path = tmp_path / "report.json"
        rc = run_cli("simulate", "--scenario", "corrupt-dealer", "--out", report_path)
        assert rc == 0
        report = json.loads(report_path.read_text())
        verdicts = report["domains"]["vault"]["complaint_verdicts"]
        assert set(verdicts.values()) == {"dealer-faulty"}

    def test_replay_matches_archived_trace(self, tmp_path):
        trace = tmp_path / "trace.txt"
        assert run_cli("simulate", "--scenario", "avss-dealer-crash",
                       "--trace-out", trace) == 0
        assert run_cli("simulate", "--scenario", "avss-dealer-crash",
                       "--replay", trace) == 0

    def test_replay_mismatch_fails(self):
        assert run_cli("simulate", "--scenario", "avss-dealer-crash",
                       "--replay", "0" * 64) == 3

    def test_scenario_file_and_schema_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "seed": 1, "nodes": 3,
            "domains": [{"id": "x", "members": [1, 9], "threshold": 2}],
        }))
        assert run_cli("simulate", "--scenario", bad) == 4
        assert run_cli("simulate", "--scenario", "missing-name") == 4

    @pytest.mark.parametrize("args", [["--scenario", "{tmp}"],
                                      ["--scenario", "three-domains", "--out", "{tmp}/missing/r.json"],
                                      ["--scenario", "{tmp}/truncated.json"]],
                             ids=["scenario-is-a-directory", "out-in-a-missing-directory",
                                  "scenario-is-invalid-json"])
    def test_file_error_is_config_error(self, tmp_path, capsys, args):
        (tmp_path / "truncated.json").write_text('{"seed": 1,')
        assert run_cli("simulate", *(a.format(tmp=tmp_path) for a in args)) == 4
        assert "configuration error: " in capsys.readouterr().err

    def test_custom_scenario_file(self, tmp_path):
        scenario = tmp_path / "custom.json"
        scenario.write_text(json.dumps({
            "seed": 12, "nodes": 3, "backend": "toy", "message": "hi",
            "domains": [{"id": "only", "members": [1, 2, 3], "threshold": 2}],
        }))
        assert run_cli("simulate", "--scenario", scenario) == 0


class TestAvssDemoCommand:
    def test_demo_output(self, capsys):
        assert run_cli("avss-demo", "--secret", 5, "--t", 3, "--n", 5,
                       "--backend", "toy", "--seed", 2) == 0
        out = capsys.readouterr().out
        assert "Secret=5, threshold=3, nodes=5" in out
        assert "coefficient matrix" in out
        assert "commitment matrix" in out
        assert "Verified share: true" in out

    @pytest.mark.parametrize("t, n", [(6, 5), (3, 50), (11, 11)])
    def test_threshold_and_node_count_checked(self, t, n, capsys):
        # the toy group's order is 11: node ids 1..n must be distinct mod 11
        assert run_cli("avss-demo", "--backend", "toy", "--t", t, "--n", n) == 4
        assert "configuration error: " in capsys.readouterr().err

    def test_demo_on_curve(self, capsys):
        assert run_cli("avss-demo", "--backend", "ed25519", "--seed", 4) == 0
        assert "Verified share: true" in capsys.readouterr().out

    @pytest.mark.parametrize("secret", [11, -1])
    def test_secret_outside_the_field_is_refused(self, secret, capsys):
        # the toy group's order is 11: reducing would deal 0 or 10 under another name
        assert run_cli("avss-demo", "--backend", "toy", "--secret", secret) == 4
        assert "configuration error: --secret: must be in 0..10" in capsys.readouterr().err

    def test_largest_secret_is_dealt_as_given(self, capsys):
        assert run_cli("avss-demo", "--backend", "toy", "--secret", 10) == 0
        out = capsys.readouterr().out
        assert "Secret=10, threshold=3, nodes=5" in out
        assert out.split("Row: ")[1].split()[0] == "10"


class TestSeedRange:
    @pytest.mark.parametrize("args", [
        ("dkg", "--t", 2, "--n", 3, "--backend", "toy", "--seed", -1),
        ("dkg", "--t", 2, "--n", 3, "--backend", "toy", "--seed", 2**64),
        ("bench", "--n-list", "4", "--repetitions", 1, "--backend", "toy", "--seed", -1),
        ("avss-demo", "--backend", "toy", "--seed", -1),
    ])
    def test_out_of_range_seed_is_config_error(self, args):
        assert run_cli(*args) == 4

    def test_negative_sign_seed_is_config_error(self, keydir):
        assert run_cli("sign", "--group", keydir / "group.json", "--share", keydir / "share_1.bin",
                       "--share", keydir / "share_2.bin", "--coalition", "1,2",
                       "--message", "m", "--seed", -1) == 4

    def test_largest_dkg_seed_runs(self):
        assert run_cli("dkg", "--t", 2, "--n", 3, "--backend", "toy", "--seed", 2**64 - 1) == 0

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_scenario_seed_is_config_error(self, tmp_path, seed):
        scenario = tmp_path / "seed.json"
        scenario.write_text(json.dumps({
            "seed": seed, "nodes": 3, "backend": "toy",
            "domains": [{"id": "only", "members": [1, 2, 3], "threshold": 2}],
        }))
        assert run_cli("simulate", "--scenario", scenario) == 4


class TestLargeRun:
    def test_dkg_completes_for_255_participants(self, tmp_path):
        # the largest supported network size; exercises the slow path
        out = tmp_path / "big"
        rc = run_cli("dkg", "--t", 3, "--n", 255, "--backend", "ed25519",
                     "--seed", 1, "--out", out)
        assert rc == 0
        assert len(list(out.glob("share_*.bin"))) == 255
        group = json.loads((out / "group.json").read_text())
        assert len(group["pk_shares"]) == 255


class TestMalformedInputFiles:
    """Malformed scenario and group files are configuration errors (exit 4)."""

    GOOD_DOMAIN = {"id": "d", "members": [1, 2, 3], "threshold": 2}

    @pytest.mark.parametrize("patch, section", [
        ({"adversaries": [[1]]}, "adversaries[0]"),
        ({"delay": 5}, "delay"),
        ({"gossip": []}, "gossip"),
        ({"domains": [dict(GOOD_DOMAIN, members=5)]}, "domains[0].members"),
        ({"domains": [dict(GOOD_DOMAIN, threshold=None)]}, "domains[0].threshold"),
        ({"delay": {"ticks": [2]}}, "delay.ticks"),
        ({"domains": "d"}, "domains"),
    ], ids=["adversary-list", "delay-int", "gossip-list", "members-int", "threshold-null",
            "delay-ticks-list", "domains-string"])
    def test_malformed_scenario_section(self, tmp_path, capsys, patch, section):
        scenario = tmp_path / "bad.json"
        scenario.write_text(json.dumps({"seed": 1, "nodes": 3, "domains": [self.GOOD_DOMAIN],
                                        **patch}))
        assert run_cli("simulate", "--scenario", scenario) == 4
        assert f"configuration error: {section}:" in capsys.readouterr().err

    @pytest.mark.parametrize("patch", [{"timeout_ticks": 0}, {"timeout_ticks": -5}, {"max_ticks": 0}],
                             ids=["timeout-zero", "timeout-negative", "max-ticks-zero"])
    def test_tick_limit_below_one(self, tmp_path, capsys, patch):
        scenario = tmp_path / "bad.json"
        scenario.write_text(json.dumps({"seed": 1, "nodes": 3, "domains": [self.GOOD_DOMAIN],
                                        **patch}))
        assert run_cli("simulate", "--scenario", scenario) == 4
        field = next(iter(patch))
        assert f"configuration error: {field}: must be >= 1" in capsys.readouterr().err

    def test_top_level_list_scenario(self, tmp_path, capsys):
        scenario = tmp_path / "bad.json"
        scenario.write_text(json.dumps([{"seed": 1, "nodes": 3, "domains": [self.GOOD_DOMAIN]}]))
        assert run_cli("simulate", "--scenario", scenario) == 4
        assert "configuration error: scenario:" in capsys.readouterr().err

    @pytest.mark.parametrize("mangle, named", [
        (lambda group: dict(group, pk_shares=[]), ""),
        (lambda group: [group], ""),
        (lambda group: dict(group, t=2.9), "'t' must be an integer, got 2.9"),
        (lambda group: dict(group, t="2"), "'t' must be an integer, got \"2\""),
        (lambda group: dict(group, t=True), "'t' must be an integer, got true"),
        (lambda group: dict(group, n=4.0), "'n' must be an integer, got 4.0"),
        (lambda group: dict(group, t=1), "'t' and 'n': threshold must be >= 2"),
        (lambda group: dict(group, t=5), "'t' and 'n': threshold 5 exceeds participant count 4"),
    ], ids=["pk-shares-list", "top-level-list", "t-float", "t-string", "t-bool", "n-float",
            "t-below-2", "t-above-n"])
    def test_malformed_group_file(self, keydir, tmp_path, capsys, mangle, named):
        group = json.loads((keydir / "group.json").read_text())
        bad = tmp_path / "group.json"
        bad.write_text(json.dumps(mangle(group)))
        sig = tmp_path / "sig.txt"
        assert run_cli("sign", "--group", keydir / "group.json",
                       "--share", keydir / "share_1.bin", "--share", keydir / "share_2.bin",
                       "--coalition", "1,2", "--message", "m", "--seed", 2, "--out", sig) == 0
        assert run_cli("sign", "--group", bad,
                       "--share", keydir / "share_1.bin", "--share", keydir / "share_2.bin",
                       "--coalition", "1,2", "--message", "m", "--seed", 2) == 4
        assert f"cannot load group file {bad}: {named}" in capsys.readouterr().err
        assert run_cli("verify", "--group", bad, "--message", "m", "--signature", sig) == 4
