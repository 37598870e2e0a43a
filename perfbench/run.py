"""trustmesh benchmark: three workloads, host-normalised timings, traced layers.

One workload per run, as the command in BENCHMARK.json runs it:

    python3 perfbench/run.py --workload sign-stream --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps the
program's public API (see tracer.py) and reports the per-layer metrics.  The
last line of standard output is the JSON result; the lines above it give
every metric by name with its unit, sample count and raw value.

    python3 perfbench/run.py --all [--seconds N] [--seed N]   # every workload, both modes
    python3 perfbench/run.py --self-test                      # a few ops each, checks the output

Host normalisation: between ops the run times a reference kernel (a
2,000-step 255-bit modular-squaring loop that uses nothing from trustmesh),
and every timing is scaled by REF_KERNEL_S / (the kernel's median in the
same run).  A normalised second is a second on a host where the kernel takes
REF_KERNEL_S, which is about what it takes on the 2-vCPU host the baseline
was recorded on.  Raw seconds are printed beside each normalised one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

REF_KERNEL_S = 1.0e-3
SETUP_REPEATS = 5
SETUP_KERNEL_REPS = 20
TICK_S = 0.1        # kernel sampling interval inside an op
TICK_REPS = 3
P25519 = 2**255 - 19
KERNEL_X0 = 0x5EED_0F_7E57_BE9C_0DE5_1234_5678_9ABC_DEF0_1357_9BDF_2468_ACE0_F00D_CAFE


def reference_kernel(steps: int = 2000) -> int:
    x = KERNEL_X0
    for _ in range(steps):
        x = x * x % P25519
    return x


KERNEL_RESULT = reference_kernel()


class Host:
    """Reference-kernel samples: a burst between ops, and a few runs every
    TICK_S during an op (from an interval timer, so ops seconds long still
    see the host's speed drift inside them)."""

    def __init__(self, reps: int):
        self.reps = reps
        self.samples: list[float] = []
        self.last = self.burst(reps)
        self._ticks: list[float] = []
        self._paused = 0.0

    def burst(self, reps: int) -> float:
        """Time ``reps`` kernel runs; returns their median."""
        burst = []
        for _ in range(reps):
            start = time.perf_counter()
            result = reference_kernel()
            burst.append(time.perf_counter() - start)
            if result != KERNEL_RESULT:
                raise RuntimeError("reference kernel returned a wrong result")
        self.samples.extend(burst)
        return statistics.median(burst)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self._ticks.append(self.burst(TICK_REPS))
        self._paused += time.perf_counter() - start

    def timed(self, fn, *args, reps: int | None = None):
        """Run ``fn(*args)``.  Returns its result, its seconds (kernel time
        taken inside it excluded) and the kernel's seconds over that interval:
        the mean of the burst medians before, during and after it."""
        self._ticks, self._paused = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        start = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        before, self.last = self.last, self.burst(reps or self.reps)
        return out, elapsed - self._paused, statistics.mean([before, *self._ticks, self.last])

    @property
    def median(self) -> float:
        return statistics.median(self.samples)


def timed_plain(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start, None


def log(line: str) -> None:
    print(line, flush=True)


def metric_line(name: str, value: float, unit: str, samples: int, raw: str = "", key: str = "") -> None:
    label = f"{name} [{key}]" if key else name
    log(f"  {label:<34} {value:>14.6g} {unit:<14} n={samples:<6} {raw}")


def setup(workload, seed: int) -> None:
    """The workload's set-up, on the trustmesh sources of this checkout only."""
    if not (SRC / "trustmesh").is_dir():
        sys.exit(f"perfbench: no trustmesh sources at {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    workload.setup(seed)
    mod = sys.modules["trustmesh"].__file__
    if not Path(mod).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: imported trustmesh from {mod}, not from {SRC}")


def timed_setup(workload, seed: int, repeats: int, host: Host) -> tuple[list[float], list[float]]:
    """Raw set-up seconds and the same in reference-kernel units."""
    host.last = host.burst(SETUP_KERNEL_REPS)
    raw, units = [], []
    for _ in range(repeats):
        _, elapsed, kernel = host.timed(setup, workload, seed, reps=SETUP_KERNEL_REPS)
        raw.append(elapsed)
        units.append(elapsed / kernel)
    return raw, units


def run_op(workload, i: int, problems: list[str], timed=timed_plain):
    """One op plus its check.  Returns (output, seconds, kernel seconds);
    the output is None when the op raised or failed its check."""
    try:
        out, elapsed, kernel = timed(workload.op, i)
    except Exception:
        problems.append(f"op {i} raised:\n{traceback.format_exc()}")
        return None, None, None
    found = workload.check(i, out)
    problems.extend(f"op {i}: {p}" for p in found)
    return (None if found else out), elapsed, kernel


def end_to_end(workload, seed: int, seconds: float) -> dict:
    host = Host(workload.kernel_reps)
    setup_raw, setup_units = timed_setup(workload, seed, SETUP_REPEATS, host)
    problems: list[str] = []
    times, units, ticks = [], [], []
    attempted = 0
    deadline = time.perf_counter() + seconds
    while attempted == 0 or time.perf_counter() < deadline:
        out, elapsed, kernel = run_op(workload, attempted, problems, host.timed)
        attempted += 1
        if out is not None:
            times.append(elapsed)
            units.append(elapsed / kernel)
            ticks.append(workload.ticks(out))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = attempted - len(times)
    for p in problems:
        print(p, file=sys.stderr)
    if not times:
        sys.exit(f"perfbench: {workload.name} completed no op out of {attempted}")

    n = len(times)
    p50, p50_norm = statistics.median(times), statistics.median(units) * REF_KERNEL_S
    setup_med, setup_norm = statistics.median(setup_raw), statistics.median(setup_units) * REF_KERNEL_S
    rate, raw_rate = n / (sum(units) * REF_KERNEL_S), n / sum(times)
    kernel = f"kernel median {host.median * 1e3:.4f} ms (n={len(host.samples)})"
    log(f"{workload.name}: seed {seed}, {attempted} ops attempted, {failed} failed")
    log(f"  timings are normalised to a host whose kernel takes {REF_KERNEL_S * 1e3:g} ms; "
        f"raw values and the run's {kernel} follow each")
    kernel = f"kernel {host.median * 1e3:.4f} ms"
    metric_line("setup_s", setup_norm, "s (norm.)", len(setup_raw), f"raw {setup_med:.6f} s, {kernel}")
    metric_line("error_rate", failed / attempted, "ratio", attempted)
    metric_line("peak_rss_mb", rss_mb, "MB", 1)
    if workload.name == "dkg-ceremony":
        metric_line("dkg_s", p50_norm, "s (norm.)", n, f"raw {p50:.6f} s, {kernel}", "op_ms_p50")
        metric_line("ops_per_s", rate, "1/s (norm.)", n, f"raw {raw_rate:.6f} 1/s, {kernel}")
    elif workload.name == "sign-stream":
        p90 = statistics.quantiles(times, n=10)[8] if n >= 2 else p50
        p90_norm = (statistics.quantiles(units, n=10)[8] if n >= 2 else units[0]) * REF_KERNEL_S
        metric_line("sign_ms_p50", p50_norm * 1e3, "ms (norm.)", n,
                    f"raw {p50 * 1e3:.4f} ms, {kernel}", "op_ms_p50")
        metric_line("sign_ms_p90", p90_norm * 1e3, "ms (norm.)", n, f"raw {p90 * 1e3:.4f} ms, {kernel}")
        metric_line("sign_per_s", rate, "1/s (norm.)", n, f"raw {raw_rate:.4f} 1/s, {kernel}", "ops_per_s")
    else:
        metric_line("sim_s", p50_norm, "s (norm.)", n, f"raw {p50:.6f} s, {kernel}", "op_ms_p50")
        metric_line("sim_ticks", statistics.median(ticks), "ticks", n)
        metric_line("ops_per_s", rate, "1/s (norm.)", n, f"raw {raw_rate:.6f} 1/s, {kernel}")

    metrics = {
        "setup_s": {"value": setup_norm, "unit": "s"},
        "op_ms_p50": {"value": p50_norm * 1e3, "unit": "ms"},
        "ops_per_s": {"value": rate, "unit": "1/s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


# -- traced run ---------------------------------------------------------------

# Wrappers each workload calls on the seed code.  A zero here means a rename
# or re-import has silently detached a metric from the code it measures, so
# the traced run fails.
EXPECTED_CALLS = {
    "dkg-ceremony": (
        "groups.mul_var", "groups.mul_fixed", "groups.mul_small", "groups.add", "groups.encode",
        "groups.hash", "polynomials.evaluate", "sharing.share_commitment", "dkg.pok_verify",
        "dkg.round1", "dkg.round2",
    ),
    "sign-stream": (
        "groups.mul_var", "groups.mul_fixed", "groups.add", "groups.decode", "groups.encode",
        "groups.hash", "polynomials.lagrange", "signing.binding_values", "signing.verifier_build",
        "signing.partial_verify", "signing.round1", "signing.partial", "signing.aggregate",
        "signing.verify",
    ),
    "sim-mesh": (
        "groups.mul_var", "groups.mul_fixed", "groups.mul_small", "groups.add", "groups.decode",
        "groups.encode", "groups.hash", "polynomials.interpolate", "sharing.share_commitment",
        "sharing.verify", "avss.point_check", "dkg.pok_verify", "dkg.round1", "dkg.round2",
        "signing.binding_values", "signing.verifier_build", "signing.partial_verify",
        "signing.round1", "signing.partial", "signing.aggregate", "signing.verify",
        "gossip.receive", "gossip.round", "simnet.run", "simnet.messages",
    ),
}

# Per-op counts predicted from the protocol sizes on the seed code.  A
# mismatch is printed, not fatal: an optimisation may remove calls on purpose.
PREDICTED = {
    "dkg-ceremony": {"dkg.pok_verify": 32 * 32, "sharing.share_commitment": 2 * 32 * 32,
                     "groups.decode": 0},
    "sign-stream": {"signing.binding_values": 2 * 3 + 1, "groups.decode": 2 * 3 + 1,
                    "groups.mul_var": 16},
}


def per_layer_metrics(totals: Counter, times: Counter, ops: int, ticks: list[int], overhead: float) -> dict:
    op_time = times["op"]

    def count(key):
        return totals[key] / ops

    def share(key):
        return times[key] / op_time

    m = {}
    for key in ("groups.mul_var", "groups.mul_fixed", "groups.mul_small"):
        m[f"{key}.count"] = (count(key), "calls/op")
        m[f"{key}.share"] = (share(key), "share")
    m["groups.add.count"] = (count("groups.add"), "calls/op")
    m["groups.decode.count"] = (count("groups.decode"), "calls/op")
    m["groups.decode.share"] = (share("groups.decode"), "share")
    m["groups.encode.count"] = (count("groups.encode"), "calls/op")
    m["groups.hash.count"] = (count("groups.hash"), "calls/op")
    m["groups.self_share"] = (share("groups.self"), "share")
    m["polynomials.interpolate.count"] = (count("polynomials.interpolate"), "calls/op")
    m["polynomials.self_share"] = (share("polynomials.self"), "share")
    m["sharing.share_commitment.count"] = (count("sharing.share_commitment"), "calls/op")
    m["sharing.verify.count"] = (count("sharing.verify"), "calls/op")
    m["sharing.share"] = (share("sharing"), "share")
    m["avss.point_check.count"] = (count("avss.point_check"), "calls/op")
    m["avss.share"] = (share("avss"), "share")
    m["dkg.pok_verify.count"] = (count("dkg.pok_verify"), "calls/op")
    m["dkg.round1.share"] = (share("dkg.round1"), "share")
    m["dkg.round2.share"] = (share("dkg.round2"), "share")
    for key in ("binding_values", "verifier_build", "partial_verify"):
        m[f"signing.{key}.count"] = (count(f"signing.{key}"), "calls/op")
    for key in ("round1", "partial", "aggregate", "verify"):
        m[f"signing.{key}.share"] = (share(f"signing.{key}"), "share")
    m["gossip.receive.count"] = (count("gossip.receive"), "calls/op")
    received = totals["gossip.received"]
    m["gossip.useful_ratio"] = (totals["gossip.merged"] / received if received else 0.0, "ratio")
    m["gossip.rounds"] = (count("gossip.round"), "calls/op")
    m["gossip.share"] = (share("gossip"), "share")
    m["simnet.messages"] = (count("simnet.messages"), "msgs/op")
    m["simnet.bytes"] = (count("simnet.bytes"), "bytes/op")
    m["simnet.self_share"] = (share("simnet.self"), "share")
    m["simnet.final_tick"] = (float(statistics.median(ticks)), "ticks")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    m["trace.unattributed_share"] = ((op_time - times["op.children"]) / op_time, "share")
    return m


def traced(workload, seed: int, seconds: float) -> dict:
    from tracer import Tracer

    setup(workload, seed)
    tracer = Tracer()
    problems: list[str] = []
    plain_s = traced_s = 0.0
    ticks, repeat_counts = [], []
    attempted = failed = i = 0
    deadline = time.perf_counter() + seconds
    while i < 2 or time.perf_counter() < deadline:
        plain, elapsed, _ = run_op(workload, i, problems)
        attempted += 1
        failed += plain is None
        for _ in range(2 if i == 0 else 1):   # op 0 twice: its counts must repeat exactly
            attempted += 1
            tracer.install(workload.tm)
            try:
                out, t_elapsed = tracer.run_op(i, workload.op, i)
            except Exception:
                problems.append(f"traced op {i} raised:\n{traceback.format_exc()}")
                failed += 1
                continue
            finally:
                tracer.uninstall()
            found = workload.check(i, out)
            if plain is not None and workload.digest(out) != workload.digest(plain):
                found.append("traced output differs from the untraced output")
            problems.extend(f"traced op {i}: {p}" for p in found)
            failed += bool(found)
            if plain is not None and not found:
                plain_s += elapsed
                traced_s += t_elapsed
            ticks.append(workload.ticks(out))
            if i == 0:
                repeat_counts.append(tracer.op_counts[-1])
        i += 1
    ops = len(tracer.op_counts)
    if ops == 0:
        sys.exit(f"perfbench: {workload.name} completed no traced op")

    guard = []
    if len(repeat_counts) != 2 or repeat_counts[0] != repeat_counts[1]:
        a, b = (repeat_counts + [Counter(), Counter()])[:2]
        guard.append(f"two traced repeats of op 0 gave different counts: "
                     f"{sorted(k for k in a.keys() | b.keys() if a[k] != b[k])}")
    totals = sum(tracer.op_counts, start=Counter())
    silent = [k for k in EXPECTED_CALLS[workload.name] if totals[k] == 0]
    if silent:
        guard.append(f"coverage guard: no calls recorded for {silent}")

    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{workload.name}-seed{seed}.tsv"
    tracer.write(span_file)
    overhead = traced_s / plain_s - 1 if plain_s else 0.0
    metrics = per_layer_metrics(totals, tracer.layer_times(), ops, ticks, overhead)

    for p in problems + guard:
        print(p, file=sys.stderr)
    if guard:
        sys.exit("perfbench: traced run failed its coverage or determinism guard")
    log(f"{workload.name} traced: seed {seed}, {ops} traced ops, {len(tracer.names)} spans "
        f"written to {span_file.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        metric_line(name, value, unit, ops)
    for key, want in PREDICTED.get(workload.name, {}).items():
        got = totals[key] / ops
        log(f"  prediction {key}.count = {want} per op: observed {got:g} "
            f"({'ok' if got == want else 'MISMATCH'})")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


# -- all-workload modes -------------------------------------------------------


def run_all(seconds: float, seed: int, check_names: bool) -> int:
    """Every workload in both modes, each in its own process."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "ref_kernel_s": REF_KERNEL_S,
        "seconds": seconds,
        "seed": seed,
        "workloads": {},
    }
    status = 0
    for name, cls in WORKLOADS.items():
        entry = summary["workloads"][name] = {"about": cls.about}
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                log(f"FAIL {name} --trace {trace}: exit {proc.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            entry["traced" if trace else "untraced"] = result
            if not result["correct"]:
                log(f"FAIL {name} --trace {trace}: outputs incorrect")
                status = 1
            if check_names:
                want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != want:
                    log(f"FAIL {name} --trace {trace}: metrics {got} != BENCHMARK.json {want}")
                    status = 1
                shown = " ".join(lines[:-1])
                missing = [k for k in want if f" {k} " not in shown and f"[{k}]" not in shown]
                if missing:
                    log(f"FAIL {name} --trace {trace}: not printed: {missing}")
                    status = 1
    if check_names:
        log("self-test: " + ("ok" if status == 0 else "FAILED"))
    log(json.dumps(summary, sort_keys=True))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload in both modes")
    ap.add_argument("--self-test", action="store_true", help="a few ops per workload, checked")
    args = ap.parse_args(argv)
    if args.self_test:
        return run_all(seconds=1, seed=args.seed, check_names=True)
    if args.all:
        return run_all(args.seconds, args.seed, check_names=False)
    if args.workload is None:
        ap.error("--workload, --all or --self-test is required")
    workload = WORKLOADS[args.workload]()
    run = traced if args.trace else end_to_end
    result = run(workload, args.seed, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
