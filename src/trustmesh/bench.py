"""In-process scaling benchmark for key generation and signing.

Measures computation only (no simulated network delays): round 1 is broadcast
generation plus every node verifying its peers' proofs, round 2 is share
distribution, every node checking each peer's share on its own, and key
derivation, and the signing column is a full t-sized coalition session over
the fresh key.  Each row reports medians over a configurable number of
repetitions after one warm-up run; absolute numbers are hardware-specific,
the growth shape is the interesting output.
"""

from __future__ import annotations

import csv
import statistics
import time
from dataclasses import dataclass

from . import dkg as dkg_mod
from . import signing as signing_mod
from .groups import get_backend
from .rng import SeededRng


@dataclass(frozen=True)
class BenchRow:
    t: int
    n: int
    round1_ms: float
    round2_ms: float
    sign_ms: float
    dispersion: float   # relative std-dev of the round-2 samples


def _dkg_timed(backend, t, n, rng):
    start = time.perf_counter()
    participants = dkg_mod.run_round1(backend, t, n, rng, dkg_mod.make_crs("bench"))
    round1 = time.perf_counter() - start

    start = time.perf_counter()
    dkg_mod.run_round2(participants)
    round2 = time.perf_counter() - start

    return round1, round2, participants


def _sign_timed(participants, coalition, rng):
    keys = {p.id: signing_mod.KeyShare.from_participant(p) for p in participants if p.id in coalition}
    message = b"benchmark message"

    start = time.perf_counter()
    sig = signing_mod.run_session(keys, message, rng)
    elapsed = time.perf_counter() - start

    any_key = keys[coalition[0]]
    if not signing_mod.verify(any_key.group_pk, message, sig):
        raise AssertionError("benchmark produced an invalid signature")
    return elapsed


def run_benchmark(backend_name: str, t: int, n_list, repetitions: int = 5, seed: int = 0):
    """One BenchRow per n: medians over ``repetitions`` runs after a warm-up."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    backend = get_backend(backend_name)
    rng = SeededRng(seed)
    rows = []
    for n in n_list:
        coalition = tuple(range(1, t + 1))
        r1_samples, r2_samples, sign_samples = [], [], []
        for rep in range(repetitions + 1):  # first iteration is the warm-up
            rep_rng = rng.fork(f"bench/{n}/{rep}")
            r1, r2, participants = _dkg_timed(backend, t, n, rep_rng)
            sig = _sign_timed(participants, coalition, rep_rng.fork("sign"))
            if rep == 0:
                continue
            r1_samples.append(r1)
            r2_samples.append(r2)
            sign_samples.append(sig)
        med_r2 = statistics.median(r2_samples)
        dispersion = (statistics.pstdev(r2_samples) / med_r2) if med_r2 > 0 else 0.0
        rows.append(BenchRow(
            t=t,
            n=n,
            round1_ms=statistics.median(r1_samples) * 1000,
            round2_ms=med_r2 * 1000,
            sign_ms=statistics.median(sign_samples) * 1000,
            dispersion=dispersion,
        ))
    return rows


def write_csv(rows, path) -> None:
    """Schema-stable CSV: t,n,round1_ms,round2_ms,sign_ms."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "n", "round1_ms", "round2_ms", "sign_ms"])
        for row in rows:
            writer.writerow([
                row.t, row.n,
                f"{row.round1_ms:.3f}", f"{row.round2_ms:.3f}", f"{row.sign_ms:.3f}",
            ])


def format_table(rows) -> str:
    header = f"{'t':>3} {'n':>5} {'round1_ms':>12} {'round2_ms':>12} {'sign_ms':>10} {'disp':>6}"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.t:>3} {r.n:>5} {r.round1_ms:>12.3f} {r.round2_ms:>12.3f} "
            f"{r.sign_ms:>10.3f} {r.dispersion:>6.2f}"
        )
    return "\n".join(lines)
