"""Output checks for the benchmark; they run outside every timed region.

Each check adds one attempt to a ``Checker`` and, if it fails, one
failure with a one-line reason.  Reference values come from the public
closed forms in ``spinbus.fidelity`` and ``spinbus.dynamics`` and from
the dense oracle in ``spinbus.mirror``.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

from spinbus import chains, dynamics, fidelity, mirror

# criterion-1 convention: F_remote_z = 1/2 + (-T_x - T_y + T_z) / 12
REMOTE_Z_SIGNS = (-1.0, -1.0, 1.0)


class Checker:
    """Counts attempted and failed checks and keeps the failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.hashes: dict[str, list[str]] = {}  # sha256 of each CSV body, per table

    def check(self, ok: bool, reason: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(reason)
        return ok

    def same_body(self, key: str, digest: str) -> None:
        """Repetitions of one invocation with one seed must match byte for byte."""
        seen = self.hashes.setdefault(key, [])
        if seen:
            self.check(digest == seen[0], f"{key}: CSV body changed between repetitions")
        seen.append(digest)


def uniform_k(n_chain: int, g: float) -> np.ndarray:
    spec = chains.ChainSpec(
        chains.ModelKind.XX, n_chain, chains.Uniform(1.0), g_left=g, g_right=g
    )
    return chains.build_single_particle_matrix(spec)


def body_sha256(path: Path) -> str:
    """sha256 of a CSV without its ``#`` metadata lines."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for line in fh:
            if not line.startswith(b"#"):
                h.update(line)
    return h.hexdigest()


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def csv_tables(out_dir: Path, command: str) -> dict[str, Path]:
    prefix = f"{command}_"
    return {
        p.name[len(prefix):-4]: p for p in sorted(out_dir.glob(f"{prefix}*.csv"))
    }


def check_disorder_sweep(c: Checker, tables: dict[str, Path], realizations: int) -> None:
    for row in read_rows(tables["fidelity_grid"]):
        f = float(row["mean_best_fidelity"])
        c.check(0.0 <= f <= 1.0, f"disorder-sweep: fidelity {f} outside [0, 1]")
        n = int(row["n_realizations"])
        c.check(n == realizations, f"disorder-sweep: {n} realizations, asked {realizations}")


def check_strong_scan(c: Checker, tables: dict[str, Path]) -> None:
    # F < 0.9 at N >= 90 is the known criterion-3b physics, not a failure
    for row in read_rows(tables["gm_scan"]):
        N = int(row["n_chain"])
        c.check(row["converged"] == "1", f"strong-scan: N={N} did not converge")
        g, tau, f = float(row["g_m"]), float(row["tau"]), float(row["f_encoded"])
        ref = fidelity.f_encoded(dynamics.propagator(uniform_k(N, g), tau), "strong")
        c.check(abs(f - ref) <= 1e-9, f"strong-scan: N={N} f_encoded {f} != {ref}")


def check_dipolar_ed(c: Checker, tables: dict[str, Path]) -> None:
    rows = read_rows(tables["infidelity"])
    c.check(bool(rows), "dipolar-ed: empty table")
    for row in rows:
        if row["model"] == "nearest_neighbor":
            gap = float(row["nn_analytic_gap"])
            c.check(gap <= 1e-8, f"dipolar-ed: {row['total_spins']} spins nn gap {gap}")


def check_channel(c: Checker, K: np.ndarray, t: float, traces: dict) -> None:
    exact = 0.5 + sum(s * traces[k].real for s, k in zip(REMOTE_Z_SIGNS, "xyz")) / 12.0
    ref = fidelity.f_remote_z(dynamics.propagator(K, t))
    c.check(abs(exact - ref) <= 1e-10, f"remote_z: exact {exact} != closed form {ref}")


def check_mirror_verify(c: Checker, tables: dict[str, Path]) -> None:
    rows = read_rows(tables["verification"])
    c.check(bool(rows), "mirror-verify: empty table")
    for row in rows:
        c.check(row["status"] == "pass",
                f"mirror-verify: {row['construct']} {row['size']} reads {row['status']}")


def check_dense_mirrors(c: Checker, sizes) -> None:
    for n in sizes:
        report = mirror.dense_unitary_check(mirror.mirror_program(n), n)
        c.check(report.ok and math.isfinite(report.max_deviation),
                f"dense check: mirror_program({n}) deviates by {report.max_deviation}")

