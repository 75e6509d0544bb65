"""Acceptance suite: one test (pytest -v line) per acceptance criterion.

Each test prints a CRITERION line with the measured numbers so the
pass/fail evidence survives in the captured output.
"""

import math
import time

import numpy as np
import pytest

from spinbus import chains, cli, dynamics, ed, fidelity, mirror


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"CRITERION {tag}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {tag}: {detail}"


def uniform_k(N, g, register_field=None):
    spec = chains.ChainSpec(
        chains.ModelKind.XX, N, chains.Uniform(1.0),
        g_left=g, g_right=g, register_field=register_field,
    )
    return chains.build_single_particle_matrix(spec)


# ---------------------------------------------------------------------------
# 1. Analytic fidelities equal exact many-body channel fidelities (<= 8
#    spins, 20 random (g, t) draws per channel, agreement to 1e-10, < 2 min.
# ---------------------------------------------------------------------------


def test_criterion_01_analytic_formulas_match_exact_channels():
    t_start = time.perf_counter()
    rng = np.random.default_rng(2026)
    tol = 1e-10
    worst = 0.0

    def plain_f(traces, signs=(1, 1, 1)):
        return 0.5 + sum(
            s * traces[k].real for s, k in zip(signs, ("x", "y", "z"))
        ) / 12.0

    # double swap / single swap / remote z on an 8-spin system (N = 6)
    N = 6
    for _ in range(20):
        g = rng.uniform(0.1, 1.0)
        t = rng.uniform(0.5, 25.0)
        K = uniform_k(N, g)
        M = dynamics.propagator(K, t)
        pairs = [
            (fidelity.f_double_swap(M),
             plain_f(ed.transfer_channel_traces(K, t, "double_swap"))),
            (fidelity.f_single_swap(M, 0.0),
             plain_f(ed.transfer_channel_traces(K, t, "single_swap"))),
            (fidelity.f_remote_z(M),
             plain_f(ed.transfer_channel_traces(K, t, "remote_z"), (-1, -1, 1))),
        ]
        for analytic, exact in pairs:
            worst = max(worst, abs(analytic - exact))

    # one-way swap on a polarized product chain (even N, parity +1)
    N = 4
    for _ in range(20):
        g = rng.uniform(0.1, 1.0)
        t = rng.uniform(0.5, 25.0)
        K = uniform_k(N, g)
        M = dynamics.propagator(K, t)
        exact = plain_f(
            ed.transfer_channel_traces(K, t, "single_swap", chain_bits=np.ones(N, int))
        )
        worst = max(worst, abs(fidelity.f_single_swap(M, 1.0) - exact))

    # encoded protocol on an 8-spin system (N = 4 chain)
    N = 4
    for _ in range(20):
        g = rng.uniform(0.1, 1.0)
        t = rng.uniform(0.5, 25.0)
        res = ed.EncodedProtocolEngine(uniform_k(N, g)).fidelities([t])[0]
        M = dynamics.propagator(uniform_k(N, g), t)
        worst = max(worst, abs(fidelity.f_encoded(M, "weak") - res.fidelity))
        worst = max(
            worst,
            abs(fidelity.f_encoded(M, "strong") - res.fidelity_phase_corrected),
        )

    elapsed = time.perf_counter() - t_start
    _report(
        "1", worst < tol and elapsed < 120.0,
        f"max |analytic - exact| = {worst:.2e} (tol {tol}), {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. Engineered chains: perfect mirror at t = pi with field 3(N+1)/2 and
#    exact identity at t = 2 pi with field (N+1)/2, both to 1e-10.
# ---------------------------------------------------------------------------


def test_criterion_02_engineered_perfect_transfer():
    worst_mirror = 0.0
    worst_identity = 0.0
    for N in (4, 9, 20, 51):
        spec = chains.ChainSpec(
            chains.ModelKind.XX, N, chains.Engineered(),
            uniform_field=1.5 * (N + 1),
        )
        M = dynamics.propagator(chains.build_single_particle_matrix(spec), math.pi)
        worst_mirror = max(worst_mirror, abs(1.0 - abs(M[0, -1])))

        spec = chains.ChainSpec(
            chains.ModelKind.XX, N, chains.Engineered(),
            uniform_field=0.5 * (N + 1),
        )
        M = dynamics.propagator(
            chains.build_single_particle_matrix(spec), 2.0 * math.pi
        )
        worst_identity = max(
            worst_identity, float(np.max(np.abs(M - np.eye(N + 2))))
        )
    _report(
        "2", worst_mirror < 1e-10 and worst_identity < 1e-10,
        f"mirror deficit {worst_mirror:.2e}, identity deviation {worst_identity:.2e}",
    )


# ---------------------------------------------------------------------------
# 3. Strong-coupling scan over N in [10, 100]: (a) fitted exponent of the
#    optimal coupling within -1/6 +- 0.05; (b) encoded fidelity > 0.9 for
#    every N <= 100.  Shared scan, < 10 min.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def strong_scan():
    t0 = time.perf_counter()
    cfg = cli.ExperimentConfig("strong-scan", cli.DEFAULT_PARAMS["strong-scan"])
    tables, summary = cli.run_strong_coupling_scan(cfg)
    return tables[0], summary, time.perf_counter() - t0


def test_criterion_03a_coupling_scaling_exponent(strong_scan):
    table, summary, elapsed = strong_scan
    exponent = summary["fit_exponent"]
    ok = abs(exponent - (-1.0 / 6.0)) < 0.05 and elapsed < 600.0
    _report(
        "3a", ok,
        f"fit exponent {exponent:.4f} vs -1/6 +- 0.05, scan took {elapsed:.0f}s",
    )


def test_criterion_03b_encoded_fidelity_above_090(strong_scan):
    table, _, _ = strong_scan
    failing = [(N, F) for N, g, tau, F, ok in table.rows if F <= 0.9]
    detail = (
        "all N <= 100 exceed 0.9"
        if not failing
        else "best achievable F <= 0.9 at " + ", ".join(
            f"N={N} (F={F:.6f})" for N, F in failing
        )
    )
    _report("3b", not failing, detail)


# ---------------------------------------------------------------------------
# 4. Dipolar exact diagonalization at 10 total spins: full-dipolar
#    infidelity 0.1 +- 0.05, next-nearest-neighbor-cancelled 0.02 +- 0.02,
#    nearest-neighbor agrees with the analytic formula to 1e-10; includes a
#    12-spin point; < 15 min.
# ---------------------------------------------------------------------------


def test_criterion_04_dipolar_exact_diagonalization():
    t0 = time.perf_counter()
    cfg = cli.ExperimentConfig("dipolar-ed", cli.DEFAULT_PARAMS["dipolar-ed"])
    (table,), _ = cli.run_dipolar_ed(cfg)
    rows = {(r[0], r[1]): r for r in table.rows}
    dip10 = rows[("full_dipolar", 10)][5]
    nnn10 = rows[("nnn_cancelled", 10)][5]
    nn_gaps = [r[7] for r in table.rows if r[0] == "nearest_neighbor"]
    has12 = any(r[1] == 12 for r in table.rows)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(dip10 - 0.1) <= 0.05
        and abs(nnn10 - 0.02) <= 0.02
        and max(nn_gaps) < 1e-10
        and has12
        and elapsed < 900.0
    )
    _report(
        "4", ok,
        f"10-spin infidelity: dipolar {dip10:.4f} (0.1+-0.05), "
        f"nnn-cancelled {nnn10:.4f} (0.02+-0.02); max analytic gap "
        f"{max(nn_gaps):.1e}; 12-spin included: {has12}; {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 5. Perturbative estimates for N = 51 within 10% of exact for g <= 0.01
#    and visibly breaking down beyond kappa / sqrt(N).
# ---------------------------------------------------------------------------


def test_criterion_05_perturbative_window_and_breakdown():
    cfg = cli.ExperimentConfig("perturbative", cli.DEFAULT_PARAMS["perturbative"])
    (table,), _ = cli.run_perturbative_check(cfg)
    g_break = table.metadata["breakdown_g"]
    weak_rows = [r for r in table.rows if r[0] <= 0.01]
    assert weak_rows, "the grid must sample the weak-coupling window"
    max_rel_t = max(r[4] for r in weak_rows)
    max_rel_r = max(
        abs(r[5] - r[6]) / r[5] for r in weak_rows if r[5] > 0
    )
    strong_rows = [r for r in table.rows if r[0] >= 2.0 * g_break]
    breakdown_rel = max(r[4] for r in strong_rows)
    ok = max_rel_t < 0.10 and max_rel_r < 0.10 and breakdown_rel > 0.25
    _report(
        "5", ok,
        f"weak-coupling rel err: transfer {max_rel_t:.3f}, return "
        f"{max_rel_r:.3f} (< 0.10); past 2x breakdown ({2 * g_break:.3f}) "
        f"rel err reaches {breakdown_rel:.2f} (> 0.25)",
    )


# ---------------------------------------------------------------------------
# 6. Positioning disorder sigma_d = d/6 (coupling spread ~ 0.5 kappa under
#    the cube-law linearization) with T1 = 5 s on a 51-site chain drives the
#    mean best fidelity below the classical bound 2/3; >= 200 realizations,
#    < 5 min.
# ---------------------------------------------------------------------------


def test_criterion_06_disorder_breaks_transfer():
    t0 = time.perf_counter()
    cfg = cli.ExperimentConfig(
        "disorder-sweep",
        {
            "n_chain": 51, "kappa_khz": 50.0, "d_nm": 10.0,
            "sigma_d_nm": [10.0 / 6.0], "t1_ms": [5000.0],
            "g_max": 0.5, "pr_bins": 16, "realizations": 200,
        },
    )
    (grid, _), _ = cli.run_disorder_sweep(cfg)
    (row,) = grid.rows
    mean_f = row[4]
    n_real = row[5]
    elapsed = time.perf_counter() - t0
    ok = mean_f < 2.0 / 3.0 and n_real >= 200 and elapsed < 300.0
    _report(
        "6", ok,
        f"mean best fidelity {mean_f:.4f} < 2/3 over {n_real} realizations "
        f"(empirical coupling spread {row[1]:.2f} kappa), {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 7. Transverse-field Ising register exchange: collapses below 1e-3 in the
#    Majorana regime (B < kappa) and approaches 1 in the paramagnetic one.
# ---------------------------------------------------------------------------


def test_criterion_07_majorana_exchange_collapse():
    majorana = dynamics.bdg_effective_swap_check(
        chains.ChainSpec(
            chains.ModelKind.TFIM, 10, chains.Uniform(1.0),
            g_left=0.02, uniform_field=0.3,
        )
    )
    paramagnetic = dynamics.bdg_effective_swap_check(
        chains.ChainSpec(
            chains.ModelKind.TFIM, 7, chains.Uniform(1.0),
            g_left=0.02, uniform_field=2.0,
        )
    )
    ok = majorana.exchange_amplitude < 1e-3 and paramagnetic.exchange_amplitude > 0.99
    _report(
        "7", ok,
        f"exchange amplitude {majorana.exchange_amplitude:.2e} at B = 0.3 "
        f"(< 1e-3) vs {paramagnetic.exchange_amplitude:.4f} at B = 2.0",
    )


# ---------------------------------------------------------------------------
# 8. Mirror architecture: tableau verification for all n <= 64, dense-
#    unitary checks for n <= 10, propagated swaps for every pair on a
#    16-chain, and routing across an 8x8 lattice with 10% holes; < 1 min.
# ---------------------------------------------------------------------------


def test_criterion_08_mirror_constructions():
    t0 = time.perf_counter()
    for n in range(1, 65):
        mirror.verify_mirror(mirror.mirror_program(n), n)
    worst_dense = 0.0
    for n in range(1, 11):
        rep = mirror.dense_unitary_check(mirror.mirror_program(n), n)
        worst_dense = max(worst_dense, rep.max_deviation)
    for k in range(1, 16):
        mirror.verify_swap(mirror.propagated_swap(k, 16), 16, (k - 1, k))
    lattice = cli._random_lattice(8, 8, 0.1, seed=0)
    regs = lattice.registers()
    plan = mirror.route(lattice, regs[0], regs[-1])
    elapsed = time.perf_counter() - t0
    ok = worst_dense < 1e-10 and len(plan.moves) > 0 and elapsed < 60.0
    _report(
        "8", ok,
        f"mirrors n<=64 verified, dense deviation {worst_dense:.1e} (n<=10), "
        f"15 propagated swaps exact, route {len(plan.moves)} moves / "
        f"{plan.total_layers} layers on 8x8 with holes, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 9. Bosonic chain (N = 9, g = 0.01): swap amplitude >= 0.999 and the
#    thermal excess noise stays within a factor of 2 of its predicted
#    temperature-independent value under the g -> g sqrt(omega/kT) rescale.
# ---------------------------------------------------------------------------


def test_criterion_09_bosonic_swap_and_thermal_noise():
    cfg = cli.ExperimentConfig("bosonic", cli.DEFAULT_PARAMS["bosonic"])
    (table,), _ = cli.run_bosonic_demo(cfg)
    N, g = 9, 0.01
    k = np.arange(1, (N + 1) // 2)
    delta = 2.0 * np.cos(np.pi * k / (N + 1))
    omega = (2.0 * g / math.sqrt(N + 1)) * np.sin(np.pi * k / (N + 1))
    predicted = 2.0 * float(np.sum((omega / delta) ** 2))
    amps = [r[3] for r in table.rows]
    excess = [r[6] for r in table.rows]
    ratios = [e / predicted for e in excess]
    ok = min(amps) >= 0.999 and all(0.5 <= r <= 2.0 for r in ratios)
    _report(
        "9", ok,
        f"min swap amplitude {min(amps):.6f} (>= 0.999); excess noise / "
        f"predicted {predicted:.2e}: " + ", ".join(f"{r:.2f}" for r in ratios)
        + " (each within factor 2)",
    )


# ---------------------------------------------------------------------------
# 10. Participation ratio: generic uniform-chain mode has N_PR = 2(N+1)/3
#     to 1e-8, and positioning disorder shifts the histogram toward
#     localized (smaller) values.
# ---------------------------------------------------------------------------


def test_criterion_10_participation_ratio():
    worst = 0.0
    for N in (10, 25, 51):
        J = np.diag(np.ones(N - 1), 1) + np.diag(np.ones(N - 1), -1)
        modes = dynamics.eigenmodes(J)
        pr = dynamics.participation_ratio(modes.vectors[:, 0])  # generic mode
        worst = max(worst, abs(pr - 2.0 * (N + 1) / 3.0))

    cfg = cli.ExperimentConfig(
        "disorder-sweep",
        {
            "n_chain": 25, "kappa_khz": 50.0, "d_nm": 10.0,
            "sigma_d_nm": [0.0, 10.0 / 6.0], "t1_ms": [5000.0],
            "g_max": 0.5, "pr_bins": 12, "realizations": 30,
        },
    )
    (_, hist), _ = cli.run_disorder_sweep(cfg)
    means = {}
    for sigma, _, lo, hi, count in hist.rows:
        tot, wsum = means.get(sigma, (0.0, 0.0))
        means[sigma] = (tot + count, wsum + count * 0.5 * (lo + hi))
    mean_pr = {s: w / t for s, (t, w) in means.items()}
    shifted = mean_pr[10.0 / 6.0] < mean_pr[0.0] - 1.0
    ok = worst < 1e-8 and shifted
    _report(
        "10", ok,
        f"uniform-chain N_PR deviation {worst:.1e} from 2(N+1)/3; mean PR "
        f"{mean_pr[0.0]:.2f} (ordered) -> {mean_pr[10.0 / 6.0]:.2f} (disordered)",
    )
