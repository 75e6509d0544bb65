"""spinbus benchmark: CLI workloads timed end to end, plus a traced run per layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 30 --trace 0

Each workload times two kinds of call into ``spinbus`` and repeats them
in passes (a pass makes one call of the first kind, then one or more of
the second) until the time measured is nearest to ``--seconds`` (at
least one pass):

- ``closed-form``: ``disorder-sweep`` and ``strong-scan`` at default config;
- ``exact``: ``dipolar-ed`` at 6, 8 and 10 spins, then one 12-spin
  ``ed.transfer_channel_traces(K, t, "remote_z")`` call;
- ``mirror``: ``mirror-verify`` at default config, then a routing-heavy
  ``mirror-verify`` config on one fixed 32 x 32 lattice, twice a pass.

``--seed`` reaches the CLI's ``--seed``: the disorder realisations and
the default config's random 8 x 8 lattice.  The other calls have no
randomness, or fixed inputs.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``:
``call1_rel`` and ``call2_rel`` are the medians, over the run, of the wall
time of one call of the first and the second kind above divided by the
mean wall time of the yardstick passes that bracket it (``yardstick.py``:
a fixed job, array-bound or mixed like the call's own work, that
does not touch spinbus, so the ratio cancels the host's speed drift but
moves with spinbus's own speed); ``setup_s`` is the median, over three
fresh processes, of importing ``spinbus.cli``, writing the config
documents and one warm-up call of each kind at tiny size.  The plain
wall-time medians are printed beside them under the names
``disorder_sweep_s`` ... ``mirror_route_s``.  ``--trace 1`` runs one
untraced pass, then one pass with every public spinbus function wrapped
(``tracer.py``), and reports the per-layer metrics.  The last stdout
line is one JSON object; the lines above it print every metric by name
with unit and sample count.
A fuller record (environment, samples, CSV body hashes, failures, every
traced function) goes to ``.perfbench/results/``.

Outputs are checked outside the timed regions (``checks.py``); failed
checks and non-zero exit codes count as ``failed``.  ``--tiny`` runs the
same workloads at the small sizes used for warm-up and by the smoke test.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_SAMPLES = 3  # fresh processes (this one included) per --trace 0 run
# One BLAS thread: idle OpenBLAS threads spin on the second core, which made
# the scalar-heavy closed-form calls slower and noisier than with two.
BLAS_THREADS = 1

_clock = time.perf_counter


class SetupError(RuntimeError):
    """The checkout does not hold a spinbus source tree this benchmark can run."""


@dataclass(frozen=True)
class Part:
    """One kind of timed call: a CLI subcommand, or the direct 12-spin ED call."""

    metric: str  # the name its median wall time is printed under
    command: str  # CLI subcommand, or "channel" for ed.transfer_channel_traces
    config: dict | None = None  # --config document (channel: n_chain, g, t)
    realizations: int | None = None
    seed: int | None = None  # fixed CLI seed; None passes the run's seed
    repeat: int = 1  # calls per pass: more samples of a short call
    bracket: int = 1  # yardstick passes on each side of a call: more for a long one
    yardstick: str = "mixed"  # "array" for a call dominated by array work


_ROUTE = {"mirror_sizes": [1, 2, 4, 8, 16, 32, 64], "swap_chain_length": 64,
          "lattice_rows": 32, "lattice_cols": 32}

PLANS = {
    "full": {
        "closed-form": (
            Part("disorder_sweep_s", "disorder-sweep", realizations=200),
            Part("strong_scan_s", "strong-scan"),
        ),
        "exact": (
            Part("dipolar_ed_s", "dipolar-ed", {"total_spins": [6, 8, 10]},
                 yardstick="array", bracket=4),
            Part("channel12_s", "channel", {"n_chain": 10, "g": 0.4, "t": 12.5},
                 yardstick="array", bracket=4),
        ),
        "mirror": (
            Part("mirror_chain_s", "mirror-verify", yardstick="array"),
            # the route's length, and so its work, depends on the lattice:
            # one fixed lattice keeps mirror_route_s comparable across seeds
            Part("mirror_route_s", "mirror-verify", _ROUTE, seed=0, repeat=2),
        ),
    },
    "tiny": {
        "closed-form": (
            Part("disorder_sweep_s", "disorder-sweep",
                 {"n_chain": 11, "sigma_d_nm": [0.0, 1.0], "t1_ms": [200.0]}, 4),
            Part("strong_scan_s", "strong-scan",
                 {"n_list": [10, 15, 20], "g_grid": [0.25, 1.2, 5], "n_times": 50}),
        ),
        "exact": (
            Part("dipolar_ed_s", "dipolar-ed", {"total_spins": [6]}, yardstick="array"),
            Part("channel12_s", "channel", {"n_chain": 6, "g": 0.4, "t": 12.5},
                 yardstick="array"),
        ),
        "mirror": (
            Part("mirror_chain_s", "mirror-verify",
                 {"mirror_sizes": [1, 2, 4, 8], "swap_chain_length": 6,
                  "lattice_rows": 4, "lattice_cols": 4}, yardstick="array"),
            Part("mirror_route_s", "mirror-verify",
                 {"mirror_sizes": [1, 2], "swap_chain_length": 8,
                  "lattice_rows": 6, "lattice_cols": 6}, seed=0),
        ),
    },
}
WORKLOADS = tuple(PLANS["full"])


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError(f"{path} is missing")
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# set-up: import, config documents, warm-up


class Bench:
    """The imported package plus the prepared inputs of one workload."""

    def __init__(self, workload: str, plan: str, work: Path):
        t0 = _clock()
        self.spinbus = import_spinbus()
        import checks  # numpy and spinbus: part of the measured import

        self.checks = checks
        self.work = work
        self.parts = PLANS[plan][workload]
        self.warm = PLANS["tiny"][workload]
        self.inputs = {}
        for tag, parts in (("run", self.parts), ("warm", self.warm)):
            for part in parts:
                self.inputs[(tag, part.metric)] = self._prepare(tag, part)
        with contextlib.redirect_stdout(io.StringIO()):
            for part in self.warm:
                self.invoke("warm", part, 0, work / "warm" / part.metric)
        self.setup_s = _clock() - t0

    def _prepare(self, tag: str, part: Part):
        """CLI arguments from a config document, or (K, t) for the ED call."""
        if part.command == "channel":
            c = part.config
            return self.checks.uniform_k(c["n_chain"], c["g"]), c["t"]
        extra = []
        if part.config is not None:
            path = self.work / "config" / f"{tag}-{part.metric}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(part.config))
            extra += ["--config", str(path)]
        if part.realizations is not None:
            extra += ["--realizations", str(part.realizations)]
        return extra

    def invoke(self, tag: str, part: Part, seed: int, out: Path):
        """One timed call; returns (seconds, exit code, ED traces or None)."""
        inputs = self.inputs[(tag, part.metric)]
        if part.command == "channel":
            K, t = inputs
            t0 = _clock()
            try:
                traces = self.spinbus.ed.transfer_channel_traces(K, t, "remote_z")
            except Exception:
                traceback.print_exc()
                return _clock() - t0, "exception", None
            return _clock() - t0, 0, traces
        seed = seed if part.seed is None else part.seed
        argv = [part.command, "--seed", str(seed), "--out", str(out), *inputs]
        t0 = _clock()
        try:
            rc = self.spinbus.cli.main(argv)
        except Exception:
            traceback.print_exc()
            rc = "exception"
        return _clock() - t0, rc, None


def import_spinbus():
    if not (SRC / "spinbus" / "__init__.py").is_file():
        raise SetupError(f"no spinbus sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import spinbus
    import spinbus.cli  # noqa: F401  (numpy, scipy, jsonschema)

    if not Path(spinbus.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"imported spinbus from {spinbus.__file__}, not from {SRC}")
    return spinbus


def probe_setup(workload: str, tiny: bool) -> float:
    """Set-up time of one fresh process running the same set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload] + (["--tiny"] if tiny else [])
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def pick_cli_seed(bench: Bench, seed: int) -> int:
    """First seed from ``seed`` on whose random lattices every route exists.

    A lattice whose holes cut the two corner registers apart makes
    mirror-verify report a routing error by design; the workload needs
    inputs on which no operation fails.  Only the routes are tried: the
    mirror sizes and swap chain are cut to their minimum.
    """
    for cli_seed in range(seed, seed + 100):
        ok = True
        for part in bench.parts:
            if part.seed is not None:
                continue
            cfg = dict(part.config or {}, mirror_sizes=[1], swap_chain_length=2)
            path = bench.work / "config" / "route-probe.json"
            path.write_text(json.dumps(cfg))
            out = bench.work / "route-probe"
            with contextlib.redirect_stdout(io.StringIO()):
                rc = bench.spinbus.cli.main(["mirror-verify", "--config", str(path),
                                             "--seed", str(cli_seed), "--out", str(out)])
            rows = bench.checks.read_rows(out / "mirror-verify_verification.csv")
            ok = ok and rc == 0 and all(r["status"] == "pass" for r in rows)
        if ok:
            return cli_seed
    return seed


# ---------------------------------------------------------------------------
# measurement


def run_pass(bench: Bench, seed: int, rep: int, yards=None) -> list[tuple]:
    """Each part ``repeat`` times; returns (part, seconds, exit code, traces,
    out dir, yard s) per call.

    With yardsticks (one per kind), each call is bracketed by ``bracket``
    passes of its part's kind just before and as many just after it;
    ``yard s`` is their mean.  The passes that end one call of a kind
    start the next call of the same kind.
    """
    records = []
    kind = None  # the kind of the last yardstick pass run
    with contextlib.redirect_stdout(io.StringIO()):
        for part in bench.parts:
            for k in range(part.repeat):
                out = bench.work / "out" / part.metric / f"{rep}-{k}"
                yard = yards[part.yardstick] if yards else None
                if yard and kind != part.yardstick:
                    for _ in range(part.bracket):
                        yard.run()
                    kind = part.yardstick
                dt, rc, traces = bench.invoke("run", part, seed, out)
                y = None
                if yard:
                    for _ in range(part.bracket):
                        yard.run()
                    y = statistics.fmean(yard.passes[-2 * part.bracket:])
                records.append((part, dt, rc, traces, out, y))
    return records


def check_pass(bench: Bench, checker, records) -> None:
    checks = bench.checks
    for part, _, rc, traces, out, _ in records:
        checker.check(rc == 0, f"{part.metric}: exit code {rc}")
        if rc != 0:
            continue
        try:
            if part.command == "channel":
                K, t = bench.inputs[("run", part.metric)]
                checks.check_channel(checker, K, t, traces)
                continue
            tables = checks.csv_tables(out, part.command)
            for name, path in tables.items():
                checker.same_body(f"{part.metric}/{name}", checks.body_sha256(path))
            if part.command == "disorder-sweep":
                checks.check_disorder_sweep(checker, tables, part.realizations)
            elif part.command == "strong-scan":
                checks.check_strong_scan(checker, tables)
            elif part.command == "dipolar-ed":
                checks.check_dipolar_ed(checker, tables)
            else:
                checks.check_mirror_verify(checker, tables)
        except (KeyError, OSError, ValueError) as exc:
            checker.check(False, f"{part.metric}: unreadable output ({exc!r})")


def final_checks(bench: Bench, checker) -> None:
    """Dense-oracle check of every mirror size up to 10 that the run verified."""
    defaults = bench.spinbus.cli.DEFAULT_PARAMS["mirror-verify"]
    sizes = {n for p in bench.parts if p.command == "mirror-verify"
             for n in (p.config or defaults).get("mirror_sizes", defaults["mirror_sizes"])
             if n <= 10}
    bench.checks.check_dense_mirrors(checker, sorted(sizes))


def measure_untraced(bench, seed, seconds, checker):
    """Passes until the time measured is nearest to ``seconds`` (at least one).

    Returns the wall times of each part, the same divided by their
    bracketing yardstick time, and the yardsticks.
    """
    from yardstick import Yardstick

    yards = {kind: Yardstick(kind) for kind in {p.yardstick for p in bench.parts}}
    samples = {p.metric: [] for p in bench.parts}
    rel = {p.metric: [] for p in bench.parts}
    t_start = _clock()
    rep = 0
    while True:
        records = run_pass(bench, seed, rep, yards)
        for part, dt, *_, y in records:
            samples[part.metric].append(dt)
            rel[part.metric].append(dt / y)
        check_pass(bench, checker, records)
        rep += 1
        elapsed = _clock() - t_start
        if elapsed + elapsed / rep / 2 > seconds:
            return samples, rel, yards


def measure_traced(bench, seed, checker, spans_path):
    """One untraced pass, then one traced pass; returns per-layer values."""
    from tracer import Tracer

    t0 = _clock()
    records = run_pass(bench, seed, 0)
    untraced_wall = _clock() - t0
    check_pass(bench, checker, records)

    tracer = Tracer()
    tracer.install(bench.spinbus)
    try:
        start = _clock()
        records = run_pass(bench, seed, 1)
        end = _clock()
    finally:
        tracer.uninstall()
    check_pass(bench, checker, records)
    wall = end - start
    untraced = tracer.untraced_s(start, end)
    self_total = sum(tracer.self_s.values())
    checker.check(abs(self_total + untraced - wall) <= 0.01 * wall,
                  f"trace: self {self_total} + untraced {untraced} != wall {wall}")
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(spans_path)

    runners = [n for n in tracer.calls if n.startswith("cli.run_")]
    extra = {
        "trace.wall_s": wall,
        "trace.untraced_s": untraced,
        "trace.overhead_s": wall - untraced_wall,
        "cli.runners.self_s": sum(tracer.self_s[n] for n in runners),
        **tracer.counters,
    }
    table = {n: {"calls": tracer.calls[n], "self_s": tracer.self_s[n],
                 "errors": tracer.errors.get(n, 0)} for n in sorted(tracer.calls)}
    return extra, table, tracer


def per_layer_value(name: str, extra: dict, tracer) -> float:
    if name in extra:
        return extra[name]
    span, _, field = name.rpartition(".")
    if field == "self_s":
        return tracer.self_s.get(span, 0.0)
    return {"calls": tracer.calls, "errors": tracer.errors}[field].get(span, 0)


# ---------------------------------------------------------------------------
# reporting


def environment() -> dict:
    import numpy
    import scipy

    def blas(mod):
        try:
            info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info['name']} {info['version']}"
        except (KeyError, TypeError, AttributeError):
            return "unknown"

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (git unavailable)"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small sizes (smoke test)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    plan = "tiny" if args.tiny else "full"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = WORK / (("probe-" if args.setup_probe else "run-") + run_id)
    try:
        spec = load_spec()
        bench = Bench(args.workload, plan, work)
        if args.setup_probe:
            print(repr(bench.setup_s))
            return 0
        setup = [bench.setup_s]
        if args.trace == 0:
            setup += [probe_setup(args.workload, args.tiny) for _ in range(SETUP_SAMPLES - 1)]
        return report(args, plan, spec, bench, setup, run_id)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _line(name: str, value: float, unit: str, note: str = "") -> str:
    return f"{name:<44} {value:>16.6f} {unit:<6} {note}".rstrip()


def report(args, plan, spec, bench, setup, run_id) -> int:
    from checks import Checker

    checker = Checker()
    cli_seed = pick_cli_seed(bench, args.seed) if args.workload == "mirror" else args.seed
    results_dir = WORK / "results"
    record = {
        "workload": args.workload, "seed": args.seed, "cli_seed": cli_seed,
        "trace": args.trace, "seconds": args.seconds, "plan": plan,
        "env": environment(),
    }
    lines = [f"workload {args.workload}  seed {args.seed} (CLI seed {cli_seed})  "
             f"trace {args.trace}  plan {plan}",
             "env " + "  ".join(f"{k}={v}" for k, v in record["env"].items())]
    metrics = {}
    if args.trace == 0:
        samples, rel, yards = measure_untraced(bench, cli_seed, args.seconds, checker)
        final_checks(bench, checker)
        record["samples"] = {"setup_s": setup, **samples,
                             **{f"{m}/yardstick": v for m, v in rel.items()},
                             **{f"yardstick_{k}_s": y.passes for k, y in yards.items()}}
        values = {
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for i, p in enumerate(bench.parts, 1):
            values[f"call{i}_rel"] = statistics.median(rel[p.metric])
            lines += [_line(p.metric, statistics.median(samples[p.metric]), "s",
                            f"median of {len(samples[p.metric])} (wall time)"),
                      _line(f"call{i}_rel", values[f"call{i}_rel"], "x",
                            f"median of {len(rel[p.metric])} ({p.metric} / {p.yardstick} yardstick)")]
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        lines += [_line(f"yardstick_{k}_s", statistics.median(y.passes), "s",
                        f"median of {len(y.passes)}") for k, y in sorted(yards.items())]
        lines += [_line("setup_s", values["setup_s"], "s", f"median of {len(setup)}"),
                  _line("peak_rss_mb", values["peak_rss_mb"], "MB")]
        for workload, parts in PLANS["full"].items():
            if workload != args.workload:
                lines += [f"{p.metric:<34} not run by this workload (see {workload})"
                          for p in parts]
    else:
        spans_path = results_dir / f"spans-{args.workload}-seed{args.seed}.csv"
        extra, table, tracer = measure_traced(bench, cli_seed, checker, spans_path)
        final_checks(bench, checker)
        record["functions"] = table
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": per_layer_value(m["name"], extra, tracer),
                                  "unit": m["unit"]}
            lines.append(_line(m["name"], metrics[m["name"]]["value"], m["unit"]))
        lines.append(f"sum of self_s over {len(table)} traced functions "
                     f"{sum(tracer.self_s.values()):.6f} s + trace.untraced_s "
                     f"{extra['trace.untraced_s']:.6f} s = trace.wall_s {extra['trace.wall_s']:.6f} s")
    failed_frac = checker.failed / max(checker.attempted, 1)
    lines.append(_line("failed_frac", failed_frac, "ratio",
                       f"{checker.failed} failed of {checker.attempted} invocations and checks"))
    lines += [f"FAILED: {r}" for r in checker.reasons]
    record.update(metrics=metrics, failed_frac=failed_frac, attempted=checker.attempted,
                  failed=checker.failed, failures=checker.reasons, csv_body_sha256=checker.hashes)
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{run_id}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print("\n".join(lines))
    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
