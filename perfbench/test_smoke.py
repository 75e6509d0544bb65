"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Every workload must emit every metric of BENCHMARK.json with its unit,
print the nine end-to-end figures by name, and report a corrupted
reference value as a failure.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NINE = ("setup_s", "disorder_sweep_s", "strong_scan_s", "dipolar_ed_s", "channel12_s",
        "mirror_chain_s", "mirror_route_s", "peak_rss_mb", "failed_frac")


def run_tiny(workload: str, trace: int):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    report, result = run_tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if m["unit"] == "count":
            assert isinstance(got["value"], int)
    if trace == 0:
        for name in NINE:
            line = next(l for l in report if l.split()[0] == name)
            assert "not run by this workload" in line or len(line.split()) >= 3
        for m in wanted:
            assert result["metrics"][m["name"]]["value"] > 0
        # setup_s, the yardsticks, and each call's wall time and its ratio
        yardsticks = sum(l.startswith("yardstick_") for l in report)
        assert 1 <= yardsticks <= 2
        assert sum("median of" in l for l in report) == 5 + yardsticks
        assert sum(" yardstick)" in l for l in report) == 2
    else:
        v = {k: m["value"] for k, m in result["metrics"].items()}
        assert v["trace.wall_s"] > 0 and v["trace.untraced_s"] >= 0


CORRUPTIONS = {
    "closed-form": ("fidelity", "f_encoded"),
    "exact": ("fidelity", "f_remote_z"),
    "mirror": ("mirror", "dense_unitary_check"),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_raises_failed_frac(workload, monkeypatch, capsys):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import run
    import spinbus.cli  # noqa: F401  (binds the CLI's own copies before the corruption)
    import spinbus.fidelity
    import spinbus.mirror

    module_name, attr = CORRUPTIONS[workload]
    module = {"fidelity": spinbus.fidelity, "mirror": spinbus.mirror}[module_name]
    original = getattr(module, attr)
    if attr == "dense_unitary_check":
        def corrupted(*args, **kwargs):
            report = original(*args, **kwargs)
            return type(report)(report.n_qubits, report.n_layers, 1.0)
    else:
        def corrupted(*args, **kwargs):
            return original(*args, **kwargs) + 1e-6
    monkeypatch.setattr(module, attr, corrupted)

    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", "0", "--tiny"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert not result["correct"] and result["failed"] > 0
    failed_frac = float(next(l for l in lines if l.startswith("failed_frac")).split()[1])
    assert failed_frac == pytest.approx(result["failed"] / result["attempted"], rel=1e-3)
    assert failed_frac > 0
