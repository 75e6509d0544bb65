"""Every module's ``__all__`` names what the module defines."""

import importlib

import pytest

MODULES = ["chains", "dynamics", "fidelity", "ed", "mirror", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"spinbus.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"spinbus.{name}.__all__ names missing attributes {missing}"
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    namespace = {}
    exec(f"from spinbus.{name} import *", namespace)
    module = importlib.import_module(f"spinbus.{name}")
    assert set(module.__all__) <= set(namespace)


def test_benchmark_harness_names_resolve(tmp_path):
    # the benchmark's checks and tracer call these library names; a
    # rename would otherwise show first as a failed benchmark run
    import json
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import checks
        import tracer
    finally:
        sys.path.pop(0)
    import spinbus
    from spinbus import cli, dynamics, ed, fidelity

    c = checks.Checker()
    K = checks.uniform_k(2, 0.5)
    assert K.shape == (4, 4)
    checks.check_channel(c, K, 2.0, ed.transfer_channel_traces(K, 2.0, "remote_z"))
    # check_channel reads x, y and z, of which ed contracts only z (and s)
    for kind in ("double_swap", "single_swap", "remote_z"):
        traces = ed.transfer_channel_traces(K, 2.0, kind)
        assert traces.keys() == {"x", "y", "z", "s"}
        assert traces["x"] == traces["y"] == complex(2 * traces["s"].real)
    # the strong-scan oracle against the element form that strong-scan writes
    K = checks.uniform_k(10, 0.6)
    F = fidelity.f_encoded(dynamics.transfer_elements(dynamics.eigenmodes(K), [9.0]), "strong")
    ref = fidelity.f_encoded(dynamics.propagator(K, 9.0), "strong")
    c.check(abs(F[0] - ref) <= 1e-9, f"strong-scan oracle {ref} != {F[0]}")
    checks.check_dense_mirrors(c, [1, 2])
    assert cli.DEFAULT_PARAMS["mirror-verify"]["mirror_sizes"]
    originals = (dynamics.eigenmodes, cli.minimize)
    t = tracer.Tracer()
    t.install(spinbus)  # wraps cli.minimize among the rest
    cfg = tmp_path / "mirror.json"
    cfg.write_text(json.dumps({"mirror_sizes": [1, 2], "swap_chain_length": 3,
                               "lattice_text": "R.R"}))
    try:
        assert (dynamics.eigenmodes, cli.minimize) != originals
        # a traced mirror-verify must still see its tableau layers
        code = cli.main(["mirror-verify", "--config", str(cfg), "--out", str(tmp_path / "out")])
    finally:
        t.uninstall()
    assert (dynamics.eigenmodes, cli.minimize) == originals
    assert code == cli.EXIT_OK
    assert t.counters["mirror.qubit_layers"] > 0
    # the per-layer metrics count real layer applications
    assert t.calls["mirror.Tableau.apply_cz"] > 0 and t.calls["mirror.Tableau.apply_hadamard"] > 0
    assert not any(t.errors.values()), dict(t.errors)
    assert c.attempted == 4 and c.failed == 0, c.reasons
