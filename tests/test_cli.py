import contextlib
import dataclasses
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from spinbus import cli, dynamics, ed
from spinbus.dynamics import propagator, transfer_elements
from spinbus.fidelity import f_encoded


class TestConfig:
    def test_hash_stable_and_sensitive(self):
        a = cli.ExperimentConfig("bosonic", {"g": 0.01})
        b = cli.ExperimentConfig("bosonic", {"g": 0.01})
        c = cli.ExperimentConfig("bosonic", {"g": 0.02})
        assert a.config_hash == b.config_hash
        assert a.config_hash != c.config_hash

    def test_resolve_defaults_and_overrides(self, tmp_path):
        doc = tmp_path / "cfg.json"
        doc.write_text(json.dumps({"n_chain": 5, "seed": 9}))
        cfg = cli.resolve_config("bosonic", str(doc), None, None, None)
        assert cfg.params["n_chain"] == 5
        assert cfg.params["g"] == 0.01  # default preserved
        assert cfg.seed == 9
        cfg2 = cli.resolve_config("bosonic", str(doc), 11, "outdir", None)
        assert (cfg2.seed, cfg2.out) == (11, "outdir")
        # the ensemble size is a disorder-sweep parameter, default 200
        sweep = cli.resolve_config("disorder-sweep", None, None, None, None)
        assert sweep.params["realizations"] == 200
        sweep = cli.resolve_config("disorder-sweep", None, None, None, 7)
        assert sweep.params["realizations"] == 7
        with pytest.raises(cli.ConfigError):
            cli.resolve_config("bosonic", None, None, None, 7)

    def test_defaults_pinned(self):
        # the defaults live in the schemas' "default" annotations
        assert cli.DEFAULT_PARAMS == {
            "disorder-sweep": {
                "n_chain": 51,
                "kappa_khz": 50.0,
                "d_nm": 10.0,
                "sigma_d_nm": [0.0, 0.5, 1.0, 10.0 / 6.0],
                "t1_ms": [200.0, 5000.0],
                "g_max": 0.5,
                "pr_bins": 16,
                "realizations": 200,
            },
            "strong-scan": {
                "n_list": list(range(10, 101, 5)),
                "g_grid": [0.25, 1.2, 39],
                "n_times": 600,
            },
            "dipolar-ed": {
                "models": ["nearest_neighbor", "full_dipolar", "nnn_cancelled"],
                "total_spins": [6, 8, 10, 12],
                "cap": 14,
            },
            "perturbative": {"n_chain": 51, "g_min": 0.002, "g_max": 0.4, "n_g": 25},
            "bosonic": {"n_chain": 9, "g": 0.01, "kt_over_omega": [1.0, 10.0, 100.0]},
            "mirror-verify": {
                "mirror_sizes": [1, 2, 4, 8, 16, 32, 64, 128, 256, 512],
                "swap_chain_length": 16,
                "lattice_rows": 8,
                "lattice_cols": 8,
                "hole_fraction": 0.1,
            },
        }
        for kind, schema in cli.PARAM_SCHEMAS.items():
            assert "default" not in schema["properties"]["seed"], kind
        assert "default" not in cli.PARAM_SCHEMAS["mirror-verify"]["properties"]["lattice_text"]

    def test_schema_violation(self, tmp_path):
        doc = tmp_path / "cfg.json"
        doc.write_text(json.dumps({"n_chain": "many"}))
        with pytest.raises(cli.ConfigError):
            cli.resolve_config("bosonic", str(doc), None, None, None)

    def test_unknown_key_rejected(self, tmp_path):
        doc = tmp_path / "cfg.json"
        doc.write_text(json.dumps({"coupling": 0.1}))
        with pytest.raises(cli.ConfigError):
            cli.resolve_config("bosonic", str(doc), None, None, None)

    def test_invalid_json(self, tmp_path):
        doc = tmp_path / "cfg.json"
        doc.write_text("{not json")
        with pytest.raises(cli.ConfigError):
            cli.resolve_config("bosonic", str(doc), None, None, None)

    def test_overflowing_number_rejected(self, tmp_path):
        doc = tmp_path / "cfg.json"
        doc.write_text('{"g": 1e999}')  # json.loads reads it as inf
        with pytest.raises(cli.ConfigError, match="not finite"):
            cli.resolve_config("bosonic", str(doc), None, None, None)

    def test_missing_file(self):
        with pytest.raises(cli.ConfigError):
            cli.resolve_config("bosonic", "/nonexistent.json", None, None, None)


class TestSchemaChecker:
    @staticmethod
    def subschemas(schema: dict) -> list[dict]:
        """``schema`` and every schema nested in it."""
        subs = [*schema.get("properties", {}).values(), *schema.get("prefixItems", [])]
        if "items" in schema:
            subs.append(schema["items"])
        return [schema, *(s for sub in subs for s in TestSchemaChecker.subschemas(sub))]

    def test_every_keyword_is_checked(self):
        # the keywords cli._validate implements; "default" is an annotation
        checked = {
            "type", "properties", "additionalProperties", "items", "prefixItems", "minItems",
            "maxItems", "uniqueItems", "enum", "minimum", "exclusiveMinimum", "maximum", "default",
        }
        schemas = [s for schema in cli.PARAM_SCHEMAS.values() for s in self.subschemas(schema)]
        assert set().union(*schemas) == checked
        assert {s["type"] for s in schemas if "type" in s} <= cli._TYPES.keys()
        assert all(isinstance(s.get("additionalProperties", False), bool) for s in schemas)

    @pytest.mark.parametrize("kind", ["integer", "number"])
    def test_bool_is_not_a_number(self, kind):
        with pytest.raises(cli.ConfigError, match="^config fails schema: "):
            cli._validate(True, {"type": kind})
        cli._validate(1, {"type": kind})

    def test_unique_items_follow_json_equality(self):
        schema = {"type": "array", "uniqueItems": True}
        with pytest.raises(cli.ConfigError, match="has non-unique elements"):
            cli._validate([1, 1.0], schema)
        with pytest.raises(cli.ConfigError, match="has non-unique elements"):
            cli._validate([[1, "a"], [1.0, "a"]], schema)
        cli._validate([1, True], schema)
        cli._validate([0, False, [1], [True]], schema)

    def test_enum_follows_json_equality(self):
        cli._validate(1.0, {"enum": [1, "a"]})
        with pytest.raises(cli.ConfigError, match="is not one of"):
            cli._validate(True, {"enum": [1, "a"]})

    @pytest.mark.parametrize("kind, doc, key", [
        ("strong-scan", {"g_grid": [0.25, 1.2, 1.5]}, "g_grid[2]"),
        ("strong-scan", {"g_grid": [-0.1, 1.2, 5]}, "g_grid[0]"),
        ("bosonic", {"g": 0.0}, "g"),
        ("bosonic", {"kt_over_omega": [1.0, 0.0]}, "kt_over_omega[1]"),
        ("bosonic", {"coupling": 0.1}, "'coupling'"),
        ("dipolar-ed", {"cap": 16}, "cap"),
        ("dipolar-ed", {"models": ["ring"]}, "models[0]"),
        ("strong-scan", {"g_grid": [0.25, 1.2]}, "g_grid"),
        ("strong-scan", {"g_grid": [0.25, 1.2, 5, 6]}, "g_grid"),
    ], ids=["prefix-items", "prefix-minimum", "exclusive-minimum", "items-exclusive-minimum",
            "additional-properties", "maximum", "enum", "min-items", "max-items"])
    def test_failure_is_one_line_naming_the_key(self, tmp_path, kind, doc, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(cli.ConfigError) as info:
            cli.resolve_config(kind, str(path), None, None, None)
        message = str(info.value)
        assert message.startswith("config fails schema: ") and "\n" not in message
        assert key in message

    def test_keywords_check_only_their_own_type(self):
        schema = {"minimum": 0, "minItems": 2, "properties": {"a": {"type": "string"}}}
        for value in ("text", None, [1, 2], {"a": "x"}, 3):
            cli._validate(value, schema)


TINY_MIRROR = {"mirror_sizes": [1], "swap_chain_length": 2}


def loaded_after(imports: str, module: str, run: str = "pass") -> bool:
    """Whether ``import <imports>``, then ``run``, in a fresh interpreter
    loads ``module``."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = f"import sys, {imports}; {run}; print({module!r} in sys.modules)"
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    return out.stdout.splitlines()[-1] == "True"


def test_import_leaves_scipy_unloaded():
    # scipy serves only LAPACK, imported where dstevd and dsterf are
    # called; the schemas are checked in-tree
    for module in ("scipy", "jsonschema"):
        assert not loaded_after("spinbus, spinbus.cli", module), module
    # sample_positions makes its reused generator on first use
    assert not loaded_after("spinbus, spinbus.cli", "numpy.random")


def test_strong_scan_leaves_scipy_optimize_unloaded(tmp_path):
    # the Brent searches of the polish are cli.minimize's own
    doc = tmp_path / "cfg.json"
    doc.write_text(json.dumps({"n_list": [4, 6], "g_grid": [0.3, 1.1, 5], "n_times": 20}))
    argv = ["strong-scan", "--config", str(doc), "--out", str(tmp_path / "out")]
    run = f"assert spinbus.cli.main({argv!r}) == 0"
    assert not loaded_after("spinbus.cli", "scipy.optimize", run)
    assert loaded_after("spinbus.cli", "scipy.linalg.lapack", run)


def test_mirror_verify_leaves_numpy_ma_unloaded(tmp_path):
    # np.unique would load numpy.ma, about 1.5 MB of a fresh process
    doc = tmp_path / "cfg.json"
    doc.write_text(json.dumps({**TINY_MIRROR, "lattice_text": "R.R"}))
    argv = ["mirror-verify", "--config", str(doc), "--out", str(tmp_path / "out")]
    assert not loaded_after("spinbus.cli", "numpy.ma", f"assert spinbus.cli.main({argv!r}) == 0")


def test_import_dynamics_leaves_scipy_unloaded():
    # LAPACK dstevd and dsterf are imported where they are called
    assert not loaded_after("spinbus.dynamics", "scipy")


class TestExitCodes:
    def test_config_error_exit(self, tmp_path, capsys):
        doc = tmp_path / "cfg.json"
        doc.write_text(json.dumps({"n_chain": 0}))
        code = cli.main(["bosonic", "--config", str(doc), "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_even_chain_config_error(self, tmp_path):
        doc = tmp_path / "cfg.json"
        doc.write_text(json.dumps({"n_chain": 8}))
        assert cli.main(["bosonic", "--config", str(doc), "--out", str(tmp_path)]) == cli.EXIT_CONFIG

    def test_resource_error_exit(self, tmp_path, capsys):
        doc = tmp_path / "cfg.json"
        doc.write_text(json.dumps({"total_spins": [12], "cap": 6, "models": ["nearest_neighbor"]}))
        code = cli.main(["dipolar-ed", "--config", str(doc), "--out", str(tmp_path)])
        assert code == cli.EXIT_RESOURCE
        assert "resource error" in capsys.readouterr().err

    def test_size_above_cap_refused_before_any_engine(self, tmp_path, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "EncodedProtocolEngine", lambda *args, **kw: built.append(args))
        doc = tmp_path / "cfg.json"
        doc.write_text(json.dumps({"total_spins": [6, 8, 10, 16], "cap": 14}))
        code = cli.main(["dipolar-ed", "--config", str(doc), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_RESOURCE and not built
        # the message the engine raises for 16 spins
        with pytest.raises(ed.ResourceLimitError) as info:
            ed.EncodedProtocolEngine(np.zeros((14, 14)), cap=14)
        assert capsys.readouterr().err == f"resource error: {info.value}\n"

    def test_one_chain_length_refused_before_the_scan(self, tmp_path, capsys, monkeypatch):
        # one length can never give the exponent fit
        solves = []
        monkeypatch.setattr(cli, "end_modes", lambda K: solves.append(K))
        doc = tmp_path / "cfg.json"
        doc.write_text(json.dumps({"n_list": [100]}))
        code = cli.main(["strong-scan", "--config", str(doc), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG and not solves
        assert "n_list: [100] has fewer than 2 items" in capsys.readouterr().err

    @pytest.mark.parametrize("command, doc", [
        ("strong-scan", {"n_list": [10_000_000, 10_000_005]}),
        ("perturbative", {"n_chain": 10_000_000}),
    ])
    def test_impossible_dense_k_is_a_resource_error(self, tmp_path, capsys, command, doc):
        # numpy refuses the 728 TiB chain matrix at once and allocates nothing
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == cli.EXIT_RESOURCE
        err = capsys.readouterr().err
        assert err.startswith("resource error: ") and err.count("\n") == 1
        assert "Traceback" not in err and not out.exists()

    def test_flag_held_to_schema(self, tmp_path, capsys):
        code = cli.main(["disorder-sweep", "--realizations", "0", "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["strong-scan", "dipolar-ed", "perturbative",
                                         "bosonic", "mirror-verify"])
    def test_realizations_flag_only_on_disorder_sweep(self, tmp_path, capsys, command):
        # the other subcommands draw no ensemble, so argparse rejects the flag
        assert cli.main([command, "--realizations", "5", "--out", str(tmp_path)]) == cli.EXIT_CONFIG
        assert "--realizations" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["strong-scan", "--seed", "x"],
        ["no-such-command"],
        [],
    ], ids=["non-integer-seed", "unknown-subcommand", "no-subcommand"])
    def test_argument_error_exits_2(self, capsys, argv):
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "error" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [["--help"], ["bosonic", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        assert cli.main(argv) == cli.EXIT_OK
        assert "usage" in capsys.readouterr().out

    @pytest.mark.parametrize("target", ["file", "under-file"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, target):
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory")
        out = blocker if target == "file" else blocker / "out"
        assert cli.main(["bosonic", "--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("output error") and err.count("\n") == 1
        assert blocker.read_text() == "not a directory"

    @pytest.mark.parametrize("target", ["file", "under-file"])
    @pytest.mark.parametrize("command", ["strong-scan", "dipolar-ed"])
    def test_unwritable_output_reported_before_run(self, tmp_path, capsys, monkeypatch,
                                                   command, target):
        def no_run(config):
            raise AssertionError("the experiment ran before the output path was checked")

        monkeypatch.setitem(cli._RUNNERS, command, no_run)
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory")
        out = blocker if target == "file" else blocker / "a" / "b"
        assert cli.main([command, "--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("output error") and err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == [blocker]

    def test_new_output_directory_made_only_after_run(self, tmp_path, monkeypatch):
        out = tmp_path / "a" / "b"

        def runner(config):
            assert not (tmp_path / "a").exists()
            return cli.run_bosonic_demo(config)

        monkeypatch.setitem(cli._RUNNERS, "bosonic", runner)
        assert cli.main(["bosonic", "--out", str(out)]) == cli.EXIT_OK
        assert (out / "bosonic_summary.json").is_file()

    def test_disorder_sweep_never_calls_dense_eigh(self, tmp_path, monkeypatch):
        # every chain matrix of these runners is nearest-neighbour, so
        # eigenmodes solves it by dstevd (propagators included)
        def no_eigh(*args, **kwargs):
            raise AssertionError("dense eigh called on a nearest-neighbour chain")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        runs = {
            "disorder-sweep": ({"n_chain": 11, "sigma_d_nm": [0.0, 1.0], "t1_ms": [200.0]},
                               ["--realizations", "4"]),
            "strong-scan": ({"n_list": [4, 8], "g_grid": [0.3, 1.1, 9], "n_times": 200}, []),
            "perturbative": ({"n_chain": 11, "n_g": 3}, []),
            "bosonic": ({"n_chain": 5}, []),
        }
        for command, (doc, extra) in runs.items():
            path = tmp_path / f"{command}.json"
            path.write_text(json.dumps(doc))
            code = cli.main([command, "--config", str(path), *extra,
                             "--out", str(tmp_path / command)])
            assert code == cli.EXIT_OK, command

    @pytest.mark.parametrize(
        "command, doc",
        [
            ("mirror-verify", {**TINY_MIRROR, "lattice_text": "...\n..."}),
            ("mirror-verify", {**TINY_MIRROR, "lattice_text": "R..\n..."}),
            ("mirror-verify", {**TINY_MIRROR, "lattice_rows": 1, "lattice_cols": 1}),
            ("mirror-verify", {**TINY_MIRROR, "lattice_text": "R..\n."}),
            ("mirror-verify", {**TINY_MIRROR, "lattice_text": "R.Q"}),
            ("mirror-verify", {**TINY_MIRROR, "lattice_rows": 1, "lattice_cols": 3,
                               "hole_fraction": 0.5}),
            ("bosonic", {"kt_over_omega": [-1.0]}),
            ("bosonic", {"kt_over_omega": [0.0]}),
            ("disorder-sweep", {"sigma_d_nm": [-1.0]}),
            ("disorder-sweep", {"t1_ms": [-1.0]}),
            ("disorder-sweep", {"t1_ms": [0.0]}),
            ("strong-scan", {"n_list": [1], "n_times": 10}),
            ("strong-scan", {"n_list": [10, 10], "n_times": 10}),
            ("strong-scan", {"n_list": [10, 15], "g_grid": [1.0, 0.5, 0], "n_times": 50}),
            ("strong-scan", {"n_list": [10, 15], "g_grid": [-0.5, 1.0, 5], "n_times": 50}),
            ("strong-scan", {"n_list": [10, 15], "g_grid": [1.0, 0.5, 5], "n_times": 50}),
            ("strong-scan", {"n_list": [10, 15], "g_grid": [0.25, 1.2, 5.7], "n_times": 50}),
            ("dipolar-ed", {"total_spins": [5]}),
            ("dipolar-ed", {"cap": 40, "total_spins": [24]}),
            ("dipolar-ed", {"cap": 16}),
            ("strong-scan", {"n_list": [10, 15], "n_times": 10, "realizations": 5}),
            # json.dumps writes these as NaN and Infinity, which json.loads accepts
            ("bosonic", {"g": math.nan}),
            ("bosonic", {"kt_over_omega": [math.inf]}),
            ("disorder-sweep", {"sigma_d_nm": [math.nan]}),
            ("mirror-verify", {"hole_fraction": math.nan}),
            ("perturbative", {"g_max": math.inf, "n_g": 3, "n_chain": 11}),
            ("perturbative", {"g_max": -math.inf, "n_g": 3, "n_chain": 11}),
            # an integer-valued float is no "integer": the runners need an int
            ("strong-scan", {"n_list": [4, 6], "n_times": 20.0}),
            ("perturbative", {"n_chain": 5.0, "n_g": 3.0}),
            ("disorder-sweep", {"n_chain": 5.0, "realizations": 2.0}),
            ("mirror-verify", {"mirror_sizes": [2.0], "swap_chain_length": 3.0,
                               "lattice_text": "R.R"}),
            ("bosonic", {"seed": 1.0}),
            ("dipolar-ed", {"cap": 14.0, "total_spins": [6]}),
            # each entry writes its own rows: a repeated one would write them twice
            ("disorder-sweep", {"sigma_d_nm": [0.5, 0.5]}),
            ("disorder-sweep", {"t1_ms": [200.0, 200.0]}),
            ("dipolar-ed", {"models": ["nearest_neighbor", "nearest_neighbor"]}),
            ("dipolar-ed", {"total_spins": [6, 6]}),
            ("bosonic", {"kt_over_omega": [10.0, 10.0]}),
            ("mirror-verify", {"mirror_sizes": [2, 2]}),
            ("bosonic", [{"n_chain": 5}]),
        ],
        ids=["no-register", "one-register", "one-site-lattice", "ragged", "unknown-char",
             "too-many-holes", "negative-kt", "zero-kt", "negative-sigma", "negative-t1",
             "zero-t1", "one-chain-length",
             "repeated-chain-length", "empty-g-grid", "negative-g", "reversed-g-grid",
             "fractional-g-grid-n", "five-spins", "cap-40", "cap-16",
             "strong-scan-realizations",
             "nan-g", "inf-kt", "nan-sigma", "nan-holes", "inf-g-max", "minus-inf-g-max",
             "float-n-times", "float-n-chain", "float-realizations", "float-mirror-size",
             "float-seed", "float-cap",
             "repeated-sigma", "repeated-t1", "repeated-model", "repeated-total-spins",
             "repeated-kt", "repeated-mirror-size", "array-config"],
    )
    def test_bad_config_exits_2(self, tmp_path, capsys, command, doc):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        code = cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.startswith("config error") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_repeated_chain_length_exits_2(self, tmp_path, capsys):
        # a repeated N would weigh twice in the N^a fit
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_list": [10, 10, 15, 20], "g_grid": [0.25, 1.2, 9],
                                    "n_times": 60}))
        code = cli.main(["strong-scan", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        assert "has non-unique elements" in capsys.readouterr().err

    def test_success_exit(self, tmp_path):
        assert cli.main(["bosonic", "--out", str(tmp_path)]) == cli.EXIT_OK

    def test_degenerate_spectrum_sweep_exits_0(self, tmp_path, capsys):
        # realization 74 (seed 0) has two modes 8e-13 apart; they are
        # skipped as degenerate instead of ending the sweep
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_chain": 50, "sigma_d_nm": [10.0], "t1_ms": [200.0]}))
        out = tmp_path / "out"
        code = cli.main(["disorder-sweep", "--config", str(path), "--realizations", "80",
                         "--out", str(out)])
        assert code == cli.EXIT_OK
        assert "Traceback" not in capsys.readouterr().err
        summary = json.loads((out / "disorder-sweep_summary.json").read_text())
        (counts,) = summary["realization_counts"]
        assert counts["realizations"] == 80


class TestOutputs:
    def test_bosonic_outputs_and_reproducibility(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["bosonic", "--out", str(out1)]) == 0
        assert cli.main(["bosonic", "--out", str(out2)]) == 0
        csv1 = (out1 / "bosonic_bosonic.csv").read_bytes()
        csv2 = (out2 / "bosonic_bosonic.csv").read_bytes()
        assert csv1 == csv2
        summary = json.loads((out1 / "bosonic_summary.json").read_text())
        assert summary["config"]["kind"] == "bosonic"
        assert "config_hash" in summary and "wall_time_s" in summary
        assert summary["tables"] == ["bosonic_bosonic.csv"]

    def test_csv_layout(self, tmp_path):
        cli.main(["bosonic", "--out", str(tmp_path)])
        lines = (tmp_path / "bosonic_bosonic.csv").read_text().splitlines()
        meta = [l for l in lines if l.startswith("# ")]
        assert any("config_hash" in l for l in meta)
        header = [l for l in lines if not l.startswith("#")][0]
        assert header.split(",")[0] == "kt_over_omega"

    def test_seed_changes_disorder_results(self, tmp_path):
        doc = tmp_path / "cfg.json"
        doc.write_text(json.dumps(
            {"n_chain": 9, "sigma_d_nm": [1.0], "t1_ms": [200.0], "pr_bins": 4}
        ))
        rows = {}
        for seed in (0, 1):
            out = tmp_path / f"s{seed}"
            args = ["disorder-sweep", "--config", str(doc), "--seed", str(seed),
                    "--realizations", "20", "--out", str(out)]
            assert cli.main(args) == 0
            body = [
                l for l in (out / "disorder-sweep_fidelity_grid.csv").read_text().splitlines()
                if not l.startswith("#")
            ]
            rows[seed] = body[1]
        assert rows[0] != rows[1]


class TestDisorderSweepChunks:
    @pytest.mark.parametrize("params, chunk", [
        ({"realizations": 1}, None),
        # chunks of 6, the last of 5; the first 50, of the PR histogram,
        # end inside a chunk
        ({"realizations": 77}, None),
        ({"realizations": 77}, 50),  # chunks of 50 and 27
        ({}, None),  # the defaults: 51 sites, 200 realizations
        ({"n_chain": 12, "sigma_d_nm": [5.0]}, None),  # chunks of 113 and 87, many clipped
    ], ids=["one", "77", "77-by-50", "defaults", "n12-clipped"])
    def test_matches_streamed_reference(self, params, chunk, monkeypatch):
        params = {**cli.DEFAULT_PARAMS["disorder-sweep"], **params}
        if chunk is not None:
            n = params["n_chain"]
            monkeypatch.setattr(cli, "_SWEEP_CHUNK_BYTES", chunk * 8 * n * n)
        (grid, hist), summary = cli.run_disorder_sweep(
            cli.ExperimentConfig("disorder-sweep", params, seed=0)
        )
        ref_grid, ref_hist, ref_counts = oracles.disorder_sweep(params, 0)
        assert grid.rows == ref_grid
        assert hist.rows == ref_hist
        assert summary["realization_counts"] == ref_counts
        if params["n_chain"] == 12:
            assert [c["clipped"] for c in ref_counts] == [93, 10]  # T1 = 200 and 5000 ms


def _traced_minimizers(f, lo, hi):
    """The port's and scipy's results on ``f``, each with its evaluated points."""
    from scipy.optimize import minimize_scalar

    ours, theirs = [], []
    res = cli.minimize(lambda x: ours.append(x) or f(x), lo, hi)
    ref = minimize_scalar(lambda x: theirs.append(x) or f(x), bounds=(lo, hi),
                          method="bounded", options={"xatol": cli._XATOL})
    return (res, ours), (ref, theirs)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


class TestMinimize:
    @pytest.mark.parametrize("f, lo, hi, nfev, success", [
        (lambda x: (x - 0.3) ** 2, 0.0, 1.0, None, True),
        (lambda x: np.sin(3.0 * x) + 0.1 * x * x, -2.0, 4.0, None, True),
        (lambda x: x, 0.0, 1.0, None, True),
        (lambda x: -x, 0.0, 1.0, None, True),
        (lambda x: 0.0, -1.0, 2.0, None, True),
        (lambda x: math.nan, 0.0, 1.0, None, False),
        (lambda x: math.nan if x > 0.5 else x, 0.0, 1.0, None, True),
        (lambda x: -np.cos(x), np.float64(-1.5), np.float64(0.5), None, True),
        (lambda x: x, 0.25, 0.25, 1, True),
        # the lower end at 0 of a bracket 1e100 wide: the steps toward it
        # do not reach the absolute tolerance within 500 evaluations
        (lambda x: x, 0.0, 1e100, 500, False),
    ], ids=["interior", "interior-parabolic", "lower-end", "upper-end", "constant", "nan",
            "nan-on-half", "float64-bounds", "empty-bracket", "evaluation-cap"])
    def test_matches_scipy_step_for_step(self, f, lo, hi, nfev, success):
        (res, ours), (ref, theirs) = _traced_minimizers(f, lo, hi)
        assert _bits(ours) == _bits(theirs)
        assert _bits(res.x) == _bits(ref.x) and _bits(res.fun) == _bits(ref.fun)
        assert (res.nfev, res.success) == (ref.nfev, ref.success) == (len(ours), success)
        if nfev is not None:
            assert res.nfev == nfev

    def test_matches_scipy_on_random_smooth_functions(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            c, w = rng.uniform(-5.0, 5.0), rng.uniform(0.1, 10.0)
            lo = rng.uniform(-10.0, 0.0)
            hi = lo + rng.uniform(0.0, 20.0)
            (res, ours), (ref, theirs) = _traced_minimizers(
                lambda x: np.sin(w * x) + 0.1 * (x - c) ** 2, lo, hi)
            assert _bits(ours) == _bits(theirs) and _bits(res.x) == _bits(ref.x)
            assert (res.fun, res.nfev, res.success) == (ref.fun, ref.nfev, ref.success)

    def test_matches_scipy_on_the_strong_scan_time_search(self):
        # the inner search of the polish: np.float64 bounds from the time grid
        N = 40
        modes = dynamics.eigenmodes(cli._uniform_k(N, 0.6))
        times = np.linspace(N / 2.0, 2.0 * N, 600)
        F = f_encoded(transfer_elements(modes, times), "strong")
        j = int(np.argmax(F))
        (res, ours), (ref, theirs) = _traced_minimizers(
            lambda t: -f_encoded(transfer_elements(modes, t), "strong")[0], times[j - 1], times[j + 1])
        assert _bits(ours) == _bits(theirs) and _bits(res.x) == _bits(ref.x)
        assert (res.fun, res.nfev, res.success) == (ref.fun, ref.nfev, ref.success)

    @pytest.mark.parametrize("lo, hi, match", [
        (math.nan, 1.0, "finite"), (0.0, math.inf, "finite"), (1.0, 0.0, "exceeds"),
    ])
    def test_bad_bounds_raise(self, lo, hi, match):
        with pytest.raises(ValueError, match=match):
            cli.minimize(lambda x: x, lo, hi)


class TestRunners:
    def test_disorder_sweep_values(self):
        cfg = cli.ExperimentConfig(
            "disorder-sweep",
            {
                "n_chain": 9, "kappa_khz": 50.0, "d_nm": 10.0,
                "sigma_d_nm": [0.0, 1.0], "t1_ms": [200.0],
                "g_max": 0.5, "pr_bins": 4, "realizations": 10,
            },
        )
        (grid, hist), summary = cli.run_disorder_sweep(cfg)
        by_sigma = {row[0]: row for row in grid.rows}
        assert set(by_sigma) == {0.0, 1.0}
        for row in grid.rows:
            assert 0.0 <= row[4] <= 1.0
        # zero disorder gives zero coupling spread and the best fidelity
        assert by_sigma[0.0][1] == pytest.approx(0.0, abs=1e-12)
        assert by_sigma[0.0][4] >= by_sigma[1.0][4]
        # T1 unit conversion: 200 ms * 50 kHz = 1e4 in coupling units
        assert by_sigma[0.0][3] == pytest.approx(1e4)
        # histogram counts cover realizations * modes per sigma value
        counts = {}
        for sigma, _, _, _, c in hist.rows:
            counts[sigma] = counts.get(sigma, 0) + c
        assert counts == {0.0: 10 * 9, 1.0: 10 * 9}
        # one summary entry per grid row; a rejected or clipped realization scores 0
        sweep = summary["realization_counts"]
        assert [(c["sigma_d_nm"], c["t1_ms"]) for c in sweep] == [(r[0], r[2]) for r in grid.rows]
        for c, row in zip(sweep, grid.rows):
            assert c["realizations"] == row[5] == 10
            scored = c["realizations"] - c["no_transfer_mode"] - c["clipped"]
            assert row[4] <= scored / c["realizations"]
        assert sweep[0]["no_transfer_mode"] == sweep[0]["clipped"] == 0

    def test_strong_scan_small_grid(self):
        cfg = cli.ExperimentConfig(
            "strong-scan",
            {"n_list": [4, 8], "g_grid": [0.3, 1.1, 9], "n_times": 200},
        )
        tables, summary = cli.run_strong_coupling_scan(cfg)
        rows = tables[0].rows
        assert [r[0] for r in rows] == [4, 8]
        for _, g, tau, F, ok in rows:
            assert 0.0 < g < 1.5 and tau > 0 and 0.5 <= F <= 1.0 and ok
        assert "fit_exponent" in summary

    def test_strong_scan_g_zero_rows_match_the_full_sum(self, tmp_path, monkeypatch):
        # at g = 0 the registers decouple: an even chain has a degenerate
        # pair of zero modes, an odd one a degenerate triple, and dstevd
        # returns any basis of them.  The folded sum must not depend on it.
        n_times, seen, gs = 40, [], []
        uniform_k = cli._uniform_k

        def record_g(N, g, *args):
            gs.append(g)
            return uniform_k(N, g, *args)

        def record(modes, times):
            if np.size(times) == n_times:  # a grid row, not a Brent step
                seen.append((gs[-1], modes, times))
            return transfer_elements(modes, times)

        monkeypatch.setattr(cli, "_uniform_k", record_g)
        monkeypatch.setattr(cli, "transfer_elements", record)
        doc = tmp_path / "cfg.json"
        doc.write_text(json.dumps({"n_list": [4, 7], "g_grid": [0.0, 1.2, 5], "n_times": n_times}))
        assert cli.main(["strong-scan", "--config", str(doc), "--out", str(tmp_path)]) == cli.EXIT_OK
        at_zero = [(modes, times) for g, modes, times in seen if g == 0.0]
        assert len(at_zero) == 2
        for modes, times in at_zero:
            assert modes.chiral
            folded = f_encoded(transfer_elements(modes, times), "strong")
            full = f_encoded(transfer_elements(dataclasses.replace(modes, chiral=False), times), "strong")
            assert np.max(np.abs(folded - full)) <= 1e-12

    def test_strong_scan_counts_the_dstevd_fallback(self):
        # g = 0 is a zero bond: that grid point's chain falls back to dstevd
        *_, polish = cli._strong_coupling_optimum(6, (0.0, 1.2, 5), 40)
        assert polish["dstevd_solves"] == 1
        assert polish["spectrum_solves"] == polish["eigensolves"] - 1

    def test_dipolar_ed_grid_centre_ignores_the_last_digits(self, monkeypatch):
        # the Brent searches fix the strong-scan optimum to about 1.5e-8
        # relative; the grid is centred on it rounded to 6 digits
        cfg = cli.ExperimentConfig(
            "dipolar-ed", {"models": ["nearest_neighbor"], "total_spins": [6], "cap": 14}
        )
        (table,), _ = cli.run_dipolar_ed(cfg)
        assert "rounded to 6 significant digits" in table.metadata["grid"]
        optimum = cli._strong_coupling_optimum
        g0, t0, *rest = optimum(2, (0.3, 1.1, 17), 400)
        assert (cli._round_sig(g0), cli._round_sig(t0)) == (0.866025, 3.14159)
        for scale in (1.0 + 2e-8, 1.0 - 2e-8):
            monkeypatch.setattr(cli, "_strong_coupling_optimum",
                                lambda *args: (g0 * scale, t0 * scale, *rest))
            (moved,), _ = cli.run_dipolar_ed(cfg)
            assert moved.rows == table.rows

    def test_strong_optimum_two_site_exact(self):
        # N = 2 is solvable: g = sqrt(3)/2, t = pi gives perfect transfer
        g, t, F, ok, _ = cli._strong_coupling_optimum(2, (0.3, 1.1, 17), 400)
        assert ok
        assert F == pytest.approx(1.0, abs=1e-8)
        assert g == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-4)
        assert t == pytest.approx(math.pi, abs=1e-3)

    def test_strong_optimum_stays_in_its_domain(self):
        # the polish searches g in [g_lo, g_hi] and t in [N/2, 2N] only;
        # Nelder-Mead used to leave both, e.g. tau = 35 for N = 4
        for N, n_g, n_times, (g_lo, g_hi) in itertools.product(
            (2, 3, 4, 5, 8, 16), (1, 2, 3, 5), (10, 23),
            ((0.0, 1.0), (0.0, 2.0), (0.5, 0.6), (1.2, 2.0)),
        ):
            case = (N, g_lo, g_hi, n_g, n_times)
            g, t, F, ok, polish = cli._strong_coupling_optimum(N, (g_lo, g_hi, n_g), n_times)
            assert N / 2.0 <= t <= 2.0 * N and g_lo <= g <= g_hi, case
            assert polish["eigensolves"] > n_g, case
            if ok:
                assert not (polish["g_on_bracket_edge"] or polish["t_on_bracket_edge"]), case
                assert F >= polish["grid_best_f"], case
                K = cli._uniform_k(N, g)
                assert abs(F - f_encoded(propagator(K, t), "strong")) <= 1e-12, case

    @pytest.mark.parametrize(
        "N, g_grid, F_min", [(4, (0.0, 1.0, 1), 0.9977), (5, (0.0, 2.0, 2), 0.9931)]
    )
    def test_strong_optimum_coarse_grid(self, N, g_grid, F_min):
        # a one-point grid searches all of [g_lo, g_hi]
        g, t, F, ok, _ = cli._strong_coupling_optimum(N, g_grid, 10)
        assert ok and F > F_min
        assert g_grid[0] < g < g_grid[1] and N / 2.0 < t < 2.0 * N

    def test_strong_optimum_keeps_a_better_grid_point(self):
        # the polish of this coarse grid ends at F = 0.6565, below the grid's
        # best of 0.6688: the grid's best point is returned, not converged
        N, g_grid, n_times = 12, (1.2, 2.0, 3), 30
        g, t, F, ok, polish = cli._strong_coupling_optimum(N, g_grid, n_times)
        assert not ok
        assert F >= polish["grid_best_f"] > 0.668
        assert g in np.linspace(*g_grid) and t in np.linspace(N / 2.0, 2.0 * N, n_times)
        assert abs(F - f_encoded(propagator(cli._uniform_k(N, g), t), "strong")) <= 1e-12

    def test_strong_scan_polish_counters(self):
        params = cli.DEFAULT_PARAMS["strong-scan"]
        (table,), summary = cli.run_strong_coupling_scan(cli.ExperimentConfig("strong-scan", params))
        polish = summary["polish"]
        assert [r["n_chain"] for r in polish] == [row[0] for row in table.rows]
        n_g = params["g_grid"][2]
        for r, row in zip(polish, table.rows):
            assert set(r) == {
                "n_chain", "eigensolves", "spectrum_solves", "dstevd_solves",
                "grid_best_f", "g_on_bracket_edge", "t_on_bracket_edge",
            }
            assert n_g < r["eigensolves"] <= n_g + 20
            # every default chain is mirror-symmetric with nonzero bonds
            assert r["spectrum_solves"] == r["eigensolves"] and r["dstevd_solves"] == 0
            assert r["grid_best_f"] <= row[3] and row[4] == 1
            assert not (r["g_on_bracket_edge"] or r["t_on_bracket_edge"])
        json.dumps(summary)  # the sidecar holds plain JSON types

    def test_perturbative_runner(self):
        cfg = cli.ExperimentConfig(
            "perturbative", {"n_chain": 11, "g_min": 0.005, "g_max": 0.5, "n_g": 6}
        )
        (table,), _ = cli.run_perturbative_check(cfg)
        assert table.metadata["breakdown_g"] == pytest.approx(1 / math.sqrt(11))
        for row in table.rows:
            assert row[7] == int(row[0] <= table.metadata["breakdown_g"])
        weak = [r for r in table.rows if r[0] <= 0.01]
        assert weak and all(r[4] < 0.10 for r in weak)

    def test_bosonic_runner_values(self):
        cfg = cli.ExperimentConfig(
            "bosonic", {"n_chain": 9, "g": 0.01, "kt_over_omega": [1.0, 100.0]}
        )
        (table,), _ = cli.run_bosonic_demo(cfg)
        for x, g_eff, tau, amp, eps, n_out, excess in table.rows:
            assert g_eff == pytest.approx(0.01 / math.sqrt(x))
            assert amp > 0.999
            assert eps == pytest.approx(1.0 - amp**2)
            assert excess == n_out

    def test_mirror_verify_runner(self):
        cfg = cli.ExperimentConfig(
            "mirror-verify",
            {
                "mirror_sizes": [1, 3, 8], "swap_chain_length": 5,
                "lattice_rows": 4, "lattice_cols": 4, "hole_fraction": 0.1,
            },
        )
        (table,), _ = cli.run_mirror_verify(cfg)
        assert all(row[2] == "pass" for row in table.rows)
        constructs = {row[0] for row in table.rows}
        assert constructs == {"mirror", "propagated_swap", "route"}

    def test_mirror_verify_explicit_lattice(self):
        cfg = cli.ExperimentConfig(
            "mirror-verify",
            {
                "mirror_sizes": [2], "swap_chain_length": 4,
                "lattice_text": "R..\n...\n..R",
            },
        )
        (table,), _ = cli.run_mirror_verify(cfg)
        route_rows = [r for r in table.rows if r[0] == "route"]
        assert route_rows[0][2] == "pass"

    def test_mirror_verify_unroutable_lattice(self, tmp_path):
        # no path joins the two registers: the route row reports the
        # RoutingError, and the run still succeeds
        doc = tmp_path / "cfg.json"
        doc.write_text(json.dumps({**TINY_MIRROR, "lattice_text": "R#R"}))
        out = tmp_path / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["mirror-verify", "--config", str(doc), "--out", str(out)])
        assert code == cli.EXIT_OK
        lines = (out / "mirror-verify_verification.csv").read_text().splitlines()
        assert [l for l in lines if l.startswith("route,")] == [
            'route,1x3,error,"no hole-free path from (0, 0) to (0, 2)"',
        ]
        summary = json.loads((out / "mirror-verify_summary.json").read_text())
        assert summary["layer_traffic"]["route"] == {"layers": 0, "layer_objects": 0}

    def test_mirror_verify_csv_body_pinned(self, tmp_path):
        # integers and strings only, so the body is the same on every platform
        doc = tmp_path / "cfg.json"
        doc.write_text(json.dumps({
            "mirror_sizes": [1, 2, 5], "swap_chain_length": 5,
            "lattice_text": "R..#.\n.#...\n....R",
        }))
        out = tmp_path / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["mirror-verify", "--config", str(doc), "--seed", "0", "--out", str(out)])
        assert code == 0
        lines = (out / "mirror-verify_verification.csv").read_text().splitlines()
        assert [l for l in lines if not l.startswith("#")] == [
            "construct,size,status,detail",
            "mirror,1,pass,X0->+X0 Z0->+Z0",
            "mirror,2,pass,X0->+X1 Z0->+Z1",
            "mirror,5,pass,X0->+X4 Z0->+Z4",
            'propagated_swap,1,pass,"swap(1,2) exact"',
            'propagated_swap,2,pass,"swap(2,3) exact"',
            'propagated_swap,3,pass,"swap(3,4) exact"',
            'propagated_swap,4,pass,"swap(4,5) exact"',
            'route,3x5,pass,"6 moves, 50 layers"',
        ]
        summary = json.loads((out / "mirror-verify_summary.json").read_text())
        assert summary["layer_traffic"]["route"]["layers"] == 50

    @pytest.mark.parametrize("seed", [0, 7])
    def test_mirror_verify_layer_traffic(self, seed):
        # the mirrors (one CZ and one H object, n + 1 cycles each) and the
        # swaps on the 16-chain do not depend on the seed; the route does
        config = cli.resolve_config("mirror-verify", None, seed, None, None)
        _, summary = cli.run_mirror_verify(config)
        traffic = summary["layer_traffic"]
        sizes = config.params["mirror_sizes"]
        assert traffic["mirror"] == {"layers": sum(2 * (n + 1) for n in sizes),
                                     "layer_objects": 2 * len(sizes)}
        assert traffic["mirror"]["layers"] == 2066
        assert traffic["propagated_swap"] == {"layers": 874, "layer_objects": 86}
        assert traffic["route"]["layers"] > 0 and traffic["route"]["layer_objects"] > 0

    def test_mirror_verify_swap_traffic_across_words(self):
        # the 64-chain's swaps span two packed words; like the 16-chain's,
        # they do not depend on the seed
        config = cli.ExperimentConfig("mirror-verify", {"mirror_sizes": [1], "swap_chain_length": 64,
                                                        "lattice_text": "R.R"})
        (table,), summary = cli.run_mirror_verify(config)
        assert [row[2] for row in table.rows if row[0] == "propagated_swap"] == ["pass"] * 63
        assert summary["layer_traffic"]["propagated_swap"] == {"layers": 15754, "layer_objects": 374}

    def test_dipolar_small(self):
        cfg = cli.ExperimentConfig(
            "dipolar-ed",
            {"models": ["nearest_neighbor"], "total_spins": [6], "cap": 14},
        )
        (table,), _ = cli.run_dipolar_ed(cfg)
        (row,) = table.rows
        model, n_total, N, g, t, infid, F, gap = row
        assert (model, n_total, N) == ("nearest_neighbor", 6, 2)
        assert F == pytest.approx(1.0, abs=1e-3)
        assert gap < 1e-10  # exact engine agrees with the analytic formula

    def test_dipolar_gap_floor(self):
        # the 8-spin gap is rounding noise (4.4e-16 before the floor)
        cfg = cli.ExperimentConfig(
            "dipolar-ed", {"models": ["nearest_neighbor"], "total_spins": [8], "cap": 14}
        )
        (table,), _ = cli.run_dipolar_ed(cfg)
        (row,) = table.rows
        assert row[-1] == 0.0
        assert table.metadata["nn_analytic_gap_floor"] == 1e-12

    def test_dipolar_infidelity_floor(self, monkeypatch):
        # centred on the unrounded strong-scan optimum (17 digits round-trip
        # a float), the 6-spin optimum is 1 to rounding (infidelity 6.7e-16
        # before the floor)
        cfg = cli.ExperimentConfig(
            "dipolar-ed", {"models": ["nearest_neighbor"], "total_spins": [6], "cap": 14}
        )
        (rounded,), _ = cli.run_dipolar_ed(cfg)
        monkeypatch.setattr(cli, "_CENTRE_DIGITS", 17)
        (table,), _ = cli.run_dipolar_ed(cfg)
        (row,) = table.rows
        infid, F = row[5], row[6]
        assert abs(1.0 - F) < cli._GAP_FLOOR
        assert infid == 0.0
        assert table.metadata["infidelity_floor"] == 1e-12
        # the 6-digit centre (0.866025, 3.14159) misses g = sqrt(3)/2, t = pi
        # by 4e-7 and 2.7e-6: an infidelity above the floor, written as is
        (row,) = rounded.rows
        assert row[5] == 1.0 - row[6] and cli._GAP_FLOOR < row[5] < 1e-10

    def test_dipolar_summary_counters(self):
        cfg = cli.ExperimentConfig(
            "dipolar-ed",
            {"models": ["nearest_neighbor", "full_dipolar"], "total_spins": [6, 8], "cap": 14},
        )
        (table,), summary = cli.run_dipolar_ed(cfg)
        optima = summary["grid_optima"]
        assert [(r["model"], r["total_spins"]) for r in optima] == [
            (row[0], row[1]) for row in table.rows
        ]
        assert [r["sector_dim_max"] for r in optima] == [20, 20, 70, 70]
        # the active sectors (at most 20 states) lie below the parity-split floor
        assert [(r["sectors_split"], r["sectors_whole"]) for r in optima] == [
            (0, 5), (0, 5), (0, 7), (0, 7)
        ]
        # the optimum of these small chains lies inside both grids
        assert not any(r["g_on_grid_edge"] or r["t_on_grid_edge"] for r in optima)


def _mostly(inner, hostile):
    """Draws from ``inner``, except one in eight from ``hostile``."""
    return st.integers(0, 7).flatmap(lambda k: hostile if k == 0 else inner)


def _num(lo, hi):
    """Floats in [lo, hi], or now and then an end, zero, -1, NaN or +-inf."""
    return _mostly(st.floats(lo, hi, allow_nan=False, allow_infinity=False),
                   st.sampled_from([lo, hi, 0.0, -1.0, math.nan, math.inf, -math.inf]))


def _int(lo, hi):
    """Integers in [lo, hi], or now and then lo - 1, zero or -1."""
    return _mostly(st.integers(lo, hi), st.sampled_from([lo - 1, 0, -1]))


def _small_list(elements, max_size=3):
    """One to ``max_size`` elements, or now and then an empty list."""
    return _mostly(st.lists(elements, min_size=1, max_size=max_size), st.just([]))


# Config documents shaped like each schema, at sizes that run in well under
# a second.  Keys that set the cost of a run (chain lengths, counts, sizes)
# are always present; the rest are optional, so defaults are exercised too.
_FUZZ_DOCS = {
    "disorder-sweep": st.fixed_dictionaries(
        {"n_chain": _int(2, 12), "realizations": _int(1, 3)},
        optional={
            "kappa_khz": _num(0.1, 100.0),
            "d_nm": _num(0.5, 20.0),
            "sigma_d_nm": _small_list(_num(0.0, 5.0), 2),
            "t1_ms": _small_list(_num(1e-3, 1e4), 2),
            "g_max": _num(1e-3, 2.0),
            "pr_bins": _int(2, 20),
            "seed": _int(0, 5),
        },
    ),
    "strong-scan": st.fixed_dictionaries(
        {"n_list": _small_list(_int(2, 16)), "n_times": _int(10, 30)},
        optional={"g_grid": st.tuples(_num(0.0, 2.0), _num(0.0, 2.0), _int(1, 5)).map(list)},
    ),
    "dipolar-ed": st.fixed_dictionaries(
        {"total_spins": _small_list(_int(6, 8), 2)},
        optional={
            "models": _small_list(st.sampled_from(
                ["nearest_neighbor", "full_dipolar", "nnn_cancelled", "ring"]), 2),
            "cap": _int(6, 14),
        },
    ),
    "perturbative": st.fixed_dictionaries(
        {"n_chain": _int(2, 15), "n_g": _int(2, 5)},
        optional={"g_min": _num(1e-3, 0.5), "g_max": _num(1e-3, 0.5)},
    ),
    "bosonic": st.fixed_dictionaries(
        {"n_chain": _int(2, 11)},
        optional={"g": _num(1e-3, 0.5), "kt_over_omega": _small_list(_num(0.1, 100.0), 2)},
    ),
    "mirror-verify": st.fixed_dictionaries(
        {"mirror_sizes": _small_list(_int(1, 8)), "swap_chain_length": _int(2, 8)},
        optional={
            "lattice_text": st.text(alphabet="R.#\n", max_size=20),
            "lattice_rows": _int(1, 5),
            "lattice_cols": _int(1, 5),
            "hole_fraction": _num(0.0, 0.5),
        },
    ),
}


class TestFuzzConfigs:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=st.sampled_from(sorted(_FUZZ_DOCS)).flatmap(
        lambda kind: st.tuples(st.just(kind), _FUZZ_DOCS[kind])))
    # the derandomized draws almost never reach the non-finite edges of
    # _num, so every subcommand with a float key runs one of them here
    @example(case=("disorder-sweep", {"n_chain": 4, "realizations": 1, "t1_ms": [math.nan]}))
    @example(case=("strong-scan", {"n_list": [4, 6], "n_times": 10, "g_grid": [0.0, math.inf, 3]}))
    @example(case=("perturbative", {"n_chain": 5, "n_g": 2, "g_max": -math.inf}))
    @example(case=("bosonic", {"n_chain": 3, "kt_over_omega": [math.nan]}))
    @example(case=("mirror-verify", {"mirror_sizes": [2], "swap_chain_length": 2,
                                     "hole_fraction": math.inf}))
    def test_exit_code_in_contract(self, case):
        command, doc = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(doc))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main([command, "--config", str(path), "--out", str(Path(tmp) / "out")])
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_RESOURCE)
        if code != cli.EXIT_OK:
            assert err.getvalue().count("\n") == 1
