"""Reproducible experiment sweeps with CSV output.

Each subcommand reproduces one figure-level result as plain data files:
a CSV whose body is deterministic for a given config + seed (metadata
lines are ``#``-prefixed) plus a sidecar JSON summary carrying the
config hash, seeds and wall time.

Physical units (kHz, nm, ms) are converted to internal units (couplings
in kappa, positions in the mean spacing d) at this boundary only: times
are measured in 1/kappa with kappa in cycles, so T1[1/kappa] = T1[ms] *
kappa[kHz].  Exact runs use the one protocol of ``ed.EncodedProtocolEngine``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
import warnings
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import __version__
from .chains import (
    ChainSpec,
    DisorderSpec,
    FromPositions,
    ModelKind,
    RangeRule,
    Uniform,
    build_single_particle_matrix,
    nearest_neighbor_bonds,
    sample_positions,
)
from .dynamics import (
    EigenmodeSet,
    _dstevd,
    end_modes,
    mode_budget,
    participation_ratio,
    propagator,
    transfer_elements,
    bosonic_swap_and_thermal_error,
)
from .ed import EncodedProtocolEngine, ResourceLimitError
from .fidelity import f_encoded, perturbative_infidelity
from . import mirror as mirror_mod

__all__ = [
    "ExperimentConfig",
    "ResultTable",
    "ConfigError",
    "run_disorder_sweep",
    "run_strong_coupling_scan",
    "run_dipolar_ed",
    "run_perturbative_check",
    "run_bosonic_demo",
    "run_mirror_verify",
    "main",
]

EXIT_OK, EXIT_CONFIG, EXIT_RESOURCE = 0, 2, 3


class ConfigError(ValueError):
    """The configuration document is malformed or fails its schema."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_COMMON_PROPS = {"seed": {"type": "integer", "minimum": 0}}

# each entry of a list writes its own CSV rows: a repeated entry is rejected
_NUMBER_LIST = {"type": "array", "minItems": 1, "uniqueItems": True, "items": {"type": "number"}}
_INT_LIST = {**_NUMBER_LIST, "items": {"type": "integer", "minimum": 1}}

PARAM_SCHEMAS: dict[str, dict] = {
    "disorder-sweep": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            "n_chain": {"type": "integer", "minimum": 2, "default": 51},
            "kappa_khz": {"type": "number", "exclusiveMinimum": 0, "default": 50.0},
            "d_nm": {"type": "number", "exclusiveMinimum": 0, "default": 10.0},
            "sigma_d_nm": {
                **_NUMBER_LIST, "items": {"type": "number", "minimum": 0},
                "default": [0.0, 0.5, 1.0, 10.0 / 6.0],
            },
            "t1_ms": {
                **_NUMBER_LIST, "items": {"type": "number", "exclusiveMinimum": 0},
                "default": [200.0, 5000.0],
            },
            "g_max": {"type": "number", "exclusiveMinimum": 0, "default": 0.5},
            "pr_bins": {"type": "integer", "minimum": 2, "default": 16},
            "realizations": {"type": "integer", "minimum": 1, "default": 200},
            **_COMMON_PROPS,
        },
    },
    "strong-scan": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            # a repeated length would weigh twice in the exponent fit
            "n_list": {**_INT_LIST, "default": list(range(10, 101, 5))},
            # [g_lo, g_hi, n]: g_lo < g_hi is checked by the runner
            "g_grid": {
                "type": "array",
                "prefixItems": [
                    {"type": "number", "minimum": 0},
                    {"type": "number"},
                    {"type": "integer", "minimum": 1},
                ],
                "minItems": 3,
                "maxItems": 3,
                "default": [0.25, 1.2, 39],
            },
            "n_times": {"type": "integer", "minimum": 10, "default": 600},
            **_COMMON_PROPS,
        },
    },
    "dipolar-ed": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            "models": {
                "type": "array",
                "minItems": 1, "uniqueItems": True,
                "items": {"enum": [rule.value for rule in RangeRule]},
                "default": [rule.value for rule in RangeRule],
            },
            # the chain is total_spins - 4 spins long and needs at least 2
            "total_spins": {
                **_INT_LIST, "items": {"type": "integer", "minimum": 6},
                "default": [6, 8, 10, 12],
            },
            # 15 qubits already need 2.5-6.8 GB of sector blocks
            "cap": {"type": "integer", "minimum": 6, "maximum": 15, "default": 14},
            **_COMMON_PROPS,
        },
    },
    "perturbative": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            "n_chain": {"type": "integer", "minimum": 2, "default": 51},
            "g_min": {"type": "number", "exclusiveMinimum": 0, "default": 0.002},
            "g_max": {"type": "number", "exclusiveMinimum": 0, "default": 0.4},
            "n_g": {"type": "integer", "minimum": 2, "default": 25},
            **_COMMON_PROPS,
        },
    },
    "bosonic": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            "n_chain": {"type": "integer", "minimum": 2, "default": 9},
            "g": {"type": "number", "exclusiveMinimum": 0, "default": 0.01},
            "kt_over_omega": {
                **_NUMBER_LIST, "items": {"type": "number", "exclusiveMinimum": 0},
                "default": [1.0, 10.0, 100.0],
            },
            **_COMMON_PROPS,
        },
    },
    "mirror-verify": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            "mirror_sizes": {**_INT_LIST, "default": [1, 2, 4, 8, 16, 32, 64, 128, 256, 512]},
            "swap_chain_length": {"type": "integer", "minimum": 2, "default": 16},
            "lattice_text": {"type": "string"},
            "lattice_rows": {"type": "integer", "minimum": 1, "default": 8},
            "lattice_cols": {"type": "integer", "minimum": 1, "default": 8},
            "hole_fraction": {"type": "number", "minimum": 0, "maximum": 0.5, "default": 0.1},
            **_COMMON_PROPS,
        },
    },
}

# The schemas are checked in-tree, by the subset of JSON Schema 2020-12
# that they use.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    # the runners need a Python int: a bool or an integer-valued float such
    # as 20.0 is no "integer", and a bool is no "number" either
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
}
# "default" is an annotation and checks nothing
_KEYWORDS = frozenset({
    "type", "properties", "additionalProperties", "items", "prefixItems", "minItems",
    "maxItems", "uniqueItems", "enum", "minimum", "exclusiveMinimum", "maximum", "default",
})


def _check_schema(schema: dict, where: str = "schema") -> None:
    """``ValueError`` unless ``schema`` uses only the keywords :func:`_validate` knows."""
    unknown = sorted(set(schema) - _KEYWORDS)
    if unknown:
        raise ValueError(f"{where}: keywords {unknown} are not checked")
    if "type" in schema and schema["type"] not in _TYPES:
        raise ValueError(f"{where}: type {schema['type']!r} is not checked")
    if not isinstance(schema.get("additionalProperties", False), bool):
        raise ValueError(f"{where}: additionalProperties must be true or false")
    for key, sub in schema.get("properties", {}).items():
        _check_schema(sub, f"{where}.{key}")
    for i, sub in enumerate(schema.get("prefixItems", [])):
        _check_schema(sub, f"{where}[{i}]")
    if "items" in schema:
        _check_schema(schema["items"], f"{where}[]")


def _json_key(v):
    """A hashable key, equal for two values exactly when JSON counts them equal.

    1 and 1.0 are one number, but true is not 1.
    """
    if isinstance(v, list):
        return ("array", tuple(map(_json_key, v)))
    if isinstance(v, dict):
        return ("object", frozenset((k, _json_key(x)) for k, x in v.items()))
    return ("boolean" if isinstance(v, bool) else "scalar", v)


def _validate(value, schema: dict, where: str = "") -> None:
    """``ConfigError`` naming the key where ``value`` first fails ``schema``.

    Each keyword checks only values of its own JSON type, as in JSON
    Schema: ``minimum`` passes a string, ``items`` an object.
    """

    def fail(message: str):
        raise ConfigError(f"config fails schema: {where + ': ' if where else ''}{message}")

    if "type" in schema and not _TYPES[schema["type"]](value):
        fail(f"{value!r} is not of type {schema['type']!r}")
    if "enum" in schema and _json_key(value) not in map(_json_key, schema["enum"]):
        fail(f"{value!r} is not one of {schema['enum']!r}")
    if _TYPES["number"](value):
        if value < schema.get("minimum", value):
            fail(f"{value!r} is less than the minimum of {schema['minimum']!r}")
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            fail(f"{value!r} is not greater than {schema['exclusiveMinimum']!r}")
        if value > schema.get("maximum", value):
            fail(f"{value!r} is greater than the maximum of {schema['maximum']!r}")
    elif isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            fail(f"{value!r} has fewer than {schema['minItems']} items")
        if len(value) > schema.get("maxItems", len(value)):
            fail(f"{value!r} has more than {schema['maxItems']} items")
        if schema.get("uniqueItems") and len(set(map(_json_key, value))) < len(value):
            fail(f"{value!r} has non-unique elements")
        prefix = schema.get("prefixItems", [])
        for i, item in enumerate(value):
            sub = prefix[i] if i < len(prefix) else schema.get("items")
            if sub is not None:
                _validate(item, sub, f"{where}[{i}]")
    elif isinstance(value, dict):
        props = schema.get("properties", {})
        for key, item in value.items():
            if key in props:
                _validate(item, props[key], f"{where}.{key}" if where else key)
            elif schema.get("additionalProperties", True) is False:
                fail(f"unexpected key {key!r}")


# at import: an unknown keyword must not be ignored silently
for _kind, _schema in PARAM_SCHEMAS.items():
    _check_schema(_schema, _kind)


# "default" is an annotation: validation ignores it
DEFAULT_PARAMS: dict[str, dict] = {
    kind: {k: v["default"] for k, v in schema["properties"].items() if "default" in v}
    for kind, schema in PARAM_SCHEMAS.items()
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved experiment: kind, parameters, seed, output paths."""

    kind: str
    params: dict
    seed: int = 0
    out: str = "results"

    @property
    def config_hash(self) -> str:
        # the output location does not affect the results, so two runs of
        # the same experiment hash identically wherever they are written
        d = {k: v for k, v in asdict(self).items() if k != "out"}
        return hashlib.sha256(
            json.dumps(d, sort_keys=True).encode()
        ).hexdigest()[:16]


def _finite_number(text: str) -> float:
    """A JSON number or constant as a finite float, else ``ConfigError``."""
    # json.loads accepts NaN and Infinity and reads 1e999 as inf, and no
    # schema bound rejects NaN: every comparison with it is false
    x = float(text)
    if not math.isfinite(x):
        raise ConfigError(f"config number {text} is not finite")
    return x


def resolve_config(
    kind: str,
    config_path: str | None,
    seed: int | None,
    out: str | None,
    realizations: int | None,
) -> ExperimentConfig:
    """Merge defaults, the optional config document and CLI overrides.

    The merged document is validated once against the experiment's
    schema, so a flag is held to the same bounds as a config key.
    ``realizations`` is a disorder-sweep parameter; other schemas reject it.
    """
    if kind not in PARAM_SCHEMAS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    merged = {**DEFAULT_PARAMS[kind], "seed": 0}
    if config_path is not None:
        try:
            doc = json.loads(
                Path(config_path).read_text(),
                parse_float=_finite_number,
                parse_constant=_finite_number,
            )
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        merged.update(doc)
    for key, val in (("seed", seed), ("realizations", realizations)):
        if val is not None:
            merged[key] = val
    _validate(merged, PARAM_SCHEMAS[kind])
    seed = merged.pop("seed")
    return ExperimentConfig(kind, merged, seed, out or "results")


# ---------------------------------------------------------------------------
# result tables
# ---------------------------------------------------------------------------


@dataclass
class ResultTable:
    """Column-labeled rows plus run metadata (written as # comment lines)."""

    name: str
    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(f"expected {len(self.columns)} values, got {len(values)}")
        self.rows.append(tuple(values))

    def write_csv(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            for key in sorted(self.metadata):
                fh.write(f"# {key} = {self.metadata[key]}\n")
            writer = csv.writer(fh)
            writer.writerow(self.columns)
            for row in self.rows:
                writer.writerow(
                    [f"{v:.12g}" if isinstance(v, float) else v for v in row]
                )


def _check_out_dir(out: str) -> None:
    """``NotADirectoryError`` unless ``out`` is a directory or could be made one.

    The path or, if it does not exist, its nearest existing ancestor must
    be a directory.  Nothing is created: a run that fails leaves no
    output directory behind.
    """
    path = Path(out).absolute()
    while not path.exists():
        path = path.parent
    if not path.is_dir():
        raise NotADirectoryError(f"not a directory: {path}")


def _write_outputs(
    config: ExperimentConfig, tables: list[ResultTable], summary: dict, t0: float
) -> list[Path]:
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for table in tables:
        table.metadata.setdefault("config_hash", config.config_hash)
        table.metadata.setdefault("master_seed", config.seed)
        table.metadata.setdefault("version", __version__)
        p = out_dir / f"{config.kind}_{table.name}.csv"
        table.write_csv(p)
        paths.append(p)
    sidecar = out_dir / f"{config.kind}_summary.json"
    sidecar.write_text(
        json.dumps(
            {
                "config": asdict(config),
                "config_hash": config.config_hash,
                "master_seed": config.seed,
                "wall_time_s": time.perf_counter() - t0,
                "version": __version__,
                "tables": [p.name for p in paths],
                **summary,
            },
            indent=2,
            sort_keys=True,
        )
    )
    paths.append(sidecar)
    return paths


def _fmean(values) -> float:
    """Compensated mean so realization order cannot change the result."""
    values = list(values)
    return math.fsum(values) / len(values)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


# bytes of one (realizations, N, N) array of a disorder-sweep chunk; larger
# chunks were no faster and raised the process's peak RSS
_SWEEP_CHUNK_BYTES = 2**17


def run_disorder_sweep(config: ExperimentConfig) -> tuple[list[ResultTable], dict]:
    """Fidelity grid over (positioning disorder, T1) plus PR histograms.

    Per realization: sample site positions, take the cube-law
    nearest-neighbor bonds, pick the best transfer mode with its optimal
    matched coupling, and score 1 - (off-resonant + decoherence) error.
    Realizations are scored in chunks of max(1, _SWEEP_CHUNK_BYTES // 8N^2):
    one position draw and one ``dstevd`` per realization, then one mode
    budget of the stacked chunk serves every T1 and is dropped.  A chunk
    holds two (chunk, N, N) float arrays, its eigenvectors and its gaps,
    each under 128 KiB (6 realizations at N = 51), or one chain's N x N
    array when that alone is larger (N > 128).  The summary counts, per
    (sigma_d, T1), the realizations with no usable, non-degenerate mode
    and those clipped at eps >= 1; both score fidelity 0.
    """
    p = config.params
    N = p["n_chain"]
    d = p["d_nm"]
    kappa_khz = p["kappa_khz"]
    grid = ResultTable(
        "fidelity_grid",
        (
            "sigma_d_nm",
            "sigma_kappa_over_kappa",
            "t1_ms",
            "t1_kappa_units",
            "mean_best_fidelity",
            "n_realizations",
        ),
        metadata={
            "n_chain": N,
            "kappa_khz": kappa_khz,
            "d_nm": d,
            "g_max": p["g_max"],
            "units": "internal times in 1/kappa; T1[1/kappa] = T1[ms]*kappa[kHz]",
        },
    )
    hist = ResultTable(
        "pr_histogram",
        ("sigma_d_nm", "sigma_kappa_over_kappa", "pr_bin_lo", "pr_bin_hi", "count"),
        metadata={"n_chain": N, "kappa_khz": kappa_khz, "d_nm": d},
    )
    t1_kappa = [t1_ms * kappa_khz for t1_ms in p["t1_ms"]]  # ms * kHz = kappa units
    R = p["realizations"]
    chunk = max(1, _SWEEP_CHUNK_BYTES // (8 * N * N))
    zero_field = np.zeros(N)
    counts = []

    for sigma_nm in p["sigma_d_nm"]:
        spec = DisorderSpec(sigma_nm / d, master_seed=config.seed)
        best = [[] for _ in t1_kappa]  # per T1, each realization's lowest eps
        bond_samples, prs = [], []  # of the first 50 realizations
        for start in range(0, R, chunk):
            streams = range(start, min(start + chunk, R))
            bonds = nearest_neighbor_bonds([sample_positions(spec, N, s) for s in streams])
            energies = np.empty((len(streams), N))
            vectors = np.empty((len(streams), N, N))
            for r, b in enumerate(bonds):
                energies[r], vectors[r] = _dstevd(zero_field, b)
            kept = max(0, 50 - start)
            bond_samples.append(bonds[:kept])
            prs.extend(participation_ratio(v) for v in vectors[:kept])
            budget = mode_budget(EigenmodeSet(energies, vectors, chiral=True))
            for i, T1 in enumerate(t1_kappa):
                best[i].append(budget.errors(p["g_max"], T1)[-1].min(axis=-1))
        sigma_kappa = float(np.std(np.concatenate(bond_samples, axis=None)))
        for i, (t1_ms, T1) in enumerate(zip(p["t1_ms"], t1_kappa)):
            eps = np.concatenate(best[i])
            no_mode = np.isinf(eps)  # eps is inf exactly when no mode is a candidate
            # a realization with no mode or eps >= 1 scores 0
            grid.add(sigma_nm, sigma_kappa, t1_ms, T1, _fmean(1.0 - np.minimum(eps, 1.0)), R)
            counts.append({
                "sigma_d_nm": sigma_nm,
                "t1_ms": t1_ms,
                "realizations": R,
                "no_transfer_mode": int(no_mode.sum()),
                "clipped": int(np.count_nonzero(eps[~no_mode] >= 1.0)),
            })
        bins = np.linspace(1.0, N, p["pr_bins"] + 1)
        pr_counts, edges = np.histogram(np.concatenate(prs), bins=bins)
        for lo, hi, c in zip(edges[:-1], edges[1:], pr_counts):
            hist.add(sigma_nm, sigma_kappa, float(lo), float(hi), int(c))
    return [grid, hist], {"realization_counts": counts}


def _uniform_k(N: int, g: float, register_field: float | None = None) -> np.ndarray:
    """Hopping matrix of a uniform chain (kappa = 1) with both end couplings g."""
    return build_single_particle_matrix(ChainSpec(
        ModelKind.XX, N, Uniform(1.0), g_left=g, g_right=g, register_field=register_field
    ))


# absolute tolerance of both Brent searches of the strong-scan polish
_XATOL = 1e-9
# the search never steps less than _SQRT_EPS |x| + _XATOL / 3; eps is
# written 2.2e-16, as scipy writes it, so that both evaluate the same points
_SQRT_EPS = math.sqrt(2.2e-16)
_MAXFUN = 500
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


@dataclass(frozen=True)
class BrentResult:
    """The best point ``x`` of a bounded Brent search, ``fun`` there, and its evaluations."""

    x: float
    fun: float
    success: bool
    nfev: int


def _sign(v: float) -> float:
    """-1.0 below 0, else 1.0 (at 0 too); NaN stays NaN."""
    return -1.0 if v < 0 else 1.0 if v >= 0 else v


def minimize(fun, lo: float, hi: float) -> BrentResult:
    """Brent's bounded minimum of the scalar ``fun`` on [lo, hi].

    Brent, *Algorithms for Minimization without Derivatives* (1973),
    ch. 5: golden-section steps, and parabolic ones through the three
    best points where the parabola is trusted.  It stops once the best
    point x lies within 2 (_SQRT_EPS |x| + _XATOL / 3) of the middle of
    a bracket that narrow, or after _MAXFUN evaluations (not a success).
    A NaN point or value is not a success either.  This is scipy's
    ``_minimize_scalar_bounded`` (scipy 1.17) at xatol = _XATOL, step
    for step: the same points evaluated in the same order, and the same
    result.  A module-level name, so that perfbench's tracer counts the
    searches and their evaluations.
    """
    a, b = float(lo), float(hi)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("Optimization bounds must be finite scalars.")
    if a > b:
        raise ValueError("The lower bound exceeds the upper bound.")
    # xf is the best point so far, nfc the second best, fulc the third
    xf = nfc = fulc = a + _GOLDEN * (b - a)
    fx = fnfc = ffulc = fun(xf)
    fu, num, rat, e = math.inf, 1, 0.0, 0.0
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + _XATOL / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            # less than half the step before last, and inside the bracket
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 * _sign(xm - xf)
        if golden:  # into the larger part of the bracket
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN * e
        # at least tol1, NaN carried through as by np.maximum
        size = abs(rat)
        if not (size >= tol1 or size != size):
            size = tol1
        x = xf + _sign(rat) * size
        fu = fun(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + _XATOL / 3.0
        tol2 = 2.0 * tol1
        if num >= _MAXFUN:
            return BrentResult(xf, fx, False, num)
    success = not (math.isnan(xf) or math.isnan(fx) or math.isnan(fu))
    return BrentResult(xf, fx, success, num)


def _on_edge(x: float, lo: float, hi: float) -> bool:
    """Whether a bounded Brent minimum at ``x`` lies on an end of [lo, hi].

    :func:`minimize` never evaluates closer to an end than
    _SQRT_EPS |x| + _XATOL / 3, and stops within two such steps of an
    end that holds the minimum; four mark the edge.
    """
    return bool(min(x - lo, hi - x) <= 4.0 * (_SQRT_EPS * abs(x) + _XATOL))


def _strong_coupling_optimum(N: int, g_grid, n_times: int):
    """Maximize the encoded-transfer fidelity (strong variant) over (g, t).

    A grid over ``g_grid`` and ``n_times`` evenly spaced times in
    [N/2, 2N] picks a coupling g_i.  A bounded Brent search over g in
    its neighbour cell [g_i - dg, g_i + dg] (dg the grid step, clipped to
    [g_lo, g_hi]) then polishes it.  Each g it tries costs one
    :func:`end_modes` solve: the chain's row of fidelities on the time
    grid picks a time t_j, and an inner bounded Brent search over t in
    [t_{j-1}, t_{j+1}] (inside [N/2, 2N]) reuses the same end modes.

    Returns (g, t, F, converged, polish).  ``converged`` holds only if
    both searches report success, neither optimum lies on an end of its
    bracket, and F is at least the grid's best.  A polish that ends below
    the grid's best found a lesser local optimum: the grid's best point
    (g_i, the argmax time of its row, its F) is returned in its place,
    not converged.  ``polish`` counts the solves, in all and by route
    (the spectrum of the mirror-symmetric chain, or ``dstevd`` where
    :func:`end_modes` falls back, as at g = 0), and records the best grid
    fidelity and the two edge flags.
    """
    g_lo, g_hi, n_g = g_grid
    n_g = int(n_g)
    times = np.linspace(N / 2.0, 2.0 * N, n_times)
    solves = {True: 0, False: 0}  # by from_spectrum

    def row(g):
        """The chain's end modes and the fidelity at every grid time."""
        modes = end_modes(_uniform_k(N, g))
        solves[modes.from_spectrum] += 1
        return modes, f_encoded(transfer_elements(modes, times), "strong")

    grid = np.linspace(g_lo, g_hi, n_g)
    grid_rows = [row(g)[1] for g in grid]
    grid_f = [F.max() for F in grid_rows]
    i = int(np.argmax(grid_f))

    inner = {}  # g -> (t, inner search succeeded, t on its bracket edge)

    def neg_best(g):
        modes, F = row(g)
        j = int(np.argmax(F))
        lo, hi = times[max(j - 1, 0)], times[min(j + 1, n_times - 1)]
        res = minimize(lambda t: -f_encoded(transfer_elements(modes, t), "strong")[0], lo, hi)
        inner[g] = (float(res.x), bool(res.success), _on_edge(res.x, lo, hi))
        return res.fun

    step = (g_hi - g_lo) / max(n_g - 1, 1)
    lo, hi = max(g_lo, grid[i] - step), min(g_hi, grid[i] + step)
    res = minimize(neg_best, lo, hi)
    t, t_ok, t_edge = inner[res.x]
    g_edge = _on_edge(res.x, lo, hi)
    polish = {
        "n_chain": N,
        "eigensolves": solves[True] + solves[False],
        "spectrum_solves": solves[True],
        "dstevd_solves": solves[False],
        "grid_best_f": float(grid_f[i]),
        "g_on_bracket_edge": g_edge,
        "t_on_bracket_edge": t_edge,
    }
    F = float(-res.fun)
    if F < grid_f[i]:
        # the polish found a lesser local optimum: keep the grid's best point
        t_i = float(times[np.argmax(grid_rows[i])])
        return float(grid[i]), t_i, float(grid_f[i]), False, polish
    converged = bool(res.success and t_ok and not (g_edge or t_edge))
    return float(res.x), t, F, converged, polish


def run_strong_coupling_scan(config: ExperimentConfig) -> tuple[list[ResultTable], dict]:
    """Optimal end coupling g_M, transfer time and fidelity versus N, with fit."""
    p = config.params
    g_lo, g_hi, _ = p["g_grid"]
    if not g_lo < g_hi:
        raise ConfigError("g_grid must be [g_lo, g_hi, n] with g_lo < g_hi")
    table = ResultTable(
        "gm_scan",
        ("n_chain", "g_m", "tau", "f_encoded", "converged"),
        metadata={
            "time_window": "[N/2, 2N] in 1/kappa",
            "g_grid": p["g_grid"],
        },
    )
    results = [
        (N, *_strong_coupling_optimum(N, p["g_grid"], p["n_times"])) for N in p["n_list"]
    ]
    for N, g_m, tau, F, ok, _ in results:
        table.add(N, g_m, tau, F, int(ok))
    fit_rows = [(N, g) for N, g, _, _, ok, _ in results if ok]
    if len({N for N, _ in fit_rows}) < 2:
        raise ConfigError("the exponent fit needs at least two distinct converged chain lengths")
    logN = np.log([r[0] for r in fit_rows])
    logG = np.log([r[1] for r in fit_rows])
    slope, intercept = np.polyfit(logN, logG, 1)
    table.metadata["fit_exponent"] = float(slope)
    table.metadata["fit_prefactor"] = float(np.exp(intercept))
    summary = {
        "fit_exponent": float(slope),
        "fit_prefactor": float(np.exp(intercept)),
        "polish": [r[-1] for r in results],
    }
    return [table], summary


# an nn_analytic_gap or |infidelity| below this is rounding noise and is
# written as 0.0, so the CSV body does not depend on the exact engine's
# order of arithmetic
_GAP_FLOOR = 1e-12


# significant digits of the dipolar-ed grid centre: the Brent searches fix
# the strong-scan optimum to about 1.5e-8 relative, so rounding keeps the
# grid, and the CSV body, off the searches' last digits
_CENTRE_DIGITS = 6


def _round_sig(x: float) -> float:
    """``x`` rounded to ``_CENTRE_DIGITS`` significant decimal digits."""
    return float(f"{x:.{_CENTRE_DIGITS - 1}e}")


def run_dipolar_ed(config: ExperimentConfig) -> tuple[list[ResultTable], dict]:
    """Exact encoded-transfer infidelity versus total spin count per model.

    For each size the protocol parameters (g, t) are optimized on a local
    grid around the nearest-neighbor strong-coupling optimum (g0, t0),
    rounded to ``_CENTRE_DIGITS`` significant digits; the
    nearest-neighbor rows double as an oracle check against the analytic
    fidelity.  A gap or an |infidelity| below ``_GAP_FLOOR`` is written
    as 0.0.  The summary's ``grid_optima`` lists per CSV row the largest
    sector dimension, how many sectors of the best engine's active
    Hamiltonian were eigensolved as parity blocks and how many whole, and
    whether the best g or t lies on an end of its grid.
    """
    p = config.params
    table = ResultTable(
        "infidelity",
        ("model", "total_spins", "n_chain", "g", "t", "infidelity",
         "fidelity", "nn_analytic_gap"),
        metadata={
            "grid": "g in g0*[0.7..1.3] (5 pts; 3 at >= 12 spins), "
                    "t in t0*[0.7..1.3] (13 pts; 5 at >= 12 spins), "
                    f"(g0, t0) the strong-scan optimum rounded to {_CENTRE_DIGITS} significant digits",
            "positions": "unit spacing, cube-law couplings",
            "nn_analytic_gap_floor": _GAP_FLOOR,
            "infidelity_floor": _GAP_FLOOR,
        },
    )
    rows = []
    for n_total in p["total_spins"]:
        N = n_total - 4
        g0, t0 = (_round_sig(x) for x in _strong_coupling_optimum(N, (0.3, 1.1, 17), 400)[:2])
        big = n_total >= 12
        g_vals = g0 * np.linspace(0.7, 1.3, 3 if big else 5)
        t_vals = t0 * np.linspace(0.7, 1.3, 5 if big else 13)
        for model in p["models"]:
            pattern = FromPositions(range(N), model)
            Ks = [
                build_single_particle_matrix(
                    ChainSpec(ModelKind.XX, N, pattern, g_left=g, g_right=g)
                )
                for g in g_vals
            ]
            best = None
            solves = []
            for i, K in enumerate(Ks):
                engine = EncodedProtocolEngine(K, cap=p["cap"])
                solves.append((engine.split_sectors, engine.whole_sectors))
                for j, res in enumerate(engine.fidelities(t_vals)):
                    F = res.fidelity_phase_corrected
                    if best is None or F > best[0]:
                        best = (F, i, j)
            F, i, j = best
            g, t = float(g_vals[i]), float(t_vals[j])
            gap = math.nan
            if pattern.rule is RangeRule.NEAREST_NEIGHBOR:
                gap = abs(F - f_encoded(propagator(Ks[i], t), "strong"))
                gap = 0.0 if gap < _GAP_FLOOR else gap
            infidelity = 1.0 - F
            infidelity = 0.0 if abs(infidelity) < _GAP_FLOOR else infidelity
            table.add(model, n_total, N, g, t, infidelity, F, gap)
            rows.append({
                "model": model,
                "total_spins": n_total,
                "sector_dim_max": math.comb(n_total, n_total // 2),
                "sectors_split": solves[i][0],
                "sectors_whole": solves[i][1],
                "g_on_grid_edge": i in (0, len(g_vals) - 1),
                "t_on_grid_edge": j in (0, len(t_vals) - 1),
            })
    return [table], {"grid_optima": rows}


def run_perturbative_check(config: ExperimentConfig) -> tuple[list[ResultTable], dict]:
    """Weak-coupling estimates versus the exact propagator over a g grid."""
    p = config.params
    N = p["n_chain"]
    g_break = 1.0 / math.sqrt(N)
    table = ResultTable(
        "perturbative",
        ("g", "t", "transfer_infid_exact", "transfer_infid_estimate",
         "transfer_rel_err", "return_deficit_exact", "return_deficit_estimate",
         "within_window"),
        metadata={"n_chain": N, "breakdown_g": g_break},
    )
    for g in np.geomspace(p["g_min"], p["g_max"], p["n_g"]):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            est = perturbative_infidelity(N, float(g))
        K = _uniform_k(N, g, est.register_field)
        M = propagator(K, est.transfer_time)
        exact_t = 1.0 - abs(M[0, -1]) ** 2
        # the return amplitude is probed after the full out-and-back period
        M2 = propagator(K, 2.0 * est.transfer_time)
        exact_r = abs(1.0 - M2[0, 0])
        ret_est = est.return_deficit if est.return_deficit is not None else math.nan
        rel = abs(exact_t - est.transfer_infidelity) / exact_t if exact_t > 0 else 0.0
        table.add(
            float(g), est.transfer_time, exact_t, est.transfer_infidelity,
            rel, exact_r, ret_est, int(g <= g_break),
        )
    return [table], {}


def run_bosonic_demo(config: ExperimentConfig) -> tuple[list[ResultTable], dict]:
    """Oscillator-chain mode swap and thermal excess-noise scaling.

    The register couples at rescaled strength g*sqrt(omega/kT) to a chain
    whose thermal occupation is kT/omega; the leaked excess noise should
    then be temperature independent.
    """
    p = config.params
    N = p["n_chain"]
    if N % 2 == 0:
        raise ConfigError("bosonic demo expects an odd chain (zero-mode transfer)")
    table = ResultTable(
        "bosonic",
        ("kt_over_omega", "g_eff", "tau", "swap_amplitude", "epsilon",
         "n_out", "excess_noise"),
        metadata={"n_chain": N, "g": p["g"]},
    )
    z_amp = math.sqrt(2.0 / (N + 1)) * abs(math.sin(math.pi * ((N + 1) // 2) / (N + 1)))
    for x in p["kt_over_omega"]:
        g_eff = p["g"] * math.sqrt(1.0 / x)
        tau = math.pi / (math.sqrt(2.0) * g_eff * z_amp)
        M = propagator(_uniform_k(N, g_eff), tau)
        res = bosonic_swap_and_thermal_error(M, float(x))
        table.add(
            float(x), g_eff, tau, abs(M[-1, 0]), res.epsilon,
            res.n_out, res.n_out,
        )
    return [table], {}


def _random_lattice(rows: int, cols: int, hole_fraction: float, seed: int) -> mirror_mod.LatticeMap:
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    kinds = [["."] * cols for _ in range(rows)]
    n_holes = int(round(rows * cols * hole_fraction))
    protected = {(0, 0), (rows - 1, cols - 1)}
    candidates = [(r, c) for r in range(rows) for c in range(cols) if (r, c) not in protected]
    if n_holes > len(candidates):
        raise ConfigError(
            f"hole_fraction {hole_fraction} asks for {n_holes} holes, but a {rows} x {cols} "
            f"lattice has {len(candidates)} sites besides its two corner registers"
        )
    for i in rng.choice(len(candidates), size=n_holes, replace=False):
        r, c = candidates[int(i)]
        kinds[r][c] = "#"
    kinds[0][0] = "R"
    kinds[rows - 1][cols - 1] = "R"
    return mirror_mod.LatticeMap.from_text("\n".join("".join(r) for r in kinds))


def _count_layers(traffic: dict, program: mirror_mod.PulseProgram) -> None:
    traffic["layers"] += program.n_layers
    traffic["layer_objects"] += len({id(layer) for layer in program.layers})


def run_mirror_verify(config: ExperimentConfig) -> tuple[list[ResultTable], dict]:
    """Verification sweep of the mirror-architecture constructions.

    The summary's ``layer_traffic`` gives per construct the layers the
    tableau applied and the distinct layer objects they were made of
    (``repeat`` shares its layers); a route that found no plan adds none.
    """
    p = config.params
    if "lattice_text" in p:
        try:
            lattice = mirror_mod.LatticeMap.from_text(p["lattice_text"])
        except ValueError as exc:
            raise ConfigError(f"lattice_text: {exc}") from exc
    else:
        lattice = _random_lattice(
            p["lattice_rows"], p["lattice_cols"], p["hole_fraction"], config.seed
        )
    regs = lattice.registers()
    if len(regs) < 2:
        raise ConfigError(f"routing needs two register sites R; the lattice has {len(regs)}")
    table = ResultTable(
        "verification",
        ("construct", "size", "status", "detail"),
        metadata={"swap_chain_length": p["swap_chain_length"]},
    )
    traffic = {c: {"layers": 0, "layer_objects": 0} for c in ("mirror", "propagated_swap", "route")}
    for n in p["mirror_sizes"]:
        program = mirror_mod.mirror_program(n)
        _count_layers(traffic["mirror"], program)
        try:
            corr = mirror_mod.verify_mirror(program, n)
            table.add("mirror", n, "pass", f"X0->{corr[0][0]} Z0->{corr[0][1]}")
        except AssertionError as exc:
            table.add("mirror", n, "fail", str(exc))
    L = p["swap_chain_length"]
    for k in range(1, L):
        program = mirror_mod.propagated_swap(k, range(L))
        _count_layers(traffic["propagated_swap"], program)
        try:
            mirror_mod.verify_swap(program, L, (k - 1, k))
            table.add("propagated_swap", k, "pass", f"swap({k},{k + 1}) exact")
        except AssertionError as exc:
            table.add("propagated_swap", k, "fail", str(exc))
    src, dst = regs[0], regs[-1]
    try:
        plan = mirror_mod.route(lattice, src, dst)
        _count_layers(traffic["route"], plan.program)
        table.add(
            "route", f"{lattice.n_rows}x{lattice.n_cols}", "pass",
            f"{len(plan.moves)} moves, {plan.total_layers} layers",
        )
    except (mirror_mod.RoutingError, AssertionError) as exc:
        table.add("route", f"{lattice.n_rows}x{lattice.n_cols}", "error", str(exc))
    return [table], {"layer_traffic": traffic}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_RUNNERS = {
    "disorder-sweep": run_disorder_sweep,
    "strong-scan": run_strong_coupling_scan,
    "dipolar-ed": run_dipolar_ed,
    "perturbative": run_perturbative_check,
    "bosonic": run_bosonic_demo,
    "mirror-verify": run_mirror_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinbus",
        description="Spin-chain state-transfer experiment sweeps (CSV output). "
        "The mirror-verify config key lattice_text takes one character per "
        "site: R register, . impurity, # hole.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in _RUNNERS:
        sp = sub.add_parser(kind, help=f"run the {kind} experiment")
        sp.add_argument("--config", help="JSON parameter document (schema-validated)")
        sp.add_argument("--seed", type=int, help="master seed (default 0)")
        sp.add_argument("--out", help="output directory (default ./results)")
        if kind == "disorder-sweep":
            default = PARAM_SCHEMAS[kind]["properties"]["realizations"]["default"]
            sp.add_argument("--realizations", type=int, help=f"ensemble size (default {default})")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on an argument error, 0 after --help
        return EXIT_CONFIG if exc.code else EXIT_OK
    t0 = time.perf_counter()
    try:
        config = resolve_config(
            args.command, args.config, args.seed, args.out, getattr(args, "realizations", None)
        )
        _check_out_dir(config.out)  # before the run, which can take seconds
        tables, summary = _RUNNERS[config.kind](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ResourceLimitError, MemoryError) as exc:  # e.g. a dense K of an impossible size
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except NotADirectoryError as exc:  # only _check_out_dir: the runners touch no files
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        paths = _write_outputs(config, tables, summary, t0)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for p in paths:
        print(f"wrote {p}")
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
