"""Span tracer that wraps spinbus functions from outside the package.

``Tracer.install`` replaces every binding of each public function of the
spinbus modules (the module attribute, any ``from ... import`` copy in
another spinbus module, and public methods of public classes) with a
wrapper that records one span per call.  Spans stay in memory; per-name
call counts, self time (span minus its child spans) and error counts are
accumulated as the spans close.  ``uninstall`` restores the originals.

Standard library only, so importing it does not skew the set-up time.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

_clock = time.perf_counter

# cli keeps its own helpers (argument parsing, config resolution, CSV and
# JSON writing) unwrapped, so their time shows as ``cli.main`` self time;
# runner-private helpers such as ``_strong_coupling_optimum`` count as
# runner self time.
TRACED_MODULES = ("chains", "dynamics", "fidelity", "ed", "mirror")
COUNTERS = ("ed.sector_entries", "ed.dim_max", "mirror.qubit_layers", "cli.minimize.nfev")


class Tracer:
    """Records spans (name, parent, start, end) and per-name aggregates."""

    def __init__(self):
        self.spans: list[tuple[str, int, float, float]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[list] = []  # [span index, child seconds]
        self._undo: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _wrap(self, fn, name: str, on_return=None):
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[name] += 1
                raise
            finally:
                end = _clock()
                stack.pop()
                duration = end - start
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                spans[index] = (name, parent[0] if parent else -1, start, end)
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
            if on_return is not None:
                on_return(args, result)
            return result

        return wrapper

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    # -- installation ---------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions and methods of ``package``'s modules."""
        cli = package.cli
        modules = {m: getattr(package, m) for m in TRACED_MODULES}
        hooks = self._counter_hooks()
        wrappers = {}  # id(original function) -> wrapper
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{short}.{attr}"
                    wrappers[id(obj)] = self._wrap(obj, name, hooks.get(name))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for m_attr, meth in list(vars(obj).items()):
                        if (m_attr.startswith("_") or not inspect.isfunction(meth)
                                or inspect.isgeneratorfunction(meth)):
                            continue
                        name = f"{short}.{obj.__name__}.{m_attr}"
                        self._replace(obj, m_attr, self._wrap(meth, name, hooks.get(name)))
        # every binding of a wrapped function, including from-imports in cli
        for mod in (*modules.values(), cli):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._replace(mod, attr, wrappers[id(obj)])
        self._replace(cli, "main", self._wrap(cli.main, "cli.main"))
        for attr, obj in list(vars(cli).items()):
            if attr.startswith("run_") and inspect.isfunction(obj):
                self._replace(cli, attr, self._wrap(obj, f"cli.{attr}"))
        # the runner table holds the runners by value
        runners = getattr(cli, "_RUNNERS", {})
        for kind, fn in list(runners.items()):
            wrapped = getattr(cli, fn.__name__, None)
            if wrapped is not None and wrapped is not fn:
                self._undo.append((runners, kind, fn))
                runners[kind] = wrapped
        self._replace(cli, "minimize", self._wrap(cli.minimize, "cli.minimize", hooks["cli.minimize"]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def _counter_hooks(self) -> dict:
        """Exact work counters read from call arguments and return values."""
        counters = self.counters

        def built(args, H):
            counters["ed.sector_entries"] += sum(b.shape[0] ** 2 for b in H.blocks)
            counters["ed.dim_max"] = max(counters["ed.dim_max"], 1 << H.n)

        def layer(args, _):
            counters["mirror.qubit_layers"] += args[0].n

        def minimized(args, res):
            counters["cli.minimize.nfev"] += int(res.nfev)

        return {
            "ed.build_many_body": built,
            "mirror.Tableau.apply_cz": layer,
            "mirror.Tableau.apply_hadamard": layer,
            "mirror.Tableau.apply_local": layer,
            "cli.minimize": minimized,
        }

    # -- results ----------------------------------------------------------------

    def untraced_s(self, start: float, end: float) -> float:
        """Time inside [start, end] that no top-level span covers."""
        covered = sum(e - s for _, parent, s, e in self.spans if parent < 0)
        return (end - start) - covered

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,parent,start_s,end_s\n")
            t0 = self.spans[0][2] if self.spans else 0.0
            for i, (name, parent, s, e) in enumerate(self.spans):
                fh.write(f"{i},{name},{parent},{s - t0:.9f},{e - t0:.9f}\n")
