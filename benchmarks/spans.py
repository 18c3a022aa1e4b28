"""Span recording around pfa's module boundaries, from outside the program.

A Tracer replaces module attributes (the names one pfa module imported from
another, plus a few entry points the harness calls through its own globals)
with wrappers that record a span per call: name, start, end, parent and a
few call facts. Spans stay in memory; the runner writes them out when the
run ends. Nothing inside `src/` is changed: every wrapper is removed again
when the tracer is closed.

The span name is `<module>.<function>` of the module that *defines* the
function, so a span's self time belongs to the layer whose code ran.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import time
from pathlib import Path

MODULES = ("cli", "harness", "factors", "fdr", "lad", "linalg", "simulate", "gauss")

# Called through their own module's globals (solve_threshold calls
# approx_fdr, run_experiment calls prepare_scenario) or directly by the
# benchmark, so they are not cross-module imports but are still boundaries.
ENTRY_POINTS = (
    ("harness", "prepare_scenario"),
    ("harness", "run_experiment"),
    ("harness", "variance_study"),
    ("harness", "write_output"),
    ("harness", "load_output"),
    ("fdr", "approx_fdr"),
    ("cli", "main"),
)


def _file_size(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _lad_facts(bound, result) -> dict:
    return {"iterations": int(result.iterations), "converged": bool(result.converged)}


def _numerator_facts(bound, result) -> dict:
    subset = bound.arguments.get("subset")
    width = bound.arguments["model"].p if subset is None else len(subset)
    return {"rows": int(bound.arguments["draws"].shape[0]), "width": int(width)}


def _model_facts(bound, result) -> dict:
    return {"k": int(bound.arguments["k"])}


def _csv_facts(bound, result) -> dict:
    return {"csv_bytes": _file_size(bound.arguments["path"])}


def _load_facts(bound, result) -> dict:
    out_dir = Path(bound.arguments["out_dir"])
    return {
        "csv_bytes": _file_size(out_dir / "records.csv"),
        "json_bytes": _file_size(out_dir / "aggregates.json"),
    }


def _cli_facts(bound, result) -> dict:
    return {"command": bound.arguments["argv"][0]}


# Facts recorded per span, keyed by span name; computed after the call.
FACTS = {
    "lad.lad_regress": _lad_facts,
    "factors.numerator_over_draws": _numerator_facts,
    "factors.build_factor_model": _model_facts,
    "harness.read_matrix_csv": _csv_facts,
    "harness.read_vector_csv": _csv_facts,
    "harness.load_output": _load_facts,
    "cli.main": _cli_facts,
}


def all_bindings() -> list[tuple[str, str]]:
    """(module, attribute) for every cross-module import plus the entry points."""
    bindings = list(ENTRY_POINTS)
    for short in MODULES:
        module = importlib.import_module(f"pfa.{short}")
        for attr, value in vars(module).items():
            if (
                inspect.isfunction(value)
                and value.__module__.startswith("pfa.")
                and value.__module__ != module.__name__
            ):
                bindings.append((short, attr))
    return bindings


class Tracer:
    """Records spans for the calls made through the given bindings."""

    def __init__(self, bindings: list[tuple[str, str]]):
        # A span is [name, start_ns, end_ns, parent_index, facts].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._bindings = bindings

    def __enter__(self) -> "Tracer":
        for short, attr in self._bindings:
            module = importlib.import_module(f"pfa.{short}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one pass."""
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def _open(self, name: str) -> list:
        record = [name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn):
        name = f"{fn.__module__.removeprefix('pfa.')}.{fn.__name__}"
        facts = FACTS.get(name)
        signature = inspect.signature(fn) if facts else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if facts is not None:
                record[4] = facts(signature.bind(*args, **kwargs), result)
            return result

        return traced

    def self_seconds(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children.

        Calls are single-threaded and properly nested, so the children of a
        span never overlap and their union is their sum.
        """
        own = [(s[2] - s[1]) * 1e-9 for s in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                own[span[3]] -= (span[2] - span[1]) * 1e-9
        return own

    def to_json(self) -> list[dict]:
        return [
            {"name": s[0], "start_ns": s[1], "end_ns": s[2], "parent": s[3], "facts": s[4]}
            for s in self.spans
        ]
