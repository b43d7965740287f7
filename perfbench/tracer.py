"""Span recorder that wraps dynamap's public functions from outside the package.

Every public function of each layer module is replaced, at every binding a
caller resolves at call time (module globals, re-exports in the package,
dispatch dicts such as the CLI's handler table), by a wrapper that records
one span: name, start, end, parent span and the exception that left it, if
any. The numpy/scipy eigensolver entry points the library looks up at call
time are wrapped the same way. Spans stay in memory; `dump` writes them out.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

import numpy as np

LAYERS = (
    "datasets",
    "kernels",
    "operators",
    "distances",
    "embeddings",
    "metagraph",
    "sampling",
    "matio",
    "cli",
    "experiments",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "error", "amount")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.error: str | None = None
        self.amount = 0.0  # bytes, or n^3 for a dense eigensolve

    @property
    def duration(self) -> float:
        return self.end - self.start


def _file_bytes(args, kwargs, result) -> float:
    path = kwargs.get("path", args[0] if args else None)
    return float(os.path.getsize(path))


def _eigh_n3(args, kwargs, result) -> float:
    return float(np.shape(args[0])[0]) ** 3


def _historical_bytes(args, kwargs, result) -> float:
    return float(result.n * result.n_params) ** 2 * 8.0


# per-function quantity recorded on the span when the call returns
AMOUNTS = {
    "matio.read_matrix": _file_bytes,
    "matio.read_matrix_csv": _file_bytes,
    "matio.read_matrix_bin": _file_bytes,
    "matio.write_matrix": _file_bytes,
    "matio.write_matrix_csv": _file_bytes,
    "matio.write_matrix_bin": _file_bytes,
    "numpy.linalg.eigh": _eigh_n3,
    "metagraph.historical_kernel": _historical_bytes,
}


class Tracer:
    """Installs wrappers on `install`, removes every one on `uninstall`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, object, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, amount = self.spans, self._stack, AMOUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, time.perf_counter(), stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if amount is not None:
                span.amount = amount(args, kwargs, result)
            return result

        return wrapper

    def _set(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._patched.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patched.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def install(self) -> None:
        layers = {name: importlib.import_module(f"dynamap.{name}") for name in LAYERS}
        owners = [mod for key, mod in sys.modules.items() if key.split(".")[0] == "dynamap"]
        # keyed by id: the functions stay alive as module globals meanwhile
        wrappers = {
            id(value): self._wrap(f"{layer}.{attr}", value)
            for layer, mod in layers.items()
            for attr, value in vars(mod).items()
            if not attr.startswith("_")
            and inspect.isfunction(value)
            and value.__module__ == mod.__name__
        }
        for mod in owners:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._set(mod, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._set(value, key, wrappers[id(item)])
        # eigensolver entry points that kernels and operators resolve at call time
        kernels = layers["kernels"]
        self._set(kernels, "eigvalsh", self._wrap("kernels.eigvalsh", kernels.eigvalsh))
        self._set(np.linalg, "eigvalsh", self._wrap("numpy.linalg.eigvalsh", np.linalg.eigvalsh))
        self._set(np.linalg, "eigh", self._wrap("numpy.linalg.eigh", np.linalg.eigh))

    def uninstall(self) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ---- queries -------------------------------------------------------
    def _outermost(self, names) -> list[Span]:
        """Spans named in `names` that have no ancestor also named in `names`."""
        names = {names} if isinstance(names, str) else set(names)
        out = []
        for span in self.spans:
            if span.name not in names:
                continue
            parent = span.parent
            while parent >= 0 and self.spans[parent].name not in names:
                parent = self.spans[parent].parent
            if parent < 0:
                out.append(span)
        return out

    def seconds(self, names) -> float:
        return sum(span.duration for span in self._outermost(names))

    def calls(self, names) -> int:
        return len(self._outermost(names))

    def amount(self, names) -> float:
        return sum(span.amount for span in self._outermost(names))

    def errors(self, name: str, error: str) -> int:
        return sum(1 for span in self.spans if span.name == name and span.error == error)

    def layer_names(self, layer: str) -> set[str]:
        return {span.name for span in self.spans if span.name.startswith(layer + ".")}

    def self_seconds(self, name: str) -> float:
        """Time inside `name` spans not covered by their direct child spans."""
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] = child_time.get(span.parent, 0.0) + span.duration
        return sum(
            span.duration - child_time.get(idx, 0.0)
            for idx, span in enumerate(self.spans)
            if span.name == name
        )

    def dump(self, path) -> None:
        rows = [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "error": s.error,
                "amount": s.amount,
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(rows, handle)
