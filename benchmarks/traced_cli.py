"""Run one `stdpuzzle` CLI command with every public function traced.

Usage: python3 traced_cli.py SPANS_FILE CLI_ARG...

Wraps, for each module of the `stdpuzzle` package, every module-level
public function defined there (found by walking the package, so new
modules and helpers are traced without editing this file).  Each wrapper
records a span (function, parent span, start, end) in memory; generators
get one span per resumption.  Every binding of an original function in a
package module namespace, or in a module-level dict such as a dispatch
table, is replaced, so `from .x import f` call sites are traced too.  The
spans are written to SPANS_FILE once, when the command returns.
"""

from __future__ import annotations

import sys
import time

# Imported before anything else, so that -X importtime charges each stdlib
# module to the stdpuzzle module that first needs it, as in a plain run.
import stdpuzzle.cli

import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import pkgutil  # noqa: E402


def _public_functions(module) -> list:
    out = []
    for name, obj in vars(module).items():
        if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if not (inspect.isfunction(obj) or hasattr(obj, "__wrapped__")):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            out.append((name, obj))
    return out


class Tracer:
    """Spans of the wrapped functions, kept in memory until dump."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (fid, parent, start_ns, end_ns, is_call)
        self.stack: list[int] = [-1]

    def _span(self, fid: int, is_call: bool, fn, args, kwargs):
        spans = self.spans
        index = len(spans)
        spans.append(None)
        parent = self.stack[-1]
        self.stack.append(index)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            spans[index] = (fid, parent, start, time.perf_counter_ns(), is_call)
            self.stack.pop()

    def _resumptions(self, fid: int, gen):
        while True:
            try:
                item = self._span(fid, False, next, (gen,), {})
            except StopIteration:
                return
            yield item

    def wrap(self, qualname: str, fn):
        fid = len(self.names)
        self.names.append(qualname)

        def traced(*args, **kwargs):
            result = self._span(fid, True, fn, args, kwargs)
            if inspect.isgenerator(result):
                return self._resumptions(fid, result)
            return result

        traced.__name__ = getattr(fn, "__name__", qualname)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"names": self.names, "spans": self.spans}, handle)


def install(package: str = "stdpuzzle") -> Tracer:
    root = importlib.import_module(package)
    modules = [root] + [importlib.import_module(f"{package}.{info.name}")
                        for info in pkgutil.iter_modules(root.__path__)]
    tracer = Tracer()
    wrappers = {}
    for module in modules[1:]:
        layer = module.__name__.rpartition(".")[2]
        for name, fn in _public_functions(module):
            wrappers[id(fn)] = (fn, tracer.wrap(f"{layer}.{name}", fn))

    def swap(table: dict) -> None:
        for key, value in list(table.items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                table[key] = hit[1]

    for module in modules:
        namespace = vars(module)
        swap(namespace)
        for value in list(namespace.values()):
            if type(value) is dict:
                swap(value)
    return tracer


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = install()
    try:
        return stdpuzzle.cli.main(argv)
    finally:
        tracer.dump(spans_file)


if __name__ == "__main__":
    raise SystemExit(main())
