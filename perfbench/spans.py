"""In-memory spans around the public functions of each oddcross module.

``install`` wraps every public function of the layer modules and puts the
wrapper under each name a caller looks the function up by (the defining
module, every module that imported it, the package namespace), so calls
between modules are seen too. A wrapper records one span per call, or one
per resumption for a generator, with the span that was open when it
started as its parent. Self time is a span's duration minus the durations
of its direct children.

Functions whose body costs about as much as the wrapper are left unwrapped
(SKIP); their time counts in the caller's self time.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time
from array import array
from collections import Counter

LAYERS = ("schemes", "kernels", "tensor", "verify", "textio", "cli")

SKIP = {
    "schemes": {"feasible_dimension", "make_pair", "pair_index", "axis_matchings"},
    "tensor": {"orient_pair", "pair_determinant", "dot", "cross"},
    "verify": {"format_witness"},
    "cli": {"build_parser", "format_combination"},
}

# Methods wrapped under a layer name: every product A x B goes through
# StructureTensor.cross, whether called as a method or via tensor.cross().
METHODS = {("tensor", "StructureTensor", "cross"): "tensor.cross"}

REQUEST = "bench.request"


class Tracer:
    """Span store. Spans are parallel arrays; ``stack`` holds open spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.active = False
        self.reset()

    def reset(self):
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.request_id = 0
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.request.append(self.request_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def request_span(self, request_id: int):
        """The root span of one client request."""
        if not self.active:
            yield
            return
        self.request_id = request_id
        self.calls[REQUEST] += 1
        idx = self.open(self.name_id(REQUEST))
        try:
            yield
        finally:
            self.close(idx)

    def summary(self) -> dict:
        """Per span name: calls, spans and self seconds; plus the counters."""
        self_s = [0.0] * len(self.names)
        spans = [0] * len(self.names)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        for idx in range(len(start)):
            dur = end[idx] - start[idx]
            self_s[name[idx]] += dur
            spans[name[idx]] += 1
            p = parent[idx]
            if p >= 0:
                self_s[name[p]] -= dur
        out = {}
        for nid, label in enumerate(self.names):
            if spans[nid] or self.calls[label]:
                out[label] = {
                    "calls": self.calls[label],
                    "spans": spans[nid],
                    "self_s": self_s[nid],
                }
        return {"layers": out, "counts": dict(self.counts), "spans": len(start)}

    def current(self) -> str | None:
        """Name of the innermost open span."""
        idx = self.stack[-1]
        return self.names[self.name[idx]] if idx >= 0 else None


# Counters kept at the boundary where the work happens. Each hook sees the
# result of one call (or one item of a generator) just after its span closed,
# so the innermost open span is the caller's.
def _count_branch(tracer, item):
    tracer.counts["schemes.branches"] += 1


def _count_bytes(tracer, text):
    tracer.counts["textio.bytes_out"] += len(text.encode("utf-8"))


def _count_witness(tracer, witness):
    if witness is None:
        tracer.counts["verify.witness.empty"] += 1
    else:
        tracer.counts["verify.witness.found"] += 1


def _count_probe(tracer, value):
    # A probe is an X_AB evaluation made by the witness search.
    if tracer.current() == "verify.find_witness":
        tracer.counts["verify.witness.probes"] += 1


HOOKS = {
    "schemes.scheme_branches": _count_branch,
    "textio.emit_scheme_text": _count_bytes,
    "verify.find_witness": _count_witness,
    "verify.xab_direct": _count_probe,
}


def _wrap(tracer: Tracer, label: str, fn):
    nid = tracer.name_id(label)
    hook = HOOKS.get(label)

    if inspect.isgeneratorfunction(fn):

        def gen_wrapper(*args, **kwargs):
            if not tracer.active:
                yield from fn(*args, **kwargs)
                return
            tracer.calls[label] += 1
            gen = fn(*args, **kwargs)
            while True:
                idx = tracer.open(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    tracer.close(idx)
                    return
                except BaseException:
                    tracer.close(idx)
                    raise
                tracer.close(idx)
                if hook is not None:
                    hook(tracer, item)
                yield item

        gen_wrapper.__wrapped__ = fn
        return gen_wrapper

    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        tracer.calls[label] += 1
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            hook(tracer, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


def install(tracer: Tracer):
    """Wrap the layers' public functions and StructureTensor.cross."""
    import oddcross
    import oddcross.cli  # noqa: F401  (cli is not imported by the package)
    from oddcross import kernels

    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "oddcross"]
    originals = {}
    for layer in LAYERS:
        # The kernels layer is the active backend module's kernel functions;
        # kernels.py itself only selects the backend.
        module = kernels.active_backend() if layer == "kernels" else getattr(oddcross, layer)
        for name, fn in _public_functions(module):
            if name in SKIP.get(layer, ()):
                continue
            originals[id(fn)] = (fn, _wrap(tracer, f"{layer}.{name}", fn))
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    for (layer, cls_name, meth), label in METHODS.items():
        cls = getattr(getattr(oddcross, layer), cls_name)
        setattr(cls, meth, _wrap(tracer, label, getattr(cls, meth)))
