"""In-memory spans around the public pointdiff functions a workload calls.

A span is recorded by replacing a module attribute with a wrapper.  Callers
inside pointdiff look functions up either through a module
(``eg.matmul``) or through a name imported at load time
(``from .geometry import segment``), so every pointdiff module attribute
that is the original function object is replaced, and restored afterwards.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import ExitStack, contextmanager

clock = time.perf_counter

# (module, attribute) pairs that get a span named "<module>.<attribute>"
TRACED = {
    "geometry": ("fps", "knn_group", "segment", "apply_mask"),
    "engine": ("matmul", "backward", "adam_step"),
    "model": ("encode_patches", "decode", "transformer_block"),
    "diffusion": ("sample", "reverse_step"),
    "training": ("chamfer_loss", "save_checkpoint", "load_model",
                 "pretrain_encoder", "train_decoder"),
    "tasks": ("reconstruct", "complete", "upsample", "compress", "parse_blob",
              "decompress", "sample_patches"),
    "metrics": ("chamfer_l2", "hausdorff", "evaluate"),
    "data_io": ("load_cloud", "save_cloud", "synth_shape"),
}

# spans the benchmark opens for its own bookkeeping; they are subtracted from
# their parents' self time and never reported as a layer
BENCH_PREFIX = "bench."


def graph_nodes(root, interior_only):
    """Tensors reachable from ``root`` through recorded parents.

    ``interior_only`` counts only tensors that carry a recorded operation,
    so an output built with no graph counts as 0.
    """
    seen = set()
    stack = [root]
    count = 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        parents = getattr(node, "_parents", ())
        if parents or not interior_only:
            count += 1
        stack.extend(parents)
    return count


class Tracer:
    """Records spans as [name, start, end, parent index, request id]."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.request_id = None
        self.enabled = True
        self._stack = []

    def begin(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, clock(), None, parent, self.request_id])
        self._stack.append(index)
        return index

    def end(self, index):
        self.spans[index][2] = clock()
        self._stack.pop()

    def add(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    @contextmanager
    def span(self, name):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    @contextmanager
    def request(self, name):
        """Spans opened inside share the request id ``<outer id>/<name>``."""
        prev = self.request_id
        self.request_id = f"{prev}/{name}" if prev else name
        try:
            yield
        finally:
            self.request_id = prev

    @contextmanager
    def paused(self):
        """Calls made inside (output checks) record no spans."""
        prev, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = prev

    def totals(self):
        """name -> (self seconds, inclusive seconds, calls)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if name.startswith(BENCH_PREFIX):
                continue
            self_s, incl, calls = out.get(name, (0.0, 0.0, 0))
            out[name] = (self_s + (end - start) - child[i], incl + end - start, calls + 1)
        return out

    def dump(self):
        return {
            "fields": ["name", "start", "end", "parent", "request"],
            "spans": self.spans,
            "counts": self.counts,
        }


def _after_decode(tracer, args, out):
    with tracer.span("bench.count"):
        tracer.add("engine.tape_nodes_decode", graph_nodes(out, interior_only=True))


def _before_backward(tracer, args):
    with tracer.span("bench.count"):
        tracer.add("engine.backward.nodes", graph_nodes(args[0], interior_only=False))


_HOOKS = {
    "model.decode": (None, _after_decode),
    "engine.backward": (_before_backward, None),
}


def _traced(tracer, fn, name):
    before, after = _HOOKS.get(name, (None, None))

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        if before is not None:
            before(tracer, args)
        index = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if after is not None:
            after(tracer, args, out)
        return out

    return wrapper


@contextmanager
def replaced(module, attr, make_wrapper):
    """Swap every pointdiff reference to ``module.attr`` for a wrapper."""
    orig = getattr(module, attr)
    wrapper = make_wrapper(orig)
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "pointdiff" and not mod_name.startswith("pointdiff."):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapper)
                undo.append((mod, key))
    try:
        yield
    finally:
        for mod, key in undo:
            setattr(mod, key, orig)


@contextmanager
def tracing(tracer):
    """Install spans around every function in ``TRACED``."""
    with ExitStack() as stack:
        for mod_name, attrs in TRACED.items():
            module = importlib.import_module(f"pointdiff.{mod_name}")
            for attr in attrs:
                name = f"{mod_name}.{attr}"
                stack.enter_context(replaced(
                    module, attr, lambda fn, name=name: _traced(tracer, fn, name)))
        yield tracer
