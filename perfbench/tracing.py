"""Spans around the program's public calls, installed from outside.

``Tracer.install`` replaces public functions and methods of the
``sparsecast`` modules with wrappers that record a span (name, start,
end, parent) around each call; ``uninstall`` puts the originals back.
No file of the program changes.  Spans stay in memory until the run
writes them out.  ``NullTracer`` is what an untraced run uses: it
patches nothing.
"""

import contextlib
import functools
import gc
import time
import weakref
from collections import defaultdict

from checks import expected_counts


class NullTracer:
    enabled = False

    def span(self, name):
        return contextlib.nullcontext()

    def counting_gc(self):
        return contextlib.nullcontext()

    def paused(self):
        return contextlib.nullcontext()


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []          # [name, start ns, end ns, parent index or -1]
        self._stack = []
        self._patches = []
        self._roles = weakref.WeakKeyDictionary()
        self.forwards = 0
        self.counted = [0, 0]    # dot products, rows selected, from ScoreBudget
        self.derived = [0, 0]    # the same, from checks.expected_counts
        self._causal_rows = []
        self.loss_calls = 0
        self._pending_windows = 0
        self.tape_nodes = 0
        self.tape_windows = 0
        self.tape_walk_ns = 0    # the tracer's own cost of counting tape nodes
        self.gc_ns = 0
        self.gc_count = 0
        self._gc_start = None

    # -- spans ---------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def current(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def self_ns(self) -> dict:
        """Per span name: total duration minus the time its child spans cover."""
        child = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(int)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def total_ns(self, name: str) -> int:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    # -- garbage collector ---------------------------------------------

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        elif self._gc_start is not None:
            self.gc_ns += time.perf_counter_ns() - self._gc_start
            self.gc_count += 1
            self._gc_start = None

    @contextlib.contextmanager
    def counting_gc(self):
        gc.callbacks.append(self._on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(self._on_gc)

    # -- patching ------------------------------------------------------

    def _patch(self, owner, attr: str, name_of) -> None:
        """Wrap ``owner.attr``; ``name_of(args)`` names the span, None skips it."""
        def make(original):
            def wrapper(*args, **kwargs):
                name = name_of(args)
                if name is None:
                    return original(*args, **kwargs)
                index = self.begin(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    self.end(index)
            return wrapper
        self._replace(owner, attr, make)

    def _replace(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        wrapper = functools.wraps(original)(make(original))
        self._patches.append((owner, attr, original, wrapper))
        setattr(owner, attr, wrapper)

    def install(self, sc) -> None:
        """Wrap the public calls of the ``sparsecast`` package ``sc``."""
        fixed = lambda name: (lambda args: name)  # noqa: E731
        role = lambda args: self._roles.get(args[0])  # noqa: E731
        self._patch(sc.cli, "load_csv", fixed("data.load_csv"))
        self._patch(sc.cli, "make_windows", fixed("data.make_windows"))
        self._patch(sc.embedding.WindowEmbedding, "__call__", fixed("embedding.forward"))
        self._patch(sc.attention.MultiHeadAttention, "__call__", role)
        self._patch(sc.layers.FeedForward, "__call__", role)
        self._patch(sc.layers.Dense, "__call__", role)
        self._patch(sc.encoder, "distill_step", fixed("encoder.distill"))
        self._patch(sc.attention, "importance_scores", fixed("attention.score"))
        self._patch(sc.attention, "select_top_queries", fixed("attention.select"))
        self._patch(sc.tensor.ParamStore, "zero_grad", fixed("tensor.zero_grad"))
        self._patch(sc.training, "adam_step", fixed("training.adam_step"))
        self._patch(sc.training, "fnv1a64", fixed("training.checkpoint_hash"))
        self._patch(sc.training, "evaluate", lambda args: (
            "training.validate" if self.current() == "phase.train" else "training.evaluate"))
        self._replace(sc.attention, "select_top_queries_causal", self._causal_select)
        self._replace(sc.model.Forecaster, "__init__", self._forecaster_init)
        self._replace(sc.model.Forecaster, "forward", lambda f: self._forward(f, sc))
        self._replace(sc.model.Forecaster, "loss", self._loss)
        self._replace(sc.tensor.Tensor, "backward", self._backward)

    def _set(self, wrapped: bool) -> None:
        for owner, attr, original, wrapper in self._patches:
            setattr(owner, attr, wrapper if wrapped else original)

    def uninstall(self) -> None:
        self._set(False)
        self._patches = []

    @contextlib.contextmanager
    def paused(self):
        """Run the program unwrapped inside the context, then wrap it again."""
        self._set(False)
        try:
            yield
        finally:
            self._set(True)

    # -- wrappers with more than a span --------------------------------

    def _forecaster_init(self, original):
        def init(model, *args, **kwargs):
            original(model, *args, **kwargs)
            for block in model.encoder.blocks:
                self._roles[block.attn] = "encoder.attention"
                self._roles[block.ffn] = "encoder.ffn"
            for layer in model.decoder_layers:
                self._roles[layer.self_attn] = "model.decoder_self_attention"
                self._roles[layer.cross_attn] = "model.decoder_cross_attention"
                self._roles[layer.ffn] = "model.decoder_ffn"
            self._roles[model.proj] = "model.decoder_ffn"
        return init

    def _causal_select(self, original):
        def select(*args, **kwargs):
            index = self.begin("attention.select_causal")
            try:
                chosen = original(*args, **kwargs)
            finally:
                self.end(index)
            self._causal_rows.append(int(chosen.size))
            return chosen
        return select

    def _forward(self, original, sc):
        def forward(model, sample, *, rng=None, train=False, budget=None):
            budget = sc.attention.ScoreBudget() if budget is None else budget
            before = (budget.dot_products_materialized, budget.rows_selected)
            self._causal_rows = []
            index = self.begin("model.forward")
            try:
                out = original(model, sample, rng=rng, train=train, budget=budget)
            finally:
                self.end(index)
            self.forwards += 1
            self.counted[0] += budget.dot_products_materialized - before[0]
            self.counted[1] += budget.rows_selected - before[1]
            dots, rows = expected_counts(model.config, self._causal_rows)
            self.derived[0] += dots
            self.derived[1] += rows
            return out
        return forward

    def _loss(self, original):
        def loss(model, sample, **kwargs):
            if not kwargs.get("train"):
                return original(model, sample, **kwargs)
            index = self.begin("training.loss")
            try:
                return original(model, sample, **kwargs)
            finally:
                self.end(index)
                self.loss_calls += 1
                self._pending_windows += 1
        return loss

    def _backward(self, original):
        def backward(tensor):
            start = time.perf_counter_ns()
            self.tape_nodes += tape_size(tensor)
            self.tape_walk_ns += time.perf_counter_ns() - start
            self.tape_windows += self._pending_windows
            self._pending_windows = 0
            index = self.begin("tensor.backward")
            try:
                return original(tensor)
            finally:
                self.end(index)
        return backward


def tape_size(root) -> int:
    """Operations recorded on the tape that ends at ``root``.

    The engine has no public view of its tape, so this follows the tensors'
    ``_parents`` links and counts the nodes that carry a backward closure.
    """
    seen = {id(root)}
    stack = [root]
    recorded = 0
    while stack:
        node = stack.pop()
        if node._backward is not None:
            recorded += 1
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return recorded
