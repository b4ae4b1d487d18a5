"""Layer tracing for gosil, installed from outside and removed afterwards.

A layer is one module of the gosil package. Every module-level function a
layer defines is wrapped, in every gosil module that binds it (copies made
by `from .x import f` included). A wrapper opens a span only when the call
crosses into another layer; recursive and same-layer calls pass straight
through. The hot leaf lookups, the `Vocabulary` methods and `is_subtype`,
are counted but not timed, so their cost stays in the calling layer.

Spans are folded into per-(layer, entry function) totals as they close: a
span's self time is its duration minus the time its child spans cover.
Counting hooks run after a call returns, and the time they take is booked
as a child of the caller so it inflates no layer's self time.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "gosil"
LAYERS = (
    "cli", "parser", "vocabulary", "ast", "typecheck",
    "elaboration", "grounding", "semantics", "models",
)
# Layers whose functions are counted, not timed.
COUNTED = {"vocabulary": ("is_subtype",)}
ROOT_LAYER = "bench"


def _derivation_nodes(d) -> int:
    count, todo = 0, [d]
    while todo:
        node = todo.pop()
        count += 1
        todo.extend(node.premises)
    return count


def _package_modules() -> list:
    return [
        module for name, module in list(sys.modules.items())
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    ]


def _classes(module) -> list[type]:
    return [
        value for value in vars(module).values()
        if inspect.isclass(value) and value.__module__ == module.__name__
    ]


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        # frame: [layer, start, time covered by children]
        self.stack: list[list] = [[ROOT_LAYER, 0.0, 0.0]]
        self.self_time: dict[tuple[str, str], float] = defaultdict(float)
        self.span_time: dict[tuple[str, str, str], float] = defaultdict(float)
        self.edges: Counter = Counter()  # (caller layer, layer, entry) -> spans
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self._snapshot: dict | None = None

    # -- wrappers ---------------------------------------------------------------

    def _span(self, f, layer: str, post=None):
        stack, clock = self.stack, self.clock
        key = (layer, f.__qualname__)
        self_time, span_time, edges = self.self_time, self.span_time, self.edges

        def booked(result):
            t0 = clock()
            post(result)
            stack[-1][2] += clock() - t0

        def wrapper(*args, **kwargs):
            caller = stack[-1]
            if caller[0] == layer:
                result = f(*args, **kwargs)
            else:
                frame = [layer, clock(), 0.0]
                stack.append(frame)
                try:
                    result = f(*args, **kwargs)
                finally:
                    dur = clock() - frame[1]
                    stack.pop()
                    self_time[key] += dur - frame[2]
                    caller[2] += dur
                    edge = (caller[0], layer, key[1])
                    span_time[edge] += dur
                    edges[edge] += 1
            if post is not None:
                booked(result)
            return result

        wrapper.__wrapped__ = f
        wrapper.__name__ = f.__name__
        return wrapper

    def _counter(self, f, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)

        wrapper.__wrapped__ = f
        wrapper.__name__ = f.__name__
        return wrapper

    def _posts(self, mods) -> dict[str, object]:
        counts = self.counts
        atom_count = mods["ast"].atom_count  # the original, read before patching

        def tokens(result):
            counts["parser.tokens"] += len(result)

        def sentence(result):
            counts["typecheck.derivation_nodes"] += _derivation_nodes(result)

        def initial_context(_):
            counts["typecheck.initial_contexts"] += 1

        def ground(result):
            counts["grounding.atoms_out"] += atom_count(result)

        def found(result):
            counts["models.found"] += len(result)

        return {
            "parser.tokenize": tokens,
            "typecheck.check_sentence": sentence,
            "typecheck.initial_context": initial_context,
            "grounding.ground": ground,
            "models.find_models": found,
        }

    # -- install / restore ------------------------------------------------------------

    @staticmethod
    def modules() -> dict[str, object]:
        """Resolved through sys.modules: `gosil.typecheck` as an attribute is
        the re-exported `typecheck` function, not the module."""
        return {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS}

    @staticmethod
    def snapshot() -> dict:
        """Identity of every binding the tracer may replace."""
        snap = {}
        for module in _package_modules():
            owners = [module, *_classes(module)]
            for owner in owners:
                for attr, value in vars(owner).items():
                    snap[(module.__name__, getattr(owner, "__qualname__", ""), attr)] = id(value)
        return snap

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._snapshot = self.snapshot()
        mods = self.modules()
        posts = self._posts(mods)
        replacement: dict = {}
        for layer, module in mods.items():
            counted = COUNTED.get(layer)
            for attr, value in vars(module).items():
                if not inspect.isfunction(value) or value.__module__ != module.__name__:
                    continue
                if counted is None:
                    replacement[value] = self._span(value, layer, posts.get(f"{layer}.{attr}"))
                elif attr in counted:
                    replacement[value] = self._counter(value, f"{layer}.lookups")
            if counted is None:
                for cls in _classes(module):
                    self._wrap_members(cls, lambda f, layer=layer: self._span(f, layer))
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replacement:
                    self._set(module, attr, replacement[value])
        self._wrap_members(
            mods["vocabulary"].Vocabulary, lambda f: self._counter(f, "vocabulary.lookups")
        )
        interp_cls = mods["grounding"].GroundInterpretation
        self._set(interp_cls, "__init__", self._counter(interp_cls.__init__, "grounding.interp_builds"))

    def _wrap_members(self, cls, wrap) -> None:
        """Methods, static and class methods and property getters; dunder
        methods, dataclass-generated ones included, stay as they are."""
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("__"):
                continue
            if inspect.isfunction(raw):
                self._set(cls, attr, wrap(raw))
            elif isinstance(raw, (staticmethod, classmethod)):
                self._set(cls, attr, type(raw)(wrap(raw.__func__)))
            elif isinstance(raw, property) and raw.fset is None:
                self._set(cls, attr, property(wrap(raw.fget)))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self.snapshot() != self._snapshot:
            raise AssertionError("tracer left a wrapped function behind")

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- results ---------------------------------------------------------------------

    def layer_self(self, layer: str, entry: str | None = None) -> float:
        return sum(
            t for (lay, fn), t in self.self_time.items()
            if lay == layer and (entry is None or fn == entry)
        )

    def _edges(self, table, caller, layer, entry):
        return sum(
            v for (c, lay, fn), v in table.items()
            if lay == layer and (caller is None or c == caller) and (entry is None or fn == entry)
        )

    def spans(self, caller: str | None, layer: str, entry: str | None = None) -> int:
        return self._edges(self.edges, caller, layer, entry)

    def span_seconds(self, caller: str | None, layer: str, entry: str | None = None) -> float:
        return self._edges(self.span_time, caller, layer, entry)

    def edge_table(self) -> list[tuple[str, str, int, float]]:
        """(caller layer, layer.entry, spans, seconds) sorted by seconds."""
        rows = [
            (caller, f"{layer}.{fn}", n, self.span_time[(caller, layer, fn)])
            for (caller, layer, fn), n in self.edges.items()
        ]
        return sorted(rows, key=lambda r: -r[3])
