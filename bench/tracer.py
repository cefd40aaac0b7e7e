"""Spans and counters around invqm's public functions, installed from outside.

Every public module-level function of the nine package modules is replaced,
at every module that holds a reference to it (``invqm.linalg.rref`` and
``invqm.invhoms.rref`` alike), by a wrapper that records a span: name,
start, end, parent span and instance id.  A few methods that carry the hot
loops get spans of their own under the names in METHODS.  Counters are
taken at the same boundaries from the arguments and results.  Nothing in
invqm is edited; ``uninstall`` puts the original objects back.
"""

from __future__ import annotations

import functools
import sys
import types
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "engine", "words", "magnus", "linalg", "invhoms",
          "quotients", "brooks", "transgression")

# (module, class, method, span name)
METHODS = (
    ("words", "FreeWord", "__mul__", "words.mul"),
    ("words", "FreeWord", "__pow__", "words.pow"),
    ("magnus", "WedgeVec", "__add__", "magnus.wedgevec_ops"),
    ("magnus", "WedgeVec", "__sub__", "magnus.wedgevec_ops"),
    ("magnus", "WedgeVec", "__rmul__", "magnus.wedgevec_ops"),
    ("transgression", "Transgressor", "__call__",
     "transgression.Transgressor"),
)

SPAN_CAP = 100_000


def _cells(M) -> int:
    return len(M) * (len(M[0]) if M else 0)


def _max_bits(result) -> int:
    return max((abs(x).bit_length() for mat in result for row in mat
                for x in row), default=0)


class Tracer:
    """Span stack, per-name totals and counters for one benchmark process."""

    def __init__(self):
        self.stack: list[list] = []   # open spans: [name, start, child s, id]
        self.totals: dict[str, list] = {}  # name -> [s, self s, calls]
        self.counters: dict[str, float] = defaultdict(int)
        # (id, parent id, instance, name, start, end)
        self.spans: list[tuple] = []
        self.dropped = 0
        self.instance = 0
        self._next_id = 0
        self._patches: list[tuple] = []
        self._before = {
            "linalg.rref": self._count_rref,
            "linalg.rank": lambda a, kw: self._add("linalg.rank.cells",
                                                   _cells(a[0])),
            "words.mul": lambda a, kw: self._add(
                "words.mul.letters_in", len(a[0]) + len(a[1])),
            "magnus.quadratic_class": lambda a, kw: self._add(
                "magnus.quadratic_class.letters", len(a[0])),
            "brooks.qm_eval": lambda a, kw: self._add("brooks.qm_eval.letters",
                                                      len(a[1])),
            "transgression.Transgressor": self._count_memo,
        }
        self._after = {"linalg.smith_normal_form": self._record_bits}

    # --- counters ------------------------------------------------------------

    def _add(self, key: str, amount) -> None:
        self.counters[key] += amount

    def _count_rref(self, args, kwargs) -> None:
        self._add("linalg.rref.cells", _cells(args[0]))
        if any(f[0] == "invhoms.constraint_space" for f in self.stack):
            self._add("invhoms.constraint_rows", len(args[0]))

    def _count_memo(self, args, kwargs) -> None:
        evaluator, g1, g2 = args
        if (tuple(g1), tuple(g2)) in evaluator._memo:
            self._add("transgression.memo_hits", 1)

    def _record_bits(self, result) -> None:
        key = "linalg.smith_normal_form.max_bits"
        self.counters[key] = max(self.counters[key], _max_bits(result))

    # --- spans ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        before, after = self._before.get(name), self._after.get(name)
        stack, totals, spans = self.stack, self.totals, self.spans
        total = totals.setdefault(name, [0.0, 0.0, 0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            self._next_id += 1
            parent = stack[-1][3] if stack else 0
            frame = [name, perf_counter(), 0.0, self._next_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if stack and stack[-1] is frame:
                    stack.pop()
                dur = end - frame[1]
                total[0] += dur
                total[1] += dur - frame[2]
                total[2] += 1
                if stack:
                    stack[-1][2] += dur
                if len(spans) < SPAN_CAP:
                    spans.append((frame[3], parent, self.instance, name,
                                  frame[1], end))
                else:
                    self.dropped += 1
            if after is not None:
                after(result)
            return result
        return traced

    def install(self) -> None:
        """Wrap the public functions and METHODS of the imported invqm."""
        modules = [m for name, m in sys.modules.items()
                   if name == "invqm" or name.startswith("invqm.")]
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"invqm.{layer}"]
            for attr, obj in vars(module).items():
                if (isinstance(obj, types.FunctionType)
                        and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrapped[obj])
        for layer, cls, method, name in METHODS:
            owner = getattr(sys.modules[f"invqm.{layer}"], cls)
            original = owner.__dict__[method]
            self._patches.append((owner, method, original))
            setattr(owner, method, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- results -------------------------------------------------------------

    def metrics(self, passes: int) -> dict[str, float]:
        """Per pass of the mix: `.s`, `.self_s` and `.calls` of every span
        name and of every layer, and the counters; `max_bits` and the hit
        ratio are not divided."""
        out: dict[str, float] = {}
        layers = {layer: [0.0, 0] for layer in LAYERS}
        for name, (secs, self_s, calls) in self.totals.items():
            out[f"{name}.s"] = secs / passes
            out[f"{name}.self_s"] = self_s / passes
            out[f"{name}.calls"] = calls / passes
            layer = layers[name.split(".", 1)[0]]
            layer[0] += self_s
            layer[1] += calls
        for layer, (self_s, calls) in layers.items():
            out[f"{layer}.self_s"] = self_s / passes
            out[f"{layer}.calls"] = calls / passes
        for key, value in self.counters.items():
            out[key] = value if key.endswith("max_bits") else value / passes
        calls = self.totals["transgression.Transgressor"][2]
        out["transgression.memo_hit_ratio"] = (
            self.counters["transgression.memo_hits"] / calls if calls else 0.0)
        return out
