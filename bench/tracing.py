"""Per-layer spans recorded from outside the program.

``Tracer.install`` wraps the listed public callables of each ``nablainv``
module, in every module namespace that bound them (``cli`` imports
``numeric_inverse`` by name, ``rational`` imports ``series_divide``, ...).
Each call becomes a span (name, start, end, parent); a layer is a module,
and its self time is its spans' time minus the time their child spans cover.
Aggregates are kept for every span; the first SPAN_CAP spans are also kept
whole and written out at the end.  Nothing under ``src/`` changes.
"""

import functools
import importlib
import json
import time
from collections import defaultdict
from functools import cached_property

LAYERS = ("cli", "parsing", "pairs", "rational", "polynomial", "expansion",
          "inversion", "special", "verify")

# Public callables per layer.  Helpers called once per grid point from inside
# their own layer (log_gamma, rising_factorial, step_offset) are left out:
# their time lands in the caller's layer either way, and wrapping them would
# multiply the tracing overhead.
TRACED = {
    "cli": ["main"],
    "parsing": ["parse_expression", "classify", "pretty"],
    "pairs": ["lookup", "pair", "reference_pairs", "sample_points"],
    "rational": ["RationalFunction.poles", "RationalFunction.evaluate",
                 "RationalFunction.series_at_one", "RationalFunction.inferred_roc"],
    "polynomial": ["roots_with_multiplicities", "series_divide", "Polynomial.__call__",
                   "Polynomial.__mul__", "Polynomial.__pow__", "Polynomial.divmod",
                   "Polynomial.deflate", "Polynomial.shifted", "Polynomial.in_one_minus_w"],
    "expansion": ["expand"],
    "inversion": ["invert_partial_fractions", "invert_outside", "invert_inside",
                  "invert_fractional", "ClosedFormSequence.evaluate",
                  "ClosedFormSequence.evaluate_complex", "FractionalSumForm.evaluate"],
    "special": ["discrete_mittag_leffler"],
    "verify": ["numeric_inverse", "forward_transform", "initial_value",
               "orientation_check"],
}

SPAN_CAP = 100_000


class _Frame:
    __slots__ = ("sid", "layer", "start", "child")

    def __init__(self, sid, layer, start):
        self.sid, self.layer, self.start, self.child = sid, layer, start, 0.0


class Tracer:
    def __init__(self):
        self.stack = []
        self.spans = []  # (id, parent id, request, name, start s, end s)
        self.next_id = 0
        self.request = 0
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.errors = defaultdict(int)
        self.deadline_hits = defaultdict(int)
        self.by_name = defaultdict(lambda: [0, 0.0])  # name -> [calls, inclusive s]
        self.series_coeffs = 0

    def wrap(self, layer, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            frame = _Frame(tracer.next_id, layer, time.perf_counter())
            tracer.next_id += 1
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if parent is None or parent.layer != layer:
                    tracer.errors[layer] += 1
                raise
            finally:
                end = time.perf_counter()
                if stack and stack[-1] is frame:
                    stack.pop()
                duration = end - frame.start
                tracer.self_s[layer] += duration - frame.child
                if parent is not None:
                    parent.child += duration
                tracer.calls[layer] += 1
                stats = tracer.by_name[name]
                stats[0] += 1
                stats[1] += duration
                if frame.sid < SPAN_CAP:
                    tracer.spans.append((frame.sid, parent.sid if parent else None,
                                         tracer.request, name, frame.start, end))
            if name == "series_divide":
                tracer.series_coeffs += args[2] + 1 if len(args) > 2 else kwargs["order"] + 1
            return result

        return traced

    def install(self, package):
        """Wrap every TRACED callable of the imported ``package`` (nablainv)."""
        modules = [package] + [importlib.import_module(f"{package.__name__}.{layer}")
                               for layer in LAYERS]
        for layer, names in TRACED.items():
            home = importlib.import_module(f"{package.__name__}.{layer}")
            for dotted in names:
                if "." in dotted:
                    cls_name, attr = dotted.split(".")
                    cls = getattr(home, cls_name)
                    member = cls.__dict__[attr]
                    if isinstance(member, cached_property):
                        member.func = self.wrap(layer, dotted, member.func)
                    else:
                        setattr(cls, attr, self.wrap(layer, dotted, member))
                    continue
                original = getattr(home, dotted)
                wrapped = self.wrap(layer, dotted, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

    def on_deadline(self):
        if self.stack:
            self.deadline_hits[self.stack[-1].layer] += 1

    def end_request(self):
        """Drop frames a deadline left open and move to the next request id."""
        self.stack.clear()
        self.request += 1

    def inclusive_ms(self, *names):
        return 1e3 * sum(self.by_name[n][1] for n in names)

    def name_calls(self, *names):
        return sum(self.by_name[n][0] for n in names)

    def write(self, path):
        t0 = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, req, name, start, end in self.spans:
                fh.write(json.dumps([sid, parent, req, name, round((start - t0) * 1e6, 1),
                                     round((end - t0) * 1e6, 1)]) + "\n")
