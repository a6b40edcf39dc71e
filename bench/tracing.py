"""Per-layer timing and counting, from outside the program.

The traced run replaces each layer's public functions with wrappers that
record a span (name, start, end, parent) and feed per-function totals. A
function is rebound under every name a treeball module binds it to, since
`from .compat import find_involutive_cocycles` style imports keep their
own reference: wrapping only the defining module would miss those callers.
Self time of a span is its duration minus the time of its child spans.
Ball-automorphism products are only counted, not timed: they are too small
and too many for a span each. Nothing under src/ is edited.
"""

import contextlib
import functools
import json
import os
import sys
import time

# layer -> public functions and methods whose calls are spans of that layer
TARGETS = {
    "compat": ["find_involutive_cocycles", "check_compatibility",
               "check_trivial_seams", "compatibility_core",
               "canonical_cocycle"],
    "permcore": ["all_subgroups", "small_generating_set_of",
                 "PermGroup.generated", "classify_action"],
    "balls": ["BallGroup.generated", "BallGroup.from_elements", "full_aut"],
    "census": ["census_compatible_classes", "census_discrete_lifts",
               "degree3_table", "are_conjugate_in"],
    "constructions": ["build_full_lift", "build_tower",
                      "build_cocycle_extension", "build_wreath_local",
                      "build_diagonal", "build_centered", "build_parity_lift",
                      "build_kernel_extension", "build_split_lift"],
    "universal": ["iter_extensions", "count_restrictions",
                  "restriction_count_factors", "pk_local_action",
                  "is_discrete_universal", "local_action_group"],
    "documents": ["parse_document", "serialize_document",
                  "group_from_document", "document_from_group"],
}

MAX_SPANS = 200_000


class Stat:
    __slots__ = ("calls", "total", "self_s", "depth", "items")

    def __init__(self):
        self.calls = 0
        self.total = 0.0    # outermost calls only, so recursion counts once
        self.self_s = 0.0
        self.depth = 0
        self.items = 0      # function-specific count, see _COUNTERS


class Tracer:
    def __init__(self):
        self.stats = {}
        self.stack = []     # [span index, child seconds]
        self.spans = []
        self.products = 0
        self.missing = []
        self._undo = []

    def stat(self, name):
        if name not in self.stats:
            self.stats[name] = Stat()
        return self.stats[name]

    # -- spans -----------------------------------------------------------

    def _enter(self, name):
        parent = self.stack[-1][0] if self.stack else -1
        index = len(self.spans)
        if index < MAX_SPANS:
            self.spans.append([name, time.perf_counter(), 0.0, parent])
        self.stack.append([index, 0.0])
        return time.perf_counter()

    def _exit(self, stat, start):
        end = time.perf_counter()
        index, child = self.stack.pop()
        elapsed = end - start
        if index < MAX_SPANS:
            self.spans[index][2] = end
        stat.calls += 1
        stat.self_s += elapsed - child
        if stat.depth == 0:
            stat.total += elapsed
        if self.stack:
            self.stack[-1][1] += elapsed

    @contextlib.contextmanager
    def span(self, name):
        stat = self.stat(name)
        start = self._enter(name)
        try:
            yield
        finally:
            self._exit(stat, start)

    def wrap(self, name, fn):
        stat = self.stat(name)
        tracer = self
        count = _COUNTERS.get(name.split(".", 1)[1])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = tracer._enter(name)
            stat.depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                stat.depth -= 1
                tracer._exit(stat, start)
            if count is not None:
                stat.items += count(args, result)
            return result

        @functools.wraps(fn)
        def traced_stream(*args, **kwargs):
            stream = fn(*args, **kwargs)
            while True:
                start = tracer._enter(name)
                stat.depth += 1
                try:
                    item = next(stream)
                except StopIteration:
                    return
                finally:
                    stat.depth -= 1
                    tracer._exit(stat, start)
                stat.items += 1
                yield item

        return traced_stream if name.endswith("iter_extensions") else traced

    # -- installing -------------------------------------------------------

    def install(self, tb):
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "treeball"
                                         or n.startswith("treeball."))]
        for layer, names in TARGETS.items():
            home = getattr(tb, layer)
            for qual in names:
                label = "%s.%s" % (layer, qual)
                if "." in qual:
                    self._wrap_method(home, qual, label)
                    continue
                original = getattr(home, qual, None)
                if original is None:
                    self.missing.append(label)
                    continue
                wrapper = self.wrap(label, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._undo.append((module, attr, original))
        aut = tb.balls.BallAut
        mul = aut.__dict__["__mul__"]
        tracer = self

        def counted_mul(a, b):
            tracer.products += 1
            return mul(a, b)

        aut.__mul__ = counted_mul
        self._undo.append((aut, "__mul__", mul))

    def _wrap_method(self, home, qual, label):
        cls_name, meth = qual.split(".")
        cls = getattr(home, cls_name, None)
        raw = cls.__dict__.get(meth) if cls is not None else None
        if raw is None:
            self.missing.append(label)
            return
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(label, raw.__func__))
        else:
            wrapped = self.wrap(label, raw)
        setattr(cls, meth, wrapped)
        self._undo.append((cls, meth, raw))

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo = []

    # -- results ------------------------------------------------------------

    def layer_self(self, layer):
        return sum(s.self_s for n, s in self.stats.items()
                   if n.split(".", 1)[0] == layer)

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        body = {
            "functions": {n: {"calls": s.calls, "total_s": s.total,
                              "self_s": s.self_s, "items": s.items}
                          for n, s in sorted(self.stats.items())},
            "ballaut_products": self.products,
            "missing": self.missing,
            "spans_dropped": max(0, sum(s.calls for s in self.stats.values())
                                 - len(self.spans)),
            "spans": [[n, round(a, 7), round(b, 7), p]
                      for n, a, b, p in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(body, fh)


def _len_result(args, result):
    return len(result)


def _generated_order(args, result):
    return len(result.elements)


def _passed(args, result):
    return 1 if result else 0


def _bytes_in(args, result):
    return len(args[0].encode("utf-8")) if args else 0


_COUNTERS = {
    "all_subgroups": _len_result,
    "find_involutive_cocycles": _len_result,
    "check_compatibility": _passed,
    "BallGroup.generated": _generated_order,
    "parse_document": _bytes_in,
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """The per-layer figures of one traced round, by metric name."""
    s = tracer.stat
    cocycles = s("compat.find_involutive_cocycles")
    check_c = s("compat.check_compatibility")
    subgroups = s("permcore.all_subgroups")
    gen_set = s("permcore.small_generating_set_of")
    closure = s("permcore.PermGroup.generated")
    generated = s("balls.BallGroup.generated")
    from_elements = s("balls.BallGroup.from_elements")
    streams = s("universal.iter_extensions")
    parse = s("documents.parse_document")
    out = {
        "compat.cocycle_search_calls": (cocycles.calls, "count"),
        "compat.cocycle_search_s": (cocycles.total, "s"),
        "compat.cocycles_found": (cocycles.items, "count"),
        "compat.self_s": (tracer.layer_self("compat"), "s"),
        "compat.check_c_calls": (check_c.calls, "count"),
        "compat.check_c_pass_ratio": (_ratio(check_c.items, check_c.calls),
                                      "ratio"),
        "compat.ccore_s": (s("compat.compatibility_core").total, "s"),
        "permcore.subgroups_enumerated": (subgroups.items, "count"),
        "permcore.all_subgroups_s": (subgroups.total, "s"),
        "permcore.gen_set_calls": (gen_set.calls, "count"),
        "permcore.gen_set_s": (gen_set.total, "s"),
        "permcore.closure_calls": (closure.calls, "count"),
        "permcore.closure_s": (closure.total, "s"),
        "permcore.self_s": (tracer.layer_self("permcore"), "s"),
        "balls.generated_calls": (generated.calls, "count"),
        "balls.generated_elems_per_s": (_ratio(generated.items,
                                               generated.total), "1/s"),
        "balls.from_elements_calls": (from_elements.calls, "count"),
        "balls.from_elements_s": (from_elements.total, "s"),
        "balls.products": (tracer.products, "count"),
        "balls.self_s": (tracer.layer_self("balls"), "s"),
        "census.conjugacy_tests": (s("census.are_conjugate_in").calls,
                                   "count"),
        "census.conjugacy_s": (s("census.are_conjugate_in").total, "s"),
        "census.self_s": (tracer.layer_self("census"), "s"),
        "constructions.full_lift_s": (s("constructions.build_full_lift").total,
                                      "s"),
        "constructions.tower_s": (s("constructions.build_tower").total, "s"),
        "constructions.cocycle_extension_calls": (
            s("constructions.build_cocycle_extension").calls, "count"),
        "constructions.self_s": (tracer.layer_self("constructions"), "s"),
        "universal.extensions_streamed": (streams.items, "count"),
        "universal.extensions_per_s": (_ratio(streams.items, streams.total),
                                       "1/s"),
        "universal.count_s": (s("universal.count_restrictions").total
                              + s("universal.restriction_count_factors").total,
                              "s"),
        "universal.self_s": (tracer.layer_self("universal"), "s"),
        "documents.bytes_parsed": (parse.items, "bytes"),
        "documents.parse_mb_per_s": (_ratio(parse.items / 1e6, parse.total),
                                     "MB/s"),
        "documents.serialize_s": (s("documents.serialize_document").total,
                                  "s"),
        "documents.group_build_s": (s("documents.group_from_document").total,
                                    "s"),
        "documents.self_s": (tracer.layer_self("documents"), "s"),
        "cli.self_s": (tracer.layer_self("cli"), "s"),
    }
    return out



def _per_op_us(fn, args_list, repeats=5):
    """Median over `repeats` passes of the time per call, in microseconds."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for args in args_list:
            fn(*args)
        times.append((time.perf_counter() - start) / len(args_list))
    times.sort()
    return times[len(times) // 2] * 1e6


def layer_cases(tb, oracle, rng):
    """Primitives timed directly: products at degree 3, radii 2-4, and a
    fiber lookup on a warm group. Run with tracing off."""
    out = {}
    words3 = oracle.ball_words(3, 3)
    index = {w: i for i, w in enumerate(words3)}
    perms = []
    for _ in range(64):
        wm = oracle.random_automorphism(3, 3, rng)
        perms.append(tb.Perm(tuple(index[wm[w]] for w in words3)))
    pairs = [(perms[i], perms[(i * 7 + 3) % 64]) for i in range(64)] * 40
    out["permcore.perm_mul_us"] = (_per_op_us(lambda a, b: a * b, pairs),
                                   "us")
    for radius, reps in ((2, 40), (3, 12), (4, 4)):
        auts = [tb.BallAut.from_wordmap(
                    3, radius, oracle.random_automorphism(3, radius, rng))
                for _ in range(32)]
        pairs = [(auts[i], auts[(i * 5 + 1) % 32]) for i in range(32)] * reps
        out["balls.mul_us.r%d" % radius] = (
            _per_op_us(lambda a, b: a * b, pairs), "us")
    group = tb.build_full_lift(tb.PermGroup.symmetric(3), radius=3)
    elements = list(group.elements)
    queries = [(group, elements[rng.randrange(len(elements))], rng.randrange(3))
               for _ in range(2000)]
    tb.compat_set(*queries[0])
    out["compat.compat_set_us"] = (_per_op_us(tb.compat_set, queries), "us")
    return out
