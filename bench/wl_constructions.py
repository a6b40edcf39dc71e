"""constructions: ball-automorphism algebra at degrees 3-8, no documents.

One round grows the three self-extension towers to radius 3, builds the
wreath, full-lift(S4) and full-lift(S3) at radius 3 through the CLI, and
streams every extension of the six degree-3 census classes to radius 3.
The inputs are the named constructions, so the seed only picks which
streamed extensions the oracle inspects chart by chart.
"""

import re

import harness
import oracle as O

ROUNDS = 2

#: tower kind -> (base group order, blocks, index of the pinned block)
TOWERS = {
    "pinned-orbit": (8, ((0, 1), (2, 3), (4, 5)), 0),
    "pinned-center": (8, ((0, 1), (2, 3), (4, 5)), 0),
    "partition": (24, ((0, 1), (2, 5), (3, 7), (4, 6)), None),
}
#: `construct` arguments -> (degree, radius, closed-form order)
BUILDS = [
    (["wreath", "S3", "--top", "C2"], (6, 2, 6 ** 4 * 2)),
    (["full-lift", "S4"], (4, 2, O.aut_order(4, 2))),
    (["full-lift", "S3", "--radius", "3"], (3, 3, O.aut_order(3, 3))),
]
#: the six census classes, built through the library for streaming
STREAMED = ["full-lift(S_3)", "diagonal(S_3)", "centered(S_3)",
            "full-lift(A_3)", "parity(S_3,{1})", "parity(S_3,{0,1})"]
SAMPLED = 24


def prepare(tb, workdir, inputs):
    S3, A3 = tb.PermGroup.symmetric(3), tb.PermGroup.alternating(3)
    sign = {p: (0 if p.sign() == 1 else 1) for p in S3.elements}
    groups = {
        "full-lift(S_3)": tb.build_full_lift(S3),
        "diagonal(S_3)": tb.build_diagonal(S3),
        "centered(S_3)": tb.build_centered(S3, center=S3.stabilizer(0)),
        "full-lift(A_3)": tb.build_full_lift(A3),
        "parity(S_3,{1})": tb.build_parity_lift(S3, sign, 2, [1]),
        "parity(S_3,{0,1})": tb.build_parity_lift(S3, sign, 2, [0, 1]),
    }
    return {"groups": groups, "facts": {}}


class Capture:
    """Keeps what the CLI's builders return, so the oracle can look at the
    groups whose orders the CLI printed."""

    NAMES = ("build_tower", "build_wreath_local", "build_full_lift")

    def __init__(self, cli_module):
        self.module = cli_module
        self.saved = {n: getattr(cli_module, n) for n in self.NAMES}
        self.results = []
        for name, fn in self.saved.items():
            setattr(cli_module, name, self._keep(fn))

    def _keep(self, fn):
        def kept(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.results.append(result)
            return result
        return kept

    def take(self):
        out, self.results = self.results, []
        return out

    def close(self):
        for name, fn in self.saved.items():
            setattr(self.module, name, fn)


def run_round(tb, state, rec, rng, first, tracer):
    capture = Capture(tb.cli)
    try:
        for kind, (base_order, blocks, pinned) in TOWERS.items():
            out = harness.run_cli(tb, ["tower", kind, "--steps", "3"], tracer)
            rec.op("tower", "lifts", out.seconds, ok=not out.crashed)
            built = capture.take()
            if first:
                state["facts"][kind] = out.out
                rec.checks(check_tower(out, built[-1] if built else None,
                                       base_order, blocks, pinned),
                           "tower " + kind)
            rec.check(out.out == state["facts"][kind],
                      "tower %s printed %r, unlike its first round"
                      % (kind, out.out))
        for args, (degree, radius, order) in BUILDS:
            out = harness.run_cli(tb, ["construct"] + args, tracer)
            phase = "lifts" if radius > 2 else "other"
            rec.op("construct", phase, out.seconds, ok=not out.crashed)
            built = capture.take()
            group = built[-1] if built else None
            group = getattr(group, "group", group)
            rec.checks(check_build(out, group, degree, radius, order),
                       "construct " + " ".join(args))
    finally:
        capture.close()

    for name in STREAMED:
        group = state["groups"][name]
        stream, seconds, error = harness.call(
            lambda: list(tb.iter_extensions(group, group.radius + 1)))
        rec.op("stream", "census", seconds, ok=error is None)
        if error is not None:
            rec.check(False, "streaming %s raised %r" % (name, error))
            continue
        if first:
            state["facts"][name] = stream_facts(tb, group)
        rec.checks(check_stream([a.to_wordmap() for a in stream],
                                state["facts"][name], rng),
                   "stream " + name)


# ---------------------------------------------------------------------------
# towers and builds
# ---------------------------------------------------------------------------

def check_tower(out, tower, base_order, blocks, pinned):
    """Printed orders must follow the block-constant lift formula: the next
    level has |L| times, for each unpinned block, the number of members of
    L gluing to the identity along every direction of the block."""
    if out.code != 0:
        return ["exit %d: %s" % (out.code, out.err.strip()[-200:])]
    printed = [(int(r), int(n), bool(c)) for r, n, c in re.findall(
        r"level (\d+): order (\d+)( \(certified only\))?\n", out.out)]
    if tower is None or len(printed) != len(tower.levels):
        return ["printed %r for %d levels" % (out.out, len(
            tower.levels) if tower else -1)]
    errors = []
    expected = base_order
    for (radius, order, certified), level in zip(printed, tower.levels):
        if order != expected:
            errors.append("level %d: order %d, expected %d"
                          % (radius, order, expected))
        if level.group is None:
            if not certified:
                errors.append("level %d not built, yet not marked certified"
                              % radius)
            break
        d = level.group.degree
        gens = [a.to_wordmap() for a in level.group.generators]
        if O.sympy_order(gens, d, radius) != order:
            errors.append("level %d: generators make a group of order %d"
                          % (radius, O.sympy_order(gens, d, radius)))
        if level is tower.levels[-1]:
            break
        elements = [a.to_wordmap() for a in level.group.elements]
        ident = O.identity_map(d, radius)
        expected = len(elements)
        for i, block in enumerate(blocks):
            if i != pinned:
                expected *= sum(1 for b in elements if all(
                    O.glues(ident, b, w, d, radius) for w in block))
    return errors


def check_build(out, group, degree, radius, order):
    m = re.fullmatch(r"\S+: degree (\d+) radius (\d+) order (\d+)\n", out.out)
    if out.code != 0 or not m:
        return ["exit %d, answer %r" % (out.code, out.out)]
    got = tuple(int(x) for x in m.groups())
    if got != (degree, radius, order):
        return ["printed degree, radius, order %r, expected %r"
                % (got, (degree, radius, order))]
    if group is None:
        return ["no group came back from the builder"]
    gens = [a.to_wordmap() for a in group.generators]
    found = O.sympy_order(gens, degree, radius)
    if found != order:
        return ["generators make a group of order %d, not %d"
                % (found, order)]
    return []


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------

def stream_facts(tb, group):
    elements = [a.to_wordmap() for a in group.elements]
    k = group.radius
    fibers = O.identity_fiber_sizes(elements, 3, k)
    return {
        "k": k,
        "members": {O.freeze(m) for m in elements},
        "count": O.restriction_count(len(elements), fibers, 3, k, k + 1),
        "program_count": tb.count_restrictions(group, k + 1),
        "full": len(elements) == O.aut_order(3, k),
    }


def check_stream(maps, facts, rng):
    """Streamed extensions are distinct, as many as the count, and every
    sampled one has all its radius-k charts in the group."""
    k = facts["k"]
    errors = []
    if len(maps) != facts["count"] or facts["program_count"] != facts["count"]:
        errors.append("%d streamed, count_restrictions %d, oracle %d"
                      % (len(maps), facts["program_count"], facts["count"]))
    if facts["full"] and len(maps) != O.aut_order(3, k + 1):
        errors.append("full lift streams %d maps, not |Aut B(3, %d)|"
                      % (len(maps), k + 1))
    if len({O.freeze(m) for m in maps}) != len(maps):
        errors.append("streamed extensions repeat")
    for m in rng.sample(maps, min(SAMPLED, len(maps))):
        charts = [O.restrict(m, k)] + [O.local_action(m, (w,), 3, k)
                                       for w in range(3)]
        if not O.is_automorphism(m, 3, k + 1) or any(
                O.freeze(c) not in facts["members"] for c in charts):
            errors.append("an extension has a chart outside the group")
            break
    return errors
