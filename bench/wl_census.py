"""census: the degree-3 classification table, the work of `treeball s3-table`.

One round runs census_compatible_classes(3, 2) and census_discrete_lifts on
its rows. The input is the paper's (degree 3, radius 2), so the seed only
drives the oracle's random closure spot checks.
"""

import harness
import oracle as O

ROUNDS = 2

#: The paper's degree-3 table: description, k, level-1 image, |F|, (C),
#: (D), i.c.c. The last two rows are the rigid classes found one radius up.
PAPER_TABLE = [
    ("full-lift(A_3)", 2, "A_3", 3, True, True, True),
    ("diagonal(S_3)", 2, "S_3", 6, True, True, True),
    ("centered(S_3)", 2, "S_3", 12, True, True, True),
    ("parity(S_3,{0,1})", 2, "S_3", 24, True, False, False),
    ("parity(S_3,{1})", 2, "S_3", 24, True, False, True),
    ("full-lift(S_3)", 2, "S_3", 48, True, False, False),
    ("cocycle-lift(parity(S_3,{1}))", 3, "S_3", 24, True, True, True),
    ("cocycle-ext(parity(S_3,{1}), kernel 2)", 3, "S_3", 48, True, True, True),
]
LIFT_BASE = "parity(S_3,{1})"


def prepare(tb, workdir, inputs):
    return {}


def run_round(tb, state, rec, rng, first, tracer):
    rows, seconds, error = harness.call(tb.census_compatible_classes, 3, 2)
    rec.op("census", "census", seconds, ok=error is None)
    lifts, seconds = None, 0.0
    if error is None:
        lifts, seconds, error = harness.call(tb.census_discrete_lifts, rows)
    rec.op("lifts", "lifts", seconds, ok=error is None)
    if error is not None:
        rec.check(False, "census raised %r" % error)
        return
    facts = [row_facts(r) for r in rows]
    lift_facts = [row_facts(r) for r in lifts]
    rec.checks(check_table(facts, lift_facts, rng), "census")


def row_facts(row):
    """A census row as plain data, its representative as word maps."""
    group = row.group
    return {
        "key": (row.description, row.radius, row.projection, row.order,
                bool(row.compatible), bool(row.trivial_seams),
                bool(row.has_cocycle)),
        "gamma": row.gamma_image_of,
        "degree": group.degree,
        "radius": group.radius,
        "elements": [a.to_wordmap() for a in group.elements],
        "generators": [a.to_wordmap() for a in group.generators],
    }


def check_table(base, lifts, rng):
    """Every way the printed table can disagree with the paper or with an
    independent look at its representatives; returns the messages."""
    errors = []
    fresh = [f for f in lifts if f["gamma"] is None]
    table = [f["key"] for f in base + fresh]
    if table != PAPER_TABLE:
        errors.append("table differs from the paper: %r" % (table,))
    by_name = {f["key"][0]: f for f in base}
    for f in base + lifts:
        errors.extend(check_representative(f, rng))
    lift_base = by_name.get(LIFT_BASE)
    for f in fresh:
        if lift_base is None or _projection(f) != _element_set(lift_base):
            errors.append("%s does not project onto %s"
                          % (f["key"][0], LIFT_BASE))
    for f in lifts:
        if f["gamma"] is None:
            continue
        below = by_name.get(f["gamma"])
        if below is None or not below["key"][5]:
            errors.append("%s is flagged as the image of a non-rigid row"
                          % f["key"][0])
        elif (_projection(f) != _element_set(below)
              or f["key"][3] != below["key"][3]):
            errors.append("%s is not the unique lift of %s"
                          % (f["key"][0], f["gamma"]))
    return errors


def check_representative(f, rng):
    name, _, _, order, compatible, trivial, _ = f["key"]
    d, r = f["degree"], f["radius"]
    errors = []
    elements = _element_set(f)
    if len(elements) != order or len(f["elements"]) != order:
        errors.append("%s: %d distinct elements, order says %d"
                      % (name, len(elements), order))
    if O.sympy_order(f["generators"], d, r) != order:
        errors.append("%s: generators make a group of order %d, not %d"
                      % (name, O.sympy_order(f["generators"], d, r), order))
    for _ in range(24):
        a, b = rng.choice(f["elements"]), rng.choice(f["elements"])
        if O.freeze(O.compose(a, b, d, r)) not in elements:
            errors.append("%s: element set is not closed" % name)
            break
    if not O.level1_transitive(f["generators"], d):
        errors.append("%s: level-1 action is not transitive" % name)
    if O.every_generator_glues(f["generators"], f["elements"], d, r) \
            != compatible:
        errors.append("%s: (C) flag disagrees with the gluing test" % name)
    if (O.identity_fiber_sizes(f["elements"], d, r) == [1] * d) != trivial:
        errors.append("%s: (D) flag disagrees with the identity fibers"
                      % name)
    return errors


def _element_set(f):
    return {O.freeze(m) for m in f["elements"]}


def _projection(f):
    return {O.freeze(O.restrict(m, f["radius"] - 1)) for m in f["elements"]}
