"""documents: the user's path through the CLI on a fixed corpus of files.

Each round writes element documents of the named constructions with
`construct --out`, writes their generator documents with `pk-local --target
k --format json`, then reads every document back once per command. The
corpus also holds seeded random generator sets at degree 3, radii 3 and 4,
a few malformed documents, and one non-group element list that the CLI
crashes on today (counted as the round's one failed operation).
"""

import json
import os
import re

import harness
import oracle as O

ROUNDS = 1

#: name, `construct` arguments, k, |F|, (C), (D), i.c.c. (None: not run).
#: Orders and flags are the paper's; the full lifts are |Aut B(3, k)|.
NAMED = [
    ("fla3", ["full-lift", "A3"], 2, 3, True, True, True),
    ("diag", ["diagonal", "S3"], 2, 6, True, True, True),
    ("cent", ["centered", "S3"], 2, 12, True, True, True),
    ("par01", ["parity", "S3", "--spheres", "0,1"], 2, 24, True, False, False),
    ("par1", ["parity", "S3", "--spheres", "1"], 2, 24, True, False, True),
    ("fls3", ["full-lift", "S3"], 2, 48, True, False, None),
    ("fls3r3", ["full-lift", "S3", "--radius", "3"], 3, 3072, True, False,
     None),
]
FULL_LIFTS = ("fls3", "fls3r3")

#: random generator sets: (radius, count, smallest and largest order kept).
#: A set is one random automorphism and one random last-level twist; the
#: window is narrow so that every seed's sets cost about the same to load.
RANDOM_SETS = [(3, 2, 384, 384), (4, 2, 384, 384)]

#: (file name, body, what is wrong with it); check-c must exit 2 on each
MALFORMED = [
    ("bad-json.json", "{\"degree\": 3,", "not JSON"),
    ("bad-encoding.json", json.dumps({
        "degree": 3, "radius": 1, "encoding": "perm", "metadata": {},
        "elements": [{"0": "0", "1": "1", "2": "2"}]}), "unknown encoding"),
    ("bad-cover.json", json.dumps({
        "degree": 3, "radius": 2, "encoding": "flat-word-map", "metadata": {},
        "elements": [{"0": "0", "1": "1", "2": "2", "01": "01"}]}),
     "vertex table misses most of the ball"),
]

#: the transposition alone is not a group; check-c should exit 2, not crash
NON_GROUP = json.dumps({
    "degree": 3, "radius": 1, "encoding": "flat-word-map", "metadata": {},
    "elements": [{"0": "1", "1": "0", "2": "2"}]}, sort_keys=True)

READS = ["classify", "check-c", "check-d", "discrete", "ccore",
         "count-restrictions", "pk-local"]


# ---------------------------------------------------------------------------
# inputs and set-up
# ---------------------------------------------------------------------------

def make_inputs(rng):
    """Seeded random generator sets, each kept only if sympy puts its order
    inside the window; with the facts the oracle needs about each."""
    sets = []
    for radius, count, low, high in RANDOM_SETS:
        for i in range(count):
            while True:
                gens = [O.random_automorphism(3, radius, rng),
                        kernel_element(3, radius, rng)]
                group = O.sympy_group(gens, 3, radius)
                if low <= group.order() <= high:
                    break
            sets.append(random_facts("rand-r%d-%d" % (radius, i), gens,
                                     group, radius))
    return {"random": sets}


def kernel_element(degree, radius, rng):
    """Random element acting only on the last level: it permutes the
    leaves below each vertex of the next-to-last level."""
    wm = O.identity_map(degree, radius)
    for v in O.ball_words(degree, radius - 1):
        if len(v) == radius - 1:
            kids = [x for x in range(degree) if x != v[-1]]
            shuffled = kids[:]
            rng.shuffle(shuffled)
            for x, y in zip(kids, shuffled):
                wm[v + (x,)] = v + (y,)
    return wm


def random_facts(name, gens, group, radius):
    words = O.ball_words(3, radius)
    elements = [{w: words[p(i)] for i, w in enumerate(words)}
                for p in group.generate()]
    fibers = O.identity_fiber_sizes(elements, 3, radius)
    return {
        "name": name, "k": radius, "generators": gens,
        "order": int(group.order()),
        "C": O.every_generator_glues(gens, elements, 3, radius),
        "D": fibers == [1, 1, 1], "fibers": fibers,
        "transitive": local_actions_transitive(gens, 3, radius),
    }


def local_actions_transitive(gens, degree, radius):
    """Is the group of every one-step local action of the generators
    transitive on the labels?"""
    perms = []
    for g in gens:
        for v in [()] + [w for w in O.ball_words(degree, radius - 1)]:
            chart = O.local_action(g, v, degree, 1)
            perms.append({(x,): chart[(x,)] for x in range(degree)})
    return O.level1_transitive(perms, degree)


def prepare(tb, workdir, inputs):
    for facts in inputs["random"]:
        path = os.path.join(workdir, facts["name"] + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(O.generator_document(3, facts["k"], facts["generators"],
                                          "random generator set"))
    for name, body, _ in MALFORMED:
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(body)
    with open(os.path.join(workdir, "non-group.json"), "w",
              encoding="utf-8") as fh:
        fh.write(NON_GROUP)
    warm = harness.run_cli(tb, ["construct", "diagonal", "S3"])
    if warm.code != 0:
        raise harness.SetupError("warm-up command failed: %s" % warm.err)
    return {"dir": workdir, "random": inputs["random"], "facts": {},
            "bytes": {}}


# ---------------------------------------------------------------------------
# one round
# ---------------------------------------------------------------------------

def run_round(tb, state, rec, rng, first, tracer):
    d = state["dir"]

    def cli(args, phase):
        out = harness.run_cli(tb, args, tracer)
        rec.op(args[0], phase, out.seconds, ok=not out.crashed)
        return out

    docs = []
    for name, args, k, order, C, D, icc in NAMED:
        phase = "lifts" if k > 2 else "census"
        path = os.path.join(d, name + ".json")
        out = cli(["construct"] + args + ["--out", path], phase)
        rec.check(out.code == 0, "construct %s exited %d" % (name, out.code))
        gen_path = os.path.join(d, "gen-" + name + ".json")
        out = cli(["pk-local", "--target", str(k), "--format", "json",
                   "--in", path], phase)
        rec.check(out.code == 0, "pk-local %s exited %d" % (name, out.code))
        with open(gen_path, "w", encoding="utf-8") as fh:
            fh.write(out.out)
        if first:
            state["facts"][name] = named_facts(tb, path, gen_path, name, k,
                                               order, C, D, icc, rec, rng)
        rec.checks(same_bytes(state, path, gen_path), name)
        docs.append((name, path, phase))
        if k == 2:
            # reading the radius-3 generator document back would rebuild
            # 3072 elements per command, doubling the round
            docs.append((name, gen_path, phase))

    docs += [(f["name"], os.path.join(d, f["name"] + ".json"), "lifts")
             for f in state["random"]]
    facts_of = dict(state["facts"], **{f["name"]: f for f in state["random"]})
    # command by command, so that the cheap reads are spread over the whole
    # round instead of sharing one stretch of the machine's speed
    for command in READS + ["cocycles"]:
        for name, path, phase in docs:
            facts = facts_of[name]
            if command == "cocycles" and facts.get("icc") is None:
                continue
            out = cli(read_args(command, path, facts["k"]), phase)
            rec.checks(check_read(command, out, facts),
                       "%s %s" % (command, os.path.basename(path)))

    out = cli(["check-c", "--in", os.path.join(d, "non-group.json")], "other")
    rec.check(out.crashed or out.code == 2,
              "check-c on a non-group answered with exit %d" % out.code)
    for name, _, why in MALFORMED:
        out = cli(["check-c", "--in", os.path.join(d, name)], "other")
        rec.check(out.code == 2 and not out.crashed,
                  "check-c on %s (%s) exited %d" % (name, why, out.code))


def read_args(command, path, k):
    if command == "count-restrictions":
        return [command, "--in", path, "--ball", str(k + 3), "--stabilizer"]
    if command == "pk-local":
        return [command, "--in", path, "--target", str(k + 1)]
    return [command, "--in", path]


def named_facts(tb, path, gen_path, name, k, order, C, D, icc, rec, rng):
    """What the oracle knows about a named construction, checked against
    the documents the program wrote for it."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(gen_path, encoding="utf-8") as fh:
        gen_text = fh.read()
    degree, radius, kind, elements = O.read_document(json.loads(text))
    _, _, gen_kind, gens = O.read_document(json.loads(gen_text))
    where = "documents of %s" % name
    rec.check((degree, radius, kind, gen_kind)
              == (3, k, "elements", "generators"),
              "%s: wrong shape or kind" % where)
    rec.check(len({O.freeze(m) for m in elements}) == order,
              "%s: element count is not %d" % (where, order))
    rec.check(all(O.is_automorphism(m, 3, k) for m in elements),
              "%s: an element is not a ball automorphism" % where)
    rec.check(O.sympy_order(gens, 3, k) == order,
              "%s: generators do not make a group of order %d"
              % (where, order))
    if name in FULL_LIFTS:
        rec.check(order == O.aut_order(3, k),
                  "%s: order is not |Aut B(3, %d)|" % (where, k))
    members = {O.freeze(m) for m in elements}
    for _ in range(16):
        a, b = rng.choice(elements), rng.choice(elements)
        if O.freeze(O.compose(a, b, 3, k)) not in members:
            rec.check(False, "%s: element list is not closed" % where)
            break
    for doc_text in (text, gen_text):
        doc = tb.parse_document(doc_text)
        again = tb.serialize_document(doc)
        rec.check(again == doc_text and tb.parse_document(again) == doc,
                  "%s: serialize(parse(text)) changes the document" % where)
    return {
        "name": name, "k": k, "order": order, "C": C, "D": D, "icc": icc,
        "fibers": O.identity_fiber_sizes(elements, 3, k),
        "transitive": True,
        "closed_form": O.aut_order(3, k + 3) if name in FULL_LIFTS else None,
    }


def same_bytes(state, path, gen_path):
    """Every round must write byte-identical documents."""
    errors = []
    for p in (path, gen_path):
        with open(p, "rb") as fh:
            data = fh.read()
        if state["bytes"].setdefault(p, data) != data:
            errors.append("%s differs from the first round" % p)
    return errors


# ---------------------------------------------------------------------------
# what each command must print
# ---------------------------------------------------------------------------

def check_read(command, out, facts):
    """Messages for every way `out` disagrees with the oracle's facts."""
    if out.crashed:
        return ["crashed: %s" % out.err.strip().splitlines()[-1:]]
    k, order, C, D = facts["k"], facts["order"], facts["C"], facts["D"]
    text = out.out
    if command in ("classify", "check-c", "check-d", "discrete", "ccore",
                   "cocycles") and out.code != 0:
        return ["exit %d" % out.code]
    if command == "classify":
        want = "transitive: %s" % _yn(facts["transitive"])
        return [] if want in text.splitlines() else ["expected %r" % want]
    if command == "check-c":
        return _flag(text, "C", C)
    if command == "check-d":
        return _flag(text, "D", D)
    if command == "discrete":
        if not C:
            return [] if re.fullmatch(r"discrete: (yes|no)\n", text) \
                else ["malformed answer %r" % text]
        return _flag(text, "discrete", D)
    if command == "cocycles":
        m = re.fullmatch(r"involutive cocycles: (\d+)\n", text)
        if not m or (int(m.group(1)) > 0) != facts["icc"]:
            return ["i.c.c. should be %s, got %r" % (_yn(facts["icc"]), text)]
        return []
    if command == "ccore":
        m = re.fullmatch(r"core order: (\d+) \(input order (\d+)\)\n", text)
        if not m:
            return ["malformed answer %r" % text]
        core, whole = int(m.group(1)), int(m.group(2))
        if whole != order or whole % core or (core == whole) != C:
            return ["core %d of %d, expected a core of the order-%d group"
                    " that is %s" % (core, whole, order,
                                     "all of it" if C else "proper")]
        return []
    if not C:
        return [] if out.code == 2 else ["should refuse a group failing (C),"
                                         " exit %d" % out.code]
    expect = O.restriction_count(order, facts["fibers"], 3, k,
                                 k + (3 if command == "count-restrictions"
                                      else 1))
    if command == "count-restrictions":
        return check_count(out, expect, facts)
    return check_pk_local(out, expect, k + 1)


def check_count(out, expect, facts):
    if out.code != 0:
        return ["exit %d" % out.code]
    m = re.fullmatch(r"count: (.+)\n", out.out)
    if not m:
        return ["malformed answer %r" % out.out]
    got = 1
    for factor in m.group(1).split(" * "):
        base, _, exp = factor.partition("^")
        got *= int(base) ** int(exp or 1)
    errors = []
    if got != expect:
        errors.append("count %d, expected %d" % (got, expect))
    if facts.get("closed_form") and got != facts["closed_form"]:
        errors.append("count %d is not |Aut B(3, k+3)|" % got)
    if facts["D"] and got != facts["order"]:
        errors.append("trivial seams, yet count %d != |F|" % got)
    return errors


def check_pk_local(out, expect, radius):
    if out.code == 2 and not out.crashed:
        # refused as too large: the message must name the right order
        return [] if re.search(r"\b%d\b" % expect, out.err) \
            else ["refusal does not name order %d: %r" % (expect, out.err)]
    m = re.fullmatch(r"radius (\d+) action: order (\d+), \d+ generators\n",
                     out.out)
    if out.code != 0 or not m:
        return ["exit %d, answer %r" % (out.code, out.out)]
    if (int(m.group(1)), int(m.group(2))) != (radius, expect):
        return ["radius %s order %s, expected %d and %d"
                % (m.group(1), m.group(2), radius, expect)]
    return []


def _flag(text, label, want):
    got = "%s: %s\n" % (label, _yn(want))
    return [] if text == got else ["expected %r, got %r" % (got, text)]


def _yn(flag):
    return "yes" if flag else "no"
