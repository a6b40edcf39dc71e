"""Command-line surface.

Each subcommand wraps one library operation, reads groups from document
files, and prints either text or JSON. Everything is deterministic; there
is no seed anywhere. Exit codes: 0 on success, 1 when --expect is given
and the computed answer differs, 2 on unusable input. Unusable input is
reported in one place, `main`, whatever layer detects it, the argument
parser included.
"""

import argparse
import functools
import json
import os
import sys

from .census import (_yn, census_compatible_classes, census_discrete_lifts,
                     degree3_table, format_table)
from .compat import (_involutive_sections, check_compatibility,
                     check_trivial_seams, compatibility_core)
from .constructions import (build_centered, build_diagonal, build_full_lift,
                            build_parity_lift, build_tower,
                            build_wreath_local)
from .documents import (document_from_group, group_from_document,
                        load_document, save_document, serialize_document)
from .errors import CapacityError, HypothesisError
from .permcore import (Perm, PermGroup, classify_action, factorize,
                       format_factors)
from .universal import (_restriction_count, is_discrete_universal,
                        local_action_group, pk_local_action)


def _arg(*flags, **keywords):
    """One add_argument call, kept until the parser is built."""
    return flags, keywords


_FMT = _arg("--format", dest="fmt", choices=("text", "json"),
            default="text", help="Output rendering (default: text).")
_IN = _arg("--in", dest="path", required=True,
           help="Group document to read.")
_EXPECT = _arg("--expect", choices=("yes", "no"), default=None,
               help="Exit 1 if the answer differs from this.")

#: (name, function, arguments) of every subcommand, in definition order
_COMMANDS = []


def _command(name, *arguments):
    """Registers the decorated function as subcommand `name`; the parsed
    arguments are passed to it by their dest names."""
    def register(fn):
        _COMMANDS.append((name, fn, arguments))
        return fn
    return register


class _Parser(argparse.ArgumentParser):
    """Hands every parse error to `main` as a ValueError, where argparse
    would print a usage block and exit."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def _parser():
    """The argument parser, built on the first command line it reads."""
    top = _Parser(prog="treeball", allow_abbrev=False, description=(
        "Gluing data for groups acting on balls of a regular tree."))
    commands = top.add_subparsers(metavar="COMMAND", required=True)
    for name, fn, arguments in _COMMANDS:
        sub = commands.add_parser(name, allow_abbrev=False,
                                  help=fn.__doc__.split("\n")[0],
                                  description=fn.__doc__)
        for flags, keywords in arguments:
            sub.add_argument(*flags, **keywords)
        sub.set_defaults(run=fn)
    return top


def main(argv=None):
    """Run the command line `argv` (default: sys.argv[1:])."""
    try:
        args = vars(_parser().parse_args(argv))
        args.pop("run")(**args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left before the output did: stop quietly, exit 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except (CapacityError, ValueError, OSError) as err:
        # ValueError covers DocumentError, HypothesisError and parse errors,
        # OSError an unreadable --in or unwritable --out; any other
        # exception is a bug and stays loud
        sys.stderr.write("Error: %s\n" % err)
        sys.exit(2)


# bench/harness.py calls main.main(args=, prog_name=, standalone_mode=)
main.main = lambda args=None, **_: main(args)


def _named_group(spec):
    """A permutation group from a short name like S3, A4, C5, D6, V4."""
    name = spec.strip().lower()
    fixed = {
        "v4": lambda: PermGroup.generated([
            Perm((1, 0, 3, 2)), Perm((2, 3, 0, 1))]),
        "sl23": _sl23,
        "flips6": lambda: PermGroup.generated([
            Perm((1, 0, 2, 3, 4, 5)), Perm((0, 1, 3, 2, 4, 5)),
            Perm((0, 1, 2, 3, 5, 4))]),
    }
    if name in fixed:
        return fixed[name]()
    if len(name) >= 2 and name[0] in "sacd" and name[1:].isdigit():
        n = int(name[1:])
        if n < 2:
            raise ValueError("group %r is too small" % spec)
        maker = {"s": PermGroup.symmetric, "a": PermGroup.alternating,
                 "c": PermGroup.cyclic, "d": PermGroup.dihedral}[name[0]]
        return maker(n)
    raise ValueError(
        "unknown group %r; use Sn, An, Cn, Dn, V4, SL23 or FLIPS6" % spec)


def _sl23():
    vecs = [(0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]
    index = {v: i for i, v in enumerate(vecs)}

    def mat_perm(a, b, c, d):
        images = []
        for x, y in vecs:
            images.append(index[((a * x + b * y) % 3, (c * x + d * y) % 3)])
        return Perm(tuple(images))

    return PermGroup.generated([mat_perm(1, 1, 0, 1), mat_perm(0, 2, 1, 0)])


_DEFAULT_BLOCKS = {
    "sl23": ((0, 1), (2, 5), (3, 7), (4, 6)),
    "flips6": ((0, 1), (2, 3), (4, 5)),
}


def _fmt_count(n):
    """n itself while it fits in an int64, else its prime factorization."""
    return str(n) if n < 2 ** 63 else format_factors(factorize(n))


def _exit_on_mismatch(expect, value):
    """Exit 1 when --expect was given and the answer's truth differs."""
    if expect is not None and (expect == "yes") != bool(value):
        sys.exit(1)


def _finish_bool(label, value, expect, fmt, json_key):
    if fmt == "json":
        print(json.dumps({json_key: bool(value)}))
    else:
        print("%s: %s" % (label, _yn(value)))
    _exit_on_mismatch(expect, value)


@_command("classify", _IN, _FMT)
def classify_cmd(path, fmt):
    """Describe the one-step action at the center of the input group."""
    group = group_from_document(load_document(path))
    body = classify_action(local_action_group(group))._asdict()
    body["orbits"] = [list(o) for o in body["orbits"]]
    body["minimal_blocks"] = [[list(b) for b in sys_]
                              for sys_ in body["minimal_blocks"]]
    if fmt == "json":
        print(json.dumps(body, sort_keys=True))
        return
    for key, value in list(body.items())[:8]:  # the fields before the orbits
        print("%s: %s" % (key, _yn(value)
                          if isinstance(value, bool) else value))
    print("orbits: %s" % (body["orbits"],))


@_command("check-c", _IN, _FMT, _EXPECT)
def check_c_cmd(path, fmt, expect):
    """Does every element have a gluing partner in every direction."""
    group = group_from_document(load_document(path))
    _finish_bool("C", check_compatibility(group),
                 expect, fmt, "C")


@_command("check-d", _IN, _FMT, _EXPECT)
def check_d_cmd(path, fmt, expect):
    """Are all seam groups of the input trivial."""
    group = group_from_document(load_document(path))
    _finish_bool("D", check_trivial_seams(group), expect, fmt, "D")


@_command("discrete", _IN, _FMT, _EXPECT)
def discrete_cmd(path, fmt, expect):
    """Does the input prescribe a discrete universal completion."""
    group = group_from_document(load_document(path))
    _finish_bool("discrete", is_discrete_universal(group), expect, fmt,
                 "discrete")


@_command("ccore", _IN, _FMT)
def ccore_cmd(path, fmt):
    """Largest subgroup of the input whose elements all glue."""
    group = group_from_document(load_document(path))
    core = compatibility_core(group)
    if fmt == "json":
        doc = document_from_group(
            core, metadata={"construction": "compatibility core"})
        print(serialize_document(doc), end="")
        return
    print("core order: %d (input order %d)" % (core.order, group.order))


@_command("cocycles", _IN, _FMT, _EXPECT)
def cocycles_cmd(path, fmt, expect):
    """Count the involutive gluing cocycles of the input."""
    group = group_from_document(load_document(path))
    count = sum(1 for _ in _involutive_sections(group))
    if fmt == "json":
        print(json.dumps({"involutive_cocycles": count}))
    else:
        print("involutive cocycles: %d" % count)
    _exit_on_mismatch(expect, count)


@_command("construct",
          _arg("kind", choices=("diagonal", "centered", "full-lift",
                                "parity", "wreath")),
          _arg("group_name"),
          _arg("--top", dest="top_name", default=None,
               help="Acting group for wreath (required there)."),
          _arg("--spheres", default="1",
               help="Comma-separated sphere indices for parity."),
          _arg("--radius", type=int, default=None,
               help="Target radius for full-lift."),
          _arg("--out", dest="out_path", default=None,
               help="Write the document here instead of stdout."),
          _FMT)
def construct_cmd(kind, group_name, top_name, spheres, radius, out_path, fmt):
    """Build one of the named extension constructions."""
    F = _named_group(group_name)
    if kind == "diagonal":
        built = build_diagonal(F)
    elif kind == "centered":
        built = build_centered(F)
    elif kind == "full-lift":
        built = build_full_lift(F, radius=radius)
    elif kind == "parity":
        sign = {p: (0 if p.sign() == 1 else 1) for p in F.elements}
        try:
            levels = sorted(int(s) for s in spheres.split(","))
        except ValueError:
            raise ValueError("--spheres takes comma-separated integers such "
                             "as '0,1', got %r" % spheres) from None
        built = build_parity_lift(F, sign, 2, levels)
    else:
        if top_name is None:
            raise ValueError("wreath needs --top")
        built = build_wreath_local(F, _named_group(top_name)).group
    if not out_path and fmt == "text":
        print("%s(%s): degree %d radius %d order %s"
              % (kind, group_name, built.degree, built.radius,
                 _fmt_count(built.order)))
        return
    meta = {"construction": "%s(%s)" % (kind, group_name)}
    doc = document_from_group(built, metadata=meta)
    if not out_path:
        print(serialize_document(doc), end="")
        return
    save_document(doc, out_path)
    print("wrote %s" % out_path)


@_command("tower",
          _arg("kind", choices=("pinned-orbit", "partition",
                                "pinned-center")),
          _arg("--steps", type=int, required=True,
               help="Number of levels to build, the base included."),
          _arg("--group", dest="group_name", default=None,
               help="Base group (default: FLIPS6, or SL23 for partition)."),
          _arg("--blocks", dest="blocks_spec", default=None,
               help="Partition blocks, e.g. '0,1;2,5;3,7;4,6'."),
          _FMT)
def tower_cmd(kind, steps, group_name, blocks_spec, fmt):
    """Grow a block-constant self-extension tower and report its orders."""
    if steps < 1:
        raise ValueError("--steps must be at least 1")
    if group_name is None:
        group_name = "sl23" if kind == "partition" else "flips6"
    F = _named_group(group_name)
    blocks = None
    if blocks_spec:
        try:
            blocks = tuple(tuple(int(x) for x in part.split(","))
                           for part in blocks_spec.split(";"))
        except ValueError:
            raise ValueError("--blocks takes ';'-separated blocks of comma-"
                             "separated integers such as '0,1;2,5', got %r"
                             % blocks_spec) from None
    elif kind == "partition":
        blocks = _DEFAULT_BLOCKS.get(group_name.strip().lower())
        if blocks is None:
            raise ValueError("partition towers need --blocks")
    tower = build_tower(F, kind, steps, blocks=blocks)
    if fmt == "json":
        body = [{"radius": lv.radius, "order": str(lv.order),
                 "materialized": lv.group is not None}
                for lv in tower.levels]
        print(json.dumps(body))
    else:
        for lv in tower.levels:
            tag = "" if lv.group is not None else " (certified only)"
            print("level %d: order %s%s"
                  % (lv.radius, _fmt_count(lv.order), tag))
    if len(tower.levels) < steps:
        sys.stdout.flush()  # the levels come first where both streams meet
        print("tower stopped at certified level %d of the %d asked for"
              % (tower.levels[-1].radius, steps), file=sys.stderr)


@_command("census", _arg("--degree", type=int, required=True),
          _arg("--radius", type=int, required=True), _FMT)
def census_cmd(degree, radius, fmt):
    """All gluable conjugacy classes of transitive ball groups."""
    rows = census_compatible_classes(degree, radius)
    if fmt == "json":
        print(json.dumps([r.to_dict() for r in rows]))
        return
    print(format_table(rows), end="")


@_command("cd-lifts", _FMT)
def cd_lifts_cmd(fmt):
    """Rigid gluable classes one level above the degree-3 census."""
    base = census_compatible_classes(3, 2)
    lifts = census_discrete_lifts(base)
    fresh = [r for r in lifts if r.gamma_image_of is None]
    if fmt == "json":
        print(json.dumps({
            "rows": [r.to_dict() for r in lifts],
            "new_classes": len(fresh)}))
        return
    print(format_table(fresh), end="")
    print("new classes: %d (plus %d unique-lift images of rigid rows)"
          % (len(fresh), len(lifts) - len(fresh)))


@_command("s3-table", _FMT)
def s3_table_cmd(fmt):
    """The full degree-3 classification table, both levels."""
    rows = degree3_table()
    if fmt == "json":
        print(json.dumps([r.to_dict() for r in rows]))
        return
    print(format_table(rows), end="")


@_command("count-restrictions", _IN,
          _arg("--ball", type=int, required=True,
               help="Radius of the larger ball to restrict from."),
          _arg("--stabilizer", action="store_true",
               help="Count only maps fixing the center (required)."),
          _FMT)
def count_restrictions_cmd(path, ball, stabilizer, fmt):
    """How many larger-ball maps restrict into the input group.

    Only maps fixing the center are counted, so --stabilizer is required;
    a count past the int64 range is printed as prime powers."""
    group = group_from_document(load_document(path))
    if not stabilizer:
        raise HypothesisError(
            "only restrictions fixing the center are countable here")
    total, factors = _restriction_count(group, ball)
    if total < 2 ** 63:
        text, body = str(total), {"count": total}
    else:
        text = format_factors(factors)
        body = {"count": None, "factored": text}
    print(json.dumps(body) if fmt == "json" else "count: " + text)


@_command("pk-local", _IN,
          _arg("--target", type=int, required=True,
               help="Radius of the derived local prescription."),
          _FMT)
def pk_local_cmd(path, target, fmt):
    """Project or lift the input to its action on another ball size."""
    group = group_from_document(load_document(path))
    derived = pk_local_action(group, target)
    if fmt == "json":
        doc = document_from_group(
            derived, generators_only=True,
            metadata={"construction": "local action at radius %d" % target})
        print(serialize_document(doc), end="")
        return
    print("radius %d action: order %s, %d generators"
          % (target, _fmt_count(derived.order),
             len(derived.generators)))


if __name__ == "__main__":
    main()
