"""Shared exception types and every capacity limit, read at call time."""

#: The most table cells (elements times ball points) that a build of known
#: order may hold: 2**25 cells pack into 32 MiB of table, one byte a cell up
#: to 256 points and 64 MiB past that, or 256 MiB of slots as element tuples
TABLE_CELLS = 2 ** 25

#: The most elements that a closure of unknown order may reach
CLOSURE_CAP = 500_000

#: The largest orders of a group whose subgroup lattice is enumerated, of
#: the census's full ball group and of the rigid-lift search's, a radius up
SUBGROUP_LATTICE_CAP = 3000
CENSUS_AMBIENT_CAP = 200
LIFT_AMBIENT_CAP = 5000

#: The largest slot product whose invariant subgroups are enumerated, by
#: either route, and the most subgroups the generic route may find
SLOT_PRODUCT_CAP = 200_000
POWER_SUBGROUP_CAP = 10_000


class CapacityError(RuntimeError):
    """Raised when a computation would exceed a capacity limit."""


class HypothesisError(ValueError):
    """A named precondition of a construction is violated.

    The message always names the failing clause so callers can test for it.
    """


class DocumentError(ValueError):
    """A group document is malformed or inconsistent."""


def check_cells(phase, count, points, unit="elements"):
    """Refuse `count` tables of `points` cells each past TABLE_CELLS. Every
    build of known order asks once, before it makes its first element."""
    if count * points > TABLE_CELLS:
        raise CapacityError("%s: %d %s hold %d table cells, beyond the "
                            "budget of %d" % (phase, count, unit,
                                              count * points, TABLE_CELLS))
