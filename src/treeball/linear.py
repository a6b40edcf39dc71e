"""Linear algebra over GF(2) on bitmask integers.

A vector is an int whose bit i is its i-th coordinate. An equation is a row
whose bit 0 is its right-hand side and whose bit i + 1 is the coefficient of
the i-th unknown.
"""


def echelon(vectors):
    """The reduced echelon basis of the span of `vectors`, largest leading
    bit first: equal spans give equal tuples."""
    pivots, leads = {}, 0  # leading bit -> the basis vector it leads
    for v in vectors:
        # a reduced basis vector holds no other leading bit, so one XOR
        # clears each leading bit of v and sets none
        bits = v & leads
        while bits:
            low = bits & -bits
            bits ^= low
            v ^= pivots[low]
        if v:
            lead = 1 << v.bit_length() - 1
            for p, b in pivots.items():
                if b & lead:
                    pivots[p] = b ^ v
            pivots[lead] = v
            leads |= lead
    return tuple(sorted(pivots.values(), reverse=True))


def solve(rows, n):
    """(particular, null basis) of the equations `rows` in `n` unknowns, the
    free unknowns of the particular solution 0; None when inconsistent."""
    basis = echelon(rows)
    if basis and basis[-1] == 1:
        return None
    pivots = {b.bit_length() - 2: b for b in basis}
    particular = sum((b & 1) << p for p, b in pivots.items())
    return particular, [
        1 << f | sum(1 << p for p, b in pivots.items() if b >> f + 1 & 1)
        for f in range(n) if f not in pivots]


def walk(offset, basis):
    """The vectors of offset + span(basis) in Gray-code order, one XOR a
    step; 2 ** len(basis) distinct ones when the basis is independent."""
    yield offset
    for i in range(1, 1 << len(basis)):
        offset ^= basis[(i & -i).bit_length() - 1]
        yield offset
