"""Independent brute-force oracles.

Everything here deliberately avoids the code paths it is used to check:
partitions are enumerated rather than grown greedily, membership tests are
linear scans, set differences are quadratic pairwise comparisons, and
element equality goes through the reduced-pair view instead of canonical
breakpoint keys.

The reference kernel is the original general-``Fraction`` implementation
of group elements, kept as plain functions on breakpoint tuples: the
validating canonicalisation, the candidate-set composition and exact
evaluation.  The scaled-integer kernel is checked against it.  The last
reference is the original ``t_of``, which bisects the whole point list for
every leaf and validates its result.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import product

from thompsonf import (
    DyadicPartition,
    PartitionPair,
    ToolkitError,
    compose,
    format_number,
    from_pair,
    generators,
    identity,
    to_minimal_pair,
)

ZERO = Fraction(0)
ONE = Fraction(1)


def standard_partitions_upto_depth(depth):
    """Point tuples of every standard dyadic partition with leaf depth <= depth."""

    def build(a, b, d):
        results = [()]
        if d > 0:
            m = (a + b) / 2
            for left in build(a, m, d - 1):
                for right in build(m, b, d - 1):
                    results.append(left + (m,) + right)
        return results

    return [(ZERO,) + mid + (ONE,) for mid in build(ZERO, ONE, depth)]


def leaf_condition(points, xs):
    """Every half-open leaf [points[i], points[i+1]) meets xs; linear scan."""
    return all(any(a <= x < b for x in xs) for a, b in zip(points, points[1:]))


def quadratic_symmetric_difference(A, B, eq):
    """|A ^ B| by pairwise equality testing; members of A and B are distinct."""
    count = 0
    for a in A:
        if not any(eq(a, b) for b in B):
            count += 1
    for b in B:
        if not any(eq(b, a) for a in A):
            count += 1
    return count


def reduced_pair_key(f):
    pair = to_minimal_pair(f)
    return (pair.domain.points, pair.range.points)


def reduced_pair_equal(f, g):
    return reduced_pair_key(f) == reduced_pair_key(g)


def word_ball_size(r):
    """Count distinct elements among all words of length <= r.

    Dedupes by reduced-pair equality, never by canonical keys or hashes.
    """
    gens = generators()
    seen = [reduced_pair_key(identity())]
    for length in range(1, r + 1):
        for combo in product(gens, repeat=length):
            f = identity()
            for g in combo:
                f = compose(f, g)
            key = reduced_pair_key(f)
            if key not in seen:
                seen.append(key)
    return len(seen)


def minimal_pair_by_enumeration(f, depth):
    """Smallest representing pair found by exhaustive search up to a depth."""
    best = None
    for points in standard_partitions_upto_depth(depth):
        try:
            pair = PartitionPair(
                DyadicPartition(points),
                DyadicPartition(f.apply(p) for p in points),
            )
        except ToolkitError:
            continue
        if from_pair(pair) == f and (best is None or len(points) < len(best.domain)):
            best = pair
    return best


# -- reference Fraction kernel ---------------------------------------------


def _power_of_two(n):
    return n > 0 and n & (n - 1) == 0


def ref_canonical(breaks):
    """Validated canonical breakpoint tuple: sorted, collinear points dropped."""
    pts = sorted({(Fraction(a), Fraction(b)) for a, b in breaks})
    if not pts or pts[0] != (ZERO, ZERO) or pts[-1] != (ONE, ONE):
        raise ValueError("breakpoints must run from (0,0) to (1,1)")
    for (a1, b1), (a2, b2) in zip(pts, pts[1:]):
        if a1 == a2 or b1 >= b2:
            raise ValueError("coordinates must be strictly increasing")
    for a, b in pts:
        if not (_power_of_two(a.denominator) and _power_of_two(b.denominator)):
            raise ValueError(f"non-dyadic breakpoint ({a}, {b})")
    slopes = [(b2 - b1) / (a2 - a1) for (a1, b1), (a2, b2) in zip(pts, pts[1:])]
    for s in slopes:
        if not (_power_of_two(s.numerator) and _power_of_two(s.denominator)):
            raise ValueError(f"slope {s} is not a power of two")
    keep = [pts[0]]
    kept_slope = slopes[0]
    for i in range(1, len(pts) - 1):
        if slopes[i] != kept_slope:
            keep.append(pts[i])
            kept_slope = slopes[i]
    keep.append(pts[-1])
    return tuple(keep)


def _segment(coords, t):
    return min(bisect_right(coords, t), len(coords) - 1) - 1


def ref_apply(breaks, t):
    """Exact image of t under the element with these canonical breakpoints."""
    i = _segment([a for a, _ in breaks], t)
    (a1, b1), (a2, b2) = breaks[i], breaks[i + 1]
    return b1 + (b2 - b1) / (a2 - a1) * (t - a1)


def ref_apply_inverse(breaks, y):
    """Exact preimage of y."""
    return ref_apply(ref_invert(breaks), y)


def ref_invert(breaks):
    return tuple((b, a) for a, b in breaks)


def ref_compose(g, f):
    """Breakpoints of g after f: evaluate at f's breakpoints and f^-1 of g's."""
    candidates = {a for a, _ in f}
    candidates.update(ref_apply_inverse(f, a) for a, _ in g)
    return ref_canonical((t, ref_apply(g, ref_apply(f, t))) for t in candidates)


def ref_minimal_pair(breaks):
    """(domain, range) point tuples of the minimal pair, by greedy subdivision."""
    acoords = [a for a, _ in breaks]

    def acceptable(a, b):
        i = bisect_right(acoords, a) - 1
        if acoords[i + 1] < b:
            return False
        fa, fb = ref_apply(breaks, a), ref_apply(breaks, b)
        gap = fb - fa
        return (
            gap.numerator == 1
            and _power_of_two(gap.denominator)
            and gap.denominator % fa.denominator == 0
        )

    domain = [ZERO, ONE]
    stack = [(ZERO, ONE)]
    while stack:
        a, b = stack.pop()
        if not acceptable(a, b):
            m = (a + b) / 2
            domain.append(m)
            stack.append((a, m))
            stack.append((m, b))
    domain.sort()
    return tuple(domain), tuple(ref_apply(breaks, t) for t in domain)


def ref_key(breaks):
    return ";".join(f"{format_number(a)}:{format_number(b)}" for a, b in breaks).encode(
        "ascii"
    )


# -- reference partition layer ---------------------------------------------


def ref_t_of(X):
    """Points of T(X): greedy subdivision, each half tested on the whole list."""
    xs = X.points

    def occupied(a, b):
        i = bisect_left(xs, a)
        return i < len(xs) and xs[i] < b

    boundaries = [ZERO, ONE]
    stack = [(ZERO, ONE)]
    while stack:
        a, b = stack.pop()
        m = (a + b) / 2
        if occupied(a, m) and occupied(m, b):
            boundaries.append(m)
            stack.append((a, m))
            stack.append((m, b))
    return DyadicPartition(boundaries).points
