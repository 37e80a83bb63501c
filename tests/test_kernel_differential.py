"""Differential tests: the scaled-integer kernel against the Fraction reference.

The reference in ``oracles`` is the original general-rational algorithm on
breakpoint tuples.  Elements are drawn as random words of length at most 12,
random partition pairs and deep powers of the generators, which push the
working scale far beyond that of the generators.

Partitions computed from valid ones skip validation, so each such result is
checked against the validating constructor applied to its own points, and
``t_of`` against the original implementation.  Marked sets are drawn three
ways: dyadic points p/2^q with q <= 10, deep dyadics with q <= 40 clustered
at every scale around one centre, and non-dyadic points such as k/3.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from thompsonf import (
    GENERATOR_NAMES,
    DyadicPartition,
    FElement,
    MarkedSet,
    act_marked,
    act_partition,
    common_refinement,
    compose,
    from_pair,
    generator_table,
    i_n,
    identity,
    invert,
    t_of,
    to_minimal_pair,
)
from thompsonf.verify import random_pair, random_refinement

from oracles import (
    ref_apply,
    ref_apply_inverse,
    ref_canonical,
    ref_compose,
    ref_invert,
    ref_key,
    ref_minimal_pair,
    ref_t_of,
)

REF_GENERATORS = {name: f.breaks for name, f in generator_table().items()}
REF_IDENTITY = ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)))

words = st.lists(st.sampled_from(GENERATOR_NAMES), max_size=12)
points = st.fractions(min_value=0, max_value=1, max_denominator=10**6)
dyadic_points = st.builds(
    lambda q, n: Fraction(n % (2**q + 1), 2**q),
    st.integers(min_value=0, max_value=48),
    st.integers(min_value=0),
)


def both(word):
    """The word evaluated by the kernel and by the reference."""
    table = generator_table()
    f, ref = identity(), REF_IDENTITY
    for name in word:
        f = compose(f, table[name])
        ref = ref_compose(ref, REF_GENERATORS[name])
    return f, ref


@st.composite
def pairs_of_elements(draw):
    """(kernel element, reference breaks) from a word, a pair or a deep power."""
    kind = draw(st.sampled_from(["word", "pair", "power"]))
    if kind == "word":
        return both(draw(words))
    if kind == "pair":
        pair = random_pair(draw(st.randoms(use_true_random=False)), max_splits=12)
        return from_pair(pair), ref_canonical(zip(pair.domain.points, pair.range.points))
    name = draw(st.sampled_from(["x0", "x1"]))
    k = draw(st.integers(min_value=-40, max_value=40))
    step = REF_GENERATORS[name if k >= 0 else name + "^-1"]
    ref = REF_IDENTITY
    for _ in range(abs(k)):
        ref = ref_compose(ref, step)
    return generator_table()[name] ** k, ref


def check_same(f, ref):
    assert f.breaks == ref
    assert f.canonical_key == ref_key(ref)
    assert FElement(ref) == f
    assert hash(FElement(ref)) == hash(f)


@settings(deadline=None)
@given(pairs_of_elements())
def test_breaks_and_key_agree(case):
    check_same(*case)


@settings(deadline=None)
@given(pairs_of_elements(), pairs_of_elements())
def test_compose_and_invert_agree(first, second):
    (f, f_ref), (g, g_ref) = first, second
    check_same(compose(g, f), ref_compose(g_ref, f_ref))
    check_same(compose(f, g), ref_compose(f_ref, g_ref))
    check_same(invert(f), ref_invert(f_ref))


@settings(deadline=None)
@given(pairs_of_elements(), points, dyadic_points)
def test_apply_agrees_on_dyadic_and_other_points(case, t, d):
    f, ref = case
    for x in (t, d, Fraction(0), Fraction(1)):
        assert f.apply(x) == ref_apply(ref, x)
        assert f.apply_inverse(x) == ref_apply_inverse(ref, x)
        assert f.apply_inverse(f.apply(x)) == x


@settings(deadline=None)
@given(pairs_of_elements())
def test_minimal_pair_agrees(case):
    f, ref = case
    pair = to_minimal_pair(f)
    assert (pair.domain.points, pair.range.points) == ref_minimal_pair(ref)


# -- trusted partition results ----------------------------------------------

DEEP = 2**40


def dyadic(max_q):
    return st.builds(
        lambda q, n: Fraction(n % (2**q + 1), 2**q),
        st.integers(min_value=0, max_value=max_q),
        st.integers(min_value=0),
    )


non_dyadic = st.builds(
    lambda d, n: Fraction(n % (d + 1), d),
    st.sampled_from([3, 5, 7, 12, 3 * 2**20]),
    st.integers(min_value=0),
)


def marked_sets_of(extra_points):
    return st.lists(extra_points, max_size=24).map(
        lambda xs: MarkedSet([Fraction(0), Fraction(1), *xs])
    )


@st.composite
def deep_marked_sets(draw):
    """Dyadics with q <= 40: a few at random and centre +- 2^j / 2^40 for j >= low.

    Around the centre every leaf has a point in both halves down to width
    2^low / 2^40, so T(X) grows leaves of that depth.
    """
    c = draw(st.integers(min_value=0, max_value=DEEP))
    low = draw(st.integers(min_value=0, max_value=40))
    cluster = [
        Fraction(min(DEEP, max(0, c + sign * 2**j)), DEEP)
        for j in range(low, 41)
        for sign in (-1, 1)
    ]
    extra = draw(st.lists(dyadic(40), max_size=8))
    return MarkedSet([Fraction(0), Fraction(1), Fraction(c, DEEP), *cluster, *extra])


marked_sets = st.one_of(
    marked_sets_of(dyadic(10)), deep_marked_sets(), marked_sets_of(non_dyadic)
)


def assert_trusted(R, cls):
    """R is what the validating constructor makes of R's own points."""
    assert type(R) is cls
    assert cls(R.points).points == R.points


def test_base_partitions_are_valid():
    for n in range(12):
        assert_trusted(i_n(n), DyadicPartition)


@settings(deadline=None)
@given(marked_sets)
def test_t_of_matches_reference(X):
    T = t_of(X)
    assert T.points == ref_t_of(X)
    assert_trusted(T, DyadicPartition)


@settings(deadline=None)
@given(marked_sets, marked_sets)
def test_common_refinement_is_the_validated_union(X, Y):
    S, T = t_of(X), t_of(Y)
    R = common_refinement(S, T)
    assert R.points == DyadicPartition(S.points + T.points).points
    assert_trusted(R, DyadicPartition)


@settings(deadline=None)
@given(pairs_of_elements())
def test_minimal_pair_partitions_are_valid(case):
    pair = to_minimal_pair(case[0])
    assert_trusted(pair.domain, DyadicPartition)
    assert_trusted(pair.range, DyadicPartition)


@settings(deadline=None)
@given(marked_sets, words)
def test_act_marked_on_both_sides(X, word):
    f, ref = both(word)
    for side, ref_map in (("left", ref_apply), ("right", ref_apply_inverse)):
        Y = act_marked(f, X, side)
        assert Y.points == MarkedSet(ref_map(ref, x) for x in X.points).points
        assert_trusted(Y, MarkedSet)


@settings(deadline=None)
@given(words, st.randoms(use_true_random=False))
def test_act_partition_on_refinements_of_the_domain(word, rng):
    f, ref = both(word)
    T = random_refinement(rng, to_minimal_pair(f).domain, 40)
    image = act_partition(f, T)
    assert image.points == tuple(ref_apply(ref, t) for t in T.points)
    assert_trusted(image, DyadicPartition)
