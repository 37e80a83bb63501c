"""Differential tests: the scaled-integer kernel against the Fraction reference.

The reference in ``oracles`` is the original general-rational algorithm on
breakpoint tuples.  Elements are drawn as random words of length at most 12,
random partition pairs and deep powers of the generators, which push the
working scale far beyond that of the generators.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from thompsonf import (
    GENERATOR_NAMES,
    FElement,
    compose,
    from_pair,
    generator_table,
    identity,
    invert,
    to_minimal_pair,
)
from thompsonf.verify import random_pair

from oracles import (
    ref_apply,
    ref_apply_inverse,
    ref_canonical,
    ref_compose,
    ref_invert,
    ref_key,
    ref_minimal_pair,
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
