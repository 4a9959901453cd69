"""Group arithmetic, parsing, and rank-of-span behavior."""

import pytest
from hypothesis import given, settings, strategies as st

from gainsparse import (
    CYCLIC,
    GroupSpec,
    UnsupportedGroupError,
    UsageError,
    parse_elem,
    rank_of_span,
)
from oracles import describe_group, span_rank

Z = GroupSpec.parse("Z")
Z5 = GroupSpec.parse("Z/5")
Z2 = GroupSpec.parse("Z^2")
PQ = GroupSpec.parse("Z/3xZ/5")
ALL_SPECS = (Z, Z5, Z2, PQ)


def test_parse_round_trips_the_four_syntaxes():
    for text in ("Z", "Z/5", "Z^2", "Z/3xZ/5"):
        assert str(GroupSpec.parse(text)) == text


def test_parse_rejects_garbage():
    for text in ("", "Z/", "Z/4x", "Z^3", "Z/3xZ", "q", "z", "Z/1", "Z/0"):
        with pytest.raises(UsageError):
            GroupSpec.parse(text)


def test_coordinates_reduce_canonically():
    assert Z5.elem((7,)).coords == (2,)
    assert Z5.elem((-1,)).coords == (4,)
    assert PQ.elem((4, 7)).coords == (1, 2)
    # the infinite groups keep coordinates as given
    assert Z.elem((-3,)).coords == (-3,)
    assert Z2.elem((10, -10)).coords == (10, -10)


def test_elem_arity_is_checked():
    with pytest.raises(UsageError):
        Z5.elem((1, 2))
    with pytest.raises(UsageError):
        Z2.elem((1,))
    with pytest.raises(UsageError):
        parse_elem(Z5, "1,2")


def test_negation_examples():
    assert (-Z5.elem((2,))).coords == (3,)
    assert (-Z.elem((7,))).coords == (-7,)
    assert (-PQ.elem((1, 2))).coords == (2, 3)


def test_finite_enumeration():
    assert Z5.order == 5
    assert PQ.order == 15
    assert len(Z5.elements()) == 5
    assert Z5.elements()[0] == Z5.zero()
    assert len(set(e.coords for e in PQ.elements())) == 15
    with pytest.raises(UnsupportedGroupError):
        Z.elements()


def test_zero_predicate():
    assert Z5.zero().is_zero()
    assert not Z5.elem((3,)).is_zero()
    assert PQ.elem((3, 5)).is_zero()


def test_mixed_spec_arithmetic_rejected():
    with pytest.raises(UsageError):
        Z5.elem((1,)) + Z.elem((1,))


def test_elems_sort_within_a_group():
    es = [Z5.elem((c,)) for c in (3, 0, 4, 1)]
    assert [e.coords for e in sorted(es)] == [(0,), (1,), (3,), (4,)]


# rank_of_span: fixed values first, then oracle agreement

def test_rank_empty_is_zero():
    assert rank_of_span([]) == 0


def test_rank_collinear_lattice_vectors():
    assert rank_of_span([Z2.elem((2, 0)), Z2.elem((3, 0))]) == 1
    assert rank_of_span([Z2.elem((2, 4)), Z2.elem((-1, -2))]) == 1
    assert rank_of_span([Z2.elem((1, 0)), Z2.elem((0, 1))]) == 2
    assert rank_of_span([Z2.elem((0, 0))]) == 0


def test_rank_in_the_product_group():
    assert rank_of_span([PQ.elem((1, 0)), PQ.elem((2, 0))]) == 1
    assert rank_of_span([PQ.elem((1, 1))]) == 2
    assert rank_of_span([PQ.elem((0, 3))]) == 1
    assert rank_of_span([PQ.elem((0, 0))]) == 0


def test_rank_composite_modulus_rejected():
    c6 = GroupSpec(CYCLIC, (6,))
    with pytest.raises(UnsupportedGroupError):
        rank_of_span([c6.elem((2,))])
    # rejected even when every element is zero; the semantics are
    # undefined for composite k, not merely the nonzero cases
    with pytest.raises(UnsupportedGroupError):
        rank_of_span([c6.elem((0,))])


def test_rank_spec_mismatch_rejected():
    with pytest.raises(UsageError):
        rank_of_span([Z2.elem((1, 0)), PQ.elem((1, 0))])


_spec_idx = st.integers(min_value=0, max_value=3)
_coord = st.integers(min_value=-6, max_value=6)


def _elems(spec, draws):
    return [spec.elem(tuple(d[: spec.ncoords])) for d in draws]


@settings(deadline=None, max_examples=200)
@given(_spec_idx, st.lists(st.tuples(_coord, _coord), max_size=5))
def test_rank_matches_subgroup_oracle(si, draws):
    spec = ALL_SPECS[si]
    es = _elems(spec, draws)
    expect = span_rank(describe_group(spec), [e.coords for e in es])
    assert rank_of_span(es) == expect


@settings(deadline=None, max_examples=200)
@given(_spec_idx, st.lists(st.tuples(_coord, _coord), min_size=1, max_size=5),
       st.data())
def test_rank_invariant_under_elementary_operations(si, draws, data):
    spec = ALL_SPECS[si]
    es = _elems(spec, draws)
    base = rank_of_span(es)

    perm = data.draw(st.permutations(es))
    assert rank_of_span(perm) == base

    i = data.draw(st.integers(min_value=0, max_value=len(es) - 1))
    negated = list(es)
    negated[i] = -negated[i]
    assert rank_of_span(negated) == base

    j = data.draw(st.integers(min_value=0, max_value=len(es) - 1))
    bumped = list(es)
    bumped[i] = bumped[i] + es[j]
    if i != j:
        assert rank_of_span(bumped) == base


@settings(deadline=None, max_examples=200)
@given(_spec_idx, st.lists(st.tuples(_coord, _coord), max_size=4),
       st.tuples(_coord, _coord))
def test_rank_monotone_under_extension(si, draws, extra):
    # one extra element raises the rank by at most one, except in the
    # product group, where a single element like (1,1) projects onto
    # both prime sides at once and can jump the rank from 0 to 2
    spec = ALL_SPECS[si]
    es = _elems(spec, draws)
    x = spec.elem(tuple(extra[: spec.ncoords]))
    before = rank_of_span(es)
    after = rank_of_span(es + [x])
    assert before <= after <= 2
    if spec is not PQ:
        assert after <= before + 1


@settings(deadline=None, max_examples=150)
@given(_spec_idx, st.tuples(_coord, _coord), st.tuples(_coord, _coord),
       st.tuples(_coord, _coord))
def test_add_commutes_and_associates(si, a, b, c):
    spec = ALL_SPECS[si]
    x, y, z = (spec.elem(tuple(t[: spec.ncoords])) for t in (a, b, c))
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert -(-x) == x
    assert (x + (-x)).is_zero()
