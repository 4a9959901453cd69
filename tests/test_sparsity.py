"""Pebble game, fundamental circuits, and the colored family counts."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import gainsparse.sparsity
from gainsparse import (
    BudgetExceededError,
    ColoredGraph,
    GroupSpec,
    InternalInvariantError,
    NoCircuitError,
    SparsityParams,
    SubgraphCounts,
    UncoloredMultigraph,
    UsageError,
    check_colored_sparsity,
    fundamental_circuit,
    is_kl_sparse,
    is_kl_spanning,
    kl_basis,
    underlying,
    verdict_line,
)
from gainsparse.sparsity import COUNTS, _walk_rule
from oracles import arc_reach, colored_subset_counts, colored_verdict, \
    describe_group, family_bound, kl_sparse_edge_subsets

P21 = SparsityParams(2, 1)
P22 = SparsityParams(2, 2)
P23 = SparsityParams(2, 3)
# every (k, l) with k <= 3 and 0 <= l < 2k: the range the pebble game
# is a matroid test on
ALL_KL = [SparsityParams(k, l) for k in (1, 2, 3) for l in range(2 * k)]

Z = GroupSpec.parse("Z")
Z3 = GroupSpec.parse("Z/3")
Z5 = GroupSpec.parse("Z/5")
Z2 = GroupSpec.parse("Z^2")
Z3x5 = GroupSpec.parse("Z/3xZ/5")


def _mg(n, pairs):
    return UncoloredMultigraph(range(n), [(i, u, v) for i, (u, v) in enumerate(pairs)])


K4 = _mg(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
TRIANGLE = _mg(3, [(0, 1), (1, 2), (2, 0)])
DOUBLED = _mg(2, [(0, 1), (0, 1)])


def test_multigraph_validation_matches_colored_graph():
    # duplicate vertex ids, duplicate edge ids, undeclared endpoints
    for vertices, edges in (([0, 0], []),
                            ([0, 1], [(0, 0, 1), (0, 1, 0)]),
                            ([0], [(0, 0, 1)])):
        with pytest.raises(UsageError):
            UncoloredMultigraph(vertices, edges)
        with pytest.raises(UsageError):
            ColoredGraph(Z3, vertices, [e + ((1,),) for e in edges])
    assert is_kl_spanning(UncoloredMultigraph([0], []), SparsityParams(1, 1))


def test_basis_fixed_cases():
    assert len(kl_basis(K4, P23)) == 5
    assert kl_basis(TRIANGLE, P23) == frozenset((0, 1, 2))
    assert kl_basis(DOUBLED, P22) == frozenset((0, 1))


def test_sparse_fixed_cases():
    assert not is_kl_sparse(K4, P23)
    loop = _mg(1, [(0, 0)])
    assert is_kl_sparse(loop, P21)
    assert not is_kl_sparse(loop, P23)


def test_spanning_fixed_cases():
    assert is_kl_spanning(K4, P23)
    assert not is_kl_spanning(TRIANGLE, P22)
    assert is_kl_spanning(DOUBLED, P22)


def test_fundamental_circuit_of_k4_plus_edge():
    g = _mg(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 1)])
    basis = kl_basis(g, P23)
    rejected = sorted(set(range(7)) - basis)
    circuit = fundamental_circuit(g, P23, basis, rejected[0])
    # the six edges of the complete graph form the unique circuit
    assert circuit == frozenset(range(6))


def test_fundamental_circuit_plays_one_game(monkeypatch):
    games = []
    real = gainsparse.sparsity._run_game

    def counting(*args, **kwargs):
        games.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(gainsparse.sparsity, "_run_game", counting)
    g = _mg(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 1)])
    assert fundamental_circuit(g, P23, range(5), 5) == frozenset(range(6))
    assert len(games) == 1


def test_fundamental_circuit_of_parallel_pair():
    basis = kl_basis(DOUBLED, P23)
    assert basis == frozenset((0,))
    assert fundamental_circuit(DOUBLED, P23, basis, 1) == frozenset((0, 1))


def _brute_min_violations(g, params, edge_ids):
    """Every inclusion-minimal (k,l)-violating subset of edge_ids."""
    by_id = {e[0]: e for e in g.edges}
    found = []
    ids = sorted(edge_ids)
    for size in range(1, len(ids) + 1):
        for combo in itertools.combinations(ids, size):
            sub = [by_id[i] for i in combo]
            verts = {x for (_, u, v) in sub for x in (u, v)}
            if len(sub) <= params.k * len(verts) - params.l:
                continue
            if any(set(f) < set(combo) for f in found):
                continue
            found.append(combo)
    return [frozenset(c) for c in found]


def test_fundamental_circuit_spanning_two_triangles():
    # two triangles joined through a vertex path plus a doubled bridge;
    # the circuit of the second bridge copy is settled by brute force
    pairs = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (0, 3), (0, 3)]
    g = _mg(5, pairs)
    basis = kl_basis(g, P23)
    rejected = sorted(set(range(8)) - basis)
    assert rejected, "graph exceeds 2n-3, something must be rejected"
    eid = rejected[0]
    circuit = fundamental_circuit(g, P23, basis, eid)
    minimal = _brute_min_violations(g, P23, basis | {eid})
    matching = [c for c in minimal if eid in c]
    assert len(matching) == 1
    assert circuit == matching[0]


@settings(deadline=None, max_examples=600)
@given(st.integers(min_value=1, max_value=5),
       st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=9),
       st.sampled_from(ALL_KL), st.randoms(use_true_random=False))
def test_fundamental_circuit_matches_exchange_definition(n, pairs, params, rng):
    # circuit of e = {e} + {f in B : B - f + e is sparse}, with sparsity
    # settled by the literal subset scan
    pairs = [(u % n, v % n) for u, v in pairs]
    g = _mg(n, pairs)
    order = list(range(len(pairs)))
    rng.shuffle(order)
    basis = kl_basis(g, params, order)

    def sparse(ids):
        return kl_sparse_edge_subsets([pairs[i] for i in ids], params.k, params.l)

    for eid in sorted(set(order) - basis):
        expected = {eid} | {f for f in basis if sparse((basis - {f}) | {eid})}
        assert fundamental_circuit(g, params, basis, eid) == expected
    # the circuit a full game names as it rejects an edge is the edge's
    # circuit against the final basis
    game, rejected = gainsparse.sparsity._run_game(g, *params, order)
    named = {f: game.circuit(f) for f in rejected}
    assert frozenset(f for f, _, _ in game.accepted()) == basis
    for f, circuit in named.items():
        assert circuit == fundamental_circuit(g, params, basis, f)


@settings(deadline=None, max_examples=900)
@given(st.integers(min_value=1, max_value=6),
       st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=18),
       st.sampled_from(ALL_KL))
def test_region_is_what_the_stuck_searches_reach(n, pairs, params):
    # a failed search marks all it can reach, so the marks the rejected
    # insert left are the longhand walk from the rejected edge's ends
    game = gainsparse.sparsity._PebbleGame(n, *params)
    for u, v in pairs:
        u, v = u % n, v % n
        if not game.insert(u, v):
            assert game.region() == arc_reach(game.out, [u, v])
            return


def test_fundamental_circuit_requires_dependence():
    basis = kl_basis(TRIANGLE, P23) - {2}
    with pytest.raises(NoCircuitError):
        fundamental_circuit(TRIANGLE, P23, basis, 2)


@settings(deadline=None, max_examples=750)
@given(st.integers(min_value=1, max_value=5),
       st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=8),
       st.sampled_from(ALL_KL))
def test_pebble_matches_subset_oracle(n, pairs, params):
    pairs = [(u % n, v % n) for u, v in pairs]
    g = _mg(n, pairs)
    assert is_kl_sparse(g, params) == kl_sparse_edge_subsets(pairs, params.k, params.l)


@settings(deadline=None, max_examples=120)
@given(st.integers(min_value=1, max_value=5),
       st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=8),
       st.sampled_from([P21, P22, P23]), st.randoms(use_true_random=False))
def test_basis_size_is_order_invariant(n, pairs, params, rng):
    pairs = [(u % n, v % n) for u, v in pairs]
    size = len(kl_basis(_mg(n, pairs), params))
    shuffled = list(pairs)
    rng.shuffle(shuffled)
    assert len(kl_basis(_mg(n, shuffled), params)) == size


# colored counts

def test_colored_fixed_cases():
    cone_base = ColoredGraph(Z3, [0], [(0, 0, 0, (1,))])
    v = check_colored_sparsity(cone_base, "cone")
    assert v.sparse and v.tight

    ross_base = ColoredGraph(Z2, [1, 2], [(0, 1, 2, (1, 0)), (1, 1, 2, (0, 1))])
    v = check_colored_sparsity(ross_base, "ross")
    assert v.sparse and v.tight

    cyl_base = ColoredGraph(Z, [0], [(0, 0, 0, (1,))])
    v = check_colored_sparsity(cyl_base, "cylinder")
    assert v.sparse and v.tight

    zero_loop = ColoredGraph(Z, [0], [(0, 0, 0, (0,))])
    v = check_colored_sparsity(zero_loop, "cylinder")
    assert not v.sparse and v.witness == frozenset((0,))


def test_family_group_mismatch():
    g = ColoredGraph(Z2, [0], [])
    with pytest.raises(UsageError):
        check_colored_sparsity(g, "cone")
    with pytest.raises(UsageError):
        check_colored_sparsity(ColoredGraph(Z3, [0], []), "ross")


def test_budget_is_enforced_and_adjustable():
    big = ColoredGraph(Z, range(26),
                       [(i, i, (i + 1) % 26, (0,)) for i in range(26)])
    with pytest.raises(BudgetExceededError):
        check_colored_sparsity(big, "cylinder")
    v = check_colored_sparsity(big, "cylinder", budget=30)
    assert v.sparse and not v.tight


def test_negative_budget_is_a_usage_error():
    g = ColoredGraph(Z3, [0, 1], [(0, 0, 1, (1,)), (1, 0, 1, (2,)),
                                  (2, 1, 1, (1,))])
    with pytest.raises(UsageError, match="budget must be nonnegative"):
        check_colored_sparsity(g, "cone", budget=-1)
    # refused before anything else is looked at, the family included
    with pytest.raises(UsageError, match="budget must be nonnegative"):
        check_colored_sparsity(g, "no such family", budget=-1)
    empty = ColoredGraph(Z3, [], [])
    assert check_colored_sparsity(empty, "cone", budget=0) == (True, True, None)


def test_verdict_lines():
    tight = check_colored_sparsity(ColoredGraph(Z, [0], [(0, 0, 0, (1,))]), "cylinder")
    assert verdict_line(tight) == "TIGHT"
    sparse = check_colored_sparsity(ColoredGraph(Z, [0, 1], []), "cylinder")
    assert verdict_line(sparse) == "SPARSE"
    bad = check_colored_sparsity(
        ColoredGraph(Z, [0, 1], [(0, 0, 1, (0,)), (1, 0, 1, (0,))]), "cylinder")
    assert verdict_line(bad) == "VIOLATION 0 1"


def _random_colored(rng, spec, n_max=4, m_max=7, span=2):
    n = rng.randint(1, n_max)
    m = rng.randint(0, m_max)
    edges = []
    for i in range(m):
        c = tuple(rng.randint(-span, span) for _ in range(spec.ncoords))
        edges.append((i, rng.randrange(n), rng.randrange(n), c))
    return ColoredGraph(spec, range(n), edges)


_FAMILY_SPECS = [("ross", Z2), ("cone", Z3), ("cone", Z5),
                 ("cylinder", Z), ("colored", Z2), ("ross", Z3x5)]


@settings(deadline=None, max_examples=200)
@given(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=10**6))
def test_colored_checks_match_enumeration_oracle(fi, seed):
    family, spec = _FAMILY_SPECS[fi]
    g = _random_colored(random.Random(seed), spec)
    v = check_colored_sparsity(g, family)
    assert (v.sparse, v.tight) == colored_verdict(g, family)


@settings(deadline=None, max_examples=150)
@given(st.integers(min_value=0, max_value=10**6))
def test_rank_zero_cone_count_is_plain_laman(seed):
    rng = random.Random(seed)
    g = _random_colored(rng, Z3, span=0)
    assert check_colored_sparsity(g, "cone").sparse == is_kl_sparse(underlying(g), P23)


@settings(deadline=None, max_examples=150)
@given(st.integers(min_value=0, max_value=10**6))
def test_tighter_count_implies_looser_count(seed):
    # the first family's bound is pointwise at most the second one's,
    # which the checker must reproduce on the same graphs
    g = _random_colored(random.Random(seed), Z3)
    o = colored_verdict(g, "ross")
    if o[0]:
        assert check_colored_sparsity(g, "cone").sparse


def _assert_minimal_violation(g, family, witness):
    # the witness breaks the count, by the oracle's own counts, and
    # dropping any one of its edges restores it
    group = describe_group(g.spec)
    raw = {e.id: (e.tail, e.head, tuple(e.color.coords)) for e in g.edges}
    chosen = [raw[i] for i in witness]
    n, r, c0, c1, c2 = colored_subset_counts(group, chosen)
    assert len(chosen) > family_bound(family, n, r, c0, c1, c2)
    for drop in witness:
        rest = [raw[i] for i in witness if i != drop]
        if not rest:
            continue
        n, r, c0, c1, c2 = colored_subset_counts(group, rest)
        assert len(rest) <= family_bound(family, n, r, c0, c1, c2)


@settings(deadline=None, max_examples=120)
@given(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=10**6))
def test_witness_is_minimal(fi, seed):
    family, spec = _FAMILY_SPECS[fi]
    g = _random_colored(random.Random(seed), spec)
    v = check_colored_sparsity(g, family)
    if not v.sparse:
        _assert_minimal_violation(g, family, v.witness)


def test_minimize_witness_guards_the_count():
    # the unbalanced triangle 0 1 2 meets its count 2n' - 1, so it is
    # refused; the balanced triangle 1 2 3 plus edge 4 doubling 3 breaks
    # 2n' - 3 and needs every edge; balanced triples shrink to a pair
    g = ColoredGraph(Z3, [0, 1, 2], [(0, 0, 1, (1,)), (1, 1, 2, (0,)),
                                     (2, 2, 0, (0,)), (3, 0, 1, (0,)),
                                     (4, 0, 1, (0,)), (5, 0, 1, (0,))])
    minimize = gainsparse.sparsity._minimize_witness
    for w in ({0, 1, 2}, set()):
        with pytest.raises(InternalInvariantError):
            minimize(g, "cone", w)
    assert minimize(g, "cone", {1, 2, 3, 4}) == {1, 2, 3, 4}
    assert minimize(g, "cone", {3, 4, 5}) == {4, 5}


# The enumeration adds colours as ints (see sparsity._int_colors): Z^2
# packed as a + K*b and Z/p x Z/q by the Chinese remainder theorem.
# These cases hold cycle sums that a wrong encoding would read as zero,
# or read as zero when they are not.

def _assert_matches_oracle(g, family):
    v = check_colored_sparsity(g, family)
    assert (v.sparse, v.tight) == colored_verdict(g, family)
    if not v.sparse:
        _assert_minimal_violation(g, family, v.witness)
    return v


BIG = 10**30


@pytest.mark.parametrize("family", ["ross", "colored"])
@pytest.mark.parametrize("sign", [1, -1])
def test_huge_lattice_colors_do_not_alias(family, sign):
    # the digon's cycle sum is (A, -1) with A the sum of |first
    # coordinate|, so a packing base K <= A would map it to a + K*b = 0
    # (it aliases (0, 0) with (0 + K, 0 - 1)) and call the digon balanced
    a = sign * BIG
    digon = [(0, 0, 1, (a, 0)), (1, 0, 1, (0, 1))]
    v = _assert_matches_oracle(ColoredGraph(Z2, [0, 1], digon), family)
    assert v.sparse
    # a third edge closing a cycle of sum (A, -1) again, or its negation
    for c in ((0, 0), (a, -1), (-a, 1), (2 * a, -2), (a, 0)):
        g = ColoredGraph(Z2, [0, 1, 2],
                         digon + [(2, 1, 2, (0, 0)), (3, 0, 2, c)])
        _assert_matches_oracle(g, family)
    # the cycle 2 -> 1 -> 2 sums to (2A, 4), the whole sum of |first
    # coordinate|; with K = 4A it would read back as (-2A, 5)
    g = ColoredGraph(Z2, [0, 1, 2], [(0, 2, 1, (a, 2)), (1, 0, 2, (0, -1)),
                                     (2, 1, 2, (a, 2)), (3, 2, 1, (0, 0))])
    _assert_matches_oracle(g, family)
    # loops whose colours are parallel or not, with huge first coordinates
    for c1 in ((a, 1), (-a, -1), (2 * a, 2), (a, 2), (a + 1, 1)):
        g = ColoredGraph(Z2, [0], [(0, 0, 0, (a, 1)), (1, 0, 0, c1)])
        _assert_matches_oracle(g, family)


@settings(deadline=None, max_examples=80)
@given(st.sampled_from([("ross", Z2), ("colored", Z2), ("cylinder", Z)]),
       st.integers(min_value=0, max_value=10**6))
def test_huge_mixed_sign_colors_match_oracle(case, seed):
    # colours drawn from sums and differences of two huge values, so
    # cycle sums cancel exactly or miss zero by one
    family, spec = case
    rng = random.Random(seed)
    pool = [0, 1, -1, BIG, -BIG, 3 * BIG + 1, -(3 * BIG + 1),
            2 * BIG + 1, -(2 * BIG + 1), 4 * BIG + 2]
    n = rng.randint(1, 4)
    edges = [(i, rng.randrange(n), rng.randrange(n),
              tuple(rng.choice(pool) for _ in range(spec.ncoords)))
             for i in range(rng.randint(1, 6))]
    _assert_matches_oracle(ColoredGraph(spec, range(n), edges), family)


@pytest.mark.parametrize("x", range(3))
@pytest.mark.parametrize("y", range(5))
def test_product_group_cycle_sums(x, y):
    # 4 edges on 3 vertices break the Ross count exactly when every
    # cycle is balanced.  The chord 0 -> 2 balances the cycle through
    # 0 -> 1 -> 2, so the verdict turns on the triangle's cycle sum.
    # First that sum is (x, 0) + (0, y), zero only at x = y = 0.
    tri = [(0, 0, 1, (x, 0)), (1, 1, 2, (0, y)), (2, 2, 0, (0, 0))]
    g = ColoredGraph(Z3x5, [0, 1, 2], tri + [(3, 0, 2, (x, y))])
    v = _assert_matches_oracle(g, "ross")
    assert v.sparse == (x != 0 or y != 0)
    # then three equal colours, summing to (0, 3y) through wrap-around
    tri = [(0, 0, 1, (x, y)), (1, 1, 2, (x, y)), (2, 2, 0, (x, y))]
    g = ColoredGraph(Z3x5, [0, 1, 2],
                     tri + [(3, 0, 2, (2 * x % 3, 2 * y % 5))])
    v = _assert_matches_oracle(g, "ross")
    assert v.sparse == (y != 0)


# Exact witnesses of fixed graphs.  Each graph holds more than one
# violation, so the witness depends on the order in which the
# enumeration meets subgraphs; a change of that order fails here.
GOLDEN_WITNESSES = [
    ("ross", Z2, 6,
     [(0, 1, 5, (0, -1)), (1, 2, 3, (0, 2)), (2, 0, 5, (2, 0)),
      (3, 5, 2, (2, -2)), (4, 2, 0, (2, -2)), (5, 0, 5, (1, 0)),
      (6, 5, 0, (0, 1)), (7, 0, 0, (-1, 0)), (8, 0, 1, (0, -1)),
      (9, 4, 0, (1, 0)), (10, 0, 2, (-1, 2)), (11, 0, 5, (-1, 2))],
     "VIOLATION 3 4 5 7 10"),
    ("ross", Z3x5, 5,
     [(0, 0, 2, (2, 3)), (1, 3, 2, (1, 2)), (2, 4, 1, (2, 1)),
      (3, 2, 1, (0, 4)), (4, 2, 4, (2, 4)), (5, 1, 2, (0, 0)),
      (6, 2, 3, (2, 0)), (7, 2, 3, (1, 4)), (8, 1, 4, (1, 3)),
      (9, 4, 2, (0, 4)), (10, 0, 0, (2, 3)), (11, 0, 4, (1, 2)),
      (12, 1, 2, (2, 0))],
     "VIOLATION 2 3 4 5 6 7 8"),
    ("cone", Z5, 5,
     [(0, 3, 4, (4,)), (1, 1, 1, (4,)), (2, 3, 4, (1,)), (3, 0, 3, (2,)),
      (4, 1, 0, (4,)), (5, 0, 4, (3,)), (6, 3, 4, (1,)), (7, 4, 0, (4,)),
      (8, 0, 0, (0,)), (9, 1, 1, (4,)), (10, 0, 3, (2,)),
      (11, 3, 4, (1,)), (12, 4, 1, (2,))],
     "VIOLATION 2 3 5 8"),
    ("cylinder", Z, 5,
     [(0, 0, 2, (2,)), (1, 3, 3, (0,)), (2, 3, 2, (2,)), (3, 1, 4, (-1,)),
      (4, 2, 1, (-2,)), (5, 4, 2, (2,)), (6, 4, 1, (0,)), (7, 0, 0, (0,)),
      (8, 3, 4, (-2,)), (9, 2, 3, (0,)), (10, 4, 1, (2,)),
      (11, 3, 3, (2,)), (12, 2, 0, (2,))],
     "VIOLATION 2 3 4 5 6 8 10 11"),
    # two disjoint tight rank-1 pieces
    ("cylinder", Z, 5,
     [(0, 0, 2, (-1,)), (1, 2, 2, (2,)), (2, 1, 4, (-2,)), (3, 4, 1, (1,)),
      (4, 3, 4, (0,)), (5, 4, 3, (2,)), (6, 2, 0, (-2,)), (7, 2, 3, (0,)),
      (8, 3, 3, (2,))],
     "VIOLATION 0 1 2 3 4 5 6 8"),
    ("colored", Z2, 4,
     [(0, 0, 2, (-1, -2)), (1, 0, 3, (0, -2)), (2, 0, 1, (0, -2)),
      (3, 3, 3, (2, -1)), (4, 3, 3, (-1, 1)), (5, 1, 2, (2, 1)),
      (6, 2, 1, (-2, 2)), (7, 1, 1, (-1, 0)), (8, 0, 0, (-1, 1)),
      (9, 1, 2, (-2, 1)), (10, 1, 2, (-2, -1)), (11, 2, 2, (2, -1))],
     "VIOLATION 4 5 6 7 8 9"),
    # two disjoint pieces whose images are parallel
    ("colored", Z2, 4,
     [(0, 0, 1, (-1, -1)), (1, 1, 1, (1, -2)), (2, 1, 2, (1, -2)),
      (3, 1, 0, (2, 2)), (4, 0, 0, (0, -2)), (5, 2, 0, (-1, 2)),
      (6, 1, 1, (-2, -2)), (7, 3, 3, (1, -1)), (8, 3, 3, (-1, 0)),
      (9, 3, 1, (0, -2)), (10, 1, 2, (1, -2)), (11, 2, 0, (-2, -2))],
     "VIOLATION 1 6 7 8"),
]


@pytest.mark.parametrize("family, spec, n, edges, line", GOLDEN_WITNESSES)
def test_golden_witnesses(family, spec, n, edges, line):
    g = ColoredGraph(spec, range(n), edges)
    assert verdict_line(check_colored_sparsity(g, family)) == line


# The walk skips every piece of image rank >= 1 when the underlying
# graph's (2,1) and (2,2) games show that none can break the count,
# alone or (cylinder, colored) paired with a disjoint one.  Verdict lines
# as the ungated walk gave them; gate is whether the skip is on.
_TWIN_TRIPLES = [(0, 0, 1, 0), (1, 0, 1, 1), (2, 0, 1, 2),
                 (3, 2, 3, 0), (4, 2, 3, 1), (5, 2, 3, 2)]
_K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
RANK_GATE_CASES = [
    # two disjoint (2,2)-circuits that break the count only together; a
    # gate read off the anchor's suffix of edges would miss the pair
    ("cylinder", Z, 4, [(i, u, v, (c,)) for i, u, v, c in _TWIN_TRIPLES],
     False, "VIOLATION 0 1 2 3 4 5"),
    ("colored", Z2, 4, [(i, u, v, (c, 0)) for i, u, v, c in _TWIN_TRIPLES],
     False, "VIOLATION 0 1 2 3 4 5"),
    # tight, with one (2,2)-circuit (the loop)
    ("cylinder", Z, 3, [(0, 0, 0, (1,)), (1, 0, 1, (0,)), (2, 0, 1, (1,)),
                        (3, 1, 2, (0,)), (4, 2, 1, (1,))],
     True, "TIGHT"),
    ("colored", Z2, 3, [(0, 0, 0, (1, 0)), (1, 0, 1, (0, 0)),
                        (2, 0, 1, (0, 1)), (3, 1, 2, (0, 0)),
                        (4, 2, 1, (1, 1))],
     True, "SPARSE"),
    # unbalanced pieces that break the count alone
    ("cone", Z5, 2, [(i, 0, 1, (i,)) for i in range(4)],
     False, "VIOLATION 0 1 2 3"),
    ("ross", Z2, 2, [(0, 0, 1, (0, 0)), (1, 0, 1, (1, 0)), (2, 1, 0, (0, 1))],
     False, "VIOLATION 0 1 2"),
    # gate on: only the balanced pieces are walked
    ("ross", Z2, 4, [(i, u, v, (0, 0)) for i, (u, v) in enumerate(_K4)],
     True, "VIOLATION 0 1 2 3 4 5"),
    ("ross", Z2, 2, [(0, 0, 1, (0, 0)), (1, 0, 1, (1, 0))], True, "TIGHT"),
]


@pytest.mark.parametrize("family, spec, n, edges, gate, line",
                         RANK_GATE_CASES)
def test_rank_gate_fixed_cases(family, spec, n, edges, gate, line):
    g = ColoredGraph(spec, range(n), edges)
    u = underlying(g)
    null22 = g.m - len(kl_basis(u, P22))
    if family == "ross":
        assert gate == (null22 == 0)
    else:
        assert gate == (is_kl_sparse(u, P21)
                        and (family == "cone" or null22 <= 1))
    assert verdict_line(_assert_matches_oracle(g, family)) == line


@settings(deadline=None, max_examples=150)
@given(st.integers(min_value=0, max_value=5),
       st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=10**6))
def test_near_bound_graphs_match_oracle(fi, n, seed):
    # m from 2n - 3 to 2n + 1, where the gate turns on and off
    family, spec = _FAMILY_SPECS[fi]
    rng = random.Random(seed)
    m = rng.randint(max(2 * n - 3, 1), min(2 * n + 1, 11))
    edges = [(i, rng.randrange(n), rng.randrange(n),
              tuple(rng.randint(-2, 2) for _ in range(spec.ncoords)))
             for i in range(m)]
    _assert_matches_oracle(ColoredGraph(spec, range(n), edges), family)


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(sorted(COUNTS)), st.integers(0, 40),
       st.integers(0, 2), st.integers(0, 9), st.integers(0, 9),
       st.integers(0, 9))
def test_count_record_matches_the_written_out_bounds(family, n, r, c0, c1, c2):
    counts = SubgraphCounts(n, 0, r, c0, c1, c2)
    assert gainsparse.family_bound(family, counts) == \
        family_bound(family, n, r, c0, c1, c2)


# the walk's tables written out per family: (off, keep, l of the flat
# gate's (2, l) game, paired), which the record must reproduce over
# every group the family is defined over
_WALK_TABLES = {"ross": ((3, 2), (0, 0), 2, False),
                "cone": ((3, 1), (0, 0), 1, False),
                "cylinder": ((3, 1), (0, 1), 1, True),
                "colored": ((3, 1, -1), (0, 1, 3), 1, True)}


@pytest.mark.parametrize("family, spec", [
    ("ross", Z2), ("ross", Z3x5), ("cone", Z3), ("cone", Z5),
    ("cylinder", Z), ("colored", Z2)])
def test_walk_tables_derive_from_the_record(family, spec):
    off, keep, paired = _walk_rule(COUNTS[family], spec)
    assert (off, keep, off[1], paired) == _WALK_TABLES[family]
