"""Henneberg moves, certificates, deconstruction, and random generation."""

import hashlib
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

import gainsparse.henneberg
import oracles
from gainsparse import (
    CONSTRUCTIBLE,
    Certificate,
    CertificateError,
    ColoredGraph,
    GroupSpec,
    H1c,
    H1cPrime,
    H2c,
    InternalInvariantError,
    InvalidMoveError,
    NoCandidatesError,
    ParseError,
    PreconditionError,
    SparsityParams,
    UsageError,
    apply_move,
    check,
    check_colored_sparsity,
    deconstruct,
    family_bound,
    family_def,
    graph_counts,
    is_base,
    is_kl_spanning,
    parse_certificate,
    random_construct,
    reverse_candidates,
    same_up_to_flip,
    serialize_certificate,
    tight_in_family,
    underlying,
    verify_certificate,
)
from gainsparse.graphs import MAX_VERTICES
from helpers import certificate_graph

Z = GroupSpec.parse("Z")
Z5 = GroupSpec.parse("Z/5")
Z2 = GroupSpec.parse("Z^2")

CONE_BASE = ColoredGraph(Z5, [0], [(0, 0, 0, (1,))])
CYL_BASE = ColoredGraph(Z, [0], [(0, 0, 0, (1,))])
ROSS_BASE = ColoredGraph(Z2, [1, 2], [(0, 1, 2, (1, 0)), (1, 1, 2, (0, 1))])


def _cone_chain():
    g1 = apply_move(CONE_BASE, H1c(1, 0, 0, Z5.elem((1,)), Z5.elem((2,))))
    g2 = apply_move(g1, H1c(2, 0, 1, Z5.elem((0,)), Z5.elem((3,))))
    return g1, g2


def test_family_definitions():
    assert family_def("ross").kinds == ("h1c", "h2c")
    assert family_def("cone").kinds == ("h1c", "h1cp", "h2c")
    assert family_def("cylinder").kinds == ("h1c", "h2c")
    assert set(CONSTRUCTIBLE) == {"ross", "cone", "cylinder"}


def test_h1c_on_cone_base():
    g = apply_move(CONE_BASE, H1c(1, 0, 0, Z5.elem((1,)), Z5.elem((2,))))
    assert (g.n, g.m) == (2, 3)
    assert check_colored_sparsity(g, "cone").tight


def test_h1cp_on_cone_base():
    g = apply_move(CONE_BASE, H1cPrime(1, 0, Z5.elem((0,)), Z5.elem((1,))))
    assert (g.n, g.m) == (2, 3)
    assert g.degree(1) == 3
    assert check_colored_sparsity(g, "cone").tight


def test_h2c_on_ross_base():
    # splitting the (1,0) edge; the third neighbor repeats b, so its
    # color must differ from gamma_bn for the new parallels to be legal
    mv = H2c(3, 0, Z2.elem((1, 0)), Z2.elem((0, 0)), 2, Z2.elem((0, 1)))
    g = apply_move(ROSS_BASE, mv)
    assert (g.n, g.m) == (3, 4)
    assert check_colored_sparsity(g, "ross").tight
    with pytest.raises(InvalidMoveError):
        apply_move(ROSS_BASE,
                   H2c(3, 0, Z2.elem((1, 0)), Z2.elem((0, 0)), 2,
                       Z2.elem((0, 0))))


def test_move_color_constraints():
    with pytest.raises(InvalidMoveError):
        apply_move(CONE_BASE, H1c(1, 0, 0, Z5.elem((2,)), Z5.elem((2,))))
    with pytest.raises(InvalidMoveError):
        apply_move(CONE_BASE, H1cPrime(1, 0, Z5.elem((1,)), Z5.elem((0,))))
    _, g2 = _cone_chain()
    # split identity: can - cbn must equal the split edge's color
    with pytest.raises(InvalidMoveError):
        apply_move(g2, H2c(3, 2, Z5.elem((3,)), Z5.elem((3,)), 0,
                           Z5.elem((2,))))


def test_move_reference_errors():
    from gainsparse import UsageError
    with pytest.raises(UsageError):
        apply_move(CONE_BASE, H1c(1, 0, 7, Z5.elem((1,)), Z5.elem((2,))))
    with pytest.raises(UsageError):
        apply_move(CONE_BASE, H1c(0, 0, 0, Z5.elem((1,)), Z5.elem((2,))))


def test_bare_int_color_on_z2_is_a_usage_error():
    with pytest.raises(UsageError, match="takes 2 coordinate"):
        ColoredGraph(Z2, [0], [(0, 0, 5)])
    with pytest.raises(UsageError, match="takes 2 coordinate"):
        apply_move(ROSS_BASE, H1c(3, 1, 2, 5, (0, 1)))
    with pytest.raises(UsageError, match="does not live in"):
        ColoredGraph(Z2, [0], [(0, 0, Z5.elem(1))])


def test_moves_add_one_vertex_two_edges():
    _, g2 = _cone_chain()
    g3 = apply_move(g2, H2c(3, 2, Z5.elem((3,)), Z5.elem((1,)), 0,
                            Z5.elem((2,))))
    assert (g3.n, g3.m) == (g2.n + 1, g2.m + 2)
    assert g3.m == 2 * g3.n - 1


def test_splitting_a_loop_is_legal():
    # reversing at a vertex with two equal neighbors restores a loop,
    # so the forward direction must accept splitting one
    g = apply_move(CONE_BASE, H2c(1, 0, Z5.elem((2,)), Z5.elem((1,)), 0,
                                  Z5.elem((4,))))
    assert (g.n, g.m) == (2, 3)
    assert check_colored_sparsity(g, "cone").tight


def test_reverse_degree_two():
    g1, _ = _cone_chain()
    cands = reverse_candidates(g1, 1, "cone")
    assert len(cands) == 1
    mv, pred = cands[0]
    assert isinstance(mv, H1c)
    assert pred == CONE_BASE


def test_reverse_loop_plus_edge():
    g = apply_move(CONE_BASE, H1cPrime(1, 0, Z5.elem((0,)), Z5.elem((1,))))
    cands = reverse_candidates(g, 1, "cone")
    assert len(cands) == 1
    mv, pred = cands[0]
    assert isinstance(mv, H1cPrime)
    assert pred == CONE_BASE


def test_reverse_degree_three_distinct_neighbors():
    _, g2 = _cone_chain()
    g4 = apply_move(g2, H2c(3, 3, Z5.elem((2,)), Z5.elem((2,)), 1,
                            Z5.elem((4,))))
    cands = reverse_candidates(g4, 3, "cone")
    assert len(cands) == 3
    assert all(isinstance(mv, H2c) for mv, _ in cands)
    assert sum(same_up_to_flip(pred, g2) for _, pred in cands) == 1


def test_reverse_excludes_duplicate_parallels():
    # two of the three pairs would recreate edges the graph already
    # has with the same color, leaving a single candidate
    _, g2 = _cone_chain()
    g3 = apply_move(g2, H2c(3, 2, Z5.elem((3,)), Z5.elem((1,)), 0,
                            Z5.elem((2,))))
    cands = reverse_candidates(g3, 3, "cone")
    assert len(cands) == 1
    assert sum(same_up_to_flip(pred, g2) for _, pred in cands) == 1


def test_reverse_unsupported_degree():
    _, g2 = _cone_chain()
    with pytest.raises(NoCandidatesError):
        reverse_candidates(g2, 0, "cone")


def test_h1cp_reversal_is_cone_only():
    g = apply_move(CYL_BASE, H2c(1, 0, Z.elem((2,)), Z.elem((1,)), 0,
                                 Z.elem((4,))))
    rev = reverse_candidates(g, 1, "cylinder")
    assert all(not isinstance(mv, H1cPrime) for mv, _ in rev)


def test_is_base_fixed_cases():
    assert is_base(ColoredGraph(Z5, [0], [(0, 0, 0, (2,))]), "cone")
    bad_ross = ColoredGraph(Z2, [0, 1],
                            [(0, 0, 1, (1, 0)), (1, 0, 1, (1, 0))])
    assert not is_base(bad_ross, "ross")
    assert not is_base(ColoredGraph(Z, [0], [(0, 0, 0, (0,))]), "cylinder")
    assert is_base(ROSS_BASE, "ross")
    assert is_base(CYL_BASE, "cylinder")
    assert not is_base(CONE_BASE, "cylinder")
    assert not is_base(CYL_BASE, "cone")


def test_verify_empty_certificate():
    g = verify_certificate(Certificate("cone", CONE_BASE, ()))
    assert g == CONE_BASE


def test_verify_rejects_bad_base():
    bad = ColoredGraph(Z5, [0], [(0, 0, 0, (0,))])
    with pytest.raises(CertificateError) as ei:
        verify_certificate(Certificate("cone", bad, ()))
    assert ei.value.step == -1


def test_verify_rejects_disallowed_kind():
    mv = H1cPrime(1, 0, Z.elem((1,)), Z.elem((1,)))
    with pytest.raises(CertificateError) as ei:
        verify_certificate(Certificate("cylinder", CYL_BASE, (mv,)))
    assert ei.value.step == 0


def test_verify_reports_offending_step():
    bad = H2c(3, 2, Z5.elem((3,)), Z5.elem((3,)), 0, Z5.elem((2,)))
    cert = Certificate("cone", CONE_BASE,
                       (H1c(1, 0, 0, Z5.elem((1,)), Z5.elem((2,))),
                        H1c(2, 0, 1, Z5.elem((0,)), Z5.elem((3,))), bad))
    with pytest.raises(CertificateError) as ei:
        verify_certificate(cert)
    assert ei.value.step == 2


def test_verify_hand_built_cone_certificate():
    cert = Certificate("cone", CONE_BASE,
                       (H1c(1, 0, 0, Z5.elem((1,)), Z5.elem((2,))),
                        H1cPrime(2, 1, Z5.elem((3,)), Z5.elem((2,))),
                        H2c(3, 2, Z5.elem((4,)), Z5.elem((2,)), 1,
                            Z5.elem((0,)))))
    g = verify_certificate(cert)
    assert (g.n, g.m) == (4, 7)
    assert check_colored_sparsity(g, "cone").tight


def test_deconstruct_base_is_empty_certificate():
    cert = deconstruct(CONE_BASE, "cone")
    assert cert.moves == ()
    assert same_up_to_flip(cert.base, CONE_BASE)


def test_deconstruct_single_split():
    mv = H2c(3, 0, Z2.elem((1, 0)), Z2.elem((0, 0)), 2, Z2.elem((0, 1)))
    g = apply_move(ROSS_BASE, mv)
    cert = deconstruct(g, "ross")
    assert len(cert.moves) == 1
    assert same_up_to_flip(verify_certificate(cert), g)


def test_deconstruct_requires_tight_input():
    with pytest.raises(PreconditionError):
        deconstruct(ColoredGraph(Z5, [0], [(0, 0, 0, (0,))]), "cone")
    with pytest.raises(PreconditionError):
        deconstruct(ColoredGraph(Z5, [0, 1], [(0, 0, 0, (1,))]), "cone")


def test_deconstruct_refuses_disconnected_input():
    # two Ross bases side by side: the whole-graph count calls this tight,
    # but no certificate builds a disconnected graph
    g = ColoredGraph(Z2, [0, 1, 2, 3],
                     [(0, 0, 1, (1, 0)), (1, 0, 1, (0, 1)),
                      (2, 2, 3, (1, 0)), (3, 2, 3, (0, 1))])
    assert tight_in_family(g, "ross")
    with pytest.raises(PreconditionError, match="not connected"):
        deconstruct(g, "ross")


def _balanced_triangle(spec):
    z = spec.zero()
    return ColoredGraph(spec, [0, 1, 2], [(0, 1, z), (1, 2, z), (2, 0, z)])


# check calls each of these TIGHT, but every cycle sums to zero, and no
# certificate builds a graph without a nonzero cycle
BALANCED_TRIANGLES = [("ross", _balanced_triangle(Z2)),
                      ("cone", _balanced_triangle(GroupSpec.parse("Z/3"))),
                      ("cylinder", _balanced_triangle(Z))]


@pytest.mark.parametrize("family,g", BALANCED_TRIANGLES)
def test_deconstruct_refuses_balanced_input(family, g):
    assert check(g, family).tight
    with pytest.raises(PreconditionError, match="nonzero cycle image"):
        deconstruct(g, family)


_TIGHT_SPECS = {"ross": (Z2,), "cone": (GroupSpec.parse("Z/3"), Z5),
                "cylinder": (Z,)}


@st.composite
def _family_graph(draw):
    """A family and a graph over one of its groups with at most 12
    edges, m = 2n - 1 (the lift route's count) about half the time."""
    family = draw(st.sampled_from(sorted(_TIGHT_SPECS)))
    spec = draw(st.sampled_from(_TIGHT_SPECS[family]))
    n = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.one_of(st.just(2 * n - 1), st.integers(min_value=0,
                                                        max_value=12)))
    end = st.integers(min_value=0, max_value=n - 1)
    color = st.tuples(*[st.integers(min_value=-2, max_value=2)] * spec.ncoords)
    edges = draw(st.lists(st.tuples(end, end, color), min_size=m, max_size=m))
    return family, ColoredGraph(spec, range(n), edges)


@settings(deadline=None, max_examples=300)
@given(_family_graph())
@example(BALANCED_TRIANGLES[0])
@example(BALANCED_TRIANGLES[1])
@example(BALANCED_TRIANGLES[2])
def test_tight_in_family_agrees_with_check(case):
    family, g = case
    assert tight_in_family(g, family) == check(g, family).tight


def test_random_construct_does_not_build_the_group():
    start = time.perf_counter()
    random_construct("cone", 20, 1, group=GroupSpec.cyclic(100003))
    assert time.perf_counter() - start < 1.0


def test_random_construct_is_deterministic():
    a = random_construct("cone", 5, 42)
    b = random_construct("cone", 5, 42)
    assert a == b
    assert len(a.moves) == 5


def test_random_construct_zero_steps():
    cert = random_construct("cylinder", 0, 9)
    assert cert.moves == ()
    assert is_base(cert.base, "cylinder")


def test_a_cylinder_certificate_past_the_safe_cover_cap_verifies():
    # the safe prime's cover of this graph is 1,354,804 vertices and
    # edges, above MAX_COVER; the final check lifts over a small prime
    cert = random_construct("cylinder", 300, 1)
    g = verify_certificate(cert)
    assert (g.n, g.m) == (301, 601)
    assert check(g, "cylinder", method="lift") == (True, True, None)


def test_random_construct_group_override():
    spec = GroupSpec.parse("Z/11")
    cert = random_construct("cone", 3, 1, group=spec)
    assert cert.base.spec == spec
    assert verify_certificate(cert).spec == spec


def test_check_takes_brute_or_lift_only():
    tight = (True, True, None)
    assert check(CONE_BASE, "cone") == check(CONE_BASE, "cone", "lift") == tight
    with pytest.raises(UsageError):
        check(CONE_BASE, "cone", method="auto")


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(sorted(CONSTRUCTIBLE)),
       st.integers(min_value=0, max_value=5),
       st.integers(min_value=0, max_value=10**6))
def test_generated_certificates_verify_and_round_trip(family, steps, seed):
    cert = random_construct(family, steps, seed)
    g = verify_certificate(cert)
    assert tight_in_family(g, family)
    assert check_colored_sparsity(g, family).tight
    if family == "cylinder":
        assert is_kl_spanning(underlying(g), SparsityParams(2, 2))

    back = deconstruct(g, family)
    assert is_base(back.base, family)
    replay = verify_certificate(back)
    assert same_up_to_flip(replay, g)
    assert set(replay.vertices) == set(g.vertices)

    text = serialize_certificate(back)
    assert parse_certificate(text) == back


def test_forward_then_reverse_round_trip():
    _, g2 = _cone_chain()
    mv = H2c(3, 3, Z5.elem((2,)), Z5.elem((2,)), 1, Z5.elem((4,)))
    g3 = apply_move(g2, mv)
    preds = [pred for cmv, pred in reverse_candidates(g3, 3, "cone")
             if same_up_to_flip(pred, g2)]
    assert len(preds) == 1


# certificate text format

def test_certificate_text_round_trip():
    cert = random_construct("cone", 4, 3)
    text = serialize_certificate(cert)
    assert text.splitlines()[0] == "family cone"
    assert "begin base" in text and "end base" in text
    assert parse_certificate(text) == cert


def test_certificate_text_fixed_form():
    cert = Certificate("cone", CONE_BASE,
                       (H1c(1, 0, 0, Z5.elem((1,)), Z5.elem((2,))),
                        H1cPrime(2, 1, Z5.elem((3,)), Z5.elem((2,))),
                        H2c(3, 2, Z5.elem((4,)), Z5.elem((2,)), 1,
                            Z5.elem((0,)))))
    text = serialize_certificate(cert)
    lines = text.strip().splitlines()
    assert lines[0] == "family cone"
    assert lines[-3] == "h1c n=1 a=0 b=0 ca=1 cb=2"
    assert lines[-2] == "h1cp n=2 a=1 ca=3 loop=2"
    assert lines[-1] == "h2c n=3 split=2 can=4 cbn=2 c=1 ccn=0"


def test_certificate_comments_end_every_line():
    # a trailing comment is dropped from move, family and block lines
    # alike, as the graph parser drops it from base lines
    text = serialize_certificate(random_construct("cone", 3, 2))
    noted = "\n".join(line + "  # x" for line in text.splitlines())
    assert parse_certificate(noted) == parse_certificate(text)


def test_certificate_parse_errors():
    with pytest.raises(ParseError):
        parse_certificate("family nope\nbegin base\nend base\n")
    # the keyword is matched whole, not as a prefix
    with pytest.raises(ParseError) as ei:
        parse_certificate("family_x cone\nbegin base\ngroup Z/5\nvertices 1\n"
                          "edge 0 0 1\nend base\n")
    assert ei.value.lineno == 1
    with pytest.raises(ParseError) as ei:
        parse_certificate("family cone\nbegin base\ngroup Z/5\nvertices 1\n"
                          "edge 0 0 1\nend base\nwobble n=1\n")
    assert ei.value.lineno == 7
    with pytest.raises(ParseError):
        parse_certificate("family cone\nbegin base\ngroup Z/5\n")
    with pytest.raises(ParseError) as ei:
        parse_certificate("family cone\nbegin base\ngroup Z/5\nvertices 1\n"
                          "edge 0 0 1\nend base\nh1c n=1 a=0 b=0 ca=1\n")
    assert ei.value.lineno == 7
    # errors inside the base block keep file line numbers
    with pytest.raises(ParseError) as ei:
        parse_certificate("family cone\nbegin base\ngroup Z/5\nvertices 1\n"
                          "edge 0 2 1\nend base\n")
    assert ei.value.lineno == 5


_CONE_HEAD = ("family cone\nbegin base\ngroup Z/5\nvertices 1\nedge 0 0 2\n"
              "end base\n")


def test_certificate_moves_are_capped_at_max_vertices(monkeypatch):
    # every move adds a vertex, so a one-vertex base takes MAX_VERTICES - 1
    # move lines; the parser only reads them, so one line repeats, and
    # the line past the cap is refused before it is read
    monkeypatch.setattr(gainsparse.henneberg, "MAX_VERTICES", 5)
    move = "h1c n=1 a=0 b=0 ca=1 cb=2\n"
    assert len(parse_certificate(_CONE_HEAD + move * 4).moves) == 4
    with pytest.raises(ParseError) as ei:
        parse_certificate(_CONE_HEAD + move * 4 + "wobble\n")
    assert str(ei.value) == ("line 11: more than 4 moves: a certificate's "
                             "graph holds at most 5 vertices")


def test_random_construct_steps_are_capped_at_max_vertices():
    for family, base_n in (("ross", 2), ("cone", 1), ("cylinder", 1)):
        with pytest.raises(UsageError) as ei:
            random_construct(family, MAX_VERTICES - base_n + 1, 1)
        assert str(ei.value) == (
            "steps must be at most %d: a %s certificate's graph holds at "
            "most 100000 vertices" % (MAX_VERTICES - base_n, family))


# the forward theorem and the reverse lemma the certificate paths rely on

# (family, group) pairs the construction runs over; cone takes the odd
# primes random_construct picks from
_MOVE_SPECS = [("ross", Z2), ("cone", GroupSpec.cyclic(3)), ("cone", Z5),
               ("cone", GroupSpec.cyclic(7)), ("cylinder", Z)]


# a colour of the graph's group, its coordinates, a bare int (refused
# by Z^2), or an element of another group (always refused)
_FORMS = ("elem", "elem", "coords", "int", "other")


def _given_color(spec, coords, form):
    if form == "elem":
        return spec.elem(coords)
    if form == "coords":
        return coords
    if form == "int":
        return coords[0]
    return (Z5 if spec != Z5 else Z).elem(coords[0])


@settings(deadline=None, max_examples=400)
@given(st.sampled_from(_MOVE_SPECS), st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=10**6), st.booleans(), st.data())
def test_apply_move_matches_the_kind_by_kind_oracle(spec_row, steps, seed,
                                                    repeat, data):
    # every kind on every family's graphs, with unknown attach vertices,
    # reused n, missing split ids and colours in every form; small
    # coordinates and `repeat` (a == b, cb = ca, a fitting split
    # identity) make equal parallels, zero loops and both sides of the
    # split identity common
    family, spec = spec_row
    g = certificate_graph(family, steps, seed, spec)
    verts = sorted(g.vertices) + [max(g.vertices) + 7]
    coords = st.tuples(*[st.integers(min_value=0, max_value=1)] * spec.ncoords)
    forms = st.sampled_from(_FORMS)

    def color():
        return _given_color(spec, data.draw(coords), data.draw(forms))

    n = data.draw(st.sampled_from([max(g.vertices) + 1] * 3 + [verts[0]]))
    kind = data.draw(st.sampled_from(("h1c", "h1cp", "h2c")))
    if kind == "h1c":
        a = data.draw(st.sampled_from(verts))
        ca = color()
        mv = H1c(n, a, a if repeat else data.draw(st.sampled_from(verts)),
                 ca, ca if repeat else color())
    elif kind == "h1cp":
        mv = H1cPrime(n, data.draw(st.sampled_from(verts)), color(), color())
    else:
        ids = sorted(g.edge_ids())
        split = data.draw(st.sampled_from(ids + [ids[-1] + 1]))
        can = data.draw(coords)
        cbn = color()
        if repeat and split in g.edge_ids():
            cbn = spec.elem(can) - g.edge(split).color
        mv = H2c(n, split, _given_color(spec, can, data.draw(forms)), cbn,
                 data.draw(st.sampled_from(verts)), color())
    outcomes = []
    for move in (apply_move, oracles.apply_move_by_kind):
        try:
            outcomes.append(move(g, mv))
        except (UsageError, InvalidMoveError) as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1], mv


def _brute_tight(g, family):
    """Tightness by subgraph enumeration, plus (2,2)-spanning for
    cylinder, as acceptance criterion 4 judges it."""
    return (check_colored_sparsity(g, family).tight
            and (family != "cylinder"
                 or is_kl_spanning(underlying(g), SparsityParams(2, 2))))


def _colors(spec):
    if spec.finite:
        return st.sampled_from(spec.elements())
    coord = st.integers(min_value=-3, max_value=3)
    return st.tuples(*[coord] * spec.ncoords).map(lambda c: spec.elem(*c))


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(_MOVE_SPECS), st.integers(min_value=0, max_value=7),
       st.integers(min_value=0, max_value=10**6), st.booleans(), st.data())
def test_accepted_moves_keep_tight_graphs_tight(spec_row, steps, seed,
                                                 repeat, data):
    # every move apply_move accepts on a tight graph gives a tight graph;
    # `repeat` forces the edge cases: h1c with a == b, and h2c whose
    # third vertex is an endpoint of the split edge
    family, spec = spec_row
    g = certificate_graph(family, steps, seed, spec)
    assert _brute_tight(g, family)
    color = _colors(spec)
    verts = sorted(g.vertices)
    n = verts[-1] + 1
    kind = data.draw(st.sampled_from(family_def(family).kinds))
    if kind == "h1c":
        a = data.draw(st.sampled_from(verts))
        b = a if repeat else data.draw(st.sampled_from(verts))
        mv = H1c(n, a, b, data.draw(color), data.draw(color))
    elif kind == "h1cp":
        mv = H1cPrime(n, data.draw(st.sampled_from(verts)), data.draw(color),
                      data.draw(color))
    else:
        split = g.edge(data.draw(st.sampled_from(sorted(g.edge_ids()))))
        c = data.draw(st.sampled_from((split.tail, split.head) if repeat
                                      else verts))
        can = data.draw(color)
        mv = H2c(n, split.id, can, can - split.color, c, data.draw(color))
    try:
        h = apply_move(g, mv)
    except InvalidMoveError:
        return
    assert h.m <= 24
    assert _brute_tight(h, family), mv


@settings(deadline=None, max_examples=80)
@given(st.sampled_from(_MOVE_SPECS), st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=10**6))
def test_reverse_vertex_deletions_of_tight_graphs_are_tight(spec_row, steps,
                                                            seed):
    # deconstruct accepts an h1c or h1cp predecessor on the whole-graph
    # count alone; every such predecessor of a constructed graph must be
    # tight by brute force, so that count decides what the full check did
    family, spec = spec_row
    g = certificate_graph(family, steps, seed, spec)
    for v in sorted(g.vertices):
        try:
            cands = reverse_candidates(g, v, family)
        except NoCandidatesError:
            continue
        for mv, cand in cands:
            if mv.kind == "h2c":
                continue
            counts = graph_counts(cand)
            assert counts.m_prime == family_bound(family, counts)
            assert _brute_tight(cand, family), (v, mv)


# work counts: one family check per certificate, none per draw

def _count_tight(monkeypatch, result=None):
    seen = []
    real = gainsparse.henneberg.tight_in_family

    def counting(g, family):
        seen.append(g)
        return real(g, family) if result is None else result

    monkeypatch.setattr(gainsparse.henneberg, "tight_in_family", counting)
    return seen


def _tampered(mv, spec):
    """mv with one local rule broken."""
    if mv.kind == "h1c":
        return mv._replace(b=mv.a, cb=mv.ca)
    if mv.kind == "h1cp":
        return mv._replace(loop=spec.zero())
    shift = spec.elem(*([1] + [0] * (spec.ncoords - 1)))
    return mv._replace(can=mv.can + shift)


@pytest.mark.parametrize("family", sorted(CONSTRUCTIBLE))
def test_certificates_take_one_family_check(monkeypatch, family):
    steps = 5 if family == "ross" else 12
    seen = _count_tight(monkeypatch)
    cert = random_construct(family, steps, 3)
    assert seen == []

    g = verify_certificate(cert)
    assert len(seen) == 1 and seen[0] is g

    bad = cert._replace(
        moves=cert.moves[:-1] + (_tampered(cert.moves[-1], cert.base.spec),))
    seen.clear()
    with pytest.raises(CertificateError) as ei:
        verify_certificate(bad)
    assert ei.value.step == steps - 1
    assert seen == []

    # deconstruct checks g once, then only the h2c candidates it tries
    h2c = []
    real_reverse = gainsparse.henneberg.reverse_candidates

    def recording(work, v, fam):
        out = real_reverse(work, v, fam)
        h2c.extend(cand for mv, cand in out if mv.kind == "h2c")
        return out

    monkeypatch.setattr(gainsparse.henneberg, "reverse_candidates", recording)
    seen.clear()
    back = deconstruct(g, family)
    assert seen[0] is g
    assert all(any(c is cand for cand in h2c) for c in seen[1:])
    n_h2c = sum(mv.kind == "h2c" for mv in back.moves)
    assert n_h2c <= len(seen) - 1 <= len(h2c)
    assert len(back.moves) > n_h2c


def test_failed_final_check_is_an_internal_error(monkeypatch):
    cert = random_construct("cone", 4, 5)
    _count_tight(monkeypatch, result=False)
    with pytest.raises(InternalInvariantError):
        verify_certificate(cert)
    # a bare base is tight by definition and takes no check
    assert verify_certificate(cert._replace(moves=())) == cert.base


# the strip: pinned output and linear memory

# SHA-256 of the serialized deconstructions of 20 random_construct graphs
# per case.  They were taken with a strip that kept every predecessor
# graph, so they pin that recording one edge per step changed no output.
STRIP_DIGESTS = {
    ("cone", "Z/3"): "4bc02a1d19391e611ea1cf38692140b6d6b7e02ca2d0e4b29fb2f268ea423f96",
    ("cone", "Z/5"): "188b7fc2d43ace7b04740501a28077db248527018f500c409ea541faed268cbe",
    ("cone", "Z/7"): "ec1842122a39bfda25acc231ae23ba6c490cce7498d71262eedd533671f48bfa",
    ("cylinder", "Z"): "a3314b5b0e0317f34b46444b36b58cde3c65cb7043706d39e25deb15eac3bb27",
    ("ross", "Z^2"): "e40350db63236b79df385fa1ca86dcd97194c9ceb0a82c210990bc259c6752f7",
}


@pytest.mark.parametrize("case", sorted(STRIP_DIGESTS),
                         ids=["%s-%s" % c for c in sorted(STRIP_DIGESTS)])
def test_deconstruct_output_is_pinned(case):
    family, group = case
    digest = hashlib.sha256()
    for seed in range(20):
        # Ross stays within the brute-force budget: at most 8 moves
        steps = seed % 9 if family == "ross" else 2 + 2 * seed
        cert = random_construct(family, steps, seed,
                                group=GroupSpec.parse(group))
        back = deconstruct(verify_certificate(cert), family)
        digest.update(serialize_certificate(back).encode())
    assert digest.hexdigest() == STRIP_DIGESTS[case]


def test_deconstruct_holds_one_graph():
    # each step keeps its move and at most one edge, not the predecessor
    # graph: the 200-move strip's traced peak reads about 0.4 MB, and
    # 6.2-6.5 MB with every predecessor kept
    g = certificate_graph("cone", 200, 1, GroupSpec.cyclic(3))
    tracemalloc.start()
    try:
        back = deconstruct(g, "cone")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(back.moves) == 200
    assert peak < 1.5e6, peak
