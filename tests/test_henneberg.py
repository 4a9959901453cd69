"""Henneberg moves, certificates, deconstruction, and random generation."""

import pytest
from hypothesis import given, settings, strategies as st

from gainsparse import (
    CONSTRUCTIBLE,
    Certificate,
    CertificateError,
    ColoredGraph,
    GroupSpec,
    H1c,
    H1cPrime,
    H2c,
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
    family_def,
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


def test_random_construct_is_deterministic():
    a = random_construct("cone", 5, 42)
    b = random_construct("cone", 5, 42)
    assert a == b
    assert len(a.moves) == 5


def test_random_construct_zero_steps():
    cert = random_construct("cylinder", 0, 9)
    assert cert.moves == ()
    assert is_base(cert.base, "cylinder")


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


def test_certificate_parse_errors():
    with pytest.raises(ParseError):
        parse_certificate("family nope\nbegin base\nend base\n")
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
