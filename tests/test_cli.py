"""End-to-end runs of the command-line interface, in process.

Each test drives cli.main with a real argv and asserts on exit status
and captured streams, so the exit-code contract (0 ok, 1 negative
verdict, 2 usage/parse, 3 budget) is pinned down here.
"""

import contextlib
import importlib
import io
import os
import random
import shutil
import subprocess
import sys
import time

import pytest

import gainsparse
from gainsparse import (
    CONSTRUCTIBLE,
    ColoredGraph,
    GroupSpec,
    PreconditionError,
    UnsupportedGroupError,
    UsageError,
    build_lift,
    check,
    cli,
    cone_laman_via_lift,
    parse_certificate,
    parse_colored_graph,
    random_construct,
    reduce_colors,
    serialize_colored_graph,
    verify_certificate,
)

Z = GroupSpec.parse("Z")
Z3 = GroupSpec.parse("Z/3")
Z5 = GroupSpec.parse("Z/5")


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def write_graph(path, g):
    path.write_text(serialize_colored_graph(g))
    return path


def test_lift_verdict_on_cone_base(tmp_path):
    f = write_graph(tmp_path / "base.txt",
                    ColoredGraph(Z3, [0], [(0, 0, 0, (1,))]))
    code, out, err = run_cli(["check", f, "--family", "cone",
                              "--method", "lift"])
    assert (code, out.strip(), err) == (0, "TIGHT", "")


def test_brute_verdict_on_zero_loop(tmp_path):
    f = write_graph(tmp_path / "loop.txt",
                    ColoredGraph(Z5, [0], [(0, 0, 0, (0,))]))
    code, out, _ = run_cli(["check", f, "--family", "cone"])
    assert code == 1
    assert out.strip() == "VIOLATION 0"


def test_sparse_verdict_exits_zero(tmp_path):
    f = write_graph(tmp_path / "lone.txt", ColoredGraph(Z5, [0], []))
    code, out, _ = run_cli(["check", f, "--family", "cone"])
    assert (code, out.strip()) == (0, "SPARSE")


def test_missing_file(tmp_path):
    code, _, err = run_cli(["check", tmp_path / "absent.txt",
                            "--family", "cone"])
    assert code == 2
    assert "cannot read" in err


def test_parse_error_is_line_numbered(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("group Z/5\nvertices 1\nedge 0 0 0 nope\n")
    code, _, err = run_cli(["check", f, "--family", "cone"])
    assert code == 2
    assert "line 3" in err


def test_duplicate_vertex_id_is_a_parse_error(tmp_path):
    f = tmp_path / "twice.txt"
    f.write_text("group Z/5\nvertexids 1 1\n")
    code, _, err = run_cli(["check", f, "--family", "cone"])
    assert code == 2
    assert "line 2" in err


def test_family_group_mismatch(tmp_path):
    f = write_graph(tmp_path / "plane.txt",
                    ColoredGraph(GroupSpec.parse("Z^2"), [0, 1],
                                 [(0, 0, 1, (1, 0))]))
    code, _, err = run_cli(["check", f, "--family", "cone"])
    assert code == 2
    assert "error:" in err


def test_lift_method_rejects_ross(tmp_path):
    f = write_graph(tmp_path / "plane.txt",
                    ColoredGraph(GroupSpec.parse("Z^2"), [0, 1],
                                 [(0, 0, 1, (1, 0))]))
    code, _, err = run_cli(["check", f, "--family", "ross",
                            "--method", "lift"])
    assert code == 2
    assert "method=lift" in err


def _long_cycle(n=26, spec=Z):
    edges = [(i, i, (i + 1) % n, (0,)) for i in range(n)]
    return ColoredGraph(spec, list(range(n)), edges)


def test_budget_exceeded(tmp_path):
    # m = n, so the lift route would refuse the ring and no hint is offered
    f = write_graph(tmp_path / "ring.txt", _long_cycle())
    code, _, err = run_cli(["check", f, "--family", "cylinder"])
    assert code == 3
    assert err == "error: 26 edges exceeds the enumeration budget of 24\n"


def test_budget_hint_needs_lift_preconditions(tmp_path):
    # check(method="lift") takes cylinder over Z and cone over an odd
    # prime Z/p, both with m = 2n - 1; rings have m = n, and Z/2 is not
    # an odd prime
    n = 13

    def square(spec, p):
        return ColoredGraph(spec, list(range(n)),
                            [(i, i % n, (i + 1 + i // n) % n, (i % p,))
                             for i in range(2 * n - 1)])

    cases = [("cylinder", square(Z, 2 * n), True),
             ("cone", square(Z3, 3), True),
             ("cone", _long_cycle(spec=Z3), False),
             ("cone", _long_cycle(spec=GroupSpec.parse("Z/2")), False)]
    for family, g, hint in cases:
        f = write_graph(tmp_path / "g.txt", g)
        code, out, err = run_cli(["check", f, "--family", family])
        assert (code, out) == (3, "")
        assert err.startswith("error: %d edges exceeds" % g.m)
        assert ("(try --method lift)" in err) == hint


def test_budget_hint_is_for_check_only(tmp_path):
    # verify has no --method flag, so its budget error offers none.  It
    # runs one family check on the final graph, for Ross the brute count:
    # 12 moves give 26 edges, above its 24 (README's certificate section)
    cert = tmp_path / "ross.txt"
    code, _, _ = run_cli(["construct", "--family", "ross", "--steps", 12,
                          "--seed", 1, cert])
    assert code == 0
    code, out, err = run_cli(["verify", cert])
    assert (code, out) == (3, "")
    assert err == "error: 26 edges exceeds the enumeration budget of 24\n"


def test_budget_hint_is_for_lift_families(tmp_path):
    # the lift route decides cone and cylinder only, so a Ross graph over
    # the budget gets no hint to take it
    ring = ColoredGraph(GroupSpec.parse("Z^2"), list(range(26)),
                        [(i, i, (i + 1) % 26, (i, 1)) for i in range(26)])
    f = write_graph(tmp_path / "ring.txt", ring)
    code, out, err = run_cli(["check", f, "--family", "ross"])
    assert (code, out) == (3, "")
    assert err == "error: 26 edges exceeds the enumeration budget of 24\n"


def test_huge_vertex_count_is_a_parse_error(tmp_path):
    f = tmp_path / "huge.txt"
    f.write_text("group Z/3\nvertices 1000000000\n")
    code, out, err = run_cli(["check", f, "--family", "cone"])
    assert (code, out) == (2, "")
    assert "line 2" in err and "vertices" in err


def test_huge_moduli_are_decided_at_once(tmp_path):
    # primality is Miller-Rabin, not trial division up to sqrt(k)
    f = tmp_path / "prime.txt"
    f.write_text("group Z/100000000000031\nvertices 1\n")
    start = time.perf_counter()
    code, out, err = run_cli(["check", f, "--family", "cone"])
    assert time.perf_counter() - start < 0.1
    assert (code, out, err) == (0, "SPARSE\n", "")
    # a 30-digit modulus is refused while the header is parsed
    p = 10 ** 29 + 7
    f.write_text("group Z/%dxZ/3\nvertices 1\n" % p)
    start = time.perf_counter()
    code, out, err = run_cli(["check", f, "--family", "ross"])
    assert time.perf_counter() - start < 0.1
    assert (code, out) == (2, "")
    assert "below 2^64" in err


def test_deconstruct_disconnected_input_is_a_usage_error(tmp_path):
    f = write_graph(tmp_path / "two.txt", ColoredGraph(
        GroupSpec.parse("Z^2"), [0, 1, 2, 3],
        [(0, 0, 1, (1, 0)), (1, 0, 1, (0, 1)),
         (2, 2, 3, (1, 0)), (3, 2, 3, (0, 1))]))
    code, out, err = run_cli(["deconstruct", f, "--family", "ross",
                              tmp_path / "cert.txt"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "not connected" in err
    assert not (tmp_path / "cert.txt").exists()


@pytest.mark.parametrize("family,group", [("ross", "Z^2"), ("cone", "Z/3"),
                                          ("cylinder", "Z")])
def test_deconstruct_balanced_input_is_a_usage_error(tmp_path, family, group):
    # TIGHT under check, but with every cycle summing to zero
    spec = GroupSpec.parse(group)
    f = write_graph(tmp_path / "tri.txt", ColoredGraph(
        spec, [0, 1, 2], [(0, 1, spec.zero()), (1, 2, spec.zero()),
                          (2, 0, spec.zero())]))
    assert run_cli(["check", f, "--family", family])[:2] == (0, "TIGHT\n")
    code, out, err = run_cli(["deconstruct", f, "--family", family,
                              tmp_path / "cert.txt"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "nonzero cycle image" in err
    assert not (tmp_path / "cert.txt").exists()


def _refusals(tmp_path, family, group):
    """(exit code, stderr) of every route that refuses a group: check
    by both methods and, for a constructible family, deconstruct and
    random_construct(group=...), the last as ("raised", message)."""
    spec = GroupSpec.parse(group)
    color = (1,) * spec.ncoords
    # m = 2n - 1, so the lift route refuses nothing but the group
    f = write_graph(tmp_path / "g.txt", ColoredGraph(
        spec, [0, 1], [(0, 1, color), (0, 1, color), (1, 1, color)]))
    argvs = [["check", f, "--family", family, "--method", method]
             for method in ("brute", "lift")]
    if family in CONSTRUCTIBLE:
        argvs.append(["deconstruct", f, "--family", family,
                      tmp_path / "c.txt"])
    out = [(code, err) for code, _, err in map(run_cli, argvs)]
    if family in CONSTRUCTIBLE:
        with pytest.raises(UsageError) as exc:
            random_construct(family, 2, 1, group=spec)
        out.append(("raised", str(exc.value)))
    return out


@pytest.mark.parametrize("family,group", [
    ("cylinder", "Z/5"), ("cylinder", "Z^2"), ("cone", "Z"),
    ("cone", "Z/4"), ("cone", "Z/3xZ/5"), ("ross", "Z/5"), ("ross", "Z"),
    ("colored", "Z"), ("colored", "Z/3xZ/5")])
def test_group_refusal_has_one_message(tmp_path, family, group):
    # one message on every route, a composite cone modulus included
    msg = "family %s is not defined over %s" % (family, group)
    routes = _refusals(tmp_path, family, group)
    assert routes[:2] == [(2, "error: %s\n" % msg)] * 2
    assert routes[2:] == ([(2, "error: %s\n" % msg), ("raised", msg)]
                          if family in CONSTRUCTIBLE else [])


def test_ross_over_a_product_group_is_not_constructed(tmp_path):
    # the Ross count is defined over Z/3xZ/5, its construction is not
    msg = "family ross is constructed over Z^2 only, not Z/3xZ/5"
    assert _refusals(tmp_path, "ross", "Z/3xZ/5") == [
        (1, ""),
        (2, "error: method=lift supports families cone and cylinder, "
            "not ross\n"),
        (2, "error: %s\n" % msg), ("raised", msg)]


def _cover_refusal(group):
    return ("lifts exist over Z/p, p an odd prime, and Z/pxZ/q only, not %s"
            % group)


_ODD_P = "method=lift needs Z/p colors with p an odd prime, got Z/2"
_SQUARE = ("method=lift decides tightness and needs m = 2n - 1; "
           "got n=2 m=4 (use --method brute)")
_DEFINED = "family %s is not defined over %s"

# (family, group, edges beyond 2n - 1, {route: (class, message), or None
# where the route takes the input}).  lift_refusal is the one gate of
# check(method="lift") (and so of the CLI), cone_laman_via_lift and,
# through the cylinder count, reduce_colors; build_lift keeps the
# cover's own rule.
LIFT_REFUSALS = [
    ("cone", "Z/2", 0, {
        "check": (UnsupportedGroupError, _ODD_P),
        "cone_laman_via_lift": (UnsupportedGroupError, _ODD_P),
        "build_lift": (UnsupportedGroupError, _cover_refusal("Z/2"))}),
    ("cone", "Z/4", 0, {
        "check": (UnsupportedGroupError, _DEFINED % ("cone", "Z/4")),
        "cone_laman_via_lift": (UnsupportedGroupError,
                                _DEFINED % ("cone", "Z/4")),
        "build_lift": (UnsupportedGroupError, _cover_refusal("Z/4"))}),
    ("cone", "Z/3xZ/5", 0, {
        "check": (UnsupportedGroupError, _DEFINED % ("cone", "Z/3xZ/5")),
        "cone_laman_via_lift": (UnsupportedGroupError,
                                _DEFINED % ("cone", "Z/3xZ/5")),
        "build_lift": None}),
    ("cone", "Z", 0, {
        "check": (UnsupportedGroupError, _DEFINED % ("cone", "Z")),
        "cone_laman_via_lift": (UnsupportedGroupError,
                                _DEFINED % ("cone", "Z")),
        "build_lift": (UnsupportedGroupError, _cover_refusal("Z"))}),
    ("cylinder", "Z/5", 0, {
        "check": (UnsupportedGroupError, _DEFINED % ("cylinder", "Z/5")),
        "reduce_colors": (UnsupportedGroupError,
                          _DEFINED % ("cylinder", "Z/5")),
        "build_lift": None}),
    ("cylinder", "Z^2", 0, {
        "check": (UnsupportedGroupError, _DEFINED % ("cylinder", "Z^2")),
        "reduce_colors": (UnsupportedGroupError,
                          _DEFINED % ("cylinder", "Z^2")),
        "build_lift": (UnsupportedGroupError, _cover_refusal("Z^2"))}),
    ("cone", "Z/3", 1, {
        "check": (PreconditionError, _SQUARE),
        "cone_laman_via_lift": (PreconditionError, _SQUARE),
        "build_lift": None}),
    ("cylinder", "Z", 1, {
        "check": (PreconditionError, _SQUARE),
        "reduce_colors": None,
        "build_lift": (UnsupportedGroupError, _cover_refusal("Z"))}),
    ("ross", "Z^2", 0, {
        "check": (UsageError,
                  "method=lift supports families cone and cylinder, not ross"),
        "build_lift": (UnsupportedGroupError, _cover_refusal("Z^2"))}),
    ("ross", "Z/3xZ/5", 0, {
        "check": (UsageError,
                  "method=lift supports families cone and cylinder, not ross"),
        "build_lift": None}),
]

_LIFT_ROUTES = {
    "check": lambda g, family: check(g, family, method="lift"),
    "cone_laman_via_lift": lambda g, family: cone_laman_via_lift(g),
    "reduce_colors": lambda g, family: reduce_colors(g),
    "build_lift": lambda g, family: build_lift(g),
}


@pytest.mark.parametrize("family,group,extra,routes", LIFT_REFUSALS)
def test_lift_refusal_has_one_class_and_message(tmp_path, family, group,
                                                extra, routes):
    spec = GroupSpec.parse(group)
    color = (1,) * spec.ncoords
    g = ColoredGraph(spec, [0, 1], [(0, 1, color), (0, 1, color),
                                    (1, 1, color)] + [(0, 0, color)] * extra)
    for route, want in routes.items():
        if want is None:
            _LIFT_ROUTES[route](g, family)
            continue
        with pytest.raises(UsageError) as exc:
            _LIFT_ROUTES[route](g, family)
        assert (type(exc.value), str(exc.value)) == want, route
    f = write_graph(tmp_path / "g.txt", g)
    assert run_cli(["check", f, "--family", family, "--method", "lift"]) == (
        2, "", "error: %s\n" % routes["check"][1])


@pytest.mark.parametrize("family,group,base,cls,message", [
    ("cone", "Z/4", "vertices 1\nedge 0 0 1", UnsupportedGroupError,
     "family cone is not defined over Z/4"),
    ("cylinder", "Z/5", "vertices 1\nedge 0 0 1", UnsupportedGroupError,
     "family cylinder is not defined over Z/5"),
    ("ross", "Z/3xZ/5", "vertices 2\nedge 0 1 1,0\nedge 0 1 0,1", UsageError,
     "family ross is constructed over Z^2 only, not Z/3xZ/5")])
def test_verify_refuses_a_group_as_construct_does(tmp_path, family, group,
                                                  base, cls, message):
    # the group is refused before the base is read, with the class and
    # message construct and deconstruct give, and exit 2, not 1
    f = tmp_path / "cert.txt"
    f.write_text("family %s\nbegin base\ngroup %s\n%s\nend base\n"
                 % (family, group, base))
    assert run_cli(["verify", f]) == (2, "", "error: %s\n" % message)
    for route in (lambda: verify_certificate(parse_certificate(f.read_text())),
                  lambda: random_construct(family, 1, 1,
                                           group=GroupSpec.parse(group))):
        with pytest.raises(UsageError) as exc:
            route()
        assert (type(exc.value), str(exc.value)) == (cls, message)


def test_budget_flag_raises_cap(tmp_path):
    f = write_graph(tmp_path / "ring.txt", _long_cycle())
    code, out, _ = run_cli(["check", f, "--family", "cylinder",
                            "--budget", "30"])
    assert (code, out.strip()) == (0, "SPARSE")


def test_negative_budget_is_a_usage_error(tmp_path):
    # m = 2n - 1 over Z/3, so a budget error would carry the lift hint
    f = write_graph(tmp_path / "g.txt", ColoredGraph(
        Z3, [0, 1], [(0, 0, 1, (1,)), (1, 0, 1, (2,)), (2, 1, 1, (1,))]))
    code, out, err = run_cli(["check", f, "--family", "cone",
                              "--budget", "-1"])
    assert (code, out) == (2, "")
    assert err == "error: budget must be nonnegative, got -1\n"
    f = write_graph(tmp_path / "empty.txt", ColoredGraph(Z3, [], []))
    assert run_cli(["check", f, "--family", "cone", "--budget", "0"]) == (
        0, "TIGHT\n", "")


def test_construct_refuses_more_steps_than_vertices(tmp_path):
    # a cylinder base has one vertex and each move adds one, so 99,999
    # steps reach the 100,000 vertices a graph may hold
    out = tmp_path / "cert.txt"
    code, stdout, err = run_cli(["construct", "--family", "cylinder",
                                 "--steps", "100000", "--seed", "1", out])
    assert (code, stdout) == (2, "")
    assert err == ("error: steps must be at most 99999: a cylinder "
                   "certificate's graph holds at most 100000 vertices\n")
    assert not out.exists()


def test_lift_method_needs_square_count(tmp_path):
    for family, spec in (("cylinder", Z), ("cone", Z3)):
        f = write_graph(tmp_path / "ring.txt", _long_cycle(spec=spec))
        code, _, err = run_cli(["check", f, "--family", family,
                                "--method", "lift"])
        assert code == 2
        assert "needs m = 2n - 1" in err and "--method brute" in err


def test_cover_size_is_capped(tmp_path):
    # a Z/1000003 loop has a 2,000,006-id cover, and a Z loop coloured
    # 10^20 reduces mod a prime above 2 * 10^20; both are refused before
    # anything is allocated for the cover
    huge = tmp_path / "huge.txt"
    huge.write_text("group Z/1000003\nvertices 1\nedge 0 0 1\n")
    wide = tmp_path / "wide.txt"
    wide.write_text("group Z\nvertices 1\nedge 0 0 %d\n" % 10 ** 20)
    for f, family in ((huge, "cone"), (wide, "cylinder")):
        for argv in (["check", f, "--family", family, "--method", "lift"],
                     ["lift", f, tmp_path / "out"],
                     ["dot", f, tmp_path / "out.dot", "--lift"]):
            start = time.perf_counter()
            code, out, err = run_cli(argv)
            assert time.perf_counter() - start < 0.1
            assert (code, out) == (2, "")
            assert err.startswith("error: ")
    code, _, err = run_cli(["check", huge, "--family", "cone",
                            "--method", "lift"])
    assert "2000006 vertices and edges" in err and "cap of 1000000" in err
    code, _, err = run_cli(["check", wide, "--family", "cylinder",
                            "--method", "lift"])
    assert "cap of 1000000" in err and "2^64" not in err


def test_check_directory(tmp_path):
    d = tmp_path / "batch"
    d.mkdir()
    write_graph(d / "a.txt", ColoredGraph(Z5, [0], [(0, 0, 0, (1,))]))
    write_graph(d / "b.txt", ColoredGraph(Z5, [0], [(0, 0, 0, (0,))]))
    write_graph(d / "c.txt", ColoredGraph(Z5, [0], []))
    (d / "b.sub").mkdir()   # subdirectories are skipped
    code, out, _ = run_cli(["check", d, "--family", "cone"])
    assert code == 1
    assert out.splitlines() == ["a.txt: TIGHT",
                                "b.txt: VIOLATION 0",
                                "c.txt: SPARSE"]


def test_check_empty_directory(tmp_path):
    d = tmp_path / "batch"
    d.mkdir()
    code, _, err = run_cli(["check", d, "--family", "cone"])
    assert code == 2
    assert "no files" in err


def test_check_directory_stops_on_bad_file(tmp_path):
    d = tmp_path / "batch"
    d.mkdir()
    (d / "a.txt").write_text("not a graph\n")
    write_graph(d / "b.txt", ColoredGraph(Z5, [0], [(0, 0, 0, (1,))]))
    code, _, err = run_cli(["check", d, "--family", "cone"])
    assert code == 2
    assert "line 1" in err


@pytest.mark.parametrize("family", ["cone", "cylinder"])
def test_brute_and_lift_verdicts_agree(tmp_path, family):
    from gainsparse import random_construct
    for seed in range(12):
        cert = random_construct(family, seed % 4, seed)
        g = verify_certificate(cert)
        rng = random.Random(seed)
        if seed % 2:
            # perturb one color; stays m = 2n - 1 but may break counts
            edges = [(e.id, e.tail, e.head, e.color) for e in g.edges]
            i = rng.randrange(len(edges))
            eid, t, h, _ = edges[i]
            if family == "cone":
                color = rng.randrange(g.spec.moduli[0])
            else:
                color = rng.randint(-3, 3)
            edges[i] = (eid, t, h, (color,))
            g = ColoredGraph(g.spec, list(g.vertices), edges)
        f = write_graph(tmp_path / ("g%d.txt" % seed), g)
        cb, ob, _ = run_cli(["check", f, "--family", family])
        cl, ol, _ = run_cli(["check", f, "--family", family,
                             "--method", "lift"])
        # witness edge sets may differ between methods; the verdict
        # word and the exit status may not
        assert (cb, ob.split()[0]) == (cl, ol.split()[0]), "seed %d" % seed


@pytest.mark.parametrize("method", ["brute", "lift"])
def test_cylinder_disjoint_circuits_violate(tmp_path, method):
    # the reduced lift passes, but the underlying graph carries two
    # vertex-disjoint (2,2)-circuits: the loops at 0 and at 2
    f = write_graph(tmp_path / "two.txt",
                    ColoredGraph(Z, range(3),
                                 [(0, 0, 0, (1,)), (1, 2, 2, (1,)),
                                  (2, 0, 1, (0,)), (3, 1, 2, (0,)),
                                  (4, 0, 1, (1,))]))
    code, out, err = run_cli(["check", f, "--family", "cylinder",
                              "--method", method])
    assert (code, out.strip(), err) == (1, "VIOLATION 0 1", "")


@pytest.mark.parametrize("family", ["ross", "cone", "cylinder"])
def test_construct_verify_deconstruct_verify(tmp_path, family):
    cert_file = tmp_path / "cert.txt"
    code, _, _ = run_cli(["construct", "--family", family, "--steps", 4,
                          "--seed", 7, cert_file])
    assert code == 0
    code, out, _ = run_cli(["verify", cert_file])
    assert code == 0
    assert out.startswith("valid: replays to n=")

    g = verify_certificate(parse_certificate(cert_file.read_text()))
    graph_file = write_graph(tmp_path / "graph.txt", g)
    back_file = tmp_path / "back.txt"
    code, _, _ = run_cli(["deconstruct", graph_file, "--family", family,
                          back_file])
    assert code == 0
    code, out, _ = run_cli(["verify", back_file])
    assert code == 0
    assert ("n=%d m=%d" % (g.n, g.m)) in out


def test_verify_invalid_certificate(tmp_path):
    # a zero base over the right group is an invalid certificate (exit
    # 1); a wrong group is refused before it (exit 2)
    f = tmp_path / "cert.txt"
    for family, base in (
            ("cone", "group Z/5\nvertices 1\nedge 0 0 0"),
            ("cylinder", "group Z\nvertices 1\nedge 0 0 0"),
            ("ross", "group Z^2\nvertices 2\nedge 0 1 0,0\nedge 0 1 0,0")):
        f.write_text("family %s\nbegin base\n%s\nend base\n"
                     % (family, base))
        assert run_cli(["verify", f]) == (
            1, "", "invalid certificate: step -1: base graph is not a %s "
            "base\n" % family)


def test_verify_unparsable_certificate(tmp_path):
    f = tmp_path / "cert.txt"
    f.write_text("family cone\nbegin base\n")
    code, _, err = run_cli(["verify", f])
    assert code == 2
    assert "error:" in err


def test_lift_writes_text_and_dot(tmp_path):
    f = write_graph(tmp_path / "base.txt",
                    ColoredGraph(Z3, [0], [(0, 0, 0, (1,))]))
    out = tmp_path / "cover"
    code, _, _ = run_cli(["lift", f, out])
    assert code == 0
    text = (tmp_path / "cover.txt").read_text()
    assert "vertex 0_0" in text
    assert "edge 0_0 0_1" in text
    dot = (tmp_path / "cover.dot").read_text()
    assert dot.startswith("graph lift {")
    assert 'label="fiber 0"' in dot


def test_lift_needs_finite_colors(tmp_path):
    f = write_graph(tmp_path / "free.txt",
                    ColoredGraph(Z, [0], [(0, 0, 0, (1,))]))
    code, _, err = run_cli(["lift", f, tmp_path / "cover"])
    assert code == 2
    assert "error:" in err


def test_dot_output(tmp_path):
    f = write_graph(tmp_path / "base.txt",
                    ColoredGraph(Z3, [0], [(0, 0, 0, (1,))]))
    out = tmp_path / "g.dot"
    code, _, _ = run_cli(["dot", f, out])
    assert code == 0
    text = out.read_text()
    assert text.startswith("digraph colored {")
    assert 'label="1"' in text


def test_dot_lift_flag(tmp_path):
    f = write_graph(tmp_path / "base.txt",
                    ColoredGraph(Z3, [0], [(0, 0, 0, (1,))]))
    out = tmp_path / "g.dot"
    code, _, _ = run_cli(["dot", f, out, "--lift"])
    assert code == 0
    assert out.read_text().startswith("graph lift {")


def test_console_script(tmp_path):
    exe = shutil.which("gainsparse")
    if exe is None:
        pytest.skip("console script not on PATH")
    f = write_graph(tmp_path / "base.txt",
                    ColoredGraph(Z5, [0], [(0, 0, 0, (2,))]))
    proc = subprocess.run([exe, "check", str(f), "--family", "cone"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "TIGHT"


def test_entry_point_exit_codes(tmp_path):
    # runs the [project.scripts] target the way the installed script
    # would, so the exit codes are checked without the script on PATH
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["gainsparse"]
    module, func = target.split(":")
    assert callable(getattr(importlib.import_module(module), func))
    stub = "import sys, %s; sys.exit(%s.%s())" % (module, module, func)
    src = os.path.dirname(os.path.dirname(gainsparse.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for color, code, verdict in ((2, 0, "TIGHT"), (0, 1, "VIOLATION 0")):
        f = write_graph(tmp_path / "loop.txt",
                        ColoredGraph(Z5, [0], [(0, 0, 0, (color,))]))
        proc = subprocess.run(
            [sys.executable, "-c", stub, "check", str(f), "--family", "cone"],
            capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout.strip()) == (code, verdict)
