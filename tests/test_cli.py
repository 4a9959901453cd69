"""End-to-end runs of the command-line interface, in process.

Each test drives cli.main with a real argv and asserts on exit status
and captured streams, so the exit-code contract (0 ok, 1 negative
verdict, 2 usage/parse, 3 budget) is pinned down here.
"""

import contextlib
import io
import random
import shutil
import subprocess

import pytest

from gainsparse import (
    ColoredGraph,
    GroupSpec,
    cli,
    parse_certificate,
    parse_colored_graph,
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


def _long_cycle(n=26):
    edges = [(i, i, (i + 1) % n, (0,)) for i in range(n)]
    return ColoredGraph(Z, list(range(n)), edges)


def test_budget_exceeded(tmp_path):
    f = write_graph(tmp_path / "ring.txt", _long_cycle())
    code, _, err = run_cli(["check", f, "--family", "cylinder"])
    assert code == 3
    assert "--method lift" in err


def test_budget_flag_raises_cap(tmp_path):
    f = write_graph(tmp_path / "ring.txt", _long_cycle())
    code, out, _ = run_cli(["check", f, "--family", "cylinder",
                            "--budget", "30"])
    assert (code, out.strip()) == (0, "SPARSE")


def test_lift_method_needs_square_count(tmp_path):
    f = write_graph(tmp_path / "ring.txt", _long_cycle())
    code, _, err = run_cli(["check", f, "--family", "cylinder",
                            "--method", "lift"])
    assert code == 2
    assert "--method brute" in err


def test_check_directory(tmp_path):
    d = tmp_path / "batch"
    d.mkdir()
    write_graph(d / "a.txt", ColoredGraph(Z5, [0], [(0, 0, 0, (1,))]))
    write_graph(d / "b.txt", ColoredGraph(Z5, [0], [(0, 0, 0, (0,))]))
    write_graph(d / "c.txt", ColoredGraph(Z5, [0], []))
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
    f = tmp_path / "cert.txt"
    f.write_text("family cone\nbegin base\ngroup Z/5\nvertices 1\n"
                 "edge 0 0 0\nend base\n")
    code, _, err = run_cli(["verify", f])
    assert code == 1
    assert "invalid certificate" in err


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
