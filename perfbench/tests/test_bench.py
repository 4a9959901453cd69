"""Tests of the benchmark itself: generators, expected answers, checker,
spans and the BENCHMARK.json contract.

    python3 -m pytest perfbench/tests -q
"""

import filecmp
import json
import os
import random

import pytest

import gainsparse as lib
import gainsparse.cli  # noqa: F401  (spans wrap lib.cli)
import gen
import model as M
import run
import spans
import stats
from check import Checker

FAMILY_GROUPS = [(M.CONE, M.Group(mod=3)), (M.CONE, M.Group(mod=5)),
                 (M.CONE, M.Group(mod=7)), (M.CYLINDER, M.Group()),
                 (M.ROSS, M.Group(ncoords=2)), (M.COLORED, M.Group(ncoords=2))]


def _graph(text):
    return lib.parse_colored_graph(text)


def _files(root):
    out = []
    for d, _, names in os.walk(root):
        out.extend(os.path.relpath(os.path.join(d, n), root) for n in names)
    return sorted(out)


def _strip(plan, root):
    return json.loads(json.dumps(plan).replace(str(root), "ROOT"))


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generators_are_byte_identical_per_seed(tmp_path, workload):
    a, b = tmp_path / "a", tmp_path / "b"
    plan_a = gen.build(workload, 7, str(a))
    plan_b = gen.build(workload, 7, str(b))
    assert _strip(plan_a, a) == _strip(plan_b, b)
    names = _files(a)
    assert names and names == _files(b)
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert not mismatch and not errors


def test_seed_changes_colors_not_shapes(tmp_path):
    gen.build("lift-scale", 1, str(tmp_path / "a"))
    gen.build("lift-scale", 2, str(tmp_path / "b"))
    differ = 0
    for name in _files(tmp_path / "a"):
        ta = (tmp_path / "a" / name).read_text()
        tb = (tmp_path / "b" / name).read_text()
        differ += ta != tb
        ends = [[ln.split()[1:3] for ln in t.splitlines()
                 if ln.startswith("edge")] for t in (ta, tb)]
        assert ends[0] == ends[1], name
    assert differ > 0


@pytest.mark.parametrize("form", ["chain", "attach"])
@pytest.mark.parametrize("mod", [3, 5, 7, None])
def test_lift_shapes_and_plants_match_the_library(form, mod):
    family = M.CONE if mod else M.CYLINDER
    group = M.Group(mod=mod) if mod else M.Group()
    for k in range(6):
        n = 5 + k % 3
        shape, colors = M.streams(k, form, mod, "clean")
        edges = gen.cone_like(form, group, n, shape, colors)
        g = _graph(M.graph_text(group, range(n), edges))
        assert g.m == 2 * n - 1
        assert lib.check_colored_sparsity(g, family).tight
        gen.plant_dup(edges, shape)
        assert not lib.check_colored_sparsity(
            _graph(M.graph_text(group, range(n), edges)), family).sparse
    for k in range(4):
        shape, colors = M.streams(k, "chain", mod, "block")
        edges = gen.cone_like("chain", group, 9, shape, colors)
        gen.plant_block(edges, group, 9, 4, shape)
        g = _graph(M.graph_text(group, range(9), edges))
        assert g.m == 17
        assert not lib.check_colored_sparsity(g, family).sparse


@pytest.mark.parametrize("family", [M.ROSS, M.CONE, M.CYLINDER])
def test_move_rules_keep_certificates_tight(family):
    # every move drawn under the local rules alone must replay as tight
    for k in range(40):
        shape, colors = M.streams(k, "rules", family)
        steps = 6 if family == M.ROSS else 8
        group, bv, be, moves, fv, fe = M.random_certificate(
            family, steps, shape, colors)
        cert = lib.parse_certificate(M.cert_text(family, group, bv, be, moves))
        replayed = lib.verify_certificate(cert)
        mine = _graph(M.graph_text(group, fv, fe))
        assert lib.same_up_to_flip(replayed, mine)


@pytest.mark.parametrize("how", ["last", "kind", "base"])
@pytest.mark.parametrize("family", [M.ROSS, M.CONE, M.CYLINDER])
def test_tampered_certificates_fail_at_the_named_step(family, how):
    if how == "kind" and family == M.CONE:
        pytest.skip("every move kind is allowed for cone")
    for k in range(5):
        shape, colors = M.streams(k, "tamper", family, how)
        group, bv, be, moves, _, _ = M.random_certificate(
            family, 4, shape, colors)
        bv, be, moves, step = gen.tamper(family, group, bv, be, moves, how,
                                         colors)
        cert = lib.parse_certificate(M.cert_text(family, group, bv, be, moves))
        with pytest.raises(lib.CertificateError) as err:
            lib.verify_certificate(cert)
        assert err.value.step == step


def test_brute_expected_answers_agree_with_the_library(tmp_path):
    plan = gen.build("brute-small", 3, str(tmp_path))
    seen = set()
    for it in plan["items"]:
        exp = it["expect"]
        with open(exp["graph"]) as fh:
            g = _graph(fh.read())
        v = lib.check_colored_sparsity(g, exp["family"])
        assert lib.verdict_line(v).split()[0] == exp["verdict"], it["label"]
        seen.add(exp["verdict"])
    assert seen == {"TIGHT", "SPARSE", "VIOLATION"}


def test_whole_graph_bound_matches_the_library():
    rng = random.Random(5)
    for _ in range(300):
        family, group = rng.choice(FAMILY_GROUPS)
        n = rng.randint(1, 6)
        edges = [[i, rng.randrange(n), rng.randrange(n), group.draw(rng)]
                 for i in range(rng.randint(0, 2 * n + 1))]
        g = _graph(M.graph_text(group, range(n), edges))
        counts = lib.graph_counts(g)
        assert M.whole_graph_bound(family, group, list(range(n)), edges) == (
            counts.m_prime, lib.family_bound(family, counts))


# --- checker ---------------------------------------------------------------


def _record(item_id, code, out, err="", digests=()):
    return [0, item_id, code, out, err, 0.01, list(digests), None, 0.003]


def _violation_plan(tmp_path):
    group = M.Group(mod=5)
    shape, colors = M.streams(1, "checker")
    edges = gen.cone_like("chain", group, 8, shape, colors)
    gen.plant_dup(edges, shape)
    path = tmp_path / "g.txt"
    path.write_text(M.graph_text(group, range(8), edges))
    item = {"id": 0, "label": "v", "argv": [], "outputs": [],
            "expect": {"type": "verdict", "family": "cone",
                       "graph": str(path), "verdict": "VIOLATION"}}
    g = _graph(path.read_text())
    witness = sorted(lib.check_colored_sparsity(g, "cone").witness)
    return {"items": [item], "workdir": str(tmp_path)}, g, witness


def test_checker_accepts_a_minimal_witness(tmp_path):
    plan, _, witness = _violation_plan(tmp_path)
    line = "VIOLATION %s\n" % " ".join(map(str, witness))
    assert Checker(plan, lib).problem(_record(0, 1, line)) is None


def test_checker_rejects_a_wrong_verdict(tmp_path):
    plan, _, _ = _violation_plan(tmp_path)
    assert Checker(plan, lib).problem(_record(0, 0, "TIGHT\n")) is not None


def test_checker_rejects_a_non_minimal_witness(tmp_path):
    plan, g, witness = _violation_plan(tmp_path)
    extra = min(set(g.edge_ids()) - set(witness))
    line = "VIOLATION %s\n" % " ".join(map(str, sorted(witness + [extra])))
    why = Checker(plan, lib).problem(_record(0, 1, line))
    assert why is not None and "not minimal" in why


def test_checker_rejects_a_certificate_that_does_not_replay(tmp_path):
    shape, colors = M.streams(2, "checker-cert")
    group, bv, be, moves, fv, fe = M.random_certificate(
        M.CYLINDER, 6, shape, colors)
    graph = tmp_path / "final.txt"
    graph.write_text(M.graph_text(group, fv, fe))
    (tmp_path / "keep").mkdir()
    kept = tmp_path / "keep" / "0.0"
    item = {"id": 0, "label": "d", "argv": [], "outputs": ["x"],
            "expect": {"type": "deconstruct", "family": M.CYLINDER,
                       "graph": str(graph)}}
    plan = {"items": [item], "workdir": str(tmp_path)}
    kept.write_text(M.cert_text(M.CYLINDER, group, bv, be, moves))
    assert Checker(plan, lib).problem(_record(0, 0, "", digests=["d"])) is None
    bad = gen.tamper(M.CYLINDER, group, bv, be, moves, "last", colors)[2]
    kept.write_text(M.cert_text(M.CYLINDER, group, bv, be, bad))
    why = Checker(plan, lib).problem(_record(0, 0, "", digests=["d"]))
    assert why is not None and "move" in why
    kept.write_text(M.cert_text(M.CYLINDER, group, bv, be, moves[:-1]))
    why = Checker(plan, lib).problem(_record(0, 0, "", digests=["d"]))
    assert why is not None and "differ" in why


# --- spans and the contract ------------------------------------------------


def test_self_time_subtracts_children(tmp_path):
    tracer = spans.Tracer()

    def leaf():
        return 1

    inner = tracer.wrap("graphs.parse", leaf, lambda a, r: 10)

    def outer():
        return inner() + inner()

    top = tracer.wrap("cli.main", outer)
    tracer.item = 0
    assert top() == 2
    tracer.save(str(tmp_path / "s"))
    got = spans.layer_metrics(spans.Spans(str(tmp_path / "s")))
    assert got["cli.main.calls"] == 1 and got["graphs.parse.calls"] == 2
    total = tracer.end[0] - tracer.start[0]
    kids = sum(tracer.end[i] - tracer.start[i] for i in (1, 2))
    assert got["cli.main.self_s"] == pytest.approx(total - kids)
    assert got["graphs.parse.bytes_per_s"] == pytest.approx(20 / kids)
    assert list(tracer.parent) == [-1, 0, 0]


def test_install_wraps_and_uninstall_restores():
    before = lib.cli.build_lift
    undo = spans.install(spans.Tracer(), lib)
    try:
        assert lib.cli.build_lift.__wrapped__ is before
    finally:
        undo()
    assert lib.cli.build_lift is before


def test_benchmark_json_names_every_metric_run_reports():
    spec = stats.load_spec()
    result = {"records": [[p, 0, 0, "", "", 0.01, [], None, 0.003]
                          for p in range(3) for _ in range(10)],
              "peak_rss_kb": 1024}
    assert set(run.end_to_end(result, [(0.1, 0.003)])) == {
        m["name"] for m in spec["end_to_end"]}
    empty = spans.Spans.__new__(spans.Spans)
    empty.names, empty.extra, empty.raised = [], {}, {}
    empty.name = empty.parent = empty.item_of = empty.start = empty.end = []
    reported = set(spans.layer_metrics(empty)) | {
        "trace.items_per_s", "trace.untraced_items_per_s",
        "trace.overhead_frac"}
    assert reported == {m["name"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)


def test_run_refuses_a_directory_without_sources(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "brute-small", "--seed", "1",
                     "--seconds", "1"]) != 0


def test_compare_flags_regressions_and_wide_spreads():
    import compare
    metric = {"name": "items_per_s", "better": "higher", "bound": 0.25}
    base = [10.0, 10.2, 9.9, 10.1, 10.0]
    assert compare.verdict(metric, base, [7.0, 7.1, 6.9, 7.2, 7.0]) == \
        "regression"
    assert compare.verdict(metric, base, [10.1, 9.9, 10.0, 10.2, 9.8]) == \
        "same"
    assert compare.verdict(metric, base, [12.0, 12.1, 11.9, 12.2, 12.0]) == \
        "better"
    assert compare.verdict(metric, base, [6.0, 14.0, 10.0, 7.0, 13.0]) == \
        "unresolved"
    latency = {"name": "latency_p50_ms", "better": "lower", "bound": 0.25}
    assert compare.verdict(latency, base, [13.0, 13.1, 12.9, 13.2, 13.0]) == \
        "regression"


def test_variants_repeat_the_slots_with_their_own_colors(tmp_path):
    plan = gen.build("brute-small", 1, str(tmp_path))
    variants = {}
    for it in plan["items"]:
        variants.setdefault(it["variant"], []).append(it)
    assert sorted(variants) == list(range(gen.VARIANTS["brute-small"]))
    first, second = variants[0], variants[1]
    assert [it["label"] for it in first] == [it["label"] for it in second]
    texts = [[open(it["expect"]["graph"]).read() for it in v]
             for v in (first, second)]
    assert texts[0] != texts[1]


def test_hd_quantile_tracks_the_order_statistics():
    assert stats.hd_quantile([3.0, 1.0, 2.0], 0.5) == pytest.approx(2.0)
    assert stats.hd_quantile(range(1, 101), 0.9) == pytest.approx(90.9,
                                                                 abs=0.5)
