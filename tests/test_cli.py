"""CLI: subcommands, formats, exit codes, JSON stability."""

from __future__ import annotations

import argparse
import io
import json
import random

import pytest

from bmx import __version__, cli, morphism, verify
from bmx.cli import COMMANDS, run
from bmx.graphs import SimpleGraph
from bmx.matroid import (
    Matroid,
    bb,
    free,
    from_bm1,
    graphic,
    pg,
    recoordinatize,
    to_bm1,
    to_compact,
)
from conftest import random_gl, time_budget


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.fixture
def tri_file(tmp_path):
    p = tmp_path / "tri.bm1"
    p.write_text(to_bm1(pg(2)))
    return str(p)


@pytest.fixture
def tri20_file(tmp_path):
    """A triangle on the top two coordinates of F_2^20."""
    p = tmp_path / "tri20.bm1"
    p.write_text(to_bm1(Matroid(20, frozenset({1 << 19, 1 << 18, 3 << 18}))))
    return str(p)


@pytest.fixture
def fano_file(tmp_path):
    p = tmp_path / "fano.bm1"
    p.write_text(to_bm1(pg(3)))
    return str(p)


def test_construct_and_stat(capsys, tmp_path):
    code, out = invoke(capsys, "construct", "bb", "--n", "4", "--t", "1")
    assert code == 0
    m = from_bm1(out)
    assert m.points == bb(4, 1).points
    p = tmp_path / "m.bm1"
    p.write_text(out)
    code, out = invoke(capsys, "stat", str(p))
    assert code == 0
    assert "size 8" in out and "chi 1" in out and "dim 4" in out


def test_stat_json(capsys, tri_file):
    code, out = invoke(capsys, "stat", tri_file, "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["size"] == 3 and d["chi"] == 2 and d["schema"] == 1


def test_stat_computes_chi_on_the_span(capsys, tmp_path):
    # a triangle declared in dimension 13, past the rank <= 12 limit of
    # the critical number, has chi 2 as in dimension 2
    p = tmp_path / "tri13.bm1"
    p.write_text(to_bm1(Matroid(13, pg(2).points)))
    code, out = invoke(capsys, "stat", str(p))
    assert code == 0 and "dim 13" in out and "chi 2" in out
    code, out = invoke(capsys, "stat", str(p), "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert (d["dim"], d["rank"], d["chi"]) == (13, 2, 2)


def test_construct_all_kinds(capsys, tmp_path, tri_file):
    for argv, size in [
        (["construct", "pg", "--t", "3"], 7),
        (["construct", "ag", "--t", "3"], 4),
        (["construct", "free", "--t", "4"], 4),
        (["construct", "circuit", "--m", "4"], 4),
        (["construct", "lift", tri_file, "--n", "4", "--t", "2"], 15),
    ]:
        code, out = invoke(capsys, *argv)
        assert code == 0
        assert from_bm1(out).size == size
    g = tmp_path / "g.edges"
    g.write_text("0 1\n1 2\n2 0\n")
    code, out = invoke(capsys, "construct", "graphic", str(g))
    assert code == 0
    assert from_bm1(out).size == 3


def test_construct_json_builds_no_bm1_text(monkeypatch, capsys):
    # the BM1 text of PG(19,2) alone took seconds; JSON never prints it
    code, out = invoke(capsys, "construct", "pg", "--t", "3",
                       "--format", "json")
    assert code == 0

    def refused(m):
        raise AssertionError("to_bm1 called for a JSON answer")

    monkeypatch.setattr(cli, "to_bm1", refused)
    assert invoke(capsys, "construct", "pg", "--t", "3",
                  "--format", "json") == (0, out)
    assert json.loads(out)["compact"] == to_compact(pg(3))


def test_contains_and_iso_exit_codes(capsys, tri_file, fano_file):
    assert invoke(capsys, "contains", fano_file, tri_file)[0] == 0
    code, out = invoke(capsys, "contains", tri_file, fano_file)
    assert code == 1 and out.strip() == "false"
    assert invoke(capsys, "iso", tri_file, tri_file)[0] == 0
    assert invoke(capsys, "iso", tri_file, fano_file)[0] == 1


def test_iso_of_sparse_dim6_images(capsys, tmp_path):
    rng = random.Random(6)
    pts = rng.sample(range(1, 64), 3)
    paths = []
    for i in range(2):
        table = random_gl(rng, 6)
        p = tmp_path / f"m{i}.bm1"
        p.write_text(to_bm1(Matroid(6, frozenset(table[x] for x in pts))))
        paths.append(str(p))
    with time_budget(10):
        code, out = invoke(capsys, "iso", *paths)
    assert code == 0 and out.strip() == "true"


def test_canon_and_count(capsys, tri_file, fano_file):
    code, out = invoke(capsys, "canon", tri_file)
    assert code == 0 and "key 111" in out
    code, out = invoke(capsys, "count-restrictions", fano_file, tri_file)
    assert code == 0 and out.strip() == "7"


def test_canon_and_iso_of_a_set_that_does_not_span(capsys, tmp_path):
    # keys are computed over the span, so a triangle declared in
    # dimension 12 is keyed in dimension 2 and still reports dim 12; only
    # a rank above 8 is refused
    def write(name, pts):
        p = tmp_path / f"{name}.bm1"
        p.write_text(to_bm1(Matroid(12, frozenset(pts))))
        return str(p)

    tri = write("tri", {1 << 11, 1 << 10, 3 << 10})
    code, out = invoke(capsys, "canon", tri)
    assert code == 0 and out == "dim 12\nkey 111\n"
    code, out = invoke(capsys, "canon", tri, "--format", "json")
    assert code == 0 and json.loads(out)["dim"] == 12
    assert invoke(capsys, "iso", tri, write("line", {1, 2, 3})) == (0, "true\n")
    assert invoke(capsys, "iso", tri, write("free", {1, 2, 4})) == (1, "false\n")
    # the empty set spans the zero space: its key is the empty string
    empty = write("empty", set())
    assert invoke(capsys, "canon", empty) == (0, "dim 12\nkey \n")
    code, out = invoke(capsys, "canon", empty, "--format", "json")
    assert code == 0 and json.loads(out)["key"] == ""
    assert invoke(capsys, "iso", empty, tri) == (1, "false\n")
    low, high = write("low9", {1 << i for i in range(9)}), \
        write("high9", {1 << i for i in range(3, 12)})
    assert run(["canon", low]) == 3
    assert run(["iso", low, high]) == 3
    assert "canonizer limited to rank <= 8" in capsys.readouterr().err


def test_compact_and_stdin(capsys, monkeypatch, tmp_path):
    p = tmp_path / "c.txt"
    p.write_text(to_compact(pg(2)) + "\n")
    code, out = invoke(capsys, "stat", str(p))
    assert code == 0 and "size 3" in out
    monkeypatch.setattr("sys.stdin", io.StringIO(to_bm1(pg(2))))
    code, out = invoke(capsys, "stat", "-")
    assert code == 0 and "size 3" in out


def test_decompose(capsys, tmp_path):
    from bmx.verify import octahedron
    p = tmp_path / "o6.bm1"
    p.write_text(to_bm1(graphic(octahedron())))
    code, out = invoke(capsys, "decompose", str(p), "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert len(d["members"]) == 2


def test_decompose_of_a_member_declared_above_its_rank(capsys, tmp_path):
    # a triangle declared in dimension 9, past the rank <= 8 limit,
    # decomposes as the one declared in dimension 2 does
    outs = []
    for dim in (2, 9):
        p = tmp_path / f"tri{dim}.bm1"
        p.write_text(to_bm1(Matroid(dim, pg(2).points)))
        code, out = invoke(capsys, "decompose", str(p), "--format", "json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[1])["members"] == ["bm:1:01"]


def test_ex_and_cache_stability(capsys, tmp_path, tri_file):
    cache = str(tmp_path / "cache")
    code, out1 = invoke(capsys, "ex", tri_file, "--n", "4",
                        "--cache-dir", cache, "--format", "json")
    assert code == 0
    d = json.loads(out1)
    assert d["value"] == 8 and d["certified"] is True
    code, out2 = invoke(capsys, "ex", tri_file, "--n", "4",
                        "--cache-dir", cache, "--format", "json")
    assert code == 0
    assert out1 == out2  # served from the catalog, byte-identical
    code, out = invoke(capsys, "cache", "verify", "--cache-dir", cache)
    assert code == 0 and "checked 1" in out


def test_a_cached_ex_answers_with_the_asked_family(capsys, tmp_path):
    # M(K4) declared in dimension 4, in dimension 3 and under a random
    # invertible map share one catalog entry; whichever is stored first,
    # each answer is the uncached one, elapsed_ms aside
    k4 = graphic(SimpleGraph.from_edges(
        4, [(u, v) for u in range(4) for v in range(u + 1, 4)]))
    table = random_gl(random.Random(5), 4)
    paths = []
    for i, m in enumerate([k4, recoordinatize(k4),
                           Matroid(4, frozenset(table[p] for p in k4.points))]):
        path = tmp_path / f"k4-{i}.bm1"
        path.write_text(to_bm1(m))
        paths.append(str(path))

    def answer(path, *cache):
        code, out = invoke(capsys, "ex", path, "--n", "3", "--format", "json",
                           *cache)
        assert code == 0
        d = json.loads(out)
        del d["elapsed_ms"]
        return d

    fresh = {p: answer(p) for p in paths}
    assert len({tuple(d["family"]) for d in fresh.values()}) == 3
    for i, order in enumerate((paths, paths[::-1])):
        cache = str(tmp_path / f"cache{i}")
        for p in order:
            assert answer(p, "--cache-dir", cache) == fresh[p]
        code, out = invoke(capsys, "cache", "verify", "--cache-dir", cache)
        assert code == 0 and "checked 1" in out


def test_ex_text_output(capsys, tri_file):
    code, out = invoke(capsys, "ex", tri_file, "--n", "3")
    assert code == 0
    assert "value 4" in out and "certified true" in out


def test_text_output_is_one_line_per_json_field(capsys, tmp_path, tri_file):
    # after "kind", in JSON field order: lists space-joined, booleans
    # true/false
    bb42 = tmp_path / "bb42.bm1"
    bb42.write_text(to_bm1(bb(4, 2)))
    k4 = tmp_path / "k4.el"
    k4.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    want = {
        ("stat", tri_file): "dim 2\nsize 3\nrank 2\nchi 2\n",
        ("canon", tri_file): "dim 2\nkey 111\n",
        ("nearest-bb", str(bb42), "--k", "2"):
            "distance 0\ndensity 0.75\nfunctionals 4 8\n"
            "bose_burton bm:4:f87f\n",
        ("graph", "cubic", str(k4)): "nu 2\nconstant 1\n",
    }
    for argv, text in want.items():
        assert invoke(capsys, *argv) == (0, text), argv
    code, out = invoke(capsys, "ex", tri_file, "--n", "3")
    assert code == 0
    assert out.startswith("family bm:2:07\nn 3\nvalue 4\nwitness bm:3:4b\n"
                          "method branch-bound\ncertified true\nnodes 0\n"
                          "elapsed_ms ")


def test_ex_k4_n3_is_the_matroid_answer(capsys, tmp_path):
    # M(K4) is declared in dimension 4 but has rank 3, so it fits in n = 3
    p = tmp_path / "k4.bm1"
    p.write_text(to_bm1(graphic(SimpleGraph.from_edges(
        4, [(u, v) for u in range(4) for v in range(u + 1, 4)]))))
    code, out = invoke(capsys, "ex", str(p), "--n", "3")
    assert code == 0
    assert "value 5" in out and "certified true" in out


def test_ex_triangle_n6_certified_within_budget(capsys, tri_file):
    code, out = invoke(capsys, "ex", tri_file, "--n", "6", "--time-limit", "2")
    assert code == 0
    assert "value 32" in out and "certified true" in out


def test_ex_of_a_pattern_declared_in_dimension_20(capsys, tri20_file):
    # the schedule is built from the three points, not from the 2^20 - 1
    # indices of the declared space, so the time limit is not spent on it
    morphism._schedule_cached.cache_clear()
    with time_budget(5):
        code, out = invoke(capsys, "ex", tri20_file, "--n", "3",
                           "--time-limit", "1")
    assert code == 0
    assert "value 4" in out and "certified true" in out


def test_cache_verify_quarantines_a_dimension_20_witness(capsys, tmp_path,
                                                          tri_file):
    cache = tmp_path / "cache"
    assert invoke(capsys, "ex", tri_file, "--n", "3",
                  "--cache-dir", str(cache))[0] == 0
    [path] = cache.glob("??/??/*.json")
    entry = json.loads(path.read_text())
    entry["payload"]["witness"] = to_compact(
        Matroid(20, frozenset({(1 << 20) - 1})))
    path.write_text(json.dumps(entry))
    with time_budget(1):
        code, out = invoke(capsys, "cache", "verify", "--cache-dir",
                           str(cache))
    assert code == 1
    assert f"quarantined {path.stem}: witness dimension 20 != n 3" in out


def test_ex_budget_exit(capsys, fano_file):
    code, out = invoke(capsys, "ex", fano_file, "--n", "5",
                       "--time-limit", "0")
    assert code == 1
    assert "certified false" in out


def test_ex_deadline_while_indexing_exits_1(capsys, tmp_path):
    # {I4} at n = 6 has 546,840 copies, under the cap; enumerating them
    # takes about 0.75 s, so a 0.2 s limit passes while they arrive
    p = tmp_path / "i4.bm1"
    p.write_text(to_bm1(free(4)))
    with time_budget(5):
        code, out = invoke(capsys, "ex", str(p), "--n", "6",
                           "--time-limit", "0.2", "--format", "json")
    assert code == 1
    d = json.loads(out)
    assert d["certified"] is False
    assert (d["value"], d["nodes"]) == (0, 0)


def test_ex_over_the_copy_cap_exits_3_at_once(capsys, tmp_path):
    # {I5} at n = 6 has 5,249,664 copies, over the cap of 5 million:
    # refused from the count, before any copy is enumerated
    p = tmp_path / "i5.bm1"
    p.write_text(to_bm1(free(5)))
    with time_budget(2):
        assert run(["ex", str(p), "--n", "6"]) == 3
    assert "too many forbidden restrictions" in capsys.readouterr().err


def test_ex_copy_cap_exits_3(capsys, monkeypatch, fano_file):
    monkeypatch.setattr(morphism, "_MAX_COPIES", 100)
    assert run(["ex", fano_file, "--n", "5"]) == 3
    assert "too many forbidden restrictions" in capsys.readouterr().err


def test_ex_time_limit_nan_exits_2(capsys, tmp_path):
    # a NaN deadline never passes, so it would search without a limit
    p = tmp_path / "c4.bm1"
    p.write_text(to_bm1(Matroid(3, frozenset({1, 2, 4, 7}))))
    with time_budget(5):
        assert run(["ex", str(p), "--n", "6", "--time-limit", "nan"]) == 2
    assert "time limit must be >= 0" in capsys.readouterr().err


def test_time_limit_is_checked_where_it_is_parsed(capsys, tmp_path,
                                                  tri_file):
    # also on the paths that never reach ex_search: a catalog hit, and a
    # bose-burton suite with no n to search
    cache = str(tmp_path / "cat")
    assert run(["ex", tri_file, "--n", "3", "--cache-dir", cache]) == 0
    for limit in ("nan", "-1", "abc"):
        assert run(["ex", tri_file, "--n", "3", "--cache-dir", cache,
                    "--time-limit", limit]) == 2, limit
        assert run(["verify", "bose-burton", "--max-n", "1",
                    "--time-limit", limit]) == 2, limit
    assert "time limit must be >= 0" in capsys.readouterr().err
    assert run(["ex", tri_file, "--n", "3", "--cache-dir", cache,
                "--time-limit", "inf"]) == 0


def test_count_in_a_host_above_dimension_8_exits_3(capsys, tmp_path,
                                                   tri_file):
    # the limit of ex: a host of dimension 9 is refused before any copy
    p = tmp_path / "h9.bm1"
    p.write_text(to_bm1(Matroid(9, frozenset({1, 2, 3}))))
    with time_budget(2):
        assert run(["count-restrictions", str(p), tri_file]) == 3
    assert "limited to host dim <= 8" in capsys.readouterr().err


def test_nearest_bb(capsys, tmp_path):
    p = tmp_path / "m.bm1"
    p.write_text(to_bm1(bb(4, 1)))
    code, out = invoke(capsys, "nearest-bb", str(p), "--k", "1")
    assert code == 0 and "distance 0" in out


def test_graph_commands(capsys, tmp_path):
    g6 = tmp_path / "k4.g6"
    g6.write_text("C~\n")
    code, out = invoke(capsys, "graph", "chi", str(g6))
    assert code == 0 and out.strip() == "4"
    el = tmp_path / "tri.edges"
    el.write_text("0 1\n1 2\n2 0\n")
    code, out = invoke(capsys, "graph", "forest", str(el), "--target", "2")
    assert code == 0 and "size 1" in out
    code, out = invoke(capsys, "graph", "cubic", str(g6))
    assert code == 0 and "nu 2" in out and "constant 1" in out


def test_graph_forest_with_no_forest_exits_1(capsys, tmp_path):
    # no forest of K4 can be dropped to leave chi 1
    g6 = tmp_path / "k4.g6"
    g6.write_text("C~\n")
    assert invoke(capsys, "graph", "forest", str(g6), "--target", "1") \
        == (1, "none\n")
    code, out = invoke(capsys, "graph", "forest", str(g6), "--target", "1",
                       "--format", "json")
    assert code == 1 and json.loads(out)["forest"] is None


@pytest.mark.parametrize("text, err", [
    ("", "empty graph input"),
    ("# a comment only\n\n", "empty graph input"),
    # two words read as an edge list, never as a graph6 first word
    ("A_ B\n", "edge endpoints must be integers"),
])
def test_graph_input_that_is_no_graph_exits_2(capsys, tmp_path, text, err):
    # the format is read off the text, and none of these is a graph
    p = tmp_path / "g"
    p.write_text(text)
    for argv in (["graph", "chi", str(p)], ["construct", "graphic", str(p)]):
        assert run(argv) == 2
        out, got = capsys.readouterr()
        assert out == "" and got.startswith(f"error: {err}"), (argv, got)


def test_exit_codes(capsys, tmp_path, tri_file):
    # usage: unknown subcommand and bad file
    assert invoke(capsys, "frobnicate")[0] == 2
    assert invoke(capsys, "stat", str(tmp_path / "missing.bm1"))[0] == 2
    bad = tmp_path / "bad.bm1"
    bad.write_text("not a matroid\n")
    assert invoke(capsys, "stat", str(bad))[0] == 2
    assert run(["ex", tri_file, "--n", "-1"]) == 2
    assert "n >= 0" in capsys.readouterr().err
    assert run(["cache", "verify"]) == 2  # the catalog root is required
    assert "--cache-dir" in capsys.readouterr().err
    # capacity: search dimension beyond the exact-search bound
    assert invoke(capsys, "ex", tri_file, "--n", "9")[0] == 3


def test_input_that_is_not_utf8_exits_2(capsys, tmp_path):
    # exit 1 means false or uncertified, so unreadable input is a usage error
    p = tmp_path / "binary"
    p.write_bytes(b"\xff\xfe")
    for argv in (["stat", str(p)], ["graph", "chi", str(p)]):
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: cannot read {p}:")
    assert run(["stat", str(tmp_path)]) == 2  # a directory is no file
    assert capsys.readouterr().err == f"error: no such file: {tmp_path}\n"


def test_a_cache_dir_that_is_not_a_directory_exits_2(capsys, monkeypatch,
                                                     tmp_path, tri_file):
    plain = tmp_path / "plain"
    plain.write_text("")

    def search(*args, **kwargs):
        raise AssertionError("searched before the cache root was checked")

    monkeypatch.setattr(cli, "ex_search", search)
    assert run(["ex", tri_file, "--n", "3", "--cache-dir", str(plain)]) == 2
    assert capsys.readouterr().err == f"error: not a directory: {plain}\n"
    monkeypatch.undo()
    # a catalog that does not exist passes no check
    for root in (plain, tmp_path / "missing"):
        assert run(["cache", "verify", "--cache-dir", str(root)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: not a directory: {root}\n"
    new = tmp_path / "new" / "cache"  # made on the first put
    assert run(["ex", tri_file, "--n", "3", "--cache-dir", str(new)]) == 0
    assert run(["cache", "verify", "--cache-dir", str(new)]) == 0
    assert "checked 1" in capsys.readouterr().out


# the rows of each suite at its default options
SUITE_ROWS = {"bose-burton": 9, "octahedron": 4, "cliques": 8,
              "critical-edge": 5, "aes": 2, "chi-log-formula": 1}


@pytest.mark.parametrize("suite", verify.SUITES)
def test_verify_suite_passes(capsys, suite):
    code, out = invoke(capsys, "verify", suite, "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["pass"] is True and len(d["rows"]) == SUITE_ROWS[suite]
    assert all(r["ok"] for r in d["rows"]), d["rows"]


def test_verify_bose_burton_small(capsys):
    code, out = invoke(capsys, "verify", "bose-burton", "--max-n", "3")
    assert code == 0
    assert "RESULT PASS" in out
    # a suite run that checks nothing proves nothing
    code, out = invoke(capsys, "verify", "bose-burton", "--max-n", "1")
    assert code == 1
    assert "RESULT FAIL (0/0)" in out


def test_bose_burton_suite_to_n7():
    # every t in 1..3 with t < n <= 7, each certified at the root
    with time_budget(10):
        rows = verify.suite_bose_burton(max_n=7)
    assert len(rows) == 15 and all(r.ok for r in rows), rows


def test_verify_rejects_options_a_suite_does_not_take(capsys):
    # an option is used or refused, never accepted and then ignored
    for argv in (["aes", "--time-limit", "5"],
                 ["chi-log-formula", "--max-n", "3"],
                 ["octahedron", "--max-n", "3"]):
        assert run(["verify", *argv]) == 2, argv
        assert "does not take" in capsys.readouterr().err
    code, out = invoke(capsys, "verify", "bose-burton", "--max-n", "2",
                       "--time-limit", "10")
    assert code == 0 and "RESULT PASS (1/1)" in out


# --- the top-level contract -------------------------------------------------

def test_top_level_help_lists_every_command(capsys):
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    assert len(COMMANDS) == 12
    for name in COMMANDS:
        assert name in out


def test_top_level_version_exits_0(capsys):
    assert run(["--version"]) == 0
    assert capsys.readouterr().out.strip() == __version__


def test_no_arguments_is_a_usage_error(capsys):
    assert run([]) == 2
    assert "required" in capsys.readouterr().err


def test_unknown_command_names_the_choices(capsys):
    assert run(["nosuch"]) == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'nosuch'" in err
    for name in COMMANDS:
        assert name in err


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_help_exits_0(capsys, command):
    assert run([command, "--help"]) == 0
    assert f"usage: bmx {command}" in capsys.readouterr().out


def test_a_usage_error_after_a_command_names_every_command(capsys, tri_file):
    # only the named command's subparser is built, and the usage line
    # still lists them all
    assert run(["stat", tri_file, "--bogus"]) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --bogus" in err
    for name in COMMANDS:
        assert name in err


def test_a_valid_call_builds_no_parser(monkeypatch, capsys, tri_file):
    # a guard against building parsers on every call again: a well-formed
    # named call is read off the table, and only what argparse must print
    # or refuse builds the full tree
    built = []
    real = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        real(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for argv in (["stat", tri_file], ["construct", "pg", "--t", "2"],
                 ["graph", "chi", "-"]):
        monkeypatch.setattr("sys.stdin", io.StringIO("C~\n"))
        assert run(argv) == 0
        assert built == []
    cli.build_parser()
    full = built[:]
    assert {f"bmx {name}" for name in COMMANDS} <= set(full)
    for argv in (["--version"], ["stat", tri_file, "--bogus"]):
        built.clear()
        assert run(argv) in (0, 2)
        assert built == full
    capsys.readouterr()


# well-formed calls: every command and subcommand, every option, ``-`` for
# standard input, options before and after the positionals
_VALID = [
    ["construct", "pg", "--t", "2"],
    ["construct", "ag", "--format", "json", "--t", "3"],
    ["construct", "free", "--t", "0", "--format", "text"],
    ["construct", "bb", "--n", "4", "--t", "2", "--format", "json"],
    ["construct", "circuit", "--m", "5"],
    ["construct", "graphic", "g", "--format", "json"],
    ["construct", "graphic", "-"],
    ["construct", "lift", "--n", "3", "f", "--t", "1", "--format", "json"],
    ["stat", "f"],
    ["stat", "-", "--format", "json"],
    ["stat", "--format", "text", "f"],
    ["contains", "h", "p", "--format", "json"],
    ["contains", "--format", "json", "-", "p"],
    ["iso", "a", "b"],
    ["iso", "--format", "json", "a", "-"],
    ["canon", "-", "--format", "json"],
    ["count-restrictions", "h", "p"],
    ["count-restrictions", "--format", "json", "h", "p"],
    ["decompose", "a", "b", "c"],
    ["decompose", "--format", "json", "-"],
    ["ex", "f", "--n", "3"],
    ["ex", "--n", "5", "a", "-", "--time-limit", "2.5", "--cache-dir", "d",
     "--format", "json"],
    ["ex", "--time-limit", "inf", "--cache-dir", "", "f", "--n", "0"],
    ["nearest-bb", "f", "--k", "2"],
    ["nearest-bb", "--k", "1", "--format", "json", "-"],
    ["graph", "chi", "g"],
    ["graph", "chi", "-", "--format", "json"],
    ["graph", "forest", "g", "--target", "3", "--format", "json"],
    ["graph", "forest", "-"],
    ["graph", "cubic", "g", "--format", "json"],
    ["verify", "bose-burton", "--max-n", "4", "--time-limit", "10",
     "--format", "json"],
    ["verify", "--max-n", "3", "cliques"],
    *[["verify", suite] for suite in verify.SUITES],
    ["cache", "verify", "--cache-dir", "d"],
    ["cache", "verify", "--format", "json", "--cache-dir", "d"],
]

# calls that parse, which the table reader leaves to argparse
_HANDED = [
    ["ex", "f", "--n=3"],
    ["stat", "f", "--form", "json"],
    ["contains", "h", "--format", "json", "p"],
    ["stat", "f", "--format", "json", "--format", "text"],
    ["construct", "pg", "--t", "-1"],
    ["ex", "f", "--n", "3", "--cache-dir", "-"],
]


@pytest.mark.parametrize("argv", _VALID + _HANDED, ids=" ".join)
def test_a_call_parses_as_the_full_tree_parses(argv):
    assert (cli._read(argv) is None) == (argv in _HANDED)
    assert vars(cli._parse(argv)) == vars(cli.build_parser().parse_args(argv))


# calls that named the graph format, which is now always read off the input
_GRAPH_FORMAT = [
    ["construct", "graphic", "g", "--graph-format", "edgelist",
     "--format", "json"],
    ["construct", "graphic", "--graph-format", "graph6", "-"],
    ["graph", "chi", "--graph-format", "edgelist", "-", "--format", "json"],
    ["graph", "forest", "g", "--target", "3", "--graph-format", "graph6",
     "--format", "json"],
    ["graph", "forest", "--graph-format", "auto", "-"],
    ["graph", "cubic", "g", "--format", "json", "--graph-format", "auto"],
]


@pytest.mark.parametrize("argv", _GRAPH_FORMAT, ids=" ".join)
def test_a_graph_format_option_is_a_usage_error(capsys, argv):
    assert cli._read(argv) is None
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: --graph-format" in err


def test_what_the_reader_accepts_parses_alike():
    # seeded random calls: options around a run of positionals, with some
    # words dropped in; each call the reader accepts, argparse parses to
    # the same Namespace
    rnd = random.Random(3)
    values = ["f", "-", "", "0", "2", "1.5", "-1", "nan", "json", "aes"]
    stray = ["--", "-h", "--n=3", "--form", "-x", "x y", "pg", "--format"]
    accepted = 0
    for _ in range(600):
        argv = [rnd.choice(sorted(COMMANDS))]
        leaf = COMMANDS[argv[0]][1]
        if isinstance(leaf, dict):
            argv.append(rnd.choice(sorted(leaf)))
            leaf = leaf[argv[1]]
        spec = (*leaf[1], cli.FORMAT)
        pairs = [[a.flag, rnd.choice(list(a.choices or values))]
                 for a in spec if isinstance(a, cli.Opt)
                 and (a.required or rnd.random() < 0.5)]
        words = sum(isinstance(a, cli.Pos) for a in spec) + rnd.choice(
            (-1, 0, 0, 1))
        split = rnd.randint(0, len(pairs))
        tail = (sum(pairs[:split], []) + rnd.choices(values, k=max(words, 0))
                + sum(pairs[split:], []))
        for _ in range(rnd.choice((0, 0, 1, 2))):
            tail.insert(rnd.randint(0, len(tail)), rnd.choice(values + stray))
        argv += tail
        args = cli._read(argv)
        if args is not None:
            accepted += 1
            assert vars(args) == vars(cli.build_parser().parse_args(argv))
    assert accepted >= 60, accepted


def test_files_of_ex_split_by_an_option_are_argparse_s_error(capsys):
    # argparse gives a "+" positional only its first run of words, so the
    # reader leaves the call to it, and it refuses the rest
    argv = ["ex", "a", "--n", "3", "b"]
    assert cli._read(argv) is None
    assert run(argv) == 2
    assert "unrecognized arguments: b" in capsys.readouterr().err


# a command, or a command and its subcommand, with the least tail that
# parses (none for a command that lacks its subcommand)
_HEADS = [
    (["construct", "pg"], ["--t", "2"]),
    (["stat"], ["f"]),
    (["contains"], ["h", "p"]),
    (["iso"], ["a", "b"]),
    (["canon"], ["f"]),
    (["count-restrictions"], ["h", "p"]),
    (["decompose"], ["f"]),
    (["ex"], ["f", "--n", "3"]),
    (["nearest-bb"], ["f", "--k", "1"]),
    (["graph", "chi"], ["f"]),
    (["verify"], ["aes"]),
    (["cache", "verify"], ["--cache-dir", "d"]),
    (["construct"], []),
    (["graph"], []),
    (["cache"], []),
]


def _usage_corpus() -> list[list[str]]:
    corpus = []
    for head, tail in _HEADS:
        corpus += [
            head + ["-h"],
            head,  # a missing positional (or required option)
            head + tail + ["--format", "xml"],
            head + tail + ["--bogus"],
            head + tail + ["--format", "json", "extra"],
            head + tail + ["--version"],
            head + tail + ["--form", "xml"],
            head + ["--form", "json"],
            head + ["--"],
            head + tail + ["--format", "json", "--", "x"],
        ]
    corpus += [
        ["verify", "nosuch"],
        ["construct", "nosuch"],
        ["ex", "f", "--n", "x"],
        ["ex", "f", "--n", "3", "--time-limit", "nan"],
    ]
    return corpus


@pytest.mark.parametrize("argv", _usage_corpus(), ids=" ".join)
def test_a_named_call_prints_what_the_full_tree_prints(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    want = capsys.readouterr()
    code = run(argv)
    got = capsys.readouterr()
    assert (got.out, got.err) == (want.out, want.err)
    assert code == (0 if exc.value.code in (0, None) else 2)
    assert code == 0 or want.err.startswith("usage: ")
