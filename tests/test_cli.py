"""CLI: subcommands, formats, exit codes, JSON stability."""

from __future__ import annotations

import argparse
import json
import random

import pytest

from bmx import __version__, extremal
from bmx.cli import COMMANDS, run
from bmx.matroid import Matroid, bb, free, from_bm1, pg, to_bm1, to_compact
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


def test_compact_and_stdin(capsys, monkeypatch, tmp_path):
    p = tmp_path / "c.txt"
    p.write_text(to_compact(pg(2)) + "\n")
    code, out = invoke(capsys, "stat", str(p))
    assert code == 0 and "size 3" in out
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(to_bm1(pg(2))))
    code, out = invoke(capsys, "stat", "-")
    assert code == 0 and "size 3" in out


def test_decompose(capsys, tmp_path):
    from bmx.matroid import graphic
    from bmx.verify import octahedron
    p = tmp_path / "o6.bm1"
    p.write_text(to_bm1(graphic(octahedron())))
    code, out = invoke(capsys, "decompose", str(p), "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert len(d["members"]) == 2


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


def test_ex_text_output(capsys, tri_file):
    code, out = invoke(capsys, "ex", tri_file, "--n", "3")
    assert code == 0
    assert "value 4" in out and "certified true" in out


def test_ex_k4_n3_is_the_matroid_answer(capsys, tmp_path):
    # M(K4) is declared in dimension 4 but has rank 3, so it fits in n = 3
    from bmx.graphs import SimpleGraph
    from bmx.matroid import graphic
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
    monkeypatch.setattr(extremal, "_EX_MAX_COPIES", 100)
    assert run(["ex", fano_file, "--n", "5"]) == 3
    assert "too many forbidden restrictions" in capsys.readouterr().err


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


def test_verify_aes_suite(capsys):
    code, out = invoke(capsys, "verify", "aes", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["pass"] is True and len(d["rows"]) == 2


def test_verify_bose_burton_small(capsys):
    code, out = invoke(capsys, "verify", "bose-burton", "--max-n", "3")
    assert code == 0
    assert "RESULT PASS" in out
    # a suite run that checks nothing proves nothing
    code, out = invoke(capsys, "verify", "bose-burton", "--max-n", "1")
    assert code == 1
    assert "RESULT FAIL (0/0)" in out


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


def test_a_call_builds_only_its_own_subparser(monkeypatch, capsys, tri_file):
    # a guard against building the whole tree again on every call
    added = []
    real = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        if self.dest == "command":
            added.append(name)
        return real(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    assert run(["stat", tri_file]) == 0
    assert added == ["stat"]
    added.clear()
    assert run(["construct", "pg", "--t", "2"]) == 0
    assert added == ["construct"]
    added.clear()
    assert run(["--version"]) == 0
    assert added == list(COMMANDS)
    capsys.readouterr()
