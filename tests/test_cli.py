"""CLI: subcommands, formats, exit codes, JSON stability."""

from __future__ import annotations

import json
import random

import pytest

from bmx import extremal
from bmx.cli import run
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
    p = tmp_path / "i5.bm1"
    p.write_text(to_bm1(free(5)))
    with time_budget(5):
        code, out = invoke(capsys, "ex", str(p), "--n", "6",
                           "--time-limit", "1", "--format", "json")
    assert code == 1
    d = json.loads(out)
    assert d["certified"] is False
    assert (d["value"], d["nodes"]) == (0, 0)


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
