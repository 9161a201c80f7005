"""Certificate store: round trips, re-verification, quarantine."""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os

import pytest

from bmx import __version__
from bmx.catalog import KIND, Catalog, entry_key, verify_certificate
from bmx.errors import UsageError
from bmx.extremal import Family, TuranCertificate, ex_search
from bmx.graphs import SimpleGraph
from bmx.matroid import Matroid, free, graphic, pg, to_compact


@pytest.fixture
def cat(tmp_path):
    return Catalog(tmp_path / "cache")


def _cert(n=3):
    return ex_search(Family.from_matroids([pg(2)]), n)


def test_put_get_roundtrip(cat):
    cert = _cert()
    key = cat.put(cert)
    entry = cat.get(key)
    assert entry is not None
    assert entry.certificate == cert
    assert entry.key == key
    assert cat.lookup(Family.from_matroids([pg(2)]), 3).certificate == cert


def test_get_missing_is_none(cat):
    assert cat.get("0" * 64) is None


def test_entry_key_is_isomorphism_invariant():
    tri_b = Matroid(2, frozenset({1, 2, 3}))
    a = entry_key((pg(2),), 4)
    b = entry_key((tri_b,), 4)
    assert a == b
    assert a != entry_key((pg(2),), 5)
    assert a != entry_key((free(2),), 4)
    # the query kind stays in the hashed blob, so stored keys stay valid
    assert a == ("32cefa7186e73f38224cb40f58539c2b"
                 "0c1ace34d9fdc9a1837e21410f04b645")


def test_atomic_layout(cat):
    key = cat.put(_cert())
    path = cat.root / key[:2] / key[2:4] / f"{key}.json"
    assert path.is_file()
    assert not list(cat.root.glob("**/*.tmp"))


def test_tampered_witness_is_detected(cat):
    keys = [cat.put(_cert(n)) for n in (2, 3, 4)]
    report = cat.verify_all()
    assert report.checked == 3 and not report.failures

    # flip a single point in one stored witness
    victim = keys[1]
    path = cat.root / victim[:2] / victim[2:4] / f"{victim}.json"
    d = json.loads(path.read_text())
    w = d["payload"]["witness"]  # bm:<n>:<hex>
    prefix, n, hexs = w.split(":")
    raw = bytearray(bytes.fromhex(hexs))
    raw[0] ^= 1
    d["payload"]["witness"] = f"{prefix}:{n}:{raw.hex()}"
    path.write_text(json.dumps(d))

    report = cat.verify_all()
    assert report.checked == 3
    assert len(report.failures) == 1
    assert report.failures[0][0] == victim
    # the bad entry is quarantined with a diagnostic, the rest still serve
    assert cat.get(victim) is None
    assert (cat.root / "quarantine" / f"{victim}.json").is_file()
    assert (cat.root / "quarantine" / f"{victim}.reason").is_file()
    for k in (keys[0], keys[2]):
        assert cat.get(k) is not None


def test_corrupt_json_quarantined(cat):
    key = cat.put(_cert())
    path = cat.root / key[:2] / key[2:4] / f"{key}.json"
    path.write_text("{not json")
    assert cat.get(key) is None
    assert (cat.root / "quarantine" / f"{key}.json").is_file()


def test_quarantine_survives_a_concurrent_move(cat):
    key = cat.put(_cert())
    path = cat.root / key[:2] / key[2:4] / f"{key}.json"
    path.write_text("{not json")
    entry, diag = cat._load(path)
    assert entry is None
    cat._quarantine(path, diag)  # another reader got there first
    cat._quarantine(path, diag)
    assert cat.get(key) is None
    assert (cat.root / "quarantine" / f"{key}.json").is_file()


def _put_many(root, start, times):
    cat = Catalog(root)
    cert = _cert()
    start.wait(timeout=60)
    for _ in range(times):
        cat.put(cert)


def test_concurrent_writers_of_one_key(tmp_path):
    # three processes rewrite one entry at once: every write must
    # succeed, and the entry must read back intact
    root = tmp_path / "cache"
    ctx = multiprocessing.get_context("spawn")
    start = ctx.Barrier(3)
    procs = [ctx.Process(target=_put_many, args=(root, start, 100))
             for _ in range(3)]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=120)
        if proc.is_alive():
            proc.kill()
    assert [proc.exitcode for proc in procs] == [0, 0, 0]
    cert = _cert()
    entry = Catalog(root).get(entry_key(cert.family, cert.n))
    assert entry is not None and entry.certificate == cert
    assert not list(root.glob("**/*.tmp"))
    assert not (root / "quarantine").exists()


def test_refuses_bad_certificate(cat):
    cert = _cert()
    bad = type(cert)(**{**cert.__dict__, "value": cert.value + 1})
    assert verify_certificate(bad) is not None
    with pytest.raises(UsageError):
        cat.put(bad)


def test_entry_is_bound_to_its_family_and_n(cat):
    # a payload whose family was swapped no longer answers its key: the
    # old witness is still I5-free in dimension 4, so only the key check
    # can catch it
    tri = Family.from_matroids([pg(2)])
    key = cat.put(_cert(4))
    path = cat.root / key[:2] / key[2:4] / f"{key}.json"
    d = json.loads(path.read_text())
    d["payload"]["family"] = [to_compact(free(5))]
    path.write_text(json.dumps(d))
    assert cat.lookup(tri, 4) is None
    assert (cat.root / "quarantine" / f"{key}.json").is_file()
    reason = (cat.root / "quarantine" / f"{key}.reason").read_text()
    assert "family and n" in reason


def test_uncertified_entries_are_refused(cat):
    fam = Family.from_matroids([pg(2)])
    cert = _cert(4)
    uncertified = dataclasses.replace(cert, certified=False)
    assert verify_certificate(uncertified) is not None
    with pytest.raises(UsageError):
        cat.put(uncertified)
    assert cat.lookup(fam, 4) is None
    # nor is one served when the stored flag reads false
    key = cat.put(cert)
    path = cat.root / key[:2] / key[2:4] / f"{key}.json"
    d = json.loads(path.read_text())
    d["payload"]["certified"] = False
    path.write_text(json.dumps(d))
    assert cat.lookup(fam, 4) is None
    assert (cat.root / "quarantine" / f"{key}.json").is_file()


def test_entry_of_the_declared_dimension_reading_is_quarantined(cat):
    # an entry in the old form: M(K4) is declared in dimension 4, so a
    # dimension gate let PG(2,2) pass as M(K4)-free and ex({M(K4)}, 3)
    # read 7; containment now asks only that the rank, 3, fit
    k4 = graphic(SimpleGraph.from_edges(
        4, [(u, v) for u in range(4) for v in range(u + 1, 4)]))
    stale = TuranCertificate(
        family=(k4,), n=3, value=7, witness=pg(3), method="branch-bound",
        certified=True, nodes=0, elapsed_ms=0)
    key = entry_key((k4,), 3)
    path = cat.root / key[:2] / key[2:4] / f"{key}.json"
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps({
        "key": key, "kind": KIND, "created_at": "2026-01-01T00:00:00Z",
        "version": __version__, "payload": stale.to_json_dict()}))
    assert cat.lookup(Family.from_matroids([k4]), 3) is None
    reason = (cat.root / "quarantine" / f"{key}.reason").read_text()
    assert "witness contains a forbidden restriction" in reason

