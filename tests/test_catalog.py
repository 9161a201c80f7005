"""Certificate store: round trips, re-verification, quarantine."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os

import pytest

from bmx import __version__, kernels
from bmx.catalog import (
    KIND,
    Catalog,
    VerifyReport,
    entry_key,
    verify_certificate,
)
from bmx.errors import UsageError
from bmx.extremal import Family, TuranCertificate, ex_search
from bmx.graphs import SimpleGraph
from bmx.matroid import Matroid, free, graphic, pg, recoordinatize, to_compact


@pytest.fixture
def cat(tmp_path):
    return Catalog(tmp_path / "cache")


def _cert(n=3):
    return ex_search(Family.from_matroids([pg(2)]), n)


def _k4() -> Matroid:
    """M(K4), of rank 3, declared in dimension 4."""
    return graphic(SimpleGraph.from_edges(
        4, [(u, v) for u in range(4) for v in range(u + 1, 4)]))


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
    # nor does the dimension a member is declared in, even one past the
    # canonizer's limit of 8
    k4 = _k4()
    keys = {entry_key((m,), 3) for m in (recoordinatize(k4), k4,
            Matroid(5, k4.points), Matroid(13, k4.points))}
    assert len(keys) == 1


def test_atomic_layout(cat):
    key = cat.put(_cert())
    path = cat.root / key[:2] / key[2:4] / f"{key}.json"
    assert path.is_file()
    assert not list(cat.root.glob("**/*.tmp"))


def _flip_a_point(w: str) -> str:
    """A compact witness ``bm:<n>:<hex>`` with one point flipped."""
    prefix, n, hexs = w.split(":")
    raw = bytearray(bytes.fromhex(hexs))
    raw[0] ^= 1
    return f"{prefix}:{n}:{raw.hex()}"


def _rewrite(cat, key, field, stored) -> None:
    """Store ``stored`` as the payload's ``field`` in the entry ``key``."""
    path = cat.root / key[:2] / key[2:4] / f"{key}.json"
    d = json.loads(path.read_text())
    d["payload"][field] = stored
    path.write_text(json.dumps(d))


def test_tampered_witness_is_detected(tmp_path):
    # a flipped witness point, or a well-typed value the witness size
    # refutes
    for field, tamper, reason in (("witness", _flip_a_point, "witness"),
                                  ("value", lambda v: v + 1, "witness size")):
        cat = Catalog(tmp_path / field)
        keys = [cat.put(_cert(n)) for n in (2, 3, 4)]
        report = cat.verify_all()
        assert report.checked == 3 and not report.failures

        victim = keys[1]
        stored = cat.get(victim).certificate.to_json_dict()[field]
        _rewrite(cat, victim, field, tamper(stored))

        report = cat.verify_all()
        assert report.checked == 3
        assert len(report.failures) == 1
        assert report.failures[0][0] == victim
        assert reason in report.failures[0][1]
        # the bad entry is quarantined with a diagnostic, the rest serve
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


def test_entry_under_another_key_is_quarantined(cat):
    # a valid entry copied to the path of another key is quarantined by a
    # get of that key and by ``cache verify``; the original still serves
    key = cat.put(_cert())
    other = "ab" * 32
    path = cat._path(other)
    path.parent.mkdir(parents=True)
    reason = "entry key does not match its filename"
    path.write_text(cat._path(key).read_text())
    assert cat.get(other) is None and not path.exists()
    path.write_text(cat._path(key).read_text())
    assert cat.verify_all() == VerifyReport(2, (key,), ((other, reason),))
    assert not path.exists()
    assert (cat.root / "quarantine" / f"{other}.reason").read_text() \
        == reason + "\n"
    assert cat.get(key) is not None


def test_a_failed_put_leaves_no_temp_file(cat, monkeypatch):
    def fail(fd):
        raise OSError("disk gone")

    monkeypatch.setattr(os, "fsync", fail)
    cert = _cert()
    with pytest.raises(OSError, match="disk gone"):
        cat.put(cert)
    monkeypatch.undo()
    assert not list(cat.root.glob("**/*.tmp"))
    assert cat.get(entry_key(cert.family, cert.n)) is None


def _put_many(root, payload, start, times):
    cat = Catalog(root)
    cert = TuranCertificate.from_json_dict(payload)
    start.wait(timeout=60)
    for _ in range(times):
        cat.put(cert)


def test_concurrent_writers_of_one_key(tmp_path):
    # three processes rewrite one entry at once: every write must
    # succeed, and the entry must read back intact.  The certificate is
    # computed once and handed to the writers, so every copy carries one
    # elapsed_ms
    root = tmp_path / "cache"
    cert = _cert()
    ctx = multiprocessing.get_context("spawn")
    start = ctx.Barrier(3)
    procs = [ctx.Process(target=_put_many,
                         args=(root, cert.to_json_dict(), start, 100))
             for _ in range(3)]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=120)
        if proc.is_alive():
            proc.kill()
    assert [proc.exitcode for proc in procs] == [0, 0, 0]
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


def test_entry_is_bound_to_its_family_and_n(tmp_path):
    # a payload whose family was swapped no longer answers its key: the
    # old witness is still I5-free in dimension 4, so only the key check
    # can catch it; nor does one whose n was changed
    tri = Family.from_matroids([pg(2)])
    for field, stored in (("family", [to_compact(free(5))]), ("n", 5)):
        cat = Catalog(tmp_path / field)
        key = cat.put(_cert(4))
        _rewrite(cat, key, field, stored)
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
    # nor is one served when the stored flag reads false, or is no JSON
    # boolean at all; nor when a count or the method has the wrong JSON
    # type, though coerced (as value = 8, n = 4) it would pass the
    # witness and key checks
    assert cert.value == 8
    unreadable = "unreadable entry"
    for field, stored, reason in (
            ("certified", False, "not certified"),
            ("certified", "false", unreadable),
            ("certified", 0, unreadable),
            ("certified", None, unreadable),
            ("value", 8.7, unreadable), ("value", "8", unreadable),
            ("n", "4", unreadable), ("n", 4.0, unreadable),
            ("nodes", "0", unreadable), ("elapsed_ms", 1.5, unreadable),
            ("method", 1, unreadable)):
        key = cat.put(cert)
        _rewrite(cat, key, field, stored)
        assert cat.lookup(fam, 4) is None, (field, stored)
        assert (cat.root / "quarantine" / f"{key}.json").is_file()
        assert reason in (cat.root / "quarantine" / f"{key}.reason"
                          ).read_text()


def test_lookup_hits_another_declaration(cat):
    # the hit answers with the family that was asked for, not the one
    # that was stored
    cert = ex_search(Family.from_matroids([_k4()]), 3)
    key = cat.put(cert)
    asked = Family.from_matroids([recoordinatize(_k4())])
    hit = cat.lookup(asked, 3)
    assert hit is not None and hit.key == key
    assert hit.certificate == dataclasses.replace(cert, family=asked.members)
    assert hit.certificate.family == asked.members != cert.family


def test_entry_under_a_declared_dimension_key_is_quarantined(cat):
    # an entry stored while keys hashed the declared dimension: its
    # filename is not the key recomputed from its family, so no lookup
    # reaches it and ``cache verify`` quarantines it
    k4 = _k4()
    cert = ex_search(Family.from_matroids([k4]), 3)
    mask = kernels.canon_mask(4, k4.mask)
    bits = "".join(str(mask >> i & 1) for i in range(15))
    blob = json.dumps({"kind": KIND, "n": 3, "family": [f"4:{bits}"]},
                      sort_keys=True)
    old = hashlib.sha256(blob.encode()).hexdigest()
    assert old != entry_key((k4,), 3)
    path = cat.root / old[:2] / old[2:4] / f"{old}.json"
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps({
        "key": old, "kind": KIND, "created_at": "2026-01-01T00:00:00Z",
        "version": __version__, "payload": cert.to_json_dict()}))
    assert cat.lookup(Family.from_matroids([k4]), 3) is None
    report = cat.verify_all()
    assert report.failures == (
        (old, "entry key does not match its family and n"),)
    assert (cat.root / "quarantine" / f"{old}.json").is_file()
    assert not path.exists()


def test_entry_of_the_declared_dimension_reading_is_quarantined(cat):
    # an entry in the old form: M(K4) is declared in dimension 4, so a
    # dimension gate let PG(2,2) pass as M(K4)-free and ex({M(K4)}, 3)
    # read 7; containment now asks only that the rank, 3, fit
    k4 = _k4()
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

