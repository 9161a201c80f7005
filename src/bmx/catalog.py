"""Content-addressed store of certified search results.

One JSON file per entry under a two-level hash-prefix layout; each write
goes through a temp file of its own, an fsync and an atomic rename, so
concurrent readers and writers never see a partial entry.  Entries are
re-verified on every read: a payload that fails verification, or whose
key recomputed from its family and n is not its filename, is quarantined
with a diagnostic, never served.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from bmx import __version__
from bmx.errors import UsageError
from bmx.extremal import Family, TuranCertificate
from bmx.matroid import Matroid
from bmx.morphism import canonical_key, contains

KIND = "turan"  # the one query kind; part of every key and entry file


def entry_key(members: tuple[Matroid, ...], n: int) -> str:
    """Hash of (sorted canonical family keys, n, query kind)."""
    keys = sorted(f"{k.dim}:{k.bits}" for k in map(canonical_key, members))
    blob = json.dumps({"kind": KIND, "n": n, "family": keys}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def verify_certificate(cert: TuranCertificate) -> str | None:
    """Re-check a certificate independently of its search transcript.

    The certificate must be certified, and the witness must live in the
    right dimension, have the claimed size, and be free of every family
    member.  Optimality is exactly what the transcript attests and is not
    re-derived here.  Returns a diagnostic string, or None if the
    certificate verifies.
    """
    if not cert.certified:
        return "certificate is not certified"
    w = cert.witness
    if w.dim != cert.n:
        return f"witness dimension {w.dim} != n {cert.n}"
    if w.size != cert.value:
        return f"witness size {w.size} != value {cert.value}"
    for m in cert.family:
        if contains(w, m):
            return "witness contains a forbidden restriction"
    return None


@dataclass(frozen=True)
class CatalogEntry:
    key: str
    created_at: str
    version: str
    certificate: TuranCertificate

    def to_json_dict(self) -> dict:
        return {
            "key": self.key,
            "kind": KIND,
            "created_at": self.created_at,
            "version": self.version,
            "payload": self.certificate.to_json_dict(),
        }


@dataclass(frozen=True)
class VerifyReport:
    checked: int
    ok: tuple[str, ...]
    failures: tuple[tuple[str, str], ...]  # (key, diagnostic)


class Catalog:
    """Append-only certificate store rooted at a directory."""

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / key[2:4] / f"{key}.json"

    def put(self, cert: TuranCertificate) -> str:
        diag = verify_certificate(cert)
        if diag is not None:
            raise UsageError(f"refusing to store a bad certificate: {diag}")
        key = entry_key(cert.family, cert.n)
        entry = CatalogEntry(
            key=key,
            created_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            version=__version__, certificate=cert,
        )
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # a temp file of its own per writer, so concurrent writers of one
        # key never rename each other's half-written files
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f"{key}.",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(entry.to_json_dict(), sort_keys=True,
                                    indent=1) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        return key

    def _load(self, path: Path) -> tuple[CatalogEntry | None, str | None]:
        try:
            d = json.loads(path.read_text())
            entry = CatalogEntry(
                key=str(d["key"]),
                created_at=str(d["created_at"]), version=str(d["version"]),
                certificate=TuranCertificate.from_json_dict(d["payload"]),
            )
        except Exception as exc:  # corrupt JSON or bad encodings
            return None, f"unreadable entry: {exc}"
        diag = verify_certificate(entry.certificate)
        if diag is not None:
            return None, diag
        if entry.key != path.stem:
            return None, "entry key does not match its filename"
        cert = entry.certificate
        if entry_key(cert.family, cert.n) != entry.key:
            return None, "entry key does not match its family and n"
        return entry, None

    def _quarantine(self, path: Path, diag: str) -> None:
        qdir = self.root / "quarantine"
        qdir.mkdir(parents=True, exist_ok=True)
        try:
            os.replace(path, qdir / path.name)
        except FileNotFoundError:
            return  # a concurrent reader has quarantined it already
        (qdir / (path.stem + ".reason")).write_text(diag + "\n")

    def get(self, key: str) -> CatalogEntry | None:
        path = self._path(key)
        if not path.is_file():
            return None
        entry, diag = self._load(path)
        if entry is None:
            assert diag is not None
            self._quarantine(path, diag)
            return None
        return entry

    def lookup(self, family: Family, n: int) -> CatalogEntry | None:
        return self.get(entry_key(family.members, n))

    def verify_all(self) -> VerifyReport:
        ok: list[str] = []
        failures: list[tuple[str, str]] = []
        for path in sorted(self.root.glob("??/??/*.json")):
            entry, diag = self._load(path)
            if entry is None:
                assert diag is not None
                failures.append((path.stem, diag))
                self._quarantine(path, diag)
            else:
                ok.append(entry.key)
        return VerifyReport(len(ok) + len(failures), tuple(ok), tuple(failures))
