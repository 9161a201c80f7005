"""Seeded generation of each workload's input files and request stream.

bmx sees only the files written here.  Every request carries a check
that decides whether bmx's answer is right, using closed forms, frozen
values, answers known from how an input was built, or the independent
routines in ``oracles``.  Checks run outside the timed span.

Why each workload exists:

- ``search``: branch-and-bound carries almost all of the time, copy
  indexing little.  A stronger bound or symmetry breaking shows here; an
  indexing change should not.
- ``index``: families with tens of thousands of copies and
  ``count-restrictions`` on full geometries, so embedding enumeration
  carries most of the time.  Indexing and kernel changes show here.
- ``queries``: a stream of short interactive requests, where canonical
  forms, cover search, containment, parsing and the catalog carry the time.

``search`` and ``index`` send only their ``ex`` and ``count-restrictions``
requests, without a catalog, so the layers of ``queries`` stay near zero
there.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

import oracles

# placeholder in argv for the catalog directory, fresh for every pass
CATALOG = "{catalog}"

# per-request latency limits, enforced by the harness with SIGALRM
LIMIT_S = {"search": 30.0, "index": 30.0, "queries": 0.5}
# --time-limit of the ex triangle n=6 cell, which bmx cannot certify in time
SEARCH_BUDGET_S = 2.0


def _k4() -> tuple[int, frozenset[int]]:
    """Cycle matroid of K4, built the way ``bmx construct graphic`` does."""
    return 4, frozenset((1 << u) | (1 << v) for u, v in combinations(range(4), 2))


KNOWN = {
    "tri": (2, frozenset({1, 2, 3})),
    "fano": (3, frozenset(range(1, 8))),
    "c4": (3, frozenset({1, 2, 4, 7})),
    "c5": (4, frozenset({1, 2, 4, 8, 15})),
    "k4": _k4(),
    "i3": (3, frozenset({1, 2, 4})),
    "i4": (4, frozenset({1, 2, 4, 8})),
    "pg4": (4, frozenset(range(1, 16))),
}
# members that are a whole PG(t-1,2), keyed to t, checked by Bose-Burton
PG_T = {"tri": 2, "fano": 3, "pg4": 4}

# Certified values from bmx 0.1.0 with the pure-Python kernels, keyed by
# (sorted member names, n).  A witness is re-checked on every answer.
FROZEN_EX = {
    (("c4",), 5): 7,
    (("k4",), 5): 17,
    (("i4",), 5): 7,
    (("c4", "i4"), 5): 4,
    (("c4",), 3): 4,
    (("c4",), 4): 6,
    (("c5",), 4): 8,
    (("k4",), 4): 9,
    (("i3",), 4): 3,
    (("i4",), 4): 7,
    (("c4", "tri"), 4): 5,
    (("c4", "c5"), 4): 6,
}

# Decomposition families from the same run, in compact form; compared up
# to isomorphism through oracles.signature.
FROZEN_DECOMPOSE = {
    ("tri",): ["bm:1:01"],
    ("fano",): ["bm:1:01"],
    ("c4",): ["bm:3:4b"],
    ("c5",): ["bm:1:01"],
    ("k4",): ["bm:2:06"],
    ("i3",): ["bm:3:0b"],
    ("pg4",): ["bm:1:01"],
    ("c4", "tri"): ["bm:2:07", "bm:3:4b"],
}


@dataclass
class Request:
    """One CLI invocation.  ``check(out, state)`` returns a diagnostic when
    the JSON answer is wrong; ``state`` is shared by one pass's requests."""

    kind: str
    argv: list[str]
    check: Callable[[dict, dict], str | None]
    ok_rcs: tuple[int, ...] = (0,)


@dataclass
class Workload:
    name: str
    requests: list[Request]
    limit_s: float


# --- encodings -------------------------------------------------------------

def parse_compact(text: str) -> tuple[int, frozenset[int]]:
    _bm, dim, hexbits = text.strip().split(":")
    mask = int.from_bytes(bytes.fromhex(hexbits), "little")
    return int(dim), frozenset(i + 1 for i in range(mask.bit_length())
                               if (mask >> i) & 1)


def _compact(dim: int, pts) -> str:
    nbytes = max(1, ((1 << dim) - 1 + 7) // 8)
    return f"bm:{dim}:{oracles.mask_of(pts).to_bytes(nbytes, 'little').hex()}\n"


def _bm1(dim: int, pts, rnd: random.Random) -> str:
    rows = ["".join("1" if (p >> i) & 1 else "0" for i in range(dim))
            for p in pts]
    rnd.shuffle(rows)
    return "BM1\n" + f"dim {dim}\n" + "".join(r + "\n" for r in rows)


def _graph6(n: int, edges) -> str:
    bits = [0] * (n * (n - 1) // 2)
    for u, v in edges:
        i, j = min(u, v), max(u, v)
        bits[j * (j - 1) // 2 + i] = 1
    bits += [0] * (-len(bits) % 6)
    body = "".join(chr(63 + int("".join(map(str, bits[k:k + 6])), 2))
                   for k in range(0, len(bits), 6))
    return chr(63 + n) + body + "\n"


def random_gl(n: int, rnd: random.Random) -> list[int]:
    """Columns of a uniformly random invertible n x n matrix over GF(2)."""
    cols: list[int] = []
    while len(cols) < n:
        v = rnd.randrange(1, 1 << n)
        if oracles.rank(cols + [v]) > len(cols):
            cols.append(v)
    return cols


def apply_gl(cols: list[int], pts) -> frozenset[int]:
    out = set()
    for p in pts:
        x = 0
        for i, c in enumerate(cols):
            if (p >> i) & 1:
                x ^= c
        out.add(x)
    return frozenset(out)


class _Files:
    """Writes inputs under one directory and hands back their paths."""

    def __init__(self, root: Path, rnd: random.Random):
        self.root = root
        self.rnd = rnd
        self.count = 0

    def _write(self, text: str, suffix: str) -> str:
        self.count += 1
        path = self.root / f"in{self.count:04d}{suffix}"
        path.write_text(text)
        return str(path)

    def matroid(self, dim: int, pts) -> str:
        if self.rnd.random() < 0.25:
            return self._write(_compact(dim, pts), ".bm")
        return self._write(_bm1(dim, pts, self.rnd), ".bm1")

    def relabeled(self, dim: int, pts) -> tuple[str, frozenset[int]]:
        """A random GL(dim,2) image of the matroid, written to a file."""
        img = apply_gl(random_gl(dim, self.rnd), pts)
        return self.matroid(dim, img), img

    def graph(self, n: int, edges) -> str:
        if self.rnd.random() < 0.5:
            return self._write(_graph6(n, edges), ".g6")
        text = "".join(f"{u} {v}\n" for u, v in edges)
        return self._write(text, ".edges")


# --- requests ---------------------------------------------------------------

def _stat(path: str, dim: int, pts) -> Request:
    def check(out, state):
        want = {"dim": dim, "size": len(pts), "rank": oracles.rank(pts),
                "chi": oracles.chi(dim, pts)}
        got = {k: out.get(k) for k in want}
        return None if got == want else f"stat {got} != {want}"
    return Request("stat", ["stat", path], _memo(check))


def _decompose(paths: list[str], names: tuple[str, ...]) -> Request:
    want = sorted(oracles.signature(*parse_compact(s))
                  for s in FROZEN_DECOMPOSE[names])

    def check(out, state):
        got = sorted(oracles.signature(*parse_compact(s))
                     for s in out["members"])
        return None if got == want else f"decomposition {got} != {want}"
    return Request("decompose", ["decompose", *paths], _memo(check))


def _count(host: str, pattern: str, want: int) -> Request:
    def check(out, state):
        return None if out["count"] == want else f"count {out['count']} != {want}"
    return Request("count-restrictions", ["count-restrictions", host, pattern],
                   check)


def expected_ex(names: tuple[str, ...], n: int) -> int:
    if len(names) == 1 and names[0] in PG_T:
        return oracles.bose_burton(PG_T[names[0]], n)
    return FROZEN_EX[(names, n)]


def _ex(files: _Files, names: tuple[str, ...], n: int,
        budget: float | None = None, cached: bool = False) -> Request:
    names = tuple(sorted(names))
    want = expected_ex(names, n)
    paths = [files.relabeled(*KNOWN[x])[0] for x in names]
    argv = ["ex", *paths, "--n", str(n)]
    if cached:
        argv += ["--cache-dir", CATALOG]
    if budget is not None:
        argv += ["--time-limit", str(budget)]
    witness_ok: dict[str, str | None] = {}

    def witness_diag(witness: str, value: int) -> str | None:
        w_dim, w_pts = parse_compact(witness)
        if w_dim != n or len(w_pts) != value or max(w_pts, default=0) >> n:
            return f"witness {witness} is not {value} points in dimension {n}"
        for x in names:
            if oracles.contains(n, w_pts, *KNOWN[x]):
                return f"witness contains {x}"
        return None

    def check(out, state):
        value = out["value"]
        if out["certified"] and value != want:
            return f"ex{names} n={n}: certified {value} != {want}"
        if value > want:
            return f"ex{names} n={n}: {value} exceeds the optimum {want}"
        key = f"{out['witness']}/{value}"
        if key not in witness_ok:
            witness_ok[key] = witness_diag(out["witness"], value)
        if witness_ok[key] is None and out["certified"]:
            state.setdefault("stored", set()).add((names, n))
        return witness_ok[key]
    return Request("ex", argv, check, ok_rcs=(0, 1))


def _cache_verify() -> Request:
    def check(out, state):
        stored = len(state.get("stored", ()))
        if out["failures"]:
            return f"catalog quarantined {out['failures']}"
        if out["checked"] != stored:
            return f"catalog holds {out['checked']} entries, {stored} were stored"
        return None
    return Request("cache-verify", ["cache", "verify", "--cache-dir", CATALOG],
                   check, ok_rcs=(0, 1))


def _memo(check):
    """Cache a state-free check's verdict per distinct answer, so that its
    oracle runs once, not once per pass."""
    seen: dict[str, str | None] = {}

    def wrapped(out, state):
        key = repr(sorted(out.items()))
        if key not in seen:
            seen[key] = check(out, state)
        return seen[key]
    return wrapped


# --- workloads -------------------------------------------------------------

def _search(files: _Files) -> list[Request]:
    reqs = [_ex(files, (x,), 5) for x in ("tri", "fano", "c4", "k4")]
    reqs.append(_ex(files, ("tri",), 6, budget=SEARCH_BUDGET_S))
    return reqs


def _index(files: _Files) -> list[Request]:
    reqs = [_ex(files, ("i4",), 5), _ex(files, ("i4", "c4"), 5)]
    pg5 = files.matroid(5, range(1, 32))
    pg6 = files.matroid(6, range(1, 64))
    for host, x, want in (
        (pg5, "i4", oracles.independent_sets(5, 4)),
        (pg6, "fano", oracles.gaussian_binomial(6, 3)),
        # each Fano plane holds 7 four-point circuits
        (pg6, "c4", 7 * oracles.gaussian_binomial(6, 3)),
    ):
        reqs.append(_count(host, files.relabeled(*KNOWN[x])[0], want))
    return reqs


def _random_points(rnd: random.Random, dim: int, lo: float, hi: float):
    total = (1 << dim) - 1
    k = min(total, max(1, round(rnd.uniform(lo, hi) * total)))
    return frozenset(rnd.sample(range(1, total + 1), k))


def _canon_input(pop: random.Random) -> tuple[int, frozenset[int]]:
    """A matroid whose canonical form bmx finds well inside the limit.

    Dimension 5 keeps to 12..26 of its 31 points.  With fewer points, or
    more (the complements of very sparse sets), the pure-Python canonizer
    takes anywhere from 0.1 s to past 2 s, so a limit there would count
    machine noise, not the code.
    """
    dim = pop.choice((3, 4, 5))
    if dim == 5:
        return dim, frozenset(pop.sample(range(1, 32), pop.randint(12, 26)))
    return dim, _random_points(pop, dim, 0.05, 0.95)


def _sparse_input(pop: random.Random, dim: int) -> frozenset[int]:
    """A sparse dimension-5/6 matroid: its large stabilizer keeps the
    canonizer busy for seconds, past the queries limit (known defect)."""
    k = pop.choice((1, 2)) if dim == 5 else pop.randint(1, 4)
    return frozenset(pop.sample(range(1, 1 << dim), k))


def _other_image(files: _Files, dim: int, pts) -> str:
    """A GL image that differs from the input as a point set, so bmx must
    compare canonical forms instead of the sets themselves."""
    while True:
        path, img = files.relabeled(dim, pts)
        if img != pts:
            return path


def _canon(files: _Files, dim: int, pts, group: object) -> Request:
    """Requests in one group are images of each other: same key expected."""
    path, _img = files.relabeled(dim, pts)
    want = oracles.signature(dim, pts)

    def check(out, state):
        key = out["key"]
        got = oracles.signature(out["dim"], frozenset(
            i + 1 for i, ch in enumerate(key) if ch == "1"))
        if got != want:
            return f"canonical key {key} has signature {got} != {want}"
        first = state.setdefault("canon", {}).setdefault(group, key)
        return None if first == key else f"images got keys {first} and {key}"
    return Request("canon", ["canon", path], check)


def _iso(files: _Files, dim: int, a, b=None) -> Request:
    """Is a isomorphic to b?  Without b, to another image of a."""
    a_path, a_img = files.relabeled(dim, a)
    want = b is None
    b_path = _other_image(files, dim, a_img) if want else files.relabeled(dim, b)[0]

    def check(out, state):
        return None if out["result"] is want else f"iso {out['result']} != {want}"
    return Request("iso", ["iso", a_path, b_path], check, ok_rcs=(0, 1))


def _non_image(pop, dim, pts) -> frozenset[int] | None:
    """Same dimension, size and rank, but another triangle count, so it
    cannot be isomorphic; None if random draws find no such set."""
    total = (1 << dim) - 1
    r, t = oracles.rank(pts), oracles.triangles(pts)
    for _ in range(50):
        other = frozenset(pop.sample(range(1, total + 1), len(pts)))
        if oracles.rank(other) == r and oracles.triangles(other) != t:
            return other
    return None


def _contains(files: _Files, pop: random.Random) -> Request:
    pname = pop.choice(("tri", "c4", "fano", "k4"))
    pdim, ppts = KNOWN[pname]
    dim = pop.randint(max(4, pdim), 6)
    total = (1 << dim) - 1
    if pop.random() < 0.5:  # plant a copy among random points
        pts = ppts | _random_points(pop, dim, 0.0, 0.5)
    else:  # draw from the complement of a flat, which avoids small flats
        codim = 1 if pname in ("tri", "k4") else 2
        outside = [p for p in range(1, total + 1)
                   if p >> (dim - codim)]  # not in span(e_1..e_{dim-codim})
        pts = pop.sample(outside, pop.randint(max(1, len(outside) // 4),
                                              len(outside)))
    host, img = files.relabeled(dim, pts)
    pattern = files.relabeled(pdim, ppts)[0]

    def check(out, state):
        want = oracles.contains(dim, img, pdim, ppts)
        return None if out["result"] is want else f"contains {out['result']} != {want}"
    return Request("contains", ["contains", host, pattern], _memo(check),
                   ok_rcs=(0, 1))


def _nearest_bb(files: _Files, pop: random.Random) -> Request:
    dim = pop.randint(3, 6)
    k = pop.choice((1, 2))
    if pop.random() < 0.5:  # a Bose-Burton geometry with a few points flipped
        pts = set(range(1 << (dim - k), 1 << dim))
        pts ^= set(pop.sample(range(1, 1 << dim), pop.randint(1, 3)))
    else:
        pts = _random_points(pop, dim, 0.05, 0.95)
    path, img = files.relabeled(dim, pts)

    def check(out, state):
        want = oracles.nearest_bb_distance(dim, img, k)
        if out["distance"] != want:
            return f"distance {out['distance']} != {want}"
        if out["density"] != len(img) / (1 << dim):
            return f"density {out['density']}"
        b_dim, b_pts = parse_compact(out["bose_burton"])
        if b_dim != dim or not oracles.is_bose_burton(dim, b_pts, k):
            return "reported geometry is not Bose-Burton"
        if len(img ^ b_pts) != want:
            return "reported geometry is not at the reported distance"
        return None
    return Request("nearest-bb", ["nearest-bb", path, "--k", str(k)],
                   _memo(check))


def _graph_chi(files: _Files, pop: random.Random) -> Request:
    """A k-partite graph holding a k-clique has chromatic number k."""
    k = pop.randint(2, 4)
    n = pop.randint(max(k, 6), 10)
    part = [i % k for i in range(n)]
    pop.shuffle(part)
    clique = [part.index(c) for c in range(k)]
    edges = {(u, v) for u, v in combinations(clique, 2)}
    for u, v in combinations(range(n), 2):
        if part[u] != part[v] and pop.random() < 0.5:
            edges.add((u, v))
    label = list(range(n))
    files.rnd.shuffle(label)
    edges = [(label[u], label[v]) for u, v in edges]
    files.rnd.shuffle(edges)
    path = files.graph(n, edges)

    def check(out, state):
        return None if out["chi"] == k else f"graph chi {out['chi']} != {k}"
    return Request("graph-chi", ["graph", "chi", path], check)


# small ex cells for queries; each recurs, so the catalog is read as well
QUERY_EX_CELLS = (
    (("tri",), 3), (("tri",), 4), (("fano",), 3), (("fano",), 4),
    (("c4",), 3), (("c4",), 4), (("c5",), 4), (("k4",), 4),
    (("i3",), 4), (("i4",), 4), (("c4", "tri"), 4), (("c4", "c5"), 4),
)
QUERY_DECOMPOSE = (("tri",), ("fano",), ("c4",), ("c5",), ("k4",), ("i3",),
                   ("pg4",), ("c4", "tri"))
# The isomorphism classes in the queries stream are drawn from this fixed
# seed; --seed draws their coordinates, file formats and the request order.
# Request costs depend on the class far more than on the coordinates, so
# runs with different seeds measure comparable work.
POPULATION_SEED = "queries-population-1"


def _queries(files: _Files) -> list[Request]:
    pop = random.Random(POPULATION_SEED)
    reqs: list[Request] = []
    for _ in range(56):
        dim = pop.randint(3, 6)
        pts = _random_points(pop, dim, 0.05, 0.95)
        reqs.append(_stat(files.relabeled(dim, pts)[0], dim, pts))
    for g in range(24):
        dim, pts = _canon_input(pop)
        reqs += [_canon(files, dim, pts, g), _canon(files, dim, pts, g)]
    for dim in (5, 6):
        reqs.append(_canon(files, dim, _sparse_input(pop, dim), ("sparse", dim)))
    for _ in range(24):
        reqs.append(_iso(files, *_canon_input(pop)))
    false_pairs = 0
    while false_pairs < 24:
        dim, pts = _canon_input(pop)
        other = _non_image(pop, dim, pts)
        if other is not None:
            reqs.append(_iso(files, dim, pts, other))
            false_pairs += 1
    for dim in (5, 6):
        reqs.append(_iso(files, dim, _sparse_input(pop, dim)))
    reqs += [_contains(files, pop) for _ in range(56)]
    for _ in range(16):
        dim = pop.randint(4, 5)
        pts = _random_points(pop, dim, 0.05, 0.95)
        reqs.append(_count(files.relabeled(dim, pts)[0],
                           files.relabeled(*KNOWN["tri"])[0],
                           oracles.triangles(pts)))
    for names in pop.choices(QUERY_DECOMPOSE, k=24):
        paths = [files.relabeled(*KNOWN[x])[0] for x in names]
        reqs.append(_decompose(paths, names))
    reqs += [_nearest_bb(files, pop) for _ in range(40)]
    reqs += [_graph_chi(files, pop) for _ in range(40)]
    for names, n in QUERY_EX_CELLS * 6:
        reqs.append(_ex(files, names, n, cached=True))
    files.rnd.shuffle(reqs)
    reqs.append(_cache_verify())
    return reqs


WORKLOADS = ("search", "index", "queries")


def generate(name: str, seed: int, root: Path) -> Workload:
    """Write the inputs of one workload under ``root``; the same seed
    gives the same files and requests."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    files = _Files(root, random.Random(f"{name}:{seed}"))
    if name == "search":
        reqs = _search(files)
    elif name == "index":
        reqs = _index(files)
    else:
        reqs = _queries(files)
    return Workload(name, reqs, LIMIT_S[name])
