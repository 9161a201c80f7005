"""Named verification suites behind ``bmx verify``.

Each suite returns rows of (label, ok, detail); a suite passes when every
row does.  The expected values are either closed forms or frozen results
of independent exhaustive computation.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from importlib import resources
from math import ceil, log2

from bmx.errors import UsageError
from bmx.extremal import (
    Family,
    aes_check,
    aes_probe,
    clique_constant,
    critical_edge_check,
    decomposition_family,
    ex_search,
    maintech_rhs,
)
from bmx.graphs import SimpleGraph, chromatic_number, parse_graph6_file
from bmx.matroid import Matroid, bb, chi, circuit, free, graphic, lift, pg
from bmx.matroid import LiftSpec
from bmx.morphism import isomorphic


@dataclass(frozen=True)
class Row:
    label: str
    ok: bool
    detail: str


# (t, n) cells: exclude PG(t,2) = pg(t+1) in dimension n, for every
# t in 1..3 and t < n <= 8; ``--max-n`` cuts them at n
BOSE_BURTON_CELLS = tuple(
    (t, n) for t in (1, 2, 3) for n in range(t + 1, 9))


def octahedron() -> SimpleGraph:
    """O6 = K_{2,2,2}: the complement of a perfect matching on 6 vertices."""
    non_edges = {(0, 1), (2, 3), (4, 5)}
    edges = [
        (u, v)
        for u in range(6) for v in range(u + 1, 6)
        if (u, v) not in non_edges
    ]
    return SimpleGraph.from_edges(6, edges)


def corpus_graphs() -> list[SimpleGraph]:
    """The packaged corpus: all 112 connected graphs on 6 vertices."""
    text = (resources.files("bmx") / "data" / "connected6.g6").read_text()
    return list(parse_graph6_file(text))


def suite_bose_burton(max_n: int = 5,
                      time_limit: float | None = None) -> list[Row]:
    rows = []
    for t, n in BOSE_BURTON_CELLS:
        if n > max_n:
            continue
        expected = (1 << n) - (1 << (n - t))
        cert = ex_search(Family.from_matroids([pg(t + 1)]), n,
                         time_limit=time_limit)
        ok = cert.certified and cert.value == expected
        w_ok = isomorphic(cert.witness, bb(n, t))
        rows.append(Row(
            f"ex({{PG({t},2)}},{n})",
            ok and w_ok,
            f"value {cert.value} (expected {expected}), witness"
            f"{'' if w_ok else ' NOT'} isomorphic to BB({n - 1},2,{t})",
        ))
    return rows


def suite_octahedron(time_limit: float | None = None) -> list[Row]:
    rows = []
    fam = Family.from_matroids([graphic(octahedron())])
    dfam = decomposition_family(fam)
    want = [free(4), circuit(4)]
    d_ok = len(dfam.members) == 2 and all(
        any(isomorphic(m, w) for m in dfam.members) for w in want
    )
    rows.append(Row("decomposition({M(O6)}) = {I4, C4}", d_ok,
                    f"{len(dfam.members)} members"))
    cert = ex_search(dfam, 3, time_limit=time_limit)
    rows.append(Row("ex({I4,C4},3) = 4",
                    cert.certified and cert.value == 4,
                    f"value {cert.value}"))
    mt = maintech_rhs(fam, 6, time_limit=time_limit)
    rows.append(Row("decomposition formula at n=6 gives 36",
                    mt.value == 36 and mt.sub_certificate.certified,
                    f"value {mt.value}"))
    rows.append(Row("lift witness is M(O6)-free", mt.witness_free,
                    f"witness size {mt.witness.size}"))
    return rows


def suite_cliques(time_limit: float | None = None) -> list[Row]:
    rows = []
    for t in (3, 4, 5, 6):
        t0, want_const = clique_constant(t)
        g = SimpleGraph.from_edges(
            t, [(u, v) for u in range(t) for v in range(u + 1, t)]
        )
        fam = Family.from_matroids([graphic(g)])
        k = fam.k
        dfam = decomposition_family(fam)
        # ex(D, m) is constant once m >= max member rank; evaluate at m = 3
        cert = ex_search(dfam, 3, time_limit=time_limit)
        rows.append(Row(
            f"constant for K_{t}",
            cert.certified and cert.value == want_const and k == t0,
            f"computed {cert.value}, closed form {want_const} (t0={t0})",
        ))
        mt = maintech_rhs(fam, t0 + 3, time_limit=time_limit)
        rows.append(Row(
            f"lift witness at n={t0 + 3} is M(K_{t})-free",
            mt.witness_free, f"witness size {mt.witness.size}",
        ))
    return rows


def suite_critical_edge(time_limit: float | None = None) -> list[Row]:
    rows = []
    tri = pg(2)
    rows.append(Row("triangle has a critical element",
                    critical_edge_check(tri), "chi 2 -> 1"))
    fano = pg(3)
    got = critical_edge_check(fano)
    rows.append(Row("Fano has a critical element", got,
                    "chi drops 3 -> 2 on any deletion"))
    flat_pt = lift(LiftSpec(Matroid(1, frozenset({1})), 3, 2))
    rows.append(Row("BB(2,2,2) plus flat point has a critical element",
                    critical_edge_check(flat_pt), "the flat point"))
    m = bb(4, 2)
    rows.append(Row("BB(3,2,2) has no critical element",
                    not critical_edge_check(m), "chi stays 2"))
    # the theorem's conclusion for the triangle: Bose-Burton exact value
    c = chi(tri)
    cert = ex_search(Family.from_matroids([tri]), 4, time_limit=time_limit)
    want = (1 << 4) - (1 << (4 - (c - 1)))
    rows.append(Row(
        "critical member gives the Bose-Burton value at n=4",
        cert.certified and cert.value == want
        and isomorphic(cert.witness, bb(4, c - 1)),
        f"value {cert.value} (expected {want})",
    ))
    return rows


def suite_aes() -> list[Row]:
    ok = aes_check()
    size, witness = aes_probe()
    return [
        Row("aes_check(4,2)", ok,
            "no triangle-free non-affine rank-4 matroid above the threshold"),
        Row("tightness probe", size <= 5,
            f"largest triangle-free non-affine matroid at rank 4 has size "
            f"{size} (witness chi {chi(witness)})"),
    ]


def suite_chi_log_formula() -> list[Row]:
    graphs = corpus_graphs()
    bad = []
    for i, g in enumerate(graphs):
        cg = chromatic_number(g)
        cm = chi(graphic(g))
        if cm != ceil(log2(cg)):
            bad.append((i, cg, cm))
    return [Row(
        f"chi(M(G)) = ceil(log2 chi(G)) on {len(graphs)} connected graphs",
        not bad,
        "all agree" if not bad else f"failures at corpus indices {bad[:5]}",
    )]


SUITES = {
    "bose-burton": suite_bose_burton,
    "octahedron": suite_octahedron,
    "cliques": suite_cliques,
    "critical-edge": suite_critical_edge,
    "aes": suite_aes,
    "chi-log-formula": suite_chi_log_formula,
}


def run_suite(name: str, **options) -> list[Row]:
    """Run a suite with the options that are not None; an option the
    suite does not take is a usage error, never silently ignored."""
    suite = SUITES[name]
    given = {k: v for k, v in options.items() if v is not None}
    unused = sorted(set(given) - set(inspect.signature(suite).parameters))
    if unused:
        flags = ", ".join("--" + k.replace("_", "-") for k in unused)
        raise UsageError(f"suite {name} does not take {flags}")
    return suite(**given)
