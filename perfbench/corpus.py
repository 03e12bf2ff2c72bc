"""Seeded inputs for the scan workload, with the facts each input must show.

Every graph is generated here from ``random.Random(seed)``; nothing is
downloaded or committed.  Each written file carries the expectations the
generator knows without running the tool (vertex count, skip reason,
|Aut| from a closed form), and ``check_scan`` compares the scan output
against them.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

# Arc-transitive generalized Petersen graphs and their |Aut|
# (Frucht, Graver & Watkins 1971); every other GP(n, k) has |Aut| = 4n when
# k^2 = +-1 (mod n) and 2n otherwise.
SPECIAL_GP_ORDERS = {(4, 1): 48, (5, 2): 120, (8, 3): 96, (10, 2): 120,
                     (10, 3): 240, (12, 5): 144, (24, 5): 288}

# Scan corpus shape, the same for every seed: the seed draws the random
# graphs and relabels every graph, so that the cost of a pass does not
# depend on the seed.  Sized for the length of one pass (about 5 s with the
# pure kernels, so that a run holds several passes), not for coverage: one
# graph of each size, with the mid-size bulk thinned out.  The search cost
# on asymmetric cubic graphs grows about as n^2, and the ten costliest
# graphs (the largest random and GP graphs) lie beyond item_tail_ms, so
# they must stay in.  No random graph is drawn between n = 48 and n = 96:
# there, its cost would fall next to the tail item, GP(90, 19) or odd k = 5,
# and make the tail depend on the seed's draw.
# (n, how many) random connected cubic graphs
RANDOM_CUBIC = ((20, 1), (32, 1), (48, 1), (96, 1), (112, 1), (128, 1), (144, 1), (160, 1),
                (176, 1))
# GP(n, k) beyond the seven special ones: vertex-transitive members
# (k^2 = +-1 mod n) and members with two vertex orbits, whose search costs
# more; the seed only relabels them.
GP_PARAMS = ((13, 5), (29, 3), (41, 12), (60, 14), (73, 27), (90, 19), (90, 21))
# random cubic graphs in one .g6 file, three of each n: they are most of
# the items around item_p50_ms, so that the p50 does not hang on one graph
GRAPH6_NS = tuple(n for n in range(10, 34, 2) for _ in range(3))
ODD_FAMILY_KS = (1, 3, 5)
EVEN_FAMILY_PARAMS = ((1, 7), (2, 7))


@dataclass
class Expect:
    """What the scan record for one graph must say."""

    n: int
    skip: str | None = None
    aut_order: int | None = None
    spectrum_has: int | None = None


@dataclass
class Corpus:
    files: list[str] = field(default_factory=list)
    # (file name, graph6 line or None) -> expectation
    expect: dict[tuple[str, int | None], Expect] = field(default_factory=dict)
    odd_family_members: int = 0


def random_cubic_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """A uniformly paired simple connected cubic graph on n vertices."""
    if n % 2 or n < 4:
        raise ValueError(f"no cubic graph on {n} vertices")
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = set()
        ok = True
        for i in range(0, len(points), 2):
            u, v = sorted((points[i], points[i + 1]))
            if u == v or (u, v) in edges:
                ok = False
                break
            edges.add((u, v))
        if ok and _connected(n, edges):
            return sorted(edges)


def _connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def gp_edges(n: int, k: int) -> list[tuple[int, int]]:
    """GP(n, k): outer cycle 0..n-1, spokes i ~ n+i, inner i ~ i+k."""
    edges = set()
    for i in range(n):
        edges.add(tuple(sorted((i, (i + 1) % n))))
        edges.add((i, n + i))
        edges.add(tuple(sorted((n + i, n + (i + k) % n))))
    return sorted(edges)


def gp_aut_order(n: int, k: int) -> int:
    if (n, k) in SPECIAL_GP_ORDERS:
        return SPECIAL_GP_ORDERS[(n, k)]
    return 4 * n if (k * k) % n in (1, n - 1) else 2 * n


def edgelist_text(n: int, edges) -> str:
    return "\n".join([f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]) + "\n"


def relabel(rng: random.Random, n: int, edges) -> list[tuple[int, int]]:
    """Shuffle vertex names so that no input arrives in a canonical order."""
    names = list(range(n))
    rng.shuffle(names)
    return sorted(tuple(sorted((names[u], names[v]))) for u, v in edges)


def generate(seed: int, root: Path, graphio, build_odd, build_even) -> Corpus:
    """Write the scan corpus for this seed under root and return its facts.

    The library's own graph6 writer and family constructions are used for
    file contents only; every expectation comes from the generator.
    """
    rng = random.Random(seed)
    corpus = Corpus()

    def put(name: str, text: str, expect: Expect | None) -> None:
        (root / name).write_text(text)
        corpus.files.append(name)
        if expect is not None:
            corpus.expect[(name, None)] = expect

    for n, count in RANDOM_CUBIC:
        for i in range(count):
            put(f"random_n{n}_{i}.edgelist", edgelist_text(n, random_cubic_edges(rng, n)),
                Expect(n))

    for n, k in sorted(SPECIAL_GP_ORDERS) + list(GP_PARAMS):
        edges = relabel(rng, 2 * n, gp_edges(n, k))
        put(f"gp_{n}_{k}.edgelist", edgelist_text(2 * n, edges),
            Expect(2 * n, aut_order=gp_aut_order(n, k)))

    for k in ODD_FAMILY_KS:
        g = build_odd(k).graph
        edges = relabel(rng, g.n, list(g.edges()))
        # the odd family member has arc-type t = 1 for k >= 5; smaller
        # members are checked only by n and spectrum
        put(f"odd_k{k}.edgelist", edgelist_text(g.n, edges),
            Expect(6 * k * k, spectrum_has=k if k > 1 else None,
                   aut_order=6 * 6 * k * k if k >= 5 else None))
        corpus.odd_family_members += 1
    for m, p in EVEN_FAMILY_PARAMS:
        g = build_even(m, p).graph
        n = 2 * m * m * p // (3 if m % 3 == 0 else 1)
        edges = relabel(rng, g.n, list(g.edges()))
        put(f"even_m{m}_p{p}.edgelist", edgelist_text(g.n, edges),
            Expect(n, spectrum_has=2 * m))

    lines = []
    g6_name = "batch.g6"
    for line_no, n in enumerate(GRAPH6_NS, start=1):
        g = graphio.from_edges(n, random_cubic_edges(rng, n))
        lines.append(graphio.serialize(g, "graph6"))
        corpus.expect[(g6_name, line_no)] = Expect(n)
    put(g6_name, "\n".join(lines) + "\n", None)

    # planted skips: non-cubic, disconnected, malformed
    n = 24
    edges = random_cubic_edges(rng, n)
    put("noncubic_pendant.edgelist", edgelist_text(n + 1, edges + [(0, n)]),
        Expect(n + 1, skip="not cubic"))
    a, b = 12, 18
    edges = random_cubic_edges(rng, a) + [(u + a, v + a) for u, v in random_cubic_edges(rng, b)]
    put("disconnected.edgelist", edgelist_text(a + b, edges), Expect(a + b, skip="not connected"))
    put("malformed.edgelist", f"{n} {len(edges) + 1}\n0 1\nthis is not an edge\n",
        Expect(-1, skip="parse error"))
    return corpus


def check_scan(corpus: Corpus, records: list[dict], summary: dict,
               exit_code: int) -> tuple[dict, list[str]]:
    """Disagreements between scan output and the generator's facts.

    Returns the problems of each record, by (file name, graph6 line), and
    the problems of the scan as a whole.
    """
    bad: dict[tuple[str, int | None], list[str]] = {}
    for rec in records:
        key = (Path(rec["source"]).name, rec["line"])
        problems = _record_problems(corpus.expect.get(key), rec, key)
        if problems:
            bad[key] = problems
    general = []
    seen = {(Path(r["source"]).name, r["line"]) for r in records}
    missing = set(corpus.expect) - seen
    if missing:
        general.append(f"no record for {sorted(missing, key=str)[:5]}")
    analyzed = sum(1 for r in records if not r.get("skip"))
    equalities = sum(1 for r in records if not r.get("skip")
                     for f in r["findings"] if f["bound"] == r["n"])
    want = {"files": len(corpus.files), "graphs": len(corpus.expect), "analyzed": analyzed,
            "skipped": len(records) - analyzed, "violations": 0,
            "bound_equalities": equalities}
    if summary != want:
        general.append(f"summary {summary}, expected {want}")
    if equalities < corpus.odd_family_members:
        general.append(f"{equalities} bound equalities, expected >= "
                       f"{corpus.odd_family_members} from the odd family")
    if exit_code != 0:
        general.append(f"scan exit code {exit_code}")
    return bad, general


def _record_problems(exp: Expect | None, rec: dict, key) -> list[str]:
    if exp is None:
        return [f"unexpected record {key}"]
    if rec.get("skip") != exp.skip:
        return [f"{key}: skip {rec.get('skip')!r}, expected {exp.skip!r}"]
    if exp.skip == "parse error":
        return []
    if rec["n"] != exp.n:
        return [f"{key}: n = {rec['n']}, expected {exp.n}"]
    if exp.skip is not None:
        return []
    problems = []
    order = rec["aut_order"]
    if exp.aut_order is not None and order != exp.aut_order:
        problems.append(f"{key}: |Aut| = {order}, expected {exp.aut_order}")
    if order < 1 or (rec["tutte_t"] is not None
                     and order != 3 * 2 ** rec["tutte_t"] * rec["n"]):
        problems.append(f"{key}: |Aut| = {order} disagrees with t = {rec['tutte_t']}")
    if exp.spectrum_has is not None and exp.spectrum_has not in rec["spectrum"]:
        problems.append(f"{key}: k = {exp.spectrum_has} missing from {rec['spectrum']}")
    for k in rec["spectrum"]:
        if rec["n"] % k:
            problems.append(f"{key}: spectrum value {k} does not divide n")
    for f in rec["findings"]:
        if not f["pass"] or f["bound"] != 6 * f["k"] ** 2:
            problems.append(f"{key}: bad finding {f}")
    return problems


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]
