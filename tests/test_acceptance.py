"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  All
tolerances are exact; the only numeric budgets are wall-clock ceilings.
"""
import json
import random
import time
from contextlib import contextmanager
from itertools import product
from pathlib import Path

import pytest

from circulant_lab import fixtures
from circulant_lab.aut import automorphism_group, tutte_type
from circulant_lab.cayley import left_translation
from circulant_lab.cli import build_even, build_odd, main, verify_construction
from circulant_lab.graphio import girth, is_connected, is_cubic, serialize
from circulant_lab.kcirc import (
    certify_k_circulant,
    edge_reversing_involution_check,
    k_spectrum,
)
from circulant_lab.papergroups import even_group, odd_group
from circulant_lab.perm import PermGroup, cycle_structure, is_semiregular
from circulant_lab.quotient import induced_semiregular_harness
from helpers import (
    all_elements,
    brute_force_automorphisms,
    brute_force_isomorphic,
    naive_backtracking_aut_count,
    spectrum_of_perms,
)

ODD_KS = (1, 3, 5, 7, 9)
EVEN_PARAMS = ((1, 7), (1, 13), (2, 7), (2, 13), (3, 7))


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} ({name}): FAIL")
        raise
    print(f"\nACCEPTANCE {num} ({name}): PASS")


@pytest.fixture(scope="module")
def odd_constructions():
    return {k: build_odd(k) for k in ODD_KS}


@pytest.fixture(scope="module")
def even_constructions():
    return {(m, p): build_even(m, p) for m, p in EVEN_PARAMS}


@pytest.fixture(scope="module")
def corpus(odd_constructions, even_constructions):
    """Named graphs: the six fixtures plus every constructed graph."""
    graphs = {name: fixtures.load(name) for name in fixtures.NAMES}
    for k, cons in odd_constructions.items():
        graphs[f"odd_k{k}"] = cons.graph
    for (m, p), cons in even_constructions.items():
        graphs[f"even_m{m}_p{p}"] = cons.graph
    return graphs


def test_criterion_1_odd_construction_validity(odd_constructions):
    with criterion(1, "odd family: order 6k^2, arc-transitive k-circulant"):
        started = time.monotonic()
        for k, cons in odd_constructions.items():
            graph = cons.graph
            assert graph.n == 6 * k * k
            report = verify_construction(cons)
            assert report["ok"], (k, report)
            # independent certification through the full-Aut analysis path
            assert is_cubic(graph) and is_connected(graph)
            group = automorphism_group(graph)
            from circulant_lab.aut import is_arc_transitive
            assert is_arc_transitive(graph, group)
            witness = certify_k_circulant(graph, k, group)
            assert witness is not None
            cs = cycle_structure(witness)
            assert cs.element_order == 6 * k
            assert is_semiregular(witness)
            assert len(cs.cycle_lengths) == k
        assert time.monotonic() - started < 60


def test_criterion_2_even_construction_validity(even_constructions):
    with criterion(2, "even family: arc-transitive 2m-circulants, both branches"):
        started = time.monotonic()
        branches = set()
        for (m, p), cons in even_constructions.items():
            branches.add(m % 3 == 0)
            graph = cons.graph
            report = verify_construction(cons)
            assert report["ok"], (m, p, report)
            assert is_cubic(graph) and is_connected(graph)
            group = automorphism_group(graph)
            from circulant_lab.aut import is_arc_transitive
            assert is_arc_transitive(graph, group)
            witness = certify_k_circulant(graph, 2 * m, group)
            assert witness is not None
            assert is_semiregular(witness)
            assert len(cycle_structure(witness).cycle_lengths) == 2 * m
        assert branches == {True, False}
        assert time.monotonic() - started < 60


def test_criterion_3_identification(odd_constructions, even_constructions):
    with criterion(3, "odd(1) is K33; even(1,7) is the 336-automorphism girth-6 graph"):
        assert brute_force_isomorphic(odd_constructions[1].graph, fixtures.load("k33"))
        heawood_like = even_constructions[(1, 7)].graph
        assert heawood_like.n == 14
        assert girth(heawood_like) == 6
        engine_order = automorphism_group(heawood_like).order()
        oracle_order = naive_backtracking_aut_count(heawood_like)
        assert engine_order == oracle_order == 336
        assert tutte_type(heawood_like) == 3


def test_criterion_4_circulant_classification(corpus):
    with criterion(4, "1 in spectrum only for K4 and K33"):
        k4, k33 = fixtures.load("k4"), fixtures.load("k33")
        hits = []
        for name, graph in sorted(corpus.items()):
            if 1 in k_spectrum(graph).spectrum:
                hits.append(name)
                assert graph.n <= 6
                assert (brute_force_isomorphic(graph, k4)
                        or brute_force_isomorphic(graph, k33)), name
        assert sorted(hits) == ["k33", "k4", "odd_k1"]


def test_criterion_5_spectrum_oracle_equivalence():
    with criterion(5, "chain-enumeration spectrum equals brute-force spectrum"):
        expected = {
            "k4": {1, 2, 4},
            "k33": {1, 2, 3, 6},
            "petersen": {2, 10},
            "cube3": {2, 4, 8},
        }
        for name, want in sorted(expected.items()):
            graph = fixtures.load(name)
            report = k_spectrum(graph)
            assert automorphism_group(graph).order() <= 10 ** 4
            brute = brute_force_automorphisms(graph)
            oracle = spectrum_of_perms(graph.n, brute)
            assert set(report.spectrum) == oracle == want, name


def test_criterion_6_conjecture_scan(tmp_path, capsys, corpus, odd_constructions):
    with criterion(6, "scan: zero violations, equality at the bound for odd family"):
        started = time.monotonic()
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        for name, graph in corpus.items():
            (corpus_dir / f"{name}.edgelist").write_text(serialize(graph, "edgelist"))
        code = main(["scan", str(corpus_dir), "--bound-check"])
        out = capsys.readouterr().out
        lines = [json.loads(ln) for ln in out.splitlines()]
        summary = lines[-1]["summary"]
        records = {Path(r["source"]).stem: r for r in lines[:-1]}
        assert code == 0
        assert summary["violations"] == 0
        assert summary["graphs"] == len(corpus)
        assert summary["analyzed"] == len(corpus)
        for k in ODD_KS:
            record = records[f"odd_k{k}"]
            finding = next(f for f in record["findings"] if f["k"] == k)
            assert finding["pass"]
            assert finding["bound"] == 6 * k * k == record["n"]  # equality note
        assert summary["bound_equalities"] >= len(ODD_KS)
        assert time.monotonic() - started < 300


def test_criterion_7_lemma_property_suites(corpus, even_constructions, odd_constructions):
    with criterion(7, "edge-reversing involution and induced-action lemmas"):
        # every hypothesis-satisfying (graph, semiregular element) pair from
        # the spectra of criteria 1-5 plus the construction witnesses
        pairs = 0
        for name, graph in sorted(corpus.items()):
            if not is_cubic(graph):
                continue
            report = k_spectrum(graph)
            for k, witness in report.witnesses.items():
                order = graph.n // k
                if k % 2 == 1 and order > 1:
                    assert order % 2 == 0  # forced: cubic graphs have even n
                    assert edge_reversing_involution_check(graph, witness), (name, k)
                    pairs += 1
        for k, cons in odd_constructions.items():
            assert edge_reversing_involution_check(cons.graph, cons.witness), k
            pairs += 1
        assert pairs >= len(ODD_KS)

        # the even(1,7) induced-action instance: C = N = <translation by w>
        cons = even_constructions[(1, 7)]
        G = even_group(1, 7)
        w = left_translation(G, cons.labeling, G.element(0, 0, 1, 0))
        verdict = induced_semiregular_harness(
            cons.graph, w, PermGroup(14, [w]), cons.arc_group)
        assert verdict.passed and (verdict.k, verdict.k_prime) == (2, 2)

        # 100 randomized hypothesis-satisfying instances
        rng = random.Random(1834)
        pool = []
        for (m, p), c in even_constructions.items():
            pool.append(("even", even_group(m, p), c))
        for k in (5, 7, 9):
            pool.append(("odd", odd_group(k), odd_constructions[k]))
        failures = 0
        for _ in range(100):
            family, grp, c = rng.choice(pool)
            if family == "even":
                elem = grp.element(0, 0, rng.randrange(1, grp.params.p), 0)
                gens = [left_translation(grp, c.labeling, elem)]
            else:
                # lattice translations <u^d, v^d> of order (k/d)^2; the
                # coprimality hypothesis needs 3 to miss k/d (d = k gives
                # the trivial subgroup, the only option when 3 | k)
                k = grp.k
                d = rng.choice([d for d in range(1, k + 1)
                                if k % d == 0 and (k // d) % 3 != 0])
                gens = [left_translation(grp, c.labeling, grp.element(d, 0, 0, 0)),
                        left_translation(grp, c.labeling, grp.element(0, d, 0, 0))]
            verdict = induced_semiregular_harness(
                c.graph, c.witness, PermGroup(c.graph.n, gens), c.arc_group)
            if not verdict.passed:
                failures += 1
        assert failures == 0


def test_criterion_8_algebra_suites(odd_constructions, even_constructions):
    with criterion(8, "relators, automorphism property, closure orders"):
        started = time.monotonic()
        rng = random.Random(97)

        for m, p in EVEN_PARAMS:
            G = even_group(m, p)
            ident = G.identity()
            u, v = G.element(1, 0, 0, 0), G.element(0, 1, 0, 0)
            w, x = G.element(0, 0, 1, 0), G.element(0, 0, 0, 1)
            conj = lambda a, g: G.mul(G.mul(G.inv(g), a), g)
            relators = [
                *(G.mul(t, t) for t in (x,)),
                *(G.mul(conj(t, x), t) for t in (u, v, w)),      # x inverts A
                G.mul(G.mul(u, v), G.inv(G.mul(v, u))),          # [u, v]
                G.mul(G.mul(u, w), G.inv(G.mul(w, u))),
                G.mul(G.mul(v, w), G.inv(G.mul(w, v))),
            ]
            acc = ident
            for _ in range(m):
                acc = G.mul(acc, u)
            relators.append(acc)
            acc = ident
            for _ in range(p):
                acc = G.mul(acc, w)
            relators.append(acc)
            assert all(r == ident for r in relators), (m, p)

            elements = list(all_elements(G))
            for g in elements:
                assert G.apply_y(G.apply_y(G.apply_y(g))) == g
            if m <= 3:
                pairs = product(elements, repeat=2)
            else:
                pairs = ((rng.choice(elements), rng.choice(elements)) for _ in range(1000))
            for g1, g2 in pairs:
                assert G.apply_y(G.mul(g1, g2)) == G.mul(G.apply_y(g1), G.apply_y(g2))

            expected_n = 2 * m * m * p // (3 if m % 3 == 0 else 1)
            assert even_constructions[(m, p)].graph.n == expected_n

        for k in ODD_KS:
            G = odd_group(k)
            ident = G.identity()
            u, v = G.element(1, 0, 0, 0), G.element(0, 1, 0, 0)
            x, y = G.element(0, 0, 1, 0), G.element(0, 0, 0, 1)
            conj = lambda a, g: G.mul(G.mul(G.inv(g), a), g)
            relators = [
                G.mul(G.mul(x, x), x),
                G.mul(y, y),
                G.mul(G.mul(u, v), G.inv(G.mul(v, u))),
                G.mul(conj(u, x), G.inv(v)),                    # u^x v^-1
                G.mul(G.mul(conj(v, x), v), u),                 # v^x v u
                G.mul(conj(u, y), v),                           # u^y v
                G.mul(conj(v, y), u),                           # v^y u
                G.mul(conj(x, y), x),                           # x^y x
            ]
            acc = ident
            for _ in range(k):
                acc = G.mul(acc, u)
            relators.append(acc)
            acc = ident
            for _ in range(k):
                acc = G.mul(acc, v)
            relators.append(acc)
            assert all(r == ident for r in relators), k

            elements = list(all_elements(G))
            for g in elements:
                assert G.apply_sigma(G.apply_sigma(G.apply_sigma(g))) == g
            if k <= 3:
                pairs = product(elements, repeat=2)
            else:
                pairs = ((rng.choice(elements), rng.choice(elements)) for _ in range(1000))
            for g1, g2 in pairs:
                assert G.apply_sigma(G.mul(g1, g2)) == G.mul(G.apply_sigma(g1), G.apply_sigma(g2))

            assert odd_constructions[k].graph.n == 6 * k * k

        assert time.monotonic() - started < 30
