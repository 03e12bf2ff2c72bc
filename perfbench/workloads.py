"""The three workloads, each built to load a different layer.

Every workload is single-process and single-threaded, a closed loop of
calls made one after another.  A workload has a set-up step, which the
harness repeats and times as ``setup_s``, and a pass: a fixed list of items,
each timed and then checked.  An item fails when
it raises something other than a named skip or when its output fails a
check.  Check time is never inside an item's timing, and checks run with
the tracer paused.

ladder
    Each rung is the user's two commands, run in-process through
    ``cli.main``: ``construct-odd``/``construct-even`` builds, verifies and
    writes the graph, then ``analyze`` reads the file and runs the full
    analysis.  The graphs are vertex-transitive with |Aut| = 3 * 2^t * n,
    so the stabiliser chain (``perm``) and the enumeration of every group
    element (``kcirc``) do most of the work.  A rung is timed from outside
    the package, over both commands; its time in a pass is its median run
    there, and a pass's time is the sum of its rung times.  The seed only
    shuffles the rung order.
scan
    ``cli.main(["scan", dir, "--bound-check", "--timings"])`` over a corpus
    generated from the seed (see ``corpus.py``).  |Aut| is small, so chain
    and spectrum cost almost nothing; colour refinement cannot split a
    regular graph, so the search tries every vertex of the first cell and
    ``aut.automorphism_group`` takes nearly all the time.  An item is one
    scanned graph, and its time is the program's own ``elapsed_ms`` for it
    (``--timings``): the per-graph checks and analysis, not the parsing of
    its file.  A pass's time is the whole ``cli.main`` call, timed from
    outside, so parsing counts in ``items_per_s``.
queries
    Library calls on groups the caller supplies rather than the search:
    Schreier-Sims on the construction's generators, membership sifts of
    seeded members and non-members, ``certify_k_circulant`` for every
    divisor k of n, ``quotient_graph`` by each witness, and induced-action
    harness instances as in acceptance criterion 7 (tests/test_acceptance.py).
    This is the ``perm`` path that a search-derived chain would not replace.
    Each call is timed from outside the package (a ``contains`` call three
    times, counting the median); a pass's time is the sum of its call times.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import statistics
import time
from pathlib import Path

import corpus as corpus_mod

# Ladder rungs: (family, parameters, runs per pass).  The odd k = 21 rung
# (n = 2646) of the full ladder is left out: with the pure-Python kernels it
# alone takes 45-50 s, longer than one benchmark run may last.  k = 15
# (n = 1350) is the top rung.  Rungs under about 2 s run three times per pass
# and report their median, so that the p50 rung is not one short sample on
# a noisy machine; the longer rungs run once.
LADDER = (("odd", (5,), 3), ("odd", (7,), 3), ("odd", (9,), 3), ("odd", (11,), 1),
          ("odd", (15,), 1), ("even", (2, 7), 3), ("even", (4, 7), 3),
          ("even", (5, 13), 3), ("even", (7, 13), 1))
# Arc-type t of every rung (|Aut| = 3 * 2^t * n), measured at the commit that
# added this benchmark: t = 1 for the odd rungs and t = 0 for the even ones.
LADDER_T = {"odd": 1, "even": 0}

QUERY_ODD = (5, 7, 9)
QUERY_EVEN = ((4, 7), (5, 13))
QUERY_BATCH = 40          # members and as many non-members per family member
QUERY_WORD_LEN = 12
QUERY_HARNESS = 10        # induced-action harness instances per pass
# A contains call takes tens of microseconds, too short for one timing to
# be steady on a shared host: each is timed this many times back to back
# (once when tracing) and counts its median.
CONTAINS_REPEATS = 3


def rung_name(family: str, params: tuple) -> str:
    return f"{family}{'_'.join(map(str, params))}"


def is_automorphism(graph, images) -> bool:
    return all(graph.has_edge(images[u], images[v]) for u, v in graph.edges())


def call_cli(cli, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def witness_problems(pkg, graph, images, k: int, label: str) -> list[str]:
    """Re-check a witness as a semiregular automorphism with k orbits."""
    perm = pkg.perm
    p = perm.Permutation.from_images(images)
    problems = []
    if not perm.is_semiregular(p):
        problems.append(f"{label}: witness not semiregular")
    if len(perm.cycle_structure(p).cycle_lengths) != k:
        problems.append(f"{label}: witness does not have {k} orbits")
    if not is_automorphism(graph, p.images):
        problems.append(f"{label}: witness is not an automorphism")
    return problems


class Workload:
    """Set-up, then passes of timed items; see the module docstring."""

    def __init__(self, pkg, seed: int, workdir: Path, tracer, clock):
        self.pkg = pkg
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer  # tracing.Tracer, or None when not tracing
        self.clock = clock    # calibrate.Calibrator, or RawClock when tracing
        self.skip_frac = 0.0

    @contextlib.contextmanager
    def untraced(self):
        if self.tracer is None:
            yield
            return
        active, self.tracer.active = self.tracer.active, False
        try:
            yield
        finally:
            self.tracer.active = active

    def prepare(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> dict:
        """{"wall": timed seconds, "items": [(name, seconds or None, problems)]}

        Times go through ``self.clock``: calibrated seconds when measuring,
        plain seconds when tracing.
        """
        raise NotImplementedError


class Ladder(Workload):
    def prepare(self) -> None:
        rungs = list(LADDER)
        random.Random(self.seed).shuffle(rungs)
        self.rungs = rungs
        # warm-up on the smallest odd member, so lazy set-up is not in a rung
        path = self.workdir / "warmup.edgelist"
        call_cli(self.pkg.cli, ["construct-odd", "3", "--out", str(path)])
        call_cli(self.pkg.cli, ["analyze", str(path)])

    def run_pass(self) -> dict:
        # repeats go in rounds over the rungs, so that a rung's repeats are
        # spread over the pass rather than back to back.  They only steady
        # the end-to-end timings, so a traced run makes one round.
        times = {rung: [] for rung in self.rungs}
        problems = {rung: [] for rung in self.rungs}
        rounds = 1 if self.tracer is not None else max(r for _, _, r in self.rungs)
        for round_no in range(rounds):
            for rung in self.rungs:
                family, params, repeats = rung
                if round_no < repeats:
                    secs, probs = self.run_rung(family, params)
                    if secs is not None:
                        times[rung].append(secs)
                    problems[rung] += probs
        items = []
        for rung in self.rungs:
            family, params, _ = rung
            runs = times[rung]
            items.append((rung_name(family, params), statistics.median(runs) if runs else None,
                          problems[rung]))
        return {"wall": sum(secs for _, secs, _ in items if secs is not None), "items": items}

    def run_rung(self, family, params) -> tuple[float | None, list[str]]:
        cli = self.pkg.cli
        name = rung_name(family, params)
        path = self.workdir / f"{name}.edgelist"
        self.clock.mark()
        t0 = time.perf_counter()
        try:
            built = call_cli(cli, [f"construct-{family}", *map(str, params), "--out", str(path)])
            analyzed = call_cli(cli, ["analyze", str(path)])
        except Exception as exc:  # an unnamed failure is a failed item
            return None, [f"{name}: raised {exc!r}"]
        secs = self.clock.span(t0, time.perf_counter())
        with self.untraced():
            try:
                return secs, self.check(family, params, path, built, analyzed)
            except (ValueError, KeyError, TypeError) as exc:  # unreadable output
                return secs, [f"{name}: output could not be checked: {exc!r}"]

    def check(self, family, params, path, built, analyzed) -> list[str]:
        pkg = self.pkg
        if family == "odd":
            (k,) = params
            n = 6 * k * k
        else:
            m, p = params
            k = 2 * m
            n = 2 * m * m * p // (3 if m % 3 == 0 else 1)
        t = LADDER_T[family]
        label = f"{family}{params}"
        problems = []
        (code_c, out_c), (code_a, out_a) = built, analyzed
        if code_c != 0 or code_a != 0:
            return [f"{label}: exit codes {code_c}, {code_a}"]
        rep = json.loads(out_c)
        if not rep["ok"] or not all(rep["checks"].values()):
            problems.append(f"{label}: construction checks {rep['checks']}")
        if (rep["n"], rep["k"], rep["tutte_t"]) != (n, k, t):
            problems.append(f"{label}: n, k, t = {rep['n']}, {rep['k']}, {rep['tutte_t']}")
        graph = pkg.graphio.parse_edgelist(path.read_text())
        if graph.n != n:
            return problems + [f"{label}: written graph has {graph.n} vertices"]
        problems += witness_problems(pkg, graph, rep["witness_images"], k, f"{label} construction")

        ana = json.loads(out_a)
        prof = ana["profile"]
        if (prof["n"], prof["tutte_t"], prof["aut_order"]) != (n, t, 3 * 2 ** t * n):
            problems.append(f"{label}: profile {prof}")
        if not (prof["vertex_transitive"] and prof["arc_transitive"]):
            problems.append(f"{label}: not vertex- and arc-transitive")
        spec = ana["spectrum"]
        if k not in spec["spectrum"]:
            problems.append(f"{label}: k = {k} missing from spectrum {spec['spectrum']}")
        for kk in spec["spectrum"]:
            images = pkg.perm.from_cycle_string(spec["witnesses"][str(kk)], n).images
            problems += witness_problems(pkg, graph, images, kk, f"{label} k={kk}")
        for f in spec["findings"]:
            if not f["pass"]:
                problems.append(f"{label}: finding {f} fails")
        if family == "odd" and not any(f["k"] == k and f["bound"] == n for f in spec["findings"]):
            problems.append(f"{label}: no bound equality at k = {k}")
        q = ana.get("quotient_by_smallest_k")
        if q is None or q["orbits"] != q["k"]:
            problems.append(f"{label}: quotient {q}")
        return problems


class Scan(Workload):
    def prepare(self) -> None:
        root = self.workdir / "corpus"
        root.mkdir(exist_ok=True)
        for old in root.iterdir():
            old.unlink()
        self.root = root
        self.corpus = corpus_mod.generate(self.seed, root, self.pkg.graphio,
                                          self.pkg.cli.build_odd, self.pkg.cli.build_even)

    def run_pass(self) -> dict:
        starts = []
        t0 = time.perf_counter()
        try:
            with self.graph_starts(starts):
                code, out = call_cli(self.pkg.cli,
                                     ["scan", str(self.root), "--bound-check", "--timings"])
        except Exception as exc:  # the whole scan fails: every graph counts
            wall = time.perf_counter() - t0
            names = [f"{name}:{line}" for name, line in self.corpus.expect]
            return {"wall": wall, "items": [(n, None, [f"scan raised {exc!r}"]) for n in names]}
        t1 = time.perf_counter()
        wall = self.clock.span(t0, t1)
        with self.untraced():
            try:
                lines = [json.loads(line) for line in out.splitlines()]
                records, summary = lines[:-1], lines[-1].get("summary", {})
                bad, general = corpus_mod.check_scan(self.corpus, records, summary, code)
            except (ValueError, KeyError, TypeError, IndexError) as exc:  # unreadable output
                names = [f"{name}:{line}" for name, line in self.corpus.expect]
                return {"wall": wall, "items": [
                    (n, None, [f"scan output could not be checked: {exc!r}"]) for n in names]}
        # The records give each graph's duration but not when it ran.  When
        # every timed graph had one is_cubic call, that call marks its start;
        # otherwise its interval is placed by the running sum of durations,
        # stretched to the pass.
        timed = [rec["elapsed_ms"] / 1000 for rec in records if rec.get("elapsed_ms") is not None]
        exact = len(starts) == len(timed)
        reported = sum(timed)
        stretch = (t1 - t0) / reported if reported > 0 else 0.0
        items = []
        at, i = t0, 0
        for rec in records:
            key = (Path(rec["source"]).name, rec["line"])
            secs = None
            if rec.get("elapsed_ms") is not None:
                dur = timed[i]
                if exact:
                    secs = self.clock.span(starts[i], starts[i] + dur)
                else:
                    secs = self.clock.reported(dur, at, at + stretch * dur)
                    at += stretch * dur
                i += 1
            items.append((f"{key[0]}:{key[1]}", secs, bad.get(key, [])))
        if general:
            if items:
                name, secs, problems = items[-1]
                items[-1] = (name, secs, problems + general)
            else:
                items.append(("scan", None, general))
        self.skip_frac = sum(1 for r in records if r.get("skip")) / max(len(records), 1)
        return {"wall": wall, "items": items}

    @contextlib.contextmanager
    def graph_starts(self, starts: list[float]):
        """Record the start of each scanned graph and take a sample there.

        ``cli`` starts a graph's ``elapsed_ms`` timer and then calls
        ``graphio.is_cubic`` on it, so a wrapper on that function sees each
        graph start in its first call on a new graph object (later calls on
        the same graph come from the analysis).  The sample it takes falls
        inside the graph's interval, and ``clock.span`` takes its time off.
        Not installed when tracing.
        """
        if self.tracer is not None:
            yield
            return
        graphio, clock = self.pkg.graphio, self.clock
        original = graphio.is_cubic
        last = [None]  # holds the graph, so that its id cannot be reused

        def is_cubic(graph):
            if graph is not last[0]:
                last[0] = graph
                starts.append(time.perf_counter())
                clock.mark()
            return original(graph)

        graphio.is_cubic = is_cubic
        try:
            yield
        finally:
            graphio.is_cubic = original


class Queries(Workload):
    def prepare(self) -> None:
        pkg = self.pkg
        perm, cli = pkg.perm, pkg.cli
        rng = random.Random(self.seed)
        self.members = []
        specs = [("odd", (k,)) for k in QUERY_ODD] + [("even", mp) for mp in QUERY_EVEN]
        for family, params in specs:
            cons = cli.build_odd(*params) if family == "odd" else cli.build_even(*params)
            graph, gens = cons.graph, cons.arc_group.generators
            group = perm.PermGroup(graph.n, gens)
            spectrum = set(pkg.kcirc.k_spectrum(graph, group).spectrum)
            words = []
            for _ in range(QUERY_BATCH):
                w = perm.identity(graph.n)
                for _ in range(QUERY_WORD_LEN):
                    g = rng.choice(gens)
                    w = perm.compose(w, g if rng.random() < 0.5 else perm.inverse(g))
                words.append(w)
            non_members = []
            while len(non_members) < QUERY_BATCH:
                images = list(rng.choice(words).images)
                a, b = rng.sample(range(graph.n), 2)
                images[a], images[b] = images[b], images[a]
                if not is_automorphism(graph, images):
                    non_members.append(perm.Permutation(tuple(images)))
            self.members.append({
                "name": f"{family}{'_'.join(map(str, params))}", "family": family,
                "params": params, "cons": cons, "order": group.order(),
                "spectrum": spectrum, "words": words, "non_members": non_members,
            })
        self.harness = []
        for _ in range(QUERY_HARNESS):
            m = rng.choice(self.members)
            cons = m["cons"]
            if m["family"] == "even":
                grp = pkg.papergroups.even_group(*m["params"])
                elem = grp.element(0, 0, rng.randrange(1, grp.params.p), 0)
                normal = [pkg.cayley.left_translation(grp, cons.labeling, elem)]
            else:
                # lattice translations <u^d, v^d>; 3 must miss k/d for the
                # coprimality hypothesis
                grp = pkg.papergroups.odd_group(*m["params"])
                k = grp.k
                d = rng.choice([d for d in range(1, k + 1) if k % d == 0 and (k // d) % 3])
                normal = [pkg.cayley.left_translation(grp, cons.labeling, grp.element(d, 0, 0, 0)),
                          pkg.cayley.left_translation(grp, cons.labeling, grp.element(0, d, 0, 0))]
            self.harness.append((m, normal))

    def run_pass(self) -> dict:
        pkg = self.pkg
        PermGroup = pkg.perm.PermGroup
        items = []
        wall = 0.0
        groups = {}

        def timed(name, fn, check, repeats=1):
            nonlocal wall
            runs = []
            for _ in range(repeats if self.tracer is None else 1):
                self.clock.mark()
                t0 = time.perf_counter()
                try:
                    result = fn()
                except Exception as exc:  # an unnamed failure is a failed item
                    items.append((name, None, [f"{name}: raised {exc!r}"]))
                    return None
                runs.append(self.clock.span(t0, time.perf_counter()))
            dt = statistics.median(runs)
            wall += dt
            with self.untraced():
                try:
                    problems = check(result)
                except (ValueError, AttributeError, TypeError) as exc:  # unreadable result
                    problems = [f"{name}: result could not be checked: {exc!r}"]
                items.append((name, dt, problems))
            return result

        for m in self.members:
            graph = m["cons"].graph
            n = graph.n
            label = m["name"]
            group = PermGroup(n, m["cons"].arc_group.generators)
            groups[label] = group
            timed(f"{label} chain", group.order,
                  lambda o: [] if o == m["order"] and o % (3 * n) == 0
                  else [f"{label}: order {o}, expected {m['order']}"])
            for w in m["words"]:
                timed(f"{label} member", lambda: group.contains(w),
                      lambda r: [] if r else [f"{label}: member rejected"], CONTAINS_REPEATS)
            for w in m["non_members"]:
                timed(f"{label} non-member", lambda: group.contains(w),
                      lambda r: [f"{label}: non-automorphism accepted"] if r else [],
                      CONTAINS_REPEATS)
            witnesses = []
            for k in corpus_mod.divisors(n):
                def check_certify(w, k=k):
                    if (w is not None) != (k in m["spectrum"]):
                        return [f"{label}: certify k={k} gave {w is not None}"]
                    if w is None:
                        return []
                    witnesses.append((k, w))
                    return witness_problems(pkg, graph, w.images, k, f"{label} k={k}")
                timed(f"{label} certify k={k}",
                      lambda k=k: pkg.kcirc.certify_k_circulant(graph, k, group=group),
                      check_certify)
            for k, w in witnesses:
                timed(f"{label} quotient k={k}",
                      lambda w=w: pkg.quotient.quotient_graph(graph, PermGroup(n, [w])),
                      lambda q, k=k: [] if q.quotient.n == k and len(q.orbit_map) == n
                      else [f"{label}: quotient by k={k} has {q.quotient.n} vertices"])
        for m, normal in self.harness:
            cons = m["cons"]
            n = cons.graph.n
            want_k = cons.expected_k
            timed(f"{m['name']} harness",
                  lambda: pkg.quotient.induced_semiregular_harness(
                      cons.graph, cons.witness, PermGroup(n, normal), groups[m["name"]]),
                  lambda v: [] if v.passed and v.k == want_k and v.k % v.k_prime == 0
                  else [f"{m['name']}: harness verdict {v}"])
        return {"wall": wall, "items": items}


WORKLOADS = {"ladder": Ladder, "scan": Scan, "queries": Queries}
