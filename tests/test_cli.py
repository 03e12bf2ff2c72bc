"""CLI subcommands: construction, analysis, scanning, exit codes."""
import concurrent.futures
import dataclasses
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from circulant_lab import aut, cli, fixtures, graphio
from circulant_lab.cli import main
from circulant_lab.errors import StabiliserNotOfForm
from circulant_lab.graphio import MAX_ORDER, parse_edgelist, serialize
from circulant_lab.perm import Permutation, compose, inverse
from helpers import diamond_ring

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "src" / "circulant_lab" / "fixtures"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_odd_k1(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "construct-odd", "1")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] and report["n"] == 6 and report["k"] == 1
    graph = parse_edgelist(Path(report["graph_file"]).read_text())
    assert graph.n == 6


def test_consecutive_calls_share_the_parser_but_no_flag(tmp_path, capsys, monkeypatch):
    # the parser is built once per process; each call's flags are its own
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "construct-odd", "1", "--out", "named.edgelist")
    assert code == 0 and json.loads(out)["graph_file"] == "named.edgelist"
    code, out, _ = run_cli(capsys, "construct-odd", "1")
    assert code == 0 and json.loads(out)["graph_file"] == "odd_k1.edgelist"
    k4 = str(FIXTURE_DIR / "k4.edgelist")
    code, out, _ = run_cli(capsys, "spectrum", k4, "--include-trivial-k")
    assert code == 0 and 4 in json.loads(out)["spectrum"]
    code, out, _ = run_cli(capsys, "spectrum", k4)
    assert code == 0 and 4 not in json.loads(out)["spectrum"]
    code, _, err = run_cli(capsys, "analyze", k4, "--cap", "23")
    assert code == 1 and "exceeds cap 23" in err
    code, out, _ = run_cli(capsys, "analyze", k4)
    assert code == 0 and json.loads(out)["profile"]["aut_order"] == 24


def test_construct_odd_rejects_even_k(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "construct-odd", "2")
    assert code == 2
    assert "odd" in err


def test_construct_even_graph6_output(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "construct-even", "1", "7",
                           "--format", "graph6", "--out", "h.g6")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] and report["n"] == 14 and report["k"] == 2
    assert report["checks"]["arc_transitive"]
    assert report["tutte_t"] == 3  # the 14-vertex member is 4-arc-regular
    from circulant_lab.graphio import parse_graph6
    graph = parse_graph6((tmp_path / "h.g6").read_text().strip())
    assert graph.n == 14


def test_construct_odd_graph6_past_the_short_form(tmp_path, capsys, monkeypatch):
    # odd k = 5 has n = 150, which needs graph6's long vertex-count form
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "construct-odd", "5", "--format", "graph6")
    assert code == 0
    assert json.loads(out)["graph_file"] == "odd_k5.g6"
    from circulant_lab.graphio import parse_graph6
    graph = parse_graph6((tmp_path / "odd_k5.g6").read_text().strip())
    assert graph == cli.build_odd(5).graph


def test_verify_rejects_a_witness_that_is_not_an_automorphism():
    # conjugating by a random relabeling keeps the witness semiregular with
    # the same order and orbit count, but it no longer preserves adjacency
    cons = cli.build_odd(5)
    images = list(range(cons.graph.n))
    random.Random(5).shuffle(images)
    relabeling = Permutation(tuple(images))
    bad = compose(compose(inverse(relabeling), cons.witness), relabeling)
    report = cli.verify_construction(dataclasses.replace(cons, witness=bad))
    checks = report["checks"]
    assert checks["witness_semiregular"] and checks["witness_order"]
    assert checks["witness_orbit_count"]
    assert not checks["witness_automorphism"]
    assert report["ok"] is False and report["tutte_t"] is None


def test_verify_makes_one_arc_stabiliser_search_and_one_arc_walk(monkeypatch):
    # the arc-type comes from one search whose root coloring puts the two
    # ends of an arc in cells of their own, and the one arc-orbit walk is
    # the check on the arc group: no search or walk on the full group
    cases = [(cons, aut.tutte_type(cons.graph))
             for cons in (cli.build_odd(5), cli.build_even(2, 7))]
    searches, walks = [], []
    search, walk = aut._search, aut.is_arc_transitive

    def counted_search(graph, colors, cap=None):
        searches.append(list(colors))
        return search(graph, colors, cap)

    def counted_walk(graph, group):
        walks.append(group)
        return walk(graph, group)

    monkeypatch.setattr(aut, "_search", counted_search)
    monkeypatch.setattr(aut, "is_arc_transitive", counted_walk)
    for cons, t in cases:
        searches.clear()
        walks.clear()
        report = cli.verify_construction(cons)
        assert report["ok"] and report["tutte_t"] == t
        assert len(searches) == 1
        colors = searches[0]
        apart = [v for v, c in enumerate(colors) if colors.count(c) == 1]
        assert len(set(colors)) == 3 and len(apart) == 2
        assert apart[1] in cons.graph.adjacency[apart[0]]
        assert len(walks) == 1 and walks[0] is cons.arc_group


def test_construct_even_bad_params(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, "construct-even", "1", "5")
    assert code == 2 and "error" in err


def test_construct_rejects_exactly_the_orders_past_the_vertex_limit(
        tmp_path, capsys, monkeypatch):
    # a written file must be one analyze can read back
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(graphio, "MAX_ORDER", 54)
    code, out, _ = run_cli(capsys, "construct-odd", "3")
    assert code == 0 and json.loads(out)["n"] == 54
    code, _, _ = run_cli(capsys, "analyze", "odd_k3.edgelist")
    assert code == 0
    for argv, n in ((["construct-odd", "5"], 150), (["construct-even", "2", "7"], 56)):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: n = {n} exceeds the vertex limit 54\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["odd_k3.edgelist"]


@pytest.mark.parametrize("argv", [["construct-odd", "419"], ["construct-even", "400", "7"]],
                         ids=["odd-419", "even-400-7"])
def test_construct_past_the_vertex_limit_fails_before_any_group_arithmetic(
        argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    started = time.monotonic()
    code, out, err = run_cli(capsys, *argv)
    assert time.monotonic() - started < 1.0
    assert code == 2 and out == ""
    assert f"exceeds the vertex limit {MAX_ORDER}" in err
    assert not any(tmp_path.iterdir())


def test_construct_even_names_a_bad_m_before_the_vertex_limit(tmp_path, capsys, monkeypatch):
    # m = -1000 would give a closed-form n past the limit
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, "construct-even", "-1000", "7")
    assert code == 2 and err == "error: m must be positive, got -1000\n"


def test_construct_unwritable_out_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "g.edgelist"
    code, stdout, err = run_cli(capsys, "construct-odd", "1", "--out", str(out))
    assert code == 2 and err.startswith("error: ") and stdout == ""
    assert not out.parent.exists()


def test_analyze_fixture(capsys):
    code, out, _ = run_cli(capsys, "analyze", str(FIXTURE_DIR / "k4.edgelist"))
    assert code == 0
    payload = json.loads(out)
    assert payload["profile"]["aut_order"] == 24
    assert payload["profile"]["tutte_t"] == 1
    assert payload["spectrum"]["spectrum"] == [1, 2]  # trivial k filtered
    assert payload["quotient_by_smallest_k"]["k"] == 1


def test_analyze_include_trivial(capsys):
    code, out, _ = run_cli(capsys, "analyze", str(FIXTURE_DIR / "k4.edgelist"),
                           "--include-trivial-k")
    assert code == 0
    payload = json.loads(out)
    assert payload["spectrum"]["spectrum"] == [1, 2, 4]


def test_spectrum_subcommand(capsys):
    code, out, _ = run_cli(capsys, "spectrum", str(FIXTURE_DIR / "petersen.edgelist"),
                           "--include-trivial-k")
    assert code == 0
    payload = json.loads(out)
    assert payload["spectrum"] == [2, 10]
    assert set(payload["witnesses"]) == {"2", "10"}


def test_analyze_deterministic(capsys):
    _, first, _ = run_cli(capsys, "analyze", str(FIXTURE_DIR / "pappus.edgelist"))
    _, second, _ = run_cli(capsys, "analyze", str(FIXTURE_DIR / "pappus.edgelist"))
    assert first == second


def test_analyze_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.edgelist"
    bad.write_text("not a header\n")
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == 2 and "error" in err
    binary = tmp_path / "binary.edgelist"
    binary.write_bytes(b"\xff\xfe4 6\n")  # not UTF-8
    code, out, err = run_cli(capsys, "analyze", str(binary))
    assert code == 2 and err.startswith("error: ") and "UTF-8" in err and out == ""


@pytest.mark.parametrize("command", ["analyze", "spectrum"])
def test_analyze_takes_exactly_one_graph(tmp_path, capsys, command):
    # the other graphs of a graph6 file are not dropped in silence
    k4 = serialize(fixtures.load("k4"), "graph6")
    k33 = serialize(fixtures.load("k33"), "graph6")
    two = tmp_path / "two.g6"
    two.write_text(f">>graph6<<\n{k4}\n{k33}\n")
    code, out, err = run_cli(capsys, command, str(two))
    assert code == 2 and out == ""
    assert err == f"error: {two} holds 2 graphs; {command} takes one, scan takes several\n"
    empty = tmp_path / "empty.g6"
    empty.write_text(">>graph6<<\n")
    code, out, err = run_cli(capsys, command, str(empty))
    assert code == 2 and out == "" and "holds 0 graphs" in err
    one = tmp_path / "one.g6"
    one.write_text(f"{k4}\n")
    assert run_cli(capsys, command, str(one))[0] == 0


def test_analyze_missing_file(capsys):
    code, _, err = run_cli(capsys, "analyze", "/nonexistent/g.edgelist")
    assert code == 2


def test_analyze_non_cubic(tmp_path, capsys):
    path = tmp_path / "p3.edgelist"
    path.write_text("3 2\n0 1\n1 2\n")
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["profile"]["tutte_t"] is None


def test_scan_fixture_dir(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("k4", "k33", "petersen"):
        shutil.copy(FIXTURE_DIR / f"{name}.edgelist", corpus / f"{name}.edgelist")
    code, out, _ = run_cli(capsys, "scan", str(corpus), "--bound-check")
    assert code == 0
    lines = [json.loads(ln) for ln in out.splitlines()]
    summary = lines[-1]["summary"]
    assert summary["graphs"] == 3
    assert summary["analyzed"] == 3
    assert summary["violations"] == 0
    records = lines[:-1]
    assert [r["source"] for r in records] == sorted(r["source"] for r in records)
    assert all(r["skip"] is None for r in records)


def test_scan_skips_non_cubic(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "p3.edgelist").write_text("3 2\n0 1\n1 2\n")
    code, out, _ = run_cli(capsys, "scan", str(corpus), "--bound-check")
    assert code == 0
    lines = [json.loads(ln) for ln in out.splitlines()]
    assert lines[0]["skip"] == "not cubic"
    assert lines[-1]["summary"]["skipped"] == 1


def test_scan_skips_disconnected(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    two_k4 = ("8 12\n" + "\n".join(f"{u} {v}" for u in range(4) for v in range(u + 1, 4))
              + "\n" + "\n".join(f"{u + 4} {v + 4}" for u in range(4) for v in range(u + 1, 4))
              + "\n")
    (corpus / "two_k4.edgelist").write_text(two_k4)
    code, out, _ = run_cli(capsys, "scan", str(corpus))
    assert code == 0
    lines = [json.loads(ln) for ln in out.splitlines()]
    assert lines[0]["skip"] == "not connected"


def test_scan_graph6_multi(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    k4 = serialize(fixtures.load("k4"), "graph6")
    k33 = serialize(fixtures.load("k33"), "graph6")
    (corpus / "two.g6").write_text(f">>graph6<<\n{k4}\n{k33}\n")
    code, out, _ = run_cli(capsys, "scan", str(corpus), "--bound-check")
    assert code == 0
    lines = [json.loads(ln) for ln in out.splitlines()]
    assert lines[-1]["summary"]["graphs"] == 2
    assert [r["line"] for r in lines[:-1]] == [2, 3]
    assert [r["n"] for r in lines[:-1]] == [4, 6]


def test_scan_parse_error_is_per_file(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "bad.edgelist").write_text("oops\n")
    (corpus / "huge.edgelist").write_text(f"{MAX_ORDER + 1} 0\n")  # over the vertex limit
    (corpus / "binary.g6").write_bytes(b"\xff\xfeC~\n")  # not UTF-8
    shutil.copy(FIXTURE_DIR / "k4.edgelist", corpus / "k4.edgelist")
    code, out, _ = run_cli(capsys, "scan", str(corpus), "--bound-check")
    assert code == 0  # parse errors are per-file, non-fatal, and not violations
    lines = [json.loads(ln) for ln in out.splitlines()]
    skips = {Path(r["source"]).name: r.get("skip") for r in lines[:-1]}
    assert skips == {"bad.edgelist": "parse error", "binary.g6": "parse error",
                     "huge.edgelist": "parse error", "k4.edgelist": None}
    assert lines[-1]["summary"]["analyzed"] == 1


def test_scan_splits_graph6_lines_at_newlines_only(tmp_path, capsys):
    # a CRLF file reads as usual, and a Unicode line separator joins two
    # graphs into one line that does not parse
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    k4 = serialize(fixtures.load("k4"), "graph6")
    k33 = serialize(fixtures.load("k33"), "graph6")
    (corpus / "crlf.g6").write_bytes(f">>graph6<<\r\n{k4}\r\n\t{k33} \r\n".encode())
    (corpus / "joined.g6").write_text(f"{k4}\u2028{k33}\n{k4}\x1c\n")
    code, out, _ = run_cli(capsys, "scan", str(corpus))
    assert code == 0
    lines = [json.loads(ln) for ln in out.splitlines()]
    assert [(Path(r["source"]).name, r["line"], r["skip"], r.get("n")) for r in lines[:-1]] == [
        ("crlf.g6", 2, None, 4), ("crlf.g6", 3, None, 6),
        ("joined.g6", 1, "parse error", None), ("joined.g6", 2, "parse error", None)]


def test_scan_bad_graph6_line_is_its_own_record(tmp_path, capsys):
    # a bad line is a parse error record with its line number, and the
    # graphs around it are analyzed; analyze on the same file fails with
    # that line's error, as before
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    k4 = serialize(fixtures.load("k4"), "graph6")
    k33 = serialize(fixtures.load("k33"), "graph6")
    (corpus / "three.g6").write_text(f"{k4}\n{k4}x\n{k33}\n")
    code, out, _ = run_cli(capsys, "scan", str(corpus), "--bound-check")
    assert code == 0
    lines = [json.loads(ln) for ln in out.splitlines()]
    assert [(r["line"], r["skip"]) for r in lines[:-1]] == [
        (1, None), (2, "parse error"), (3, None)]
    assert lines[1]["error"] == "1 trailing chars after adjacency bits"
    assert lines[-1]["summary"]["graphs"] == 3
    assert lines[-1]["summary"]["analyzed"] == 2
    for command in ("analyze", "spectrum"):
        code, out, err = run_cli(capsys, command, str(corpus / "three.g6"))
        assert (code, out, err) == (2, "", "error: 1 trailing chars after adjacency bits\n")


def _fail_on_order(monkeypatch, n, exc):
    real = cli._analyze_graph

    def analyze(graph, *args):
        if graph.n == n:
            raise exc
        return real(graph, *args)

    monkeypatch.setattr(cli, "_analyze_graph", analyze)


def test_scan_analysis_error_is_per_graph(tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("k33", "k4"):
        shutil.copy(FIXTURE_DIR / f"{name}.edgelist", corpus)
    _, clean, _ = run_cli(capsys, "scan", str(corpus), "--bound-check")
    clean_k33, clean_k4, _ = map(json.loads, clean.splitlines())
    _fail_on_order(monkeypatch, 4, StabiliserNotOfForm("planted failure"))
    code, out, _ = run_cli(capsys, "scan", str(corpus), "--bound-check")
    assert code == 0
    k33, k4, summary = map(json.loads, out.splitlines())
    assert k4 == {"source": clean_k4["source"], "line": None, "n": 4, "cubic": True,
                  "connected": True, "skip": "error", "error": "planted failure"}
    assert k33 == clean_k33 and k33["skip"] is None
    assert summary["summary"] == {"files": 2, "graphs": 2, "analyzed": 1, "skipped": 1,
                                  "violations": 0, "bound_equalities": 1}


def test_scan_program_errors_still_surface(tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    shutil.copy(FIXTURE_DIR / "k4.edgelist", corpus)
    _fail_on_order(monkeypatch, 4, RuntimeError("a bug, not a bad graph"))
    with pytest.raises(RuntimeError):
        main(["scan", str(corpus)])


def test_scan_empty_dir(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    code, out, _ = run_cli(capsys, "scan", str(corpus))
    assert code == 0
    lines = [json.loads(ln) for ln in out.splitlines()]
    assert lines[-1]["summary"] == {
        "files": 0, "graphs": 0, "analyzed": 0, "skipped": 0,
        "violations": 0, "bound_equalities": 0,
    }


def test_scan_not_a_directory(capsys):
    code, _, err = run_cli(capsys, "scan", "/nonexistent-dir")
    assert code == 2


def test_scan_parallel_matches_serial(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("k4", "k33", "cube3", "petersen"):
        shutil.copy(FIXTURE_DIR / f"{name}.edgelist", corpus / f"{name}.edgelist")
    code1, out1, _ = run_cli(capsys, "scan", str(corpus), "--bound-check")
    code2, out2, _ = run_cli(capsys, "scan", str(corpus), "--bound-check", "--jobs", "3")
    assert code1 == code2 == 0
    assert out1 == out2


def test_scan_jobs_never_exceed_the_file_count(tmp_path, capsys, monkeypatch):
    sizes = []

    class SerialPool:
        """Records max_workers and maps in this process: starts nothing."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    # cmd_scan imports the pool when it starts one, so it reads the patch
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("k4", "k33"):
        shutil.copy(FIXTURE_DIR / f"{name}.edgelist", corpus / f"{name}.edgelist")
    code, serial, _ = run_cli(capsys, "scan", str(corpus))
    assert code == 0 and sizes == []
    code, out, _ = run_cli(capsys, "scan", str(corpus), "--jobs", "5000")
    assert code == 0 and out == serial
    assert sizes == [2]
    # one file: no pool at all
    (corpus / "k33.edgelist").unlink()
    code, _, _ = run_cli(capsys, "scan", str(corpus), "--jobs", "4")
    assert code == 0 and sizes == [2]


_POOL_PROBE = """
import contextlib, io, json, sys

def pool_modules():
    return {m for m in sys.modules
            if m.split(".")[0] in ("concurrent", "multiprocessing")}

def scan(*extra):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["scan", sys.argv[1], *extra])
    return code, out.getvalue()

report = {}
before = pool_modules()
import circulant_lab.cli as cli
report["import"] = sorted(pool_modules() - before)
before = pool_modules()
report["serial"] = scan()
report["serial_adds"] = sorted(pool_modules() - before)
report["parallel"] = scan("--jobs", "2")
report["after_parallel"] = sorted(pool_modules())
print(json.dumps(report))
"""


def test_only_a_parallel_scan_imports_the_process_pool(tmp_path):
    # a fresh interpreter: this one has imported the pool for other tests;
    # sets are compared before and after each step, since a .pth file may
    # preload modules
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("k4", "k33"):
        shutil.copy(FIXTURE_DIR / f"{name}.edgelist", corpus / f"{name}.edgelist")
    src = str(FIXTURE_DIR.parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _POOL_PROBE, str(corpus)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["import"] == []
    assert report["serial"][0] == 0 and report["serial_adds"] == []
    assert report["parallel"] == report["serial"]
    assert {"concurrent.futures.process", "multiprocessing"} <= set(report["after_parallel"])


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_scan_jobs_below_one_is_a_usage_error(tmp_path, capsys, jobs):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    shutil.copy(FIXTURE_DIR / "k4.edgelist", corpus / "k4.edgelist")
    code, out, err = run_cli(capsys, "scan", str(corpus), "--jobs", jobs)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--jobs" in err


@pytest.mark.parametrize("command", ["analyze", "spectrum", "scan"])
@pytest.mark.parametrize("cap", ["0", "-3"])
def test_cap_below_one_is_a_usage_error(capsys, command, cap):
    # before any graph is read: not one "cap exceeded" record per graph
    target = FIXTURE_DIR if command == "scan" else FIXTURE_DIR / "k4.edgelist"
    code, out, err = run_cli(capsys, command, str(target), "--cap", cap)
    assert code == 2
    assert out == ""
    assert err == f"error: --cap must be at least 1 (got {cap})\n"


def test_scan_deterministic_without_timings(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    shutil.copy(FIXTURE_DIR / "heawood.edgelist", corpus / "heawood.edgelist")
    _, out1, _ = run_cli(capsys, "scan", str(corpus), "--bound-check")
    _, out2, _ = run_cli(capsys, "scan", str(corpus), "--bound-check")
    assert out1 == out2
    _, out3, _ = run_cli(capsys, "scan", str(corpus), "--bound-check", "--timings")
    assert "elapsed_ms" in out3 and "elapsed_ms" not in out1


def test_cap_override(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    shutil.copy(FIXTURE_DIR / "k4.edgelist", corpus / "k4.edgelist")
    code, out, _ = run_cli(capsys, "scan", str(corpus), "--cap", "10")
    lines = [json.loads(ln) for ln in out.splitlines()]
    assert lines[0]["skip"] == "cap exceeded"  # |Aut(K4)| = 24 > 10
    code, out, _ = run_cli(capsys, "scan", str(corpus), "--cap", "100")
    lines = [json.loads(ln) for ln in out.splitlines()]
    assert lines[0]["skip"] is None


def test_scan_skips_a_cubic_graph_past_the_cap(tmp_path, capsys):
    # a ring of 25 diamonds has |Aut| = 50 * 2^25: the search ends at the
    # default cap, and the scan records the skip and goes on
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "diamonds25.edgelist").write_text(serialize(diamond_ring(25), "edgelist"))
    shutil.copy(FIXTURE_DIR / "k4.edgelist", corpus / "k4.edgelist")
    code, out, _ = run_cli(capsys, "scan", str(corpus), "--bound-check")
    assert code == 0
    ring, k4, summary = [json.loads(ln) for ln in out.splitlines()]
    assert ring["n"] == 100 and ring["cubic"] and ring["connected"]
    assert ring["skip"] == "cap exceeded"
    assert ring["error"] == "group order at least 33554432 exceeds cap 16777216"
    assert k4["skip"] is None
    assert summary["summary"]["skipped"] == 1 and summary["summary"]["analyzed"] == 1


GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def test_analyze_checks_adjacency_only_in_the_search(tmp_path, capsys, monkeypatch):
    # the searched group is never checked again, and neither is the
    # subgroup that the smallest-k witness, one of its elements, generates
    # for the quotient
    from circulant_lab import _kernels as kern
    from circulant_lab.aut import automorphism_group

    path = tmp_path / "odd5.edgelist"
    path.write_text(serialize(cli.build_odd(5).graph, "edgelist"))
    calls = [0]
    preserves = kern.preserves_adjacency

    def counting(ptr, flat, images):
        calls[0] += 1
        return preserves(ptr, flat, images)

    monkeypatch.setattr(kern, "preserves_adjacency", counting)
    automorphism_group(parse_edgelist(path.read_text()))
    search_calls, calls[0] = calls[0], 0
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0 and "quotient_by_smallest_k" in json.loads(out)
    assert calls[0] == search_calls > 0


def test_analyze_output_is_pinned_for_family_members(tmp_path, capsys, monkeypatch):
    # the witness cycle strings follow the search-derived chain's base and
    # coset representatives; a change to either must re-pin them on purpose
    monkeypatch.chdir(tmp_path)
    for construct, golden in ((["construct-odd", "5"], "analyze_odd_5.json"),
                              (["construct-even", "2", "7"], "analyze_even_2_7.json")):
        code, _, _ = run_cli(capsys, *construct, "--out", "g.edgelist")
        assert code == 0
        code, out, _ = run_cli(capsys, "analyze", "g.edgelist")
        assert code == 0
        assert out == (GOLDEN_DIR / golden).read_text(), golden


@pytest.mark.parametrize("construct,digest", [
    (["construct-odd", "15"], "00b97f3721f15fea6bf4b8826a1eee09be62520b328db67cff3c9248e68b3a38"),
    (["construct-odd", "21"], "5a3259915955f5e4ca29e427f3674767e8e048cc2f38030bb55c5964b71c2687"),
    (["construct-even", "7", "13"],
     "a49fdec48c1625d2468dbe3f6a881fc5c88560b2701cbec012641b5cd0d51800"),
], ids=["odd-15", "odd-21", "even-7-13"])
def test_analyze_output_is_pinned_for_the_largest_ladder_members(
        construct, digest, tmp_path, capsys, monkeypatch):
    # their witnesses depend most on the order of the spectrum walk: each
    # is the first hit in chain order along the search's tree, though the
    # first pass finds its block on a shallow tree
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(capsys, *construct, "--out", "g.edgelist")
    assert code == 0
    code, out, _ = run_cli(capsys, "analyze", "g.edgelist")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("construct,digests", [
    (["construct-odd", "5"], (
     "8b726c9566798ea7df904a9450323b0cd1610ddc9dceb7824ce37a1b63cf13cc",
     "44dcda65b75ed95099a5f9972e6c21ed335dc55ea715a67fe4acf9945f6c75f9")),
    (["construct-odd", "15"], (
     "d4e501a5e3adcceaae61c4353cd43a3473ef33666121ed1bea9afbf06a0fee43",
     "20904abad7447629475c24a5a876fadd0ae584edb3bc138d7b725db537e5a5d9")),
    (["construct-odd", "21"], (
     "49d569ace38283107ca9f734b28c81850be156410d2db0219b776f6643a2541f",
     "36b4c7a85425420cf591bbf32d99e62b7f29d25705d0551f8f5ef40cfda82b10")),
    (["construct-even", "2", "7"], (
     "2029b48dbfaa9253ed09778823482ea14719a8f6159f606ec5113aa7aad51226",
     "c0b1471e491d9d66c086a360089e873154f020b3f03742e14e8a91e0af954d8e")),
    (["construct-even", "7", "13"], (
     "1390aca99b80d6d3e5953e35ea945332859b24d9a0334583af8dc6258e024c53",
     "a764a42284bc2086f3ce8f0934143622a6c332c0eb4b92c573df26dba0c494fd")),
], ids=["odd-5", "odd-15", "odd-21", "even-2-7", "even-7-13"])
@pytest.mark.parametrize("fmt", ["edgelist", "graph6"])
def test_construct_output_is_pinned(construct, digests, fmt, tmp_path, capsys, monkeypatch):
    # the written file pins the labeling, and the report's witness images
    # pin the witness
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, *construct, "--format", fmt)
    assert code == 0
    written = (tmp_path / json.loads(out)["graph_file"]).read_bytes()
    digest = hashlib.sha256(out.encode() + written).hexdigest()
    assert digest == digests[fmt == "graph6"]


@pytest.mark.parametrize("build,params,digest", [
    (cli.build_odd, (5,), "5869aa7395ec99235cad7c8c02bd61c9a6d2085608c7511bd13ebdaa3efd14cb"),
    (cli.build_odd, (15,), "61c19938c23b410a13d4d437cdf7ca2050fcb64e102e03b17991a5d843ed5322"),
    (cli.build_odd, (21,), "39c236dba5cc6a8ad0fb6ee71608b99732dde3b31c3c95c1b81e8503be15f947"),
    (cli.build_even, (2, 7), "5344ff85cf3781d510102b6dbca62d26e833147d2796801e5553eec095c6df29"),
    (cli.build_even, (7, 13), "05613966b35acb48b1b65af4bd24ae68ef734357029249f61d7a88421c70451f"),
], ids=["odd-5", "odd-15", "odd-21", "even-2-7", "even-7-13"])
def test_arc_group_generators_are_pinned(build, params, digest):
    # the translations by S and the outer automorphism, image by image, as
    # they were when each was computed by one group operation per vertex
    gens = build(*params).arc_group.generators
    assert hashlib.sha256(repr([g.images for g in gens]).encode()).hexdigest() == digest
