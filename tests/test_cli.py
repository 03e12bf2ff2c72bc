"""CLI subcommands: construction, analysis, scanning, exit codes."""
import dataclasses
import json
import random
import shutil
from pathlib import Path

import pytest

from circulant_lab import cli, fixtures
from circulant_lab.cli import main
from circulant_lab.errors import StabiliserNotOfForm
from circulant_lab.graphio import MAX_ORDER, parse_edgelist, serialize
from circulant_lab.perm import Permutation, compose, inverse

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


def test_construct_even_bad_params(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, "construct-even", "1", "5")
    assert code == 2 and "error" in err


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

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
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


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_scan_jobs_below_one_is_a_usage_error(tmp_path, capsys, jobs):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    shutil.copy(FIXTURE_DIR / "k4.edgelist", corpus / "k4.edgelist")
    code, out, err = run_cli(capsys, "scan", str(corpus), "--jobs", jobs)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--jobs" in err


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


GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


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
