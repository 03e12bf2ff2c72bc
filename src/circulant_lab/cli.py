"""Command-line front end: construct the two graph families, analyze graphs,
and scan corpora for order-bound violations.

Subcommands: construct-even, construct-odd, analyze, spectrum, scan.
Reports are JSON on stdout and byte-identical across runs on the same input
(timings are opt-in for that reason).  Exit codes: 0 success, 1 failed
assertion, bound violation, or (analyze, spectrum) a group order over the
enumeration cap, 2 usage or parse error.

The process pool is imported only when a scan starts more than one worker,
so importing this module and every serial command load neither
`concurrent.futures` nor `multiprocessing`.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from circulant_lab import aut as aut_mod
from circulant_lab import graphio, kcirc, quotient
from circulant_lab.cayley import (
    CayleyLabeling,
    automorphism_from_group_automorphism,
    cayley_graph,
    left_translation,
)
from circulant_lab.errors import (
    BadCharacter,
    BadParams,
    CapExceeded,
    CirculantError,
    GraphFormatError,
)
from circulant_lab.papergroups import even_group, odd_group
from circulant_lab.perm import (
    DEFAULT_ENUMERATION_CAP,
    PermGroup,
    Permutation,
    compose,
    cycle_structure,
    is_semiregular,
    power,
    to_cycle_string,
)

@dataclass
class Construction:
    family: str
    params: dict
    expected_n: int
    expected_k: int
    expected_c_order: int
    graph: graphio.Graph
    labeling: CayleyLabeling
    arc_group: PermGroup
    witness: Permutation


def _build(family: str, params: dict, group, outer, expected_n: int,
           expected_k: int) -> Construction:
    """Both families' recipe: Cay(R, S) with S = {s, s^phi, s^phi^2} for the
    order-3 automorphism phi = outer of R, the arc group <translations by S,
    phi>, and the witness c = r phi^j as v -> label(r phi^j(element(v))):
    phi's permutation taken j times, then the translation by r.  Every
    translation and phi's permutation are carried along the Cayley walk
    (see cayley), with no group arithmetic per vertex."""
    S = group.connection_set()
    graph, labeling = cayley_graph(group, S)
    outer_perm = automorphism_from_group_automorphism(group, labeling, outer)
    translations = [left_translation(group, labeling, s) for s in S]
    arc_group = PermGroup(graph.n, translations + [outer_perm])
    c_elem, c_order = group.semiregular_generator()
    r, j = group.split(c_elem)
    witness = compose(power(outer_perm, j), left_translation(group, labeling, r))
    return Construction(family, params, expected_n, expected_k, c_order,
                        graph, labeling, arc_group, witness)


def _check_vertex_limit(n: int) -> None:
    # a file written past the limit is one that analyze refuses to read
    if n > graphio.MAX_ORDER:
        raise BadParams(f"n = {n} exceeds the vertex limit {graphio.MAX_ORDER}")


def build_even(m: int, p: int) -> Construction:
    if m < 1:
        raise BadParams(f"m must be positive, got {m}")
    expected_n = 2 * m * m * p // (3 if m % 3 == 0 else 1)
    _check_vertex_limit(expected_n)
    group = even_group(m, p)
    return _build("even", {"m": m, "p": p, "alpha": group.params.alpha}, group,
                  group.apply_y, expected_n, 2 * m)


def build_odd(k: int) -> Construction:
    if k < 1 or k % 2 == 0:
        raise BadParams(f"k must be a positive odd integer (got {k}); "
                        "the 6k^2 family is defined for odd k only")
    _check_vertex_limit(6 * k * k)
    group = odd_group(k)
    return _build("odd", {"k": k}, group, group.apply_sigma, 6 * k * k, k)


def verify_construction(cons: Construction) -> dict:
    """Re-check every claimed property of a constructed graph from scratch.

    Construction and verification share no state beyond the graph and the
    candidate permutations, which are re-validated against adjacency: the
    arc group's generators and the witness must be automorphisms.  The
    arc-type is the full automorphism group's, which may be larger than the
    assembled translations-plus-outer-automorphism group.  It is read only
    once every check holds: then the arc group is arc-transitive, so Aut,
    which contains it, is too, and |Aut| = 2|E| * |Aut_(u,v)| for an arc
    (u, v).  So one search, for the stabiliser of that arc, gives |Aut|
    (aut.arc_transitive_type), and the arc orbit is walked once, on the
    arc group.
    """
    graph = cons.graph
    structure = cycle_structure(cons.witness)
    checks = {
        "order": graph.n == cons.expected_n,
        "cubic": graphio.is_cubic(graph),
        "connected": graphio.is_connected(graph),
        "arc_transitive": aut_mod.is_arc_transitive(graph, cons.arc_group),
        "witness_semiregular": is_semiregular(cons.witness),
        "witness_automorphism": aut_mod.is_automorphism(graph, cons.witness),
        "witness_order": structure.element_order == cons.expected_c_order,
        "witness_orbit_count": len(structure.cycle_lengths) == cons.expected_k,
    }
    report = {
        "family": cons.family,
        "params": cons.params,
        "n": graph.n,
        "k": cons.expected_k,
        "checks": checks,
        "tutte_t": aut_mod.arc_transitive_type(graph) if all(checks.values()) else None,
        "witness_order": structure.element_order,
        "witness_orbits": len(structure.cycle_lengths),
        "witness_cycles": to_cycle_string(cons.witness),
        "witness_images": list(cons.witness.images),
        "ok": all(checks.values()),
    }
    return report


def _detect_format(path: Path) -> str:
    if path.suffix.lower() in (".g6", ".graph6"):
        return "graph6"
    return "edgelist"


def _load_graphs(path: Path) -> list[tuple[int | None, graphio.Graph | GraphFormatError]]:
    """(line, graph) pairs; edge-list files hold one graph, graph6 one per
    line (graphio.text_lines).  A graph6 line that does not parse gives its
    error in place of a graph, and the lines after it are still read."""
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        # both formats are ASCII: an undecodable file is a format error
        raise BadCharacter(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    if _detect_format(path) == "edgelist":
        return [(None, graphio.parse_edgelist(text))]
    out = []
    for lineno, line in enumerate(graphio.text_lines(text), start=1):
        line = line.strip(graphio.BLANKS)
        if not line or line == graphio.GRAPH6_HEADER:
            continue
        try:
            out.append((lineno, graphio.parse_graph6(line)))
        except GraphFormatError as exc:
            out.append((lineno, exc))
    return out


def _analyze_graph(graph: graphio.Graph, cap: int, include_trivial: bool,
                   bound_check: bool) -> dict:
    group = aut_mod.automorphism_group(graph, cap)
    profile = aut_mod.symmetry_profile(graph, group)
    report = kcirc.k_spectrum(graph, group, cap=cap)
    if bound_check and profile.arc_transitive and graphio.is_cubic(graph):
        report.findings = kcirc.check_order_bound(report)
    payload = {
        "profile": profile.to_json_dict(),
        "spectrum": report.to_json_dict(include_trivial=include_trivial),
    }
    nontrivial = [k for k in report.spectrum if k != graph.n]
    if nontrivial:
        k0 = nontrivial[0]
        # the witness is an element of the searched group, so the subgroup
        # it generates is not checked against adjacency again
        q = quotient.quotient_graph(graph, aut_mod.subgroup(group, [report.witnesses[k0]]))
        payload["quotient_by_smallest_k"] = {
            "k": k0,
            "orbits": q.quotient.n,
            "is_regular_cover": q.is_regular_cover,
            "has_intra_orbit_edges": q.has_intra_orbit_edges,
        }
    return payload


def cmd_construct(args, family: str) -> int:
    try:
        if family == "even":
            cons = build_even(args.m, args.p)
            default_name = f"even_m{args.m}_p{args.p}"
        else:
            cons = build_odd(args.k)
            default_name = f"odd_k{args.k}"
    except BadParams as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_path = Path(args.out) if args.out else Path(
        default_name + (".g6" if args.format == "graph6" else ".edgelist"))
    try:
        out_path.write_text(graphio.serialize(cons.graph, args.format)
                            + ("\n" if args.format == "graph6" else ""))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = verify_construction(cons)
    report["graph_file"] = str(out_path)
    print(json.dumps(report, indent=2))
    return 0 if report["ok"] else 1


def cmd_analyze(args, spectrum_only: bool) -> int:
    path = Path(args.path)
    try:
        graphs = _load_graphs(path)
        for _, graph in graphs:
            if isinstance(graph, GraphFormatError):
                raise graph
    except (OSError, CirculantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(graphs) != 1:
        print(f"error: {path} holds {len(graphs)} graphs; {args.command} takes one, "
              "scan takes several", file=sys.stderr)
        return 2
    _, graph = graphs[0]
    try:
        payload = _analyze_graph(graph, args.cap, args.include_trivial_k, bound_check=True)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if spectrum_only:
        payload = payload["spectrum"]
    print(json.dumps(payload, indent=2))
    return 0


def _scan_file(task) -> list[dict]:
    path_str, cap, include_trivial, bound_check, timings = task
    path = Path(path_str)
    records = []
    try:
        graphs = _load_graphs(path)
    except (OSError, CirculantError) as exc:
        return [{"source": path_str, "line": None, "skip": "parse error", "error": str(exc)}]
    for lineno, graph in graphs:
        if isinstance(graph, GraphFormatError):
            records.append({"source": path_str, "line": lineno, "skip": "parse error",
                            "error": str(graph)})
            continue
        record = {"source": path_str, "line": lineno, "n": graph.n}
        started = time.monotonic()
        record["cubic"] = graphio.is_cubic(graph)
        record["connected"] = graphio.is_connected(graph)
        if not record["cubic"]:
            record["skip"] = "not cubic"
        elif not record["connected"]:
            record["skip"] = "not connected"
        else:
            try:
                payload = _analyze_graph(graph, cap, include_trivial, bound_check)
            except CapExceeded as exc:
                record["skip"] = "cap exceeded"
                record["error"] = str(exc)
            except CirculantError as exc:
                # one graph the analysis rejects must not end the scan
                record["skip"] = "error"
                record["error"] = str(exc)
            else:
                record["skip"] = None
                record["aut_order"] = payload["profile"]["aut_order"]
                record["arc_transitive"] = payload["profile"]["arc_transitive"]
                record["tutte_t"] = payload["profile"]["tutte_t"]
                record["spectrum"] = payload["spectrum"]["spectrum"]
                record["findings"] = payload["spectrum"]["findings"]
                if "quotient_by_smallest_k" in payload:
                    record["quotient_by_smallest_k"] = payload["quotient_by_smallest_k"]
        if timings:
            record["elapsed_ms"] = round(1000 * (time.monotonic() - started), 3)
        records.append(record)
    return records


def cmd_scan(args) -> int:
    root = Path(args.dir)
    if not root.is_dir():
        print(f"error: {root} is not a directory", file=sys.stderr)
        return 2
    files = sorted(p for p in root.iterdir() if p.is_file())
    tasks = [(str(p), args.cap, args.include_trivial_k, args.bound_check, args.timings)
             for p in files]
    # the pool starts all its workers at the first submit: no more than files
    workers = min(args.jobs, len(files))
    if workers > 1:
        # imported here, not at module level: only a scan that starts more
        # than one worker pays for the pool and multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_file = list(pool.map(_scan_file, tasks))
    else:
        per_file = [_scan_file(t) for t in tasks]

    graphs = analyzed = skipped = violations = equalities = 0
    for records in per_file:
        for record in records:
            graphs += 1
            if record.get("skip"):
                skipped += 1
            else:
                analyzed += 1
                for finding in record.get("findings", []):
                    if not finding["pass"]:
                        violations += 1
                    elif record["n"] == finding["bound"]:
                        equalities += 1
            print(json.dumps(record))
    summary = {"summary": {
        "files": len(files),
        "graphs": graphs,
        "analyzed": analyzed,
        "skipped": skipped,
        "violations": violations,
        "bound_equalities": equalities,
    }}
    print(json.dumps(summary))
    return 1 if violations else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it costs
    some twenty times as much as a parse, and each parse_args fills a new
    namespace from the declared defaults, so no flag carries over between
    calls."""
    parser = argparse.ArgumentParser(
        prog="circulant-lab",
        description="Construct and analyze cubic arc-transitive k-circulant graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("construct-even", help="build the k = 2m family member for (m, p)")
    pe.add_argument("m", type=int)
    pe.add_argument("p", type=int)
    pe.add_argument("--out", help="graph file to write (default: derived name)")
    pe.add_argument("--format", choices=("edgelist", "graph6"), default="edgelist")
    pe.set_defaults(run=functools.partial(cmd_construct, family="even"))

    po = sub.add_parser("construct-odd", help="build the order-6k^2 family member for odd k")
    po.add_argument("k", type=int)
    po.add_argument("--out", help="graph file to write (default: derived name)")
    po.add_argument("--format", choices=("edgelist", "graph6"), default="edgelist")
    po.set_defaults(run=functools.partial(cmd_construct, family="odd"))

    for name, desc in (("analyze", "full symmetry and spectrum analysis"),
                       ("spectrum", "k-circulant spectrum only")):
        pa = sub.add_parser(name, help=desc)
        pa.add_argument("path")
        pa.add_argument("--include-trivial-k", action="store_true",
                        help="keep k = n in reports")
        pa.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP,
                        help=f"enumeration cap (default {DEFAULT_ENUMERATION_CAP})")
        pa.set_defaults(run=functools.partial(cmd_analyze, spectrum_only=name == "spectrum"))

    ps = sub.add_parser("scan", help="scan a directory of graph files")
    ps.add_argument("dir")
    ps.add_argument("--bound-check", action="store_true",
                    help="check the 6k^2 order bound; exit 1 on any violation")
    ps.add_argument("--jobs", type=int, default=1, help="parallel workers (per file)")
    ps.add_argument("--include-trivial-k", action="store_true")
    ps.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)
    ps.add_argument("--timings", action="store_true",
                    help="include elapsed_ms in records (breaks byte-identical output)")
    ps.set_defaults(run=cmd_scan)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    for flag in ("jobs", "cap"):  # counts, on the commands that take them
        value = getattr(args, flag, 1)
        if value < 1:
            print(f"error: --{flag} must be at least 1 (got {value})", file=sys.stderr)
            return 2
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
