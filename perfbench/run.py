#!/usr/bin/env python3
"""Layered pipeline benchmark for circulant-lab.

Run from the repository root:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --workload scan --seed 1 --trace 1

Each workload runs in a fresh child process (this script in child mode),
so that its peak RSS is its own.  ``--trace 0`` measures the named
workload's end-to-end metrics with tracing off, repeating passes for up to
``--seconds``; its times are calibrated against a reference routine (see
calibrate.py).  ``--trace 1`` is the traced run of the whole pipeline:
whatever ``--workload`` names, it runs one untraced and one traced pass of
every workload and reports the per-layer metrics of each, the tracing
overhead and the kernel figures.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The exit
code is 0 when every output check passed, 1 when one failed, and 2 when
the benchmark could not run.  See README.md for the workloads, metrics and
measured shares.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import calibrate
import tracing
import workloads
from kernels import kernel_metrics

WORKLOAD_NAMES = ("ladder", "scan", "queries")
IMPORT_REPS = 5
SETUP_REPS = 3
DEADLINE_S = 170          # for all children together; a run must end within 180 s
WORK_ROOT = Path(".perfbench_work")
UNITS = {"items_per_s": "1/ref_s", "item_p50_ms": "ref_ms", "item_tail_ms": "ref_ms",
         "peak_rss_mb": "MB", "setup_s": "s"}


def tail(samples: list[float]) -> tuple[float, int]:
    """(mean, count) of the slowest tenth of the samples, at least one.

    A mean over the slowest tenth rather than one order statistic: the
    costs of single large graphs move by up to 1.5x with their labelling,
    and one order statistic would move with whichever graph sits there.
    """
    s = sorted(samples, reverse=True)
    count = max(1, len(s) // 10)
    return sum(s[:count]) / count, count


def summarize(passes: list[dict]) -> dict:
    """End-to-end statistics over passes of identical item lists.

    Each item's time is its median over the passes, and items_per_s uses
    the median pass time.  The times are calibrated (calibrate.py), so a
    slow stretch of the host no longer shows as a slow pass; what is left
    is noise either way, and the median takes neither extreme.
    p50 and tail are then taken over the items.
    """
    per_item = []
    for column in zip(*(p["items"] for p in passes)):
        times = [secs for _, secs, _ in column if secs is not None]
        if times:
            per_item.append(statistics.median(times))
    value, count = tail(per_item)
    items = len(passes[0]["items"])
    return {"items": items, "samples": len(per_item),
            "items_per_s": items / statistics.median(p["wall"] for p in passes),
            "item_p50_ms": 1000 * statistics.median(per_item),
            "item_tail_ms": 1000 * value, "tail_count": count}


IMPORT_PROBE = ("import time, calibrate; r0 = calibrate.reference_seconds(); "
                "t = time.perf_counter(); import circulant_lab.cli; "
                "dt = time.perf_counter() - t; r1 = calibrate.reference_seconds(); "
                "print(dt, (r0 + r1) / 2)")


def import_seconds(src: str) -> tuple[float, float]:
    """(plain, calibrated) seconds to import the package in a fresh interpreter.

    The reference routine runs just before and just after the import, in
    the same interpreter, and calibrates it.
    """
    here = str(Path(__file__).resolve().parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, here)))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    secs, ref = map(float, out.stdout.split())
    return secs, secs * calibrate.REF_SECONDS / ref


def measure(pkg, wl, seconds: float, src: str) -> dict:
    """End-to-end run: set-up and a calibrated pass, repeated for up to `seconds`.

    Each pass is preceded by an import in a fresh interpreter and a set-up,
    so that these samples are spread over the run like the passes; the run
    then tops them up to IMPORT_REPS and SETUP_REPS.  setup_s is the
    median import plus the median set-up, both calibrated like the items
    (see calibrate.py); the plain medians are reported beside them.
    """
    cal = wl.clock
    imports, setups, passes = [], [], []
    # another pass starts only if it should end within `seconds`, judged by
    # the last one, so that a run with long passes does not overrun by a pass
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        # garbage left by the last pass would otherwise add to the peak RSS
        # of the next one, so that peak_rss_mb grew with the number of passes
        gc.collect()
        imports.append(import_seconds(src))
        setups.append(timed_prepare(wl, cal))
        cal.start()
        try:
            passes.append(wl.run_pass())
        finally:
            cal.stop()
        now = time.perf_counter()
        if (now - start) + (now - t) > seconds:
            break
    while len(imports) < IMPORT_REPS:
        imports.append(import_seconds(src))
    while len(setups) < SETUP_REPS:
        setups.append(timed_prepare(wl, cal))
    stats = summarize(passes)
    metrics = {k: stats[k] for k in ("items_per_s", "item_p50_ms", "item_tail_ms")}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    median = statistics.median
    metrics["setup_s"] = median(c for _, c in imports) + median(c for _, c in setups)
    refs = sorted(cal.durations)
    return {"passes": passes, "passes_run": len(passes), "stats": stats, "metrics": metrics,
            "import_s": median(c for _, c in imports),
            "plain_setup_s": median(p for p, _ in imports) + median(p for p, _ in setups),
            "imports": len(imports), "setups": len(setups),
            "ref_samples": len(refs), "ref_ms": [1000 * refs[0], 1000 * refs[len(refs) // 2],
                                                 1000 * refs[-1]] if refs else None}


def timed_prepare(wl, cal) -> tuple[float, float]:
    """(plain, calibrated) seconds of one set-up."""
    cal.start()
    try:
        t0 = time.perf_counter()
        wl.prepare()
        t1 = time.perf_counter()
    finally:
        cal.stop()
    return t1 - t0, cal.span(t0, t1)


def traced_run(pkg, wl, tracer, name: str, seed: int) -> dict:
    """Traced run: set-up, one untraced pass, then one traced pass."""
    wl.prepare()
    # kernels are timed on a fresh heap, before any pass
    kernels = kernel_metrics(seed, pkg._kernels, pkg.cli.build_odd) if name == "ladder" else {}
    untraced = wl.run_pass()
    tracer.install(pkg)
    tracer.active = True
    try:
        traced = wl.run_pass()
    finally:
        tracer.active = False
        tracer.uninstall()
    tracer.write(WORK_ROOT / f"trace-{name}-seed{seed}.json")
    layers = {f"{name}.{k}": v
              for k, v in tracing.layer_metrics(tracer, name, wl.skip_frac).items()}
    layers[f"{name}.trace.overhead_ratio"] = traced["wall"] / untraced["wall"]
    layers.update(kernels)
    return {"passes": [untraced, traced], "layers": layers,
            "top_layers": tracer.top_self_times(),
            "traced_wall_s": traced["wall"], "untraced_wall_s": untraced["wall"]}


def run_workload(name: str, seed: int, seconds: float, traced: bool, src: str) -> dict:
    """Set up and run one workload in this process; return its results."""
    import circulant_lab.cli  # noqa: F401  (the package itself does not import cli)
    import circulant_lab as pkg

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        if traced:
            tracer = tracing.Tracer()
            wl = workloads.WORKLOADS[name](pkg, seed, workdir, tracer, calibrate.RawClock())
            result = traced_run(pkg, wl, tracer, name, seed)
        else:
            wl = workloads.WORKLOADS[name](pkg, seed, workdir, None, calibrate.Calibrator())
            result = measure(pkg, wl, seconds, src)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    items = [it for p in result.pop("passes") for it in p["items"]]
    result.update({
        "workload": name, "seed": seed,
        "attempted": len(items),
        "failed": sum(1 for _, _, probs in items if probs),
        "problems": [msg for _, _, probs in items for msg in probs][:20],
        "env": {"backend": pkg._kernels.BACKEND, "python": platform.python_version(),
                "nproc": os.cpu_count()},
    })
    return result


def run_child(name: str, seed: int, seconds: float, traced: bool, deadline: float) -> dict:
    """Run one workload in a fresh interpreter and return its results.

    The child is this script in child mode; it pickles its results to a
    file in WORK_ROOT.  The child is always waited for, and killed first if
    it outlives the deadline, so that no process outlives a run.
    """
    WORK_ROOT.mkdir(exist_ok=True)
    out = WORK_ROOT / f"result-{name}-{os.getpid()}.pkl"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced)),
           "--child-out", str(out)]
    # str hashes set the order of some of the program's set and dict walks,
    # and with them the search path: with random hash seeds one graph's time
    # differed by up to 1.7x between processes.  A fixed hash seed makes the
    # cost of a given input the same in every run.
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, env=env)
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 0))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"workload {name} gave no result before the "
                           f"{DEADLINE_S} s deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    try:
        with open(out, "rb") as f:
            status, payload = pickle.load(f)
    except (OSError, EOFError, pickle.UnpicklingError):
        raise RuntimeError(f"workload {name} exited with code {code} and no result") from None
    finally:
        out.unlink(missing_ok=True)
    if status != "ok":
        raise RuntimeError(f"workload {name} failed:\n{payload}")
    return payload


def child_main(args) -> int:
    """Child mode: run one workload in this process and pickle the outcome."""
    src = str(Path("src").resolve())
    sys.path.insert(0, src)
    try:
        outcome = ("ok", run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace), src))
    except Exception:
        outcome = ("error", traceback.format_exc())
    with open(args.child_out, "wb") as f:
        pickle.dump(outcome, f)
    return 0


def report(res: dict) -> None:
    """Human-readable lines: every metric with its unit and sample counts."""
    env = res["env"]
    print(f"# {res['workload']}  seed {res['seed']}  backend {env['backend']}  "
          f"python {env['python']}  nproc {env['nproc']}")
    if "layers" in res:
        print(f"  one untraced pass {res['untraced_wall_s']:.3f} s, one traced pass "
              f"{res['traced_wall_s']:.3f} s; spans in "
              f"{WORK_ROOT}/trace-{res['workload']}-seed{res['seed']}.json")
        print("  largest self times: " + ", ".join(
            f"{name} {secs:.3f} s ({100 * share:.0f} %)"
            for name, secs, share in res["top_layers"]))
        for key, value in res["layers"].items():
            print(f"  {key:40s} {value:14.6f} {_layer_unit(key)}")
    else:
        s0, m, passes = res["stats"], res["metrics"], res["passes_run"]
        per_item = f"each item its median over {passes} pass(es)"
        print(f"  items_per_s   {m['items_per_s']:12.4f} 1/ref_s  ({s0['items']} items/pass, "
              f"median of {passes} pass(es))")
        print(f"  item_p50_ms   {m['item_p50_ms']:12.4f} ref_ms   (p50 of {s0['samples']} items, "
              f"{per_item})")
        print(f"  item_tail_ms  {m['item_tail_ms']:12.4f} ref_ms   (mean of the slowest "
              f"{s0['tail_count']} of {s0['samples']} items; {per_item})")
        print(f"  peak_rss_mb   {m['peak_rss_mb']:12.4f} MB   (ru_maxrss of the workload process)")
        print(f"  setup_s       {m['setup_s']:12.4f} s    (median of {res['imports']} imports, "
              f"{res['import_s']:.4f} s, + median of {res['setups']} set-ups; "
              f"{res['plain_setup_s']:.4f} s uncalibrated)")
        if res["ref_ms"]:
            lo, mid, hi = res["ref_ms"]
            print(f"  reference     {mid:12.4f} ms   (median of {res['ref_samples']} samples, "
                  f"min {lo:.4f}, max {hi:.4f}; calibrated times take it as "
                  f"{1000 * calibrate.REF_SECONDS:.4f} ms)")
    print(f"  failed_frac   {res['failed'] / res['attempted']:12.4f}      "
          f"({res['failed']} of {res['attempted']} operations)")
    for msg in res["problems"]:
        print(f"  FAILED: {msg}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child-out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not Path("src/circulant_lab/__init__.py").is_file():
        print("error: run from the repository root (src/circulant_lab not found)",
              file=sys.stderr)
        return 2
    if args.child_out:
        return child_main(args)
    traced = bool(args.trace)
    names = WORKLOAD_NAMES if traced or args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S
    results = []
    for name in names:
        try:
            res = run_child(name, args.seed, args.seconds, traced, deadline)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        report(res)
        results.append(res)

    metrics = {}
    for res in results:
        if traced:
            metrics.update({k: {"value": v, "unit": _layer_unit(k)}
                            for k, v in res["layers"].items()})
        else:
            prefix = f"{res['workload']}." if len(results) > 1 else ""
            metrics.update({prefix + k: {"value": v, "unit": UNITS[k]}
                            for k, v in res["metrics"].items()})
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def _layer_unit(key: str) -> str:
    if key.endswith("_us") or "_us." in key:
        return "us"
    if key.endswith("_s"):
        return "s"
    if key.endswith("_frac"):
        return "fraction"
    if key.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
