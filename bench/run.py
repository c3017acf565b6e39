"""The srknots benchmark: seeded CLI workloads, timed in-process, checked afterwards.

    python3 bench/run.py --workload classify_products --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --probes

Run from the repository root; the program is imported from ./src.  One
client sends each request of the workload's list to `srknots.cli.main`
and waits for the answer (a closed loop, no threads).  The list is sent in
passes, each pass in a fresh child process, one child at a time, so every
pass starts with the program's caches cold, as a command-line user finds
them.  Passes repeat until --seconds have gone by (at least three).

With --trace 0 the run reports the end-to-end metrics.  A request's
latency is its minimum over the passes, since load from other tenants of
the machine only adds time.  These give throughput_rps (requests over the
sum of their latencies), latency_p50_ms and latency_p90_ms.  peak_rss_mb
and setup_s (child start to first request) are medians over the passes.
With --trace 1 it runs one traced pass and one untraced pass and reports
the per-layer metrics of `layers.py`.  Either way every output is checked
against answers worked out without `srknots` (`checks.py`), and the last
line of stdout is one JSON object.  --probes runs the pathological rows
once each under a wall-clock and memory limit; they are not workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

MIN_PASSES = 3
# A run stops starting passes after this long, and kills one still running
# after PASS_DEADLINE_S, so it ends well inside the 180 s a run may take.
START_DEADLINE_S = 100.0
PASS_DEADLINE_S = 140.0
# A request whose median latency is above this counts as failed.
LATENCY_LIMIT_S = {"classify_products": 10.0, "classify_wide": 5.0, "paper_grid": 5.0}

PROBE_LIMIT_S = 55
PROBE_MEMORY_BYTES = 2 << 30
# One random 5-factor product with m <= 4, |l| <= 4, drawn once with
# random.Random(5) from the non-unit triples and kept fixed.
FIVE_FACTORS = ((2, 1, 1), (3, -4, 2), (4, -4, 0), (4, -1, 0), (4, 0, 2))
PROBES = (
    ("five_factors_m4_l4", None),
    ("trinomial_t40000", ("sr", "classify", "--poly", "1 - t^20000 + t^40000")),
    ("trinomial_t200000", ("sr", "classify", "--poly", "1 - t^100000 + t^200000")),
)


# -- the child: one pass over the request list ---------------------------------------


def _import_program():
    if not (SRC / "srknots" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import srknots.cli

    if Path(srknots.cli.__file__).resolve().parents[1] != SRC:
        sys.exit(f"error: srknots imported from {srknots.cli.__file__}, not {SRC}")
    return srknots.cli


def _send(main, argv) -> tuple[float, object, str]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed request, not a failed run
            code = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, out.getvalue()


def child_pass(workload: str, seed: int, traced: bool) -> None:
    """Run the list once and write latencies, exit codes and outputs as JSON."""
    cli = _import_program()
    requests = workloads.build(workload, seed, ROOT)
    tracer = None
    if traced:
        import layers

        tracer = layers.Tracer()
        tracer.install()
    ready = time.perf_counter()
    lat, codes, outs = [], [], []
    for req in requests:
        seconds, code, out = _send(cli.main, req.argv)
        lat.append(seconds)
        codes.append(code)
        outs.append(out)
    result = {
        "ready": ready,
        "lat": lat,
        "codes": codes,
        "outputs": outs,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
    json.dump(result, sys.stdout)


def _run_child(args: list[str], timeout: float) -> tuple[float, dict | None, str]:
    """Run this script as a child; (spawn time, its JSON or None, how it ended)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve())] + args,
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return spawned, None, f"timeout after {timeout:.0f} s"
    if proc.returncode != 0:
        sys.stderr.write(err)
        return spawned, None, f"exit code {proc.returncode}: {err.strip()[-120:]}"
    return spawned, json.loads(out), "ok"


# -- the parent: passes, metrics, checks ---------------------------------------------


def _digest(outputs: list[str]) -> str:
    return hashlib.sha256("".join(outputs).encode()).hexdigest()


def _quantiles(values: list[float]) -> tuple[float, float]:
    deciles = statistics.quantiles(values, n=10)
    return statistics.median(values), deciles[8]


def _histogram(values, edges) -> dict:
    """Counts per bin; a bin is named by its upper edge, the last by '>' its lower edge."""
    out = Counter()
    for v in values:
        label = next((f"<={e}" for e in edges if v <= e), f">{edges[-1]}")
        out[label] += 1
    return dict(sorted(out.items(), key=lambda kv: (kv[0][0] == ">", int(kv[0].lstrip("<=>")))))


def _candidate_counts(spans) -> dict:
    """Fusion triples with 2 <= factor span <= S, and their distinct factors, per span S."""
    import polys

    factors = [(max(f), polys.key(f)) for _, f in polys.fusion_factors_up_to(max(spans))]
    out = {}
    for span in sorted(set(spans)):
        inside = [k for width, k in factors if width <= span]
        out[str(span)] = {"triples": len(inside), "distinct_polys": len(set(inside))}
    return out


def _record(workload: str, seed: int, requests, digest: str) -> dict:
    import polys

    rec = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
        "requests": len(requests),
        "kinds": dict(Counter(r.kind for r in requests)),
        "stdout_sha256": digest,
    }
    if workload == "classify_products":
        spans = [max(polys.normal(polys.parse(r.argv[-1]))) for r in requests]
        rec["span_histogram"] = _histogram(spans, (8, 16, 24, 32))
        rec["factor_counts"] = dict(sorted(Counter(
            len(r.data["factors"]) for r in requests if r.kind == "product").items()))
        rec["candidates_per_span"] = _candidate_counts(spans)
    elif workload == "classify_wide":
        wide = [r.data["poly"] for r in requests]
        rec["span_histogram"] = _histogram([max(p) for p in wide], (1000, 2000, 4000, 8000))
        rec["delta2_bits_histogram"] = _histogram(
            [polys.odd_part(polys.value(p, 2)).bit_length() for p in wide], (1024, 2048, 4096, 8192))
    else:
        sizes = [len(r.data["eps"]) + abs(r.data["l"]) for r in requests if r.kind == "check"]
        rec["check_size_histogram"] = _histogram(sizes, (4, 6, 8, 9))
        rec["alexander_sizes"] = dict(sorted(Counter(
            len(r.data["matrix"]) for r in requests if r.kind == "alexander").items()))
        rec["scan_boxes"] = [f"{r.data['family']}:{r.data['bounds']}" for r in requests if r.kind == "scan"]
    return rec


def _check_outputs(workload, seed, requests, first, passes) -> tuple[list, list]:
    """Per-request failure reasons, plus run-level ones (outputs differing between passes)."""
    import checks

    table_rows = len(workloads.read_table(ROOT))
    reasons = checks.check(workload, requests, first["outputs"], first["codes"], seed, table_rows)
    run_level = []
    digest = _digest(first["outputs"])
    for p in passes[1:]:
        if _digest(p["outputs"]) != digest:
            run_level.append("stdout differs between passes of the same list")
    return reasons, run_level


def _failure_lines(requests, reasons, run_level, shown=10) -> list[str]:
    bad = [(i, r) for i, r in enumerate(reasons) if r]
    lines = [f"FAILED request {i} {' '.join(requests[i].argv)[:80]}: {r}" for i, r in bad[:shown]]
    if len(bad) > shown:
        lines.append(f"FAILED ... and {len(bad) - shown} more requests")
    return lines + [f"FAILED run: {r}" for r in run_level]


def _print_result(correct, attempted, failed, metrics, lines) -> None:
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def run_untraced(workload: str, seed: int, seconds: float) -> None:
    requests = workloads.build(workload, seed, ROOT)
    start = time.perf_counter()
    passes, setups = [], []
    lost_pass = False
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        elapsed = time.perf_counter() - start
        if elapsed > START_DEADLINE_S:
            break
        spawned, result, _ = _run_child(["--pass", workload, str(seed), "0"], PASS_DEADLINE_S - elapsed)
        if result is None:
            lost_pass = True
            break
        setups.append(result["ready"] - spawned)
        passes.append(result)
    n = len(requests)
    if not passes:
        _print_result(False, n, n, {}, ["no pass finished"])
        return
    best = [min(p["lat"][i] for p in passes) for i in range(n)]
    p50, p90 = _quantiles(best)
    reasons, run_level = _check_outputs(workload, seed, requests, passes[0], passes)
    limit = LATENCY_LIMIT_S[workload]
    for i, lat in enumerate(best):
        if reasons[i] is None and lat > limit:
            reasons[i] = f"latency {lat:.2f} s over the {limit} s limit"
    failed = sum(r is not None for r in reasons)
    beyond = sum(v > p90 for v in best)
    lines = [
        f"workload={workload} seed={seed} requests={n} passes={len(passes)} "
        f"latency_samples={n} beyond_p90={beyond}",
        f"failed_ratio = {failed / n} ratio",
        f"cold_pass_s = {sum(passes[0]['lat'])} s",
        "record " + json.dumps(_record(workload, seed, requests, _digest(passes[0]["outputs"]))),
    ]
    lines += _failure_lines(requests, reasons, run_level)
    if lost_pass:
        lines.append("FAILED run: a pass crashed or overran its deadline")
    metrics = {
        "throughput_rps": (n / sum(best), "1/s"),
        "latency_p50_ms": (p50 * 1000, "ms"),
        "latency_p90_ms": (p90 * 1000, "ms"),
        "peak_rss_mb": (statistics.median(p["rss_kb"] for p in passes) / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    correct = failed == 0 and not run_level and not lost_pass
    _print_result(correct, n, failed, metrics, lines)


def run_traced(workload: str, seed: int) -> None:
    import layers

    requests = workloads.build(workload, seed, ROOT)
    n = len(requests)
    _, plain, _ = _run_child(["--pass", workload, str(seed), "0"], PASS_DEADLINE_S / 2)
    _, traced, _ = _run_child(["--pass", workload, str(seed), "1"], PASS_DEADLINE_S / 2)
    if plain is None or traced is None:
        _print_result(False, n, n, {}, ["FAILED run: a pass crashed or overran its deadline"])
        return
    reasons, run_level = _check_outputs(workload, seed, requests, traced, [traced, plain])
    failed = sum(r is not None for r in reasons)
    values = dict(traced["layers"])
    values["trace.overhead_ratio"] = sum(plain["lat"]) / sum(traced["lat"])
    absent = sorted(k for k, v in values.items() if v is None)
    metrics = {k: (values[k] or 0, unit) for k, unit in layers.METRICS}
    lines = [
        f"workload={workload} seed={seed} requests={n} traced_pass_s={sum(traced['lat'])} "
        f"untraced_pass_s={sum(plain['lat'])}",
        f"absent = {','.join(absent) or 'none'}",
        "record " + json.dumps(_record(workload, seed, requests, _digest(traced["outputs"]))),
    ]
    lines += _failure_lines(requests, reasons, run_level)
    _print_result(failed == 0 and not run_level, n, failed, metrics, lines)


# -- pathological probes --------------------------------------------------------------


def _probe_argv(index: int) -> tuple:
    name, argv = PROBES[index]
    if argv is None:
        import polys

        text = polys.fmt(workloads.product_poly(FIVE_FACTORS))
        argv = ("sr", "classify", "--poly", text)
    return argv


def child_probe(index: int) -> None:
    resource.setrlimit(resource.RLIMIT_AS, (PROBE_MEMORY_BYTES, PROBE_MEMORY_BYTES))
    cli = _import_program()
    seconds, code, out = _send(cli.main, _probe_argv(index))
    json.dump({"seconds": seconds, "code": code, "stdout": out[:200]}, sys.stdout)


def run_probes() -> None:
    rows = []
    for index, (name, _) in enumerate(PROBES):
        _, result, ended = _run_child(["--probe", str(index)], PROBE_LIMIT_S)
        if result is None:
            row = {"probe": name, "status": ended}
        else:
            status = "ok" if result["code"] == 0 else f"error ({result['code']})"
            row = {"probe": name, "status": status, "seconds": result["seconds"],
                   "stdout": result["stdout"]}
        print(json.dumps(row))
        rows.append(row)
    print(json.dumps({"probes": rows, "python": platform.python_version(), "nproc": os.cpu_count()}))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probes", action="store_true", help="run the pathological rows")
    parser.add_argument("--pass", dest="child", nargs=3, help=argparse.SUPPRESS)
    parser.add_argument("--probe", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        workload, seed, traced = args.child
        child_pass(workload, int(seed), traced == "1")
        return
    if args.probe is not None:
        child_probe(args.probe)
        return
    if not (SRC / "srknots" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {SRC}; run from a full checkout")
    if args.probes:
        run_probes()
    elif args.workload is None:
        parser.error("--workload is required")
    else:
        # "all" runs every workload in turn, each ending in its own JSON line.
        for workload in workloads.WORKLOADS if args.workload == "all" else (args.workload,):
            if args.trace:
                run_traced(workload, args.seed)
            else:
                run_untraced(workload, args.seed, args.seconds)


if __name__ == "__main__":
    main()
