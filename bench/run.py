"""parafold benchmark: end-to-end and per-layer metrics of three workloads.

One run (the form ``BENCHMARK.json`` declares)::

    python3 bench/run.py --workload dynamics --seed 1 --seconds 35 --trace 0

starts fresh worker interpreters (see ``worker.py``) from the ``src/`` tree
next to this directory, times their set-up, runs the workload as a closed
loop with one client for ``--seconds`` and prints a table and, as its last
line, the JSON result.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones from traced rounds.

Every workload untraced over several seeds, then traced once, with a
comparison against an earlier result file::

    python3 bench/run.py --all --seeds 1 2 3 --out .bench_out/new.json \\
        --compare .bench_out/old.json
    python3 bench/run.py --compare .bench_out/old.json .bench_out/new.json

Raw results and spans go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_STARTS = 5
#: time of ``worker.reference()`` (median of a pass, in its fastest pass) on
#: a 2-vCPU Xeon at 2.1 GHz when its host was not contended; gated times are
#: scaled to this host speed
REFERENCE_S = 1.6e-3
#: the run is abandoned (non-zero exit) if a worker takes longer than this
RUN_LIMIT_S = 170.0


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_worker():
    """A fresh worker and the seconds until it reported ``ready``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT,
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not start (exit code {proc.returncode})")
    return proc, ready


def finish(proc, message, timeout):
    try:
        out, _ = proc.communicate(message + "\n", timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "parafold").glob("*.py")))


def run_once(workload, seed, seconds, trace):
    """One run: set-up timed over fresh workers, then the job in the last one."""
    t_start = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    setups = []
    for n in range(SETUP_STARTS):
        proc, ready = start_worker()
        setups.append(ready)
        if n < SETUP_STARTS - 1:
            finish(proc, "exit", timeout=30)
    tag = f"{workload}-s{seed}-t{int(trace)}"
    job = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "workdir": str(OUT / f"work-{tag}"), "spans_out": str(OUT / f"spans-{tag}.json"),
    }
    remaining = RUN_LIMIT_S - (time.perf_counter() - t_start)
    raw = json.loads(finish(proc, json.dumps(job), timeout=remaining).strip().splitlines()[-1])
    phase = raw["traced" if trace else "untraced"]
    end_to_end = gated(raw["untraced"], raw["reference_s"], setups, raw["peak_rss_mb"])
    layers = dict(raw.get("layers", {}), **{"repo.src_lines": src_lines()})
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "attempted": phase["attempted"], "failed": phase["failed"],
        "unchecked": phase["unchecked"],
        "fail_ratio": phase["failed"] / phase["attempted"],
        "failures": phase["failures"], "failure_examples": phase["failure_examples"],
        "tail_percentile": phase["tail_percentile"], "rounds": phase["rounds"],
        "setup_samples_s": setups, "reference_s": raw["reference_s"],
        "versions": raw["versions"], "end_to_end": end_to_end, "layers": layers,
        "untraced": raw["untraced"],
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return result


def gated(untraced, reference_s, setups, peak_rss_mb):
    """The end-to-end metrics of one run.

    Operation times are scaled by ``REFERENCE_S / reference_s``: a host
    that runs the reference kernel 1.4x slower for the whole run slows the
    operations about as much, and the scaled times stay put.  A change to
    parafold does not touch the reference kernel, so it moves them in full.
    """
    scale = REFERENCE_S / reference_s
    return {
        "setup_s": statistics.median(setups),
        "op_p50_ms": untraced["op_p50_ms"] * scale,
        "op_tail_ms": untraced["op_tail_ms"] * scale,
        "ops_per_s": untraced["ops_per_s"] / scale,
        "ok_ratio": 1.0 - untraced["failed"] / untraced["attempted"],
        "peak_rss_mb": peak_rss_mb,
    }


def report(result, spec):
    """The table and the final JSON line of one run."""
    trace = result["trace"]
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = result["layers"] if trace else result["end_to_end"]
    raw = result["untraced"]
    notes = {
        "setup_s": f"median of {SETUP_STARTS} fresh workers",
        "op_p50_ms": f"{raw['op_p50_ms']:.4g} ms unscaled; {result['attempted']} ops, "
                     f"each timed as the fastest of {result['rounds']} rounds",
        "op_tail_ms": f"{raw['op_tail_ms']:.4g} ms unscaled; "
                      f"p{result['tail_percentile']:.1f} of {result['attempted']} ops",
        "ops_per_s": f"{raw['ops_per_s']:.4g} 1/s unscaled",
        "ok_ratio": f"fail_ratio {result['fail_ratio']:.4f}: "
                    f"{result['failed']} failed of {result['attempted']} attempted",
    }
    print(f"parafold benchmark  workload={result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']} trace={trace}")
    print("  versions: " + ", ".join(f"{k} {v}" for k, v in result["versions"].items())
          + f"; repo.src_lines {result['layers']['repo.src_lines']}")
    print(f"  host reference: fastest run {1e3 * result['reference_s']:.4g} ms, "
          f"times scaled to {1e3 * REFERENCE_S:.4g} ms")
    metrics = {}
    for m in declared:
        # a layer the workload does not exercise reads 0
        value = values.get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        shown = f"{value:.6g}" if m["name"] in values else "n/a (0)"
        note = notes.get(m["name"], "")
        print(f"  {m['name']:<40s} {shown:>14s} {m['unit']:<6s} {note}")
    if result["failures"]:
        print("  failures: " + "; ".join(f"{k} x{n}" for k, n in result["failures"].items()))
        for kind, example in result["failure_examples"].items():
            print(f"    e.g. {example}")
    missing = [m["name"] for m in declared if m["name"] not in values]
    if not trace and missing:
        raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    line = {"correct": result["unchecked"] == 0, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics}
    print(json.dumps(line))


def spread(values):
    """Interquartile distance over the median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def run_all(spec, seeds, seconds):
    summary = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    for wl in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            res = run_once(wl, seed, seconds, trace=False)
            report(res, spec)
            runs.append(res)
        traced = run_once(wl, seeds[0], seconds, trace=True)
        report(traced, spec)
        row = {"runs": [r["end_to_end"] for r in runs], "attempted": [r["attempted"] for r in runs],
               "failed": [r["failed"] for r in runs], "median": {}, "spread": {},
               "layers": traced["layers"]}
        for m in spec["end_to_end"]:
            vals = [r["end_to_end"][m["name"]] for r in runs]
            row["median"][m["name"]] = statistics.median(vals)
            row["spread"][m["name"]] = spread(vals)
        summary["workloads"][wl] = row
        summary["versions"] = traced["versions"]
    print_summary(summary, spec)
    return summary


def print_summary(summary, spec):
    print(f"\nmedians over seeds {summary['seeds']} ({summary['seconds']} s per run); "
          "spread = interquartile distance / median")
    for wl, row in summary["workloads"].items():
        cells = [f"{m['name']} {row['median'][m['name']]:.4g} {m['unit']} "
                 f"(±{100 * row['spread'][m['name']]:.1f}%)" for m in spec["end_to_end"]]
        print(f"  {wl:<12s} " + ", ".join(cells)
              + f"; attempted {sum(row['attempted'])}, failed {sum(row['failed'])}")


def compare(old, new, spec):
    """One row per workload: each metric's change, marked against its bound."""
    print("\nchange from the previous result (worse/better beyond the bound; "
          "unresolved where a spread exceeds it, unless every new run is better)")
    for wl, row in new["workloads"].items():
        if wl not in old["workloads"]:
            print(f"  {wl:<12s} not in the previous result")
            continue
        prev = old["workloads"][wl]
        cells = []
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a, b = prev["median"][name], row["median"][name]
            change = (b - a) / a if a else 0.0
            sign = 1 if m["better"] == "lower" else -1  # > 0 is worse
            worse = sign * change
            old_runs = [sign * r[name] for r in prev["runs"]]
            new_runs = [sign * r[name] for r in row["runs"]]
            if max(prev["spread"][name], row["spread"][name]) > bound:
                every_run_better = max(new_runs) < min(old_runs)
                verdict = "better (every run)" if every_run_better else "unresolved"
            elif worse > bound:
                verdict = "WORSE"
            elif worse < -bound:
                verdict = "better"
            else:
                verdict = "same"
            cells.append(f"{name} {100 * change:+.1f}% {verdict}")
        print(f"  {wl:<12s} " + ", ".join(cells))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--out", help="result file of --all")
    parser.add_argument("--compare", nargs="+", metavar="FILE",
                        help="previous result file (and a new one, without --all)")
    args = parser.parse_args(argv)
    if not (SRC / "parafold" / "__init__.py").is_file():
        print(f"error: no parafold sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload:
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            parser.error(f"unknown workload {args.workload!r}")
        report(run_once(args.workload, args.seed, seconds, bool(args.trace)), spec)
        return 0
    if args.all:
        summary = run_all(spec, args.seeds, seconds)
        if args.out:
            Path(args.out).write_text(json.dumps(summary, indent=1), encoding="utf-8")
        if args.compare:
            compare(json.loads(Path(args.compare[0]).read_text()), summary, spec)
        return 0
    if args.compare and len(args.compare) == 2:
        old, new = (json.loads(Path(p).read_text()) for p in args.compare)
        compare(old, new, spec)
        return 0
    parser.error("give --workload, --all, or --compare OLD NEW")


if __name__ == "__main__":
    sys.exit(main())
