"""Benchmark worker: a fresh interpreter that imports parafold, then runs one job.

It prints ``ready`` once its imports are done; the time until then is the
set-up time.  It then reads one line from stdin: ``exit``, or a JSON job
``{"workload", "seed", "seconds", "trace", "workdir", "spans_out"}``, runs
it and prints one JSON line of results.

A job takes the workload's first ``BATCH`` operations.  It runs each once
and checks its result; that run is the operation's first sample.  It then
repeats the batch in rounds until ``seconds`` have passed since the job
started.  An operation's time is the fastest of its runs: on a shared host
every call can slow by up to a factor of two for seconds at a time, and the
fastest run of a deterministic call is the figure such phases leave alone.
Some phases last minutes, longer than a run, so the untraced runs also time
``reference()``, a fixed kernel outside parafold, before every
``REF_EVERY``-th operation; ``run.py`` scales the gated times by its
median time in the pass over the batch where that median is lowest.
A traced job spends half the time on untraced rounds and then runs as many
rounds with spans on.  It then runs the workload's near-ray probe, if it
has one, times the CLI as fresh processes (``workloads.cli_probe``) and
times ``import parafold.cli``.
"""

from __future__ import annotations

import itertools
import json
import platform
import resource
import signal
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

import numpy as np
import scipy

import parafold
import parafold.cli  # noqa: F401  (part of the set-up the benchmark measures)

import workloads
from spans import NullTracer, Tracer, layer_totals

LAYERS = ("series", "unfolding", "normal_forms", "model", "disk", "render", "svgfig", "cli")


REF_EVERY = 4


def reference():
    """A fixed kernel outside parafold that gauges the host's speed: complex
    arithmetic in the interpreter, as in the integrator, and small numpy
    convolutions, as in the series kernels (~1.5 ms on a 2.1 GHz Xeon)."""
    z, acc = 0.1 + 0.2j, 0j
    for _ in range(6000):
        z = z * z * 0.5 + 0.3j
        acc += z
    a = np.arange(1, 161) * (1 + 1j)
    for _ in range(120):
        a = np.convolve(a, a[:8])[:160] / 3.0
    return acc, a


def timed_reference(times):
    t0 = time.perf_counter()
    reference()
    times.append(time.perf_counter() - t0)


class OpTimeout(Exception):
    """The operation exceeded its workload's latency limit."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def execute(wl, op, tracer, limit_s=None):
    """``(seconds, result, problem)`` of one call, stopped after ``wl.limit_s``."""
    result = problem = None
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit_s or wl.limit_s)
        try:
            with tracer.span("op." + op["kind"]):
                result = wl.call(op, tracer)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        problem = "timeout"
    except Exception as exc:  # a failing call is a failed operation, not a failed run
        problem = type(exc).__name__
    return time.perf_counter() - t0, result, problem


def check_pass(wl, ops, refs):
    """Run and check every operation once; ``refs`` gets the pass's ``reference()`` times.

    Returns each operation's problem (or None), its oracle infos and its
    time, which counts as its first untraced sample.
    """
    problems, infos, times = [], {}, []
    refs.append([])
    for i, op in enumerate(ops):
        if i % REF_EVERY == 0:
            timed_reference(refs[-1])
        seconds, result, problem = execute(wl, op, NullTracer())
        times.append(seconds)
        if problem is None:
            try:
                infos[i], problem = wl.check(op, result)
            except Exception as exc:  # the oracle itself failed: the run is not valid
                problem = f"unchecked: {type(exc).__name__}: {exc}"
            else:
                problem = None if problem is None else "wrong: " + problem
        problems.append(problem)
    return problems, infos, times


def timed_rounds(wl, ops, problems, tracer, samples, until=None, rounds=None, refs=None):
    """Repeat the operations that have no problem, in order, round after round.

    Stops after ``rounds`` rounds, or before the round that would end past
    the ``until`` clock reading (after at least one).  An operation that
    fails here gets its problem and leaves the rounds.  Appends to the
    timed ``samples`` of each operation, and one list of ``reference()``
    times a round to ``refs`` if given; returns the number of rounds.
    """
    done = 0
    while True:
        t0 = time.perf_counter()
        if refs is not None:
            refs.append([])
        for i, op in enumerate(ops):
            if problems[i] is not None:
                continue
            if refs is not None and i % REF_EVERY == 0:
                timed_reference(refs[-1])
            tracer.op = i
            seconds, _, problem = execute(wl, op, tracer)
            if problem is None:
                samples[i].append(seconds)
            else:
                problems[i] = problem
        done += 1
        now = time.perf_counter()
        if (done == rounds) if rounds is not None else (now + (now - t0) > until):
            return done


def summary(problems, samples, rounds):
    best = [min(s) for s, p in zip(samples, problems) if p is None]
    if not best:
        raise RuntimeError("every operation failed: " + "; ".join(sorted(set(problems))))
    failures, examples = {}, {}
    for problem in problems:
        if problem is not None:
            kind = problem.split(":", 1)[0]
            failures[kind] = failures.get(kind, 0) + 1
            examples.setdefault(kind, problem)
    value, percentile, _ = workloads.tail(best)
    return {
        "attempted": len(problems),
        "failed": sum(failures.values()),
        "unchecked": failures.get("unchecked", 0),
        "failures": failures,
        "failure_examples": examples,
        "rounds": rounds,
        "op_p50_ms": 1e3 * float(np.median(best)),
        "op_tail_ms": 1e3 * value,
        "tail_percentile": percentile,
        "ops_per_s": len(best) / sum(best),
        "op_ms": [1e3 * min(s) if p is None else None for s, p in zip(samples, problems)],
    }


def run_job(job):
    start = time.perf_counter()
    wl = workloads.get(job["workload"])
    ops = list(itertools.islice(wl.ops(job["seed"], job["workdir"]), wl.BATCH))
    traced = bool(job["trace"])
    refs = []
    problems, infos, first = check_pass(wl, ops, refs)
    samples = [[t] for t in first]
    until = start + (job["seconds"] / 2 if traced else job["seconds"])
    rounds = timed_rounds(wl, ops, problems, NullTracer(), samples, until=until, refs=refs)
    out = {"untraced": summary(problems, samples, rounds + 1),
           "reference_s": min(float(np.median(r)) for r in refs if r)}
    if traced:
        tracer = Tracer()
        samples = [[] for _ in ops]
        timed_rounds(wl, ops, problems, tracer, samples, rounds=rounds + 1)
        out["traced"] = summary(problems, samples, rounds + 1)
        tracer.op = None
        in_rounds = len(tracer.spans)
        if hasattr(wl, "near_ray_ops"):
            for op in wl.near_ray_ops(job["seed"]):
                execute(wl, op, tracer, wl.probe_limit_s)
        layers = workloads.cli_probe(job["seed"], job["workdir"], tracer)
        # self time and calls per round of the batch, plus the probes once
        per_round = layer_totals(tracer.spans, last=in_rounds)
        probes = layer_totals(tracer.spans, first=in_rounds)
        for layer in LAYERS:
            busy, calls = per_round.get(layer, (0.0, 0))
            busy_p, calls_p = probes.get(layer, (0.0, 0))
            if calls or calls_p:
                layers[f"{layer}.self_s"] = busy / (rounds + 1) + busy_p
                layers[f"{layer}.calls"] = calls // (rounds + 1) + calls_p
        layers.update(wl.layer_metrics(ops, infos, tracer.spans))
        layers["trace.overhead_ratio"] = out["traced"]["ops_per_s"] / out["untraced"]["ops_per_s"]
        layers["cli.import_s"], layers["cli.import_scipy_s"] = workloads.import_times()
        out["layers"] = layers
        Path(job["spans_out"]).write_text(json.dumps(tracer.spans), encoding="utf-8")
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["versions"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    return out


def main():
    if not Path(parafold.__file__).resolve().is_relative_to(SRC):
        print(f"error: parafold imported from {parafold.__file__}, not {SRC}", file=sys.stderr)
        return 3
    signal.signal(signal.SIGALRM, _on_alarm)
    print("ready", flush=True)
    line = sys.stdin.readline().strip()
    if not line or line == "exit":
        return 0
    print(json.dumps(run_job(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
