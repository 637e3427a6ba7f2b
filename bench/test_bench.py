"""Tests of the benchmark itself: seeded inputs, oracles and span self time.

Run with ``PYTHONPATH=src python3 -m pytest -q bench``.
"""

from __future__ import annotations

import cmath
import itertools
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from spans import Tracer, layer_totals, self_times  # noqa: E402

from parafold.disk import CurveTag  # noqa: E402
from parafold.series import TruncatedSeries  # noqa: E402
from parafold.unfolding import EigenvalueFunction  # noqa: E402

def _plain(value):
    """Comparable form of a generated input."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, TruncatedSeries):
        return ("series", tuple(value.coefficients))
    if isinstance(value, EigenvalueFunction):
        return ("lambda", value.k, tuple(value.lam.coefficients))
    if isinstance(value, CurveTag):
        return ("tag", value.j, tuple(value.pair), value.side)
    return value


def _prefix(name, seed, workdir, n):
    return [_plain(op) for op in itertools.islice(workloads.get(name).ops(seed, workdir), n)]


@pytest.mark.parametrize("name", ["dynamics", "bifurcation", "unfold"])
def test_same_seed_same_inputs(name, tmp_path):
    first = _prefix(name, 7, tmp_path / "a", 40)
    again = _prefix(name, 7, tmp_path / "a", 40)
    other = _prefix(name, 8, tmp_path / "b", 40)
    assert first == again
    assert first != other


def test_same_seed_same_cli_inputs(tmp_path):
    def jobs_and_files(seed, workdir):
        jobs = workloads.cli_jobs(seed, workdir)
        files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
        return jobs, files

    first = jobs_and_files(7, tmp_path / "a")
    assert first == jobs_and_files(7, tmp_path / "a")
    assert first[1] != jobs_and_files(8, tmp_path / "b")[1]
    assert [job[0] for job in first[0]].count("malformed") == 3


def test_dynamics_inputs_avoid_homoclinic_rays():
    from parafold.model import ModelField, is_homoclinic

    wl = workloads.get("dynamics")
    batch = list(itertools.islice(wl.ops(3, None), wl.BATCH))
    for op in batch + wl.near_ray_ops(3):
        assert not is_homoclinic(ModelField(op["k"], op["eps"]))[0]
        assert 0.5 <= abs(op["eps"]) <= 1.0
    for op in batch:
        assert 0.25 * math.pi / op["k"] <= op["delta"] <= 0.75 * math.pi / op["k"]
    assert all(1e-8 <= op["delta"] < 1e-1 for op in wl.near_ray_ops(3))


@pytest.mark.parametrize("name", ["dynamics", "bifurcation", "unfold"])
def test_every_seed_gives_the_same_mix(name):
    wl = workloads.get(name)

    def strata(seed):
        ops = itertools.islice(wl.ops(seed, None), wl.BATCH)
        return [(op["kind"], op["k"], op.get("order")) for op in ops]

    assert strata(5) == strata(6)
    # every kind meets every k (validate only its own)
    assert {(kind, k) for kind, k, _ in strata(5)} == {
        (kind, k) for kind in wl.KINDS for k in (wl.VALIDATE_K if kind == "validate" else wl.K_RANGE)}


def test_timed_rounds_take_the_fastest_run_and_drop_failures():
    import worker
    from spans import NullTracer

    class Fake:
        limit_s = 1.0
        BATCH = 3
        calls = {}

        def call(self, op, tracer):
            n = self.calls[op["kind"]] = self.calls.get(op["kind"], 0) + 1
            if op["kind"] == "flaky" and n == 2:
                raise ArithmeticError()
            return op["kind"]

        def check(self, op, result):
            return {}, None if op["kind"] != "wrong" else "wrong value"

    wl = Fake()
    ops = [{"kind": "fine"}, {"kind": "flaky"}, {"kind": "wrong"}]
    refs = []
    problems, _, first = worker.check_pass(wl, ops, refs)
    assert problems == [None, None, "wrong: wrong value"]
    samples = [[t] for t in first]
    assert worker.timed_rounds(wl, ops, problems, NullTracer(), samples, rounds=3, refs=refs) == 3
    assert problems[1] == "ArithmeticError"
    assert [len(s) for s in samples] == [4, 1, 1]
    # the reference runs before every REF_EVERY-th operation, in each pass
    assert worker.REF_EVERY > 1 and [len(r) for r in refs] == [1, 1, 1, 1]
    out = worker.summary(problems, samples, 4)
    assert (out["attempted"], out["failed"]) == (3, 2)
    assert out["op_p50_ms"] == pytest.approx(1e3 * min(samples[0]))


def test_gated_times_scale_with_the_reference():
    import run

    untraced = {"op_p50_ms": 10.0, "op_tail_ms": 100.0, "ops_per_s": 20.0,
                "failed": 1, "attempted": 4}
    at_speed = run.gated(untraced, run.REFERENCE_S, [0.5, 0.7, 0.6], 80.0)
    assert at_speed == {"setup_s": 0.6, "op_p50_ms": 10.0, "op_tail_ms": 100.0,
                        "ops_per_s": 20.0, "ok_ratio": 0.75, "peak_rss_mb": 80.0}
    slow_host = run.gated(untraced, 2 * run.REFERENCE_S, [0.6], 80.0)
    assert slow_host["op_p50_ms"] == pytest.approx(5.0)
    assert slow_host["ops_per_s"] == pytest.approx(40.0)


def _first(name, kind, seed=1, workdir=None):
    wl = workloads.get(name)
    op = next(op for op in wl.ops(seed, workdir) if op["kind"] == kind)
    return wl, op


def test_unfold_oracle_rejects_perturbed_round_trip():
    wl, op = _first("unfold", "roundtrip")
    result = wl.call(op, Tracer())
    assert wl.check(op, result)[1] is None
    c = result.lam.coefficients.copy()
    c[op["k"] + 3] += 1e-7
    bad = EigenvalueFunction(op["k"], TruncatedSeries(c))
    assert "round trip" in wl.check(op, bad)[1]


def test_unfold_oracle_rejects_perturbed_series_identity():
    wl, op = _first("unfold", "series")
    prod, rec, comp, rev, root = wl.call(op, Tracer())
    assert wl.check(op, (prod, rec, comp, rev, root))[1] is None
    c = rev.coefficients.copy()
    c[5] *= 1.0 + 1e-6
    assert "reversion" in wl.check(op, (prod, rec, comp, TruncatedSeries(c), root))[1]


def test_dynamics_oracle_rejects_wrong_trunk_and_short_separatrix():
    wl, op = _first("dynamics", "ds_invariant", seed=2)
    op = dict(op, eps=cmath.exp(1j * math.pi / 6), k=3)  # halfway between two rays
    inv = wl.call(op, Tracer())
    assert wl.check(op, inv)[1] is None
    # walking around the square of singular points turns back on itself
    assert "zig-zag" in wl.check(op, replace(inv, order=(0, 1, 2, 3)))[1]

    op = dict(op, kind="separatrices")
    seps = wl.call(op, Tracer())
    assert wl.check(op, seps)[1] is None
    seps[0].points = seps[0].points[:-20]
    info, problem = wl.check(op, seps)
    assert problem == "1 separatrices did not land"
    assert info["landed"] == 2 * op["k"] - 1


def test_bifurcation_oracle_rejects_wrong_exponent():
    wl, op = _first("bifurcation", "trace_curve")
    curve, residuals = wl.call(op, Tracer())
    assert wl.check(op, (curve, residuals))[1] is None
    curve.fitted_exponent += 0.1
    assert "exponent" in wl.check(op, (curve, residuals))[1]


def test_cli_oracle_rejects_changed_output_and_exit_code(tmp_path):
    job = next(job for job in workloads.cli_jobs(1, tmp_path) if job[0] == "canon")
    reference = {}
    ok = SimpleNamespace(returncode=0, stdout=b"{}\n")
    assert workloads.cli_problem(job, ok, reference) is None
    changed = SimpleNamespace(returncode=0, stdout=b"{ }\n")
    assert "differs" in workloads.cli_problem(job, changed, reference)
    failed = SimpleNamespace(returncode=3, stdout=b"{}\n")
    assert "exit code" in workloads.cli_problem(job, failed, reference)


def test_self_time_is_duration_minus_covered_children():
    # name, start, end, parent, op, error; children 1 and 2 overlap on [3, 4]
    spans = [
        ["op.x", 0.0, 10.0, None, 0, None],
        ["model.a", 1.0, 4.0, 0, 0, None],
        ["model.b", 3.0, 6.0, 0, 0, None],
        ["series.c", 8.0, 12.0, 0, 0, None],  # runs past its parent: clipped
        ["series.d", 2.0, 2.5, 1, 0, None],
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - (5.0 + 2.0))
    assert own[1] == pytest.approx(3.0 - 0.5)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(0.5)
    totals = layer_totals(spans)
    assert totals["model"] == (pytest.approx(5.5), 2)
    assert totals["op"][1] == 1
    # a part of the spans keeps the self times worked out from all of them
    assert layer_totals(spans, first=4) == {"series": (pytest.approx(0.5), 1)}
    assert layer_totals(spans, last=1) == {"op": (pytest.approx(3.0), 1)}


def test_tracer_records_nesting_op_and_error():
    tracer = Tracer()
    tracer.op = 4
    with pytest.raises(ZeroDivisionError):
        with tracer.span("op.k"):
            with tracer.span("series.mul"):
                pass
            with tracer.span("series.reciprocal"):
                1 / 0
    names = [s[0] for s in tracer.spans]
    assert names == ["op.k", "series.mul", "series.reciprocal"]
    assert [s[3] for s in tracer.spans] == [None, 0, 0]
    assert {s[4] for s in tracer.spans} == {4}
    assert [s[5] for s in tracer.spans] == ["ZeroDivisionError", None, "ZeroDivisionError"]
    assert all(s[2] >= s[1] for s in tracer.spans)


def test_tail_has_ten_samples_beyond():
    values = list(range(100))
    value, percentile, n = workloads.tail(values)
    assert sum(v > value for v in values) == 10
    assert percentile == pytest.approx(90.0) and n == 100
    assert workloads.tail([3, 1, 2])[0] == 3


def test_run_refuses_a_tree_without_sources(tmp_path):
    bench = Path(__file__).resolve().parent
    (tmp_path / "bench").mkdir()
    for f in ("run.py", "worker.py", "workloads.py", "spans.py"):
        (tmp_path / "bench" / f).write_bytes((bench / f).read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((bench.parent / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "unfold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
