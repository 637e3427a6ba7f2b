import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import run_main
from parafold.series import BivariateSeries, TruncatedSeries
from parafold.unfolding import EigenvalueFunction, FamilySpec, realize


def run_cli(args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "parafold.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=600,
    )


@pytest.fixture(scope="module")
def family_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("families")
    k = 2
    model_name = root / "model.json"
    c = np.zeros((22, 2), dtype=complex)
    c[k + 1, 0] = 1.0
    c[0, 1] = -1.0
    model_name.write_text(json.dumps(FamilySpec(k=k, omega=BivariateSeries(c)).to_dict()))

    sig_yes = TruncatedSeries(np.r_[1.0, 0.0, 0.0, 1.0, np.zeros(16)])  # 1 + z^{k+1}
    yes_spec = realize(EigenvalueFunction(k, ((k + 1) * sig_yes).shift_up(k)))
    yes_name = root / "model_equivalent.json"
    yes_name.write_text(json.dumps(yes_spec.to_dict()))

    sig_no = TruncatedSeries(np.r_[1.0, 1.0, np.zeros(18)])  # 1 + z
    no_spec = realize(EigenvalueFunction(k, ((k + 1) * sig_no).shift_up(k)))
    no_name = root / "not_model.json"
    no_name.write_text(json.dumps(no_spec.to_dict()))

    lam_name = root / "lambda.json"
    lam_name.write_text(
        json.dumps(EigenvalueFunction(k, ((k + 1) * sig_no).shift_up(k)).to_dict())
    )
    files = {
        "model": str(model_name),
        "yes": str(yes_name),
        "no": str(no_name),
        "lam": str(lam_name),
        "root": root,
    }
    return files


def test_import_leaves_scipy_unloaded():
    # rectify is a closed form, and trace_curve finds its roots without scipy
    code = (
        "import sys, parafold.cli; "
        "from parafold.disk import group_tags, trace_curve; "
        "from parafold.model import ModelField, rectify; "
        "loaded = lambda: [m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules]; "
        "print(loaded()); "
        "trace_curve(2, 1.0, group_tags(2, 0)[1], decades=(1e-3, 1e-2), per_decade=3); "
        "rectify(ModelField(2, 0.3), 1.1 + 0.2j); "
        "print(loaded())"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split("\n")[:2] == ["[]", "[]"]


def _last_flag(argv):
    """The last option of ``argv``: the malformed one in each case below."""
    return next(a for a in reversed(argv) if a.startswith("--"))


class TestExitCodes:
    def test_usage_error(self):
        assert run_cli(["portrait", "--k", "2"]).returncode == 2

    def test_unknown_command(self):
        assert run_cli(["frobnicate"]).returncode == 2

    def test_numerical_failure(self, tmp_path):
        # star with r below the root disk: the tangency solve, run before
        # the eyelets, names the condition on r
        out = tmp_path / "x.svg"
        res = run_cli(["star", "--k", "2", "--eps", "1", "--r", "0.5", "--out", str(out)])
        assert res.returncode == 3
        assert "tangencies need r^3 > |eps|" in res.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["star", "--k", "700", "--eps", "1", "--r", "3"],
            ["star", "--k", "2", "--eps", "1", "--r", "1e200"],
            ["star", "--k", "3", "--eps", "1e300", "--r", "1e80"],
            ["bifdiagram", "--k", "2", "--r", "1e200"],
            ["bifdiagram", "--k", "2", "--r", "1e-200"],
        ],
        ids=" ".join,
    )
    def test_radius_power_out_of_range(self, argv, tmp_path, monkeypatch):
        # r^{k+1} overflows or underflows a float: one error line, no
        # traceback or numpy warning
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = run_main([*argv, "--out", "x.svg"])
        assert code == 3
        assert err.count("\n") == 1
        assert err.startswith("error: r^") and "is not a finite positive float" in err
        assert not (tmp_path / "x.svg").exists()

    def test_gon_out_of_range(self, tmp_path, monkeypatch):
        # at k = 30 the period-gon of |eps| = 1e-320 overflows a float: one
        # error line naming k and |eps|, no numpy warning and no figure
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = run_main(["star", "--k", "30", "--eps", "1e-320i", "--r", "1", "--out", "x.svg"])
        assert code == 3
        assert err.count("\n") == 1
        assert err.startswith("error: the period-gon overflows") and "k = 30, |eps| = " in err
        assert not (tmp_path / "x.svg").exists()

    def test_semantic_mismatch(self, family_files, tmp_path):
        other = tmp_path / "k3.json"
        c = np.zeros((10, 2), dtype=complex)
        c[4, 0] = 1.0
        c[0, 1] = -1.0
        other.write_text(json.dumps(FamilySpec(k=3, omega=BivariateSeries(c)).to_dict()))
        res = run_cli(["classify", family_files["model"], str(other)])
        assert res.returncode == 4

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        res = run_cli(["classify", str(bad), str(bad)])
        assert res.returncode == 2

    def test_empty_decades(self, tmp_path):
        res = run_cli(
            ["bifdiagram", "--k", "2", "--r", "1", "--decades", "1e-2", "1e-2",
             "--out", str(tmp_path / "b.svg")]
        )
        assert res.returncode == 2

    def test_option_before_subcommand_is_rejected(self):
        # options belong to the subcommand that reads them
        res = run_cli(["--tol", "1e-3", "dsinv", "--k", "2", "--eps", "1"])
        assert res.returncode == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["portrait", "--k", "2", "--eps", "1", "--out", "x.svg", "--radius", "nan"],
            ["portrait", "--k", "2", "--eps", "1", "--out", "x.svg", "--radius", "inf"],
            ["portrait", "--k", "2", "--eps", "1", "--out", "x.svg", "--radius", "0"],
            ["portrait", "--k", "2", "--eps", "1", "--out", "x.svg", "--radius", "-1"],
            ["portrait", "--k", "2", "--eps", "1", "--out", "x.svg", "--samples", "-1"],
            ["portrait", "--k", "2", "--eps", "1", "--out", "x.svg", "--seed", "-1"],
            ["star", "--k", "2", "--eps", "1", "--out", "x.svg", "--r", "inf"],
            ["star", "--eps", "1", "--out", "x.svg", "--k", "0"],
            ["bifdiagram", "--k", "2", "--out", "x.svg", "--decades", "1e-6", "inf"],
            ["bifdiagram", "--k", "2", "--out", "x.svg", "--decades", "0", "1e-2"],
            ["bifdiagram", "--k", "2", "--out", "x.svg", "--decades", "1e-2", "1e-3"],
            ["bifdiagram", "--k", "2", "--out", "x.svg", "--per-decade", "0"],
            ["bifdiagram", "--k", "2", "--out", "x.svg", "--r", "0"],
            ["nf", "polynomial", "f.json", "--eps-order", "-1"],
            ["nf", "polynomial", "f.json", "--truncation", "-1"],
            ["nf", "polynomial", "f.json", "--truncation", "0"],
            ["classify", "a.json", "b.json", "--truncation", "0"],
            ["canon", "f.json", "--truncation", "1001"],
            ["dsinv", "--k", "2", "--eps", "1", "--tol", "nan"],
            ["dsinv", "--k", "2", "--eps", "1", "--tol", "-1"],
            ["classify", "a.json", "b.json", "--tol", "nan"],
            ["dsinv", "--eps", "1", "--k", "100000"],
        ],
        ids=lambda argv: " ".join(argv[:1] + argv[argv.index(_last_flag(argv)) :]),
    )
    def test_malformed_flag(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = run_main(argv)
        assert code == 2
        assert f"argument {_last_flag(argv)}:" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x.svg").exists()


LAMBDA_DOC = {"k": 2, "truncation": 20, "coefficients": [{"deg": 2, "re": 3.0, "im": 0.0},
                                                         {"deg": 3, "re": 0.5, "im": 0.1}]}
FAMILY_DOC = {"k": 2, "omega": {"Nz": 10, "Neps": 1, "coefficients": [
    {"m": 3, "n": 0, "re": 1.0}, {"m": 0, "n": 1, "re": -1.0}, {"m": 4, "n": 0, "re": 0.2}]}}


def _with(doc, path, value):
    """A deep copy of ``doc`` with the entry at ``path`` replaced (or appended)."""
    doc = json.loads(json.dumps(doc))
    *head, last = path
    target = doc
    for key in head:
        target = target[key]
    if last == "+":
        target.append(value)
    else:
        target[last] = value
    return doc


class TestMalformedInput:
    @pytest.mark.parametrize(
        "doc",
        [
            [1, 2, 3],
            _with(LAMBDA_DOC, ["coefficients", "+"], {"deg": 25, "re": 1.0}),
            _with(LAMBDA_DOC, ["coefficients", "+"], {"deg": -1, "re": 1.0}),
            _with(FAMILY_DOC, ["omega", "coefficients", "+"], {"m": -1, "n": 0, "re": 1.0}),
            _with(LAMBDA_DOC, ["k"], 0),
            _with(LAMBDA_DOC, ["k"], 2.5),
            _with(LAMBDA_DOC, ["coefficients", 0, "re"], 1e999),
            _with(LAMBDA_DOC, ["coefficients"], 5),
        ],
        ids=["top-level-list", "deg-above-truncation", "negative-deg", "negative-m", "k-zero",
             "k-not-integer", "re-overflow", "coefficients-not-list"],
    )
    def test_canon_exits_2(self, doc, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_main(["canon", str(path)])
        assert code == 2 and err.startswith("error: ")

    def test_valid_documents_exit_0(self, tmp_path):
        for name, doc in (("lam", LAMBDA_DOC), ("family", FAMILY_DOC)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            assert run_main(["canon", str(path)])[0] == 0
        assert run_main(["nf", "polynomial", str(tmp_path / "family.json")])[0] == 0

    def test_non_finite_eps(self):
        for value in ("nan", "inf", "nan+1i"):
            assert run_main(["dsinv", "--k", "2", "--eps", value])[0] == 2

    def test_infinite_eps_reported_as_not_finite(self):
        # only the trailing i is the imaginary unit, so inf and infinity parse
        for argv in (["--eps", "inf"], ["--eps", "infinity"], ["--eps", "inf+1i"], ["--eps=-inf"]):
            code, _, err = run_main(["dsinv", "--k", "2", *argv])
            assert code == 2
            assert "is not finite" in err

    def test_negative_eps_takes_equals_form(self):
        code, out, _ = run_main(["dsinv", "--k", "3", "--eps=-0.7i"])
        assert code == 0
        assert json.loads(out)["epsilon"] == {"re": 0.0, "im": -0.7}


class TestPortrait:
    def test_spec_figure_counts(self, tmp_path):
        out = tmp_path / "f7.svg"
        res = run_cli(
            ["portrait", "--k", "6", "--eps", "0.309016994+0.951056516i",
             "--radius", "1.5", "--samples", "6", "--out", str(out)]
        )
        assert res.returncode == 0
        svg = out.read_text()
        assert svg.count('class="singularity"') == 7
        assert svg.count("separatrix-") == 12
        assert svg.startswith('<?xml version="1.0"')

    def test_k1_counts(self, tmp_path):
        out = tmp_path / "p.svg"
        res = run_cli(["portrait", "--k", "1", "--eps", "1", "--samples", "4", "--out", str(out)])
        assert res.returncode == 0
        svg = out.read_text()
        assert svg.count('class="singularity"') == 2
        assert svg.count("separatrix-") == 2

    def test_json_export(self, tmp_path):
        out = tmp_path / "p.svg"
        jout = tmp_path / "p.json"
        res = run_cli(
            ["portrait", "--k", "1", "--eps", "1", "--samples", "2",
             "--out", str(out), "--json-out", str(jout)]
        )
        assert res.returncode == 0
        data = json.loads(jout.read_text())
        assert len(data["separatrices"]) == 2
        assert all(t["termination"].startswith("landed:") for t in data["separatrices"])
        assert all(len(p) == 2 for t in data["separatrices"] for p in t["points"])

    def test_json_holds_the_drawn_separatrices(self, tmp_path):
        # the JSON export and the SVG come from one separatrices call, with
        # the portrait's controls: each exported separatrix has the point
        # count of its polyline
        out = tmp_path / "p.svg"
        jout = tmp_path / "p.json"
        res = run_cli(
            ["portrait", "--k", "2", "--eps", "0.5+0.2i", "--samples", "2",
             "--out", str(out), "--json-out", str(jout)]
        )
        assert res.returncode == 0
        drawn = [
            len(line.split('points="')[1].split('"')[0].split())
            for line in out.read_text().splitlines()
            if 'class="separatrix-' in line
        ]
        exported = [len(t["points"]) for t in json.loads(jout.read_text())["separatrices"]]
        assert exported == drawn
        assert len(drawn) == 4


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["portrait", "--k", "2", "--eps", "0.6+0.3i", "--samples", "5", "--seed", "7"],
            ["star", "--k", "2", "--eps", "0.2+0.1i", "--r", "1.0"],
            ["bifdiagram", "--k", "1", "--r", "1", "--decades", "1e-3", "1e-2",
             "--per-decade", "4"],
        ],
    )
    def test_byte_identical_svg(self, args, tmp_path):
        out1 = tmp_path / "a.svg"
        out2 = tmp_path / "b.svg"
        assert run_cli([*args, "--out", str(out1)]).returncode == 0
        assert run_cli([*args, "--out", str(out2)]).returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_byte_identical_stdout(self, family_files):
        a = run_cli(["classify", family_files["yes"], family_files["model"]])
        b = run_cli(["classify", family_files["yes"], family_files["model"]])
        assert a.returncode == 0 and a.stdout == b.stdout


class TestStar:
    def test_k5_example_six_branches(self, tmp_path):
        # six eyelets/strips around the star; all ten tangency points drawn
        out = tmp_path / "star.svg"
        res = run_cli(
            ["star", "--k", "5", "--eps", "0.309016994-0.951056516i", "--r", "1.3",
             "--out", str(out)]
        )
        assert res.returncode == 0
        svg = out.read_text()
        assert svg.count('class="eyelet"') == 6
        assert svg.count('class="strip"') == 12
        assert svg.count('class="tangency"') == 10
        assert svg.count('class="polygon"') == 1


class TestGroupCounts:
    def test_group_count_k7(self):
        # fourteen groups for eight singular points, each with >= 3 curves
        from parafold.disk import group_tags
        from parafold.model import bifurcation_angles

        k = 7
        assert len(bifurcation_angles(k)) == 14
        for j in range(2 * k):
            assert len(group_tags(k, j)) >= 3


class TestPortraitSymmetry:
    def test_rotation_time_reversal_law(self):
        # (z, eps, t) -> (e^{i pi/k} z, -e^{i pi/k} eps, -t) maps separatrix
        # j onto separatrix j + 1 of the image field with its orientation
        # swapped.  Checked on the orbits at 28 of the 84 fields k 1..7,
        # |eps| 0.05/0.5/1/3, arg 0.37/1.1/2.3: the far segments point by
        # point (their tau grids are deterministic), the landing roots
        # through the rotation, and the transit and chart points point by
        # point too.  A marching step is set by the distance to the roots
        # and by |f|, |f'|, which the law maps onto themselves, so the two
        # transits take the same steps up to rounding.
        import cmath
        import math

        from parafold import model
        from parafold.model import ModelField, separatrices, singularities

        fields = [
            (k, a, arg)
            for k in range(1, 8)
            for a in (0.05, 0.5, 1.0, 3.0)
            for arg in (0.37, 1.1, 2.3)
        ]
        rng = np.random.default_rng(84)
        for i in sorted(rng.choice(len(fields), size=28, replace=False)):
            k, a, arg = fields[i]
            rot = cmath.exp(1j * math.pi / k)
            fa = ModelField(k, a * cmath.exp(1j * arg))
            fb = ModelField(k, -rot * fa.epsilon)
            n_far = model._far_segment(fa, np.arange(2 * k), math.inf)[0].shape[1]
            sing_a, sing_b = singularities(fa), singularities(fb)
            seps_a, seps_b = separatrices(fa), separatrices(fb)
            for j, ta in enumerate(seps_a):
                tb = seps_b[(j + 1) % (2 * k)]
                assert ta.orientation != tb.orientation
                assert ta.termination is tb.termination
                if ta.landed_index is not None:
                    image = rot * sing_a[ta.landed_index]
                    assert np.abs(sing_b - image).argmin() == tb.landed_index
                far_a, far_b = ta.points[:n_far], tb.points[:n_far]
                assert np.all(np.abs(rot * far_a - far_b) <= 1e-6 * np.abs(far_a)), (k, a, arg, j)
                assert ta.n_accepted == tb.n_accepted and len(ta.points) == len(tb.points)
                rest_a, rest_b = ta.points[n_far:], tb.points[n_far:]
                assert np.all(np.abs(rot * rest_a - rest_b) <= 1e-9 * fa.scale), (k, a, arg, j)
                np.testing.assert_allclose(ta.times[n_far:], tb.times[n_far:], rtol=1e-9)


class TestClassify:
    def test_self_classification(self, family_files):
        res = run_cli(["classify", family_files["no"], family_files["no"]])
        assert res.returncode == 0
        verdict = json.loads(res.stdout)
        assert verdict["fixed_parameter"] == {"im": 0.0, "re": 1.0}

    def test_model_equivalent_family(self, family_files):
        res = run_cli(["classify", family_files["yes"], family_files["model"]])
        verdict = json.loads(res.stdout)
        assert verdict["fixed_parameter"] is None
        assert verdict["full"] is not None  # ambiguous witnesses still a yes

    def test_distinct_families(self, family_files):
        res = run_cli(["classify", family_files["no"], family_files["model"]])
        verdict = json.loads(res.stdout)
        assert verdict["fixed_parameter"] is None
        assert verdict["full"] is None

    def test_lambda_input(self, family_files):
        res = run_cli(["classify", family_files["lam"], family_files["no"]])
        verdict = json.loads(res.stdout)
        assert verdict["fixed_parameter"] == {"im": 0.0, "re": 1.0}


class TestCanonNfDsinv:
    def test_canon(self, family_files):
        res = run_cli(["canon", family_files["lam"]])
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["lambda_canonical"]["canonical"] is True
        assert len(data["linear_choices"]) == 2

    def test_nf_polynomial(self, family_files):
        res = run_cli(["nf", "polynomial", family_files["no"], "--eps-order", "3"])
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["kind"] == "polynomial"
        assert data["canonical"] is True
        assert len(data["coefficients"]) == 3

    def test_nf_rational(self, family_files):
        res = run_cli(["nf", "rational", family_files["no"], "--eps-order", "3"])
        assert res.returncode == 0
        assert json.loads(res.stdout)["kind"] == "rational"

    def test_nf_rejects_lambda_file(self, family_files):
        assert run_cli(["nf", "polynomial", family_files["lam"]]).returncode == 2

    def test_dsinv(self):
        res = run_cli(["dsinv", "--k", "2", "--eps", "1"])
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["order"] == [1, 0, 2]
        assert data["attachment"] == 0

    def test_dsinv_near_homoclinic_ray(self):
        # 1e-3 from the ray theta = pi: the integrated separatrix does not land
        assert run_main(["dsinv", "--k", "1", "--eps=-1+0.001i"])[0] == 0

    def test_dsinv_at_bifurcation_fails(self):
        res = run_cli(["dsinv", "--k", "2", "--eps", "0.7071067811865476+0.7071067811865475i"])
        assert res.returncode == 3
