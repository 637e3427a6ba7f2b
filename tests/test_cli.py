import json
import subprocess
import sys

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


class TestExitCodes:
    def test_usage_error(self):
        assert run_cli(["portrait", "--k", "2"]).returncode == 2

    def test_unknown_command(self):
        assert run_cli(["frobnicate"]).returncode == 2

    def test_numerical_failure(self, tmp_path):
        # star with r below the root disk: series branch undefined
        out = tmp_path / "x.svg"
        res = run_cli(["star", "--k", "2", "--eps", "1", "--r", "0.5", "--out", str(out)])
        assert res.returncode == 3

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
        # (z, eps, t) -> (e^{i pi/k} z, -e^{i pi/k} eps, -t) maps the
        # separatrix family onto itself with orientations swapped; checked
        # on trajectory geometry, not pixels
        import cmath
        import math

        from parafold.model import ModelField, separatrices

        k = 3
        eps = cmath.exp(0.37j)
        rot = cmath.exp(1j * math.pi / k)
        a = separatrices(ModelField(k, eps))
        b = separatrices(ModelField(k, -rot * eps))
        for j, traj in enumerate(a):
            image = b[(j + 1) % (2 * k)]
            assert image.orientation != traj.orientation
            n = min(len(traj.points), len(image.points))
            assert np.abs(rot * traj.points[:n] - image.points[:n]).max() < 1e-6


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

    def test_dsinv_at_bifurcation_fails(self):
        res = run_cli(["dsinv", "--k", "2", "--eps", "0.7071067811865476+0.7071067811865475i"])
        assert res.returncode == 3
