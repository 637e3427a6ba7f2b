import contextlib
import io

from parafold import cli

_ACCEPTANCE_LINES = []


def record_acceptance(line):
    _ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def quad_rectify(fld, z):
    """int_0^z dz/(z^{k+1}-eps) by adaptive quadrature along the segment
    [0, z]: the independent oracle of ``model.rectify``."""
    from scipy.integrate import quad

    def integrand(s):
        return z / fld.rhs(s * z)

    val, _ = quad(integrand, 0.0, 1.0, complex_func=True, limit=200, epsabs=1e-13, epsrel=1e-12)
    return val


def run_main(argv):
    """``(exit code, stdout, stderr)`` of an in-process ``cli.main``.

    Any exception other than SystemExit propagates, so a traceback fails
    the calling test.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()
    raise AssertionError("cli.main returned without exiting")
