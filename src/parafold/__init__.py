"""Computational toolkit for the polynomial field z' = z^{k+1} - eps and
generic one-parameter unfoldings of parabolic singularities."""

from .series import BivariateSeries, TruncatedSeries, class_join
from .model import (
    DSInvariant,
    IntegratorControls,
    ModelField,
    PeriodGon,
    Termination,
    Trajectory,
    bifurcation_angles,
    ds_invariant,
    ds_transition,
    integrate,
    landing_lanes,
    is_homoclinic,
    periods,
    rectify,
    separatrices,
    singularities,
)
from .disk import (
    BifurcationCurve,
    CurveTag,
    TangencySet,
    double_tangency_residual,
    separating_regions,
    tangency_angles,
    tangency_times,
    trace_curve,
)
from .unfolding import (
    AxesReport,
    EigenvalueFunction,
    FamilySpec,
    canonicalize,
    check_generic,
    eigenvalue_function,
    equivalent_fixed_parameter,
    equivalent_full,
    factor_family,
    is_model_equivalent,
    realize,
    residue_sum,
)
from .normal_forms import (
    KostovNF,
    PolynomialNF,
    kostov_check,
    lagrange_Q,
    poly_to_canonical_parameter,
    polynomial_nf,
    rational_nf,
)

__version__ = "0.1.0"
