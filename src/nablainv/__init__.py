"""Analytic inversion of nabla Laplace transforms.

The transform of a causal sequence f on {a+1, a+2, ...} is
F(s) = sum_{k>=1} (1-s)^(k-1) f(k+a).  This package recovers f from F three
ways -- series extraction at s = 1, residues at the finite poles, and partial
fractions mapped through a pair table (including discrete Mittag-Leffler
terms for fractional-power atoms) -- and checks every result against
independent numerical oracles (truncated forward sums, contour quadrature,
the initial-value identity).
"""

from .errors import (
    ConvergenceError,
    ExpressionSyntaxError,
    NablaError,
    ParameterDomainError,
    PoleAtOneError,
    PoleEvaluationError,
    RealnessError,
    TruncationWarning,
    UnsupportedExpressionError,
)
from .expansion import ImpulseTerm, PolyGeometricTerm, expand
from .inversion import (
    ClosedFormSequence,
    FractionalAtom,
    FractionalSumForm,
    invert_fractional,
    invert_inside,
    invert_outside,
    invert_partial_fractions,
)
from .pairs import TransformPair, lookup, pair, reference_pairs, sample_points
from .parsing import Classified, Kind, classify, parse_expression, pretty
from .polynomial import Polynomial, RootCluster, roots_with_multiplicities
from .rational import RationalFunction, describe_roc
from .special import MittagLefflerParams, discrete_mittag_leffler
from .verify import (
    forward_transform,
    initial_value,
    numeric_inverse,
    orientation_check,
    round_trip_error,
)

__version__ = "0.1.0"

__all__ = [
    "Classified",
    "ClosedFormSequence",
    "ConvergenceError",
    "ExpressionSyntaxError",
    "FractionalAtom",
    "FractionalSumForm",
    "ImpulseTerm",
    "Kind",
    "MittagLefflerParams",
    "NablaError",
    "ParameterDomainError",
    "PolyGeometricTerm",
    "PoleAtOneError",
    "PoleEvaluationError",
    "Polynomial",
    "RationalFunction",
    "RealnessError",
    "RootCluster",
    "TransformPair",
    "TruncationWarning",
    "UnsupportedExpressionError",
    "classify",
    "describe_roc",
    "discrete_mittag_leffler",
    "expand",
    "forward_transform",
    "initial_value",
    "invert_fractional",
    "invert_inside",
    "invert_outside",
    "invert_partial_fractions",
    "lookup",
    "numeric_inverse",
    "orientation_check",
    "pair",
    "parse_expression",
    "pretty",
    "reference_pairs",
    "roots_with_multiplicities",
    "round_trip_error",
    "sample_points",
]
