"""Knot Floer homology of even 3-stranded pretzel knots P(2a, -2b-1, +-(2c+1)).

The main entry point is compute_hfk, which assembles the bigraded rank table
from closed-form immersed-curve pairings; verify cross-checks each table
against a Fox-calculus Alexander-polynomial oracle, the slope determinant
law and the symmetry laws.
"""

from .algebra import (
    AlgebraError,
    GeneratorMultiset,
    HalfInteger,
    HfkTable,
    euler_characteristic,
    normalize_alexander,
)
from .alexander import (
    DiagramError,
    PretzelDiagram,
    build_pretzel_diagram,
    fox_alexander,
    pretzel_determinant,
)
from .curves import (
    CaseLabel,
    CurveError,
    CurveKind,
    GradedCurve,
    ReducedSlope,
    TangleParams,
    case_of,
    pretzel_tangle_curves,
    slope_AB,
)
from .hfk import (
    Classification,
    Shape,
    VerificationReport,
    classify,
    compute_hfk,
    verify,
)
from .pairing import PairingError, ReducedPairing, pair_curve, reduce_generator_pairs

__version__ = "0.1.0"

__all__ = [
    "AlgebraError",
    "CaseLabel",
    "Classification",
    "CurveError",
    "CurveKind",
    "DiagramError",
    "GeneratorMultiset",
    "GradedCurve",
    "HalfInteger",
    "HfkTable",
    "PairingError",
    "PretzelDiagram",
    "ReducedPairing",
    "ReducedSlope",
    "Shape",
    "TangleParams",
    "VerificationReport",
    "build_pretzel_diagram",
    "case_of",
    "classify",
    "compute_hfk",
    "euler_characteristic",
    "fox_alexander",
    "normalize_alexander",
    "pair_curve",
    "pretzel_determinant",
    "pretzel_tangle_curves",
    "reduce_generator_pairs",
    "slope_AB",
    "verify",
]
