"""Knot Floer homology of even 3-stranded pretzel knots P(2a, -2b-1, +-(2c+1)).

The main entry point is compute_hfk, which assembles the bigraded rank table
from closed-form immersed-curve pairings; verify cross-checks each table
against a Fox-calculus Alexander-polynomial oracle, the slope determinant
law and the symmetry laws.  TangleParams is the one place the knot's
parameters are checked; the helpers in the modules take checked values.
"""

from .algebra import (
    AlgebraError,
    HalfInteger,
    HfkTable,
)
from .alexander import (
    DiagramError,
    build_pretzel_diagram,
    fox_alexander,
    pretzel_determinant,
)
from .curves import (
    CurveError,
    TangleParams,
)
from .hfk import (
    Classification,
    Shape,
    VerificationReport,
    classify,
    compute_hfk,
    verify,
)
from .pairing import PairingError

__version__ = "0.1.0"

__all__ = [
    "AlgebraError",
    "Classification",
    "CurveError",
    "DiagramError",
    "HalfInteger",
    "HfkTable",
    "PairingError",
    "Shape",
    "TangleParams",
    "VerificationReport",
    "build_pretzel_diagram",
    "classify",
    "compute_hfk",
    "fox_alexander",
    "pretzel_determinant",
    "verify",
]
