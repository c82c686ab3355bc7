"""Exact verification of the 3^d face-count bound on centrally symmetric
polytopes that are symmetric about d hyperplanes with orthogonal normals.

All arithmetic is exact rational.  The package enumerates a polytope's face
lattice, checks the symmetry hypotheses, and builds a cone-by-cone witness
certificate showing the polytope has at least 3^d nonempty faces.
"""

from .kalai import Certificate, certify, enumerate_cones
from .lattice import FaceLattice, enumerate_faces
from .polytope import Polytope, build_polytope, generate
from .ratgeom import QVector, Rational, rational
from .symmetry import standard_basis, verify_basis

__version__ = "0.1.0"

__all__ = [
    "Rational",
    "rational",
    "QVector",
    "Polytope",
    "build_polytope",
    "generate",
    "FaceLattice",
    "enumerate_faces",
    "standard_basis",
    "verify_basis",
    "Certificate",
    "certify",
    "enumerate_cones",
    "__version__",
]
