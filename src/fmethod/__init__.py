"""Exact computation with differential symmetry breaking operators on RP^n.

The library classifies and constructs the equivariant differential
operators from line-bundle sections over the real projective n-space to
vector-bundle sections over the (n-1)-space for the embedded special and
general linear groups, verifies their factorization identities, builds the
dual maps between generalized Verma modules, and certifies branching laws,
all by exact linear algebra on graded polynomial spaces.

All arithmetic is exact over the rationals: sparse polynomials,
Weyl-algebra operators, matrix Lie algebra data, and linear solves hold
exact rationals, `int` when integral and `fractions.Fraction` otherwise
(`algebra.exact`); never float.  No floating point is used anywhere.
"""

from fractions import Fraction as Rational

from .algebra import Matrix, Polynomial, monomial_basis, sparse_nullspace
from .branch import invariants_in, verify_branching
from .engine import classify, equivariant_basis, solve_fsystem
from .liealg import LieElement, ParabolicData, bracket, parabolic
from .operators import (
    build_ido,
    build_proj,
    build_sbo,
    check_equivariance,
    image_computations,
    verify_factorization_sbo,
)
from .params import GLTuple, SLQuadruple, in_lambda_gl, in_lambda_sl
from .rep import (
    ScalarRepParams,
    TargetRepParams,
    VectorValuedPolynomial,
    dpi_hat,
    dpi_lambda,
    dpi_lambda_star,
    dpi_target,
)
from .verma import (
    VermaHom,
    VermaModule,
    build_emb,
    build_phi,
    build_phi_k,
    check_hom_equivariance,
    classify_homs,
    verify_factorization_verma,
)
from .weyl import WeylElement, symb_inverse

__version__ = "0.1.0"

__all__ = [
    "GLTuple",
    "LieElement",
    "Matrix",
    "ParabolicData",
    "Polynomial",
    "Rational",
    "SLQuadruple",
    "ScalarRepParams",
    "TargetRepParams",
    "VectorValuedPolynomial",
    "VermaHom",
    "VermaModule",
    "WeylElement",
    "bracket",
    "build_emb",
    "build_ido",
    "build_phi",
    "build_phi_k",
    "build_proj",
    "build_sbo",
    "check_equivariance",
    "check_hom_equivariance",
    "classify",
    "classify_homs",
    "dpi_hat",
    "dpi_lambda",
    "dpi_lambda_star",
    "dpi_target",
    "equivariant_basis",
    "image_computations",
    "in_lambda_gl",
    "in_lambda_sl",
    "invariants_in",
    "monomial_basis",
    "parabolic",
    "solve_fsystem",
    "sparse_nullspace",
    "symb_inverse",
    "verify_branching",
    "verify_factorization_sbo",
    "verify_factorization_verma",
]
