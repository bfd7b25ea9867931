"""Wiener-Hopf factorization on the unit circle for lattice defect scattering.

Subpackages by responsibility:

* branches  -- the lattices' equations of motion (one stencil table),
               branch functions, dispersion solving, incident waves
* series    -- circle sampling, Laurent coefficients, WH splitting
* kernels   -- the scalar/matrix kernel catalog with determinants and
               Daniele-Khrapkov forms
* whsolver  -- the scalar WH solver with unknown-constant closure and
               field reconstruction
* oracle    -- the independent finite-lattice direct solver and the
               WH-equation residual verification
* checks    -- the invariant suites shared by `latticewh verify` and the
               acceptance tests (not imported here)
* cli       -- the `latticewh` command-line interface
"""

from .branches import (
    BranchValue,
    Frequency,
    Incidence,
    Lattice,
    annulus_bounds,
    dispersion_residual,
    dispersion_solve,
    hex_branch,
    principal_sqrt,
    square_branches,
    tri_branch,
)
from .fields import ComparisonReport, FieldGrid, compare_fields
from .kernels import (
    MATRIX_FAMILIES,
    SCALAR_FAMILIES,
    AffineForcing,
    DKForm,
    MatrixKernelSpec,
    ScalarKernel,
    det_closed_form,
    diag_limit_defect,
    dk_form,
    eval_matrix_kernel,
    eval_scalar_kernel,
    scalar_forcing,
    vector_forcing,
)
from .oracle import (
    BlochSpec,
    Defect,
    LatticeProblemSpec,
    assemble,
    problem_for,
    solve_direct,
    wh_residual,
)
from .series import (
    CircleGrid,
    LaurentSeries,
    SplitPair,
    additive_split,
    coefficients,
    half_transform_exp,
    mult_factorize,
    sample,
    winding_number,
)
from .whsolver import (
    ScalarWHProblem,
    WHSolution,
    close_constants,
    inverse_transform_row,
    reconstruct_field,
    solve_scalar,
)

__version__ = "0.1.0"
