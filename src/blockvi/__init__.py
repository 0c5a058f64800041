"""blockvi: signal and image construction from inconsistent nonlinear
prescriptions, via a block-iterative variational-inequality solver.

The package is organized around five layers:

* :mod:`blockvi.space` -- Hilbert-space points with block layout.
* :mod:`blockvi.linops` -- bounded linear maps with exact adjoints and
  certified squared-norm bounds.
* :mod:`blockvi.fne_ops` -- the firmly nonexpansive operator catalog and
  proxifications of non-firmly-nonexpansive observation models.
* :mod:`blockvi.core` -- problem assembly and solution diagnostics.
* :mod:`blockvi.solver` -- the block-iterative solver with activation
  schedules and trace capture.
* :mod:`blockvi.cli` -- manifest-driven experiment runner.
"""

from .core import (
    ConstraintSet,
    Prescription,
    Problem,
    assemble_problem,
    inconsistency_bound,
    least_squares_objective,
    prescription_images,
    vi_residual,
)
from .errors import (
    BlockviError,
    CoverageError,
    EmptyBlock,
    FormatError,
    InvalidParameter,
    ManifestError,
    MissingReference,
    NotInRange,
    RankDeficient,
    ShapeMismatch,
    UnsupportedObjective,
    WeightSumError,
)
from .space import BlockShape, SpacePoint
from .solver import (
    ActivationSchedule,
    SolveResult,
    SolveStatus,
    SolverConfig,
    SolverTrace,
    make_schedule,
    solve,
    validate_schedule,
)

__version__ = "0.1.0"
