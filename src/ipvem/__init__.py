"""Interior-penalty virtual element solver for the fourth-order singular
perturbation problem eps^2 biharmonic(u) - laplacian(u) = f with clamped
boundary conditions on polygonal meshes, plus a convergence-study driver."""

from .basis import triangle_quadrature
from .forms import PenaltyConfig, penalty_parameter
from .mesh import (
    PolygonalMesh,
    export_mesh,
    generate_cvt,
    generate_uniform_squares,
    import_mesh,
)
from .projectors import Elements, build_elements
from .system import DiscreteSolution, GlobalDofMap, SparseSystem, number_dofs, solve
from .verify import (
    ConvergenceReport,
    ErrorRecord,
    ErrorData,
    ManufacturedSolution,
    build_error_data,
    energy_error,
    example_solution,
    fit_rate,
)

__version__ = "0.1.0"
