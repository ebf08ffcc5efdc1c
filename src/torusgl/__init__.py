"""torusgl: gauged Ginzburg-Landau energies, vortices, and Hodge solvers on
flat periodic lattices with nontrivial line bundles."""

from .lattice import (
    Cochain,
    TorusGeometry,
    codifferential,
    constant_cochain,
    exterior_derivative,
    inner_product,
    laplacian,
    norm,
    random_cochain,
    read_field,
    stencil_eigenvalues,
    write_field,
    zero_cochain,
)
from .bundle import (
    BundleData,
    Section,
    build_background,
    constant_section,
    covariant_difference,
    curvature,
    flux_pairing,
)
from .fields import EnergyBreakdown, e_energy, energy_density, g_energy, g_gradient, truncate
from .gauge import GaugePhase, apply_gauge, coulomb_fix
from .hodge import (
    HodgeParts,
    NonCompatibleSourceError,
    green,
    harmonic_projection,
    hodge_decompose,
    solve_london,
    solve_poisson,
)
from .vortex import (
    VorticityField,
    ZeroOnPlaquetteError,
    chern_pairing,
    h_minus1_distance,
    jacobian,
    london_residual,
    supercurrent,
    vortex_mass,
    vorticity,
    vorticity_density,
)
from .solve import (
    AnsatzSpec,
    MinimizeOptions,
    MinimizerResult,
    SweepRecord,
    WindingMismatchError,
    epsilon_sweep,
    minimize,
    optimised_pair,
    relax_connection,
    vortex_ansatz,
)

__version__ = "0.1.0"
