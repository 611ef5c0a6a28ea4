"""Three-body scattering as geodesic flow on the energy hypersurface,
with Langevin-type quantum-fluctuation noise, momentum-density evolution
and a Kullback-Leibler chaos criterion."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DegenerateConfigurationError,
    DegenerateMetricError,
    DependencyError,
    DomainError,
    EmptyDensityError,
    FitError,
    ForbiddenRegionError,
    ResolutionError,
    TribodyError,
)
from .kinematics import (
    InternalCoords,
    JacobiCoords,
    Masses,
    internal_from_jacobi,
    jacobi_from_internal,
    mass_scaled_jacobi,
    pair_distances,
    reduced_mass,
)
from .potentials import (
    CallablePotential,
    FreePotential,
    GravityPotential,
    MorsePotential,
    PairwisePotential,
    PotentialModel,
)
from .metric import (
    EnergySurface,
    RhoCoords,
    conformal_factor,
    flow_coefficients,
    gamma_rho,
    lambda_sq,
    log_gradient,
    reduced_hamiltonian,
)
from .geodesic import (
    GeodesicState,
    TrajectoryRecord,
    conservation_report,
    external_rates,
    integrate,
    momentum_rhs,
)
from .frames import (
    ExternalFrame,
    FrameGauge,
    InternalFrame,
    RhoSeries,
    external_frame,
    frame_residual,
    internal_frame,
    reconstruct_rho,
)
from .langevin import (
    CoefficientSchedule,
    EnsembleResult,
    NoiseModel,
    diffusion,
    drift,
    run_ensemble,
    two_point_increments,
)
from .fokker_planck import (
    FpeConfig,
    MomentumGrid,
    density_from_ensemble,
    fpe_evolve,
    fpe_rhs,
    quantum_epsilon,
    read_density,
    total_mass,
    write_density,
)
from .chaos import (
    ChannelLabel,
    ChaosReport,
    chaos_report,
    classify_channel,
    growth_rate,
    kl_divergence,
)
