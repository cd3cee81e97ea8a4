"""Ion-mediated interactions of two trapped atoms bridged by a trapped ion.

The package computes adiabatic (fast ion, slow atoms) potentials for an
atom-ion-atom chain, expands them into effective trap frequencies and
phonon modes, locates the stability threshold separation, builds
two-atom motional ground states, and evaluates the non-adiabatic gauge
connection over the ion's mode ladder.  All inputs and outputs are SI
unless a name says otherwise.
"""

from .constants import ATOMIC_MASS_KG, HBAR, PLANCK, TWO_PI
from .errors import (
    AccuracyError,
    ConfigError,
    InstabilityError,
    IonBridgeError,
    NotBracketedError,
    SingularGeometryError,
)
from .model import (
    GROUND,
    CharacteristicScales,
    ElectronicState,
    InteractionCoefficients,
    IonModeIndex,
    Species,
    SystemConfig,
    TrapFrequencies,
    characteristic_scales,
    require_valid,
    rydberg_c4,
    validate,
)
from .potentials import (
    AtomPairGeometry,
    IonDisplacement,
    axial_bo_curve,
    bo_eigenvalue,
    bo_energy,
    effective_potential_U,
    ion_displacement,
)
from .expansion import (
    EffectiveFrequencies,
    effective_frequencies,
)
from .phonons import (
    ModeBranch,
    PhononSpectrum,
    StabilityResult,
    critical_separation,
    equilibrium_shift,
    mode_sweep,
    phonon_spectrum,
)
from .motion import (
    BasisExpansionState,
    CorrelatedGaussian,
    axial_collision_threshold,
    axial_hamiltonian_matrix,
    bare_product_state,
    basis_ground_state,
    gaussian_ground_state,
    pair_density,
    state_overlap,
    symmetric_eigensolve,
)
from .gauge import (
    GaugeConnection,
    LoopPath,
    berry_phase,
    cartesian_modes,
    connection_matrix,
    connection_records,
    displacement_jacobian,
    gauge_hermiticity_check,
    square_loop,
    wilson_loop,
)
from .config import (
    DEFAULT_DOCUMENT,
    config_from_document,
    load_config,
    parse_state,
    reference_config,
)

__version__ = "0.1.0"

__all__ = [
    "ATOMIC_MASS_KG",
    "HBAR",
    "PLANCK",
    "TWO_PI",
    "IonBridgeError",
    "ConfigError",
    "SingularGeometryError",
    "AccuracyError",
    "InstabilityError",
    "NotBracketedError",
    "Species",
    "ElectronicState",
    "GROUND",
    "TrapFrequencies",
    "InteractionCoefficients",
    "IonModeIndex",
    "SystemConfig",
    "CharacteristicScales",
    "rydberg_c4",
    "characteristic_scales",
    "validate",
    "require_valid",
    "reference_config",
    "AtomPairGeometry",
    "IonDisplacement",
    "ion_displacement",
    "bo_energy",
    "bo_eigenvalue",
    "effective_potential_U",
    "axial_bo_curve",
    "EffectiveFrequencies",
    "effective_frequencies",
    "ModeBranch",
    "PhononSpectrum",
    "StabilityResult",
    "phonon_spectrum",
    "critical_separation",
    "mode_sweep",
    "equilibrium_shift",
    "BasisExpansionState",
    "CorrelatedGaussian",
    "axial_collision_threshold",
    "axial_hamiltonian_matrix",
    "symmetric_eigensolve",
    "basis_ground_state",
    "gaussian_ground_state",
    "bare_product_state",
    "pair_density",
    "state_overlap",
    "GaugeConnection",
    "LoopPath",
    "cartesian_modes",
    "displacement_jacobian",
    "connection_matrix",
    "connection_records",
    "gauge_hermiticity_check",
    "square_loop",
    "berry_phase",
    "wilson_loop",
    "DEFAULT_DOCUMENT",
    "load_config",
    "config_from_document",
    "parse_state",
    "__version__",
]
