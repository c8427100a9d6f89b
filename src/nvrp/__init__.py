"""Radical-pair spin dynamics and the signals an NV-center sensor detects."""

__version__ = "0.1.0"

from .constants import GAMMA_E, HBAR, MU0, dipolar_prefactor
from .dynamics import (
    ObservableSeries,
    Propagator,
    evolve_observables,
    initial_state,
    make_propagator,
    singlet_yield_mean,
)
from .ensemble import EnsembleSpec, EnsembleStatistics, OrientationMode, ensemble_sweep
from .errors import ConfigError, NumericalError, PhysicsError
from .hamiltonian import (
    CouplingGeometry,
    DecayConvention,
    FieldConfig,
    InitialElectronState,
    Nucleus,
    NVParams,
    RadicalPairConfig,
    Regime,
    SensorParams,
    build_coupling_hamiltonian,
    build_nv_hamiltonian,
    build_rp_hamiltonian,
    classify_regime,
    coupling_geometry,
)
from .oracle import OracleResult, rk4_evolve
from .signal import (
    SignalSpectrum,
    SignalTrace,
    SweepResult,
    signal_single_molecule,
    spectrum,
    sweep_field_angle,
    sweep_field_magnitude,
)
from .spincore import (
    Rotation,
    SpinSpecies,
    SpinSystemLayout,
    embed,
    euler_rotation,
    rotate_tensor,
    spin_matrices,
)
from .strongcoupling import (
    LevelStructure,
    PeakSet,
    count_resolved_peaks,
    level_structure,
    peak_contrast,
)
