"""Radical-pair spin dynamics and the signals an NV-center sensor detects."""

__version__ = "0.1.0"

from .dynamics import Propagator, make_propagator, singlet_yield_mean
from .ensemble import EnsembleSpec, EnsembleStatistics, OrientationMode, ensemble_sweep
from .errors import ConfigError, NumericalError, PhysicsError
from .hamiltonian import (
    DecayConvention,
    FieldConfig,
    InitialElectronState,
    Nucleus,
    RadicalPairConfig,
    SensorParams,
    build_rp_hamiltonian,
    coupling_geometry,
)
from .signal import (
    SweepResult,
    aligned_prefactor,
    integrated_observables,
    observable_series,
    single_molecule_prefactor,
    solve_pair,
    spectrum,
    sweep_field_angle,
    sweep_field_magnitude,
)
from .spincore import Rotation
from .strongcoupling import LevelStructure, count_resolved_peaks, level_structure, peak_contrast
