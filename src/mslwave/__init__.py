"""Numerically stable transfer-matrix variants for multilayer matrix
Sturm-Liouville systems: the associated transfer matrix T, its hybrid
(H), stiffness (E), coefficient-transfer (K) and scattering (S)
companions, their composition rules, boundary-value solvers, and
roundoff diagnostics for the large-|Im k| d degradation they avoid.
"""

__version__ = "0.1.0"

from .errors import (DegenerateModeError, EigensolveError,
                     IllConditionedError, MatrixOverflowError, ModelingError,
                     MslError, PartitionError, ResonanceError,
                     SingularMatrixError, StructuralError, StructureFileError,
                     VariantError)
from .media import (Layer, LayeredStructure, MslCoefficients,
                    ShPiezoParams, ValidationReport, make_quantum_medium,
                    make_scalar_medium, make_sh_piezo_medium,
                    sh_piezo_expected_wavenumbers, validate_coefficients)
from .qep import (Mode, ModeBasis, linear_form_amplitudes, partition_modes,
                  secular_matrix, solve_qep)
from .propagators import (BlockMatrix, GammaBlocks, Variant,
                          antidiagonal_identity, e_from_t, e_single_stable,
                          gamma_blocks, h_from_t, h_single_stable,
                          invert_variant, k_matrix, q_matrix, reblock_family,
                          s_from_k, t_partitions, t_single)
from .compose import (CompositionStep, CompositionTrace, compose_e,
                      compose_h, compose_t, interface_scattering, s_identity,
                      star_product, structure_propagator)
from .solvers import (Band, ModelingWarning, QuantumLayer, RootRecord,
                      SecularScan, band_scans, band_structure, connect_bands,
                      escape_energy_scan, escape_secular, finite_well_oracle,
                      kronig_penney_period, kronig_penney_residuals,
                      periodic_dispersion, scan_and_refine, sh_wave_speeds)
from .structure_io import (StructureDefinition, load_structure,
                           parse_structure, serialize_structure)
from .verify import (FirstOrderSystem, StabilityReport, default_c_estimate,
                     det_unimodularity_scan, expm_propagator,
                     first_order_matrix, rk4_propagator, roundoff_bound,
                     t_det_drift, variant_comparison_report)
