"""Covariant transforms over concrete groups.

The central object is the map v |-> (W v)(g) = F(pi(g^-1) v): a signal
becomes a function on a group once a representation pi and a fiducial
evaluator F are fixed.  Specializing the pieces recovers the wavelet
transform, Cauchy and Poisson integrals, the averaged-modulus maximal
function, and the Radon transform; invariant pairings run the map
backwards, with or without an admissible vacuum.
"""

from .groups import (AffineElement, EuclideanMotion, GridAxis, GridSpecError,
                     GroupGrid, Su11Element, element_distance, make_grid,
                     rotation_matrix)
from .signals import (SampledSignal1D, SampledSignal2D, evaluate, evaluate2,
                      integrate, lp_norm, read_signal_csv, read_signal2_csv,
                      resample, signal_from_function, signal2_from_function,
                      write_signal_csv, write_signal2_csv)
from .representations import (AffineRep, EuclideanRep, apply, apply_affine,
                              apply_euclidean)
from .fiducials import (Fiducial, eval_cauchy, eval_combo,
                        eval_interval_average, eval_inner_product, eval_jump,
                        eval_poisson_kernel, eval_radon_line, parse_fiducial,
                        truncation_budget)
from .transform import (TransformResult, check_intertwining,
                        covariant_transform, hardy_maximal, line_motion,
                        radon_transform, radon_values, read_transform_csv,
                        write_transform_csv)
from .inversion import (HardyPairingResult, InadmissibleVacuumError,
                        ReconstructionReport, admissibility_constant,
                        haar_pairing, hardy_grid, hardy_pairing,
                        inverse_haar, inverse_hardy, parse_a_sequence)
from .operators import (UnitaryOrbit, mobius_apply, numerical_range_hull,
                        numrange_transform,
                        read_matrix_json, read_vector_json, spectral_radius,
                        support_function, write_matrix_json,
                        write_vector_json)
from .checks import available_suites, run_suites

__version__ = "0.1.0"

__all__ = [
    "AffineElement", "EuclideanMotion", "GridAxis", "GridSpecError",
    "GroupGrid", "Su11Element", "element_distance", "make_grid",
    "rotation_matrix",
    "SampledSignal1D", "SampledSignal2D", "evaluate", "evaluate2",
    "integrate", "lp_norm", "read_signal_csv", "read_signal2_csv",
    "resample", "signal_from_function", "signal2_from_function",
    "write_signal_csv", "write_signal2_csv",
    "AffineRep", "EuclideanRep", "apply", "apply_affine", "apply_euclidean",
    "Fiducial", "eval_cauchy", "eval_combo", "eval_interval_average",
    "eval_inner_product", "eval_jump", "eval_poisson_kernel",
    "eval_radon_line", "parse_fiducial", "truncation_budget",
    "TransformResult", "check_intertwining", "covariant_transform",
    "hardy_maximal", "line_motion", "radon_transform", "radon_values",
    "read_transform_csv", "write_transform_csv",
    "HardyPairingResult", "InadmissibleVacuumError", "ReconstructionReport",
    "admissibility_constant", "haar_pairing", "hardy_grid", "hardy_pairing",
    "inverse_haar", "inverse_hardy", "parse_a_sequence",
    "UnitaryOrbit", "mobius_apply", "numerical_range_hull",
    "numrange_transform", "read_matrix_json", "read_vector_json",
    "spectral_radius", "support_function", "write_matrix_json",
    "write_vector_json",
    "available_suites", "run_suites",
    "__version__",
]
