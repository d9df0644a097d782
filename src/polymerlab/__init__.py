"""Simulation laboratory for a weakly self-avoiding moving polymer.

A string of J coupled heights evolves by a discrete heat flow driven by
unit Gaussian noise, reflecting at both ends.  The library provides the
exact cosine-mode solution of that flow, the self-repelling measure
obtained by penalizing near-collisions, increment and gyration
statistics with their closed forms, the large-deviation toolkit for
time-averaged squared modes, and batch experiment drivers with
deterministic reports.
"""

from .ar1 import (AR1Params, DegenerateProcessError, cumulant_threshold,
                  legendre_rate, mode_decompose, rate_function,
                  reconstruct_centered, tail_probe)
from .dynamics import (FreeModes, NoiseField, Trajectory, counter_rng,
                       free_modes, mode_innovation_std, neumann_laplacian,
                       read_trajectory_binary, sample_noise,
                       simulate_recursion, solution_formula,
                       write_trajectory_binary)
from .experiments import (ConfigError, Report, StudyConfig, emit_report,
                          load_config, parse_config_text, parse_report_csv,
                          read_report_jsonl, rows_to_csv, run_scaling_study,
                          run_tail_probes, run_validation_suite,
                          scaling_exact_r2, validation_manifest)
from .gibbs import (SamplerDegeneracyError, WeightedEnsemble,
                    estimate_measure, jensen_lower_bound, metropolis_sampler,
                    sample_ensemble, sample_measure)
from .increments import (ScanResult, increment_variance,
                         monte_carlo_increment_check, scan_distances,
                         variance_scaling_scan)
from .observables import (InequalityReport, intersection_counts_batch,
                          local_inequality_check, occupancy_histogram,
                          radius_of_gyration)
from .spectral import (MAX_J, Basis, Convention, build_basis,
                       cosecant_square_sum, green_function,
                       normalizing_constant_c0, transition_matrix,
                       transition_matrix_power)

__version__ = "0.1.0"
