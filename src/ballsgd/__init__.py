"""Ball-controlled SGD: saddle escape via controlled episodes, dispersive
noise geometry, stationarity certification, and the statistical experiments
that verify the escape guarantees at desk scale."""

__version__ = "1.0.0"

from .errors import (ConfigError, DimensionTooLarge, InfeasibleSchedule,
                     InvalidArgument, MissingIterates, NonConvergent,
                     NonFinite, NonSymmetric, PreconditionViolated)
from .hyperparams import (ConstraintVerdict, ProblemConstants, Schedule,
                          budget, coupling_offset, derive_schedule,
                          exit_round_length, manual_schedule, round_count,
                          validate_schedule)
from .noise import (GAUSSIAN_TRUNCATION, KINDS, Frequency, NarrowSet,
                    NoiseSampler, dispersive_width, estimate_set_probability,
                    hoeffding_half_width)
from .problems import (BOX_RADIUS, MatrixFactorization, Objective, Quadratic,
                       QuarticSaddle)
from .optimizer import (BUDGET_EXHAUSTED, CONVERGED, EpisodeRecord, RunBatch,
                        RunResult, RunTrace, descent_pass_fraction,
                        descent_threshold, run_ball_sgd)
from .certify import (Certificate, EigEstimate, certify, dense_hessian,
                      dense_min_eigenvalue, min_eigenvalue)
from .diagnostics import (CoupledOutcome, DecompositionTrace,
                          coupled_escape_trial, escape_frequency,
                          matrix_power_bound_check, quadratic_model_run,
                          split_subspaces)
from .concentration import (TailReport, bernstein_tail_experiment,
                            bernstein_threshold, pinelis_tail_experiment)
from .harness import (ExperimentConfig, RunArtifacts, build_noise,
                      build_objective, resolve_schedule, run_config,
                      sweep_epsilon)
