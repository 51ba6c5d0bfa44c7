"""Ball-controlled SGD: saddle escape via controlled episodes, dispersive
noise geometry, stationarity certification, and the statistical experiments
that verify the escape guarantees at desk scale."""

__version__ = "1.0.0"

from .errors import (ConfigError, DimensionTooLarge, InfeasibleSchedule,
                     InvalidArgument, MissingIterates, NonConvergent,
                     NonFinite, NonSymmetric, PreconditionViolated)
from .rng import Rng
from .hyperparams import (ConstraintVerdict, ProblemConstants, Schedule,
                          all_pass, budget, derive_schedule,
                          exit_round_length, manual_schedule, round_count,
                          validate_schedule)
from .noise import (GAUSSIAN_TRUNCATION, KINDS, NarrowSet, NoiseSampler,
                    ProbabilityEstimate, dispersive_width,
                    estimate_set_probability, hoeffding_half_width)
from .problems import (BOX_RADIUS, MatrixFactorization, Objective, Quadratic,
                       QuarticSaddle, finite_diff_gradient,
                       finite_diff_gradient_check, finite_diff_hvp,
                       make_matrix_factorization, make_quadratic,
                       make_quartic_saddle)
from .optimizer import (BUDGET_EXHAUSTED, CONVERGED, EpisodeDescentReport,
                        EpisodeRecord, RunResult, RunTrace,
                        descent_threshold, episode_descent_report,
                        run_ball_sgd, run_noise_scheduled_sgd)
from .certify import (Certificate, EigEstimate, certify, dense_hessian,
                      dense_min_eigenvalue, min_eigenvalue)
from .diagnostics import (CoupledOutcome, DecompositionTrace,
                          FrequencyReport, coupled_escape_trial,
                          escape_frequency, matrix_power_bound_check,
                          quadratic_model_run, split_subspaces)
from .concentration import (TailReport, bernstein_tail_experiment,
                            bernstein_threshold, pinelis_tail_experiment)
from .harness import (ExperimentConfig, RunArtifacts, SweepResult,
                      build_noise, build_objective, resolve_schedule,
                      run_config, sweep_epsilon)
