"""Learning Markovian embeddings of non-Markovian open quantum dynamics.

A small system coupled to an effective finite reservoir plus a refreshed
ancilla gives a repeated-interaction model whose period map is a quantum
channel by construction.  This package fits the dilation Hamiltonian of
that model to a single sequence of projective measurement outcomes by
likelihood ascent, selects the reservoir dimension on held-out data,
attaches variational error bars, and benchmarks the result against exact
simulation and standard process tomography.
"""

from .errors import (BranchCutError, ConfigError, DataError, DivergenceError,
                     EmbedlearnError, FixedPointError, IllConditionedError,
                     NumericalError, TomographyError, ZeroProbabilityError)
from .qla import DimSpec, bloch_vector, dagger, haar_random_pure_state, hermitianize, \
    kron, logm_principal, ptrace, trace_norm, unvec, vec
from .embedding import (GeneratorSuperoperator, MarkovianEmbedding,
                        equilibrium_er_state, extract_generator, load_model,
                        make_embedding, predict_dynamics, save_model,
                        superoperator_matrix)
from .datagen import (CollisionModelConfig, Dataset, dataset_prefix,
                      exact_reference_dynamics, generate_trajectory, load_dataset,
                      make_records, sample_trajectory, save_dataset, split_dataset,
                      validation_continuation)
from .likelihood import (build_cache, conditional_validation_ll, log_likelihood,
                         log_likelihood_gradient)
from .train import LearningCurve, TrainConfig, fit, init_model, select_d_er
from .bayes import (BayesConfig, PosteriorDynamics, VariationalPosterior,
                    bayes_channel_error, fit_posterior, load_posterior,
                    sample_dynamics, save_posterior)
from .assess import (ControlEvent, TomographyDesign, average_choi_error,
                     choi_from_superop, concatenation_prediction, default_design,
                     dynamics_maps, predict_with_control, simulate_tomography_counts,
                     tomography_mle, trace_distance_trajectory)

__version__ = "0.1.0"

__all__ = [
    "BranchCutError", "ConfigError", "DataError", "DivergenceError",
    "EmbedlearnError", "FixedPointError", "IllConditionedError",
    "NumericalError", "TomographyError", "ZeroProbabilityError",
    "DimSpec", "bloch_vector", "dagger", "haar_random_pure_state",
    "hermitianize", "kron", "logm_principal", "ptrace", "trace_norm",
    "unvec", "vec",
    "GeneratorSuperoperator", "MarkovianEmbedding",
    "equilibrium_er_state", "extract_generator", "load_model",
    "make_embedding", "predict_dynamics", "save_model", "superoperator_matrix",
    "CollisionModelConfig", "Dataset", "dataset_prefix",
    "exact_reference_dynamics", "generate_trajectory", "load_dataset",
    "make_records", "sample_trajectory", "save_dataset", "split_dataset",
    "validation_continuation",
    "build_cache", "conditional_validation_ll", "log_likelihood",
    "log_likelihood_gradient",
    "LearningCurve", "TrainConfig", "fit", "init_model", "select_d_er",
    "BayesConfig", "PosteriorDynamics", "VariationalPosterior",
    "bayes_channel_error", "fit_posterior", "load_posterior",
    "sample_dynamics", "save_posterior",
    "ControlEvent", "TomographyDesign", "average_choi_error",
    "choi_from_superop", "concatenation_prediction", "default_design",
    "dynamics_maps", "predict_with_control", "simulate_tomography_counts",
    "tomography_mle", "trace_distance_trajectory",
    "__version__",
]
