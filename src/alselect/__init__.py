"""Streaming entropy-weighted query selection for pool-based active
learning, with a simulation harness for benchmarking selection strategies
and empirically validating the hitting-probability bound."""

__version__ = "0.1.0"

from .classifier import FitConfig, ModelParams, accuracy, fit, predict_proba_matrix
from .data import (Dataset, StandardizationParams, load_csv, standardize_apply,
                   standardize_fit)
from .errors import (DataFormatError, EmptyFileError, InfeasibleSpecError,
                     InsufficientClassInstancesError, InsufficientItemsError,
                     MissingColumnError, NonNumericCellError, VacuousBoundError)
from .harness import (ExperimentConfig, ExperimentResult, LemmaValidationReport,
                      RoundRecord, SplitState, SynthPocketSpec, biased_init,
                      generate_pocket_dataset, run_experiment, run_trial,
                      validate_lemma)
from .probs import (LemmaBoundInput, LemmaBoundReport, entropy_lower_bound,
                    entropy_ratio_bound, lemma_bound)
from .sampling import RngState, SelectionStats, select_top_k, uniform_sample
from .strategies import (PoolScores, StrategyConfig, StrategyKind, score_pool,
                         select_batch)
