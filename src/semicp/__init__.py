"""Conformal prediction calibration with labeled and unlabeled data."""

__version__ = "0.1.0"

from .calibration import (Threshold, cluster_classes, conditional_thresholds,
                          conformal_quantile, epsilon_bias,
                          interpolated_quantile)
from .datagen import (SyntheticConfig, calibrate_signal_for_accuracy,
                      generate_synthetic, measure_top1_accuracy)
from .dataio import load_dataset, save_dataset, write_results
from .dataset import ProbabilityDataset
from .errors import (CalibrationError, ConfigurationError, ConvergenceError,
                     DataError, EstimationError, InputError, SemicpError)
from .metrics import (MetricsSummary, TrialResult, avg_size, cov_gap, coverage,
                      empirical_cdf, improvement, ks_distance, over_under_gaps,
                      summarize)
from .runner import (CalibrationPlan, DataSource, ExperimentConfig, MethodSpec,
                     config_from_dict, load_config, run_experiment, run_sweep,
                     run_trial)
from .scores import ScoreSpec, rank_and_cummass_batch
from .unlabeled import (EstimatorSpec, LabeledRecords, PseudoScores,
                        ScoreTables, check_estimator, estimate_scores,
                        neighbor_match, pseudo_labels)
