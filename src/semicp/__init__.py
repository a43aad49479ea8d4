"""Conformal prediction calibration with labeled and unlabeled data."""

__version__ = "0.1.0"

from .calibration import (ScoredPool, Threshold, cluster_classes,
                          conditional_thresholds, conformal_quantile,
                          epsilon_bias, interpolated_quantile, predict_set,
                          prediction_mask, semicp_threshold)
from .datagen import (SyntheticConfig, calibrate_signal_for_accuracy,
                      generate_synthetic, measure_top1_accuracy)
from .dataio import load_dataset, save_dataset, write_results
from .dataset import ProbabilityDataset
from .errors import (CalibrationError, ConfigurationError, ConvergenceError,
                     DataError, EstimationError, InputError, SemicpError)
from .metrics import (MetricsSummary, TrialResult, avg_size, beta_cdf,
                      class_cov_gap, cov_gap, coverage, empirical_cdf,
                      improvement, ks_distance, over_under_gaps, summarize)
from .runner import (CalibrationPlan, DataSource, ExperimentConfig, MethodSpec,
                     config_from_dict, load_config, run_experiment, run_sweep,
                     run_trial)
from .scores import (ScoreSpec, rank_and_cummass, score_all_labels,
                     score_all_labels_batch, score_label)
from .unlabeled import (EstimatorSpec, LabeledRecords, build_labeled_records,
                        debias_scores, estimate_scores, naive_scores,
                        neighbor_match, nnm_r_scores, nnm_scores, pseudo_label,
                        pseudo_labels, random_match_scores)
