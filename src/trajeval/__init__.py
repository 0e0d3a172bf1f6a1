"""Dual-modality evaluation of recovered handwriting trajectories.

Glyph fidelity is scored with mask IoU and its width-adaptive variant AIoU;
writing order with DTW, the length-normalized LDTW, and RMSE.  The package
also ships the differentiable soft-DTW training loss and a seeded
error-simulation harness for sensitivity / invariance benchmarks.
"""

from .traj_core import (PenState, TrajPoint, Trajectory, dedupe_points,
                        downsample_half, load_trajectory, normalize_to_canvas,
                        resample, resample_many, save_trajectory, stroke_bounds,
                        strokes_of)
from .raster import (BinaryMask, DegenerateHistogramError, GrayImage,
                     OutOfCanvasError, binarize, dilate3x3, otsu_threshold,
                     rasterize, rasterize_many, read_pgm, write_pgm)
from .glyph_metrics import AiouResult, aiou, iou
from .seq_metrics import AlignmentPath, DtwResult, dtw, dtw_many, ldtw, rmse
from .losses import (LossWeights, NonFiniteSdtwError, PredictedPoint, l1_loss,
                     sdtw, sdtw_grad, softmin, total_loss, wce_loss)
from .error_sim import (ERROR_KINDS, change_sample_rate, delete_strokes,
                        drift_points, drift_strokes, insert_strokes, perturb,
                        perturb_row, widen_strokes)
from .bench import (CurveReport, invariance_run, make_synthetic_corpus,
                    normalize_curve, reports_to_csv, reports_to_json,
                    score_pair, score_pairs, sensitivity_run)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
