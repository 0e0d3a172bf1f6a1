"""Dual-modality evaluation of recovered handwriting trajectories.

Glyph fidelity is scored with mask IoU and its width-adaptive variant AIoU;
writing order with DTW, the length-normalized LDTW, and RMSE.  The package
also ships the differentiable soft-DTW training loss and a seeded
error-simulation harness for sensitivity / invariance benchmarks.
"""

from .traj_core import (PenState, Stroke, TrajPoint, Trajectory, dedupe_points,
                        downsample_half, load_trajectory, normalize_to_canvas,
                        resample, save_trajectory, strokes_of)
from .raster import (BinaryMask, DegenerateHistogramError, GrayImage,
                     OutOfCanvasError, binarize, dilate3x3, otsu_threshold,
                     rasterize, read_mask_pgm, read_pgm, write_mask_pgm, write_pgm)
from .glyph_metrics import AiouResult, aiou, iou
from .seq_metrics import AlignmentPath, DtwResult, dtw, ldtw, rmse
from .losses import (LossWeights, PredictedPoint, SoftParams, l1_loss, sdtw,
                     sdtw_grad, softmin, total_loss, wce_loss)
from .error_sim import (ERROR_KINDS, change_sample_rate, delete_strokes,
                        drift_points, drift_strokes, insert_strokes, perturb,
                        widen_strokes)
from .bench import (CurveReport, invariance_run, make_synthetic_corpus,
                    normalize_curve, reports_to_csv, reports_to_json,
                    score_pair, sensitivity_run)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
