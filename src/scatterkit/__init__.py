"""scatterkit: physics-consistent scattering keypoints for SAR image chips.

Synthesize complex chips from a point-scatterer model, decouple scattering
regions, fit scatterer positions, consolidate them into fixed-size keypoint
sets, build Gaussian supervision maps, and evaluate with rotated-box metrics.
"""

from .annotio import skaa_keypoints
from .ascmodel import (FittedScatterer, FrequencyGrid, Scatterer, SeparablePsf,
                       SynthChip, base_psf, fit_scatterer, forward_field,
                       synth_image, synth_target)
from .chipio import read_chip, write_chip, write_pgm
from .config import RunConfig, canonical_text, config_hash, load_config
from .decouple import DecoupleParams, ScatterRegion, decouple
from .errors import ScatterKitError
from .keypoints import (DogParams, KeypointSet, cluster_keypoints,
                        dog_keypoints, instance_seed, to_global)
from .metrics import (Detection, EvalReport, OrientedBox, average_precision,
                      average_precision_grouped, evaluate_detections,
                      greedy_point_match, iou_matrix, max_ious, mean_ap,
                      mean_nearest_distance, phr_curve, proposal_precision,
                      rotated_iou)
from .raster import AmplitudeRaster, ComplexRaster, WindowRaster, amplitude
from .spectral import rectangular_window_2d, taylor_window, taylor_window_2d
from .supervision import (FeatureGrid, ScatterMap, SupervisionParams, bce_loss,
                          downsample_pyramid, enhance_features, gt_scatter_map)

__version__ = "0.1.0"

__all__ = [
    "AmplitudeRaster", "ComplexRaster", "DecoupleParams",
    "Detection", "DogParams", "EvalReport", "FeatureGrid", "FittedScatterer",
    "FrequencyGrid", "KeypointSet", "OrientedBox", "RunConfig",
    "Scatterer", "ScatterKitError", "ScatterMap", "ScatterRegion",
    "SeparablePsf", "SupervisionParams", "SynthChip", "WindowRaster",
    "amplitude", "average_precision", "average_precision_grouped",
    "base_psf", "bce_loss",
    "canonical_text", "cluster_keypoints", "config_hash", "decouple",
    "dog_keypoints", "downsample_pyramid",
    "enhance_features", "evaluate_detections", "fit_scatterer", "forward_field",
    "greedy_point_match", "gt_scatter_map", "instance_seed", "iou_matrix",
    "load_config", "max_ious", "mean_ap", "mean_nearest_distance",
    "phr_curve", "proposal_precision", "read_chip",
    "rectangular_window_2d", "rotated_iou", "skaa_keypoints", "synth_image",
    "synth_target", "taylor_window", "taylor_window_2d", "to_global",
    "write_chip", "write_pgm",
]
