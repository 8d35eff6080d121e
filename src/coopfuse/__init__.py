"""Latency- and noise-robust multi-agent BEV feature fusion at desk scale."""

import os

# one BLAS thread unless the caller sets another, before numpy loads: fork_map's
# workers, one per core, would oversubscribe, and sums depend on the thread count
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import ops  # noqa: E402, F401  (attaches Tensor operator sugar)
from .pipeline import ConfigError, MetricRecord, Pipeline, PipelineConfig, evaluate  # noqa: E402
from .tensor import Parameter, Tape, Tensor, no_grad  # noqa: E402
from .training import Adam, DivergenceError, TrainResult, train  # noqa: E402
from .wavelet import SubbandSet, haar_iwt2d, haar_wt2d  # noqa: E402
from .world import (ChannelConfig, FeaturePacket, Pose2D, Scenario, Scene,  # noqa: E402
                    make_scenario, render_bev, step_scene, transform_to_ego)

__all__ = [
    "Adam", "ChannelConfig", "ConfigError", "DivergenceError", "FeaturePacket",
    "MetricRecord", "Parameter", "Pipeline", "PipelineConfig", "Pose2D",
    "Scenario", "Scene", "SubbandSet", "Tape", "Tensor", "TrainResult",
    "evaluate", "haar_iwt2d", "haar_wt2d", "make_scenario", "no_grad",
    "render_bev", "step_scene", "train", "transform_to_ego",
]

__version__ = "0.1.0"
