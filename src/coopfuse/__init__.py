"""Latency- and noise-robust multi-agent BEV feature fusion at desk scale."""

from . import ops  # noqa: F401  (attaches Tensor operator sugar)
from .gradcheck import grad_check
from .pipeline import ConfigError, MetricRecord, Pipeline, PipelineConfig, evaluate
from .tensor import Parameter, Tape, Tensor, no_grad
from .training import Adam, DivergenceError, TrainResult, train
from .wavelet import SubbandSet, haar_iwt2d, haar_wt2d
from .world import (ChannelConfig, FeaturePacket, Pose2D, Scenario, Scene,
                    make_scenario, render_bev, step_scene, transform_to_ego)

__all__ = [
    "Adam", "ChannelConfig", "ConfigError", "DivergenceError", "FeaturePacket",
    "MetricRecord", "Parameter", "Pipeline", "PipelineConfig", "Pose2D",
    "Scenario", "Scene", "SubbandSet", "Tape", "Tensor", "TrainResult",
    "evaluate", "grad_check", "haar_iwt2d", "haar_wt2d", "make_scenario",
    "no_grad", "render_bev", "step_scene", "train", "transform_to_ego",
]

__version__ = "0.1.0"
