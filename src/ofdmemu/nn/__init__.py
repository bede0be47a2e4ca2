"""Differentiable-computation core: tensors, layers, and the waveform
models (compensator, link proxy, toy image codec)."""

from .autodiff import Tensor, concat, conv2d
from .gradcheck import GradCheckError, GradCheckReport, grad_check
from .layers import Conv2d, Dense, Module, SGDMomentum
from .models import (
    CompensatorModel,
    PeriodSpec,
    ProxyModel,
    ToyJsccModel,
    complex_to_wave,
    wave_to_complex,
)

__all__ = [
    "Tensor",
    "concat",
    "conv2d",
    "grad_check",
    "GradCheckError",
    "GradCheckReport",
    "Module",
    "Dense",
    "Conv2d",
    "SGDMomentum",
    "PeriodSpec",
    "CompensatorModel",
    "ProxyModel",
    "ToyJsccModel",
    "complex_to_wave",
    "wave_to_complex",
]
