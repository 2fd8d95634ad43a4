"""Numpy ML training substrate: autograd, layers, models, optimizers, data."""

from . import functional
from .data import DataLoader, SyntheticImages, make_dataset
from .functional import conv2d, cross_entropy, dropout, log_softmax, max_pool2d
from .layers import (
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    MaxPool2d,
    Module,
    Parameter,
    ReLU,
    Sequential,
)
from .metrics import evaluate, topk_accuracy
from .models import VGG_CONFIGS, LogisticRegression, MLP, make_vgg
from .optim import SGD, StepLR
from .tensor import Tensor, is_grad_enabled, no_grad

__all__ = [
    "functional",
    "DataLoader",
    "SyntheticImages",
    "make_dataset",
    "conv2d",
    "cross_entropy",
    "dropout",
    "log_softmax",
    "max_pool2d",
    "BatchNorm2d",
    "Conv2d",
    "Dropout",
    "Flatten",
    "Linear",
    "MaxPool2d",
    "Module",
    "Parameter",
    "ReLU",
    "Sequential",
    "evaluate",
    "topk_accuracy",
    "VGG_CONFIGS",
    "LogisticRegression",
    "MLP",
    "make_vgg",
    "SGD",
    "StepLR",
    "Tensor",
    "is_grad_enabled",
    "no_grad",
]
