"""From-scratch numpy CNN training substrate.

Implements the layers, losses and optimizers the NeuroFlux reproduction
needs: im2col convolution, depthwise convolution, batch norm, max/avg/
adaptive pooling, linear, ReLU family, dropout, cross-entropy/MSE losses,
and SGD/Adam.  Every module follows an explicit forward/backward contract
(see :mod:`repro.nn.module`).
"""

from repro.nn.activations import LeakyReLU, ReLU, Tanh
from repro.nn.conv import Conv2d, DepthwiseConv2d
from repro.nn.dropout import Dropout
from repro.nn.flatten import Flatten
from repro.nn.linear import Linear
from repro.nn.losses import CrossEntropyLoss, MSELoss
from repro.nn.module import Identity, Module, Parameter, Sequential, run_backward
from repro.nn.normalization import BatchNorm2d
from repro.nn.optim import SGD, Adam, Optimizer, make_optimizer
from repro.nn.pooling import AdaptiveAvgPool2d, AvgPool2d, GlobalAvgPool2d, MaxPool2d

__all__ = [
    "Adam",
    "AdaptiveAvgPool2d",
    "AvgPool2d",
    "BatchNorm2d",
    "Conv2d",
    "CrossEntropyLoss",
    "DepthwiseConv2d",
    "Dropout",
    "Flatten",
    "GlobalAvgPool2d",
    "Identity",
    "LeakyReLU",
    "Linear",
    "MSELoss",
    "MaxPool2d",
    "Module",
    "Optimizer",
    "Parameter",
    "ReLU",
    "SGD",
    "Sequential",
    "Tanh",
    "make_optimizer",
    "run_backward",
]
