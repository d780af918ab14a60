"""Kernel weights for tests, drawn the way the model draws its own, and the
scalar probe loss the gradient tests differentiate."""

import numpy as np

from editseg import autodiff as ad
from editseg.autodiff import Tensor
from editseg.model import initial_value


def probe_loss(out: Tensor, probe) -> Tensor:
    """The scalar sum of ``out * probe`` as one graph node; its gradient into
    ``out`` is ``g * probe``. ``probe`` has the shape of ``out``."""
    probe = np.asarray(probe)
    if probe.shape != out.data.shape:
        raise ValueError(f"probe shape {probe.shape} differs from output shape {out.data.shape}")

    def backward(g):
        ad._accumulate(out, g * probe)

    return ad._node((out.data * probe).sum(), (out,), backward)


def bilstm_weights(rng, input_dim: int, hidden_dim: int):
    """Each direction's (w_ih, w_hh, b): Xavier-uniform weights, zero bias."""
    shapes = {"w_ih": (input_dim, 4 * hidden_dim), "w_hh": (hidden_dim, 4 * hidden_dim), "b": (4 * hidden_dim,)}
    return tuple(
        [Tensor(initial_value(rng, f"lstm.{d}.{w}", shape), requires_grad=True) for w, shape in shapes.items()]
        for d in ("fwd", "bwd")
    )


def batch_norm(channels: int):
    """A fresh (gamma, beta, running_mean, running_var): scale 1, shift 0, statistics 0 and 1."""
    return [
        Tensor(np.ones(channels), requires_grad=True),
        Tensor(np.zeros(channels), requires_grad=True),
        np.zeros(channels),
        np.ones(channels),
    ]
