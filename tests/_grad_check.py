"""The finite-difference gradient checker every gradient test runs.

Central differences are the independent oracle for the hand-written
backward closures. They need float64 parameters: ``_float64.to_float64``
casts a model's arrays for it.
"""

import numpy as np


def grad_check(f, params, h: float = 1e-4) -> float:
    """Max relative error between reverse-mode and central-difference gradients.

    ``f()`` rebuilds and returns a scalar Tensor; ``params`` are the leaves to
    probe. Every coordinate of every parameter is perturbed by ±h in place,
    so each parameter must be C-contiguous float64: a strided view would be
    probed through a copy the computation never reads, and float32 cannot
    resolve a ±1e-4 difference. Anything else raises ``ValueError``.
    """
    for i, p in enumerate(params):
        if p.data.dtype != np.float64 or not p.data.flags.c_contiguous:
            layout = "C-contiguous" if p.data.flags.c_contiguous else "strided"
            raise ValueError(
                f"grad_check parameter {i} of shape {p.data.shape} is {layout} "
                f"{p.data.dtype}; it must be C-contiguous float64"
            )
    for p in params:
        p.zero_grad()
    out = f()
    out.backward()
    analytic = [None if p.grad is None else p.grad.copy() for p in params]

    worst = 0.0
    for p, ana in zip(params, analytic):
        if ana is None:
            continue
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f().item()
            flat[i] = orig - h
            fm = f().item()
            flat[i] = orig
            num = (fp - fm) / (2.0 * h)
            a = ana.reshape(-1)[i]
            denom = max(abs(num), abs(a), 1e-6)
            worst = max(worst, abs(num - a) / denom)
    return worst
