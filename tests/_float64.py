"""Float64 copies of float32 models for the finite-difference checks.

The model trains and serves in float32, whose 7 significant digits cannot
resolve a central difference at h = 1e-4. A check builds its model as usual
and casts it here; every op then computes in float64 through the same
kernels.
"""

import numpy as np


def to_float64(model):
    """Cast every parameter and batch-norm buffer of ``model`` to float64 in place."""
    for p in model.parameters().values():
        p.data = p.data.astype(np.float64)
    for bn in model.bns.values():
        bn.running_mean = bn.running_mean.astype(np.float64)
        bn.running_var = bn.running_var.astype(np.float64)
    return model
