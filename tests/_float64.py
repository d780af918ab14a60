"""Float64 copies of float32 models for the finite-difference checks.

The model trains and serves in float32, whose 7 significant digits cannot
resolve a central difference at h = 1e-4. A check builds its model as usual
and casts it here; every op then computes in float64 through the same
kernels.
"""

import numpy as np


def to_float64(model):
    """Cast every array of ``model``, parameters and batch-norm statistics, to float64 in place."""
    for t in model.tensors.values():
        t.data = t.data.astype(np.float64)
    return model
