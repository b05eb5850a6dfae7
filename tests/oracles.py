"""Reference implementations the tests compare library code against."""

import numpy as np

import leaf.tensor as T


def cosine_similarity(u, v, eps_norm: float = T.EPS_NORM) -> T.Tensor:
    """u.v / (|u||v|), differentiable; rejects near-zero vectors."""
    u, v = T.as_tensor(u), T.as_tensor(v)
    nu = float(np.linalg.norm(u.data))
    nv = float(np.linalg.norm(v.data))
    if nu < eps_norm or nv < eps_norm:
        raise T.DegenerateVectorError(
            f"cosine_similarity: vector norm below {eps_norm} (|u|={nu:.3g}, |v|={nv:.3g})")

    def dot(a, b):
        return T.tsum(T.mul(a, b))

    return T.div(dot(u, v), T.mul(T.sqrt(dot(u, u)), T.sqrt(dot(v, v))))
