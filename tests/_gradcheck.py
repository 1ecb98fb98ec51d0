"""Central-difference gradient check for the model tests."""

import numpy as np


def grad_check(fn, params: dict, rng: np.random.Generator,
               n_coords: int = 200, h: float = 1e-5) -> float:
    """Worst relative error between analytic and central-difference grads.

    ``fn`` recomputes (loss, grads dict) at the current parameter values;
    coordinates are sampled without replacement across all parameters.
    """
    _, grads = fn()
    flat = [(name, i) for name, arr in params.items() for i in range(arr.size)]
    picks = rng.choice(len(flat), size=min(n_coords, len(flat)), replace=False)
    worst = 0.0
    for ci in picks:
        name, i = flat[int(ci)]
        arr = params[name]
        old = arr.flat[i]
        arr.flat[i] = old + h
        lp = fn()[0]
        arr.flat[i] = old - h
        lm = fn()[0]
        arr.flat[i] = old
        fd = (lp - lm) / (2.0 * h)
        ga = grads[name].flat[i]
        rel = abs(ga - fd) / max(abs(ga), abs(fd), 1e-8)
        worst = max(worst, rel)
    return worst
