"""Finite-difference sensitivity estimation (Equations 6-7).

The paper's linear model relates normalized process perturbations ``dx``
to performance perturbations ``dp = A_p dx`` and signature perturbations
``ds = A_s dx``.  Both matrices are estimated here by forward (or
central) finite differences around the nominal process point, with the
perturbations expressed as *fractions of nominal* so that parameters of
wildly different physical units share a common scale.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.circuits.parameters import ParameterSpace

__all__ = [
    "difference_star",
    "finite_difference_jacobian",
    "performance_sensitivity",
    "signature_sensitivity",
    "star_jacobian",
]

VectorFunction = Callable[[Dict[str, float]], np.ndarray]


def difference_star(
    space: ParameterSpace, rel_step: float = 0.05, central: bool = False
) -> List[Dict[str, float]]:
    """The finite-difference star's parameter dicts, in evaluation order.

    The nominal point, then for each parameter its ``+rel_step`` point
    (and, for central differences, its ``-rel_step`` point).  The star
    depends only on the space and the step, so a caller that evaluates
    it many times (the GA fitness loop) can build its devices once,
    evaluate them in one batch and pass the rows to
    :func:`star_jacobian`.
    """
    if not (0.0 < rel_step < 0.5):
        raise ValueError("rel_step should be a small positive fraction")
    points = [space.to_dict(space.nominal_vector())]
    for name in space.names():
        points.append(space.to_dict(space.perturbed_vector(name, rel_step)))
        if central:
            points.append(space.to_dict(space.perturbed_vector(name, -rel_step)))
    return points


def star_jacobian(
    outs: np.ndarray,
    space: ParameterSpace,
    rel_step: float = 0.05,
    central: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Jacobian from one output row per :func:`difference_star` point.

    Returns ``(J, baseline)`` where ``J[i, j] = d out_i / d (dx_j)`` with
    ``dx_j`` the *fractional* deviation of parameter ``j``, and
    ``baseline`` the nominal output (row 0).
    """
    stride = 2 if central else 1
    outs = np.asarray(outs, dtype=float)
    if outs.ndim != 2 or len(outs) != 1 + stride * len(space):
        raise ValueError("need one 1-D output vector per difference-star point")
    baseline = outs[0].copy()
    jac = np.empty((outs.shape[1], len(space)))
    for j in range(len(space)):
        plus = outs[1 + stride * j]
        if central:
            minus = outs[2 + stride * j]
            jac[:, j] = (plus - minus) / (2.0 * rel_step)
        else:
            jac[:, j] = (plus - baseline) / rel_step
    return jac, baseline


def finite_difference_jacobian(
    func: VectorFunction,
    space: ParameterSpace,
    rel_step: float = 0.05,
    central: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Jacobian of ``func`` w.r.t. normalized process deviations.

    Parameters
    ----------
    func:
        Maps a parameter dict to an output vector (specs or a signature).
        Must be deterministic -- pass noise-free evaluations.
    space:
        Process-parameter space supplying names and nominals.
    rel_step:
        Fractional perturbation of each parameter.
    central:
        Use central differences (2x the evaluations, 2nd-order accurate).

    Returns
    -------
    ``(J, baseline)`` as :func:`star_jacobian`, with ``func`` called once
    per :func:`difference_star` point, in star order.
    """
    points = difference_star(space, rel_step, central)
    outs = [np.asarray(func(p), dtype=float) for p in points]
    if any(out.ndim != 1 for out in outs):
        raise ValueError("func must return a 1-D vector")
    return star_jacobian(np.array(outs), space, rel_step, central)


def performance_sensitivity(
    device_factory: Callable[[Dict[str, float]], "object"],
    space: ParameterSpace,
    rel_step: float = 0.05,
    central: bool = True,
) -> Tuple[np.ndarray, np.ndarray]:
    """The matrix ``A_p`` of Equation 6 (specs vs process).

    ``device_factory`` builds a DUT instance from a parameter dict; its
    ``specs()`` vector (gain dB, NF dB, IIP3 dBm) is differentiated.
    Returns ``(A_p, nominal_specs)``.
    """

    def spec_vector(params: Dict[str, float]) -> np.ndarray:
        return device_factory(params).specs().as_vector()

    return finite_difference_jacobian(spec_vector, space, rel_step, central)


def signature_sensitivity(
    signature_fn: VectorFunction,
    space: ParameterSpace,
    rel_step: float = 0.05,
    central: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """The matrix ``A_s`` of Equation 7 (signature vs process).

    ``signature_fn`` maps a parameter dict to the *noise-free* signature
    vector for the stimulus under evaluation.  Forward differences are the
    default; the stimulus optimizer instead evaluates the central star
    as one batched capture (:func:`difference_star` /
    :func:`star_jacobian`).  Returns ``(A_s, nominal_signature)``.
    """
    return finite_difference_jacobian(signature_fn, space, rel_step, central)
