"""Each input check raises its typed error with its message.

One case per check that no other test reaches: malformed input must fail with
the library's own error type, never with a traceback from numpy or Python.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

from elastinet.bounds import PiecewiseClosedCurve, amgm_energy_bound, pair_loop, theta_lower_bound_check
from elastinet.energy import optimal_rescale
from elastinet.errors import (
    InvalidConfigError,
    InvalidCurveError,
    InvalidInputError,
    NetworkValidationError,
    NoOptimalRescaleError,
    ParseError,
    SingularAngleError,
)
from elastinet.geometry import (
    DiscreteCurve,
    VertexAngleSet,
    edge_tangents,
    endpoint_tangent_array,
    polyline_length,
    resample_uniform,
    vertex_curvature,
)
from elastinet.minimize import OptimizationConfig
from elastinet.networks import (
    Junction,
    Network,
    deserialize,
    generalized_bubble_energy,
    make_circle,
    make_degenerate_figure_eight,
    make_generalized_bubble,
    make_standard_double_bubble,
    make_symmetric_double_drop,
    make_teardrop,
    optimal_bubble_radius,
    recovery_sequence,
    scale_network,
    serialize,
)

ZERO_FIRST_EDGE = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
STRAIGHT = DiscreteCurve(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))


def _circle():
    return make_circle(1.0, 16)


def _theta():
    return make_standard_double_bubble(optimal_bubble_radius(), 16)


def _generalized(**changes):
    return dataclasses.replace(make_generalized_bubble(1.2, 1.5, 16), **changes)


def _two_angles_document():
    doc = serialize(make_generalized_bubble(1.2, 1.5, 16))
    doc["angles"] = doc["angles"][:2]
    return doc


CASES = {
    # bounds
    "loop-without-arcs": (lambda: PiecewiseClosedCurve(()), InvalidInputError, "need at least one arc"),
    "loop-of-a-closed-arc": (
        lambda: PiecewiseClosedCurve(_circle().curves),
        InvalidInputError,
        "arcs must be open curves",
    ),
    "pair-loop-of-a-circle": (
        lambda: pair_loop(_circle(), 0, 1),
        InvalidInputError,
        "pair loops are built from theta networks",
    ),
    "pair-loop-of-one-curve": (lambda: pair_loop(_theta(), 1, 1), InvalidInputError, "need two distinct curves"),
    "amgm-of-a-string": (
        lambda: amgm_energy_bound("curve", 1.0),
        InvalidInputError,
        "expected a DiscreteCurve or PiecewiseClosedCurve",
    ),
    "theta-bound-of-a-circle": (lambda: theta_lower_bound_check(_circle()), InvalidInputError, "expected a theta network"),
    # geometry, on raw point arrays
    "points-of-three-columns": (
        lambda: polyline_length(np.zeros((3, 3))),
        InvalidCurveError,
        "points must have shape (n, 2), got (3, 3)",
    ),
    "corner-angle-above-pi": (lambda: VertexAngleSet((4.0,)), InvalidCurveError, "corner angle 4.0 outside [0, pi]"),
    "length-of-one-point": (
        lambda: polyline_length(np.zeros((1, 2))),
        InvalidCurveError,
        "length needs at least 2 points",
    ),
    "tangents-of-a-zero-edge": (lambda: edge_tangents(ZERO_FIRST_EDGE), InvalidCurveError, "zero-length edge"),
    "curvature-of-two-points": (
        lambda: vertex_curvature(np.zeros((2, 2))),
        InvalidCurveError,
        "curvature needs at least 3 points",
    ),
    "end-tangents-of-a-zero-edge": (
        lambda: endpoint_tangent_array([ZERO_FIRST_EDGE]),
        InvalidCurveError,
        "zero-length edge",
    ),
    "resample-a-point": (
        lambda: resample_uniform(np.zeros((3, 2)), 4),
        InvalidCurveError,
        "cannot resample a zero-length curve",
    ),
    # energy and the solver's settings
    "rescale-a-straight-network": (
        lambda: optimal_rescale(Network("double_drop", (STRAIGHT, STRAIGHT))),
        NoOptimalRescaleError,
        "straight network: no optimal rescaling exists",
    ),
    "negative-max-iters": (lambda: OptimizationConfig(max_iters=-1), InvalidConfigError, "max_iters must be nonnegative"),
    # networks
    "junction-at-nan": (
        lambda: Junction((math.nan, 0.0), 0.0, (0.0,)),
        InvalidInputError,
        "junction position must be finite",
    ),
    "unknown-kind": (lambda: Network("square", _circle().curves), InvalidInputError, "unknown network kind 'square'"),
    "closed-kind-of-an-open-curve": (
        lambda: Network("closed", (STRAIGHT,)),
        NetworkValidationError,
        "closed network needs a closed curve",
    ),
    "generalized-without-angles": (
        lambda: _generalized(prescribed_angles=None),
        NetworkValidationError,
        "generalized network needs prescribed angles",
    ),
    "generalized-with-a-negative-angle": (
        lambda: _generalized(prescribed_angles=(-1.0, 4.0, 2.0 * math.pi - 3.0)),
        NetworkValidationError,
        "prescribed angles must lie in (0, 2*pi)",
    ),
    "theta-with-angles": (
        lambda: dataclasses.replace(_theta(), prescribed_angles=(2.0 * math.pi / 3.0,) * 3),
        NetworkValidationError,
        "prescribed angles only apply to generalized networks",
    ),
    "scale-by-zero": (lambda: scale_network(_circle(), 0.0), InvalidInputError, "scale factor must be positive"),
    "teardrop-of-seven": (lambda: make_teardrop(7), InvalidInputError, "need n >= 8 segments"),
    "double-drop-of-a-circle": (
        lambda: make_symmetric_double_drop(_circle()),
        InvalidInputError,
        "expected a drop network",
    ),
    "bubble-energy-off-its-domain": (
        lambda: generalized_bubble_energy(0.5, 3.5),
        SingularAngleError,
        "closed form leaves its real domain for these angles",
    ),
    "bubble-angles-out-of-order": (
        lambda: make_generalized_bubble(1.5, 1.2, 16),
        InvalidInputError,
        "need 0 < alpha1 <= alpha2 and alpha1 + alpha2 < 2*pi",
    ),
    "bubble-arc-beyond-pi": (
        lambda: make_generalized_bubble(1.0, 3.2, 16),
        SingularAngleError,
        "arc construction needs alpha < pi on both sides",
    ),
    "bubble-of-seven": (lambda: make_generalized_bubble(1.2, 1.5, 7), InvalidInputError, "need n >= 8 points per curve"),
    "recovery-at-zero": (
        lambda: recovery_sequence(make_degenerate_figure_eight(28), 0),
        InvalidInputError,
        "n must be a positive integer",
    ),
    "document-with-two-angles": (
        lambda: deserialize(_two_angles_document()),
        ParseError,
        "/angles: angles must list three numbers",
    ),
}


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES.keys())
def test_input_check_raises_its_typed_error(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
