import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elastinet.energy import elastic_energy, optimal_rescale, penalized_energy
from elastinet.errors import (
    InvalidInputError,
    NetworkValidationError,
    ParseError,
    SingularAngleError,
)
from elastinet.cli import main
from elastinet.geometry import DiscreteCurve
from elastinet.minimize import recovery_sequence
from elastinet.networks import (
    KINDS,
    THETA_OFFSETS_END,
    THETA_OFFSETS_START,
    Junction,
    Network,
    curve_clamps,
    deserialize,
    end_slots,
    generalized_bubble_energy,
    load_json,
    make_circle,
    make_degenerate_figure_eight,
    make_ellipse,
    make_generalized_bubble,
    make_standard_double_bubble,
    make_symmetric_double_drop,
    make_teardrop,
    mirror_drop_curve,
    normalize_to_standard_frame,
    optimal_bubble_radius,
    rotate_network,
    save_json,
    serialize,
    validate,
)
from elastinet.networks import (
    DEGENERATE_OFFSET_VARIANTS,
    _degenerate_pattern_defect,
    _first_horizontal_cut,
    _triple_turn_defect,
)
from random_networks import random_theta_network

RBAR = optimal_bubble_radius()
BUBBLE_F = 18.40589562425381


class TestValidate:
    def test_bubble_is_valid(self):
        report = validate(make_standard_double_bubble(RBAR, 200))
        assert report.valid
        assert report.angle_defect <= 1e-9

    def test_perturbed_tangents_detected(self):
        net = make_standard_double_bubble(RBAR, 200)
        rotated = rotate_network(net, 0.1, about=net.junctions[0].position)
        tampered = Network(
            "theta",
            (rotated.curves[0], net.curves[1], net.curves[2]),
            net.junctions,
        )
        report = validate(tampered, tol_ang=1e-3)
        assert not report.valid
        assert report.angle_defect == pytest.approx(0.1, rel=0.05)

    def test_drop_gap_detected(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.5], [0.5, 1.2], [0.0, 1e-3]])
        report = validate(Network("drop", (DiscreteCurve(pts),)), tol_pos=1e-6)
        assert not report.valid
        assert report.junction_gap == pytest.approx(1e-3, rel=1e-6)

    def test_slot_turns_hold_on_constructions(self):
        rng = np.random.default_rng(4)
        nets = [net for net in _reference_networks() if net.kind in ("theta", "generalized_theta")]
        nets.append(recovery_sequence(make_degenerate_figure_eight(40), 12))
        nets += [random_theta_network(rng) for _ in range(10)]
        for net in nets:
            angles = net.prescribed_angles or (2 * math.pi / 3,) * 3
            for j in net.junctions:
                assert _triple_turn_defect(j.offsets, angles) < 1e-12

    def test_degenerate_fixture_valid(self):
        report = validate(make_degenerate_figure_eight(200))
        assert report.valid
        assert report.angle_defect <= 1e-9

    def test_four_point_lobes_take_neighbouring_slots(self):
        # reversing a lobe swaps its two slots; two loops crossing alternate theirs
        for a, b, c, d in DEGENERATE_OFFSET_VARIANTS:
            assert _degenerate_pattern_defect(Junction(np.zeros(2), 0.3, (b, a, d, c))) < 1e-12
            assert _degenerate_pattern_defect(Junction(np.zeros(2), 0.3, (a, d, b, c))) >= math.pi / 3

    @pytest.mark.parametrize("bad", [0.0, -1e-3, math.nan, math.inf])
    def test_tolerances_positive_and_finite(self, bad):
        net = make_circle(1.0, 16)
        with pytest.raises(InvalidInputError):
            validate(net, tol_ang=bad)
        with pytest.raises(InvalidInputError):
            validate(net, tol_pos=bad)


def _reference_networks():
    drop = make_teardrop(40)
    return [
        make_circle(1.0, 16),
        drop,
        make_symmetric_double_drop(drop),
        make_standard_double_bubble(RBAR, 20),
        rotate_network(make_generalized_bubble(1.7, 2.5, 20), 0.4),
        rotate_network(make_degenerate_figure_eight(40), -1.1),
    ]


_REFERENCE_DOCS = [serialize(net) for net in _reference_networks()]


def _per_kind_clamps(network, i):
    """Curve i's end directions, written out kind by kind."""
    if network.kind in ("theta", "generalized_theta"):
        j0, j1 = network.junctions
        return j0.outgoing_dir(i), -j1.outgoing_dir(i)
    if network.kind == "degenerate_theta":
        (j,) = network.junctions
        return j.outgoing_dir(2 * i), -j.outgoing_dir(2 * i + 1)
    return None, None


class TestEndSlots:
    def test_table(self):
        tables = {net.kind: end_slots(net.kind, len(net.curves)) for net in _reference_networks()}
        assert tables == {
            "closed": (),
            "drop": (),
            "double_drop": (),
            "theta": (((0, 0), (1, 0)), ((0, 1), (1, 1)), ((0, 2), (1, 2))),
            "generalized_theta": (((0, 0), (1, 0)), ((0, 1), (1, 1)), ((0, 2), (1, 2))),
            "degenerate_theta": (((0, 0), (0, 1)), ((0, 2), (0, 3))),
        }

    def test_curve_clamps_match_per_kind_formulas(self):
        for net in _reference_networks():
            for i in range(len(net.curves)):
                for got, want in zip(curve_clamps(net, i), _per_kind_clamps(net, i)):
                    if want is None:
                        assert got is None
                    else:
                        np.testing.assert_array_equal(got, want)


class TestJunctionFrames:
    @pytest.mark.parametrize(
        "frame, offsets",
        [
            (float("nan"), (0.0, 1.0, 2.0)),
            (float("inf"), (0.0, 1.0, 2.0)),
            (0.0, (0.0, float("nan"), 2.0)),
            (0.0, (0.0, 1.0, -float("inf"))),
            ("east", (0.0, 1.0, 2.0)),
            (0.0, (0.0, None, 2.0)),
        ],
        ids=["nan_frame", "infinite_frame", "nan_offset", "infinite_offset", "text_frame", "null_offset"],
    )
    def test_malformed_frame_rejected(self, frame, offsets):
        with pytest.raises(InvalidInputError):
            Junction(np.zeros(2), frame, offsets)

    def test_frame_stored_as_float(self):
        j = Junction(np.zeros(2), np.float64(0.5), (0, 1, 2))
        assert type(j.frame_angle) is float and j.offsets == (0.0, 1.0, 2.0)

    @pytest.mark.parametrize("count", [2, 4])
    def test_theta_needs_one_offset_per_slot(self, count):
        net = make_standard_double_bubble(RBAR, 20)
        j0, j1 = net.junctions
        wrong = Junction(j0.position, j0.frame_angle, (j0.offsets * 2)[:count])
        with pytest.raises(NetworkValidationError, match="offset"):
            Network("theta", net.curves, (wrong, j1))

    def test_four_point_needs_four_offsets(self):
        net = make_degenerate_figure_eight(40)
        (j,) = net.junctions
        with pytest.raises(NetworkValidationError, match="offset"):
            Network("degenerate_theta", net.curves, (Junction(j.position, j.frame_angle, j.offsets[:3]),))

    def test_kinds_and_count_messages(self):
        assert KINDS == ("closed", "drop", "double_drop", "theta", "degenerate_theta", "generalized_theta")
        net = make_standard_double_bubble(RBAR, 20)
        with pytest.raises(NetworkValidationError, match=r"^kind 'theta' needs 3 curves, got 2$"):
            Network("theta", net.curves[:2], net.junctions)
        with pytest.raises(NetworkValidationError, match=r"^kind 'theta' needs 2 junctions, got 1$"):
            Network("theta", net.curves, net.junctions[:1])
        doc = serialize(net)
        with pytest.raises(ParseError, match=r"^/junctions: expected exactly 2 junctions$"):
            deserialize({**doc, "junctions": doc["junctions"][:1]})
        with pytest.raises(ParseError, match=r"^/junctions: this kind carries no junctions$"):
            deserialize({**serialize(make_circle(1.0, 16)), "junctions": doc["junctions"]})


class TestMakeCircle:
    def test_f1_is_four_pi(self):
        report = penalized_energy(make_circle(1.0, 200), 1.0)
        assert report.penalized == pytest.approx(4 * np.pi, rel=1e-3)

    def test_radius_two_elastic(self):
        assert elastic_energy(make_circle(2.0, 200).curves[0]) == pytest.approx(np.pi, rel=1e-3)

    def test_orientation_reversal_same_energy(self):
        net = make_circle(1.0, 96)
        rev = Network("closed", (net.curves[0].reversed(),))
        assert penalized_energy(rev).penalized == pytest.approx(penalized_energy(net).penalized, abs=1e-12)

    def test_bad_arguments(self):
        with pytest.raises(InvalidInputError):
            make_circle(-1.0, 64)
        with pytest.raises(InvalidInputError):
            make_circle(1.0, 4)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_non_finite_or_nonpositive_sizes(self, bad):
        with pytest.raises(InvalidInputError):
            make_circle(bad, 64)
        for a, b in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(InvalidInputError):
                make_ellipse(a, b, 64)

    def test_overflowing_sizes(self):
        # squared lengths would overflow: rejected before any array arithmetic, with no RuntimeWarning
        with pytest.raises(InvalidInputError, match="overflow"):
            make_circle(1e200, 20)
        with pytest.raises(InvalidInputError, match="overflow"):
            make_ellipse(1.0, 1e200, 20)


class TestStandardDoubleBubble:
    def test_optimal_energy(self):
        report = penalized_energy(make_standard_double_bubble(RBAR, 400), 1.0)
        assert abs(report.penalized - BUBBLE_F) / BUBBLE_F < 1e-3

    @pytest.mark.parametrize("r", [0.5, RBAR, 2.0])
    def test_closed_form_length_and_energy(self, r):
        report = penalized_energy(make_standard_double_bubble(r, 300), 1.0)
        assert report.length == pytest.approx((8 * np.pi / 3 + np.sqrt(3)) * r, rel=1e-4)
        assert report.elastic == pytest.approx(8 * np.pi / (3 * r), rel=1e-4)

    @pytest.mark.parametrize("r", [0.5, RBAR, 2.0])
    def test_validates_sharply(self, r):
        assert validate(make_standard_double_bubble(r, 150)).angle_defect <= 1e-9

    def test_double_radius_rescales_by_half(self):
        factor, _ = optimal_rescale(make_standard_double_bubble(2 * RBAR, 200))
        assert factor == pytest.approx(0.5, abs=1e-3)

    def test_grid_minimum_at_rbar(self):
        grid = np.arange(0.7, 1.1, 1e-3)
        values = [penalized_energy(make_standard_double_bubble(float(r), 64)).penalized for r in grid]
        r_min = grid[int(np.argmin(values))]
        assert abs(r_min - RBAR) <= 2e-3

    @pytest.mark.parametrize("r", [1e-3, 0.1, RBAR, 1.0, 7.3, 1e3])
    @pytest.mark.parametrize("n", [8, 50, 2000])
    def test_is_the_generalized_bubble_at_120_degrees(self, r, n):
        net = make_standard_double_bubble(r, n)
        bubble = make_generalized_bubble(2 * math.pi / 3, 2 * math.pi / 3, n, math.sqrt(3.0) * r)
        assert net.kind == "theta" and net.prescribed_angles is None
        for a, b in zip(net.curves, bubble.curves):
            assert a.points.tobytes() == b.points.tobytes()
        j1, j2 = net.junctions
        assert j1.position.tobytes() == np.zeros(2).tobytes()
        assert j2.position.tobytes() == np.array([-math.sqrt(3.0) * r, 0.0]).tobytes()
        assert (j1.frame_angle, j2.frame_angle) == (math.pi / 3.0, 2.0 * math.pi / 3.0)
        assert (j1.offsets, j2.offsets) == (THETA_OFFSETS_START, THETA_OFFSETS_END)


class TestGeneralizedBubble:
    def test_matches_standard_constant(self):
        val = generalized_bubble_energy(2 * np.pi / 3, 2 * np.pi / 3)
        assert abs(val - BUBBLE_F) < 1e-9

    def test_right_angles(self):
        assert generalized_bubble_energy(np.pi / 2, np.pi / 2) == pytest.approx(
            4 * math.sqrt(math.pi) * math.sqrt(math.pi + 1), abs=1e-12
        )

    def test_scan_in_alpha2_recorded(self):
        # numeric scan only; no monotonicity claim asserted beyond finiteness
        a1 = np.pi / 2
        table = [generalized_bubble_energy(a1, a2) for a2 in np.linspace(a1, 2.2, 12)]
        assert all(np.isfinite(table))

    def test_preconditions(self):
        with pytest.raises(InvalidInputError):
            generalized_bubble_energy(1.5, 1.0)
        with pytest.raises(InvalidInputError):
            generalized_bubble_energy(3.0, 3.5)

    def test_singular_angle(self):
        with pytest.raises(SingularAngleError):
            generalized_bubble_energy(np.pi / 2, np.pi)

    @pytest.mark.parametrize("length", [0.0, -1.0, math.nan, math.inf, 1e300])
    def test_segment_length_positive_finite_and_representable(self, length):
        # the suite turns the RuntimeWarnings of an overflowing construction into errors
        with pytest.raises(InvalidInputError):
            make_generalized_bubble(1.7, 2.5, 20, length)

    def test_tiny_angle_with_overflowing_arc_rejected(self):
        # the default size is finite, but the arc radius ell / (2 sin(alpha1)) is not representable
        with pytest.raises(InvalidInputError):
            make_generalized_bubble(1e-300, 2.5, 20)

    def test_constructed_network_matches_formula(self):
        a1, a2 = 0.9, 1.6
        net = make_generalized_bubble(a1, a2, 400)
        report = penalized_energy(net, 1.0)
        assert report.penalized == pytest.approx(generalized_bubble_energy(a1, a2), rel=1e-4)
        assert validate(net).angle_defect <= 1e-9

    def test_constructed_standard_case(self):
        net = make_generalized_bubble(2 * np.pi / 3, 2 * np.pi / 3, 400)
        assert penalized_energy(net).penalized == pytest.approx(BUBBLE_F, rel=1e-3)


class TestSerialization:
    def test_round_trip_bubble_bitwise(self, tmp_path):
        net = make_standard_double_bubble(RBAR, 60)
        path = tmp_path / "bubble.json"
        save_json(net, path)
        back = load_json(path)
        assert back.kind == net.kind
        for a, b in zip(back.curves, net.curves):
            assert np.array_equal(a.points, b.points)
        for a, b in zip(back.junctions, net.junctions):
            assert np.array_equal(a.position, b.position)
            assert a.frame_angle == b.frame_angle
            assert a.offsets == b.offsets

    def test_round_trip_all_kinds(self, tmp_path):
        nets = [
            make_circle(1.0, 32),
            make_teardrop(24),
            make_symmetric_double_drop(make_teardrop(24)),
            make_generalized_bubble(0.9, 1.6, 24),
            make_degenerate_figure_eight(48),
        ]
        for i, net in enumerate(nets):
            path = tmp_path / f"net{i}.json"
            save_json(net, path)
            assert path.read_text(encoding="utf-8") == json.dumps(serialize(net)) + "\n"
            back = load_json(path)
            assert back.kind == net.kind
            for a, b in zip(back.curves, net.curves):
                assert np.array_equal(a.points, b.points)

    def test_missing_kind(self):
        with pytest.raises(ParseError) as err:
            deserialize({"curves": [{"points": [[0, 0], [1, 0]]}]})
        assert "/kind" in str(err.value)

    def test_unknown_kind(self):
        with pytest.raises(ParseError):
            deserialize({"kind": "pentagon", "curves": [{"points": [[0, 0], [1, 0]]}]})

    def test_bad_angle_sum(self):
        doc = serialize(make_generalized_bubble(0.9, 1.6, 24))
        doc["angles"] = [0.9, 1.6, 1.9 * np.pi - 2.5]
        with pytest.raises(NetworkValidationError):
            deserialize(doc)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "closed", "curves": [{"points": [[0, 0], [1, Infinity], [0, 1]]}]}')
        with pytest.raises(ParseError):
            load_json(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_json(path)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _mutate(data, doc):
    """Replace, delete or add one entry at a random depth of the document."""
    node = doc
    while True:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if not (isinstance(child, (dict, list)) and child and data.draw(st.booleans())):
            break
        node = child
    action = data.draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "replace":
        node[key] = data.draw(_JSON_VALUES)
    elif action == "delete":
        del node[key]
    elif isinstance(node, dict):
        node[data.draw(st.text(max_size=8))] = data.draw(_JSON_VALUES)
    else:
        node.insert(key, data.draw(_JSON_VALUES))


class TestDeserializeFuzz:
    """Mutated documents of every kind parse, or fail with the input errors."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz")

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_mutated_documents(self, workdir, data):
        doc = json.loads(json.dumps(data.draw(st.sampled_from(_REFERENCE_DOCS))))
        for _ in range(data.draw(st.integers(1, 3))):
            _mutate(data, doc)
        path = workdir / "doc.json"
        path.write_text(json.dumps(doc))
        try:
            assert isinstance(deserialize(json.loads(path.read_text())), Network)
        except (ParseError, NetworkValidationError):
            pass
        # the file as the command line reads it: NaN and Infinity are parse errors
        try:
            assert isinstance(load_json(path), Network)
            allowed = (0, 3)
        except (ParseError, NetworkValidationError):
            allowed = (2, 3)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["energy", str(path)])
        assert code in allowed
        assert "Traceback" not in err.getvalue()


class TestPointParsing:
    @pytest.fixture(scope="class")
    def circle_doc(self):
        return serialize(make_circle(1.0, 2000))

    @pytest.mark.parametrize(
        "bad",
        [
            [0.5], "0.5, 0.5", [0.5, 0.5, 0.5], [0.5, float("nan")], [0.5, 10**400], [0.5, None], {"x": 0.5},
            ["0.5", "0.2"], [0.5, "0.2"], [True, 0.5],
        ],
        ids=[
            "ragged", "string", "triple", "nan", "int_overflow", "null", "object", "string_numbers", "string_number",
            "boolean",
        ],
    )
    def test_bad_pair_reports_its_path(self, circle_doc, bad):
        doc = json.loads(json.dumps(circle_doc))
        doc["curves"][0]["points"][1234] = bad
        with pytest.raises(ParseError) as err:
            deserialize(doc)
        assert err.value.path == "/curves/0/points/1234"

    def test_first_bad_pair_is_reported(self, circle_doc):
        doc = json.loads(json.dumps(circle_doc))
        doc["curves"][0]["points"][1500] = "x"
        doc["curves"][0]["points"][1234] = [0.5, float("inf")]
        with pytest.raises(ParseError) as err:
            deserialize(doc)
        assert err.value.path == "/curves/0/points/1234"

    def test_round_trip_2000_points_bitwise(self, circle_doc):
        back = deserialize(json.loads(json.dumps(circle_doc)))
        assert back.curves[0].points.tobytes() == make_circle(1.0, 2000).curves[0].points.tobytes()


class TestHorizontalCut:
    def test_root_of_the_interpolated_tangent(self):
        t = np.linspace(0.0, 1.0, 37) ** 1.3
        curve = DiscreteCurve(np.column_stack([3.0 * t, np.sin(2.2 * np.pi * t)]))
        e = np.diff(curve.points, axis=0)
        a = np.linalg.norm(e, axis=1)
        ty, mids = e[:, 1] / a, np.cumsum(a) - 0.5 * a
        cut = _first_horizontal_cut(curve)
        j = int(np.searchsorted(mids, cut)) - 1
        assert ty[j] > 0.0 > ty[j + 1]
        assert abs(np.interp(cut, mids, ty)) <= 1e-15
        assert cut == pytest.approx(mids[j] + (mids[j + 1] - mids[j]) * ty[j] / (ty[j] - ty[j + 1]), rel=1e-15)

    def test_horizontal_run_cut_at_its_center(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 1.0], [4.0, 1.0], [5.0, 0.0]])
        assert _first_horizontal_cut(DiscreteCurve(pts)) == pytest.approx(math.sqrt(2.0) + 1.5, rel=1e-15)

    def test_recovery_cut_on_a_vertex(self):
        """A flat cap with a vertex added at its middle is cut on that vertex."""
        eight = make_degenerate_figure_eight(200)
        up = eight.curves[0].points
        k = len(up) // 2  # the cap's middle edge runs from vertex k - 1 to vertex k
        upper = DiscreteCurve(np.insert(up, k, 0.5 * (up[k - 1] + up[k]), axis=0))
        net = Network("degenerate_theta", (upper, mirror_drop_curve(upper)), eight.junctions)
        f = penalized_energy(net).penalized
        for n in (10, 100, 1000):
            theta = recovery_sequence(net, n)
            # a cut on a vertex repeats it; a cut inside an edge adds a point
            assert [c.n_points for c in theta.curves[:2]] == [upper.n_points + 1] * 2
            assert abs(penalized_energy(theta).penalized - f - 3.0 / n) < 1e-12
            assert validate(theta, tol_ang=1e-6).valid


class TestStandardFrame:
    def test_bubble_already_normalized(self):
        net = make_standard_double_bubble(RBAR, 64)
        normed = normalize_to_standard_frame(net)
        assert np.allclose(normed.junctions[0].position, 0.0, atol=1e-15)
        d = normed.junctions[0].outgoing_dir(0)
        assert np.allclose(d, [0.5, math.sqrt(3) / 2], atol=1e-12)

    def test_rotated_network_comes_back(self):
        net = rotate_network(make_standard_double_bubble(RBAR, 64), 1.234, about=(0.5, 0.5))
        normed = normalize_to_standard_frame(net)
        assert np.allclose(normed.junctions[0].position, 0.0, atol=1e-12)
        d = normed.junctions[0].outgoing_dir(0)
        assert np.allclose(d, [0.5, math.sqrt(3) / 2], atol=1e-12)
