import json
import math
import platform

import numpy as np
import pytest

from elastinet import cli, errors
from elastinet.cli import main
from elastinet.energy import optimal_rescale
from elastinet.minimize import OptimizationConfig, minimize
from elastinet.networks import (
    deserialize,
    load_json,
    make_circle,
    make_ellipse,
    make_generalized_bubble,
    make_standard_double_bubble,
    make_degenerate_figure_eight,
    make_symmetric_double_drop,
    make_teardrop,
    optimal_bubble_radius,
    rotate_network,
    save_json,
    translate_network,
    validate,
    Network,
)
from elastinet.svg import render_svg


@pytest.fixture
def circle_file(tmp_path):
    path = tmp_path / "circle.json"
    save_json(make_circle(1.0, 200), path)
    return str(path)


@pytest.fixture
def bubble_file(tmp_path):
    path = tmp_path / "bubble.json"
    save_json(make_standard_double_bubble(optimal_bubble_radius(), 200), path)
    return str(path)


def assert_standard_frame(net):
    """Junction 0 at the origin, its slot 0 (curve 0's start) at 60 degrees."""
    j0 = net.junctions[0]
    assert np.allclose(j0.position, 0.0, atol=1e-12)
    assert np.allclose(j0.outgoing_dir(0), [0.5, math.sqrt(3) / 2], atol=1e-12)


class TestEnergyCommand:
    def test_circle_table(self, circle_file, capsys):
        assert main(["energy", circle_file]) == 0
        out = capsys.readouterr().out
        assert "12.5663" in out

    def test_json_output(self, circle_file, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main(["energy", circle_file, "--json", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["penalized"] == pytest.approx(4 * math.pi, rel=1e-4)
        assert len(doc["per_curve"]) == 1

    def test_theta_breakdown_sums(self, bubble_file, capsys):
        assert main(["energy", bubble_file]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        rows = [l.split() for l in lines[1:]]
        per = [float(r[3]) for r in rows if r[0] in ("0", "1", "2")]
        total = [float(r[3]) for r in rows if r[0] == "total"][0]
        assert sum(per) == pytest.approx(total, rel=1e-6)

    def test_bad_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["energy", str(bad)]) == 2

    @pytest.mark.parametrize(
        "data",
        [
            b"\xff\xfe" + json.dumps({"kind": "closed"}).encode(),
            b"[" * 100000,
            b'{"kind": "closed", "curves": [{"points": [[1' + b"0" * 5000 + b', 0]]}]}',
        ],
        ids=["not_utf8", "nested_too_deep", "integer_too_long"],
    )
    def test_unparsable_file_exits_2(self, tmp_path, capsys, data):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        assert main(["energy", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: /: invalid JSON") and len(err.splitlines()) == 1

    def test_overflowing_alpha_exits_2(self, circle_file, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main(["energy", circle_file, "--alpha", "1e308", "--json", str(out_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "overflows" in err and len(err.splitlines()) == 1
        assert not out_path.exists()

    def test_directory_input_exits_2(self, tmp_path, capsys):
        assert main(["energy", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_invalid_network_exits_3(self, tmp_path, capsys):
        net = make_standard_double_bubble(optimal_bubble_radius(), 100)
        tampered = Network(
            "theta",
            (rotate_network(net, 0.1).curves[0], net.curves[1], net.curves[2]),
            net.junctions,
        )
        path = tmp_path / "tampered.json"
        save_json(tampered, path)
        assert main(["energy", str(path)]) == 3

    def test_overflowing_coordinates_exit_2(self, tmp_path, capsys):
        # squared edge lengths overflow: rejected while loading, with no RuntimeWarning
        path = tmp_path / "huge.json"
        points = [[1e200, 0.0], [0.0, 1e200], [-1e200, 0.0], [0.0, -1e200]]
        path.write_text(json.dumps({"kind": "closed", "curves": [{"points": points}]}))
        assert main(["energy", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "overflow" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-3"])
    def test_bad_tolerance_exits_2(self, bubble_file, capsys, tol):
        assert main(["energy", bubble_file, f"--tol-ang={tol}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


def _repeated_ray_theta():
    """Theta document whose curves 0 and 1 share a ray at both junctions.

    Each curve's first two and last two edges lie on its ray, so every curve
    end matches a slot direction exactly; only the slot-to-slot turns are
    wrong (0, 4pi/3, 2pi/3 instead of 2pi/3 each).
    """
    down, up = np.array([-0.5, -math.sqrt(3) / 2]), np.array([0.5, math.sqrt(3) / 2])
    j1 = np.array([3.0, 0.0])
    curves = [
        [[0, 0], [0.1, 0], [0.2, 0], [2.8, 0], [2.9, 0], [3, 0]],
        [[0, 0], [0.15, 0], [0.3, 0], [1.5, 1.0], [2.7, 0], [2.85, 0], [3, 0]],
        [[0, 0], list(0.1 * down), list(0.2 * down), [1.5, -2.0], list(j1 + 0.2 * up), list(j1 + 0.1 * up), [3, 0]],
    ]
    return {
        "kind": "theta",
        "curves": [{"points": c} for c in curves],
        "junctions": [{"position": [0, 0], "frame_angle": 0.0}, {"position": [3, 0], "frame_angle": math.pi}],
    }


class TestRepeatedRayTheta:
    def test_fails_validation(self, tmp_path, capsys):
        doc = _repeated_ray_theta()
        net = deserialize(doc)
        assert [j.offsets for j in net.junctions] == [(0.0, 0.0, 4 * math.pi / 3)] * 2
        assert not validate(net).valid
        path = tmp_path / "theta.json"
        path.write_text(json.dumps(doc))
        assert main(["energy", str(path)]) == 3
        assert main(["minimize", str(path), "--out", str(tmp_path / "run")]) == 3
        assert "Traceback" not in capsys.readouterr().err


DROP_ROWS = ["drop_bound_0", "cauchy_schwarz_0", "drop_bound_1", "cauchy_schwarz_1"]


class TestBoundsCommand:
    def test_bubble_all_hold(self, bubble_file, capsys):
        assert main(["bounds", bubble_file]) == 0
        out = capsys.readouterr().out
        assert "theta_4pi" in out
        assert "False" not in out

    def test_square_loop_gb_rhs_zero(self, tmp_path, capsys):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        dense = []
        for a, b in zip(square, np.roll(square, -1, axis=0)):
            dense.extend(np.linspace(a, b, 12)[:-1])
        from elastinet.geometry import DiscreteCurve

        net = Network("closed", (DiscreteCurve(np.array(dense), closed=True),))
        path = tmp_path / "square.json"
        save_json(net, path)
        assert main(["bounds", str(path)]) == 0
        gb_line = [l for l in capsys.readouterr().out.splitlines() if "gauss_bonnet" in l][0]
        assert float(gb_line.split()[2]) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize(
        "net, rows",
        [
            (make_ellipse(2.0, 1.0, 200), ["gauss_bonnet", "amgm_2c", "cauchy_schwarz"]),
            (make_teardrop(200), DROP_ROWS[:2]),
            (make_symmetric_double_drop(make_teardrop(200)), DROP_ROWS),
            (make_degenerate_figure_eight(200), DROP_ROWS),
        ],
        ids=["ellipse", "drop", "double_drop", "degenerate_theta"],
    )
    def test_rows_of_each_kind_hold(self, tmp_path, capsys, net, rows):
        path = tmp_path / "net.json"
        save_json(net, path)
        assert main(["bounds", str(path)]) == 0
        table = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
        assert [row[0] for row in table] == rows
        assert all(row[3] == "True" for row in table)

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-1"])
    def test_bad_corner_threshold_exits_2(self, circle_file, capsys, threshold):
        assert main(["bounds", circle_file, f"--corner-threshold={threshold}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_invalid_theta_exits_3(self, tmp_path):
        net = make_standard_double_bubble(optimal_bubble_radius(), 100)
        tampered = Network(
            "theta",
            (rotate_network(net, 0.1).curves[0], net.curves[1], net.curves[2]),
            net.junctions,
        )
        path = tmp_path / "tampered.json"
        save_json(tampered, path)
        assert main(["bounds", str(path)]) == 3


class TestMinimizeCommand:
    def test_outputs_and_determinism(self, tmp_path, circle_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_per_curve": 48, "max_iters": 120, "grad_tol": 1e-6}))
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert main(["minimize", circle_file, "--out", str(out1), "--kind-config", str(cfg)]) == 0
        assert main(["minimize", circle_file, "--out", str(out2), "--kind-config", str(cfg)]) == 0
        for name in ("result.json", "trace.csv", "network_final.json", "before.svg", "after.svg", "manifest.json"):
            assert (out1 / name).exists()
        for name in ("result.json", "trace.csv", "network_final.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_output_path_is_a_file_exits_2(self, tmp_path, circle_file, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["minimize", circle_file, "--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert taken.read_text() == ""

    def test_max_iters_zero_unchanged(self, tmp_path, circle_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_iters": 0}))
        out = tmp_path / "run0"
        assert main(["minimize", circle_file, "--out", str(out), "--kind-config", str(cfg)]) == 0
        summary = json.loads((out / "result.json").read_text())
        assert summary["termination"] == "max_iters"
        back = load_json(out / "network_final.json")
        orig = load_json(circle_file)
        assert np.array_equal(back.curves[0].points, orig.curves[0].points)

    def test_ellipse_converges_to_four_pi(self, tmp_path, capsys):
        from elastinet.networks import make_ellipse

        src = tmp_path / "ellipse.json"
        save_json(make_ellipse(2.0, 1.0, 100), src)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_per_curve": 100, "max_iters": 20000, "grad_tol": 1e-3, "energy_rel_tol": 1e-8}))
        out = tmp_path / "ellipse_run"
        assert main(["minimize", str(src), "--out", str(out), "--kind-config", str(cfg)]) == 0
        summary = json.loads((out / "result.json").read_text())
        assert summary["final_F"] == pytest.approx(4 * math.pi, rel=5e-3)

    @pytest.mark.parametrize(
        "text",
        [
            "{bad",
            '{"angle_penalty_schedule": 5}',
            '{"angle_penalty_schedule": ["heavy"]}',
            '{"grad_tol": NaN}',
            '{"energy_rel_tol": Infinity}',
            '{"max_iters": 5.5}',
            '{"n_per_curve": 50.5}',
            '{"seed": "abc"}',
            '{"max_iters": 1e400}',
            '{"max_iters": true}',
            "[" * 100000,
        ],
        ids=[
            "malformed_json",
            "schedule_not_a_list",
            "schedule_not_numbers",
            "nan_tolerance",
            "infinite_tolerance",
            "fractional_max_iters",
            "fractional_n_per_curve",
            "string_seed",
            "overflowing_max_iters",
            "boolean_max_iters",
            "nested_too_deep",
        ],
    )
    def test_bad_kind_config_exits_2(self, tmp_path, circle_file, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["minimize", circle_file, "--out", str(tmp_path / "run"), "--kind-config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_seed_env_override(self, tmp_path, circle_file, monkeypatch):
        monkeypatch.setenv("ELASTINET_SEED", "777")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_iters": 0}))
        out = tmp_path / "seeded"
        assert main(["minimize", circle_file, "--out", str(out), "--kind-config", str(cfg)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 777
        assert manifest["tool_version"]
        assert {"command", "input", "config", "wall_time_s"} <= manifest.keys()
        assert manifest["python_version"] == platform.python_version()
        assert manifest["numpy_version"] == np.__version__


    @pytest.mark.parametrize("kind", ["theta", "double_drop"])
    def test_no_multilevel_is_one_minimize_call(self, tmp_path, kind):
        if kind == "theta":
            net = make_standard_double_bubble(optimal_bubble_radius(), 60)
        else:
            net = make_symmetric_double_drop(optimal_rescale(make_teardrop(60))[1])
        src = tmp_path / "input.json"
        save_json(net, src)
        settings = {"n_per_curve": 60, "max_iters": 300, "grad_tol": 1e-6, "energy_rel_tol": 1e-12}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(settings))
        out = tmp_path / "run"
        assert main(["minimize", str(src), "--out", str(out), "--kind-config", str(cfg), "--no-multilevel"]) == 0
        res = minimize(load_json(src), OptimizationConfig(**settings))
        save_json(res.final, tmp_path / "want.json")
        assert (out / "network_final.json").read_bytes() == (tmp_path / "want.json").read_bytes()
        rows = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1, ndmin=2)
        for column, trace in zip(rows.T[1:], (res.energy_trace, res.elastic_trace, res.length_trace, res.grad_norm_trace)):
            assert np.array_equal(column, trace)
        summary = json.loads((out / "result.json").read_text())
        assert (summary["termination"], summary["iterations"]) == (res.termination, res.iterations)

    def test_standard_frame(self, tmp_path, bubble_file):
        src = tmp_path / "moved.json"
        save_json(translate_network(rotate_network(load_json(bubble_file), 1.0), (2.0, -3.0)), src)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_per_curve": 60, "max_iters": 20}))
        out = tmp_path / "run"
        assert main(["minimize", str(src), "--out", str(out), "--kind-config", str(cfg), "--standard-frame"]) == 0
        final = load_json(out / "network_final.json")
        assert_standard_frame(final)
        first = final.curves[0].points[1] - final.curves[0].points[0]
        assert np.allclose(first / np.linalg.norm(first), final.junctions[0].outgoing_dir(0), atol=1e-9)

    def test_unsolvable_rose_exits_4(self, tmp_path, capsys):
        # seven petals do not close with 8 equal edges that each turn by less than pi
        t = 2 * np.pi * np.arange(400) / 400
        r = 1 + 0.9 * np.cos(7 * t)
        points = np.column_stack([r * np.cos(t), r * np.sin(t)])
        src = tmp_path / "rose.json"
        src.write_text(json.dumps({"kind": "closed", "curves": [{"points": points.tolist()}]}))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_per_curve": 8}))
        assert main(["minimize", str(src), "--out", str(tmp_path / "run"), "--kind-config", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_non_integer_seed_env_exits_2(self, tmp_path, circle_file, monkeypatch, capsys):
        monkeypatch.setenv("ELASTINET_SEED", "abc")
        assert main(["minimize", circle_file, "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "ELASTINET_SEED" in err
        assert "Traceback" not in err


def _two_loops_doc():
    """Two unit circles through the origin, crossing there at 60 degrees, filed as a degenerate theta.

    Their four end tangents fit the 60/120 degree gaps of a four-point, but
    each loop leaves and returns on opposite sides of the other.
    """
    s = np.linspace(0.0, 2 * np.pi, 201)
    loop = np.column_stack([np.sin(s), 1 - np.cos(s)])
    loop[0] = loop[-1] = 0.0
    c, s60 = math.cos(math.pi / 3), math.sin(math.pi / 3)
    turned = loop @ np.array([[c, s60], [-s60, c]])
    return {
        "kind": "degenerate_theta",
        "curves": [{"points": loop.tolist()}, {"points": turned.tolist()}],
        "junctions": [{"position": [0.0, 0.0], "frame_angle": 0.0}],
    }


@pytest.mark.parametrize("command", ["energy", "bounds", "minimize"])
def test_two_crossing_loops_are_no_degenerate_theta(tmp_path, capsys, command):
    path = tmp_path / "two_loops.json"
    path.write_text(json.dumps(_two_loops_doc()))
    extra = ["--out", str(tmp_path / "run")] if command == "minimize" else []
    assert main([command, str(path), *extra]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: network fails validation") and len(err.splitlines()) == 1
    assert not (tmp_path / "run").exists()


_EXIT_CODES = {
    errors.ElastinetError: 3,
    errors.InvalidCurveError: 3,
    errors.InvalidInputError: 2,
    errors.InvalidConfigError: 2,
    errors.ContractViolationError: 3,
    errors.SingularAngleError: 3,
    errors.NoOptimalRescaleError: 3,
    errors.HypothesisNotMetError: 3,
    errors.ConstructionFailedError: 3,
    errors.ParseError: 2,
    errors.NetworkValidationError: 3,
    errors.OptimizationError: 4,
    OSError: 2,
}


def test_exit_code_of_every_error(monkeypatch, capsys):
    declared = {c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.ElastinetError)}
    assert declared | {OSError} == set(_EXIT_CODES)
    for error, code in _EXIT_CODES.items():

        def fail(args, error=error):
            raise error("boom")

        monkeypatch.setattr(cli, "cmd_sweep", fail)
        assert main(["sweep", "--alpha1-grid", "1", "--alpha2-grid", "2"]) == code, error
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith("boom\n") and len(err.splitlines()) == 1


def frozen_render_svg(network, width=640):
    """``render_svg`` as it formatted numpy scalars, point by point."""
    pts = np.vstack([c.points for c in network.curves])
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    margin = 0.05 * float(max(np.maximum(hi - lo, 1e-9)))
    lo, hi = lo - margin, hi + margin
    w, h = float(hi[0] - lo[0]), float(hi[1] - lo[1])
    stroke = 0.004 * max(w, h)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{int(round(width * h / w))}" '
        f'viewBox="{lo[0]:.6g} {lo[1]:.6g} {w:.6g} {h:.6g}">'
    ]
    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
    for i, c in enumerate(network.curves):
        p = np.vstack([c.points, c.points[0]]) if c.closed else c.points
        xs, ys = p[:, 0], hi[1] - p[:, 1] + lo[1]
        coords = " ".join(f"{x:.8g},{y:.8g}" for x, y in zip(xs, ys))
        lines.append(f'<polyline points="{coords}" fill="none" stroke="{colors[i % 4]}" stroke-width="{stroke:.6g}"/>')
    for j in network.junctions:
        x, y = j.position[0], hi[1] - j.position[1] + lo[1]
        lines.append(f'<circle cx="{x:.8g}" cy="{y:.8g}" r="{2.0 * stroke:.6g}" fill="#000000"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "make",
    [
        lambda: make_circle(1.3, 64),
        lambda: make_teardrop(80),
        lambda: make_standard_double_bubble(optimal_bubble_radius(), 60),
        lambda: make_generalized_bubble(1.7, 2.5, 60),
        lambda: make_degenerate_figure_eight(80),
    ],
    ids=["circle", "drop", "double-bubble", "generalized", "degenerate"],
)
def test_svg_text_is_unchanged(make):
    net = rotate_network(make(), 0.3)
    assert render_svg(net) == frozen_render_svg(net)


class TestReferenceCommand:
    def test_circle_reference(self, tmp_path, capsys):
        out = tmp_path / "circle.json"
        assert main(["reference", "--shape", "circle", "--radius", "1.0", "--n", "200", "--out", str(out)]) == 0
        assert "12.566" in capsys.readouterr().out
        assert load_json(out).kind == "closed"

    def test_double_bubble_reference(self, tmp_path, capsys):
        out = tmp_path / "bubble.json"
        assert main(["reference", "--shape", "double-bubble", "--n", "400", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        f_val = float(text.split("F = ")[1].split()[0])
        assert f_val == pytest.approx(18.4059, rel=1e-3)

    def test_generalized_matches_bubble(self, tmp_path, capsys):
        a = 2 * math.pi / 3
        assert main(["reference", "--shape", "generalized", "--alpha1", str(a), "--alpha2", str(a), "--n", "400"]) == 0
        f_val = float(capsys.readouterr().out.split("F = ")[1].split()[0])
        assert f_val == pytest.approx(18.4059, rel=1e-3)

    def test_missing_angles_exit_2(self, capsys):
        assert main(["reference", "--shape", "generalized"]) == 2

    @pytest.mark.parametrize("shape", [["double-bubble"], ["generalized", "--alpha1", "2.0", "--alpha2", "2.2"]])
    def test_standard_frame(self, tmp_path, shape):
        out = tmp_path / "ref.json"
        assert main(["reference", "--shape", *shape, "--n", "60", "--out", str(out), "--standard-frame"]) == 0
        net = load_json(out)
        assert_standard_frame(net)
        assert validate(net).valid

    @pytest.mark.parametrize("radius", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("shape", [["circle", "--radius"], ["double-bubble", "--r"]])
    def test_bad_radius_exits_2(self, capsys, shape, radius):
        assert main(["reference", "--shape", shape[0], f"{shape[1]}={radius}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("radius", ["1.5e308", "1e308", "1e160"])
    def test_oversized_bubble_exits_2(self, capsys, radius):
        # sqrt(3) r overflows, or the arcs' points or squared edge lengths do:
        # rejected before any arithmetic, so no RuntimeWarning is printed
        assert main(["reference", "--shape", "double-bubble", f"--r={radius}", "--n", "20"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_overflowing_circle_exits_2(self, capsys):
        assert main(["reference", "--shape", "circle", "--radius=1e200", "--n", "20"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "overflow" in err and len(err.splitlines()) == 1


class TestRecoveryCommand:
    def test_defect_reported(self, tmp_path, capsys):
        deg = tmp_path / "deg.json"
        save_json(make_degenerate_figure_eight(120), deg)
        out = tmp_path / "theta.json"
        assert main(["recovery", str(deg), "--n", "10", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        defect = float(text.split("=")[1].split()[0])
        assert defect == pytest.approx(0.3, abs=1e-6)
        assert load_json(out).kind == "theta"

    def test_non_degenerate_exits_3(self, circle_file):
        assert main(["recovery", circle_file, "--n", "10"]) == 3


class TestSweepCommand:
    def test_reference_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        a = 2 * math.pi / 3
        b = math.pi / 2
        assert main(["sweep", "--alpha1-grid", f"{a}", "--alpha2-grid", f"{a}:{b}:2", "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "alpha1,alpha2,f_bopt"
        values = {}
        for row in rows[1:]:
            a1, a2, f = row.split(",")
            if f:
                values[round(float(a2), 6)] = float(f)
        assert values[round(a, 6)] == pytest.approx(18.40589562425381, abs=1e-9)

    def test_pi_half_pair(self, capsys):
        b = math.pi / 2
        assert main(["sweep", "--alpha1-grid", f"{b}", "--alpha2-grid", f"{b}"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert float(rows[1].split(",")[2]) == pytest.approx(14.428414773455414, abs=1e-9)

    def test_bad_grid_exits_2(self):
        assert main(["sweep", "--alpha1-grid", "1:2:0", "--alpha2-grid", "1"]) == 2
        assert main(["sweep", "--alpha1-grid", "nonsense", "--alpha2-grid", "1"]) == 2

    @pytest.mark.parametrize("grid", ["nan", "inf", "-inf", "1e400", "nan:2:3", "1:inf:3", "-1e308:1e308:3"])
    def test_non_finite_grid_exits_2(self, capsys, grid):
        assert main(["sweep", "--alpha1-grid", "1", f"--alpha2-grid={grid}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    def test_determinism(self, tmp_path):
        args = ["sweep", "--alpha1-grid", "0.5:2.0:7", "--alpha2-grid", "0.5:2.0:7"]
        o1, o2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(o1)]) == 0
        assert main(args + ["--out", str(o2)]) == 0
        assert o1.read_bytes() == o2.read_bytes()
