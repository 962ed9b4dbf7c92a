import json
import math
import platform

import numpy as np
import pytest

from elastinet.cli import main
from elastinet.energy import optimal_rescale
from elastinet.minimize import OptimizationConfig, minimize
from elastinet.networks import (
    deserialize,
    load_json,
    make_circle,
    make_ellipse,
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

    def test_non_integer_seed_env_exits_2(self, tmp_path, circle_file, monkeypatch, capsys):
        monkeypatch.setenv("ELASTINET_SEED", "abc")
        assert main(["minimize", circle_file, "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "ELASTINET_SEED" in err
        assert "Traceback" not in err


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
