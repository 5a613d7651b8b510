import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from stabkit import cli
from stabkit import RngStream, generate_demonstrations

BASE_DOC = {
    "plant": {"A": 2.0, "B": 1.0, "r": [5.0]},
    "policy": {"K": 3.0, "sigma": 0.5773502691896258},
    "diffusion": {"g": 1.0, "alpha": 1.0, "stochastic": False},
    "coupling": {
        "mode": "per-step",
        "dt": 0.001,
        "horizon": 20.0,
        "seed": 11,
        "e0": [-5.0],
        "u0": [0.0],
    },
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def demos_csv(tmp_path, sigma, n=5000, k=5.0, seed=4, name="demos.csv"):
    demos = generate_demonstrations([[k]], [[sigma**2]], n, RngStream(seed))
    lines = ["e_1,u_1"] + [
        f"{e:.17g},{u:.17g}" for e, u in zip(demos.states[:, 0], demos.actions[:, 0])
    ]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestSimulate:
    def test_base_config_runs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_DOC)
        out = tmp_path / "traj.csv"
        assert cli.main(["simulate", "-c", cfg, "-o", str(out)]) == 0
        verdict = json.loads(capsys.readouterr().out.strip())
        assert verdict["label"] == "stable"
        text = out.read_text()
        assert text.startswith("# config=")
        assert text.splitlines()[1] == "t,e_1,u_1"

    def test_missing_config_is_io_error(self, tmp_path, capsys):
        assert cli.main(["simulate", "-c", str(tmp_path / "nope.json"), "-o", "x.csv"]) == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_json_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["simulate", "-c", str(path), "-o", "x.csv"]) == 2

    def test_bad_sigma_reports_precondition(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["policy"]["sigma"] = -0.5
        cfg = write_config(tmp_path, doc)
        assert cli.main(["simulate", "-c", cfg, "-o", str(tmp_path / "t.csv")]) == 2
        assert "sigma" in capsys.readouterr().err

    def test_all_violations_reported_at_once(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["policy"]["sigma"] = -0.5
        doc["coupling"]["dt"] = -1.0
        doc["diffusion"]["g"] = 0.0
        cfg = write_config(tmp_path, doc)
        assert cli.main(["simulate", "-c", cfg, "-o", str(tmp_path / "t.csv")]) == 2
        err = capsys.readouterr().err
        assert "sigma" in err and "dt" in err and "g" in err

    def test_config_echo_round_trips(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_DOC)
        out = tmp_path / "traj.csv"
        cli.main(["simulate", "-c", cfg, "-o", str(out)])
        capsys.readouterr()
        first = out.read_text().splitlines()[0]
        echoed = json.loads(first.removeprefix("# config="))
        reparsed = cli.parse_run_config(
            echoed, require=("plant", "policy", "diffusion", "coupling")
        )
        assert reparsed.effective == echoed
        assert reparsed.plant.A[0, 0] == 2.0
        assert reparsed.coupling.seed == 11

    def test_stab_seed_env_override(self, tmp_path, capsys, monkeypatch):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["diffusion"]["stochastic"] = True
        cfg = write_config(tmp_path, doc)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        out_c = tmp_path / "c.csv"
        monkeypatch.setenv("STAB_SEED", "100")
        cli.main(["simulate", "-c", cfg, "-o", str(out_a)])
        cli.main(["simulate", "-c", cfg, "-o", str(out_b)])
        monkeypatch.setenv("STAB_SEED", "200")
        cli.main(["simulate", "-c", cfg, "-o", str(out_c)])
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()
        assert out_a.read_bytes() != out_c.read_bytes()


class TestAnalyze:
    def test_scalar_margins(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_DOC)
        assert cli.main(["analyze", "-c", cfg]) == 0
        verdict = json.loads(capsys.readouterr().out.strip())
        assert verdict["label"] == "stable"
        assert verdict["margins"]["kprime"] == pytest.approx(1.0, abs=1e-9)

    def test_unstable_demonstrator(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["policy"]["K"] = 1.0  # A - BK = 1 > 0
        cfg = write_config(tmp_path, doc)
        cli.main(["analyze", "-c", cfg])
        verdict = json.loads(capsys.readouterr().out.strip())
        assert verdict["label"] == "unstable"
        assert verdict["conditions"]["closed_loop"] is False

    def test_ndim_non_square_B(self, tmp_path, capsys):
        doc = {
            "plant": {"A": [[1.0, 0.0], [0.0, 1.0]], "B": [[1.0], [0.0]]},
            "policy": {"K": [[1.0, 1.0]], "sigma": 0.5},
            "diffusion": {"g": 1.0, "alpha": 1.0},
        }
        cfg = write_config(tmp_path, doc)
        assert cli.main(["analyze", "-c", cfg]) == 2
        assert "square" in capsys.readouterr().err

    def test_nearly_singular_B_is_refused(self, tmp_path, capsys):
        doc = {
            "plant": {"A": [[1.0, 0.0], [0.0, 1.0]], "B": [[1.0, 1.0], [1.0, 1.0 + 1e-14]]},
            "policy": {"K": [[1.0, 0.0], [0.0, 1.0]], "sigma": 0.5},
            "diffusion": {"g": 1.0, "alpha": 1.0},
        }
        cfg = write_config(tmp_path, doc)
        assert cli.main(["analyze", "-c", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: matrix is singular")


class TestSweep:
    def test_csv_schema_and_region(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE_DOC))
        del doc["coupling"]
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "region.csv"
        code = cli.main(
            [
                "sweep", "-c", cfg,
                "--axis1", "A:0.5:2.5:6",
                "--axis2", "kprime:0.5:6:8",
                "-o", str(out), "--jobs", "1",
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config=")
        assert lines[1] == "axis1,axis2,analytic_label,analytic_margin_min,empirical_label,empirical_rate"
        assert len(lines) == 2 + 6 * 8
        # K = 3 held from the config keeps A - BK < 0 over the swept range,
        # so the stable region is exactly K' > A
        for line in lines[2:]:
            a, kp, label, _, emp_label, emp_rate = line.split(",")
            assert emp_label == "" and emp_rate == ""
            if abs(float(kp) - float(a)) > 0.05:
                expected = "stable" if float(kp) > float(a) else "unstable"
                assert label == expected

    def test_empirical_columns(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_DOC)
        out = tmp_path / "region.csv"
        code = cli.main(
            [
                "sweep", "-c", cfg,
                "--axis1", "A:1.0:2.0:2",
                "--axis2", "kprime:3.0:6.0:2",
                "-o", str(out), "--empirical", "--jobs", "1",
            ]
        )
        assert code == 0
        for line in out.read_text().splitlines()[2:]:
            fields = line.split(",")
            assert fields[4] in ("stable", "unstable", "marginal")
            float(fields[5])

    def test_single_step_axis(self, tmp_path):
        doc = json.loads(json.dumps(BASE_DOC))
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "one.csv"
        cli.main(
            ["sweep", "-c", cfg, "--axis1", "A:2:2:1", "--axis2", "kprime:3:3:1",
             "-o", str(out), "--jobs", "1"]
        )
        lines = out.read_text().splitlines()
        assert len(lines) == 3  # echo + header + one cell

    def test_unknown_axis(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_DOC)
        assert cli.main(
            ["sweep", "-c", cfg, "--axis1", "Z:0:1:4", "--axis2", "kprime:1:2:4",
             "-o", str(tmp_path / "r.csv")]
        ) == 2

    def test_kprime_sigma_conflict(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_DOC)
        assert cli.main(
            ["sweep", "-c", cfg, "--axis1", "sigma:0.1:1:4", "--axis2", "kprime:1:2:4",
             "-o", str(tmp_path / "r.csv")]
        ) == 2

    def test_jobs_do_not_change_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_DOC)
        out1 = tmp_path / "serial.csv"
        out2 = tmp_path / "parallel.csv"
        args = ["--axis1", "A:0.5:4:8", "--axis2", "kprime:0.5:6:8", "--empirical"]
        cli.main(["sweep", "-c", cfg, *args, "-o", str(out1), "--jobs", "1"])
        cli.main(["sweep", "-c", cfg, *args, "-o", str(out2), "--jobs", "4"])
        assert out1.read_bytes() == out2.read_bytes()

    def test_negative_jobs_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_DOC)
        out = tmp_path / "r.csv"
        assert cli.main(
            ["sweep", "-c", cfg, "--axis1", "A:1:2:2", "--axis2", "kprime:1:2:2",
             "-o", str(out), "--jobs", "-1"]
        ) == 2
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_svg_written(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_DOC)
        out = tmp_path / "r.csv"
        svg = tmp_path / "r.svg"
        cli.main(
            ["sweep", "-c", cfg, "--axis1", "A:0.5:4:6", "--axis2", "kprime:0.5:6:6",
             "-o", str(out), "--svg", str(svg), "--jobs", "1"]
        )
        text = svg.read_text()
        assert text.startswith("<!-- config=")
        assert "<svg" in text and "polyline" in text


class TestPhasePlane:
    def test_series_and_divergence_flags(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["coupling"]["horizon"] = 60.0
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "phase.csv"
        svg = tmp_path / "phase.svg"
        code = cli.main(
            ["phase-plane", "-c", cfg, "--kprime", "1,2,3,10", "-o", str(out),
             "--svg", str(svg)]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out.strip())
        names = [s["name"] for s in summary["series"]]
        assert names == ["expert", "kprime=1", "kprime=2", "kprime=3", "kprime=10"]
        by_name = {s["name"]: s for s in summary["series"]}
        assert by_name["kprime=1"]["diverged"] is True
        assert by_name["kprime=3"]["label"] == "stable"
        lines = out.read_text().splitlines()
        assert lines[1] == "series,t,x,u"
        # x coordinates are reported around the setpoint r = 5
        expert_rows = [l for l in lines[2:] if l.startswith("expert,")]
        first_x = float(expert_rows[0].split(",")[2])
        last_x = float(expert_rows[-1].split(",")[2])
        assert first_x == pytest.approx(0.0)
        assert last_x == pytest.approx(5.0, abs=1e-3)
        assert svg.read_text().startswith("<!-- config=")

    def test_empty_kprime_list_gives_expert_only(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_DOC)
        out = tmp_path / "phase.csv"
        cli.main(["phase-plane", "-c", cfg, "-o", str(out)])
        summary = json.loads(capsys.readouterr().out.strip())
        assert [s["name"] for s in summary["series"]] == ["expert"]

    def test_origin_equilibrium(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["plant"]["r"] = [0.0]
        doc["coupling"]["e0"] = [0.0]
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "phase.csv"
        cli.main(["phase-plane", "-c", cfg, "--kprime", "3", "-o", str(out)])
        capsys.readouterr()
        for line in out.read_text().splitlines()[2:]:
            _, _, x, u = line.split(",")
            assert float(x) == 0.0 and float(u) == 0.0

    def test_requires_scalar_plant(self, tmp_path, capsys):
        doc = {
            "plant": {"A": [[1.0, 0.0], [0.0, 1.0]], "B": [[1.0, 0.0], [0.0, 1.0]]},
            "policy": {"K": [[1.0, 0.0], [0.0, 1.0]], "sigma": 0.5},
            "diffusion": {"g": 1.0, "alpha": 1.0},
            "coupling": {"mode": "per-step", "dt": 0.01, "horizon": 10.0,
                          "e0": [1.0, 1.0], "u0": [0.0, 0.0]},
        }
        cfg = write_config(tmp_path, doc)
        assert cli.main(["phase-plane", "-c", cfg, "-o", str(tmp_path / "p.csv")]) == 2
        assert "scalar plant" in capsys.readouterr().err


class TestKprimeFlag:
    def test_non_numeric_kprime_is_validation_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_DOC)
        out = str(tmp_path / "p.csv")
        assert cli.main(["phase-plane", "-c", cfg, "--kprime", "1,abc", "-o", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad --kprime value 'abc'") and err.count("\n") == 1
        assert not (tmp_path / "p.csv").exists()


class TestConfigTypes:
    """A config value of the wrong JSON type is refused with one ``error:``
    line (exit 2): never a traceback, a misleading message or a silent
    conversion."""

    @staticmethod
    def simulate(tmp_path, capsys, doc):
        # no -o: the trajectory path comes from the config's output section
        code = cli.main(["simulate", "-c", write_config(tmp_path, doc)])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, value",
        [("plant", None), ("plant", 5), ("policy", "abc"), ("diffusion", None),
         ("coupling", None), ("output", [1]), ("output", "x.csv")],
    )
    def test_section_that_is_not_an_object(self, tmp_path, capsys, section, value):
        doc = dict(json.loads(json.dumps(BASE_DOC)), **{section: value})
        code, err = self.simulate(tmp_path, capsys, doc)
        assert (code, err) == (2, f"error: {section}: must be a JSON object\n")

    @pytest.mark.parametrize(
        "section, key, value",
        [("diffusion", "stochastic", "false"), ("diffusion", "stochastic", 0),
         ("diffusion", "inner_steps", 2.7), ("diffusion", "inner_steps", True),
         ("coupling", "record_stride", 1.9), ("coupling", "record_stride", "2"),
         ("coupling", "seed", 1.5), ("coupling", "seed", False),
         ("diffusion", "g", True), ("diffusion", "alpha", "1"), ("coupling", "dt", "0.01"),
         ("coupling", "dt_inner", True), ("policy", "sigma", True), ("plant", "A", "2"),
         ("coupling", "e0", [True]), ("diffusion", "drift", [True]),
         ("coupling", "e0", [1.0, True]), ("plant", "A", [[2.0, True], [0.0, 1.0]])],
    )
    def test_bad_flag_or_count_is_refused(self, tmp_path, capsys, monkeypatch, section, key,
                                          value):
        monkeypatch.delenv("STAB_SEED", raising=False)
        doc = json.loads(json.dumps(BASE_DOC))
        doc[section][key] = value
        doc["output"] = {"trajectory": str(tmp_path / "t.csv")}
        code, err = self.simulate(tmp_path, capsys, doc)
        if key in ("A", "e0", "drift"):  # arrays: the message names the dtype
            name = "plant A" if key == "A" else key
            message = f"{name} must hold numbers, got dtype {np.asarray(value).dtype}"
        else:
            kinds = {"stochastic": "true or false", "inner_steps": "a whole number",
                     "record_stride": "a whole number", "seed": "a whole number"}
            message = f"{key} must be {kinds.get(key, 'a number')}, got {value!r}"
        assert (code, err) == (2, f"error: {section}: {message}\n")
        assert not (tmp_path / "t.csv").exists()

    def test_infinite_step_count_is_refused(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["output"] = {"trajectory": str(tmp_path / "t.csv")}
        text = json.dumps(doc).replace('"horizon": 20.0', '"horizon": 1e400')
        assert "1e400" in text
        path = tmp_path / "config.json"
        path.write_text(text)
        code = cli.main(["simulate", "-c", str(path)])
        err = capsys.readouterr().err
        assert (code, err) == (2, "error: coupling: horizon/dt = inf steps is not finite\n")
        assert not (tmp_path / "t.csv").exists()

    def test_integer_beyond_float_range_is_refused(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["output"] = {"trajectory": str(tmp_path / "t.csv")}
        doc["policy"]["sigma"] = 10**400  # json writes it as a 401-digit integer literal
        code, err = self.simulate(tmp_path, capsys, doc)
        assert (code, err) == (2, "error: policy: sigma is an integer beyond the float range\n")
        assert not (tmp_path / "t.csv").exists()

    def test_whole_float_counts_are_accepted(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("STAB_SEED", raising=False)
        outputs = []
        for stride, seed in ((7, 11), (7.0, 11.0)):
            doc = json.loads(json.dumps(BASE_DOC))
            doc["diffusion"]["stochastic"] = True
            doc["coupling"].update(record_stride=stride, seed=seed, horizon=1.0)
            out = tmp_path / f"{stride!r}.csv"
            doc["output"] = {"trajectory": str(out)}
            code, err = self.simulate(tmp_path, capsys, doc)
            assert (code, err) == (0, "")
            outputs.append(out.read_text().split("\n", 1)[1])
        assert outputs[0] == outputs[1]


class TestDatasetCheck:
    PLANT_DOC = {
        "plant": {"A": 4.0, "B": 1.0},
        "diffusion": {"g": 1.0, "alpha": 1.0},
    }

    def test_stable_gate(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.PLANT_DOC, "plant.json")
        demos = demos_csv(tmp_path, sigma=0.4)
        assert cli.main(["dataset-check", "-d", demos, "-c", cfg]) == 0
        report = json.loads(capsys.readouterr().out.strip())
        assert report["label"] == "stable"
        assert report["sigma_threshold"] == pytest.approx(0.5)

    def test_unstable_gate(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.PLANT_DOC, "plant.json")
        demos = demos_csv(tmp_path, sigma=0.6)
        assert cli.main(["dataset-check", "-d", demos, "-c", cfg]) == 3

    def test_corrupt_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.PLANT_DOC, "plant.json")
        bad = tmp_path / "bad.csv"
        bad.write_text("e_1,u_1\n1,2\n3,oops\n")
        assert cli.main(["dataset-check", "-d", str(bad), "-c", cfg]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_reports_defaults_without_diffusion_section(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"plant": {"A": 4.0, "B": 1.0}}, "plant.json")
        demos = demos_csv(tmp_path, sigma=0.4)
        assert cli.main(["dataset-check", "-d", demos, "-c", cfg]) == 0
        report = json.loads(capsys.readouterr().out.strip())
        assert (report["g"], report["alpha"]) == (1.0, 1.0)
        assert report["sigma_threshold"] == pytest.approx(0.5)

    def test_rank_deficient_log_is_refused(self, tmp_path, capsys):
        # states (x, x + 2e-7 y): cond(E) ~ 1e7 is past the rank cut-off
        draws = RngStream(21).standard_normal((2000, 2))
        states = np.column_stack([draws[:, 0], draws[:, 0] + 2e-7 * draws[:, 1]])
        actions = -(states @ np.array([[1.5, -0.5], [0.25, 2.0]]).T)
        rows = np.hstack([states, actions])
        demos = tmp_path / "collinear.csv"
        demos.write_text(
            "e_1,e_2,u_1,u_2\n" + "".join("%.17g,%.17g,%.17g,%.17g\n" % tuple(r) for r in rows)
        )
        doc = {"plant": {"A": [[1.0, 0.0], [0.0, 1.0]], "B": [[1.0, 0.0], [0.0, 1.0]]}}
        cfg = write_config(tmp_path, doc, "plant.json")
        assert cli.main(["dataset-check", "-d", str(demos), "-c", cfg]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "rank deficient" in err[0]


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["diffusion"]["stochastic"] = True
        cfg = write_config(tmp_path, doc)
        outputs = []
        stdouts = []
        for tag in ("one", "two"):
            out = tmp_path / f"{tag}.csv"
            cli.main(["simulate", "-c", cfg, "-o", str(out)])
            stdouts.append(capsys.readouterr().out)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert stdouts[0] == stdouts[1]


class TestSweepRefusals:
    def test_underflowing_sigma_axis_is_validation_error(self, tmp_path, capsys):
        # sigma * sigma underflows to 0 on the first cell: used to exit 1 with a traceback
        cfg = write_config(tmp_path, BASE_DOC)
        out = tmp_path / "r.csv"
        assert cli.main(
            ["sweep", "-c", cfg, "--axis1", "sigma:1e-170:1e-160:2", "--axis2", "K:1:2:2",
             "-o", str(out)]
        ) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "sigma=1e-170" in err[0]
        assert not out.exists()

    def test_infinite_gain_cell_is_refused(self, tmp_path, capsys):
        # K' = 1 / 1e-320 is inf at sigma = 1e-160: used to be labelled marginal
        cfg = write_config(tmp_path, BASE_DOC)
        out = tmp_path / "r.csv"
        assert cli.main(
            ["sweep", "-c", cfg, "--axis1", "sigma:1e-150:1e-160:2", "--axis2", "K:1:2:2",
             "-o", str(out), "--empirical"]
        ) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "sigma=1e-160" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("axis1", ["sigma:1:1e155:2", "kprime:1e-310:1:2"])
    def test_overflowing_variance_is_validation_error(self, tmp_path, capsys, axis1):
        # sigma ** 2 overflows at sigma = 1e155: used to escape as OverflowError;
        # K' = 1e-310 gives sigma = inf
        cfg = write_config(tmp_path, BASE_DOC)
        out = tmp_path / "r.csv"
        assert cli.main(
            ["sweep", "-c", cfg, "--axis1", axis1, "--axis2", "K:1:2:2", "-o", str(out),
             "--empirical"]
        ) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: effective gain must be > 0")
        assert not out.exists()

    @pytest.mark.parametrize("empirical", [[], ["--empirical"]])
    def test_overflowing_axis_span_is_refused(self, tmp_path, capsys, empirical):
        # linspace(-1e308, 1e308, 3) is (nan, inf, 1e308): the nan cell used to be "stable"
        cfg = write_config(tmp_path, BASE_DOC)
        out = tmp_path / "r.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(
                ["sweep", "-c", cfg, "--axis1", "A:-1e308:1e308:3", "--axis2", "K:1:2:2",
                 "-o", str(out), *empirical]
            ) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: axis 'A'")
        assert not out.exists()

    def test_empirical_sweep_checks_start_length(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["coupling"]["e0"] = [1.0, 2.0]
        cfg = write_config(tmp_path, doc)
        assert cli.main(
            ["sweep", "-c", cfg, "--axis1", "A:1:2:2", "--axis2", "K:1:2:2",
             "-o", str(tmp_path / "r.csv"), "--empirical"]
        ) == 2
        assert capsys.readouterr().err == "error: e0 has length 2, plant expects 1\n"


class TestParserReuse:
    """``main`` builds its parser once per process; a sequence of calls in
    one process must print and write what each call does in a fresh one."""

    @staticmethod
    def in_process(argv, capsys):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses bad arguments this way
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @staticmethod
    def fresh_process(argv):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("STAB_SEED", None)
        done = subprocess.run([sys.executable, "-m", "stabkit.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        return done.returncode, done.stdout, done.stderr

    def test_calls_in_one_process_match_fresh_processes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("STAB_SEED", raising=False)
        cfg = write_config(tmp_path, BASE_DOC)
        axes = ["--axis1", "A:1.0:2.0:3", "--axis2", "kprime:3.0:6.0:2"]
        calls = [
            (["sweep", "-c", cfg, *axes, "--empirical", "-o"], "empirical.csv"),
            (["sweep", "-c", cfg, *axes, "-o"], "analytic.csv"),
            (["sweep", "-c", cfg, "--axis1", "A:1.0:2.0:3"], None),  # no --axis2: exit 2
            (["simulate", "-c", cfg, "-o"], "traj.csv"),
        ]
        for side in ("one", "fresh"):
            (tmp_path / side).mkdir()
        for argv, name in calls:
            outputs = []
            for side in ("one", "fresh"):
                args = argv + [str(tmp_path / side / name)] if name else argv
                run = self.in_process(args, capsys) if side == "one" else self.fresh_process(args)
                written = (tmp_path / side / name).read_bytes() if name else b""
                outputs.append((run, written))
            assert outputs[0] == outputs[1]
            assert outputs[0][0][0] == (2 if name is None else 0)
