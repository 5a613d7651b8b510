import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from stabkit import cli
from stabkit import CouplingMode, ExpertPolicy, RngStream, generate_demonstrations, simulate
from stabkit.stability_analyzer import sweep_region
from helpers import percent_rows

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

    def test_refused_classification_leaves_no_artifact(self, tmp_path, capsys):
        # a stride of 10 over 10 steps records 2 samples, too few to classify
        doc = {"plant": {"A": -1, "B": 1}, "policy": {"K": 1, "sigma": 0.5},
               "coupling": {"mode": "per-step", "dt": 0.1, "horizon": 1, "e0": [1],
                            "record_stride": 10}}
        out = tmp_path / "out.csv"
        assert cli.main(["simulate", "-c", write_config(tmp_path, doc), "-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: classification needs at least 10 recorded samples, got 2\n")
        assert not out.exists()

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

    def test_parse_leaves_the_document_as_it_was(self, monkeypatch):
        # the effective config is a copy: the seed override changes only it
        doc = {**json.loads(json.dumps(BASE_DOC)), "output": {"trajectory": "t.csv"}}
        before = json.dumps(doc, sort_keys=True)
        monkeypatch.delenv("STAB_SEED", raising=False)
        config = cli.parse_run_config(doc, require=("plant", "policy", "diffusion", "coupling"))
        assert config.effective == json.loads(json.dumps(doc))
        monkeypatch.setenv("STAB_SEED", "77")
        config = cli.parse_run_config(doc, require=("plant", "policy", "diffusion", "coupling"))
        assert json.dumps(doc, sort_keys=True) == before
        expected = json.loads(before)
        expected["coupling"]["seed"] = 77
        assert config.effective == expected and config.coupling.seed == 77

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

    def test_empirical_rows_are_what_simulate_prints(self, tmp_path, capsys):
        # K' dt past 2 diverges, and those cells' 4-step powers pass the cap
        # within one power table; K' below A grows, the rest decays
        coupling = {"mode": "per-step", "dt": 0.01, "horizon": 10.0, "e0": [1.0], "u0": [0.0],
                    "record_stride": 4}
        doc = {"plant": {"A": 2.0, "B": 1.0}, "policy": {"K": 3.0, "sigma": 0.5},
               "coupling": coupling}
        out = tmp_path / "region.csv"
        assert cli.main(["sweep", "-c", write_config(tmp_path, doc), "--axis1", "A:0.5:3:6",
                         "--axis2", "kprime:0.5:300:6", "-o", str(out), "--empirical"]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        printed = []
        for a, kprime, _, _, label, rate in rows:
            sigma = math.sqrt(1.0 / float(kprime))  # g = alpha = 1
            cell = {"plant": {"A": float(a), "B": 1.0},
                    "policy": {"K": 3.0, "Sigma": [[sigma**2]]}, "coupling": coupling}
            cfg = write_config(tmp_path, cell, "cell.json")
            assert cli.main(["simulate", "-c", cfg, "-o", str(tmp_path / "cell.csv")]) == 0
            verdict = json.loads(capsys.readouterr().out)
            assert (label, float(rate)) == (verdict["label"], float(verdict["rate"]))
            printed.append(verdict["label"])
        assert len(rows) == 36
        assert [float(row[5]) for row in rows].count(math.inf) > 0
        assert {"stable", "unstable"} <= set(printed)

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

    def test_whole_valued_float_steps_are_accepted(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_DOC)
        outputs = []
        for steps in ("2", "2.0"):
            out = tmp_path / f"steps-{steps}.csv"
            assert cli.main(["sweep", "-c", cfg, "--axis1", f"A:0:1:{steps}",
                             "--axis2", "kprime:1:2:2", "-o", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 2 + 2 * 2

    @pytest.mark.parametrize("axis, message", [
        ("A:0:1:2.5", "axis steps must be a whole number, got 2.5"),
        ("A:0:1:abc", "bad axis spec 'A:0:1:abc': could not convert string to float: 'abc'"),
    ])
    def test_bad_step_count_is_refused(self, tmp_path, capsys, axis, message):
        out = tmp_path / "r.csv"
        assert cli.main(["sweep", "-c", write_config(tmp_path, BASE_DOC), "--axis1", axis,
                         "--axis2", "kprime:1:2:2", "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

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
            if np.asarray(value).dtype == np.float64:  # a bool among numbers is named
                message = f"{name} must hold numbers, got True"
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

    def test_huge_step_count_is_refused(self, tmp_path, capsys):
        # finite, but past 2**53 steps, where float step indices stop being exact
        doc = json.loads(json.dumps(BASE_DOC))
        doc["coupling"]["horizon"] = 1e300
        doc["output"] = {"trajectory": str(tmp_path / "t.csv")}
        code, err = self.simulate(tmp_path, capsys, doc)
        assert (code, err) == (2, "error: coupling: horizon/dt = 1e+303 steps is more than "
                                  "2**53, past which step indices are not exact floats\n")
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_unallocatable_samples_are_refused(self, tmp_path, capsys, command):
        # 4.5e15 steps pass the 2**53 cap, but their sample indices would take
        # 32 PiB, past the address space: the allocation fails at once
        doc = json.loads(json.dumps(BASE_DOC))
        doc["coupling"].update(horizon=4.5e6, dt=1e-9)
        axes = ["--axis1", "A:1:2:2", "--axis2", "kprime:3:6:2", "--empirical"]
        out = tmp_path / "out.csv"
        argv = [command, "-c", write_config(tmp_path, doc), "-o", str(out)]
        code = cli.main(argv + (axes if command == "sweep" else []))
        assert (code, capsys.readouterr().err) == (
            2, "error: horizon/dt = 4500000000000000 steps at record_stride 1 give "
               "4500000000000001 samples, more than memory holds\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, key, value, name",
        [("coupling", "e0", [1.0, [2.0]], "e0"), ("plant", "A", [[1.0], [1.0, 2.0]], "plant A")],
    )
    def test_ragged_array_is_refused(self, tmp_path, capsys, section, key, value, name):
        doc = json.loads(json.dumps(BASE_DOC))
        doc[section][key] = value
        doc["output"] = {"trajectory": str(tmp_path / "t.csv")}
        code, err = self.simulate(tmp_path, capsys, doc)
        assert (code, err) == (2, f"error: {section}: {name} must be a rectangular array of numbers\n")
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

    @pytest.mark.parametrize("n, spread, code", [(1, 0.4, 0), (2, 0.6, 3)])
    def test_verdict_is_what_analyze_prints_for_the_fit(self, tmp_path, capsys, n, spread, code):
        k, sigma = 5.0 * np.eye(n) + 0.5, spread * np.eye(n)
        demos = generate_demonstrations(k, sigma @ sigma, 3000, RngStream(8))
        header = ",".join([f"e_{i + 1}" for i in range(n)] + [f"u_{i + 1}" for i in range(n)])
        rows = np.hstack([demos.states, demos.actions])
        log = tmp_path / "demos.csv"
        log.write_text(header + "\n" + "".join(",".join("%.17g" % v for v in r) + "\n"
                                               for r in rows))
        plant = {"A": (4.0 * np.eye(n) + 0.25).tolist(), "B": np.eye(n).tolist()}
        diffusion = {"g": 1.1, "alpha": 0.9}
        cfg = write_config(tmp_path, {"plant": plant, "diffusion": diffusion}, "plant.json")
        assert cli.main(["dataset-check", "-d", str(log), "-c", cfg]) == code
        report = json.loads(capsys.readouterr().out)
        policy = {"K": report["k_hat"], "Sigma": report["sigma_hat"]}
        doc = {"plant": plant, "policy": policy, "diffusion": diffusion}
        assert cli.main(["analyze", "-c", write_config(tmp_path, doc, "fit.json")]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert (report["label"], report["margins"]) == (verdict["label"], verdict["margins"])

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


class TestUndecodableInput:
    """Inputs the parser cannot read are refused, naming the file."""

    @pytest.mark.parametrize(
        "content, reason",
        [(b'{"plant": {"A": 2.0, "B": 1.0}}\xff', "'utf-8' codec can't decode byte 0xff in "
          "position 31: invalid start byte"),
         (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
         pytest.param(b'{"plant": {"A": ' + b"9" * 5000 + b', "B": 1.0}}', "Exceeds the limit",
                      marks=pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                                               reason="no integer digit limit"))],
        ids=["byte-0xff", "nested-arrays", "long-integer"],
    )
    def test_config_is_refused(self, tmp_path, capsys, content, reason):
        path = tmp_path / "config.json"
        path.write_bytes(content)
        assert cli.main(["analyze", "-c", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {path} is not valid JSON: {reason}")
        assert err.count("\n") == 1

    def test_demonstration_log_is_refused(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"plant": {"A": 4.0, "B": 1.0}}, "plant.json")
        log = tmp_path / "demos.csv"
        log.write_bytes(b"e_1,u_1\n1,2\n\xff,3\n")
        assert cli.main(["dataset-check", "-d", str(log), "-c", cfg]) == 2
        assert capsys.readouterr().err == (
            f"error: {log} is not UTF-8 text: 'utf-8' codec can't decode byte 0xff in "
            "position 12: invalid start byte\n"
        )


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

    def test_unallocatable_grid_is_refused(self, tmp_path, capsys, monkeypatch):
        # the grid's first column stands in for a grid past the address space
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(np, "repeat", no_memory)
        out = tmp_path / "r.csv"
        argv = ["sweep", "-c", write_config(tmp_path, BASE_DOC), "--axis1", "A:0:1:3",
                "--axis2", "K:0.5:2:4", "-o", str(out)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "error: a 3 x 4 sweep grid is more than memory holds\n"
        assert not out.exists()

    def test_empirical_sweep_needs_a_coupling_section(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE_DOC))
        del doc["coupling"]
        out = tmp_path / "r.csv"
        assert cli.main(
            ["sweep", "-c", write_config(tmp_path, doc), "--axis1", "A:1:2:2",
             "--axis2", "K:1:2:2", "-o", str(out), "--empirical"]
        ) == 2
        assert capsys.readouterr().err == "error: missing config section 'coupling'\n"
        assert not out.exists()

    def test_subnormal_variance_cell_runs_without_a_warning(self, tmp_path, capsys):
        # K' = 1e290 at g = 1e-10 gives sigma ~ 1e-155 and a subnormal variance,
        # whose inverse is inf; the per-step run diverges, as simulate's does
        doc = {"plant": {"A": 2, "B": 1}, "policy": {"K": 3, "sigma": 0.5},
               "diffusion": {"g": 1e-10, "alpha": 1},
               "coupling": {"mode": "per-step", "dt": 0.01, "horizon": 2, "e0": [1]}}
        out = tmp_path / "r.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(
                ["sweep", "-c", write_config(tmp_path, doc), "--axis1", "kprime:1e290:1e290:1",
                 "--axis2", "A:2:2:1", "-o", str(out), "--empirical"]
            ) == 0
        assert capsys.readouterr().err == ""
        assert out.read_text().splitlines()[2].endswith(",unstable,inf")

    def test_empirical_sweep_checks_start_length(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["coupling"]["e0"] = [1.0, 2.0]
        cfg = write_config(tmp_path, doc)
        assert cli.main(
            ["sweep", "-c", cfg, "--axis1", "A:1:2:2", "--axis2", "K:1:2:2",
             "-o", str(tmp_path / "r.csv"), "--empirical"]
        ) == 2
        assert capsys.readouterr().err == "error: e0 has length 2, plant expects 1\n"


class TestPolicyFitsPlant:
    """A K that does not fit the plant is refused by every command that reads
    a policy, with one message."""

    @pytest.mark.parametrize("command", ["simulate", "analyze", "sweep", "phase-plane"])
    def test_tall_K_on_a_scalar_plant_is_refused(self, tmp_path, capsys, command):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["policy"] = {"K": [[3.0], [1.0]], "Sigma": [[0.5, 0.0], [0.0, 0.5]]}
        out = tmp_path / "out.csv"
        argv = {
            "simulate": ["-o", str(out)],
            "analyze": [],
            "sweep": ["--axis1", "A:1:2:2", "--axis2", "K:1:2:2", "-o", str(out)],
            "phase-plane": ["--kprime", "1,2", "-o", str(out)],
        }[command]
        assert cli.main([command, "-c", write_config(tmp_path, doc)] + argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: policy K is 2x1, plant expects 1x1\n")
        assert not out.exists()


class TestNonFiniteDiffusion:
    """A JSON ``Infinity`` for g, alpha or dt_inner is refused by name when
    the config is read, by every command alike."""

    @pytest.mark.parametrize("command", ["simulate", "analyze"])
    @pytest.mark.parametrize("section, key, message", [
        ("diffusion", "g", "diffusion: diffusion coefficient g must be finite, got inf"),
        ("diffusion", "alpha", "diffusion: time-scale ratio alpha must be finite, got inf"),
        ("coupling", "dt_inner", "coupling: dt_inner must be finite, got inf"),
    ], ids=["g", "alpha", "dt_inner"])
    def test_infinity_is_refused(self, tmp_path, capsys, command, section, key, message):
        doc = json.loads(json.dumps(BASE_DOC))
        doc[section][key] = math.inf
        out = tmp_path / "traj.csv"
        argv = ["-o", str(out)] if command == "simulate" else []
        code = cli.main([command, "-c", write_config(tmp_path, doc), *argv])
        assert (code, capsys.readouterr().err) == (2, f"error: {message}\n")
        assert not out.exists()


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


def sweep_grid(doc, axis1, axis2, empirical):
    """The grid ``sweep`` writes, computed without the CLI's writer."""
    config = cli.parse_run_config(doc, require=("plant", "policy", "diffusion"))
    return sweep_region(config.plant, config.policy, config.diffusion,
                        cli._parse_axis_flag(axis1), cli._parse_axis_flag(axis2),
                        config.coupling if empirical else None)


class TestSweepCellIsItsConfig:
    """A sweep cell is the config's system with the swept parameters
    replaced: its empirical label and rate are what ``simulate`` (or the
    ``phase-plane --kprime`` series) prints for that system, and its
    analytic cell is what ``analyze`` prints."""

    DOC = {
        "plant": {"A": 2.0, "B": 1.0},
        "diffusion": {"g": 1.0, "alpha": 1.0},
        "coupling": {"mode": "per-step", "dt": 0.01, "horizon": 20.0, "e0": [1.0]},
    }
    # sqrt(Sigma) ** 2 != Sigma for the first; s ** 2 != s * s for the second
    POLICIES = [{"K": 3.0, "Sigma": [[0.2903717016735131]]},
                {"K": 3.0, "sigma": 0.5080903893875288}]

    @staticmethod
    def run(tmp_path, capsys, doc, argv):
        cfg = write_config(tmp_path, doc, name=f"{argv[0]}.json")
        assert cli.main([argv[0], "-c", cfg, *argv[1:]]) == 0
        return capsys.readouterr().out

    def sweep_cell(self, tmp_path, capsys, doc, axis2):
        """(analytic label, smallest margin, empirical label, rate) of the
        one cell of an A = 2 by ``axis2`` empirical sweep."""
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--empirical", "--axis1", "A:2:2:1", "--axis2", axis2, "-o", str(out)]
        self.run(tmp_path, capsys, doc, argv)
        _, _, label, margin, empirical_label, rate = out.read_text().splitlines()[2].split(",")
        return label, float(margin), empirical_label, float(rate)

    def expected_cell(self, tmp_path, capsys, doc):
        analytic = json.loads(self.run(tmp_path, capsys, doc, ["analyze"]))
        argv = ["simulate", "-o", str(tmp_path / "t.csv")]
        run = json.loads(self.run(tmp_path, capsys, doc, argv))
        return analytic["label"], min(analytic["margins"].values()), run["label"], run["rate"]

    @pytest.mark.parametrize("policy", POLICIES)
    def test_cell_at_the_config_point(self, tmp_path, capsys, policy):
        doc = dict(self.DOC, policy=policy)
        got = self.sweep_cell(tmp_path, capsys, doc, "K:3:3:1")
        assert got == self.expected_cell(tmp_path, capsys, doc)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_sigma_axis_cell(self, tmp_path, capsys, policy):
        s = 0.2502509152295432  # s ** 2 != s * s, and their rates differ in the last bits
        axis2 = f"sigma:{s!r}:{s!r}:1"
        got = self.sweep_cell(tmp_path, capsys, dict(self.DOC, policy=policy), axis2)
        doc = dict(self.DOC, policy={"K": 3.0, "sigma": s})
        assert got == self.expected_cell(tmp_path, capsys, doc)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_kprime_axis_cell(self, tmp_path, capsys, policy):
        k = 5.699063304152867  # sigma = sqrt(1 / k) has sigma ** 2 != sigma * sigma
        doc = dict(self.DOC, policy=policy)
        got = self.sweep_cell(tmp_path, capsys, doc, f"kprime:{k!r}:{k!r}:1")
        argv = ["phase-plane", "--kprime", repr(k), "-o", str(tmp_path / "p.csv")]
        series = json.loads(self.run(tmp_path, capsys, doc, argv))["series"][1]
        assert got[2:] == (series["label"], series["rate"])


class TestOutputBytes:
    """Sweep and phase-plane CSVs byte for byte against Python's ``%``."""

    SWEEP_HEADER = "axis1,axis2,analytic_label,analytic_margin_min,empirical_label,empirical_rate\n"

    @pytest.mark.parametrize("empirical", [False, True])
    def test_sweep_csv(self, tmp_path, empirical):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["coupling"].update(dt=0.01, horizon=10.0)
        axis1, axis2 = "A:-1:3:7", "kprime:0.5:8:5"
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "region.csv"
        argv = ["sweep", "-c", cfg, "--axis1", axis1, "--axis2", axis2, "-o", str(out)]
        assert cli.main(argv + ["--empirical"] * empirical) == 0
        grid = sweep_grid(doc, axis1, axis2, empirical)
        columns = [grid.axis1, grid.axis2, grid.analytic.label, grid.analytic.min_margin]
        if empirical:
            assert np.isinf(grid.empirical_rate).any()  # a diverged cell's rate
            rows = percent_rows("%.17g,%.17g,%s,%.17g,%s,%.17g",
                                columns + [grid.empirical_label, grid.empirical_rate])
        else:
            rows = percent_rows("%.17g,%.17g,%s,%.17g,,", columns)
        body = out.read_text().split("\n", 1)[1]
        assert body == self.SWEEP_HEADER + rows

    @pytest.mark.parametrize("start", [-5.0, 0.0])
    def test_phase_plane_csv(self, tmp_path, capsys, start):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["plant"]["r"] = [0.0]
        doc["coupling"].update(horizon=3.0, e0=[start])
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "phase.csv"
        assert cli.main(["phase-plane", "-c", cfg, "--kprime", "1,3", "-o", str(out)]) == 0
        config = cli.parse_run_config(doc, require=("plant", "policy", "diffusion", "coupling"))
        runs = [("expert", config.policy, CouplingMode.EXPERT_ORACLE)]
        for kprime in (1.0, 3.0):
            sigma = math.sqrt(1.0 / kprime)
            runs.append((f"kprime={kprime:g}", ExpertPolicy(K=config.policy.K,
                                                            Sigma=[[sigma * sigma]]),
                         CouplingMode.PER_STEP))
        want = "series,t,x,u\n"
        for name, policy, mode in runs:
            traj = simulate(config.plant, policy, config.diffusion,
                            replace(config.coupling, mode=mode))
            want += percent_rows(name + ",%.17g,%.17g,%.17g",
                                 [traj.times, traj.states[:, 0], traj.actions[:, 0]])
        assert out.read_text().split("\n", 1)[1] == want


class TestNonFiniteStepMaps:
    """A step map that overflows is a blow-up, reported without numpy's
    warnings; a kprime whose K' is not finite and > 0 is refused."""

    def test_simulate_with_tiny_variance(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["policy"] = {"K": 3.0, "Sigma": [[1e-308]]}
        cfg = write_config(tmp_path, doc)
        assert cli.main(["simulate", "-c", cfg, "-o", str(tmp_path / "t.csv")]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["label"] == "unstable"

    def test_phase_plane_with_huge_kprime(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_DOC)
        argv = ["phase-plane", "-c", cfg, "--kprime", "1e308", "-o", str(tmp_path / "p.csv")]
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["series"][1]["diverged"] is True

    def test_empirical_sweep_with_huge_kprime(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_DOC)
        argv = ["sweep", "-c", cfg, "--empirical", "--axis1", "A:0:1:2",
                "--axis2", "kprime:1:1e308:2", "-o", str(tmp_path / "s.csv")]
        assert cli.main(argv) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("kprime, message", [
        # sigma = 0, so sigma^2 = 0; sigma = 1e160, so K' = 1 / inf = 0
        ("inf", "effective gain g^2 alpha / sigma^2 overflows at sigma=0.0, g=1.0, alpha=1.0"),
        ("1e-320", "effective gain must be > 0, got 0.0"),
    ], ids=["inf", "1e-320"])
    def test_kprime_without_finite_variance_is_refused(self, tmp_path, capsys, kprime, message):
        cfg = write_config(tmp_path, BASE_DOC)
        argv = ["phase-plane", "-c", cfg, "--kprime", kprime, "-o", str(tmp_path / "p.csv")]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (tmp_path / "p.csv").exists()


class TestPhasePlaneCellsAreSweepCells:
    """``phase-plane --kprime`` builds and refuses its cells as a kprime
    sweep axis does: one scalar-plant refusal and one K' refusal."""

    @staticmethod
    def refusal(tmp_path, capsys, doc, command, kprime):
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out.csv"
        argv = {
            "sweep": ["--axis1", f"kprime:{kprime}:1:2", "--axis2", "A:1:2:2"],
            "phase-plane": ["--kprime", kprime],
        }[command]
        code = cli.main([command, "-c", cfg, *argv, "-o", str(out)])
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        return code, captured.err

    def test_tiny_kprime_is_refused_alike(self, tmp_path, capsys):
        sweep = self.refusal(tmp_path, capsys, BASE_DOC, "sweep", "1e-320")
        phase = self.refusal(tmp_path, capsys, BASE_DOC, "phase-plane", "1e-320")
        assert sweep == phase == (2, "error: effective gain must be > 0, got 0.0\n")

    def test_non_scalar_plant_is_refused_alike(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["plant"] = {"A": [[1.0, 0.0], [0.0, 1.0]], "B": [[1.0, 0.0], [0.0, 1.0]]}
        doc["policy"] = {"K": [[1.0, 0.0], [0.0, 1.0]], "sigma": 0.5}
        doc["coupling"].update(e0=[1.0, 1.0], u0=[0.0, 0.0])
        sweep = self.refusal(tmp_path, capsys, doc, "sweep", "1")
        phase = self.refusal(tmp_path, capsys, doc, "phase-plane", "1")
        assert sweep == phase == (2, "error: sweep and phase-plane require a scalar plant, "
                                     "got B (2, 2)\n")

    def test_overflowing_kprime_cell_is_refused_alike(self, tmp_path, capsys):
        # sigma = 1e200 sqrt(1 / 1e300) = 1e50, and g^2 = 1e400 overflows
        doc = json.loads(json.dumps(BASE_DOC))
        doc["diffusion"]["g"] = 1e200
        want = (2, "error: effective gain g^2 alpha / sigma^2 overflows at sigma=1e+50, "
                   "g=1e+200, alpha=1.0\n")
        assert self.refusal(tmp_path, capsys, doc, "phase-plane", "1e300") == want
        assert self.refusal(tmp_path, capsys, doc, "sweep", "1e300") == want


class TestOverflowRefusals:
    """A quantity past the float range is refused with a message that names
    it, or, where an infinite margin is the answer, reported as "inf"; numpy
    prints no warning on stderr either way."""

    ND_DOC = {
        "plant": {"A": [[0.5, 0.1], [0.0, -0.3]], "B": [[1.0, 0.0], [0.0, 1.0]]},
        "policy": {"K": [[2.0, 0.0], [0.0, 1.0]], "Sigma": [[0.5, 0.1], [0.1, 0.4]]},
        "diffusion": {"g": 1.0, "alpha": 1.0},
    }
    # K' = g^2 alpha / sigma^2 ~ 1.66e308 is finite, K' - A is not
    HUGE_GAP_DOC = {
        "plant": {"A": -1.7e308, "B": 1.0},
        "policy": {"K": 3.0, "sigma": 0.101},
        "diffusion": {"g": 1.3e153, "alpha": 1.0},
    }

    @staticmethod
    def refused(tmp_path, capsys, argv, doc):
        cfg = write_config(tmp_path, doc)
        code = cli.main([argv[0], "-c", cfg, *argv[1:]])
        captured = capsys.readouterr()
        assert captured.out == ""
        return code, captured.err

    def test_closed_loop_product(self, tmp_path, capsys):
        doc = json.loads(json.dumps(self.ND_DOC))
        doc["plant"]["B"] = [[1e300, 0.0], [0.0, 1e300]]
        doc["policy"]["K"] = [[1e10, 0.0], [0.0, 1.0]]
        assert self.refused(tmp_path, capsys, ["analyze"], doc) == (
            2, "error: closed-loop product g^2 alpha Sigma^-1 (A - B K) contains "
               "non-finite entries\n")

    def test_effective_precision(self, tmp_path, capsys):
        doc = json.loads(json.dumps(self.ND_DOC))
        doc["diffusion"]["g"] = 1e200
        assert self.refused(tmp_path, capsys, ["analyze"], doc) == (
            2, "error: matrix effective gain g^2 alpha Sigma^-1 contains non-finite "
               "entries\n")

    def test_residual_covariance(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        e = 1e160 * rng.standard_normal(50)
        u = -3.0 * e + 1e159 * rng.standard_normal(50)
        log = tmp_path / "demos.csv"
        rows = "".join(f"{a!r},{b!r}\n" for a, b in zip(e.tolist(), u.tolist()))
        log.write_text("e_1,u_1\n" + rows)
        doc = {"plant": {"A": 0.5, "B": 1.0}}
        assert self.refused(tmp_path, capsys, ["dataset-check", "-d", str(log)], doc) == (
            2, "error: the residual covariance of the demonstrations contains "
               "non-finite entries\n")

    def test_scalar_gain_margin_is_inf(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.HUGE_GAP_DOC)
        assert cli.main(["analyze", "-c", cfg]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        verdict = json.loads(captured.out)
        assert (verdict["label"], verdict["margins"]["kprime"]) == ("stable", "inf")
        out = tmp_path / "s.csv"
        argv = ["sweep", "-c", cfg, "--axis1", "K:1:2:2", "--axis2", "B:1:2:2", "-o", str(out)]
        assert cli.main(argv) == 0
        assert capsys.readouterr().err == ""
        assert [row.split(",")[2] for row in out.read_text().splitlines()[2:]] == ["stable"] * 4

    @pytest.mark.parametrize("k, label, margin", [(1e300, "stable", "inf"),
                                                  (-1e300, "unstable", "-inf")])
    def test_scalar_closed_loop_margin_is_inf(self, tmp_path, capsys, k, label, margin):
        # B K is past the float range; K' = 4 > A = 1, so its sign decides
        doc = {"plant": {"A": 1.0, "B": 1e300}, "policy": {"K": k, "sigma": 0.5}}
        assert cli.main(["analyze", "-c", write_config(tmp_path, doc)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        verdict = json.loads(captured.out)
        assert (verdict["label"], verdict["margins"]["closed_loop"]) == (label, margin)

    def test_dataset_check_prints_json(self, tmp_path, capsys):
        # the fitted sigma_hat ~ 0.101 gives the same infinite gain margin
        demos = generate_demonstrations([[3.0]], [[0.01]], 50, RngStream(0))
        log = tmp_path / "demos.csv"
        log.write_text("e_1,u_1\n" + "".join(
            f"{e!r},{u!r}\n" for e, u in zip(demos.states[:, 0].tolist(),
                                             demos.actions[:, 0].tolist())))
        doc = {key: self.HUGE_GAP_DOC[key] for key in ("plant", "diffusion")}
        cfg = write_config(tmp_path, doc)
        assert cli.main(["dataset-check", "-d", str(log), "-c", cfg]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        report = json.loads(captured.out, parse_constant=refuse)
        assert report["margins"]["kprime"] == "inf"
        assert report["sigma_threshold"] == "none"
