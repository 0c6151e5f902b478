import csv
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import TUNINGS
from hypothesis import given
from hypothesis import strategies as st

from adrcpid.cli import (
    EXIT_BAD_ARGS,
    EXIT_IO,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    ExperimentConfig,
    compute_figure,
    main,
)


def parse_report(stdout: str) -> dict[str, float]:
    values = {}
    for line in stdout.splitlines():
        line = line.strip()
        if "=" in line and not line.startswith(("[", "A", "B", "C", "D")):
            key, _, rest = line.partition("=")
            try:
                values[key.strip()] = float(rest.strip())
            except ValueError:
                continue
    return values


class TestConfig:
    def test_default_roundtrip(self):
        cfg = ExperimentConfig()
        assert ExperimentConfig.from_text(cfg.to_text()) == cfg

    def test_full_roundtrip(self):
        cfg = ExperimentConfig(
            order=2,
            ts=0.75,
            g=12.5,
            b0=0.3,
            plant_k=1.25,
            plant_t=2.5,
            plant_d=0.7,
            k_sweep=(0.1, 1.0, 10.0),
            t_sweep=(0.5, 1.5),
            omega_min=1e-3,
            omega_max=1e5,
            omega_points=333,
            out_dir="some/dir",
            compare_pid=(1.0, 2.0, 0.5, 0.01, 0.4),
        )
        assert ExperimentConfig.from_text(cfg.to_text()) == cfg

    def test_awkward_floats_roundtrip(self):
        cfg = ExperimentConfig(ts=0.1 + 0.2, g=1 / 3, b0=np.nextafter(1.0, 2.0))
        back = ExperimentConfig.from_text(cfg.to_text())
        assert back.ts == cfg.ts
        assert back.g == cfg.g
        assert back.b0 == cfg.b0

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(ts=-1.0).validate()
        with pytest.raises(ValueError):
            ExperimentConfig(order=3).validate()
        with pytest.raises(ValueError):
            ExperimentConfig(k_sweep=()).validate()
        with pytest.raises(ValueError):
            ExperimentConfig(compare_pid=(1.0, 2.0, 0.0, -1.0, 0.5)).validate()


class TestTuneCommand:
    def test_first_order_values(self, capsys):
        assert main(["tune", "--order", "1", "--ts", "1", "--g", "10", "--b0", "1"]) == EXIT_OK
        values = parse_report(capsys.readouterr().out)
        assert values["kp"] == pytest.approx(480 / 21, rel=1e-9)
        assert values["ki"] == pytest.approx(1600 / 21, rel=1e-9)
        assert values["Tf"] == pytest.approx(1 / 84, rel=1e-9)
        assert values["b"] == pytest.approx(0.175, rel=1e-9)

    def test_second_order_values(self, capsys):
        assert main(["tune", "--order", "2", "--ts", "1", "--g", "10", "--b0", "1"]) == EXIT_OK
        values = parse_report(capsys.readouterr().out)
        assert values["kp"] == pytest.approx(82800 / 361, rel=1e-9)
        assert values["ki"] == pytest.approx(216000 / 361, rel=1e-9)
        assert values["kd"] == pytest.approx(9780 / 361, rel=1e-9)
        assert values["Tf"] == pytest.approx(1 / 114, rel=1e-9)
        assert values["d"] == pytest.approx(16 / 19, rel=1e-9)
        assert values["b"] == pytest.approx(12996 / 82800, rel=1e-9)

    def test_prints_state_space_matrices(self, capsys):
        main(["tune", "--order", "1", "--ts", "1", "--g", "10", "--b0", "1"])
        out = capsys.readouterr().out
        assert "state-space realization" in out
        for name in ("A =", "B =", "C =", "D ="):
            assert name in out

    def test_zero_settling_time_rejected(self, capsys):
        assert main(["tune", "--order", "1", "--ts", "0", "--g", "10"]) == EXIT_BAD_ARGS
        assert "T_s must be finite and > 0" in capsys.readouterr().err

    def test_negative_multiplier_rejected(self, capsys):
        assert main(["tune", "--order", "1", "--ts", "1", "--g", "-5"]) == EXIT_BAD_ARGS
        assert "g must be finite and > 0" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert main(["tune", "--ts", "1", "--g", "10"]) == EXIT_BAD_ARGS

    @pytest.mark.parametrize(
        "order, design, form, design_keys, param_keys",
        [
            (1, "first-order", "PI+F", ["K_P", "l1", "l2"], ["kp", "ki", "Tf", "b"]),
            (2, "second-order", "PID+F", ["omega_cl", "K_P", "K_D", "l1", "l2", "l3"], ["kp", "ki", "kd", "Tf", "d", "b"]),
        ],
    )
    def test_report_layout(self, capsys, order, design, form, design_keys, param_keys):
        assert main(["tune", "--order", str(order), "--ts", "0.3", "--g", "25", "--b0", "-4"]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        report = out[: out.index("state-space realization (inputs [r, y], output u)")]
        assert report[0] == f"{design} ADRC design (T_s=0.3, g=25, b0=-4)"
        split = report.index(f"equivalent {form} parameters (filtered measurement, set-point weight b)")
        for lines, keys in ((report[1:split], design_keys), (report[split + 1 :], param_keys)):
            assert [line.split("=")[0].rstrip() for line in lines] == [f"  {key}" for key in keys]


class TestFigureCommand:
    def test_writes_csv_svg_and_config_echo(self, tmp_path, capsys):
        assert main(["figure", "3", "--out", str(tmp_path)]) == EXIT_OK
        assert (tmp_path / "fig3.csv").exists()
        assert (tmp_path / "fig3.svg").exists()
        assert (tmp_path / "config_used.cfg").exists()
        echoed = ExperimentConfig.from_text((tmp_path / "config_used.cfg").read_text())
        assert echoed.order == 1
        assert echoed.out_dir == str(tmp_path)

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["figure", "4", "--out", str(out)]) == EXIT_OK
        assert (a / "fig4.csv").read_bytes() == (b / "fig4.csv").read_bytes()
        assert (a / "fig4.svg").read_bytes() == (b / "fig4.svg").read_bytes()

    def test_csv_parses_back_to_exact_floats(self, tmp_path):
        assert main(["figure", "7", "--out", str(tmp_path)]) == EXIT_OK
        names, columns, _, _ = compute_figure(7, ExperimentConfig(order=2, out_dir=str(tmp_path)))
        with open(tmp_path / "fig7.csv", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = np.array([[float(x) for x in row] for row in reader])
        assert header == names
        for j, col in enumerate(columns):
            assert np.array_equal(rows[:, j], np.asarray(col, dtype=float))

    def test_first_order_gain_sweep_schema(self, tmp_path):
        assert main(["figure", "1", "--out", str(tmp_path)]) == EXIT_OK
        header = (tmp_path / "fig1.csv").read_text().splitlines()[0].split(",")
        assert header[0] == "t"
        assert "y_adrc_K=0.1" in header
        assert "y_equiv_K=10" in header
        # 7 gain values x 2 controllers
        assert len(header) == 1 + 14

    def test_second_order_gain_sweep_values(self, tmp_path):
        assert main(["figure", "5", "--out", str(tmp_path)]) == EXIT_OK
        header = (tmp_path / "fig5.csv").read_text().splitlines()[0].split(",")
        assert "y_adrc_K=5" in header
        assert "y_adrc_K=10" not in header

    def test_gang_of_seven_schema(self, tmp_path):
        assert main(["figure", "4", "--out", str(tmp_path)]) == EXIT_OK
        header = (tmp_path / "fig4.csv").read_text().splitlines()[0].split(",")
        assert header[0] == "omega"
        for fn in ("S", "PS", "CS", "T", "SF_r", "PSF_r", "TF_r"):
            assert f"{fn}_adrc" in header
            assert f"{fn}_equiv" in header

    def test_divergent_cases_capped(self, tmp_path):
        assert main(["figure", "6", "--out", str(tmp_path)]) == EXIT_OK
        with open(tmp_path / "fig6.csv", newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            peak = max(abs(float(x)) for row in reader for x in row[1:])
        assert peak <= 1e6

    @pytest.mark.parametrize(
        "args, column, tail",
        [
            # grows with alternating sign; its last finite sample, 3.2e305, is positive
            (["figure", "6"], "y_adrc_T=0.1", 1e6),
            # runs off to -inf and overflows near sample 1775 of 4000
            (["sweep", "--param", "K", "--values", "-20"], "y_adrc_K=-20", -1e6),
        ],
    )
    def test_overflowed_tail_keeps_the_sign_of_the_last_finite_sample(self, tmp_path, args, column, tail):
        assert main([*args, "--out", str(tmp_path)]) == EXIT_OK
        (path,) = tmp_path.glob("*.csv")
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        trace = np.array([float(row[column]) for row in rows])
        assert np.all(trace[-1000:] == tail)

    def test_reports_unstable_cases_like_sweep(self, tmp_path, capsys):
        assert main(["figure", "6", "--out", str(tmp_path / "fig")]) == EXIT_OK
        figure_out = capsys.readouterr().out.splitlines()
        notes = [f"note: unstable case T={v} controller={c}" for v in ("0.1", "0.2", "5") for c in ("adrc", "equiv")]
        assert figure_out[: len(notes)] == notes
        assert all(line.startswith("wrote ") for line in figure_out[len(notes) :])
        assert main(["sweep", "--param", "T", "--order", "2", "--out", str(tmp_path / "sweep")]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[:-1] == notes

    def test_comparison_controller_included(self, tmp_path):
        args = ["figure", "3", "--out", str(tmp_path), "--compare-pid", "20,70,0,0.012,0.2"]
        assert main(args) == EXIT_OK
        header = (tmp_path / "fig3.csv").read_text().splitlines()[0].split(",")
        assert "mag_pid_Cy" in header

    def test_unknown_figure_id(self, capsys):
        assert main(["figure", "9"]) == EXIT_BAD_ARGS

    def test_unwritable_output_dir(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        out = blocker / "sub"
        assert main(["figure", "3", "--out", str(out)]) == EXIT_IO

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = ExperimentConfig(g=5.0, out_dir=str(tmp_path / "ignored"))
        cfg_file = tmp_path / "experiment.cfg"
        cfg_file.write_text(cfg.to_text())
        out = tmp_path / "real"
        assert main(["figure", "3", "--config", str(cfg_file), "--out", str(out)]) == EXIT_OK
        echoed = ExperimentConfig.from_text((out / "config_used.cfg").read_text())
        assert echoed.g == 5.0
        assert echoed.out_dir == str(out)

    def test_missing_config_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.cfg"
        assert main(["figure", "3", "--config", str(missing)]) == EXIT_BAD_ARGS
        assert "--config" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, offender",
        [
            ("[tuning]\nts = 2\ngg = 5\n", "'gg'"),
            ("[tuning]\nts = 2\n\n[plnt]\nk = 3\n", "[plnt]"),
            ("[DEFAULT]\ng = 5\n", "[DEFAULT]"),
            ("ts = 2\n", "malformed config"),
            ("[tuning]\nts = 2\nts = 3\n", "malformed config"),
        ],
        ids=["misspelled_key", "misspelled_section", "default_section", "no_section_header", "duplicate_key"],
    )
    def test_bad_config_text_rejected(self, tmp_path, capsys, text, offender):
        with pytest.raises(ValueError, match=re.escape(offender)):
            ExperimentConfig.from_text(text)
        cfg_file = tmp_path / "typo.cfg"
        cfg_file.write_text(text)
        assert main(["figure", "3", "--config", str(cfg_file), "--out", str(tmp_path)]) == EXIT_BAD_ARGS
        assert offender in capsys.readouterr().err
        assert not (tmp_path / "fig3.csv").exists()


class TestSweepCommand:
    def test_custom_values(self, tmp_path, capsys):
        args = ["sweep", "--param", "K", "--values", "0.5,1,2", "--out", str(tmp_path)]
        assert main(args) == EXIT_OK
        header = (tmp_path / "sweep_K.csv").read_text().splitlines()[0].split(",")
        assert header[0] == "t"
        assert len(header) == 1 + 3 * 2

    def test_reports_unstable_cases(self, tmp_path, capsys):
        args = [
            "sweep", "--param", "T", "--values", "0.1,1", "--order", "2",
            "--out", str(tmp_path),
        ]
        assert main(args) == EXIT_OK
        out = capsys.readouterr().out
        assert "unstable" in out

    def test_config_echo_reproduces_sweep(self, tmp_path):
        first, again = tmp_path / "first", tmp_path / "again"
        assert main(["sweep", "--param", "K", "--values", "0.5,3", "--out", str(first)]) == EXIT_OK
        echo = first / "config_used.cfg"
        assert "[sweep]\nk_values = 0.5,3\n" in echo.read_text()
        assert main(["sweep", "--param", "K", "--config", str(echo), "--out", str(again)]) == EXIT_OK
        assert (again / "sweep_K.csv").read_bytes() == (first / "sweep_K.csv").read_bytes()


class TestVerifyCommand:
    def test_nominal_passes(self, capsys):
        assert main(["verify"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "cy_equivalence_order1" in out
        assert "FAIL" not in out
        for line in out.splitlines():
            if ":" in line and "residual=" in line:
                assert "tol=" in line and line.endswith("PASS")

    def test_perturbed_b0_fails_equivalence_only(self, capsys):
        assert main(["verify", "--perturb-b0", "1.01"]) == EXIT_VERIFY_FAILED
        out = capsys.readouterr().out
        lines = {line.split(":")[0]: line for line in out.splitlines() if "residual=" in line}
        assert lines["cy_equivalence_order1"].endswith("FAIL")
        assert lines["cy_equivalence_order2"].endswith("FAIL")
        assert lines["asymptote_low_order1"].endswith("PASS")
        assert lines["gang_of_four_identity_order1"].endswith("PASS")

    def test_negative_b0_mirrors_positive(self, capsys):
        # negating b0 and the plant gain K together only flips the controller states
        codes, outs = [], []
        for b0 in ("4", "-4"):
            codes.append(main(["verify", "--ts", "0.3", "--g", "25", f"--b0={b0}"]))
            outs.append(capsys.readouterr().out)
        assert codes[0] == codes[1]
        assert outs[0] == outs[1]


COMMANDS = {
    "tune": ["tune", "--order", "1", "--ts", "1", "--g", "10"],
    "figure3": ["figure", "3"],
    "sweepK": ["sweep", "--param", "K"],
    "verify": ["verify"],
}
# (flag, rejected value, what the message names); every command takes the tuning flags
TUNING_REJECTS = [
    ("--order", "3", "--order"),
    *((flag, value, name) for flag, name in (("--ts", "T_s"), ("--g", "g")) for value in ("0", "-1", "nan", "inf")),
    *(("--b0", value, "b0") for value in ("0", "nan", "inf", "-inf")),
]
OTHER_REJECTS = [
    *(("--plant-k", value, "plant K") for value in ("nan", "inf", "-inf")),
    *((flag, value, name) for flag, name in (("--plant-t", "plant T"), ("--plant-d", "plant D")) for value in ("0", "-1", "nan", "inf")),
    ("--compare-pid", "1,2,3", "compare pid"),
    ("--compare-pid", "", "compare pid"),
    ("--compare-pid", "1,2,0,0,1", "Tf"),
    ("--compare-pid", "1,2,0,inf,1", "Tf"),
    ("--compare-pid", "nan,2,0,0.1,1", "kp"),
]
REJECTED = [
    (command, *case)
    for command in COMMANDS
    for case in TUNING_REJECTS + (OTHER_REJECTS if command != "tune" else [])
]


class TestCommandsAgree:
    @pytest.mark.parametrize("command, flag, value, name", REJECTED)
    def test_bad_input_rejected_by_every_command(self, tmp_path, capsys, command, flag, value, name):
        out = tmp_path / "out"
        args = [*COMMANDS[command], f"{flag}={value}"] + (["--out", str(out)] if command != "tune" else [])
        assert main(args) == EXIT_BAD_ARGS
        err = capsys.readouterr().err
        assert "error:" in err and name in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_negative_b0_accepted_by_every_command(self, tmp_path, command):
        out = ["--out", str(tmp_path)] if command != "tune" else []
        assert main([*COMMANDS[command], "--b0=-4", *out]) == EXIT_OK

    @given(
        tuning=TUNINGS,
        swaps=st.tuples(*[st.sampled_from((None, 0.0, -1.0, math.nan, math.inf))] * 3),
    )
    def test_tune_and_figure_agree(self, tmp_path_factory, tuning, swaps):
        order, *values = tuning
        flags = [
            f"--{flag}={value if swap is None else swap!r}"
            for flag, value, swap in zip(("ts", "g", "b0"), values, swaps)
        ]
        out = str(tmp_path_factory.getbasetemp() / "agree")
        tune = main(["tune", f"--order={order}", *flags])
        figure = main(["figure", "3", *flags, "--out", out])
        assert tune == figure


def test_cli_import_leaves_out_scipy_and_urllib():
    """A command's start-up cost is mostly imports; keep the heavy ones out."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    heavy = ("scipy", "urllib.request", "numpy.polynomial")
    code = f"import sys, adrcpid.cli; print(*(m for m in {heavy!r} if m in sys.modules))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == []
