import csv
import io
import math
import re
from contextlib import redirect_stdout

import numpy as np
import pytest
from conftest import TUNINGS, fresh_python, log_uniform
from hypothesis import given
from hypothesis import strategies as st

from adrcpid import cli
from adrcpid.cli import (
    EXIT_BAD_ARGS,
    EXIT_IO,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    ExperimentConfig,
    compute_figure,
    main,
    write_figure,
)
from adrcpid.adrc import build_adrc
from adrcpid.design import AdrcDesign, equivalent_params, equivalent_realization
from adrcpid.pid_equiv import build_equivalent_controller


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


# tunings far outside the aim-3 range; many of them are refused with exit 2
EXTREME_TUNINGS = st.tuples(
    st.sampled_from((1, 2)),
    log_uniform(1e-160, 1e160),
    log_uniform(1e-3, 1e60),
    st.builds(lambda sign, mag: sign * mag, st.sampled_from((-1.0, 1.0)), log_uniform(1e-160, 1e160)),
)


def _array2string_matrix(name: str, m: np.ndarray) -> str:
    """The printer cmd_tune replaced: one np.array2string per realization matrix."""
    body = np.array2string(
        np.atleast_2d(m),
        formatter={"float_kind": lambda v: format(v, ".10g")},
        separator=", ",
    )
    return f"  {name} = {body}\n"


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

    @given(tuning=st.one_of(TUNINGS, EXTREME_TUNINGS))
    def test_realization_prints_as_array2string_of_the_controller(self, tuning):
        order, ts, g, b0 = tuning
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["tune", f"--order={order}", f"--ts={ts!r}", f"--g={g!r}", f"--b0={b0!r}"])
        try:
            params = equivalent_params(AdrcDesign(order, ts, g, b0))
        except ValueError:
            assert (code, out.getvalue()) == (EXIT_BAD_ARGS, "")
            return
        assert code == EXIT_OK
        ss = build_equivalent_controller(params).ss
        # the printed entries are the controller's, bit for bit
        for rows, m in zip(equivalent_realization(params), (ss.A, ss.B, ss.C, ss.D)):
            assert np.array(rows).tobytes() == m.tobytes()
        realization = out.getvalue().split("state-space realization (inputs [r, y], output u)\n")[1]
        assert realization == "".join(_array2string_matrix(name, getattr(ss, name)) for name in "ABCD")


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

    @pytest.mark.parametrize("fig", ["1", "2"])
    def test_unrepresentable_step_response_exits_2(self, tmp_path, capsys, fig):
        # the equivalent controller's realization overflows at this tuning
        out = tmp_path / "out"
        assert main(["figure", fig, "--ts", "1e-110", "--out", str(out)]) == EXIT_BAD_ARGS
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the step response at this tuning is not representable: "
            "the model's entries times the sample time overflow or are not finite\n"
        )
        assert not out.exists()

    def test_gang_columns_match_direct_frequency_evaluation(self, tmp_path):
        # a fast design whose gang products have coefficients far below 1e-12 of their largest
        assert main(["figure", "8", "--ts", "0.01", "--g", "100", "--out", str(tmp_path)]) == EXIT_OK
        with open(tmp_path / "fig8.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        s = 1j * np.array([float(row["omega"]) for row in rows])
        P = 1.0 / (s + 1.0) ** 2  # the default plant K = T = D = 1
        design = AdrcDesign(2, 0.01, 100.0, 1.0)
        for name, ctrl in (("adrc", build_adrc(design)), ("equiv", build_equivalent_controller(equivalent_params(design)))):
            ss = ctrl.ss
            # [C_r, -C_y] = C (sI - A)^-1 B + D at every frequency
            u = ss.C @ np.linalg.solve(s[:, None, None] * np.eye(ss.n_states) - ss.A, ss.B) + ss.D
            c_r, c_y = u[:, 0, 0], -u[:, 0, 1]
            S = 1.0 / (1.0 + P * c_y)
            direct = {"S": S, "PS": P * S, "CS": c_y * S, "T": P * c_y * S,
                      "SF_r": S * c_r / c_y, "PSF_r": P * S * c_r / c_y, "TF_r": P * c_r * S}
            for fn, value in direct.items():
                got = np.array([float(row[f"{fn}_{name}"]) for row in rows])
                assert np.max(np.abs(got - np.abs(value)) / np.abs(value)) < 1e-9, (fn, name)

    def test_plant_far_faster_than_the_design_simulates(self, tmp_path):
        # the plant 1/(1e-13 s + 1) keeps its pole: its denominator is not trimmed to a constant
        assert main(["figure", "1", "--plant-t", "1e-13", "--out", str(tmp_path)]) == EXIT_OK
        assert (tmp_path / "fig1.csv").exists()

    def test_entries_spanning_past_the_float_range_still_simulate(self, tmp_path):
        # the closed loop's entries span 1e-103..1e201 here, so balancing sees r / c overflow
        assert main(["figure", "1", "--ts", "1e-100", "--out", str(tmp_path)]) == EXIT_OK
        assert (tmp_path / "fig1.csv").exists()

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

    @pytest.mark.parametrize("value", ["0", "-0", "nan", "inf", "-inf", "1e-320", "1e320", "1e308"])
    def test_bad_perturb_b0_rejected_before_any_check(self, capsys, value):
        assert main(["verify", f"--perturb-b0={value}"]) == EXIT_BAD_ARGS
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: perturb_b0") and captured.err.count("\n") == 1

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
    "tune2": ["tune", "--order", "2", "--ts", "1", "--g", "10"],
    "figure3": ["figure", "3"],
    "sweepK": ["sweep", "--param", "K"],
    "verify": ["verify"],
}
# (flag, rejected value, what the message names); every command takes the tuning flags
TUNING_REJECTS = [
    ("--order", "3", "--order"),
    *((flag, value, name) for flag, name in (("--ts", "T_s"), ("--g", "g")) for value in ("0", "-1", "nan", "inf")),
    *(("--b0", value, "b0") for value in ("0", "nan", "inf", "-inf")),
    # finite, but the gains or the equivalent PI(D) parameters overflow or underflow
    ("--ts", "1e-300", "T_s=1e-300 is out of range"),
    ("--ts", "1e300", "T_s=1e+300 is out of range"),
    ("--g", "1e300", "g=1e+300 is out of range"),
    ("--b0", "1e-320", "b0=1e-320 is out of range"),
]
OTHER_REJECTS = [
    *(("--plant-k", value, "plant K") for value in ("nan", "inf", "-inf")),
    *((flag, value, name) for flag, name in (("--plant-t", "plant T"), ("--plant-d", "plant D")) for value in ("0", "-1", "nan", "inf")),
    ("--compare-pid", "1,2,3", "compare pid"),
    ("--compare-pid", "", "compare pid"),
    ("--compare-pid", "1,2,0,0,1", "Tf"),
    ("--compare-pid", "1,2,0,inf,1", "Tf"),
    ("--compare-pid", "nan,2,0,0.1,1", "kp"),
    # finite, but the plant's coefficients overflow or underflow
    ("--plant-t", "1e160", "plant T=1e+160 is out of range"),
    ("--plant-t", "1e-320", "plant T=1e-320 is out of range"),
    ("--plant-d", "1e308", "plant D=1e+308 is out of range"),
]
REJECTED = [
    (command, *case)
    for command in COMMANDS
    for case in TUNING_REJECTS + (OTHER_REJECTS if COMMANDS[command][0] != "tune" else [])
]


class TestCommandsAgree:
    @pytest.mark.parametrize("command, flag, value, name", REJECTED)
    def test_bad_input_rejected_by_every_command(self, tmp_path, capsys, command, flag, value, name):
        out = tmp_path / "out"
        args = [*COMMANDS[command], f"{flag}={value}"] + (["--out", str(out)] if COMMANDS[command][0] != "tune" else [])
        assert main(args) == EXIT_BAD_ARGS
        err = capsys.readouterr().err
        assert "error:" in err and name in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_negative_b0_accepted_by_every_command(self, tmp_path, command):
        out = ["--out", str(tmp_path)] if COMMANDS[command][0] != "tune" else []
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


HEAVY_MODULES = ("scipy", "urllib.request", "numpy.polynomial")
# the modules that `figure`, `sweep` and `verify` run and `tune` does not
NUMERIC_MODULES = ("numpy", "adrcpid.lti", "adrcpid.adrc", "adrcpid.pid_equiv")
# the modules that only some commands run
LAYER_MODULES = (*NUMERIC_MODULES, "adrcpid.analysis", "adrcpid.svg", "adrcpid.verify", "configparser")


def test_cli_import_leaves_out_scipy_and_urllib():
    """A command's start-up cost is mostly imports; keep the heavy ones out."""
    modules = HEAVY_MODULES + LAYER_MODULES
    done = fresh_python("-c", f"import sys, adrcpid.cli; print(*(m for m in {modules!r} if m in sys.modules))")
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout.split() == []


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["tune", "--order", "2", "--ts", "1", "--g", "10"], ()),
        (["figure", "3"], (*NUMERIC_MODULES, "adrcpid.analysis", "adrcpid.svg", "configparser")),
        (["verify"], (*NUMERIC_MODULES, "adrcpid.analysis", "adrcpid.verify")),
    ],
    ids=["tune", "figure", "verify"],
)
def test_each_command_loads_only_the_layers_it_runs(tmp_path, argv, loaded):
    if argv[0] == "figure":
        argv = [*argv, "--out", str(tmp_path)]
    # numpy.polynomial is left out: verify divides out cancelled roots with it
    modules = ("scipy", "urllib.request") + LAYER_MODULES
    code = (
        "import sys\nfrom adrcpid.cli import main\n"
        f"code = main({argv!r})\n"
        f"print('loaded:', code, *(m for m in {modules!r} if m in sys.modules))"
    )
    done = fresh_python("-c", code)
    assert done.stderr == ""
    assert done.stdout.splitlines()[-1].split() == ["loaded:", "0", *loaded]


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["tune", "--order", "1", "--ts", "1", "--g", "10"], EXIT_OK, ""),
        # the exponential of this loop overflows while squaring; no warning, one refusal
        (
            ["figure", "1", "--ts", "1e-80", "--g", "1e50"],
            EXIT_BAD_ARGS,
            "error: the step response at this tuning is not representable: "
            "the model's exponential over one sample time overflows\n",
        ),
        # the controller's characteristic polynomial overflows; no warning, one refusal
        (
            ["figure", "3", "--ts", "1e-110"],
            EXIT_BAD_ARGS,
            "error: the controller transfer function at this tuning is not representable: "
            "its coefficients overflow\n",
        ),
        (
            ["verify", "--ts", "1e-100", "--g", "1", "--b0", "1"],
            EXIT_BAD_ARGS,
            "error: the controller transfer function at this tuning is not representable: "
            "its coefficients overflow\n",
        ),
        # order 1 accepts this tuning, order 2 does not: refused before any order-1 work
        (
            ["verify", "--ts", "1e-150", "--g", "1", "--b0", "1"],
            EXIT_BAD_ARGS,
            "error: T_s=1e-150 is out of range: the gains or equivalent PI(D) parameters "
            "of T_s=1e-150, g=1.0, b0=1.0 are not finite and nonzero\n",
        ),
        # a plant whose coefficients leave the float range: refused whole, naming the input
        (
            ["figure", "5", "--plant-t", "1e160"],
            EXIT_BAD_ARGS,
            "error: plant T=1e+160 is out of range: the transfer function of K=1.0, T=1e+160, D=1.0 "
            "has a coefficient that is not finite or a denominator coefficient that is zero\n",
        ),
        (
            ["figure", "8", "--plant-d", "1e308", "--plant-t", "10"],
            EXIT_BAD_ARGS,
            "error: plant D=1e+308 is out of range: the transfer function of K=1.0, T=10.0, D=1e+308 "
            "has a coefficient that is not finite or a denominator coefficient that is zero\n",
        ),
        (
            ["figure", "1", "--plant-t", "1e-320"],
            EXIT_BAD_ARGS,
            "error: plant T=1e-320 is out of range: the transfer function of K=1.0, T=1e-320, D=1.0 "
            "has a coefficient that is not finite or a denominator coefficient that is zero\n",
        ),
        (
            ["sweep", "--param", "T", "--values", "1e200", "--order", "2"],
            EXIT_BAD_ARGS,
            "error: plant T=1e+200 is out of range: the transfer function of K=1.0, T=1e+200, D=1.0 "
            "has a coefficient that is not finite or a denominator coefficient that is zero\n",
        ),
        # second-order plants kept whole, whose gang or loop leaves the float range
        (
            ["figure", "8", "--plant-d", "1e88"],
            EXIT_BAD_ARGS,
            "error: the transfer function is not representable: dividing out its cancelled roots overflows\n",
        ),
        (
            ["figure", "8", "--plant-d", "1e296"],
            EXIT_BAD_ARGS,
            "error: the gang of seven at this plant is not representable: its magnitudes overflow\n",
        ),
        (
            ["figure", "8", "--plant-t", "1e-152"],
            EXIT_BAD_ARGS,
            "error: the gang of seven at this plant is not representable: its closed-loop polynomial overflows\n",
        ),
        (
            ["figure", "5", "--plant-t", "1e-152"],
            EXIT_BAD_ARGS,
            "error: the step response at this tuning is not representable: "
            "the model's entries times the sample time overflow or are not finite\n",
        ),
        (["verify", "--perturb-b0", "0"], EXIT_BAD_ARGS, "error: perturb_b0 must be finite and nonzero, got 0.0\n"),
        (
            ["verify", "--perturb-b0", "1e-320"],
            EXIT_BAD_ARGS,
            "error: perturb_b0=1e-320 is out of range: scaled by it, the b0 of the equivalence grid "
            "give gains or equivalent PI(D) parameters that are not finite and nonzero\n",
        ),
    ],
    ids=["tune", "figure-exponential-overflow", "figure-controller-overflow", "verify-controller-overflow",
         "verify-order2-out-of-range", "figure-plant-t-overflow", "figure-plant-d-overflow",
         "figure-plant-t-underflow", "sweep-plant-t-overflow", "gang-cancellation-overflow",
         "gang-magnitude-overflow", "gang-polynomial-overflow", "closed-loop-overflow", "verify-perturb-b0-zero",
         "verify-perturb-b0-out-of-range"],
)
def test_command_runs_clean_with_warnings_as_errors(tmp_path, argv, code, err):
    if argv[0] != "tune":
        argv = [*argv, "--out", str(tmp_path / "out")]
    done = fresh_python("-m", "adrcpid.cli", *argv)
    assert (done.returncode, done.stderr) == (code, err)
    if code != EXIT_OK:
        assert done.stdout == "" and not (tmp_path / "out").exists()


def _per_value_csv(path, names, columns):
    """The writer _write_csv replaced: one _fmt call per value."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\n")
        for row in zip(*columns):
            fh.write(cli._fmt_floats(row) + "\n")


def _assert_csv_matches_per_value_writer(tmp_path, columns):
    names = [f"c{j}" for j in range(len(columns))]
    cli._write_csv(tmp_path / "bulk.csv", names, columns)
    _per_value_csv(tmp_path / "ref.csv", names, columns)
    assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


EDGE_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308,
               1e-310, 1e6, -1e6, 0.1, 1 / 3, 2.0**53 + 2, -1.7976931348623157e308, 123456789.0]


class TestBulkCsv:
    def test_edge_values(self, tmp_path):
        values = np.array(EDGE_FLOATS)
        _assert_csv_matches_per_value_writer(tmp_path, [values, values[::-1], np.roll(values, 3)])

    def test_one_row(self, tmp_path):
        _assert_csv_matches_per_value_writer(tmp_path, [np.array([v]) for v in EDGE_FLOATS])

    def test_one_column(self, tmp_path):
        _assert_csv_matches_per_value_writer(tmp_path, [np.array(EDGE_FLOATS)])

    @given(
        bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40),
        n_columns=st.integers(1, 4),
    )
    def test_random_bit_patterns(self, tmp_path_factory, bits, n_columns):
        # every float64, NaN payloads and subnormals included
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        columns = [np.roll(values, j) for j in range(n_columns)]
        _assert_csv_matches_per_value_writer(tmp_path_factory.mktemp("csv"), columns)

    def test_figure_formats_no_value_one_at_a_time(self, tmp_path, monkeypatch):
        """Only the config echo may format through _fmt; a per-value CSV writer fails here."""
        calls = []
        fmt = cli._fmt
        monkeypatch.setattr(cli, "_fmt", lambda v: calls.append(v) or fmt(v))
        write_figure(4, ExperimentConfig(out_dir=str(tmp_path)))
        assert len(calls) <= sum(len(keys) for keys in cli._CONFIG_FIELDS.values())
