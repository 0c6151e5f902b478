import configparser
import csv
import hashlib
import inspect
import io
import math
import re
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from conftest import TUNINGS, fresh_python, log_uniform, mp_stable
from hypothesis import given
from hypothesis import strategies as st

from adrcpid import cli, config
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
from adrcpid.analysis import gang_of_seven
from adrcpid.design import AdrcDesign, equivalent_params, equivalent_realization
from adrcpid.pid_equiv import build_equivalent_controller
from adrcpid.tf import log_grid


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


def _configparser_text(cfg):
    """The config echo as ConfigParser.write gives it: each section with a field that is not None."""
    cp = configparser.ConfigParser()
    for section, keys in config._CONFIG_FIELDS.items():
        values = {
            key: fmt(getattr(cfg, field)) for key, (field, _, fmt) in keys.items() if getattr(cfg, field) is not None
        }
        if values:
            cp[section] = values
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


class TestConfig:
    @pytest.mark.parametrize(
        "argv",
        [
            ["figure", "1"],
            ["sweep", "--param", "T", "--order", "2", "--values", "0.5,1,2", "--out", "sweeps"],
            ["figure", "8", "--g", "5", "--compare-pid", "1,2,0.5,0.01,0.4"],
        ],
        ids=["default", "sweep", "compare-pid"],
    )
    def test_text_is_what_configparser_writes(self, argv):
        cfg = cli._resolve_config(cli.build_parser().parse_args(argv))
        assert cfg.to_text() == _configparser_text(cfg)

    @pytest.mark.parametrize("out_dir", ["a%b", "50%", "a%%b", "x%(y)s", "%(", "two\nlines", " padded ", ""])
    def test_out_dir_is_written_or_refused_as_configparser_does(self, out_dir):
        cfg = ExperimentConfig(out_dir=out_dir)
        try:
            want = _configparser_text(cfg)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                cfg.to_text()
        else:
            assert cfg.to_text() == want

    @pytest.mark.parametrize("argv, out_dir", [(["figure", "7"], "a%b"), (["sweep", "--param", "K"], "p%%q")])
    def test_out_dir_with_a_percent_refused_before_any_output(self, tmp_path, capsys, argv, out_dir):
        # the echo could not repeat the run: ConfigParser refuses a bare % and reads %% back as %
        out = tmp_path / out_dir
        assert main([*argv, "--out", str(out)]) == EXIT_BAD_ARGS
        assert capsys.readouterr() == ("", f"error: output dir (--out, [output] dir) must not hold a %, got {str(out)!r}\n")
        assert list(tmp_path.iterdir()) == []

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
        matrices = [np.array(rows) for rows in build_equivalent_controller(params).realization]
        # the printed entries are the controller's, bit for bit
        for rows, m in zip(equivalent_realization(params), matrices):
            assert np.array(rows).tobytes() == m.tobytes()
        realization = out.getvalue().split("state-space realization (inputs [r, y], output u)\n")[1]
        assert realization == "".join(map(_array2string_matrix, "ABCD", matrices))


# The sha256 of the bode and gang figures' files.  These figures are computed on
# plain Python floats and complex numbers, with no numpy or BLAS underneath, so
# their bytes depend only on the interpreter and the C math library behind its
# math module; a refactor of their path must keep every byte.
FREQUENCY_FIGURE_FLAGS = {"defaults": [], "compare-pid": ["--compare-pid", "1,1,1,0.1,1", "--b0", "-2"]}
FREQUENCY_FIGURE_SHA256 = {
    ("3", "defaults", "csv"): "ab6a073a015bf0515736b36209c187970b542640a04d35298f70b4f08fedad24",
    ("3", "defaults", "svg"): "9773eae01aca5c90b10feff854d180bd6999dee5b3fa28d6350b673bd7bfdaf6",
    ("4", "defaults", "csv"): "9e09274b937317e6576e3ad6f62792651cadbcb371b56917faf9dc9b8ca2b5e8",
    ("4", "defaults", "svg"): "bee9c37b13552cee377035c05378499820a7fd74fdfdd8d98182cab17cac6897",
    ("7", "defaults", "csv"): "1048c65afa84d0f80bddfbd17af7a6faea0cb6e24a5eda661bfcf3769b8e06d9",
    ("7", "defaults", "svg"): "d1235e6754b910a49ac9610ac14b15acb665addcc069656c9297f2d9239ea104",
    ("8", "defaults", "csv"): "836552380cd92925019379dc0f700cb5b911241a72a0958d3e508249bc6eaf7d",
    ("8", "defaults", "svg"): "e905c4fb0dd52e47697adb570740fba052794de053be366145d09e74dee9c2fd",
    ("3", "compare-pid", "csv"): "b358600292b7eae6f6ecfbe68d667f17828a52d56dd4997445e857ff02899b54",
    ("3", "compare-pid", "svg"): "c640d3b37c5100bf4b4ac2fc9fa2d73f103fd76cea1ce4ce3bfe6622f7eb95b7",
    ("4", "compare-pid", "csv"): "546751b7d34eb45d6dbf00d06eb1bf54789895353b438dbe8cefdbbb08d82807",
    ("4", "compare-pid", "svg"): "fa193bfba2245ee2fdda27f486098e356c62b74b8fd425aaf8493715ddefba4e",
    ("7", "compare-pid", "csv"): "169ffdfefd8ce3e2ff78d6f3a73e242f2e9fc759e381b06129c9b9b4bbb378c2",
    ("7", "compare-pid", "svg"): "25dfc6f528aae531fc2463551060206f965829056b240be977b71dd5a48ae237",
    ("8", "compare-pid", "csv"): "33d3753cbcdacd972ceeb1d601fe3b2521a7b567c9ae37cc19cb8403bfbe038e",
    ("8", "compare-pid", "svg"): "99cf47d4140852a512d2d0297855b8f34c2b165d43746d5493337c28a2739d22",
}


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

    @pytest.mark.parametrize(
        "fig, flags", [(fig, flags) for flags in FREQUENCY_FIGURE_FLAGS for fig in ("3", "4", "7", "8")]
    )
    def test_frequency_figure_bytes_are_pinned(self, tmp_path, capsys, fig, flags):
        assert main(["figure", fig, *FREQUENCY_FIGURE_FLAGS[flags], "--out", str(tmp_path)]) == EXIT_OK
        for ext in ("csv", "svg"):
            digest = hashlib.sha256((tmp_path / f"fig{fig}.{ext}").read_bytes()).hexdigest()
            assert digest == FREQUENCY_FIGURE_SHA256[(fig, flags, ext)], ext

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

    def test_reports_unstable_and_clamped_cases_like_sweep(self, tmp_path, capsys):
        assert main(["figure", "6", "--out", str(tmp_path / "fig")]) == EXIT_OK
        figure_out = capsys.readouterr().out.splitlines()
        notes = [f"note: unstable case T={v} controller={c}" for v in ("0.1", "0.2", "5") for c in ("adrc", "equiv")]
        # the diverging traces, clamped on output; T = 5 diverges too slowly to reach the cap
        notes += [
            f"note: column y_{c}_T={v} clamped to +-1e+06 at {n} of 4001 samples"
            for c, v, n in (("adrc", "0.1", 3924), ("equiv", "0.1", 3924), ("adrc", "0.2", 3800), ("equiv", "0.2", 3802))
        ]
        assert figure_out[: len(notes)] == notes
        assert all(line.startswith("wrote ") for line in figure_out[len(notes) :])
        assert main(["sweep", "--param", "T", "--order", "2", "--out", str(tmp_path / "sweep")]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[:-1] == notes

    def test_clamp_notes_count_the_samples_the_csv_holds_at_the_cap(self, tmp_path, capsys):
        # at T = 0.1 and 0.2 both controllers' traces diverge to the cap; T = 5 diverges too slowly
        assert main(["figure", "6", "--out", str(tmp_path)]) == EXIT_OK
        notes = [line for line in capsys.readouterr().out.splitlines() if line.startswith("note: column ")]
        with open(tmp_path / "fig6.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        clamped = {name: sum(abs(float(row[name])) == 1e6 for row in rows) for name in rows[0]}
        assert notes == [
            f"note: column {name} clamped to +-1e+06 at {count} of 4001 samples"
            for name, count in clamped.items()
            if count
        ]
        assert [line.split()[2] for line in notes] == ["y_adrc_T=0.1", "y_equiv_T=0.1", "y_adrc_T=0.2", "y_equiv_T=0.2"]

    def test_names_a_stable_case_whose_trace_is_clamped(self, tmp_path, capsys):
        # at g = 1e17 the exponential loses the slow modes: the loops are stable, their traces are not
        assert main(["figure", "5", "--g", "1e17", "--out", str(tmp_path)]) == EXIT_OK
        notes = [line for line in capsys.readouterr().out.splitlines() if line.startswith("note: ")]
        assert notes == [
            line
            for v, n in (("1", 3991), ("2", 3995))
            for c in ("adrc", "equiv")
            for line in (
                f"note: column y_{c}_K={v} clamped to +-1e+06 at {n} of 4001 samples",
                f"note: stable case K={v} controller={c} has a clamped trace that cannot be trusted",
            )
        ]

    @pytest.mark.parametrize(
        "args",
        [["figure", "1"], ["figure", "2"], ["figure", "5"], ["figure", "6"]]
        + [["sweep", "--param", p, "--order", o] for p in ("K", "T") for o in ("1", "2")],
    )
    def test_default_step_runs_name_no_stable_case_as_clamped(self, tmp_path, capsys, args):
        # their clamped columns are all of unstable cases, so their output stays as it was
        assert main([*args, "--out", str(tmp_path)]) == EXIT_OK
        assert "cannot be trusted" not in capsys.readouterr().out

    @pytest.mark.parametrize("g", ["1e3", "1e6", "1e8", "1e12"])
    def test_adrc_traces_end_on_the_pidf_traces_at_high_g(self, tmp_path, capsys, g):
        # both controllers carry the same C_y, so once the reference transient has passed their
        # traces agree; ADRC's reference column adds no error of its own there
        assert main(["figure", "5", "--g", g, "--out", str(tmp_path)]) == EXIT_OK
        assert not [line for line in capsys.readouterr().out.splitlines() if line.startswith("note: ")]
        with open(tmp_path / "fig5.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        names = [name for name in rows[0] if name.startswith("y_adrc_")]
        tail = rows[len(rows) * 4 // 5 :]
        gap = max(abs(float(row[name]) - float(row[name.replace("adrc", "equiv")])) for row in tail for name in names)
        assert gap <= 1e-12

    def test_comparison_controller_included(self, tmp_path):
        args = ["figure", "3", "--out", str(tmp_path), "--compare-pid", "20,70,0,0.012,0.2"]
        assert main(args) == EXIT_OK
        header = (tmp_path / "fig3.csv").read_text().splitlines()[0].split(",")
        assert "mag_pid_Cy" in header

    @pytest.mark.parametrize("Tf", ["1e-200", "1e160"])
    @pytest.mark.parametrize("argv", [["figure", fig] for fig in "5678"] + [["sweep", "--param", "K", "--order", "2"]])
    def test_comparison_pidf_filter_out_of_range_exits_2_naming_tf(self, tmp_path, argv, Tf):
        # Tf^2 is 0 or overflows; each once ended in a traceback
        out = tmp_path / "out"
        refusal = _run_clean([*argv, "--compare-pid", f"1,1,1,{Tf},1", "--out", str(out)], out)
        assert refusal.startswith(f"error: Tf={float(Tf)!r} is out of range: ")

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (
                ["figure", "8", "--compare-pid", "1,1,1,1e-154,1"],
                "the gang of seven at this plant is not representable: its closed-loop polynomial overflows",
            ),
            (
                ["figure", "6", "--compare-pid", "1,1e300,1,1e-100,1"],
                "the step response at this tuning is not representable: "
                "the model's exponential over one sample time overflows",
            ),
        ],
        ids=["gang", "trace"],
    )
    def test_comparison_refused_past_its_parameters_names_them(self, tmp_path, argv, reason):
        # parameters that PidParams accepts, but whose gang or trace leaves the float range
        values = [float(v) for v in argv[-1].split(",")]
        named = ", ".join(f"{name}={value!r}" for name, value in zip(("kp", "ki", "kd", "Tf", "b"), values))
        out = tmp_path / "out"
        assert _run_clean([*argv, "--out", str(out)], out) == f"error: {named} are out of range: {reason}"

    @pytest.mark.parametrize("argv", [["figure", "5"], ["sweep", "--param", "K", "--order", "2"]])
    def test_comparison_pif_takes_any_finite_tf(self, tmp_path, argv):
        out = tmp_path / "out"
        assert _run_clean([*argv, "--compare-pid", "1,1,0,1e300,1", "--out", str(out)], out) is None

    @pytest.mark.parametrize("fig", ["1", "2"])
    def test_unrepresentable_step_response_exits_2(self, tmp_path, capsys, fig):
        # the equivalent controller's realization overflows at this tuning, so the design
        # refuses it, naming T_s, before any step response is tried
        out = tmp_path / "out"
        assert main(["figure", fig, "--ts", "1e-110", "--out", str(out)]) == EXIT_BAD_ARGS
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: T_s=1e-110 is out of range: an entry of the PI+F realization "
            "of T_s=1e-110, g=10.0, b0=1.0 is not finite\n"
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
            A, B, C, D = map(np.array, ctrl.realization)
            # [C_r, -C_y] = C (sI - A)^-1 B + D at every frequency
            u = C @ np.linalg.solve(s[:, None, None] * np.eye(len(A)) - A, B) + D
            c_r, c_y = u[:, 0, 0], -u[:, 0, 1]
            S = 1.0 / (1.0 + P * c_y)
            direct = {"S": S, "PS": P * S, "CS": c_y * S, "T": P * c_y * S,
                      "SF_r": S * c_r / c_y, "PSF_r": P * S * c_r / c_y, "TF_r": P * c_r * S}
            for fn, value in direct.items():
                got = np.array([float(row[f"{fn}_{name}"]) for row in rows])
                assert np.max(np.abs(got - np.abs(value)) / np.abs(value)) < 1e-9, (fn, name)

    def test_gang_columns_equal_each_member_evaluated_alone(self):
        # figure 8 --plant-d 1e296, whose members are evaluated in 1/s at high w: the columns,
        # made over shared denominators, carry the bits of each member evaluated on its own
        cfg = ExperimentConfig(order=2, plant_d=1e296)
        plant, design = cfg.plant(2), AdrcDesign(2, cfg.ts, cfg.g, cfg.b0)
        points = [1j * w for w in log_grid(cfg.omega_min, cfg.omega_max, cfg.omega_points)]
        for ctrl in (build_adrc(design), build_equivalent_controller(equivalent_params(design))):
            got = {label: [x.hex() for x in mag] for label, mag, _ in cli._gang_columns(plant, points, "c", ctrl)}
            members = gang_of_seven(plant, ctrl).named().items()
            assert got == {f"{fn}_c": [cli._magnitude(v).hex() for v in tf(points)] for fn, tf in members}

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

    @pytest.mark.parametrize(
        "values, first, second, label",
        [("1,1", "1.0", "1.0", "K=1"), ("2,1.0000001,1.0000002", "1.0000001", "1.0000002", "K=1")],
    )
    def test_values_with_one_label_refused(self, tmp_path, capsys, values, first, second, label):
        # two cases that would write the same column header, and the same note
        out = tmp_path / "out"
        assert main(["sweep", "--param", "K", "--values", values, "--out", str(out)]) == EXIT_BAD_ARGS
        assert capsys.readouterr() == (
            "",
            f"error: K sweep values {first} and {second} cannot be told apart: both are labelled {label}\n",
        )
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["sweep", "--param", "K"], ["figure", "1"]])
    def test_config_values_with_one_label_refused(self, tmp_path, capsys, argv):
        config, out = tmp_path / "sweep.cfg", tmp_path / "out"
        config.write_text("[sweep]\nk_values = 0.5,2,0.50000001\n")
        assert main([*argv, "--config", str(config), "--out", str(out)]) == EXIT_BAD_ARGS
        assert capsys.readouterr().err == (
            "error: K sweep values 0.5 and 0.50000001 cannot be told apart: both are labelled K=0.5\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, config, text",
        [
            # every value after the gap would move one field to the left
            (["figure", "4", "--compare-pid", "1,2,,0.1,1,1"], None, "1,2,,0.1,1,1"),
            (["sweep", "--param", "K", "--values", "0.5,,2,"], None, "0.5,,2,"),
            (["figure", "4"], "[compare]\npid = 1,2,,0.1,1,1\n", "1,2,,0.1,1,1"),
            (["sweep", "--param", "T"], "[sweep]\nt_values = 0.5,2,\n", "0.5,2,"),
        ],
        ids=["compare-pid", "values", "config-pid", "config-t_values"],
    )
    def test_empty_item_in_a_comma_list_refused(self, tmp_path, capsys, argv, config, text):
        out = tmp_path / "out"
        if config is not None:
            (tmp_path / "lists.cfg").write_text(config)
            argv = [*argv, "--config", str(tmp_path / "lists.cfg")]
        assert main([*argv, "--out", str(out)]) == EXIT_BAD_ARGS
        assert capsys.readouterr() == ("", f"error: the comma list {text!r} has an empty item\n")
        assert not out.exists()

    def test_values_apart_in_the_sixth_digit_accepted(self, tmp_path):
        assert main(["sweep", "--param", "T", "--values", "1,1.00001", "--out", str(tmp_path)]) == EXIT_OK
        header = (tmp_path / "sweep_T.csv").read_text().splitlines()[0]
        assert header == "t,y_adrc_T=1,y_equiv_T=1,y_adrc_T=1.00001,y_equiv_T=1.00001"


# extreme runs -> how many unstable-case notes they print; the real parts of
# numpy's eigvals of the loops' A made them 14, 12 and 6
NOTED_RUNS = {
    ("figure", "1", "--ts", "1e25"): 0,
    ("figure", "5", "--plant-d", "1e24"): 0,
    ("figure", "6", "--ts", "1e-25"): 6,
}


@pytest.mark.parametrize("argv", NOTED_RUNS, ids=["-".join(argv[1:]) for argv in NOTED_RUNS])
def test_unstable_notes_match_a_300_digit_eigenvalue_solve(tmp_path, capsys, argv):
    from adrcpid.analysis import closed_loop, sweep_plants

    assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
    notes = [line for line in capsys.readouterr().out.splitlines() if line.startswith("note: unstable ")]
    _, parameter, order = cli.FIGURES[int(argv[1])]
    cfg = cli._resolve_config(cli.build_parser().parse_args(argv))
    want = [
        f"note: unstable case {parameter}={getattr(plant, parameter):g} controller={name}"
        for plant in sweep_plants(cfg.plant(order), parameter, cli.DEFAULT_SWEEPS[(order, parameter)])
        for name, ctrl in cli._controllers(cfg, order).items()
        if not mp_stable(closed_loop(plant, ctrl).A, dps=300)
    ]
    assert notes == want and len(notes) == NOTED_RUNS[argv]


def _command_runs(tmp_path) -> list[list[str]]:
    """tune of both orders, every figure and a sweep, as a user runs them."""
    runs = [["tune", "--order", "1", "--ts", "1", "--g", "10"], ["tune", "--order", "2", "--ts", "1", "--g", "10"]]
    runs += [["figure", str(fig), "--out", str(tmp_path / str(fig))] for fig in cli.FIGURES]
    return runs + [["sweep", "--param", "T", "--order", "2", "--out", str(tmp_path / "sweep")]]


def test_commands_find_no_roots_and_no_eigenvalues(tmp_path, monkeypatch):
    import numpy.polynomial.polynomial as npoly

    def refuse(*args, **kwargs):
        raise AssertionError("a command found roots or eigenvalues")

    monkeypatch.setattr(npoly, "polyroots", refuse)
    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    runs = _command_runs(tmp_path) + [["verify"]]
    with redirect_stdout(io.StringIO()):
        assert [main(argv) for argv in runs] == [EXIT_OK] * len(runs)


def test_commands_other_than_verify_split_no_realization(tmp_path, monkeypatch):
    """The channels come from the closed forms each controller carries; only
    verify splits a state-space model, to check those forms."""
    from adrcpid import rows

    def refuse(A):
        raise AssertionError("a command split a state-space model")

    monkeypatch.setattr(rows, "_resolvent", refuse)
    runs = _command_runs(tmp_path)
    with redirect_stdout(io.StringIO()):
        assert [main(argv) for argv in runs] == [EXIT_OK] * len(runs)


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

    @pytest.mark.parametrize(
        "argv",
        [
            # the trace reads -2.6e42, -1.6e67, ... and is NaN from sample 6 on
            ["--ts", "1", "--g", "10", "--b0", "1e-38"],
            # the loop's exponential over one sample time overflows
            ["--ts=1e100", "--g=1", "--b0=1e-150"],
        ],
    )
    def test_a_trace_that_is_not_finite_is_not_settled(self, capsys, argv):
        assert main(["verify", *argv]) == EXIT_VERIFY_FAILED
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2].startswith("settling_time_nominal_order1: residual=inf tol=") and lines[-2].endswith(" FAIL")

    @pytest.mark.parametrize(
        "flag, value",
        [("--plant-k", "5"), ("--plant-t", "3"), ("--plant-d", "0.5"), ("--out", "zz"), ("--compare-pid", "1,2,0.5,0.01,0.4")],
    )
    def test_refuses_the_figure_flags(self, tmp_path, monkeypatch, capsys, flag, value):
        # verify runs no plant of its own and writes nothing, so it takes no plant, --compare-pid or --out
        monkeypatch.chdir(tmp_path)
        assert main(["verify", flag, value]) == EXIT_BAD_ARGS
        captured = capsys.readouterr()
        assert captured.out == "" and f"error: unrecognized arguments: {flag} {value}\n" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_runs_at_the_config_defaults(self):
        from adrcpid.verify import run_verification

        defaults = {name: p.default for name, p in inspect.signature(run_verification).parameters.items()}
        cfg = ExperimentConfig()
        assert {key: defaults[key] for key in ("ts", "g", "b0")} == {"ts": cfg.ts, "g": cfg.g, "b0": cfg.b0}

    def test_config_file_is_checked_whole_and_its_tuning_run(self, tmp_path, capsys):
        cfg_file = tmp_path / "verify.cfg"
        assert main(["verify", "--ts", "2", "--g", "5"]) == EXIT_OK
        flags = capsys.readouterr().out
        # the config's tuning, under the tuning flags
        cfg_file.write_text("[tuning]\nts = 2\ng = 4\n")
        assert main(["verify", "--config", str(cfg_file), "--g", "5"]) == EXIT_OK
        assert capsys.readouterr().out == flags
        # the whole file is checked, as a figure checks it: its plant too, and its out dir
        refusals = {"[plant]\nd = -1\n": "error: plant D must be finite and > 0, got -1.0\n", "[output]\ndir = 50%%\n": "--out"}
        for text, refusal in refusals.items():
            cfg_file.write_text(text)
            assert main(["verify", "--config", str(cfg_file)]) == EXIT_BAD_ARGS
            captured = capsys.readouterr()
            assert captured.out == "" and refusal in captured.err

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
    "figure7": ["figure", "7"],
    "sweepK": ["sweep", "--param", "K"],
    "sweepK2": ["sweep", "--param", "K", "--order", "2"],
    "verify": ["verify"],
}
# the commands that run a second-order plant
SECOND_ORDER_COMMANDS = ("figure7", "sweepK2")
# (flag, rejected value, what the message names); every command takes the tuning flags
# but --order, which tune and sweep refuse as an invalid choice and figure and verify
# as an unrecognized argument
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
    ("--plant-t", "1e-320", "plant T=1e-320 is out of range"),
]
# finite, but the coefficients of a second-order plant overflow: T**2 and 2 D T, which a
# first-order plant does not form
SECOND_ORDER_REJECTS = [
    ("--plant-t", "1e160", "plant T=1e+160 is out of range"),
    ("--plant-d", "1e308", "plant D=1e+308 is out of range"),
]
# the commands that run a plant and write files, and so take the plant, --compare-pid and --out flags
PLANT_COMMANDS = ("figure", "sweep")
REJECTED = [
    (command, *case)
    for command in COMMANDS
    for case in TUNING_REJECTS
    + (OTHER_REJECTS if COMMANDS[command][0] in PLANT_COMMANDS else [])
    + (SECOND_ORDER_REJECTS if command in SECOND_ORDER_COMMANDS else [])
]


class TestCommandsAgree:
    @pytest.mark.parametrize("command, flag, value, name", REJECTED)
    def test_bad_input_rejected_by_every_command(self, tmp_path, capsys, command, flag, value, name):
        out = tmp_path / "out"
        args = [*COMMANDS[command], f"{flag}={value}"] + (["--out", str(out)] if COMMANDS[command][0] in PLANT_COMMANDS else [])
        assert main(args) == EXIT_BAD_ARGS
        err = capsys.readouterr().err
        assert "error:" in err and name in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["figure", "4", "--order", "2"], ["verify", "--order", "1"]])
    def test_order_is_a_flag_of_tune_and_sweep_only(self, tmp_path, capsys, argv):
        # a figure has its own order, and verify runs both
        out = ["--out", str(tmp_path / "out")] if argv[0] == "figure" else []
        assert main([*argv, *out]) == EXIT_BAD_ARGS
        assert "unrecognized arguments: --order" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_negative_b0_accepted_by_every_command(self, tmp_path, command):
        out = ["--out", str(tmp_path)] if COMMANDS[command][0] in PLANT_COMMANDS else []
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


# every flag that takes a number or a list of numbers, with a negative value in exponent
# notation, on a command line that has every other required argument
NEGATIVE_VALUES = [
    *((["tune", "--order", "1", "--ts", "1", "--g", "1"], flag, "-1e-5") for flag in ("--ts", "--g", "--b0")),
    *((["verify"], flag, "-1e-5") for flag in ("--ts", "--g", "--b0")),
    *(
        (argv, flag, "-1e-5")
        for argv in (["figure", "3"], ["sweep", "--param", "K"])
        for flag in ("--ts", "--g", "--b0", "--plant-k", "--plant-t", "--plant-d")
    ),
    *((argv, "--compare-pid", "-1e-5,1,0,0.1,1") for argv in (["figure", "3"], ["sweep", "--param", "K"])),
    (["sweep", "--param", "K"], "--values", "-1e-5,2"),
    (["verify"], "--perturb-b0", "-1e-3"),
]


@pytest.mark.parametrize("argv, flag, value", NEGATIVE_VALUES, ids=lambda x: x if isinstance(x, str) else x[0])
def test_a_spaced_negative_value_parses_as_after_equals(argv, flag, value):
    parser = cli.build_parser()
    assert parser.parse_args([*argv, flag, value]) == parser.parse_args([*argv, f"{flag}={value}"])


def test_a_spaced_negative_value_runs_as_after_equals(capsys):
    assert main(["verify", "--perturb-b0", "-1e-3"]) == main(["verify", "--perturb-b0=-1e-3"]) == EXIT_VERIFY_FAILED
    spaced, equals = capsys.readouterr().out.split("checks passed\n")[:2]
    assert spaced == equals


def test_an_option_after_a_flag_is_still_taken_for_an_option(capsys):
    assert main(["verify", "--b0", "--ts", "1"]) == EXIT_BAD_ARGS
    assert capsys.readouterr().err.endswith("error: argument --b0: expected one argument\n")


HEAVY_MODULES = ("scipy", "urllib.request", "numpy.polynomial")
# the modules that `figure`, `sweep` and `verify` run and `tune` does not
CONTROLLER_MODULES = ("adrcpid.tf", "adrcpid.adrc", "adrcpid.pid_equiv", "adrcpid.analysis")
# the modules that only some commands run; the config module, which holds the package's one
# dataclass, and dataclasses and inspect with it, are loaded by the figures and sweep, and by
# verify only to read a --config file
CONFIG_MODULES = ("dataclasses", "inspect", "adrcpid.config")
LAYER_MODULES = (
    "numpy",
    "adrcpid.lti",
    "adrcpid.rows",
    *CONFIG_MODULES,
    *CONTROLLER_MODULES,
    "adrcpid.svg",
    "adrcpid.verify",
    "configparser",
)
# what each command loads of them: the frequency figures run on tf's plain floats alone and
# verify on tf's and rows', only the step figures and sweep, which make step tables, load lti
# and numpy, and only reading a --config file loads configparser
FIGURE_MODULES = (*CONFIG_MODULES, *CONTROLLER_MODULES, "adrcpid.svg")
STEP_MODULES = ("numpy", "adrcpid.lti", "adrcpid.rows", *FIGURE_MODULES)
# a config file that the loading test writes before it runs the command
CONFIG_FILE = "run.cfg"
LOADED_MODULES = {
    ("tune", "--order", "2", "--ts", "1", "--g", "10"): (),
    **{("figure", str(fig)): FIGURE_MODULES for fig in (3, 4, 7, 8)},
    **{("figure", str(fig)): STEP_MODULES for fig in (1, 2, 5, 6)},
    ("sweep", "--param", "K"): STEP_MODULES,
    ("verify",): ("adrcpid.rows", *CONTROLLER_MODULES, "adrcpid.verify"),
    ("verify", "--config", CONFIG_FILE): (
        "adrcpid.rows", *CONFIG_MODULES, *CONTROLLER_MODULES, "adrcpid.verify", "configparser"
    ),
}


def test_cli_import_leaves_out_scipy_and_urllib():
    """A command's start-up cost is mostly imports; keep the heavy ones out."""
    modules = HEAVY_MODULES + LAYER_MODULES
    done = fresh_python("-c", f"import sys, adrcpid.cli; print(*(m for m in {modules!r} if m in sys.modules))")
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout.split() == []


@pytest.mark.parametrize(
    "argv", LOADED_MODULES, ids=lambda argv: "".join(argv[:2]) if argv[0] == "figure" or CONFIG_FILE in argv else argv[0]
)
def test_each_command_loads_only_the_layers_it_runs(tmp_path, argv):
    loaded = LOADED_MODULES[argv]
    (tmp_path / CONFIG_FILE).write_text("[tuning]\nts = 2\n")
    argv = [str(tmp_path / arg) if arg == CONFIG_FILE else arg for arg in argv]
    argv += ["--out", str(tmp_path)] if argv[0] in PLANT_COMMANDS else []
    modules = HEAVY_MODULES + LAYER_MODULES
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
            ["figure", "1", "--ts", "1", "--g", "10", "--b0", "1e-200"],
            EXIT_BAD_ARGS,
            "error: the step response at this tuning is not representable: "
            "the model's exponential over one sample time overflows\n",
        ),
        # the controller's closed-form channels overflow, its realization does not; no warning, one refusal
        (
            ["figure", "7", "--ts", "1e-100"],
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
        # neither order accepts this tuning: order 1, refused first, for its PI+F realization
        # (-ki/Tf overflows), before any verification work
        (
            ["verify", "--ts", "1e-150", "--g", "1", "--b0", "1"],
            EXIT_BAD_ARGS,
            "error: T_s=1e-150 is out of range: an entry of the PI+F realization "
            "of T_s=1e-150, g=1.0, b0=1.0 is not finite\n",
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
            "error: plant T=1e-320 is out of range: the transfer function of K=1.0, T=1e-320 "
            "has a coefficient that is not finite or a denominator coefficient that is zero\n",
        ),
        # a figure's tuning is checked at the figure's order, as tune --order 2 checks it
        (
            ["figure", "5", "--ts", "1e-100", "--g", "1e8"],
            EXIT_BAD_ARGS,
            "error: T_s=1e-100 is out of range: the gains or equivalent PI(D) parameters "
            "of T_s=1e-100, g=100000000.0, b0=1.0 are not finite and nonzero\n",
        ),
        (
            ["sweep", "--param", "T", "--values", "1e200", "--order", "2"],
            EXIT_BAD_ARGS,
            "error: plant T=1e+200 is out of range: the transfer function of K=1.0, T=1e+200, D=1.0 "
            "has a coefficient that is not finite or a denominator coefficient that is zero\n",
        ),
        # a second-order plant kept whole, whose gang has nothing to divide out and stays in range
        (["figure", "8", "--plant-d", "1e88"], EXIT_OK, ""),
        # a second-order plant whose gang members, by Horner in s, have a numerator and a
        # denominator near the float maximum and a quotient past it: evaluated in 1/s, in range
        (["figure", "8", "--plant-d", "1e296"], EXIT_OK, ""),
        # second-order plants kept whole, whose gang or loop leaves the float range
        (
            ["figure", "8", "--plant-t", "1e-152"],
            EXIT_BAD_ARGS,
            "error: the gang of seven at this plant is not representable: its closed-loop polynomial overflows\n",
        ),
        (
            ["figure", "5", "--plant-t", "1e-153"],
            EXIT_BAD_ARGS,
            "error: the step response at this tuning is not representable: "
            "the model's entries times the sample time overflow or are not finite\n",
        ),
        # loops that step_response simulates, but whose chi in the sweep's time unit leaves the
        # float range, so that no note can say whether they are stable
        (
            ["figure", "5", "--g", "1e100"],
            EXIT_BAD_ARGS,
            "error: the step response at this tuning is not representable: its closed-loop polynomial "
            "overflows in the sweep's time unit, so its stability cannot be judged\n",
        ),
        (
            ["figure", "1", "--plant-t", "1e-305"],
            EXIT_BAD_ARGS,
            "error: the step response at this tuning is not representable: its closed-loop polynomial "
            "overflows in the sweep's time unit, so its stability cannot be judged\n",
        ),
        (["verify", "--perturb-b0", "0"], EXIT_BAD_ARGS, "error: perturb_b0 must be finite and nonzero, got 0.0\n"),
        (
            ["verify", "--perturb-b0", "1e-320"],
            EXIT_BAD_ARGS,
            "error: perturb_b0=1e-320 is out of range: the gains or equivalent "
            "PI(D) parameters of T_s=1.0, g=10.0, b0=1e-320 are not finite and nonzero\n",
        ),
        # the perturbed design's gains are in range, but -ki/Tf of its PI+F realization is not
        (
            ["verify", "--perturb-b0", "1e-305"],
            EXIT_BAD_ARGS,
            "error: perturb_b0=1e-305 is out of range: an entry of the PI+F "
            "realization of T_s=1.0, g=10.0, b0=1e-305 is not finite\n",
        ),
        # b0 * perturb_b0 underflows to 0
        (
            ["verify", "--b0", "0.5", "--perturb-b0", "5e-324"],
            EXIT_BAD_ARGS,
            "error: perturb_b0=5e-324 is out of range: b0 must be finite and nonzero, got 0.0\n",
        ),
        # gains and parameters in range, but a realization entry past it: -ki/Tf of the PI+F
        # realization, the last entry of ADRC's reference column, kp/Tf of a --compare-pid PI+F;
        # refused, naming the input
        (
            ["figure", "3", "--ts", "1e-110"],
            EXIT_BAD_ARGS,
            "error: T_s=1e-110 is out of range: an entry of the PI+F realization "
            "of T_s=1e-110, g=10.0, b0=1.0 is not finite\n",
        ),
        (
            ["tune", "--order", "1", "--ts", "1e-150", "--g", "1", "--b0", "1e-5"],
            EXIT_BAD_ARGS,
            "error: T_s=1e-150 is out of range: an entry of the PI+F realization "
            "of T_s=1e-150, g=1.0, b0=1e-05 is not finite\n",
        ),
        (
            ["figure", "5", "--ts", "1e-102", "--g", "1e-107"],
            EXIT_BAD_ARGS,
            "error: T_s=1e-102 is out of range: an entry of the ADRC realization "
            "of T_s=1e-102, g=1e-107, b0=1.0 is not finite\n",
        ),
        (
            ["figure", "7", "--compare-pid", "1e300,1,0,1e-10,1"],
            EXIT_BAD_ARGS,
            "error: kp=1e+300, ki=1.0, Tf=1e-10, b=1.0 are out of range: "
            "an entry of their PI+F realization is not finite\n",
        ),
    ],
    ids=["tune", "figure-exponential-overflow", "figure-controller-overflow", "verify-controller-overflow",
         "verify-order2-out-of-range", "figure-plant-t-overflow", "figure-plant-d-overflow",
         "figure-plant-t-underflow", "figure-design-at-its-order", "sweep-plant-t-overflow",
         "gang-cancellation-overflow",
         "gang-magnitude-overflow", "gang-polynomial-overflow", "closed-loop-overflow",
         "sweep-polynomial-overflow-at-g", "sweep-polynomial-overflow-at-plant-t", "verify-perturb-b0-zero",
         "verify-perturb-b0-out-of-range", "verify-perturb-b0-realization-out-of-range", "verify-perturb-b0-underflow",
         "figure-pif-realization-overflow", "tune-pif-realization-overflow", "figure-adrc-realization-overflow",
         "figure-compare-pid-realization-overflow"],
)
def test_command_runs_clean_with_warnings_as_errors(tmp_path, argv, code, err):
    if argv[0] in PLANT_COMMANDS:
        argv = [*argv, "--out", str(tmp_path / "out")]
    done = fresh_python("-m", "adrcpid.cli", *argv)
    assert (done.returncode, done.stderr) == (code, err)
    if code != EXIT_OK:
        assert done.stdout == "" and not (tmp_path / "out").exists()
    elif argv[0] == "figure":
        written = sorted(path.name for path in (tmp_path / "out").iterdir())
        assert written == ["config_used.cfg", f"fig{argv[1]}.csv", f"fig{argv[1]}.svg"]


# every 60th decade across the float range, K of both signs
PLANT_DECADES = [f"1e{e}" for e in range(-300, 301, 60)]
PLANT_GRID = {
    "--plant-k": PLANT_DECADES + [f"-{v}" for v in PLANT_DECADES],
    "--plant-t": PLANT_DECADES,
    "--plant-d": PLANT_DECADES,
}


def _run_clean(argv, out_dir, codes=(EXIT_OK, EXIT_BAD_ARGS)):
    """Run main in-process: no exception, no warning and an exit code in codes;
    a refusal (exit 2) is one error line, prints nothing to stdout and writes
    nothing.  Return the refusal line, or None."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert [str(w.message) for w in caught] == [], argv
    assert code in codes, argv
    if code != EXIT_BAD_ARGS:
        return None
    lines = stderr.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
    assert stdout.getvalue() == "" and not out_dir.exists(), argv
    return lines[0]


# a first-order plant forms no T**2 and no 2 D T, so these pass at order 1 and are refused at order 2
FIRST_ORDER_PLANTS = ["--plant-t=1e155", "--plant-t=1e300", "--plant-t=1e-155", "--plant-t=1e-300", "--plant-d=1e308"]


@pytest.mark.parametrize(
    "argv",
    [["figure", fig] for fig in ("1", "2", "3", "4")] + [["sweep", "--param", "T", "--values", "1e200,1e-200"]],
    ids=["figure1", "figure2", "figure3", "figure4", "sweepT"],
)
def test_first_order_commands_take_the_plants_only_order_2_refuses(tmp_path, argv):
    for flag in FIRST_ORDER_PLANTS:
        out_dir = tmp_path / flag
        assert _run_clean([*argv, flag, "--out", str(out_dir)], out_dir, codes=(EXIT_OK,)) is None


@pytest.mark.parametrize("fig", ["2", "6"])
def test_step_figure_runs_clean_at_a_subnormal_plant_gain(tmp_path, fig):
    """The loop's balancing keeps its scales finite where the plant gain, and with it
    a column of the loop, is subnormal: exit 0 and no warning."""
    for value in ("1e-310", "-1e-310", "1e-320", "-1e-320"):
        out_dir = tmp_path / value
        argv = ["figure", fig, f"--plant-k={value}", "--out", str(out_dir)]
        assert _run_clean(argv, out_dir, codes=(EXIT_OK,)) is None


@pytest.mark.parametrize("flag", sorted(PLANT_GRID))
@pytest.mark.parametrize("fig", ["4", "8"])
def test_gang_figure_exits_0_or_2_across_the_plant_range(tmp_path, fig, flag):
    """Whole-range gate: no traceback and no warning; a refusal is one error line and writes nothing."""
    for value in PLANT_GRID[flag]:
        out_dir = tmp_path / value
        _run_clean(["figure", fig, f"{flag}={value}", "--out", str(out_dir)], out_dir)


# every 100th decade of T_s and every 150th of |b0| across the float range, b0 of both signs
TS_DECADES = [f"1e{e}" for e in range(-300, 301, 100)]
B0_DECADES = [f"{sign}1e{e}" for sign in ("", "-") for e in range(-300, 301, 150)]
TUNING_COMMANDS = {
    "tune1": ["tune", "--order", "1"],
    "tune2": ["tune", "--order", "2"],
    "verify": ["verify"],
    "figure3": ["figure", "3"],
    "figure7": ["figure", "7"],
    # the step path: a trace and a stability note per controller
    "sweep1": ["sweep", "--param", "K", "--values", "1", "--order", "1"],
    "sweep2": ["sweep", "--param", "K", "--values", "1", "--order", "2"],
}
# refusals raised past the design check, which name no input; how many runs of
# each command on the grid end in one is pinned, so that none comes or goes unseen
UNNAMED_REFUSALS = (
    "error: the controller transfer function at this tuning is not representable: ",
    "error: the step response at this tuning is not representable: ",
    "error: the gang of seven at this plant is not representable: ",
)
UNNAMED_REFUSAL_COUNTS = {"tune1": 0, "tune2": 0, "verify": 12, "figure3": 0, "figure7": 8, "sweep1": 13, "sweep2": 12}


@pytest.mark.parametrize("command", TUNING_COMMANDS)
def test_commands_exit_0_1_or_2_across_the_tuning_range(tmp_path, command):
    """Whole-range gate: no exception and no warning; a refusal is one error line
    that names T_s, g or b0 (or is a pinned unnamed refusal) and writes nothing."""
    codes = (EXIT_OK, EXIT_VERIFY_FAILED, EXIT_BAD_ARGS) if command == "verify" else (EXIT_OK, EXIT_BAD_ARGS)
    unnamed = 0
    for g in ("1", "1e3"):
        for ts in TS_DECADES:
            for b0 in B0_DECADES:
                argv = [*TUNING_COMMANDS[command], f"--ts={ts}", f"--g={g}", f"--b0={b0}"]
                out_dir = tmp_path / f"{ts}_{g}_{b0}"
                if argv[0] in ("figure", "sweep"):
                    argv += ["--out", str(out_dir)]
                refusal = _run_clean(argv, out_dir, codes)
                if refusal is None:
                    continue
                if refusal.startswith(UNNAMED_REFUSALS):
                    unnamed += 1
                else:
                    assert re.match(r"error: (T_s|g|b0)=\S+ is out of range: ", refusal), (argv, refusal)
    assert unnamed == UNNAMED_REFUSAL_COUNTS[command]


def _per_value_csv(path, names, columns):
    """The writer _write_csv replaced: one _fmt call per value."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\n")
        for row in zip(*columns):
            fh.write(config._fmt_floats(row) + "\n")


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
        fmt = config._fmt
        monkeypatch.setattr(config, "_fmt", lambda v: calls.append(v) or fmt(v))
        write_figure(4, ExperimentConfig(out_dir=str(tmp_path)))
        assert len(calls) <= sum(len(keys) for keys in config._CONFIG_FIELDS.values())
