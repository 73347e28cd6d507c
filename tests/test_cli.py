"""Command-line interface: output formats, flag validation, exit codes."""

import csv
import io
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mimomrc import cli, correlation, eigdist, performance
from mimomrc.errors import NumericalError


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_as_user(argv):
    """The CLI in a fresh interpreter, as a user runs it: numpy's warnings
    and tracebacks would reach its stderr."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "mimomrc.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def assert_refused(code, out, err):
    """Exit 2, nothing on stdout, and one ``error:`` line on stderr."""
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


class TestCdfCommand:
    def test_siso_point(self, capsys):
        code, out, _ = run_cli(
            ["cdf", "--nr", "1", "--nt", "1", "--rho-rx", "0", "--rho-tx", "0",
             "--sweep", "0:2:5"], capsys,
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["x", "exact", "asymptotic"]
        assert len(rows) == 5
        x1 = rows[2]
        assert x1[0] == 1.0
        assert x1[1] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-10)

    def test_asymptotic_column_is_power_law(self, capsys):
        code, out, _ = run_cli(
            ["cdf", "--nr", "2", "--nt", "2", "--rho-rx", "0.5", "--rho-tx", "0.5",
             "--sweep", "0:1:6"], capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        model = eigdist.build_model(
            correlation.make_pair(
                correlation.exp_correlation(0.5, 2), correlation.exp_correlation(0.5, 2)
            )
        )
        for row in rows:
            assert row[2] == pytest.approx(model.alpha * row[0] ** 4, rel=1e-12, abs=1e-300)

    def test_header_always_emitted(self, capsys):
        code, out, _ = run_cli(
            ["cdf", "--nr", "1", "--nt", "2", "--sweep", "0:1:2"], capsys
        )
        assert code == 0
        assert out.splitlines()[0] == "x,exact,asymptotic"


class TestSerCommand:
    def test_matches_library(self, capsys):
        code, out, _ = run_cli(
            ["ser", "--nr", "2", "--nt", "2", "--rho-rx", "0.5", "--rho-tx", "0.5",
             "--mod", "8psk", "--sweep", "10:20:2"], capsys,
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["snr_db", "exact", "asymptote"]
        model = eigdist.build_model(
            correlation.make_pair(
                correlation.exp_correlation(0.5, 2), correlation.exp_correlation(0.5, 2)
            )
        )
        mod = performance.modulation_preset("8psk")
        hs = performance.high_snr_ser(model, mod)
        for row in rows:
            assert row[1] == performance.exact_ser(model, mod, row[0])
            assert row[2] == pytest.approx(performance.ser_asymptote_eval(hs, row[0]), rel=1e-12)

    def test_mc_columns(self, capsys):
        code, out, _ = run_cli(
            ["ser", "--nr", "1", "--nt", "1", "--mod", "bpsk", "--sweep", "0:10:2",
             "--with-mc", "--trials", "50000", "--seed", "5"], capsys,
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["snr_db", "exact", "asymptote", "mc", "mc_stderr"]
        for row in rows:
            assert abs(row[3] - row[1]) <= 4.0 * row[4]

    def test_custom_constants(self, capsys):
        code, out, _ = run_cli(
            ["ser", "--nr", "1", "--nt", "1", "--a", "2", "--b", "0.146",
             "--sweep", "10:12:2"], capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        model = eigdist.build_model(correlation.make_pair(np.eye(1), np.eye(1)))
        mod = performance.Modulation("custom", 2.0, 0.146)
        assert rows[0][1] == pytest.approx(performance.exact_ser(model, mod, 10.0), rel=1e-9)

    def test_a_without_b_rejected(self, capsys):
        assert_refused(*run_cli(["ser", "--nr", "1", "--nt", "1", "--a", "2",
                                 "--sweep", "0:1:2"], capsys))

    def test_with_mc_refuses_trials_before_any_cdf_evaluation(self, capsys, monkeypatch):
        # the config, --trials included, is built before the exact column
        calls = []
        for owner in (eigdist, performance):  # exact_ser calls performance's binding
            def counting(*args, real=owner.cdf):
                calls.append(args)
                return real(*args)
            monkeypatch.setattr(owner, "cdf", counting)
        argv = ["ser", "--nr", "2", "--nt", "2", "--sweep", "0:10:3", "--with-mc"]
        assert_refused(*run_cli([*argv, "--trials", "0"], capsys))
        assert calls == []
        assert run_cli([*argv, "--trials", "10"], capsys)[0] == 0
        assert calls


class TestOutageCommand:
    def test_columns_and_monotonicity(self, capsys):
        code, out, _ = run_cli(
            ["outage", "--nr", "3", "--nt", "3", "--rho-rx", "0.5", "--rho-tx", "0.5",
             "--snr-db", "0", "--sweep", "-5:12:18"], capsys,
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["gamma_th_db", "exact", "asymptotic"]
        exact = [row[1] for row in rows]
        assert all(0.0 <= v <= 1.0 for v in exact)
        assert all(b >= a for a, b in zip(exact, exact[1:]))
        model = eigdist.build_model(
            correlation.make_pair(
                correlation.exp_correlation(0.5, 3), correlation.exp_correlation(0.5, 3)
            )
        )
        for row in rows:
            want = model.alpha * (10 ** (row[0] / 10.0)) ** 9
            assert row[2] == pytest.approx(want, rel=1e-10)

    def test_mc_columns(self, capsys):
        code, out, _ = run_cli(
            ["outage", "--nr", "2", "--nt", "2", "--snr-db", "0",
             "--sweep", "0:10:3", "--with-mc", "--trials", "30000", "--seed", "11"],
            capsys,
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["gamma_th_db", "exact", "asymptotic", "mc", "mc_stderr"]
        for row in rows:
            assert abs(row[3] - row[1]) <= 4.0 * row[4] + 1e-3


class TestSummaryCommand:
    def test_siso_bpsk(self, capsys):
        code, out, _ = run_cli(
            ["summary", "--nr", "1", "--nt", "1", "--mod", "bpsk"], capsys
        )
        assert code == 0
        entries = dict(line.split("=") for line in out.strip().splitlines())
        assert entries["n"] == "1"
        assert entries["m"] == "1"
        assert entries["diversity_order"] == "1"
        assert float(entries["array_gain"]) == pytest.approx(4.0, rel=1e-12)
        assert float(entries["correlation_penalty"]) == 1.0

    def test_diversity_is_antenna_product(self, capsys):
        for nr, nt in [(2, 3), (3, 2), (1, 4)]:
            code, out, _ = run_cli(
                ["summary", "--nr", str(nr), "--nt", str(nt), "--rho-rx", "0.5",
                 "--rho-tx", "0.9", "--mod", "8psk"], capsys,
            )
            assert code == 0
            entries = dict(line.split("=") for line in out.strip().splitlines())
            assert int(entries["diversity_order"]) == nr * nt

    def test_large_model_writes_nothing_to_stderr(self):
        result = run_as_user(["summary", "--nr", "5", "--nt", "5",
                              "--rho-rx", "0.5", "--rho-tx", "0.5"])
        assert result.returncode == 0
        assert result.stderr == ""
        assert "diversity_order=25" in result.stdout


class TestFormats:
    def test_17_digit_csv_lf_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "curve.csv"
        code, _, _ = run_cli(
            ["cdf", "--nr", "1", "--nt", "1", "--sweep", "0:1:3",
             "--out", str(out_path)], capsys,
        )
        assert code == 0
        raw = out_path.read_bytes()
        assert b"\r" not in raw
        text = raw.decode()
        value = text.splitlines()[2].split(",")[1]
        model = eigdist.build_model(correlation.make_pair(np.eye(1), np.eye(1)))
        assert value == f"{eigdist.exact_cdf_stable(model, 0.5):.17g}"
        assert float(value) == pytest.approx(1.0 - math.exp(-0.5), rel=1e-14)

    def test_deterministic_output(self, tmp_path, capsys):
        args = ["ser", "--nr", "2", "--nt", "2", "--mod", "qpsk", "--sweep", "0:20:3",
                "--with-mc", "--trials", "20000", "--seed", "9"]
        first = run_cli(args, capsys)[1]
        second = run_cli(args, capsys)[1]
        assert first == second


class TestCorrelationFiles:
    def test_matrix_from_file(self, tmp_path, capsys):
        path = tmp_path / "rx.csv"
        correlation.save_matrix_csv(path, correlation.exp_correlation(0.5, 2))
        code, out, _ = run_cli(
            ["cdf", "--nr", "2", "--nt", "2", "--corr-rx-file", str(path),
             "--rho-tx", "0.5", "--sweep", "0:1:3"], capsys,
        )
        assert code == 0
        _, rows_file = parse_csv(out)
        code, out, _ = run_cli(
            ["cdf", "--nr", "2", "--nt", "2", "--rho-rx", "0.5",
             "--rho-tx", "0.5", "--sweep", "0:1:3"], capsys,
        )
        _, rows_rho = parse_csv(out)
        assert rows_file == rows_rho

    def test_file_excludes_rho(self, tmp_path, capsys):
        path = tmp_path / "rx.csv"
        correlation.save_matrix_csv(path, np.eye(2))
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["cdf", "--nr", "2", "--nt", "2", "--corr-rx-file", str(path),
                      "--rho-rx", "0.5", "--sweep", "0:1:2"])
        assert excinfo.value.code == 2

    def test_wrong_size_matrix(self, tmp_path, capsys):
        path = tmp_path / "rx.csv"
        correlation.save_matrix_csv(path, np.eye(3))
        assert_refused(*run_cli(["cdf", "--nr", "2", "--nt", "2", "--corr-rx-file", str(path),
                                 "--sweep", "0:1:2"], capsys))


class TestExitCodes:
    def test_bad_sweep(self, capsys):
        # start above stop, and more points than can be allocated: 10^15
        # doubles exceed the 64-bit user address space, so the allocation
        # fails before any memory is touched
        for sweep, why in [("5:1:10", "start must be below stop"),
                           ("0:1:1000000000000000", "too large to allocate")]:
            with pytest.raises(SystemExit) as excinfo:
                cli.main(["cdf", "--nr", "1", "--nt", "1", "--sweep", sweep])
            assert excinfo.value.code == 2
            assert why in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["cdf"],
        ["ser", "--mod", "bpsk"],
        ["outage", "--snr-db", "0"],
    ])
    @pytest.mark.parametrize("sweep", ["0:inf:3", "-inf:0:3", "0:nan:3", "nan:1:3"])
    def test_non_finite_sweep(self, command, sweep, capsys):
        # refused while parsing, before numpy can warn about the grid
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SystemExit) as excinfo:
                cli.main([*command, "--nr", "1", "--nt", "1", "--sweep", sweep])
        assert excinfo.value.code == 2
        assert "sweep start and stop must be finite" in capsys.readouterr().err

    def test_single_point_sweep(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["cdf", "--nr", "1", "--nt", "1", "--sweep", "0:1:1"])
        assert excinfo.value.code == 2

    def test_bad_rho(self, capsys):
        assert_refused(*run_cli(["cdf", "--nr", "1", "--nt", "1", "--rho-rx", "1.5",
                                 "--sweep", "0:1:2"], capsys))

    GEO_2X2 = ["--nr", "2", "--nt", "2"]

    # Each value the config or a point-wise function refuses, with the name
    # its message gives: the config field of the flag, or the input.
    @pytest.mark.parametrize("argv, name", [
        (["cdf", "--nr", "0", "--nt", "2", "--sweep", "0:1:3"], "n_rx"),
        (["cdf", "--nr", "2", "--nt", "-1", "--sweep", "0:1:3"], "n_tx"),
        (["cdf", *GEO_2X2, "--rho-rx", "1.5", "--sweep", "0:1:3"], "rho_rx"),
        (["cdf", *GEO_2X2, "--rho-tx", "nan", "--sweep", "0:1:3"], "rho_tx"),
        (["cdf", *GEO_2X2, "--corr-rx-file", "{eye3}", "--sweep", "0:1:3"], "rx_corr"),
        (["cdf", *GEO_2X2, "--corr-tx-file", "{ragged}", "--sweep", "0:1:3"], "matrix in"),
        (["ser", *GEO_2X2, "--a", "2", "--sweep", "0:1:3"], "--a and --b"),
        (["cdf", *GEO_2X2, "--sweep", "-1:1:3"], "evaluation point"),
        (["ser", *GEO_2X2, "--sweep", "0:1:3", "--with-mc", "--trials", "0"], "trials"),
        (["outage", *GEO_2X2, "--snr-db", "0", "--sweep", "0:1:3", "--with-mc",
          "--seed", "-1"], "seed"),
        # 10^15 trials: the draw buffer exceeds the address space at once
        (["outage", *GEO_2X2, "--snr-db", "0", "--sweep", "0:1:3", "--with-mc",
          "--trials", "1000000000000000"], "out of memory"),
    ], ids=["nr", "nt", "rho-rx", "rho-tx", "file-size", "file-ragged", "a-alone",
            "cdf-negative", "trials", "seed", "trials-too-large"])
    def test_refused_value_prints_one_error_line(self, tmp_path, argv, name):
        correlation.save_matrix_csv(tmp_path / "eye3.csv", np.eye(3))
        (tmp_path / "ragged.csv").write_text("1,0.5\n0.5\n")
        result = run_as_user([arg.format(eye3=tmp_path / "eye3.csv", ragged=tmp_path / "ragged.csv")
                              for arg in argv])
        assert_refused(result.returncode, result.stdout, result.stderr)
        assert name in result.stderr

    GEO = ["--nr", "2", "--nt", "2", "--rho-rx", "0.5", "--rho-tx", "0.5"]

    @pytest.mark.parametrize("argv, bad", [
        (["ser", *GEO, "--sweep", "0:4000:2"], "SNR must lie within .* got 4000.0 dB"),
        (["ser", *GEO, "--sweep", "-4000:0:2"], "SNR must lie within .* got -4000.0 dB"),
        (["outage", *GEO, "--snr-db", "4000", "--sweep", "0:10:2"], "got 4000.0 dB"),
        (["outage", *GEO, "--snr-db", "0", "--sweep", "0:4000:2"],
         "outage threshold must lie within .* got 4000.0 dB"),
        (["ser", *GEO, "--sweep", "0:4000:2", "--with-mc", "--trials", "1000"], "got 4000.0 dB"),
    ], ids=["ser", "ser-low", "outage-snr", "outage-threshold", "ser-with-mc"])
    def test_snr_outside_the_double_range_exits_2(self, argv, bad):
        # one error line, no traceback and no numpy warning
        result = run_as_user(argv)
        assert result.returncode == 2 and result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert re.fullmatch(f"error: .*{bad}\n", result.stderr), result.stderr

    @pytest.mark.parametrize("flag, path, bad", [
        ("--corr-rx-file", "missing.csv", "No such file or directory: '.*missing.csv'"),
        ("--out", "missing/x.csv", "No such file or directory: '.*missing/x.csv'"),
    ], ids=["read", "write"])
    def test_file_it_cannot_use_exits_2(self, tmp_path, flag, path, bad):
        # one error line, no traceback
        target = tmp_path / path
        result = run_as_user(["cdf", "--nr", "2", "--nt", "2", "--sweep", "0:1:3",
                              flag, str(target)])
        assert result.returncode == 2 and result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert re.fullmatch(f"error: .*{bad}\n", result.stderr), result.stderr
        assert not target.exists()

    def test_file_that_is_not_text_exits_2(self, tmp_path):
        # a UTF-16 byte-order mark: one error line naming the file, no traceback
        target = tmp_path / "utf16.csv"
        target.write_bytes(b"\xff\xfe" + "1,0\n0,1\n".encode("utf-16-le"))
        result = run_as_user(["cdf", "--nr", "2", "--nt", "2", "--sweep", "0:1:3",
                              "--corr-rx-file", str(target)])
        assert result.returncode == 2 and result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert re.fullmatch(f"error: .*{re.escape(str(target))}.*\n", result.stderr), result.stderr

    def test_asymptote_past_the_double_range_is_inf(self):
        # 2x2 rho .5 8PSK at -1000 dB: (array_gain * snr)^-4 is about 1e400
        result = run_as_user(["ser", *self.GEO, "--mod", "8psk", "--sweep", "-1000:0:3"])
        assert result.returncode == 0 and result.stderr == ""
        rows = [row.split(",") for row in result.stdout.splitlines()[1:]]
        assert [row[2] for row in rows[:1]] == ["inf"]
        assert all(math.isfinite(float(row[2])) for row in rows[1:])

    def test_negative_sweep_start_accepted(self, capsys):
        code, out, _ = run_cli(
            ["outage", "--nr", "1", "--nt", "1", "--snr-db", "0",
             "--sweep", "-10:0:3"], capsys,
        )
        assert code == 0
        assert len(out.splitlines()) == 4

    @pytest.mark.parametrize("command", [
        ["summary", "--nr", "10", "--nt", "10", "--rho-rx", "0.999", "--rho-tx", "0.999"],
        ["summary", "--nr", "16", "--nt", "16", "--rho-rx", "0.99", "--rho-tx", "0.99"],
        ["summary", "--nr", "20", "--nt", "20", "--rho-rx", "0.5", "--rho-tx", "0.5"],
        ["summary", "--nr", "12", "--nt", "12", "--rho-rx", "0.99", "--rho-tx", "0.99"],
        ["cdf", "--nr", "12", "--nt", "12", "--rho-rx", "0.99", "--rho-tx", "0.99",
         "--sweep", "0:10:6"],
    ], ids=["10x10-alpha-overflow", "16x16-alpha-overflow", "20x20-alpha-underflow",
            "12x12-summary-nan", "12x12-cdf-nan"])
    def test_unsupported_geometry_exit_code(self, command, capsys):
        # refused while the model is built, with a message and no traceback
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(command, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("numerical error: ") and "Monte-Carlo" in err

    def test_numerical_failure_exit_code(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(performance, "exact_ser", boom)
        code, _, err = run_cli(
            ["ser", "--nr", "1", "--nt", "1", "--mod", "bpsk", "--sweep", "0:1:2"],
            capsys,
        )
        assert code == 1
        assert "numerical error" in err
