"""CLI behavior: subcommands, flag guards, exit codes, file outputs."""

import json
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import pytest

import gbcluster
from gbcluster.cli import EXIT_INVALID, EXIT_IO, EXIT_OK, EXIT_USAGE, main


def _gen(tmp_path, name="moons.csv", dataset="moons1k"):
    out = tmp_path / name
    assert main(["gen", "--dataset", dataset, "--out", str(out)]) == EXIT_OK
    return out


def test_gen_run_happy_path(tmp_path, capsys):
    data = _gen(tmp_path)
    prefix = tmp_path / "res"
    assert main(["run", "--algo", "gbc", "--in", str(data), "--out", str(prefix),
                 "--verbose"]) == EXIT_OK
    assert "refinement stopped: converged" in capsys.readouterr().out
    assert (tmp_path / "res_points.csv").exists()
    assert (tmp_path / "res_balls.csv").exists()
    summary = json.loads((tmp_path / "res_summary.json").read_text())
    assert summary["algorithm"] == "gbc"
    assert summary["cluster_count"] == 2
    assert summary["rand_index"] >= 0.95
    assert summary["round_cap_hit"] is False
    assert summary["ball_count"] >= 10


def test_gen_custom_family(tmp_path):
    out = tmp_path / "m.csv"
    assert main(["gen", "--family", "moons", "--n", "50", "--noise", "0.02",
                 "--seed", "3", "--out", str(out)]) == EXIT_OK
    assert out.read_text().splitlines()[0] == "x0,x1,label"


def test_gbc_rejects_algorithm_parameters(tmp_path, capsys):
    data = _gen(tmp_path)
    code = main(["run", "--algo", "gbc", "--in", str(data), "--eps", "0.3"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "gbc takes no algorithm parameters" in captured.err


def test_unused_flags_are_named_in_one_order(tmp_path, capsys):
    # the baselines' required flags in config order, then --seed
    data = _gen(tmp_path)
    code = main(["run", "--algo", "gbc", "--in", str(data), "--seed", "2", "--dc", "1", "--k", "3"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: --k, --dc, --seed: gbc takes no algorithm parameters;")


def test_baselines_require_their_flags(tmp_path, capsys):
    data = _gen(tmp_path)
    assert main(["run", "--algo", "kmeans", "--in", str(data)]) == EXIT_USAGE
    assert main(["run", "--algo", "dbscan", "--in", str(data)]) == EXIT_USAGE
    assert main(["run", "--algo", "dpeak", "--in", str(data)]) == EXIT_USAGE
    out = tmp_path / "km"
    assert main(["run", "--algo", "kmeans", "--in", str(data), "--k", "2",
                 "--seed", "1", "--out", str(out)]) == EXIT_OK


def test_gen_rejects_a_negative_seed(tmp_path, capsys):
    code = main(["gen", "--family", "moons", "--n", "50", "--seed", "-1",
                 "--out", str(tmp_path / "m.csv")])
    assert code == EXIT_INVALID
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("noise", ["nan", "-0.5", "inf"])
def test_gen_rejects_noise_that_is_not_a_finite_non_negative_number(tmp_path, capsys, noise):
    out = tmp_path / "b.csv"
    code = main(["gen", "--family", "blobs", "--n", "20", "--noise", noise, "--out", str(out)])
    assert code == EXIT_INVALID
    assert "noise_sigma" in capsys.readouterr().err
    assert not out.exists()


def test_run_does_not_import_numpy_ma(tmp_path):
    # numpy imports numpy.ma lazily, at a process's first np.median: about
    # 13 ms and 2 MiB that every `gbcluster run` would pay.  A fresh
    # interpreter, so that no other test's imports count.
    data = _gen(tmp_path, "blobs5.csv", "blobs5")
    src = os.path.dirname(os.path.dirname(gbcluster.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["run", "--algo", "gbc", "--in", str(data), "--out", str(tmp_path / "res")]
    code = ("import sys\nfrom gbcluster import cli\n"
            f"assert cli.main({argv!r}) == 0\n"
            "print('numpy.ma' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "False"


def test_kmeans_rejects_a_negative_seed(tmp_path, capsys):
    data = _gen(tmp_path)
    code = main(["run", "--algo", "kmeans", "--in", str(data), "--k", "2", "--seed", "-1",
                 "--out", str(tmp_path / "km")])
    assert code == EXIT_INVALID
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("algo, given", [
    ("gbc", []),
    ("dbscan", ["--eps", "0.1", "--min-pts", "5"]),
    ("dpeak", ["--dc", "0.15", "--k", "2"]),
])
def test_algorithms_without_a_seed_reject_the_flag(tmp_path, capsys, algo, given):
    data = _gen(tmp_path)
    code = main(["run", "--algo", algo, "--in", str(data), "--out", str(tmp_path / algo), *given,
                 "--seed", "-7"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: --seed: {algo} ")
    assert not (tmp_path / f"{algo}_points.csv").exists()


@pytest.mark.parametrize("algo, given", [
    ("dbscan", ["--eps", "nan", "--min-pts", "2"]),
    ("dpeak", ["--dc", "nan", "--k", "1"]),
])
def test_baselines_reject_a_nan_radius(tmp_path, capsys, algo, given):
    data = _gen(tmp_path)
    code = main(["run", "--algo", algo, "--in", str(data), "--out", str(tmp_path / algo), *given])
    assert code == EXIT_INVALID
    assert f"{given[0][2:]} must be > 0" in capsys.readouterr().err
    assert not (tmp_path / f"{algo}_points.csv").exists()


def test_gen_checks_the_seed_that_a_bundled_dataset_overrides(tmp_path, capsys):
    code = main(["gen", "--dataset", "moons1k", "--seed", "-3", "--out", str(tmp_path / "m.csv")])
    assert code == EXIT_INVALID
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("algo, given, seed", [
    ("gbc", [], 0),
    ("kmeans", ["--k", "2"], 0),
    ("kmeans", ["--k", "2", "--seed", "4"], 4),
])
def test_summary_seed_is_the_flag_or_zero(tmp_path, algo, given, seed):
    data = _gen(tmp_path)
    out = tmp_path / algo
    assert main(["run", "--algo", algo, "--in", str(data), "--out", str(out), *given]) == EXIT_OK
    assert json.loads((tmp_path / f"{algo}_summary.json").read_text())["seed"] == seed


@pytest.mark.parametrize("algo, given, unused", [
    ("kmeans", ["--k", "2", "--eps", "0.3"], "--eps"),
    ("dbscan", ["--eps", "0.1", "--min-pts", "5", "--dc", "0.2"], "--dc"),
    ("dpeak", ["--dc", "0.15", "--k", "2", "--min-pts", "9"], "--min-pts"),
])
def test_baselines_reject_flags_they_do_not_take(tmp_path, capsys, algo, given, unused):
    data = _gen(tmp_path)
    out = tmp_path / algo
    code = main(["run", "--algo", algo, "--in", str(data), "--out", str(out), *given])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith(f"error: {unused}: {algo} takes only ")
    assert not (tmp_path / f"{algo}_points.csv").exists()
    # without the unused flag the same run succeeds
    at = given.index(unused)
    assert main(["run", "--algo", algo, "--in", str(data), "--out", str(out),
                 *given[:at], *given[at + 2:]]) == EXIT_OK


@pytest.mark.parametrize("algo, given", [
    ("kmeans", ["--k", "1"]),
    ("dbscan", ["--eps", "0.1", "--min-pts", "5"]),
    ("dpeak", ["--dc", "0.15", "--k", "2"]),
])
def test_baselines_reject_verbose(tmp_path, capsys, algo, given):
    # only gbc has a division trace to print
    data = _gen(tmp_path)
    out = tmp_path / algo
    code = main(["run", "--algo", algo, "--in", str(data), "--out", str(out), *given, "--verbose"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: --verbose: {algo} ")
    assert not (tmp_path / f"{algo}_points.csv").exists()


def test_baseline_flags_are_checked_before_the_input_is_read(tmp_path, capsys):
    # a missing flag is a usage error (exit 1) even when the input is missing too
    code = main(["run", "--algo", "dbscan", "--in", str(tmp_path / "nope.csv")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: dbscan needs --eps and --min-pts; "
                                              "try --eps 0.1 --min-pts 5\n")


def test_missing_input_is_io_error(tmp_path, capsys):
    code = main(["run", "--algo", "gbc", "--in", str(tmp_path / "nope.csv")])
    assert code == EXIT_IO
    assert "not found" in capsys.readouterr().err


def test_unparsable_csv_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x0,x1\n1.0,oops\n")
    code = main(["run", "--algo", "gbc", "--in", str(bad)])
    assert code == EXIT_INVALID
    assert "row 2" in capsys.readouterr().err


@pytest.mark.parametrize("label", ["inf", "nan"])
def test_non_integer_label_is_validation_error(tmp_path, capsys, label):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"x0,label\n1.0,0\n2.0,{label}\n")
    code = main(["run", "--algo", "gbc", "--in", str(bad), "--out", str(tmp_path / "r")])
    assert code == EXIT_INVALID
    assert f"{bad}: row 3, column 1: label '{label}' is not an integer" in capsys.readouterr().err


def _files(prefix):
    return [Path(f"{prefix}{suffix}").read_bytes() for suffix in ("_points.csv", "_balls.csv")]


def test_run_reads_a_pipe_once(tmp_path):
    # the whole file comes through the pipe, header included, and gives the
    # file's own output
    data = _gen(tmp_path, "blobs5.csv", "blobs5")
    assert main(["run", "--algo", "gbc", "--in", str(data), "--out", str(tmp_path / "file")]) == EXIT_OK
    r, w = os.pipe()

    def feed():
        with open(w, "wb") as fh:
            fh.write(data.read_bytes())

    writer = threading.Thread(target=feed)
    writer.start()  # the file is larger than a pipe's buffer
    try:
        code = main(["run", "--algo", "gbc", "--in", f"/dev/fd/{r}", "--out", str(tmp_path / "pipe")])
    finally:
        os.close(r)  # a writer still blocked on a full pipe fails at once
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert code == EXIT_OK
    assert _files(tmp_path / "pipe") == _files(tmp_path / "file")
    summary = json.loads((tmp_path / "pipe_summary.json").read_text())
    assert summary["n_points"] == 2500 and summary["rand_index"] == 1.0


def test_run_finds_the_label_column_by_its_name(tmp_path):
    data = _gen(tmp_path, "blobs5.csv", "blobs5")
    text = data.read_text()
    spaced = tmp_path / "spaced.csv"
    spaced.write_text(text.replace(",label\n", ", Label \n", 1))
    for given, name, prefix in (([], data, "auto"), (["--label-column", "2"], data, "index"),
                                ([], spaced, "spaced")):
        assert main(["run", "--algo", "gbc", "--in", str(name), "--out", str(tmp_path / prefix),
                     *given]) == EXIT_OK
        summary = json.loads((tmp_path / f"{prefix}_summary.json").read_text())
        assert summary["dim"] == 2 and summary["rand_index"] == 1.0
        assert _files(tmp_path / prefix) == _files(tmp_path / "auto")


def test_no_header_on_a_file_with_one_names_row_1(tmp_path, capsys):
    data = _gen(tmp_path)
    code = main(["run", "--algo", "gbc", "--in", str(data), "--no-header", "--out", str(tmp_path / "r")])
    assert code == EXIT_INVALID
    assert f"{data}: row 1, column 0: cannot parse value 'x0'" in capsys.readouterr().err
    assert not (tmp_path / "r_points.csv").exists()


@pytest.mark.parametrize("cell", ['"1.' + "0" * 140_000 + '"', "1" * 140_000], ids=["quoted", "inf"])
def test_a_cell_past_the_csv_field_limit_is_validation_error(tmp_path, capsys, cell):
    # quoted, or read by numpy as inf, the cell reaches the Python reader,
    # whose csv module refuses it
    bad = tmp_path / "long.csv"
    bad.write_text(f"x0,label\n1.0,0\n{cell},1\n")
    assert main(["run", "--algo", "gbc", "--in", str(bad), "--out", str(tmp_path / "r")]) == EXIT_INVALID
    assert f"{bad}: row 3: field larger than field limit" in capsys.readouterr().err
    assert main(["eval", "--truth", str(bad), "--pred", str(bad)]) == EXIT_INVALID
    assert f"{bad}: row 3: field larger than field limit" in capsys.readouterr().err


def test_one_labelled_point_writes_every_file_with_null_score(tmp_path, capsys):
    data = tmp_path / "one.csv"
    data.write_text("x0,x1,label\n1.5,2.5,3\n")
    prefix = tmp_path / "one"
    assert main(["run", "--algo", "gbc", "--in", str(data), "--out", str(prefix)]) == EXIT_OK
    assert (tmp_path / "one_points.csv").read_text() == "x0,x1,cluster\n1.5,2.5,-1\n"
    assert len((tmp_path / "one_balls.csv").read_text().splitlines()) == 2
    summary = json.loads((tmp_path / "one_summary.json").read_text())
    assert summary["n_points"] == 1
    assert summary["rand_index"] is None


def test_run_at_the_top_of_the_float_range_warns_nothing(tmp_path):
    # the ball's distance sum, 2e308, is past the float range and reads inf
    data = tmp_path / "top.csv"
    data.write_text("label,x0\n0,1e308\n1,-1e308\n")
    prefix = tmp_path / "top"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--algo", "gbc", "--in", str(data), "--out", str(prefix)]) == EXIT_OK
    assert (tmp_path / "top_points.csv").read_text() == "x0,cluster\n1e+308,0\n-1e+308,0\n"
    assert (tmp_path / "top_balls.csv").read_text().splitlines()[1] == "0,1e+308,0,0,2"


def test_eval_one_point_prints_null_score(tmp_path, capsys):
    # the Rand index is undefined for one point; run writes null for it too
    data = tmp_path / "one.csv"
    data.write_text("x0,label\n1.0,0\n")
    assert main(["eval", "--truth", str(data), "--pred", str(data)]) == EXIT_OK
    assert capsys.readouterr().out == "rand_index null\n"


def test_unknown_flag_is_usage_error(capsys):
    assert main(["run", "--algo", "gbc", "--frobnicate"]) == EXIT_USAGE


def test_eval_perfect_match(tmp_path, capsys):
    data = _gen(tmp_path)
    prefix = tmp_path / "res"
    main(["run", "--algo", "gbc", "--in", str(data), "--out", str(prefix)])
    capsys.readouterr()
    code = main(["eval", "--truth", str(data), "--pred", f"{prefix}_points.csv"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.startswith("rand_index ")
    assert float(out.split()[1]) >= 0.95


def test_eval_length_mismatch(tmp_path, capsys):
    a = tmp_path / "a.csv"
    a.write_text("x0,label\n1.0,0\n2.0,1\n")
    b = tmp_path / "b.csv"
    b.write_text("x0,label\n1.0,0\n")
    assert main(["eval", "--truth", str(a), "--pred", str(b)]) == EXIT_INVALID


def test_bench_writes_table(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = main(["bench", "--algos", "gbc,kmeans", "--data", "moons1k",
                 "--repetitions", "1", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "algorithm,dataset,wall_time_s,rand_index,cluster_count,noise_count"
    assert len(lines) == 3
    rows = json.loads((tmp_path / "report.csv.json").read_text())
    assert {r["algorithm"] for r in rows} == {"gbc", "kmeans"}


def test_bench_rejects_unknown_names(capsys):
    assert main(["bench", "--algos", "gbc", "--data", "nosuch"]) == EXIT_USAGE
    assert main(["bench", "--algos", "quantum", "--data", "moons1k"]) == EXIT_USAGE


@pytest.mark.parametrize("flag, given", [("--algos", ["--algos", "", "--data", "moons1k"]),
                                         ("--data", ["--algos", "gbc", "--data", " , "])])
def test_bench_rejects_an_empty_list(tmp_path, capsys, flag, given):
    # an empty list measured nothing and, with --out, wrote a header-only table
    out = tmp_path / "report.csv"
    assert main(["bench", *given, "--repetitions", "1", "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: {flag}: names no ")
    assert not out.exists()


def test_repeated_runs_are_byte_identical(tmp_path):
    data = _gen(tmp_path)
    p1, p2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", "--algo", "gbc", "--in", str(data), "--out", str(p1)]) == EXIT_OK
    assert main(["run", "--algo", "gbc", "--in", str(data), "--out", str(p2)]) == EXIT_OK
    for suffix in ("_points.csv", "_balls.csv"):
        assert (tmp_path / f"r1{suffix}").read_bytes() == (tmp_path / f"r2{suffix}").read_bytes()
    s1 = json.loads((tmp_path / "r1_summary.json").read_text())
    s2 = json.loads((tmp_path / "r2_summary.json").read_text())
    s1.pop("wall_time_s"), s2.pop("wall_time_s")
    assert s1 == s2


def test_baseline_run_writes_empty_balls_file(tmp_path):
    data = _gen(tmp_path)
    prefix = tmp_path / "db"
    assert main(["run", "--algo", "dbscan", "--in", str(data), "--eps", "0.1",
                 "--min-pts", "5", "--out", str(prefix)]) == EXIT_OK
    lines = (tmp_path / "db_balls.csv").read_text().splitlines()
    assert len(lines) == 1  # header only: baselines have no balls
    summary = json.loads((tmp_path / "db_summary.json").read_text())
    assert summary["ball_count"] is None
    assert summary["round_cap_hit"] is None


def test_eval_headerless_files(tmp_path, capsys):
    a = tmp_path / "a.csv"
    a.write_text("1.0,0\n2.0,1\n3.0,1\n")
    b = tmp_path / "b.csv"
    b.write_text("9.0,1\n8.0,0\n7.0,0\n")
    assert main(["eval", "--truth", str(a), "--pred", str(b), "--no-header"]) == EXIT_OK
    out = capsys.readouterr().out
    assert float(out.split()[1]) == 1.0  # same partition, labels swapped


def test_version_and_help_exit_zero(capsys):
    assert main(["--help"]) == EXIT_OK
    assert "gbcluster" in capsys.readouterr().out
    assert main(["--version"]) == EXIT_OK
