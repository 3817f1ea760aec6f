"""tools/ab.py: the row it measures for one set, with this checkout's
gbcluster on both sides, so both sides must agree in every count."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import gbcluster
from gbcluster.data import BUNDLED_DATASETS, GeneratorSpec, generate
from gbcluster.differentiation import cluster, distance_evaluations

_spec = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parent.parent / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

CLUSTER_STAGES = {"division", "sweep", "merge", "noise", "geometry", "cluster"}


@pytest.mark.parametrize("name, data, cli", [
    ("blobs-5k", generate(GeneratorSpec(family="blobs", n=5000, seed=1, scales=0.5,
                                        centers=((0.0, 0.0), (5.0, 0.0), (0.0, 5.0)))), False),
    ("moons1k", generate(BUNDLED_DATASETS["moons1k"]), True),
], ids=["blobs-5k", "moons1k-cli"])
def test_one_set_row_has_every_field_and_the_sides_agree(tmp_path, name, data, cli):
    row = ab.measure(name, (gbcluster, gbcluster), [data], pairs=2,
                     tmp=str(tmp_path) if cli else None)
    json.dumps(row, allow_nan=False)
    assert set(row) == {"name", "rows", "d", "identical", "counts", "peak_mib", "stages"}
    assert (row["name"], row["rows"], row["d"]) == (name, len(data), data.dim)

    assert row["identical"] == {"balls": True, "labels_and_overlaps": True,
                                **({"files": True} if cli else {})}
    before = distance_evaluations()
    assignment, balls = cluster(data)
    entries = distance_evaluations() - before
    counts = row["counts"]["change"]
    assert row["counts"]["base"] == counts
    assert set(counts) == set(ab.COUNTS)
    assert (counts["balls"], counts["clusters"], counts["noise_points"]) == (
        len(balls), assignment.cluster_count, assignment.noise_count)
    assert counts["pairs_overlapping"] == balls.overlap_counts.sum() // 2 > 0
    assert counts["tile_entries"] == entries > counts["pairs_overlapping"] + counts["pairs_kept"]

    cli_stages = {"load_csv", "save_results", "cli"} if cli else set()
    assert set(row["stages"]) == CLUSTER_STAGES | cli_stages
    for stage in row["stages"].values():
        assert set(stage) == {"base_min_s", "change_min_s", "ratio_median", "ratio_iqr", "won"}
        assert stage["base_min_s"] > 0 and stage["change_min_s"] > 0
        assert stage["ratio_iqr"][0] <= stage["ratio_median"] <= stage["ratio_iqr"][1]
        assert 0 <= stage["won"] <= 2
    assert set(row["peak_mib"]) == {"division", "sweep", "geometry", "cluster"}
    for peak in row["peak_mib"].values():
        assert set(peak) == {"base", "change"} and min(peak.values()) > 0


def test_peaks_read_each_side_first_and_second(monkeypatch):
    # The first reading of a pair reads 100 bytes high, as the order of the
    # calls can make it: both sides are read in both places and keep their
    # lower reading, so equal sides come out equal.
    calls = []

    def reading(call):
        calls.append(call())
        return 1.0 + len(calls) % 2 * 1e-4

    monkeypatch.setattr(ab, "_peak_mib", reading)
    sides = [dict.fromkeys(ab.PEAKS, lambda j=j: j) for j in (0, 1)]
    assert ab._peaks(sides) == {stage: {"base": 1.0, "change": 1.0} for stage in ab.PEAKS}
    assert calls == [0, 1, 1, 0] * len(ab.PEAKS)


def test_src_lines_counts_each_module_on_both_sides(tmp_path):
    base, change = tmp_path / "base", tmp_path / "change"
    for side, modules in ((base, {"a.py": "1\n2\n3\n", "b.py": "1\n"}),
                          (change, {"a.py": "1\n", "c.py": "1\n2\n", "notes.txt": "1\n"})):
        side.mkdir()
        for module, text in modules.items():
            (side / module).write_text(text)
    lines = ab.src_lines(base, change)
    json.dumps(lines, allow_nan=False)
    assert lines == {"base": {"a.py": 3, "b.py": 1}, "change": {"a.py": 1, "c.py": 2}, "net": -1}
    package = Path(gbcluster.__file__).resolve().parent
    counts = ab.src_lines(package, package)
    assert counts["net"] == 0 and counts["base"] == counts["change"]
    assert counts["change"] == {path.name: path.read_bytes().count(b"\n") for path in package.glob("*.py")}


@pytest.mark.parametrize("argv, message", [
    (["--sets", "nope"], "unknown sets: ['nope']"),
    (["--pairs", "0"], "--pairs must be at least 1"),
    (["--fresh"], "unrecognized arguments: --fresh"),
], ids=["unknown-set", "no-pairs", "fresh"])
def test_main_rejects_bad_options_with_a_usage_error(monkeypatch, capsys, argv, message):
    monkeypatch.setattr(sys, "path", list(sys.path))  # main puts src and perfbench first
    monkeypatch.setattr(ab, "measure", None)  # a measurement would fail on the call
    with pytest.raises(SystemExit) as exit_info:
        ab.main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and message in err
