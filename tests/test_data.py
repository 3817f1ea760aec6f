"""Synthetic generators and CSV round-trips."""

import csv
import gzip
import hashlib
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from gbcluster.core import BallSet, ClusterAssignment, Dataset
from gbcluster.data import (BUNDLED_DATASETS, GeneratorSpec, _c_table, _load_csv_python,
                            generate, load_csv, save_dataset, save_results)
from gbcluster.differentiation import cluster


def test_moons_noiseless_four_points():
    ds = generate(GeneratorSpec(family="moons", n=4, noise_sigma=0.0, seed=0))
    assert ds.labels.tolist() == [0, 0, 1, 1]
    assert np.allclose(ds.points, [[1, 0], [-1, 0], [0, 0.5], [2, 0.5]], atol=1e-12)


def test_blobs_single_center_sigma_zero():
    ds = generate(GeneratorSpec(family="blobs", n=100, noise_sigma=0.0, seed=1))
    assert len(ds) == 100
    assert (ds.points == ds.points[0]).all()
    assert set(ds.labels.tolist()) == {0}


def test_fewer_points_than_components():
    # the components past the n-th get no points and no label
    ds = generate(GeneratorSpec(family="circles", n=2, radii=(1.0, 2.0, 3.0)))
    assert ds.points.tolist() == [[1.0, 0.0], [2.0, 0.0]]
    assert ds.labels.tolist() == [0, 1]
    ds = generate(GeneratorSpec(family="blobs", n=1, centers=_TWO))
    assert ds.points.tolist() == [[0.0, 0.0]] and ds.labels.tolist() == [0]


def test_generation_is_bit_deterministic():
    spec = BUNDLED_DATASETS["spirals2"]
    a, b = generate(spec), generate(spec)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.labels, b.labels)


def test_generator_validation():
    with pytest.raises(ValueError):
        GeneratorSpec(family="doughnuts", n=5)
    with pytest.raises(ValueError):
        GeneratorSpec(family="moons", n=0)
    with pytest.raises(ValueError):
        GeneratorSpec(family="moons", n=5, noise_sigma=-0.1)
    with pytest.raises(ValueError):
        GeneratorSpec(family="blobs", n=5, centers=((0, 0), (1, 1)), scales=(0.1,))
    with pytest.raises(ValueError):
        GeneratorSpec(family="circles", n=5, radii=(1.0, -2.0))
    with pytest.raises(ValueError, match="radii"):
        GeneratorSpec(family="circles", n=10, radii=())
    with pytest.raises(ValueError):
        GeneratorSpec(family="spirals", n=5, turns=0.0)


_TWO = ((0.0, 0.0), (5.0, 0.0))


@pytest.mark.parametrize("bad", [math.nan, -0.5, math.inf])
@pytest.mark.parametrize("field, spec", [
    ("noise_sigma", lambda v: GeneratorSpec(family="blobs", n=20, noise_sigma=v)),
    ("scales", lambda v: GeneratorSpec(family="blobs", n=20, centers=_TWO, scales=v)),
    ("scales", lambda v: GeneratorSpec(family="blobs", n=20, centers=_TWO, scales=(0.5, v))),
    ("proportions", lambda v: GeneratorSpec(family="blobs", n=20, centers=_TWO,
                                            proportions=(1.0, v))),
    ("radii", lambda v: GeneratorSpec(family="circles", n=20, radii=(1.0, v))),
    ("turns", lambda v: GeneratorSpec(family="spirals", n=20, turns=v)),
    # a coordinate of v * inf: NaN, -inf or inf; then no centre, and a centre of no coordinate
    ("centers", lambda v: GeneratorSpec(family="blobs", n=20, centers=(_TWO[0], (5.0, v * math.inf)))),
    ("centers", lambda v: GeneratorSpec(family="blobs", n=20, centers=())),
    ("centers", lambda v: GeneratorSpec(family="blobs", n=20, centers=((),))),
])
def test_generator_rejects_nan_negative_and_infinite_values(field, spec, bad):
    # NaN fails every comparison, so a check written as ``x < 0`` lets it through
    with pytest.raises(ValueError, match=field):
        spec(bad)


def test_bundled_specs_all_generate():
    for name, spec in BUNDLED_DATASETS.items():
        ds = generate(spec)
        assert len(ds) == spec.n, name
        assert ds.labels is not None


def test_load_csv_plain(tmp_path):
    p = tmp_path / "plain.csv"
    p.write_text("1.0,2.0\n3.0,4.0\n")
    ds = load_csv(p)
    assert len(ds) == 2 and ds.dim == 2
    assert ds.labels is None


def test_load_csv_label_column(tmp_path):
    p = tmp_path / "labelled.csv"
    p.write_text("1.0,2.0\n3.0,4.0\n")
    ds = load_csv(p, label_column=1)
    assert ds.dim == 1
    assert ds.points.ravel().tolist() == [1.0, 3.0]
    assert ds.labels.tolist() == [2, 4]


@pytest.mark.parametrize("text", ["x, Label ,y\n1,2,3\n4,5,6\n",
                                  'x, Label ,y\n1,"2",3\n4,5,6\n'],  # the C reader refuses quotes
                         ids=["c_reader", "quoted"])
def test_load_csv_label_column_by_name(tmp_path, text):
    # a name matches a header cell, case and surrounding spaces aside, on
    # both readers; a name that no cell has leaves the dataset unlabelled
    p = tmp_path / "named.csv"
    _write(p, text)
    for reader in (load_csv, _load_csv_python):
        ds = reader(p, has_header=True, label_column="label ")
        assert ds.points.tolist() == [[1.0, 3.0], [4.0, 6.0]] and ds.labels.tolist() == [2, 5]
        ds = reader(p, has_header=True, label_column="truth")
        assert ds.points.shape == (2, 3) and ds.labels is None
    with pytest.raises(ValueError, match="'label' is a name, but there is no header"):
        load_csv(p, label_column="label")


def test_load_csv_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="no data rows"):
        load_csv(empty)

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match="row 2"):
        load_csv(ragged)

    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(ValueError, match="row 2, column 1"):
        load_csv(bad)

    nonint = tmp_path / "nonint.csv"
    nonint.write_text("1.0,2.5\n")
    with pytest.raises(ValueError, match="not an integer"):
        load_csv(nonint, label_column=1)

    missing = tmp_path / "missing.csv"
    with pytest.raises(FileNotFoundError):
        load_csv(missing)


def test_dataset_roundtrip_is_exact(tmp_path):
    ds = generate(GeneratorSpec(family="moons", n=50, noise_sigma=0.05, seed=21))
    p = tmp_path / "ds.csv"
    save_dataset(p, ds)
    back = load_csv(p, has_header=True, label_column=ds.dim)
    assert np.array_equal(back.points, ds.points)
    assert np.array_equal(back.labels, ds.labels)


def test_save_results_roundtrip_and_ball_rows(tmp_path):
    ds = generate(BUNDLED_DATASETS["moons1k"])
    assignment, ballset = cluster(ds)
    prefix = tmp_path / "out"
    save_results(prefix, ds, assignment, ballset)

    points = load_csv(str(prefix) + "_points.csv", has_header=True, label_column=ds.dim)
    assert np.array_equal(points.points, ds.points)
    assert np.array_equal(points.labels, assignment.labels)

    with open(str(prefix) + "_balls.csv") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "c0,c1,radius,cluster,overlaps,points"
    assert len(lines) - 1 == len(ballset)


def test_save_results_without_ballset(tmp_path):
    ds = Dataset(points=[[0.0, 0.0], [1.0, 0.0]])
    assignment = ClusterAssignment(labels=[0, 0])
    prefix = tmp_path / "base"
    save_results(prefix, ds, assignment, None)
    with open(str(prefix) + "_balls.csv") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 1  # header only


def test_save_results_length_mismatch(tmp_path):
    ds = Dataset(points=[[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        save_results(tmp_path / "x", ds, ClusterAssignment(labels=[0]), None)


# sha256 of (save_dataset file, _points.csv, _balls.csv), recorded with the
# per-cell csv.writer implementation that the chunked writer replaced.  The
# _balls.csv digests of the bundled sets were re-recorded when segment sums
# became np.add.reduceat, which changes the last bits of centres and radii.
GOLDEN_SHA256 = {
    "blobs10k": (
        "3ba8fe8c4c72a26c5382c2edf5bae7d2024c40bab23851de9636b625ef6bcaef",
        "0cb39154cdaa8cdec74c99e8bd2b65de32511fb0273fa86017ff9eee3f71c43b",
        "9c18dc636ee77a1c0554314ecfc4863cfc02670b2ef06ae3083e4a607343bd7a",
    ),
    "blobs5": (
        "e97b4f7be211b59a6639a2df5614ad91199bfc1a2ebf09e3d8d0b938f304b38c",
        "ff128f764c19c1c3ab09a7345c361f0591c31aad6e2aa3d32fce496c8168b8bf",
        "83fe267cc87b0917d69891c89287616be9345480bb3c2d84f01a1f316da75a29",
    ),
    "circles3": (
        "a12b9334ce55f05ce9467e88d997a5654fa952ec351636116b55c3cf36fc3c73",
        "fb7644b183382a2e91c91d7f77a45da0161bd316d06e4428ede26023890f71b5",
        "25f75637be88f671d45ab2433fb9b3ff23b38ea933b364162b8b8b0ce2ac4025",
    ),
    "moons1k": (
        "3ec5cb0cb8e9e4d5a06b6fc7ed5a33da441d8d44da6947fcaa5a98b7f2855c9e",
        "3a88a6987ecf45040d7b02fbe3975c6621e491714f06b317709fb8a686a72a5d",
        "9df2cd88a2b5b67cc7b1b8cce14659d5a07539c7b648c5981969a0e8c7c03dcd",
    ),
    "spirals2": (
        "1a5b5b49d90f1e4d84a1be236901c65a71d6e10fcda7b48a4a7c9dcfd3528719",
        "2e1a252cb02c38d66030e355d7733cfc5d060c4f592d3eeb79837f90c462fdaf",
        "7a1a136dc7b21d24b03247f7ea87372b3ff31d6c9525d972cbb06fae4f14bebe",
    ),
    "special8": (
        "b2af9fc578cfd1adc704bc8fe26252fb1d614dc353014c2310c367664ecf8e50",
        "cf3836ccf8f0f48781ae72f8b439f96a28034c4876b146b350d28bb060cddf2a",
        "5eb226bf1c81bd2f20c3250c561763b227a8496082a72b1564d60a2bbc9a6947",
    ),
}


def _special8():
    """A d = 8 set with -0.0, +-1e-300, +-1e300, integral and 2**53 coordinates,
    a label of -2**62, and a hand-built ball set with radii 0, 1e-300 and 1e300."""
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(40, 8)) * 10.0 ** rng.integers(-5, 6, size=(40, 8))
    pts[0] = [-0.0, 1e-300, 1e300, 3.0, -12.0, 2.0**53, -1e-300, -1e300]
    pts[1:6, :4] = np.round(pts[1:6, :4])
    pts[6] = 0.0
    labels = np.arange(40) % 3 - 1
    labels[-1] = -(2**62)
    ds = Dataset(points=pts, labels=labels)
    sizes = np.array([1, 4, 10, 25])
    order = rng.permutation(40)
    starts = np.cumsum(sizes) - sizes
    centers = np.array([pts[order[s:s + k]].mean(axis=0) for s, k in zip(starts, sizes)])
    centers[0] = pts[0]
    ballset = BallSet(order=order, sizes=sizes, centers=centers,
                      radii=np.array([0.0, 1e-300, 2.5, 1e300]),
                      sum_radius=np.zeros(4), overlap_counts=np.array([0, 3, 1, 2]))
    return ds, ClusterAssignment(labels=np.arange(40) % 3 - 1), ballset


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_written_bytes_match_golden_digests(tmp_path, name):
    if name == "special8":
        ds, assignment, ballset = _special8()
    else:
        ds = generate(BUNDLED_DATASETS[name])
        assignment, ballset = cluster(ds)
    save_dataset(tmp_path / "ds.csv", ds)
    save_results(tmp_path / "res", ds, assignment, ballset)
    got = tuple(_sha256(tmp_path / f) for f in ("ds.csv", "res_points.csv", "res_balls.csv"))
    assert got == GOLDEN_SHA256[name]


# Each input's parsed points and labels, or its exact error, as a per-cell
# float() loop over the csv records in file order gives them.  (text, kwargs,
# expected): expected is (points, labels) or an error message with {path}.
PARSE_TABLE = {
    "quoted_and_spaces": ('"1.5", 2 ,"  3e0 "\n" -4",5,6\n', {},
                          ([[1.5, 2.0, 3.0], [-4.0, 5.0, 6.0]], None)),
    "quoted_comma": ('"1,5",2\n', {}, "{path}: row 1, column 0: cannot parse value '1,5'"),
    "blank_and_space_lines": ("1,2\n\n   \n\t\n3,4\n\n", {}, ([[1.0, 2.0], [3.0, 4.0]], None)),
    "whitespace_lines_only": ("1,2\n  \n\t\n3,4\n", {}, ([[1.0, 2.0], [3.0, 4.0]], None)),
    "comma_space_line": ("1,2\n , \n", {}, "{path}: row 2, column 0: cannot parse value ' '"),
    "underscore_crlf": ("1_0,2\r\n3,4_5\r\n", {}, ([[10.0, 2.0], [3.0, 45.0]], None)),
    "arabic_indic_digit": ("\u0661,2\n3,4\n", {}, ([[1.0, 2.0], [3.0, 4.0]], None)),
    "signed_zero_tiny_17_digits": (
        "-0,0\n4.9e-324,1e-400\n0.10000000000000001,-1.7976931348623157e308\n", {},
        ([[-0.0, 0.0], [5e-324, 0.0], [0.1, -1.7976931348623157e308]], None)),
    "header_only": ("x0,x1\n", {"has_header": True}, "{path}: no data rows"),
    "header_then_blank": ("x0,x1\n\n  \n", {"has_header": True}, "{path}: no data rows"),
    "header_skipped_even_blank": ("\n1,2\n", {"has_header": True}, ([[1.0, 2.0]], None)),
    "header_with_fault": ("a,b\nc,d\n", {"has_header": True},
                          "{path}: row 2, column 0: cannot parse value 'c'"),
    "empty": ("", {}, "{path}: no data rows"),
    "trailing_empty_cell": ("1,2,\n3,4,\n", {}, "{path}: row 1, column 2: cannot parse value ''"),
    "ragged_short": ("1,2\n3\n", {}, "{path}: row 2 has 1 columns, expected 2"),
    "ragged_long": ("1,2\n3,4,5\n", {}, "{path}: row 2 has 3 columns, expected 2"),
    "single_column": ("1\n2\n", {}, ([[1.0], [2.0]], None)),
    "width_one_label": ("1\n2\n", {"label_column": 0},
                        "points must form a non-empty (n, d) array"),
    "negative_label_column": ("1,2,7\n3,4,-8\n", {"label_column": -1},
                              ([[1.0, 2.0], [3.0, 4.0]], [7, -8])),
    "negative_label_column_middle": ("1,2,7\n3,4,-8\n", {"label_column": -2},
                                     ([[1.0, 7.0], [3.0, -8.0]], [2, 4])),
    "label_column_below_range": ("1,2\n", {"label_column": -3},
                                 "{path}: label column -3 out of range for 2 columns"),
    "label_column_above_range": ("1,2\n", {"label_column": 2},
                                 "{path}: label column 2 out of range for 2 columns"),
    "label_float_integral": ("1,2.0\n3,1e3\n4,-0.0\n", {"label_column": 1},
                             ([[1.0], [3.0], [4.0]], [2, 1000, 0])),
    "label_not_integer": ("1,2.5\n", {"label_column": 1},
                          "{path}: row 1, column 1: label '2.5' is not an integer"),
    "label_unparsable": ("1,two\n", {"label_column": 1},
                         "{path}: row 1, column 1: cannot parse label 'two'"),
    "nonfinite_value": ("1,2\ninf,4\n", {}, "{path}: row 2, column 0: non-finite value 'inf'"),
    "nan_value": ("1,2\n3,nan\n", {}, "{path}: row 2, column 1: non-finite value 'nan'"),
    "overflow_to_inf": ("1,1e400\n", {}, "{path}: row 1, column 1: non-finite value '1e400'"),
    # two faults of different kinds: the first in file order is reported
    "nonfinite_then_ragged": ("1,2\ninf,4\n5\n", {},
                              "{path}: row 2, column 0: non-finite value 'inf'"),
    "ragged_then_unparsable": ("1,2\n3\n5,x\n", {}, "{path}: row 2 has 1 columns, expected 2"),
    "nonfinite_then_unparsable_in_row": ("inf,x\n", {},
                                         "{path}: row 1, column 0: non-finite value 'inf'"),
    "unparsable_then_nonfinite_in_row": ("x,inf\n", {},
                                         "{path}: row 1, column 0: cannot parse value 'x'"),
    "label_then_value": ("1,2.5,x\n", {"label_column": 1},
                         "{path}: row 1, column 1: label '2.5' is not an integer"),
    "value_then_label": ("nan,2.5\n", {"label_column": 1},
                         "{path}: row 1, column 0: non-finite value 'nan'"),
}


@pytest.mark.parametrize("case", sorted(PARSE_TABLE))
def test_parse_table_is_unchanged(tmp_path, case):
    text, kwargs, expected = PARSE_TABLE[case]
    p = tmp_path / "in.csv"
    with open(p, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    if isinstance(expected, str):
        with pytest.raises(ValueError) as err:
            load_csv(p, **kwargs)
        assert str(err.value) == expected.format(path=p)
        return
    points, labels = expected
    ds = load_csv(p, **kwargs)
    assert ds.points.tobytes() == np.array(points, dtype=np.float64).tobytes()
    assert ds.points.shape == np.shape(points)
    assert (ds.labels is None if labels is None else ds.labels.tolist() == labels)


# Inputs for comparing load_csv with the Python reader, beside PARSE_TABLE's:
# (text, kwargs).  Most are files that numpy's C reader refuses, or that it
# parses but that fail a check, so that load_csv must fall back.
READER_INPUTS = {
    "blank_records": ("\n1,2\n\n3,4\n\n", {}),
    "whitespace_records": ("1,2\n \t \n3,4\n  \n", {}),
    "underscore": ("1_0,2\n3,4\n", {}),
    "non_ascii_digits": ("\u0661\u0662,2\n\uff13,4\n", {}),
    "unicode_spaces_around_cells": ("\u00a01\u2003,\x0b2\x0c\n\u30003,\x854\n", {}),
    # whitespace to numpy's float parser, not to float()
    "information_separators": ("1\x1c,2\x1d\n\x1e3,\x1f4\n", {}),
    "separator_after_a_cr_header": ("x,y\r1,2\r3\x1c,4\r", {"has_header": True}),
    "quoted_cell": ('1,"2"\n3,4\n', {}),
    "quoted_newline_in_header": ('"x\n1",y\n3,4\n', {"has_header": True}),
    "unclosed_quote_in_header": ('"x\n1,2\n3,4\n', {"has_header": True}),
    "crlf": ("x,y\r\n1,2\r\n3,4\r\n", {"has_header": True}),
    "cr_only": ("x,y\r1,2\r3,4\r", {"has_header": True}),
    "utf8_bom": ("\ufeff1,2\n3,4\n", {}),
    "utf8_bom_in_header": ("\ufeffx,y\n1,2\n", {"has_header": True}),
    "no_final_newline": ("1,2\n3,4", {}),
    "header_only_no_newline": ("x,y", {"has_header": True}),
    "empty_with_header": ("", {"has_header": True}),
    "blank_lines_only": ("\n\n\n", {}),
    "one_column": ("1\n-2.5\n3e2\n", {}),
    "one_row": ("1,2,3\n", {"label_column": 2}),
    "label_column_first": ("7,1,2\n-8,3,4\n", {"label_column": -3}),
    "label_column_past_the_end": ("1,2,3\n", {"label_column": 3}),
    "label_column_before_the_start": ("1,2,3\n", {"label_column": -4}),
    "value_1e400": ("1,2\n3,1e400\n", {}),
    "value_minus_inf": ("1,2\n-inf,4\n", {}),
    "value_nan_with_label": ("nan,2\n", {"label_column": 1}),
    "label_1e400": ("1,2\n3,1e400\n", {"label_column": 1}),
    "label_nan": ("1,2\n3,nan\n", {"label_column": 1}),
    "label_inf": ("1,inf\n", {"label_column": -1}),
    "label_2_5": ("1,2\n3,2.5\n", {"label_column": 1}),
    "label_2_pow_63": ("1,9223372036854775808\n", {"label_column": 1}),
    "label_minus_2_pow_63": ("1,-9223372036854775808\n", {"label_column": 1}),
    "label_1e3": ("1,1e3\n2,-0.0\n", {"label_column": 1}),
    "comment_line": ("1,2\n#3,4\n5,6\n", {}),
    "comment_in_cell": ("1,2#x\n", {}),
    "hex_cell": ("0x10,2\n", {}),
    "infinity_word": ("Infinity,2\n", {}),
    "empty_cell": ("1,,2\n", {}),
    "nul_in_cell": ("1,2\x00\n", {}),
    "ragged": ("1,2\n3,4,5\n", {}),
}


def _read(reader, path, kwargs):
    """What reader(path, **kwargs) gives: the points and labels as bytes, or
    the type and message of its error."""
    try:
        ds = reader(path, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    labels = None if ds.labels is None else (ds.labels.dtype.str, ds.labels.tobytes())
    return ds.points.dtype.str, ds.points.shape, ds.points.tobytes(), labels


def _write(path, text):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)


@pytest.mark.parametrize("case", sorted(PARSE_TABLE) + sorted(READER_INPUTS))
def test_load_csv_matches_the_python_reader(tmp_path, case):
    assert not PARSE_TABLE.keys() & READER_INPUTS.keys()
    text, kwargs = READER_INPUTS[case] if case in READER_INPUTS else PARSE_TABLE[case][:2]
    p = tmp_path / "in.csv"
    _write(p, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's "input contained no data" stays inside
        got = _read(load_csv, p, kwargs)
    assert got == _read(_load_csv_python, p, kwargs)


def _fuzzed_cells(rng, n):
    """Decimal numbers with 1 to 40 digits and exponents -340 to 320, every
    tenth the shortest repr of a subnormal, with signs and spaces around."""
    cells = []
    for k in range(n):
        if k % 10 == 0:
            num = repr(float(np.uint64(rng.integers(1, 2**52)).view(np.float64)))
        else:
            digits = "".join(map(str, rng.integers(0, 10, rng.integers(1, 41))))
            point = int(rng.integers(0, len(digits) + 1))
            num = digits if rng.random() < 0.3 else digits[:point] + "." + digits[point:]
            if rng.random() < 0.8:
                num += f"{rng.choice(['e', 'E'])}{rng.integers(-340, 321)}"
        pad = rng.choice(["", "", " ", "\t"], 2)
        cells.append(f"{pad[0]}{rng.choice(['', '-', '+'])}{num}{pad[1]}")
    return cells


def test_c_reader_gives_float_bits_on_fuzzed_cells(tmp_path):
    cells = _fuzzed_cells(np.random.default_rng(15), 2000)
    values = np.array([float(c) for c in cells])
    assert np.isinf(values).any() and (values == 0).any() and (abs(values) < 2.0**-1022).any()
    p = tmp_path / "cells.csv"
    _write(p, "\n".join(cells) + "\n")
    assert _c_table(p).tobytes() == values.tobytes()
    # the finite cells, four to a row, last column labels where integral
    finite = [c for c, v in zip(cells, values) if math.isfinite(v)]
    rows = [",".join(finite[k:k + 4]) for k in range(0, len(finite) - 3, 4)]
    _write(p, "\n".join(rows) + "\n")
    assert _c_table(p) is not None
    for kwargs in ({}, {"label_column": 3}):
        assert _read(load_csv, p, kwargs) == _read(_load_csv_python, p, kwargs)


def test_load_csv_reads_a_pipe_and_a_descriptor(tmp_path):
    # a pipe can be read only once, and a descriptor the C reader opened
    # would be closed before a fall back, so it leaves both to the Python reader
    r, w = os.pipe()
    os.write(w, b"1,2\n3,4\n")
    os.close(w)
    try:
        assert load_csv(f"/dev/fd/{r}").points.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    finally:
        os.close(r)
    p = tmp_path / "in.csv"
    p.write_text("1,2\n3,4\n")
    assert load_csv(os.open(p, os.O_RDONLY)).points.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    p.write_text('1,"2"\n3,4\n')  # the C reader refuses quotes
    assert load_csv(os.open(p, os.O_RDONLY)).points.tolist() == [[1.0, 2.0], [3.0, 4.0]]


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma", ".zip"])
def test_load_csv_ignores_a_compressed_suffix(tmp_path, suffix):
    # both readers read the bytes as text, whatever the name; numpy, given
    # the path, would open .gz, .bz2 and .xz files through a decompressor
    p = tmp_path / ("in.csv" + suffix)
    _write(p, "x,y\n1,2\n3,4\n")
    for label_column, shape in ((None, (2, 2)), (1, (2, 1))):
        got = _read(load_csv, p, {"has_header": True, "label_column": label_column})
        assert got == _read(_load_csv_python, p, {"has_header": True, "label_column": label_column})
        assert got[1] == shape
    p.write_bytes(gzip.compress(b"1,2\n3,4\n", mtime=0))
    got = _read(load_csv, p, {})
    assert got == _read(_load_csv_python, p, {}) and got[0] is UnicodeDecodeError


def test_c_reader_takes_a_cell_past_the_csv_field_limit(tmp_path):
    # the csv module refuses a field of more than 131,072 characters, and
    # the Python reader names the row; numpy parses it as float() does
    p = tmp_path / "long.csv"
    _write(p, "1." + "0" * 140_000 + ",2\n")
    assert load_csv(p).points.tolist() == [[1.0, 2.0]]
    with pytest.raises(ValueError, match=f"^{p}: row 1: field larger than field limit"):
        _load_csv_python(p)


@pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "1e19", "9223372036854775808"])
def test_labels_must_be_finite_int64(tmp_path, cell):
    p = tmp_path / "in.csv"
    p.write_text(f"1.0,0\n2.0,{cell}\n")
    with pytest.raises(ValueError) as err:
        load_csv(p, label_column=1)
    assert str(err.value) == f"{p}: row 2, column 1: label {cell!r} is not an integer"


def test_label_at_int64_minimum_is_kept(tmp_path):
    p = tmp_path / "in.csv"
    p.write_text("1.0,-9223372036854775808\n2.0,4611686018427387904\n")
    assert load_csv(p, label_column=1).labels.tolist() == [-(2**63), 2**62]


def test_row_numbers_and_faults_past_the_first_chunks(tmp_path):
    # 1,000 data rows with blank and whitespace-only records sprinkled in, so
    # that row numbers are not data-row counts, and faults sit far into the file.
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(1000, 3))
    lines, row_of = ["a,b,c,label"], []
    for i, p in enumerate(pts.tolist()):
        if i % 97 == 5:
            lines.append("")
        if i % 131 == 7:
            lines.append("   ")
        lines.append(",".join(map(repr, p)) + f",{i % 4}")
        row_of.append(len(lines))
    path = tmp_path / "big.csv"

    def load_with(first_cells):
        """load_csv of the file with the first cell of some data rows replaced."""
        edited = list(lines)
        for i, cell in first_cells.items():
            row = row_of[i] - 1
            edited[row] = cell + edited[row][edited[row].index(","):]
        path.write_text("\n".join(edited) + "\n")
        return load_csv(path, has_header=True, label_column=3)

    ds = load_with({})
    assert ds.points.tobytes() == pts.tobytes()
    assert ds.labels.tolist() == [i % 4 for i in range(1000)]
    for i, cell, problem in [(917, "1e999", "non-finite value '1e999'"),
                             (640, "x", "cannot parse value 'x'")]:
        with pytest.raises(ValueError) as err:
            load_with({i: cell})
        assert str(err.value) == f"{path}: row {row_of[i]}, column 0: {problem}"

    # a ragged row is reported only after every cell of the rows before it
    lines[row_of[700] - 1] += ",9"
    with pytest.raises(ValueError) as err:
        load_with({600: "nan"})
    assert str(err.value) == f"{path}: row {row_of[600]}, column 0: non-finite value 'nan'"
    with pytest.raises(ValueError) as err:
        load_with({})
    assert str(err.value) == f"{path}: row {row_of[700]} has 5 columns, expected 4"


def _traced_peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_csv_io_memory_is_bounded_by_a_chunk(tmp_path):
    # Peaks on blobs10k (Python 3.11, numpy 2.4), in MiB.  numpy's C reader
    # measures 0.79, the Python reader on a quoted copy, which numpy's reader
    # refuses, 0.75, and the chunked writer 0.083.  A Python reader that
    # keeps a list of floats, not 8 bytes a cell, measures 1.40 on the quoted
    # copy, csv loops that held a list of Python floats per row 1.93 and
    # 0.203, and reading or writing the whole file in one go 2.69 and 1.73,
    # so these bounds catch each of them.
    ds = generate(BUNDLED_DATASETS["blobs10k"])
    assignment, ballset = cluster(ds)
    path, quoted = tmp_path / "blobs10k.csv", tmp_path / "quoted.csv"
    save_dataset(path, ds)
    with open(path, newline="") as src, open(quoted, "w", newline="") as dst:
        csv.writer(dst, quoting=csv.QUOTE_ALL).writerows(csv.reader(src))
    assert _c_table(quoted, has_header=True) is None
    for p in (path, quoted):
        assert _traced_peak_mb(lambda: load_csv(p, has_header=True, label_column=2)) <= 1.1
    assert _traced_peak_mb(lambda: save_results(tmp_path / "r", ds, assignment, ballset)) <= 0.203
