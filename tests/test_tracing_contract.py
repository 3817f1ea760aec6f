"""The benchmark's tracer finds every package name it wraps or reads.

A name the tracer no longer finds turns its per-layer metrics into absent
values, and a benchmark result without them is not a result.  So this
test runs the tracer over one cluster() call and one `gbcluster run`, and
asks for every per-layer metric.
"""

import json
import sys
from pathlib import Path

import numpy as np

from gbcluster import cli  # imports every module whose names the tracer wraps
from gbcluster.data import BUNDLED_DATASETS, generate, save_dataset
from gbcluster.differentiation import cluster

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from tracing import LAYER_METRICS, Tracer  # noqa: E402


def test_tracer_wraps_every_name_and_reports_every_layer_metric(tmp_path, capsys):
    tracer = Tracer()
    assert tracer.absent == set()
    data = generate(BUNDLED_DATASETS["blobs5"])
    save_dataset(tmp_path / "blobs5.csv", data)
    with tracer.installed():
        assignment, _ = cluster(data)
        code = cli.main(["run", "--algo", "gbc", "--in", str(tmp_path / "blobs5.csv"),
                         "--out", str(tmp_path / "res")])
    capsys.readouterr()
    assert code == 0 and assignment.cluster_count == 5
    layer = tracer.layer_metrics()
    assert tracer.absent == set()
    assert [name for name in LAYER_METRICS if layer.get(name) is None] == []
    assert all(np.isfinite(layer[name]) for name in LAYER_METRICS)
    json.dumps(layer, allow_nan=False)
    # both operations were seen: two divisions, one CSV read and one write
    assert layer["data.rows_read"] == len(data) and layer["data.bytes_written"] > 0
    assert layer["division.divide_rounds"] > 0 and layer["core.fit_ball_calls"] == 2
