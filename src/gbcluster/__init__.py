"""Granular-ball clustering: adaptive coarse-to-fine clustering without
algorithmic parameters, plus K-Means/DBSCAN/DPeak baselines, evaluation
metrics, synthetic data generators, and a benchmarking CLI."""

from .core import NOISE, BallSet, ClusterAssignment, Dataset, fit_ball
from .differentiation import cluster
from .division import DivisionTrace, generate_balls
from .data import GeneratorSpec, generate, load_csv, save_results

__version__ = "0.1.0"

__all__ = [
    "NOISE",
    "BallSet",
    "ClusterAssignment",
    "Dataset",
    "DivisionTrace",
    "GeneratorSpec",
    "cluster",
    "fit_ball",
    "generate",
    "generate_balls",
    "load_csv",
    "save_results",
    "__version__",
]
