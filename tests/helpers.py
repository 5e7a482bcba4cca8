"""Test-only readers of evaluation and observer outputs."""

import csv

import numpy as np

from scanobs.evaluation import LrocCurve
from scanobs.observers import Records


def lroc_trapezoid_area(curve: LrocCurve) -> float:
    return float(np.trapezoid(curve.pcl, curve.fpf))


def records_from_csv(path) -> Records:
    """Read back what observers.records_to_csv wrote."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        n_lam = sum(1 for h in header if h.startswith("lambda_"))
        rows = list(reader)
    lams = np.array([[float(v) for v in row[5:5 + n_lam]] for row in rows])
    binary = (np.array([float(row[4]) for row in rows])
              if rows and rows[0][4] else None)
    return Records(np.array([float(row[2]) for row in rows]),
                   np.array([int(row[3]) for row in rows]),
                   np.array([int(row[1]) for row in rows]),
                   lams.reshape(len(rows), n_lam), binary)
