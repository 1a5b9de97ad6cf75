"""Nonlinear regression substrate for signature calibration.

The paper's FASTest Runtime System (Figure 5) extracts "normalized
calibration relationships between the specifications and signatures"
using "nonlinear regression techniques" [refs 4, 9].  scikit-learn is not
a dependency; the needed pieces are implemented here from scratch:

* :mod:`repro.regression.scaling` -- feature/target standardization (the
  "normalization" boxes of Figure 5).
* :mod:`repro.regression.linear` -- ordinary and ridge least squares.
* :mod:`repro.regression.pca` -- principal-component compression of the
  FFT-bin signatures.
* :mod:`repro.regression.polynomial` -- polynomial feature expansion over
  ridge.
* :mod:`repro.regression.knn` -- distance-weighted nearest neighbours.
* :mod:`repro.regression.mars` -- forward-stagewise adaptive hinge
  regression (MARS-style).
* :mod:`repro.regression.model_select` -- k-fold cross-validation and
  model selection.
* :mod:`repro.regression.metrics` -- RMS error, std(err) and friends, the
  statistics the paper reports under Figures 8-13.
* :mod:`repro.regression.rowwise` -- the batch-size-invariant matrix
  product every predict path uses, so a device's predicted specs do not
  depend on the lot chunk it was predicted in.
"""

from repro.regression.scaling import StandardScaler
from repro.regression.linear import LinearRegression, RidgeRegression
from repro.regression.pca import PCA
from repro.regression.polynomial import PolynomialFeatures, PolynomialRidge
from repro.regression.knn import KNNRegressor
from repro.regression.mars import MARSRegressor
from repro.regression.pipeline import Pipeline
from repro.regression.model_select import (
    kfold_indices,
    cross_val_rmse,
    select_best_model,
)
from repro.regression.metrics import rmse, std_err, mae, r2_score, bias

__all__ = [
    "StandardScaler",
    "LinearRegression",
    "RidgeRegression",
    "PCA",
    "PolynomialFeatures",
    "PolynomialRidge",
    "KNNRegressor",
    "MARSRegressor",
    "Pipeline",
    "kfold_indices",
    "cross_val_rmse",
    "select_best_model",
    "rmse",
    "std_err",
    "mae",
    "r2_score",
    "bias",
]
