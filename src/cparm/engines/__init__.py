"""Decision engines consuming the selected feature subset."""

from .encoding import ColumnSpec, FeatureEncoder, FeatureMatrix, encode
from .naive_bayes import NBModel, nb_fit, nb_predict
from .logistic import LRModel, lr_fit, lr_predict
from .em import EMModel, em_fit, em_predict, map_clusters, responsibilities

__all__ = [
    "ColumnSpec",
    "FeatureEncoder",
    "FeatureMatrix",
    "encode",
    "NBModel",
    "nb_fit",
    "nb_predict",
    "LRModel",
    "lr_fit",
    "lr_predict",
    "EMModel",
    "em_fit",
    "em_predict",
    "map_clusters",
    "responsibilities",
]
