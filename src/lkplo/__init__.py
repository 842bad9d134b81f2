"""Two-stage localized kernel projection-based loss outlyingness.

Unsupervised outlier detection that maps data through kernel PCA,
partitions the feature space with k-means, and scores each point by the
maximum robust projection loss within its nearest cluster, weighted by
the inverse cluster size. Includes the cross-validated evaluation
harness, synthetic dataset generators, and a CLI.
"""

from .clustering import InvalidKError, assign_nearest, kmeans_fit
from .data import (
    Dataset,
    gen_inside_outside,
    gen_moons,
    gen_three_gaussians,
    load_csv,
    save_csv,
)
from .evaluation import (
    ExperimentReport,
    Method,
    Protocol,
    StratificationError,
    evaluate_method,
    random_search,
    roc_auc,
    run_ablation,
    stratified_kfold,
)
from .kernel_feature import (
    DegenerateKernelError,
    KernelParams,
    KpcaModel,
    center_gram,
    fit_kpca,
    gram_matrix,
    transform,
)
from .plo import (
    DegenerateDirectionsError,
    DirectionConfig,
    FitConfig,
    LkploModel,
    LossSpec,
    fit,
    gen_directions,
    load_model,
    save_model,
    score,
)

__version__ = "0.1.0"
