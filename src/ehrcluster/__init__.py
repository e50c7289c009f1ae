"""Deep and traditional clustering benchmark toolkit for tabular cohorts."""

__version__ = "0.1.0"

from .data import (  # noqa: F401
    Dataset,
    FeatureSpec,
    ScalerParams,
    SyntheticSpec,
    apply_bounds,
    filter_missing_rate,
    generate_synthetic,
    impute_median,
    load_csv,
    load_feature_schema,
    preprocess,
    standardize,
    stratified_subsample,
)
from .traditional import (  # noqa: F401
    GmmModel,
    KMeansModel,
    gmm_fit,
    gmm_predict,
    kmeans_fit,
    kmeans_predict,
)
from .autoencoder import (  # noqa: F401
    AutoencoderModel,
    TrainConfig,
    adam_step,
    backward,
    build,
    encode,
    forward,
    pretrain,
    reconstruction_loss,
)
from .deepcluster import (  # noqa: F401
    DeepClusterConfig,
    DeepClusterModel,
    assign,
    finetune,
    init_clusters,
    joint_loss,
    kl_loss,
    soft_assign_gaussian,
    soft_assign_student_t,
    target_distribution,
)
from .ensemble import (  # noqa: F401
    majority_vote,
    run_dimension_sweep,
    sweep_dims,
)
from .metrics import (  # noqa: F401
    ScoreReport,
    acc,
    ari,
    average_rank,
    contingency,
    hungarian_max,
    nmi,
)
from .experiment import ExperimentConfig, MethodSpec, run_experiment  # noqa: F401
