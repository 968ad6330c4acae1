"""Subclass discriminant analysis over the whole within-subclass eigenspace.

Pipeline: partition each class into subclasses, eigendecompose the
within-subclass scatter, replace the unreliable spectrum tail (null space
included) with a fitted hyperbolic decay, whiten, and extract features from
a second-stage scatter of the whitened data.
"""

from .dataset import (
    LabeledDataset,
    SplitSpec,
    SynthSpec,
    generate_synthetic,
    load_csv,
    load_pairs,
    load_pgm_dir,
    make_gallery_probe_splits,
    save_csv,
    subset,
)
from .errors import (
    ConfigError,
    DataFormatError,
    ModelFormatError,
    PartitionError,
    ProtocolError,
    SpectrumError,
    TrainingError,
    WSSDAError,
)
from .evaluation import (
    IdentificationReport,
    KFoldReport,
    RocReport,
    identification_sweep,
    kfold_pairwise,
    nn_classify,
    pair_scores,
    pair_similarity,
    verification_roc,
)
from .partition import (
    STRATEGIES,
    SubclassPartition,
    TreeParams,
    cluster_kmeans,
    partition_class,
    partition_dataset,
    split_kd,
    split_pca,
    split_rp,
)
from .pipeline import (
    FeatureExtractor,
    ModelMeta,
    TrainConfig,
    TrainingDetails,
    load_model,
    save_model,
    train,
    train_detailed,
)
from .scatter import (
    ScatterMatrix,
    between_subclass_scatter,
    class_means,
    group_means,
    mean_of_class_means,
    total_subclass_scatter,
    within_class_scatter,
    within_subclass_scatter,
)
from .spectrum import (
    Eigenspectrum,
    SpectrumModel,
    eig_symmetric_full,
    find_pivot,
    fit_model,
    flat_model,
    regularize,
    short_tail_model,
    truncated_weights,
)

__version__ = "0.1.0"

