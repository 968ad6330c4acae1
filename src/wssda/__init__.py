"""Subclass discriminant analysis over the whole within-subclass eigenspace.

Pipeline: partition each class into subclasses, eigendecompose the
within-subclass scatter, replace the unreliable spectrum tail (null space
included) with a fitted hyperbolic decay, whiten, and extract features from
a second-stage scatter of the whitened data.

The root exports that workflow only, as the README's "Public API" lists it;
the building blocks import from wssda.partition, wssda.scatter and
wssda.spectrum.
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
from .partition import SubclassPartition, TreeParams, partition_dataset
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

__version__ = "0.1.0"

