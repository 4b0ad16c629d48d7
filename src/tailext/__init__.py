"""Long-tail classification toolkit with open-set neighbor-category
expansion: balanced and neighbor-silencing losses, auxiliary curation and
sampling, classifier masking, and a synthetic hierarchy benchmark."""
from __future__ import annotations

from .core import (
    ClassStats,
    ConfigError,
    DataError,
    DivergenceError,
    ExternalServiceError,
    FeatureDataset,
    LabelSpace,
    RunConfig,
    build_label_space,
    derive_rng,
    read_dataset,
    write_dataset,
)
from .losses import (
    BalancedError,
    SilenceWeights,
    bal_ce,
    bal_ce_batch,
    bal_ce_merged,
    balanced_error,
    ns_ce,
    ns_ce_batch,
)
from .metrics import EvalReport, assign_splits, count_rank_gap, evaluate
from .model import (
    ClassifierState,
    TrainLog,
    linear_probe_retrain,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .curation import (
    Candidate,
    CurationConfig,
    FixtureLLMClient,
    FixtureRetriever,
    HttpLLMClient,
    build_prompt,
    compute_prototype,
    cosine,
    curate,
    filter_candidates,
    filter_leaks,
    normalize_name,
    query_neighbors,
)
from .sampling import AuxSamplingPlan, build_plan, derive_ratio, sample_epoch
from .synth import (
    CountProfile,
    HierarchySpec,
    make_auxiliary,
    make_counts,
    make_hierarchy,
)

__version__ = "0.1.0"
