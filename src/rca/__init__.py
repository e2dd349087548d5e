"""Relative contrastive alignment of tag, region, and caption embeddings."""

from .core import ContrastiveInstance, compatibility
from .errors import (
    ConfigError,
    DegenerateEmbeddingError,
    DimensionError,
    DivergenceError,
    EmptyInputError,
    InsufficientVocabularyError,
    InvalidWeightError,
    ParseError,
    ValidationError,
)
from .gradients import finite_diff_grad, gradient_check, loss_and_grad
from .losses import GradientBundle, LossBreakdown, total_loss
from .tags import TagRef, rank_tags, subsample
from .trainer import (
    SyntheticConfig,
    TrainerConfig,
    TrainState,
    evaluate_retrieval,
    generate_synthetic,
    initial_state,
    train_alignment,
)
from .uasr import UasrResult, apply_uasr

__version__ = "0.1.0"
