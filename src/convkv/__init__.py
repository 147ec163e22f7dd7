"""Desk-scale decoder-only transformer with a pluggable fixed-size KV cache.

The cache layer is the point: plain concatenation, heavy-hitter and
sink+window eviction, convolutional token merging, and merge+pin hybrids all
implement the same update contract, so they can be swapped per run and
compared on equal footing with exact memory instrumentation.
"""

from .attention import (
    AttentionParams,
    RopeConfig,
    apply_rope,
    project_qkv,
)
from .cache import (
    CacheError,
    KeepRule,
    KvCache,
    update_concat,
    update_h2o,
    update_sink_window,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .compressor import (
    ConvHead,
    FusionWeights,
    compress_step,
    fuse,
    new_conv_head,
    synthesize_weights,
)
from .instrumentation import MemoryTrace, PolicyReport, compare_policies
from .model import (
    ModelConfig,
    ModelParams,
    forward_segmented,
    generate,
    perplexity,
    sequence_loss,
)
from .numerics import (
    ConvKernels,
    GradTape,
    NonFiniteError,
    NumericsError,
    ShapeError,
    TapeError,
    Tensor2,
    backward,
    conv1d,
    matmul,
    relu,
    softmax_cols,
)
from .policies import POLICY_NAMES, PolicySpec
from .training import (
    AdamState,
    TrainConfig,
    TrainingDivergedError,
    adam_step,
    calibrate_conv_heads,
    pretrain,
)

__version__ = "0.1.0"
