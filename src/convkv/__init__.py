"""Desk-scale decoder-only transformer with a pluggable fixed-size KV cache.

The cache layer is the point: plain concatenation, heavy-hitter and
sink+window eviction, convolutional token merging, and merge+pin hybrids all
implement the same update contract, so they can be swapped per run and
compared on equal footing with exact memory instrumentation.
"""

from .attention import (
    AttentionParams,
    RopeConfig,
    SegmentStream,
    apply_rope,
    full_causal_attention,
    project_qkv,
)
from .cache import (
    CacheError,
    HeavyHitterState,
    KvCache,
    SinkWindowState,
    update_concat,
    update_h2o,
    update_sink_window,
)
from .checkpoint import (
    has_conv_heads,
    load_checkpoint,
    save_checkpoint,
    strip_conv_heads,
)
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
