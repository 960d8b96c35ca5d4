"""Event-based binary video hashing for segment copy detection.

Pipeline: raw frames -> DCT features -> recurrent binary autoencoder ->
event-segmented variable-length hash codes -> Hamming-distance retrieval.
"""

from .ingest import (
    FeatureSequence,
    FrameSequence,
    NormStats,
    compute_norm_stats,
    crop_rows,
    dct_features,
    downscale_gray64,
    drop_alternate,
    extract_features,
    kept_frame_index,
    load_feat,
    load_fseq,
    load_norm_stats,
    normalize,
    resample_to_25fps,
    write_feat,
    write_fseq,
    write_norm_stats,
)
from .model import (
    Autoencoder,
    EncodeResult,
    build_model,
    decode,
    encode,
    encode_batch,
    encoder_len,
    forward,
    load_model,
    save_model,
)
from .losses import (
    LossBreakdown,
    TrainConfig,
    diversity_loss,
    memory_loss,
    recon_loss,
    total_loss,
    train,
    write_loss_log,
)

__all__ = [name for name in dir() if not name.startswith("_")]
