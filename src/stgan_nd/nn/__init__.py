from .adam import AdamState, adam_step
from .checkpoint import load_checkpoint, save_checkpoint
from .layers import INFER, TRAIN
from .losses import LossValue, binary_cross_entropy, categorical_cross_entropy, composite_loss
from .network import (
    INFER_BLOCK_ROWS,
    Gradients,
    Network,
    clone_network,
    clone_parameters,
    init_network,
    restore_parameters,
)
from .specs import (
    LayerSpec,
    NetworkSpec,
    batch_norm,
    dense,
    dropout,
    gaussian_noise,
    linear,
    relu,
    sigmoid,
    softmax,
)
