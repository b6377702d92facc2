from .adam import AdamState, adam_step
from .checkpoint import load_checkpoint, save_checkpoint
from .losses import LossValue, binary_cross_entropy, categorical_cross_entropy, composite_loss
from .network import (
    INFER, INFER_BLOCK_ROWS, TRAIN, Gradients, Network, clone_network, init_network,
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
