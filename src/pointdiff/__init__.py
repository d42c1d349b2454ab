"""Masked-autoencoder + conditional-diffusion point-cloud reconstruction.

Library layout:

- ``geometry``: FPS/KNN segmentation, masking, reassembly
- ``engine``: numpy tensor autograd, Adam, the ``precision`` switch
- ``model``: encoder/decoder networks and embeddings
- ``diffusion``: noise schedule, forward corruption, reverse sampler
- ``metrics``: Chamfer/Hausdorff/MMD/1-NN/JSD evaluation
- ``training``: pretraining and decoder-training loops, checkpoints
- ``data_io``: PLY/XYZ files, normalization, synthetic shapes
- ``tasks``: reconstruction, completion, upsampling, compression codec
- ``cli``: the ``pointdiff`` command

Compute runs in 64-bit floats unless POINTDIFF_PRECISION=32 is set at import;
``with pointdiff.precision(32):`` switches the width for a block.
"""

__version__ = "0.1.0"

from .engine import precision  # noqa: F401
from .geometry import PointCloud, PatchSet, MaskSpec, MaskStrategy  # noqa: F401
from .model import Model, ModelConfig, LatentSet  # noqa: F401
from .diffusion import build_schedule, NoiseSchedule  # noqa: F401
from .training import TrainConfig, LossSetting  # noqa: F401
