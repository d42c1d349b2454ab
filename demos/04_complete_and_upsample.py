"""Completion and upsampling walkthrough.

Completion fills in the masked fraction of a partial input given the missing
patch centers as side information. Upsampling needs a Config 2 model
(predict_visible=True): every patch is regenerated at upsample_factor
density, so 2048 points become 8192 at factor 4. Both run here with freshly
initialized weights to demonstrate the interfaces and arities; plug in a
trained checkpoint for meaningful geometry.
"""

import numpy as np

from pointdiff import data_io, diffusion, tasks
from pointdiff.geometry import apply_mask, assemble, mask_count, segment
from pointdiff.model import Model, ModelConfig

# --- completion -----------------------------------------------------------
cfg = ModelConfig(latent_width=64, enc_blocks=2, enc_heads=2,
                  dec_blocks=1, dec_heads=2,
                  num_groups=16, group_size=32, timesteps=20)
model = Model.create(cfg, seed=0)
schedule = diffusion.build_schedule(cfg.timesteps)

cloud = data_io.synth_shape("cylinder", 512, seed=4)
ps = segment(cloud, cfg.num_groups, cfg.group_size)
mask = apply_mask(cfg.num_groups, cfg.mask_ratio, "block", 2, centers=ps.centers)
vis = mask.visible_indices
partial = assemble(ps.centers[vis], ps.patches[vis])
print(f"partial input: {len(partial)} of {len(cloud)} points "
      f"({mask.masked_indices.size} patches missing)")

completed = tasks.complete(partial, model, schedule, seed=0,
                           masked_centers=ps.centers[mask.masked_indices])
print(f"completed output: {len(completed)} points")
data_io.save_cloud(completed, "demo_completed.ply")

# --- upsampling -----------------------------------------------------------
up_cfg = ModelConfig(latent_width=64, enc_blocks=2, enc_heads=2,
                     dec_blocks=1, dec_heads=2,
                     num_groups=64, group_size=32, timesteps=20,
                     predict_visible=True, upsample_factor=4)
up_model = Model.create(up_cfg, seed=0)
sparse = data_io.synth_shape("sphere", 2048, seed=5)
dense = tasks.upsample(sparse, up_model, diffusion.build_schedule(20),
                       visible_fraction=0.4, seed=0)
print(f"upsampled {len(sparse)} -> {len(dense)} points (factor "
      f"{up_cfg.upsample_factor})")
data_io.save_cloud(dense, "demo_upsampled.ply")
