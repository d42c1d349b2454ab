"""Segmentation and masking walkthrough.

Builds a synthetic torus, splits it into FPS/KNN patches, masks 75% of them
with both strategies, and writes the visible remainder next to the original
so the two can be compared in any PLY viewer.
"""

import numpy as np

from pointdiff import data_io
from pointdiff.geometry import apply_mask, assemble, segment

cloud = data_io.synth_shape("torus", 2048, seed=0)
print(f"torus: {len(cloud)} points in [-0.5, 0.5]^3")

G, group_size = 64, 32
ps = segment(cloud, G, group_size)
print(f"segmented into {ps.num_groups} patches of {group_size} points")
print("first three centers:\n", np.round(ps.centers[:3], 3))

for strategy in ("random", "block"):
    mask = apply_mask(G, 0.75, strategy, rng_seed=7, centers=ps.centers)
    vis = mask.visible_indices
    visible = assemble(ps.centers[vis], ps.patches[vis])
    out = f"demo_torus_visible_{strategy}.ply"
    data_io.save_cloud(visible, out)
    print(f"{strategy:>6}: masked {mask.masked_indices.size}/{G} patches; "
          f"visible remainder ({len(visible)} points) -> {out}")

data_io.save_cloud(cloud, "demo_torus_full.ply")
print("full shape -> demo_torus_full.ply")
