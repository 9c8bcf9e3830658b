"""Eye-based face normalization and a landmark perturbation sweep.

Shows the similarity transform into the 64x80 canonical frame, the
normalized landmark error measure, and how a matcher trained at one
operating point degrades when eye coordinates are systematically wrong.
"""

import math

import numpy as np

from veriq.alignment import (
    EyePair,
    build_transform,
    canonical_eyes,
    default_fixed_grid,
    jesorsky,
    map_eyes,
    perturb_fixed,
    sweep_grid,
)

source = EyePair((210.0, 310.0), (292.0, 295.0), "original")
transform = build_transform(source)
normalized = map_eyes(transform, source)
print("source eyes", source.left, source.right)
print(f"scale {transform.scale:.4f}, rotation {math.degrees(transform.angle):.2f} deg")
print("normalized ", tuple(round(v, 10) for v in normalized.left),
      tuple(round(v, 10) for v in normalized.right))
print("canonical  ", canonical_eyes().left, canonical_eyes().right)

detected = EyePair((214.0, 313.0), (290.0, 298.0), "original")
print(f"\nJesorsky error of a detector 3-4 px off: {jesorsky(source, detected):.4f}")

# perturbation sweep: score tables keyed by (theta, tx, ty); the baseline
# cell freezes the decision threshold for every other cell
rng = np.random.default_rng(7)
grid = [(t, tx, ty) for (t, tx, ty) in default_fixed_grid()
        if tx in (-9, 0, 9) and ty == 0]
tables = {}
for theta, tx, ty in grid:
    # displacement degrades match scores; nonmatch scores stay put
    shaken = perturb_fixed(canonical_eyes(), theta, tx, ty)
    displacement = jesorsky(canonical_eyes(), shaken)
    match = rng.normal(3.0 - 6.0 * displacement, 0.5, 400)
    nonmatch = rng.normal(0.0, 0.5, 400)
    tables[(theta, tx, ty)] = (match, nonmatch)

cells, skipped = sweep_grid(tables, grid)
print(f"\n{len(cells)} cells evaluated, {len(skipped)} skipped")
print("theta   tx    hter    auc")
for cell in cells:
    theta, tx, ty = cell.params
    if theta in (-20, -10, 0, 10, 20):
        print(f"{theta:5.0f}  {tx:3.0f}  {cell.hter:.4f}  {cell.auc:.4f}")
