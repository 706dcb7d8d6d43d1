"""Loading a CSV dataset, normalizing it, and building stratified CV folds.

Run from the repository root: python3 demos/01_dataset_and_folds.py
"""

import tempfile
from pathlib import Path

import numpy as np

from hhfs.dataset import load_csv, min_max_normalize, stratified_folds

# Write a small UCI-style CSV: numeric feature columns, string labels in
# the last column, one '?' cell that the loader will mean-impute.
rows = [
    "5.1,140,0.7,benign",
    "4.9,?,0.4,benign",
    "6.3,155,0.9,malign",
    "5.8,150,0.8,malign",
    "5.0,138,0.5,benign",
    "6.1,160,1.0,malign",
    "4.7,135,0.3,benign",
    "6.0,152,0.9,malign",
]
with tempfile.TemporaryDirectory() as workdir:
    csv_path = Path(workdir) / "toy.csv"
    csv_path.write_text("\n".join(rows) + "\n")
    dataset = load_csv(csv_path, label_column=-1, name="toy")

print(f"loaded {dataset.name}: {dataset.n_instances} instances, "
      f"{dataset.n_features} features, {dataset.class_count} classes")
print("labels densified in order of first appearance:", dataset.labels.tolist())
print("imputed cell (row 1, col 1):", dataset.features[1, 1],
      "= mean of the observed column values")

# Distance-based classification needs commensurable feature scales, so
# every column is rescaled to [0, 1] before anything else happens.
normalized = min_max_normalize(dataset)
print("\ncolumn ranges after normalization:")
print("  min:", normalized.features.min(axis=0))
print("  max:", normalized.features.max(axis=0))

# Stratified fold assignment: members of each class are shuffled with the
# seed and dealt round-robin, so per-class counts differ by at most one
# between folds, and the same seed always gives the same folds.
fold_of = stratified_folds(normalized, k=4, seed=42)
print("\nfold of each instance:", fold_of.tolist())
print("per-fold class counts (rows = folds):")
for fold in range(4):
    print(f"  fold {fold}:", np.bincount(normalized.labels[fold_of == fold],
                                       minlength=normalized.class_count).tolist())

again = stratified_folds(normalized, k=4, seed=42)
print("same seed, same folds:", np.array_equal(fold_of, again))
