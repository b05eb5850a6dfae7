"""Few-shot continual event detection with a frozen transformer backbone,
pooled low-rank experts with instance-level routing, rehearsal memory,
label-description contrast, and two-level distillation."""
