"""Few-shot continual event detection with a frozen transformer backbone,
pooled low-rank experts with instance-level routing, rehearsal memory,
label-description contrast, and two-level distillation."""

from .tensor import (
    Tensor,
    Adam,
    no_grad,
    grad_enabled,
    grad_check,
    ShapeError,
    GraphError,
    DegenerateVectorError,
    NumericalError,
)
from .encoder import (
    EncoderConfig,
    EncoderWeights,
    Vocab,
    tokenize,
    encode_base,
    encode_with_experts,
    init_encoder_weights,
    train_base_task,
    save_weights,
    load_weights,
    WEIGHTS_FORMAT_VERSION,
)
from .moe import (
    ExpertPool,
    init_pools,
    select_topk,
    combine_weights,
    route_instance,
    router_loss,
)
from .objectives import (
    LossWeights,
    LossBreakdown,
    DetectorHead,
    ce_loss,
    label_contrastive_loss,
    feature_distill_loss,
    prediction_distill_loss,
    total_loss,
)
from .descriptions import (
    DescriptionBank,
    load_descriptions,
    encode_bank,
    subset_bank,
    export_prompt_template,
)
from .data_synth import (
    GeneratorSpec,
    Dataset,
    Instance,
    generate,
    write_jsonl,
    load_jsonl,
    classifier_separability_probe,
)
from .metrics import (
    micro_f1,
    macro_f1,
    MetricMatrix,
    forgetting,
    aggregate_runs,
    format_cell,
)
from .continual import (
    TaskSpec,
    TaskStream,
    MemoryBuffer,
    TrainConfig,
    ModelState,
    init_state,
    build_stream,
    train_task,
    predict,
    run_experiment,
    select_exemplar,
)

__version__ = "0.1.0"

__all__ = [
    "Tensor", "Adam", "no_grad", "grad_enabled", "grad_check",
    "ShapeError", "GraphError", "DegenerateVectorError", "NumericalError",
    "EncoderConfig", "EncoderWeights", "Vocab", "tokenize",
    "encode_base", "encode_with_experts", "init_encoder_weights",
    "train_base_task", "save_weights", "load_weights",
    "WEIGHTS_FORMAT_VERSION",
    "ExpertPool", "init_pools",
    "select_topk", "combine_weights", "route_instance", "router_loss",
    "LossWeights", "LossBreakdown", "DetectorHead", "ce_loss",
    "label_contrastive_loss", "feature_distill_loss",
    "prediction_distill_loss", "total_loss",
    "DescriptionBank", "load_descriptions", "encode_bank",
    "subset_bank", "export_prompt_template",
    "GeneratorSpec", "Dataset", "Instance", "generate",
    "write_jsonl", "load_jsonl", "classifier_separability_probe",
    "micro_f1", "macro_f1", "MetricMatrix", "forgetting",
    "aggregate_runs", "format_cell",
    "TaskSpec", "TaskStream", "MemoryBuffer", "TrainConfig",
    "ModelState", "init_state", "build_stream", "train_task",
    "predict", "run_experiment", "select_exemplar",
    "__version__",
]
