"""HDC classification with evolutionary flip-budget hypervector design."""

__version__ = "0.1.0"

from .data import (
    Dataset,
    Quantizer,
    calibrate_quantizer,
    export_sample_hypervectors,
    generate_linear,
    generate_motivational,
    load_dataset_csv,
    load_model,
    save_dataset_csv,
    save_model,
)
from .errors import (
    ConfigError,
    ConstraintError,
    DataError,
    DimensionError,
    FormatError,
    HvError,
    ParseError,
    ShapeError,
)
from .evolve import (
    GAConfig,
    ParetoFront,
    evolve_generation,
    hypervolume,
    initialize_population,
    rank_population,
    run_optimization,
)
from .hypervector import (
    FlipBudget,
    LevelTable,
    build_level_table,
    encode_quantized,
    level_vector,
    repair_budget,
    uniform_flip_budget,
)
from .model import (
    Prediction,
    TrainedModel,
    appendix_experiment,
    classify,
    fit_baseline,
    pairwise_similarities,
    predict_batch,
    train_model,
)
from .objectives import (
    CandidateEvaluator,
    ObjectiveScores,
    avg_similarity,
    confusion_matrix,
    total_accuracy,
    weighted_accuracy,
)
