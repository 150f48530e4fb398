"""Time series classification with windowed symbolic Fourier features.

Sliding windows of many lengths are summarized as short discrete
words, counted into a sparse bag augmented with predecessor pairs,
pruned by a chi-squared filter, and scored by a regularized linear
model. See fit_weasel for the end-to-end entry point.
"""

from .bop import BagOfPatterns, build_bag, pack_words, unigram_keys, bigram_keys, unpack_key, window_lengths
from .errors import (
    ConfigError,
    InsufficientClassesError,
    NumericInputError,
    ParseError,
    SelectionError,
    ShapeError,
    TooShortError,
    WeaselError,
    WindowLengthError,
)
from .fourier import sliding_ri_columns, window_ri_matrix
from .harness import BenchRow, BenchmarkReport, nn_accuracy, nn_euclidean, run_benchmark
from .linear import LinearModel, decision_scores, train_linear
from .selection import DEFAULT_CHI2_THRESHOLD, FeatureDictionary, chi_squared_filter, chi_squared_stats, vectorize, vectorize_all
from .symbolic import (
    SymbolicModel,
    equi_depth_bins,
    fit_bins,
    fit_symbolic_model,
    select_coefficients,
    sliding_symbols,
)
from .ts import DEFAULT_EPSILON, LabeledDataset, TimeSeries
from .ucr import load_ucr, load_ucr_file
from .weasel import (
    WeaselConfig,
    WeaselModel,
    deserialize_model,
    fit_weasel,
    load_model,
    save_model,
    serialize_model,
    variant_name,
)

__version__ = "0.1.0"
