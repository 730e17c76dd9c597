"""Finite-model time-frequency analysis toolkit.

Signals on the cyclic group Z_n^d, short-time Fourier transforms, Gabor
frames, mixed modulation norms, oscillatory-kernel operators, and Schatten
p-norms, plus an experiment harness that measures Schatten-vs-mixed-norm
ratios for a family of boundedness statements.
"""

from .signals import (
    FiniteSignal,
    TFArray,
    constant,
    delta,
    dft,
    idft,
    periodized_gaussian,
    random_signal,
    stft,
    tf_shift,
    wiener_amalgam_norm,
)
from .operators import OperatorMatrix, PhaseTable, QuadraticPhase, SymbolTable
from .mixednorm import (
    ExponentVector,
    Permutation,
    classify_permutation,
    mixed_modulation_norm,
    mixed_norm,
    tensor_window,
)
from .frames import (
    GaborSystem,
    NotAFrameError,
    analyze,
    banach_frame_equivalence,
    canonical_tight_window,
    dual_window,
    frame_bounds,
    frame_operator,
    synthesize,
)
from .fio import (
    apply_chirp,
    build_easy_fio,
    build_hard_fio,
    dft_matrix,
    easy_kernel,
    fio_slice_family,
    quadratic_phase_table,
    taylor_split,
)
from .schatten import (
    SingularSpectrum,
    pair_functional,
    schatten_norm,
    singular_values,
)
from .lab import (
    ConfigError,
    ExperimentConfig,
    Report,
    TrialRecord,
    gen_ensemble,
    make_window,
    ratio_experiment,
    sharpness_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "FiniteSignal", "TFArray", "constant", "delta", "dft", "idft",
    "periodized_gaussian", "random_signal", "stft", "tf_shift",
    "wiener_amalgam_norm",
    "OperatorMatrix", "PhaseTable", "QuadraticPhase", "SymbolTable",
    "ExponentVector", "Permutation", "classify_permutation",
    "mixed_modulation_norm", "mixed_norm", "tensor_window",
    "GaborSystem", "NotAFrameError", "analyze", "banach_frame_equivalence",
    "canonical_tight_window", "dual_window", "frame_bounds",
    "frame_operator", "synthesize",
    "apply_chirp", "build_easy_fio", "build_hard_fio", "dft_matrix",
    "easy_kernel", "fio_slice_family", "quadratic_phase_table",
    "taylor_split",
    "SingularSpectrum", "pair_functional", "schatten_norm",
    "singular_values",
    "ConfigError", "ExperimentConfig", "Report", "TrialRecord",
    "gen_ensemble", "make_window", "ratio_experiment",
    "sharpness_experiment",
]
