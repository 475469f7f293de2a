"""Extensions beyond the PhaseBeat paper.

* :mod:`repro.extensions.tensor` / :mod:`repro.extensions.tensorbeat` —
  the authors' follow-up direction (TensorBeat, paper ref. [23]):
  multi-person breathing via Hankel-tensor CP decomposition.
* :mod:`repro.extensions.csi_ratio` — the FarSense-style complex CSI
  ratio: the same error cancellation as the phase difference, plus
  null-point robustness from the complex-plane principal axis.
"""

from .csi_ratio import CsiRatioEstimator, csi_ratio_series
from .tensor import CPDecomposition, cp_als, khatri_rao, unfold
from .tensorbeat import hankel_tensor, tensorbeat_breathing_bpm

__all__ = [
    "CPDecomposition",
    "CsiRatioEstimator",
    "csi_ratio_series",
    "cp_als",
    "hankel_tensor",
    "khatri_rao",
    "tensorbeat_breathing_bpm",
    "unfold",
]
