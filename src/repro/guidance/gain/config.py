"""Configuration of information-gain evaluation."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import GuidanceError

#: Supported hypothetical-inference modes.
INFERENCE_MODES = ("meanfield", "gibbs")
#: Supported entropy estimators.
ENTROPY_METHODS = ("approx", "exact")


@dataclass
class GainConfig:
    """Configuration of information-gain evaluation.

    Attributes:
        inference_mode: ``"meanfield"`` or ``"gibbs"`` hypothetical updates.
        entropy_method: ``"approx"`` (Eq. 13) or ``"exact"`` (component
            enumeration with fallback to the approximation).
        localize: Restrict hypothetical inference and entropy differences
            to the candidate's connected component (§5.1).
        meanfield_steps: Fixed-point iterations in mean-field mode.
        damping: Mean-field damping factor in [0, 1); higher is smoother.
        gibbs_burn_in / gibbs_samples: Schedule of the throwaway chain in
            Gibbs mode.

    Every field changes the gains.  How candidates are executed (threads,
    worker count, engine) cannot, so the estimator chooses it and it is
    not configurable.
    """

    inference_mode: str = "meanfield"
    entropy_method: str = "approx"
    localize: bool = True
    meanfield_steps: int = 3
    damping: float = 0.3
    gibbs_burn_in: int = 3
    gibbs_samples: int = 8

    def __post_init__(self) -> None:
        if self.inference_mode not in INFERENCE_MODES:
            raise GuidanceError(
                f"inference_mode must be one of {INFERENCE_MODES}, "
                f"got {self.inference_mode!r}",
                field="inference_mode",
            )
        if self.entropy_method not in ENTROPY_METHODS:
            raise GuidanceError(
                f"entropy_method must be one of {ENTROPY_METHODS}, "
                f"got {self.entropy_method!r}",
                field="entropy_method",
            )
        if not 0.0 <= self.damping < 1.0:
            raise GuidanceError(
                f"damping must be in [0, 1), got {self.damping}", field="damping"
            )
        if self.meanfield_steps <= 0:
            raise GuidanceError(
                "meanfield_steps must be positive", field="meanfield_steps"
            )
        if self.gibbs_burn_in <= 0:
            raise GuidanceError(
                f"gibbs_burn_in must be positive, got {self.gibbs_burn_in}",
                field="gibbs_burn_in",
            )
        if self.gibbs_samples <= 0:
            raise GuidanceError(
                f"gibbs_samples must be positive, got {self.gibbs_samples}",
                field="gibbs_samples",
            )
