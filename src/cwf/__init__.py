"""cwf: a numerical laboratory for multi-user variable-length coding with
early termination, interference cancellation, queued arrivals, and
threshold-based water-filling power allocation.

Analytic average-length formulas live in `cwf.lengths`, the matching Monte
Carlo oracles in `cwf.simulate`, power allocation in `cwf.waterfill`, and
the reproduction harness behind the `cwf` CLI in `cwf.sweeps`/`cwf.validate`.
"""

__version__ = "0.1.0"

from .channel import capacity, dispersion, info_density_increment, sinr_awgn, sinr_fading
from .lengths import (
    AwgnScenario,
    QueueBreakdown,
    QueueScenario,
    awgn_vlsf_lengths,
    fading_vlsf_coeffs,
    fixed_length_blocklength,
    message_threshold,
    queue_vlsf_lengths,
    rayleigh_order_means,
)
from .simulate import (
    ErrorRateEstimate,
    StoppingOutcome,
    TrialPlan,
    simulate_awgn_multiuser,
    simulate_block_fading,
    simulate_error_probability,
    simulate_queue,
)
from .waterfill import (
    FastFadingScenario,
    ThresholdSearchResult,
    capacity_lower_bound,
    optimize_threshold,
    single_user_threshold,
)

__all__ = [name for name in dir() if not name.startswith("_")]
