"""beamtrack: 2D phased-array beam and channel tracking.

Library layout:

- :mod:`beamtrack.arrays` -- array geometry, steering vectors, probe
  kernels, element pattern
- :mod:`beamtrack.signal` -- probing beams, observations, noiseless recovery
- :mod:`beamtrack.estimation` -- Fisher information and CRLBs (finite and
  large-array limits) for both observation models
- :mod:`beamtrack.offsets` -- optimal exploration-offset search
- :mod:`beamtrack.trackers` -- recursive trackers, mean-field map, baselines
- :mod:`beamtrack.channels` -- ground-truth channel scenarios
- :mod:`beamtrack.harness` -- Monte-Carlo experiments and CSV emission
- :mod:`beamtrack.cli` -- the ``beamtrack`` command

By the shift property every quantity of a cycle (the noiseless
observation, both Fisher matrices, the tracker updates) depends on the
three probe kernels g, k1, k2 only, and the library computes it from
them, O(1) per probe.  The explicit O(MN) steering matrices (W^H a,
W^H J) are test oracles in ``tests/reference.py``.
"""

from .arrays import (Aoa, ArrayConfig, OutOfPhysicalRange, PatternConfig,
                     aoa_from_dpv, beam_gain_kernel, dpv_from_aoa,
                     element_gain_db, steering_vector)
from .channels import DynamicI, DynamicII, QuasiStatic, ScenarioConfig
from .estimation import (DiModel, SingularFisher, crlb_di,
                         crlb_di_asymptotic, crlb_static,
                         crlb_static_asymptotic, fisher_di, fisher_static)
from .harness import (ConfigError, ExperimentConfig, MetricsRecord, emit_csv,
                      run_experiment)
from .offsets import (FADING_OFFSETS, STATIC_OFFSETS, DiAsymptotic, DiFinite,
                      NoImprovement, SearchConfig, SearchResult,
                      StaticAsymptotic, StaticFinite, canonicalize,
                      optimize_offsets, robustness_sweep)
from .signal import (AmbiguousSolution, ChannelParams, Ebm, NoSolution,
                     OffsetSet, build_ebm, noiseless_mean,
                     recover_from_noiseless)
from .trackers import ConstantStep, DiminishingStep, count_ops, mean_field

__version__ = "0.1.0"
