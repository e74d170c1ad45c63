"""Massive MIMO CSI toolkit.

Synthetic channel generation, automated measurement-campaign simulation,
bit-exact CSI persistence, downlink precoding and power-map analysis,
location-aware user scheduling and CSI fingerprint localization.
"""

from .model import (
    ArrayGeometry,
    CsiSample,
    Position3,
    RadioConfig,
    SampleGrid,
    TopologyKind,
    Traversal,
)
from .geometry import build_topology, default_positioner_grids, grid_positions
from .channel import (
    ChannelConfig,
    NoiseSpec,
    Scatterer,
    add_noise,
    los_channel,
    multipath_channel,
    pilot_frequencies,
)
from .dataio import DatasetIndex, SampleRecord, iter_samples, load_index, read_sample, write_sample
from .dsp import (
    LinkBudget,
    PowerMap,
    PrecodingScheme,
    PrecodingWeights,
    group_spectral_efficiency,
    max_served_users,
    mrt_weights,
    normalize_power_maps,
    power_map,
    received_power,
    zf_weights,
)
from .scheduling import PoolUser, Schedule, UserPool, def_schedule, evaluate_schedule, sus_select
from .localization import (
    FeatureConfig,
    FeatureMode,
    FingerprintDb,
    build_fingerprints,
    evaluate_localizer,
    extract_features,
    knn_locate,
)
from .campaign import (
    CampaignPlan,
    CaptureService,
    VirtualPositioner,
    default_campaign_plan,
    plan_traversal,
    run_campaign,
    simulate_campaign,
    trigger_capture,
)

__version__ = "0.1.0"
