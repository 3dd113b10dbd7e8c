"""Priority-scheduled parameter synchronization: runtime, baseline, and simulator."""

from .hashing import digest64, gradient_block, gradient_value, splitmix64_mix
from .model import BUILTIN_NAMES, LayerSpec, ModelProfile, builtin_profile, load_profile, save_profile, total_params
from .plan import (
    BASELINE_MODE,
    P3_MODE,
    Slice,
    SliceKey,
    SlicePlan,
    make_baseline_plan,
    make_p3_plan,
    make_plan,
    priority_sort_key,
)
from .proto import Frame, FrameDecoder, MsgType, ProtocolError, encode_frame, try_decode
from .queues import DeadlockError, FrameQueue
from .server import ServerEngine, ShardState, bcast_frames
from .sim import (
    AGGRESSIVE_COARSE,
    AGGRESSIVE_SLICED,
    PRIORITY_SLICED,
    Scenario,
    StageCost,
    Timeline,
    load_scenario,
    save_scenario,
    scenario_from_plan,
    simulate,
)
from .transport import TokenBucket
from .worker import TrainingWorker, WorkerConfig

__version__ = "0.1.0"
