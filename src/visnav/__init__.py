"""visnav: vision-based moving-target navigation for a camera-down drone.

A small numpy library that closes the loop a search drone flies: pinhole
geometry for the bottom camera, color-blob perception over synthetic
frames, a proportional pixel-error controller, imagined out-of-frame
targets for search patterns and trajectory reversal, a deterministic
seeded world simulator, mission state machines, scenario config files,
and a campaign harness for seeded Monte-Carlo experiments.
"""

from .control import (ZERO_COMMAND, ControllerGains, PixelError, VelocityCommand,
                      compute_command, pixel_error)
from .geometry import (FrameSpec, GroundedError, PixelPoint, Pose, ground_footprint,
                       in_frame, project)
from .harness import (CampaignStats, InsufficientDataError, MalformedLogError, TrialRecord,
                      path_spread, run_campaign, sample_stats)
from .imagination import (DEFAULT_OFFSET_PX, Distance, Duration, EmptyLogError,
                          ImaginedSegment, ImaginedTrajectory, LogEntry,
                          MarkerDetected, MotionLog, forward_target, offset_target,
                          reflect_about_center, reverse, square_trajectory)
from .mission import (AbsorbingStateError, MissionResult, MissionState, Phase,
                      audit_transitions, fly_trajectory, initial_state, run, tick)
from .perception import (Color, Detection, Frame, Marker, detect, frame_filename,
                         render, write_ppm)
from .scenario import (Campaign, MissionKind, MissionSpec, Scenario, ScenarioError,
                       default_scenario, forward_search_trajectory, load_campaign)
from .sim import (NoiseModel, SimConfig, TrajectoryRow, WorldState, capture,
                  make_world, step, write_trajectory_csv)

__version__ = "1.0.0"
