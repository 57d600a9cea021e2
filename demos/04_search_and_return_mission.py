#!/usr/bin/env python3
"""A full coordination mission, tick by tick.

"coordination" names the return mission: the vehicle takes off from the
carrier robot, searches forward for the pink target, hovers over it,
retraces its motion log, reacquires the carrier's blue pad, and lands back
on it.  Prints the FSM timeline and writes the per-tick trajectory CSV.
"""

import math
from pathlib import Path

from visnav import default_scenario, run, write_trajectory_csv

scenario = default_scenario("coordination")
print(f"mission: {scenario.spec.kind.value}, search={scenario.spec.search_color.name}, "
      f"home={scenario.spec.home_color.name}, timeout={scenario.spec.timeout}s")
print(f"world: pink marker at {scenario.markers[0].position}, carrier at "
      f"{scenario.carrier_start or scenario.drone_start}, "
      f"drift {scenario.cfg.noise.drift_std} m/s, "
      f"takeoff jitter {scenario.cfg.noise.takeoff_jitter_std} m\n")

world = scenario.make_world(seed=7)
result = run(scenario.spec, world, scenario.cfg)

print("FSM timeline:")
prev = None
for row in result.rows:
    phase = row.fsm_state.split(":", 1)[0]
    if phase != prev:
        print(f"  t={row.time_s:6.1f}s  step {row.step:4d}  -> {row.fsm_state:24s} "
              f"pos ({row.drone_x:+.3f},{row.drone_y:+.3f},{row.drone_z:.2f})")
        prev = phase

home = scenario.drone_start
dist = math.hypot(result.final_pose.x - home[0], result.final_pose.y - home[1])
print(f"\noutcome: {result.outcome} after {result.elapsed_s:.1f} s ({result.ticks} ticks)")
print(f"final pose ({result.final_pose.x:+.3f},{result.final_pose.y:+.3f},"
      f"{result.final_pose.z:.2f}), {dist * 100:.1f} cm from the pad")

out = Path.cwd() / "coordination_trajectory.csv"
write_trajectory_csv(result.rows, out)
print(f"wrote {out}")
