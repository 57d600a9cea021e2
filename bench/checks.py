"""Correctness checks for the benchmark's workloads.

Every check compares a visnav output with a property the method must have
or with a value computed here without visnav; none compares with a stored
copy of earlier output.  Each returns a list of problems (empty when the
output is right), so the self-tests can feed it deliberately wrong outputs.
"""

from __future__ import annotations

import math
import statistics

from visnav import audit_transitions

#: fsm_state prefixes that make up the return leg of an out-and-back log.
RETURN_PHASES = ("reversing", "servoing_home", "landing", "landed")
#: Landing tolerance in pixels; 20 px at 1 m altitude is 0.0625 m.
LAND_TOLERANCE_PX = 20.0
#: Final label of a successful mission, by mission kind value.
SUCCESS_LABEL = {"track": "hovering_on_target", "forward": "hovering_on_target",
                 "return": "landed", "coordination": "landed"}


class Tally:
    """Operations attempted, failed (the program raised or wrote what it
    cannot read back) and wrong (an output failed a check)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.fail_reasons: dict[str, int] = {}
        self.problems: list[str] = []

    def done(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        self.problems.extend(f"{what}: {p}" for p in problems)

    def failed_op(self, what: str, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.fail_reasons[reason] = self.fail_reasons.get(reason, 0) + 1

    @property
    def correct(self) -> bool:
        return not self.problems


def land_radius(cfg) -> float:
    return LAND_TOLERANCE_PX * cfg.altitude / cfg.frame.focal_length


def mission_problems(record, scenario, base_seed: int) -> list[str]:
    """Closed-loop properties of one campaign trial."""
    out = []
    res, cfg = record.result, scenario.cfg
    rows = res.rows
    if record.seed != base_seed + record.trial:
        out.append(f"seed {record.seed} != {base_seed} + {record.trial}")
    if len(rows) != res.ticks:
        out.append(f"{len(rows)} rows for {res.ticks} ticks")
    if res.elapsed_s != res.ticks * cfg.dt:
        out.append(f"elapsed_s {res.elapsed_s!r} != ticks*dt {res.ticks * cfg.dt!r}")
    if [r.step for r in rows] != list(range(len(rows))):
        out.append("row steps are not 0, 1, 2, ...")
    if any(r.time_s != r.step * cfg.dt for r in rows):
        out.append("a row's time_s differs from step*dt")
    violations = audit_transitions([r.fsm_state for r in rows])
    if violations:
        out.append(f"illegal FSM transitions: {violations[:3]}")
    if not rows:
        return out + ["no rows"]
    last = rows[-1]
    if (last.drone_x, last.drone_y, last.drone_z) != \
            (res.final_pose.x, res.final_pose.y, res.final_pose.z):
        out.append("final pose differs from the last logged pose")
    kind = scenario.spec.kind.value
    if res.success:
        if res.outcome != "success" or last.fsm_state != SUCCESS_LABEL[kind]:
            out.append(f"success ends in {last.fsm_state!r} / {res.outcome!r}")
    elif not (res.outcome.startswith("failed:")
              and last.fsm_state == "failed:" + res.outcome.split(":", 1)[1]):
        out.append(f"failure ends in {last.fsm_state!r} / {res.outcome!r}")
    if res.success and SUCCESS_LABEL[kind] == "landed":
        pad = scenario.carrier_start if scenario.carrier_start is not None \
            else scenario.drone_start
        miss = math.hypot(res.final_pose.x - pad[0], res.final_pose.y - pad[1])
        if miss > land_radius(cfg):
            out.append(f"landed {miss:.4f} m from the pad (> {land_radius(cfg)} m)")
        if res.final_pose.z != cfg.carrier_height:
            out.append(f"landed at z={res.final_pose.z!r}")
    return out


def campaign_stats_problems(stats, trials: int) -> list[str]:
    """Campaign mean / sample std against ``statistics`` on the successes."""
    out = []
    if len(stats.records) != trials:
        out.append(f"{len(stats.records)} records for {trials} trials")
    times = [r.result.elapsed_s for r in stats.records if r.result.success]
    out += stats_problems(stats.mean, stats.std_dev, stats.success_count, times)
    return out


def stats_problems(mean: float, std: float, success_count: int,
                   times: list[float]) -> list[str]:
    out = []
    if success_count != len(times):
        out.append(f"success_count {success_count} != {len(times)}")
    want_mean = statistics.mean(times) if times else math.nan
    want_std = statistics.stdev(times) if len(times) >= 2 else math.nan
    if not _same(mean, want_mean):
        out.append(f"mean {mean!r} != statistics.mean {want_mean!r}")
    if not _same(std, want_std):
        out.append(f"std {std!r} != statistics.stdev {want_std!r}")
    return out


def _same(got: float, want: float, rel: float = 1e-9) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return math.isclose(got, want, rel_tol=rel, abs_tol=1e-12)


def reference_spread(rows) -> float:
    """Largest distance of a return-leg pose from the start-to-apex line,
    computed in plain Python floats."""
    apex_i = max(i for i, r in enumerate(rows)
                 if r.fsm_state.split(":", 1)[0] == "hovering_on_target")
    x0, y0 = float(rows[0].drone_x), float(rows[0].drone_y)
    lx, ly = float(rows[apex_i].drone_x) - x0, float(rows[apex_i].drone_y) - y0
    length = math.hypot(lx, ly)
    return max(abs(lx * (float(r.drone_y) - y0) - ly * (float(r.drone_x) - x0)) / length
               for r in rows[apex_i + 1:]
               if r.fsm_state.split(":", 1)[0] in RETURN_PHASES)


def spread_problems(rows, spread: float) -> list[str]:
    want = reference_spread(rows)
    if not math.isclose(spread, want, rel_tol=1e-9, abs_tol=1e-12):
        return [f"path_spread {spread!r} != reference {want!r}"]
    return []


def sweep_problems(levels, results) -> list[str]:
    """The drift sweep's own properties.

    ``results[i]`` is ``(scenario, records, spreads)`` for drift
    ``levels[i]``, spreads aligned with the successful records.  Zero drift must retrace
    exactly and land at the start; the mean spread must not fall as drift
    rises.
    """
    out = []
    means = []
    for drift, (scenario, records, spreads) in zip(levels, results):
        if drift == 0.0:
            start = scenario.drone_start
            for rec, spread in zip([r for r in records if r.result.success], spreads):
                if spread > 1e-6:
                    out.append(f"zero-drift trial {rec.trial} spread {spread!r} > 1e-6")
            for rec in records:
                pose = rec.result.final_pose
                if not rec.result.success:
                    out.append(f"zero-drift trial {rec.trial} {rec.result.outcome}")
                elif math.hypot(pose.x - start[0], pose.y - start[1]) > land_radius(scenario.cfg):
                    out.append(f"zero-drift trial {rec.trial} landed off its start")
        means.append(statistics.mean(spreads) if spreads else math.nan)
    if not all(a <= b for a, b in zip(means, means[1:])):
        out.append(f"mean spread falls as drift rises: {means}")
    return out


def displacement(segments, cfg) -> tuple[float, float]:
    """World displacement of Duration segments flown at yaw 0, summed in
    closed form: vel_forward = -k*error_y, vel_right = k*error_x, zero
    inside the hover threshold, clipped to max_speed."""
    g = cfg.gains
    cx, cy = cfg.frame.width / 2.0, cfg.frame.height / 2.0
    dx = dy = 0.0
    for (tx, ty), n_steps in segments:
        ex, ey = tx - cx, ty - cy
        if math.hypot(ex, ey) <= g.hover_threshold:
            continue
        vf, vr = -g.k * ey, g.k * ex
        speed = math.hypot(vf, vr)
        if speed > g.max_speed:
            vf, vr = vf * g.max_speed / speed, vr * g.max_speed / speed
        seconds = n_steps * cfg.dt
        dx += vf * seconds          # forward is world +x at yaw 0
        dy -= vr * seconds          # right is world -y at yaw 0
    return dx, dy


def pattern_problems(segments, start, outbound_end, final, steps: int,
                     twice_targets, cfg) -> list[str]:
    """Out-and-back properties of one open-loop flight.

    ``segments`` are the generated ``((tx, ty), n_steps)`` pairs; poses
    are (x, y) tuples; ``twice_targets`` are the targets of the reversed
    return log.
    """
    out = []
    want_dx, want_dy = displacement(segments, cfg)
    got_dx, got_dy = outbound_end[0] - start[0], outbound_end[1] - start[1]
    if math.hypot(got_dx - want_dx, got_dy - want_dy) > 1e-9:
        out.append(f"outbound displacement ({got_dx!r}, {got_dy!r}) != "
                   f"analytic ({want_dx!r}, {want_dy!r})")
    residual = math.hypot(final[0] - start[0], final[1] - start[1])
    if residual > 1e-6:
        out.append(f"execute-then-reverse residual {residual:.3e} m > 1e-6 m")
    if steps != 2 * sum(n for _, n in segments):
        out.append(f"{steps} steps flown for {2 * sum(n for _, n in segments)} commanded")
    want = [(float(tx), float(ty)) for (tx, ty), _ in segments]
    if [(p.x, p.y) for p in twice_targets] != want:
        out.append("reverse applied twice does not give back the original targets")
    return out


def results_readback_problems(rows, records) -> list[str]:
    """Every results.csv column against the in-memory campaign records.
    Raises ValueError when a written number does not parse as a float."""
    out = []
    if len(rows) != len(records):
        return [f"{len(rows)} results rows for {len(records)} trials"]
    for row, rec in zip(rows, records):
        r = rec.result
        got = (int(row["trial"]), int(row["seed"]), row["outcome"], float(row["elapsed_s"]),
               int(row["ticks"]), float(row["final_x"]), float(row["final_y"]))
        want = (rec.trial, rec.seed, r.outcome, r.elapsed_s, r.ticks,
                r.final_pose.x, r.final_pose.y)
        if got != want:
            out.append(f"trial {rec.trial}: results.csv row {got} != {want}")
    return out


def trajectory_readback_problems(loaded, rows) -> list[str]:
    """A trajectory file read back against the in-memory rows."""
    if list(loaded) != list(rows):
        n = next((i for i, (a, b) in enumerate(zip(loaded, rows)) if a != b),
                 min(len(loaded), len(rows)))
        return [f"trajectory read back differs from memory at row {n}"]
    return []


def spread_readback_problems(loaded_spread, spread) -> list[str]:
    """``path_spread`` of a read-back trajectory against that of the
    in-memory rows (both None for a trial with no return leg)."""
    if loaded_spread != spread:
        return [f"spread of the read-back {loaded_spread!r} != in-memory {spread!r}"]
    return []
