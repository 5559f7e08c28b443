"""Loop-budget benchmark: planning time and solution cost vs max_loops.

Absolute times are hardware-relative; the stable claims are that more loops
cost more time and buy equal-or-better solutions, so outputs carry a host
label and the table reports distribution statistics per loop budget.
"""

from __future__ import annotations

import dataclasses
import platform
import time
from dataclasses import dataclass

import numpy as np

from .discontinuity import find_discontinuities
from .errors import LocalPlanFailed, VacuousBench
from .local_planner import RrtParams, Tree
from .pipeline import plan_shot
from .shot import ArcShotSpec, generate_arc
from .world import CollisionModel


@dataclass(frozen=True)
class BenchSpec:
    """Loop budgets to sweep and repetitions per budget."""

    loops: tuple[int, ...]
    repetitions: int

    def __post_init__(self):
        object.__setattr__(self, "loops", tuple(self.loops))
        if not self.loops:
            raise ValueError("bench needs at least one loop budget")
        if any(v < 1 for v in self.loops):
            raise ValueError(f"loop budgets must be >= 1, got {self.loops}")
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")


@dataclass
class BenchSample:
    """One planning run inside the sweep."""

    max_loops: int
    repetition: int
    duration_s: float
    cost: float | None  # None when the plan failed
    trees: list[Tree]


@dataclass
class BenchRow:
    max_loops: int
    mean_duration_s: float
    min_duration_s: float
    max_duration_s: float
    mean_cost: float | None
    success_rate: float


@dataclass
class BenchResult:
    rows: list[BenchRow]
    samples: list[BenchSample]
    host: str
    seed: int


def _rep_seed(base_seed: int, max_loops: int, repetition: int) -> int:
    """Independent, reproducible seed per (loop budget, repetition) cell."""
    seq = np.random.SeedSequence(entropy=base_seed, spawn_key=(max_loops, repetition))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def run_bench(model: CollisionModel, spec: ArcShotSpec, params: RrtParams,
              bench: BenchSpec, margin: int = 2,
              collision_step: float | None = None,
              keep_trees: bool = False) -> BenchResult:
    """Sweep loop budgets over one scenario, planning every repetition on `model`.

    Rejects scenarios whose arc is unobstructed (VacuousBench): there would be
    nothing to time. Failed repetitions count against the success rate and
    still contribute their duration; costs average over successes only.
    """
    arc = generate_arc(spec)
    if not find_discontinuities(arc, model, margin):
        raise VacuousBench("the arc is collision-free; nothing to benchmark")

    samples: list[BenchSample] = []
    for max_loops in bench.loops:
        for rep in range(bench.repetitions):
            run_params = dataclasses.replace(
                params, max_loops=max_loops,
                seed=_rep_seed(params.seed, max_loops, rep))
            started = time.perf_counter()
            try:
                result = plan_shot(model, spec, run_params, margin, collision_step)
                cost = sum(lp.cost for lp in result.local_paths)
                trees = result.trees if keep_trees else []
            except LocalPlanFailed:
                cost = None
                trees = []
            duration = time.perf_counter() - started
            samples.append(BenchSample(max_loops, rep, duration, cost, trees))

    rows = []
    for max_loops in bench.loops:
        cell = [s for s in samples if s.max_loops == max_loops]
        durations = [s.duration_s for s in cell]
        costs = [s.cost for s in cell if s.cost is not None]
        rows.append(BenchRow(
            max_loops=max_loops,
            mean_duration_s=sum(durations) / len(durations),
            min_duration_s=min(durations),
            max_duration_s=max(durations),
            mean_cost=sum(costs) / len(costs) if costs else None,
            success_rate=len(costs) / len(cell),
        ))
    return BenchResult(rows=rows, samples=samples,
                       host=f"{platform.node()} {platform.machine()} "
                            f"python{platform.python_version()}",
                       seed=params.seed)


def format_table(result: BenchResult) -> str:
    """Human-readable sweep table; durations are specific to the host shown."""
    lines = [
        f"host: {result.host} (durations are hardware-relative)",
        f"seed: {result.seed}",
        "",
        f"{'loops':>7} {'mean_s':>9} {'min_s':>9} {'max_s':>9} "
        f"{'mean_cost':>10} {'success':>8}",
    ]
    for row in result.rows:
        cost = f"{row.mean_cost:.3f}" if row.mean_cost is not None else "-"
        lines.append(
            f"{row.max_loops:>7} {row.mean_duration_s:>9.4f} "
            f"{row.min_duration_s:>9.4f} {row.max_duration_s:>9.4f} "
            f"{cost:>10} {row.success_rate:>8.2f}")
    return "\n".join(lines) + "\n"


def result_to_json(result: BenchResult) -> dict:
    return {
        "schema": "bench_result/1",
        "host": result.host,
        "seed": result.seed,
        "rows": [
            {
                "max_loops": r.max_loops,
                "mean_duration_s": r.mean_duration_s,
                "min_duration_s": r.min_duration_s,
                "max_duration_s": r.max_duration_s,
                "mean_cost": r.mean_cost,
                "success_rate": r.success_rate,
            }
            for r in result.rows
        ],
        "samples": [
            {
                "max_loops": s.max_loops,
                "repetition": s.repetition,
                "duration_s": s.duration_s,
                "cost": s.cost,
            }
            for s in result.samples
        ],
    }
