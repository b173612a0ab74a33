"""Checks of the program's outputs, computed apart from the program.

Every check reads the files the program wrote, by column name, and returns a
list of problems; an empty list means the output passed. Nothing here imports
``antiwatt``: the expected values come from the method as the README states
it, recomputed with plain ``csv`` and ``numpy``.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

# the simulated package power the trials run with: --rt-coeff 0 --noise-sd-w 0
SIM_BASE_W = 5.0
SIM_CPU_COEFF_W = 60.0

# half a unit in the last printed place of a %.3f column, in ms
MS_ROUNDING = 0.0005
# half a unit in the last printed place of a %.6f column
F6_ROUNDING = 0.5e-6
# float error of two different, correct computations of the same value
FLOAT_SLACK = 1e-9


def read_columns(path: Path, names: Sequence[str]) -> Dict[str, List[str]]:
    """The named columns of a CSV file with a header row, as strings."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        missing = [name for name in names if name not in header]
        if missing:
            raise ValueError(f"{path}: no column {', '.join(missing)} in {header}")
        index = [header.index(name) for name in names]
        columns: Dict[str, List[str]] = {name: [] for name in names}
        for row in reader:
            for name, i in zip(names, index):
                columns[name].append(row[i])
    return columns


# ------------------------------------------------------------------- trials


@dataclass(frozen=True)
class Requests:
    """requests.csv of one trial."""

    start_ms: np.ndarray
    rt_ms: np.ndarray
    success: np.ndarray
    user_id: np.ndarray

    @classmethod
    def read(cls, path: Path) -> "Requests":
        cols = read_columns(path, ["start_ms", "response_time_ms", "success", "user_id"])
        return cls(
            start_ms=np.array(cols["start_ms"], dtype=float),
            rt_ms=np.array(cols["response_time_ms"], dtype=float),
            success=np.array([cell == "true" for cell in cols["success"]], dtype=bool),
            user_id=np.array(cols["user_id"], dtype=np.int64),
        )

    @property
    def completion_s(self) -> np.ndarray:
        return (self.start_ms + self.rt_ms) / 1000.0


def rounded_median(values: np.ndarray, step: float) -> float:
    """Median of values printed to a multiple of *step*.

    A printed value v stands for the interval [v - step/2, v + step/2); the
    median is interpolated inside the interval that holds it, as for grouped
    data, so it moves by less than *step* when the distribution does.
    """
    printed, counts = np.unique(np.round(np.asarray(values) / step).astype(np.int64), return_counts=True)
    below = np.cumsum(counts) - counts
    half = len(values) / 2.0
    i = int(np.searchsorted(below + counts, half))
    return float((printed[i] - 0.5 + (half - below[i]) / counts[i]) * step)


def check_manifest(campaign_dir: Path) -> List[str]:
    """One repetition, recorded as ``rep-0 ok``, with no sampler errors."""
    problems = []
    manifest = (campaign_dir / "manifest.txt").read_text(encoding="utf-8").splitlines()
    if manifest != ["rep-0 ok"]:
        problems.append(f"manifest.txt reads {manifest}, not ['rep-0 ok']")
    meta = json.loads((campaign_dir / "rep-0" / "meta.json").read_text(encoding="utf-8"))
    if meta.get("status") != "ok":
        problems.append(f"meta.json status is {meta.get('status')!r}")
    errors = meta.get("sampler", {}).get("errors")
    if errors != []:
        problems.append(f"sampler errors: {errors}")
    return problems


def check_requests(requests: Requests, load_started_at: float, load_ended_at: float) -> List[str]:
    """Every request succeeded, one user never had two in flight, and each
    ran inside the load window."""
    problems = []
    if len(requests.start_ms) == 0:
        return ["requests.csv holds no requests"]
    failed = int(np.count_nonzero(~requests.success))
    if failed:
        problems.append(f"{failed} failed requests")
    # a start and a response time each carry half a unit of rounding
    slack_ms = 3 * MS_ROUNDING
    end_ms = requests.start_ms + requests.rt_ms
    for user in np.unique(requests.user_id):
        mine = requests.user_id == user
        order = np.argsort(requests.start_ms[mine], kind="stable")
        starts, ends = requests.start_ms[mine][order], end_ms[mine][order]
        overlap = ends[:-1] - starts[1:]
        worst = int(np.argmax(overlap)) if len(overlap) else 0
        if len(overlap) and overlap[worst] > slack_ms:
            problems.append(
                f"user {user}: a request starting at {starts[worst + 1]:.3f} ms overlaps the "
                f"one before by {overlap[worst]:.3f} ms"
            )
    slack_s = slack_ms / 1000.0
    if requests.start_ms.min() / 1000.0 < load_started_at - slack_s:
        problems.append("a request started before the load window")
    if requests.completion_s.max() > load_ended_at + slack_s:
        problems.append("a request completed after the load window")
    return problems


def check_power_model(campaign_dir: Path) -> List[str]:
    """Every cpu_power_w row equals SIM_BASE_W + SIM_CPU_COEFF_W * cpu_util
    of the resources row with the same timestamp."""
    rep = campaign_dir / "rep-0"
    power = read_columns(rep / "power.csv", ["t_s", "cpu_power_w"])
    resources = read_columns(rep / "resources.csv", ["t_s", "cpu_util"])
    util_at = dict(zip(resources["t_s"], resources["cpu_util"]))
    if not power["t_s"]:
        return ["power.csv holds no rows"]
    tolerance = F6_ROUNDING * (1 + SIM_CPU_COEFF_W) + FLOAT_SLACK
    problems = []
    for t, watts in zip(power["t_s"], power["cpu_power_w"]):
        if t not in util_at:
            problems.append(f"power row at t={t} has no resources row")
            continue
        expected = SIM_BASE_W + SIM_CPU_COEFF_W * float(util_at[t])
        if abs(float(watts) - expected) > tolerance:
            problems.append(f"power row at t={t}: {watts} W, the model gives {expected:.6f} W")
    return problems


# ----------------------------------------------------------------- analysis


@dataclass(frozen=True)
class Reference:
    """What analyze must report, recomputed from a campaign's raw CSVs."""

    cpu_beta_lat: float
    cpu_n: int
    energies_kj: Tuple[Tuple[str, float, float], ...]  # (rep, cpu, dram)


def _first_per_second(t: np.ndarray, keep: np.ndarray) -> Dict[int, int]:
    """Row index of the first kept row of each whole second."""
    first: Dict[int, int] = {}
    for i in np.flatnonzero(keep):
        first.setdefault(int(np.floor(t[i])), int(i))
    return first


def reference_analysis(campaign_dir: Path) -> Reference:
    """The cpu model ``cpu_power ~ rt + rate + util`` and per-rep energies.

    Per repetition: trim everything before earliest timestamp + warm-up
    (requests by completion), bin successful requests by completion second,
    join with the power and resources rows of the same second, and integrate
    the trimmed power with the trapezoid rule. Repetitions are pooled and the
    model is fitted with ``numpy.linalg.lstsq``.
    """
    reps = sorted(
        (p for p in campaign_dir.glob("rep-*") if p.is_dir()),
        key=lambda p: int(p.name.split("-", 1)[1]),
    )
    rows: List[Tuple[float, float, float, float]] = []  # rt, rate, util, cpu power
    energies = []
    for rep in reps:
        meta = json.loads((rep / "meta.json").read_text(encoding="utf-8"))
        if meta.get("status") != "ok":
            continue
        requests = Requests.read(rep / "requests.csv")
        power = read_columns(rep / "power.csv", ["t_s", "cpu_power_w", "dram_power_w"])
        resources = read_columns(rep / "resources.csv", ["t_s", "cpu_util"])
        p_t = np.array(power["t_s"], dtype=float)
        p_cpu = np.array(power["cpu_power_w"], dtype=float)
        p_dram = np.array(power["dram_power_w"], dtype=float)
        r_t = np.array(resources["t_s"], dtype=float)
        r_util = np.array(resources["cpu_util"], dtype=float)
        done = requests.completion_s

        cutoff = min(p_t.min(), r_t.min(), done.min()) + float(meta["plan"]["warmup_s"])
        p_keep, r_keep = p_t >= cutoff, r_t >= cutoff
        q_keep = (done >= cutoff) & requests.success

        seconds, inverse = np.unique(np.floor(done[q_keep]).astype(np.int64), return_inverse=True)
        rt_sum = np.bincount(inverse, weights=requests.rt_ms[q_keep])
        count = np.bincount(inverse)
        binned = {int(s): i for i, s in enumerate(seconds)}
        power_at = _first_per_second(p_t, p_keep & (p_cpu >= 0) & (p_dram >= 0))
        util_at = _first_per_second(r_t, r_keep)
        for second in sorted(power_at):
            if second in util_at and second in binned:
                b = binned[second]
                rows.append((
                    rt_sum[b] / count[b],
                    float(count[b]),
                    r_util[util_at[second]],
                    p_cpu[power_at[second]],
                ))
        energies.append((
            rep.name,
            float(np.trapezoid(p_cpu[p_keep], p_t[p_keep])) / 1000.0,
            float(np.trapezoid(p_dram[p_keep], p_t[p_keep])) / 1000.0,
        ))
    table = np.array(rows, dtype=float)
    design = np.column_stack([np.ones(len(table)), table[:, :3]])
    beta = np.linalg.lstsq(design, table[:, 3], rcond=None)[0]
    return Reference(cpu_beta_lat=float(beta[1]), cpu_n=len(table), energies_kj=tuple(energies))


def _close(printed: str, value: float) -> bool:
    return abs(float(printed) - value) <= F6_ROUNDING + FLOAT_SLACK


def check_bundle(bundle_dir: Path, reference: Reference, planted_rt_coeff: float) -> List[str]:
    """regression.csv and runs.csv agree with *reference*, and the planted
    coefficient lies inside the cpu model's reported CI."""
    problems = []
    regression = read_columns(bundle_dir / "regression.csv", ["model", "beta_lat", "ci_low", "ci_high", "n"])
    cpu = [i for i, model in enumerate(regression["model"]) if model == "cpu"]
    if len(cpu) != 1:
        return [f"regression.csv has {len(cpu)} cpu rows"]
    i = cpu[0]
    beta = regression["beta_lat"][i]
    if not _close(beta, reference.cpu_beta_lat):
        problems.append(f"cpu beta_lat {beta}, recomputed {reference.cpu_beta_lat:.9f}")
    if int(regression["n"][i]) != reference.cpu_n:
        problems.append(f"cpu n {regression['n'][i]}, recomputed {reference.cpu_n}")
    low, high = float(regression["ci_low"][i]), float(regression["ci_high"][i])
    if not low <= planted_rt_coeff <= high:
        problems.append(f"planted rt coefficient {planted_rt_coeff} outside the CI [{low}, {high}]")

    runs = read_columns(bundle_dir / "runs.csv", ["rep", "cpu_energy_kj", "dram_energy_kj"])
    reported = list(zip(runs["rep"], runs["cpu_energy_kj"], runs["dram_energy_kj"]))
    if [r[0] for r in reported] != [e[0] for e in reference.energies_kj]:
        problems.append(f"runs.csv lists {[r[0] for r in reported]}")
        return problems
    for (rep, cpu_kj, dram_kj), (_, want_cpu, want_dram) in zip(reported, reference.energies_kj):
        if not (_close(cpu_kj, want_cpu) and _close(dram_kj, want_dram)):
            problems.append(
                f"{rep} energies {cpu_kj}/{dram_kj} kJ, recomputed {want_cpu:.6f}/{want_dram:.6f}"
            )
    return problems

