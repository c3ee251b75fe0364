"""The three benchmark workloads: seeded operations, set-up builds and output checks.

Every operation is one ``lab`` experiment driven by an INI file that this
module writes from the workload seed.  The program only ever sees those
files; the seed stays inside the benchmark.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("flatten_pp", "probe_pp", "wreath_search")

#: Flatten targets before the seed moves each one by up to +-10 %.
FLATTEN_EPSILONS = (0.2, 0.1, 0.05)
#: Candidate words per flatten operation in ``words_per_s``: the words of P_2
#: (``positive_count(2)``), the level the seed code accepts at every epsilon
#: the seed can draw.  Pinned here so the count never comes from the output.
FLATTEN_WORDS = 6
#: Probe radius on ``pp``: 3,188,645 ball words per probe.
PROBE_RADIUS = 13
#: (epsilon, core) of the two wreath pairs the transports run on.
WREATH_SHIPPED = (0.1, (0.40, 0.42))
WREATH_NONVACUOUS = (0.05, (0.40, 0.41))

EXPECTED_CSVS = {
    "flatten": ("flatten_summary.csv", "flatten_detail.csv"),
    "probe": ("probe.csv",),
    "transport": ("transport_summary.csv", "transport_detail.csv"),
    "collision": ("collision_summary.csv", "collision_detail.csv"),
}


@dataclass(frozen=True)
class Op:
    """One ``lab`` experiment: its config text and what the check needs."""

    name: str
    command: str
    ini: str
    params: dict = field(default_factory=dict)
    #: Words counted for ``words_per_s``, fixed by the inputs (0 if none).
    words: int = 0


def _ini(command: str, threads: int, generators: str, sections: dict) -> str:
    lines = ["[experiment]", f"command = {command}", f"threads = {threads}",
             "time_budget = 120", "", "[generators]", generators, ""]
    for title, values in sections.items():
        lines.append(f"[{title}]")
        lines += [f"{k} = {v}" for k, v in values.items()]
        lines.append("")
    return "\n".join(lines)


def _ball_size(dl, radius: int) -> int:
    return sum(dl.sphere_size(2, m) for m in range(radius + 1))


def _wreath_section(pair) -> dict:
    epsilon, core = pair
    return {"epsilon": repr(epsilon), "core": f"{core[0]},{core[1]}", "k": 3}


def make_ops(workload: str, seed: int, dl, threads: int) -> list[Op]:
    """The workload's operations for ``seed``, in the order they run."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "flatten_pp":
        ops = []
        for k, base in enumerate(FLATTEN_EPSILONS):
            eps = base * (1.0 + rng.uniform(-0.1, 0.1))
            ops.append(Op(f"flatten_{k}", "flatten", _ini(
                "flatten", 1, "preset = pp",
                {"flatten": {"epsilon": repr(eps), "n_max": 22}}),
                {"epsilon": eps}, FLATTEN_WORDS))
        return ops
    if workload == "probe_pp":
        ops = []
        for k in range(2):
            x0 = rng.uniform(0.3, 0.7)
            ops.append(Op(f"probe_{k}", "probe", _ini(
                "probe", threads, "preset = pp",
                {"probe": {"x0": repr(x0), "n": PROBE_RADIUS, "kind": "both"}}),
                {"x0": x0}, _ball_size(dl, PROBE_RADIUS)))
        return ops
    if workload == "wreath_search":
        x_a = rng.uniform(0.395, 0.42)
        x_b = rng.uniform(0.395, 0.41)
        x_c = rng.uniform(0.39, 0.43)
        transport = [("transport_shipped", WREATH_SHIPPED, x_a, 0.05),
                     ("transport_nonvacuous", WREATH_NONVACUOUS, x_b, 0.02)]
        ops = [Op(name, "transport", _ini(
            "transport", 1, "preset = wreath",
            {"wreath": _wreath_section(pair),
             "transport": {"x0": repr(x0), "delta_len": delta_len,
                           "epsilon": pair[0], "lambda": 1.1, "n_max": 12}}),
            words=_ball_size(dl, 12))
            for name, pair, x0, delta_len in transport]
        ops.append(Op("collision_shipped", "collision", _ini(
            "collision", 1, "preset = wreath",
            {"wreath": _wreath_section(WREATH_SHIPPED),
             "collision": {"x0": repr(x_c), "c": 0.5, "lambda": 1.1,
                           "epsilon": 0.0911, "n_max": 14}})))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def build_setup(workload: str, dl):
    """Build the workload's generator set with its certificate or wreath pairs."""
    if workload == "wreath_search":
        return [dl.build_wreath_pair(eps, core, 3)
                for eps, core in (WREATH_SHIPPED, WREATH_NONVACUOUS)]
    S = dl.build_pp()
    return S, dl.check_pingpong(*S.generators, dl.Interval(*dl.PP_I),
                                dl.Interval(*dl.PP_J))


# -- output checks ---------------------------------------------------------------

def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_output(op: Op, out_dir: Path, dl) -> list[str]:
    """Problems found in the CSVs ``op`` wrote; an empty list means it passed."""
    missing = [n for n in EXPECTED_CSVS[op.command] if not (out_dir / n).is_file()]
    if missing:
        return [f"missing {', '.join(missing)}"]
    return _CHECKS[op.command](op, out_dir, dl)


def _check_flatten(op: Op, out_dir: Path, dl) -> list[str]:
    d = _rows(out_dir / "flatten_detail.csv")[0]
    errors = []
    if d["status"] != "success":
        errors.append(f"status {d['status']}")
    best = float(d["best_cert"])
    if not best < 2.0 * op.params["epsilon"]:
        errors.append(f"best_cert {best} >= 2 epsilon")
    for col in ("lemma1_violations", "suffix_violations", "theta_audit_violations"):
        if d[col] != "0":
            errors.append(f"{col} = {d[col]}")
    if d["v"]:
        # Re-evaluate v on a grid four times finer than the certified one.
        import numpy as np

        S = dl.build_pp()
        xs = np.linspace(0.0, 1.0, 4 * int(d["grid_n"]) + 1)
        disp = float(np.max(np.abs(dl.word_values(dl.word_from_text(d["v"], S),
                                                  xs, S) - xs)))
        if not disp <= best:
            errors.append(f"fine-grid displacement {disp} exceeds bound {best}")
    return errors


def _check_probe(op: Op, out_dir: Path, dl) -> list[str]:
    rows = _rows(out_dir / "probe.csv")
    errors = []
    if not rows or any(r["complete"] != "1" for r in rows):
        errors.append("probe incomplete")
    S = dl.build_pp()
    x0 = op.params["x0"]
    for kind in ("displacement", "deriv_gap"):
        mins = [float(r["min_value"]) for r in rows if r["kind"] == kind]
        if not mins:
            errors.append(f"no {kind} rows")
            continue
        if any(b > a for a, b in zip(mins, mins[1:])):
            errors.append(f"{kind} running minimum increases")
        last = [r for r in rows if r["kind"] == kind][-1]
        trace = dl.apply_word(dl.word_from_text(last["argmin"], S), x0, S)
        again = (abs(trace.value - x0) if kind == "displacement"
                 else abs(trace.chain_product - 1.0))
        if not math.isclose(again, mins[-1], rel_tol=1e-9, abs_tol=1e-15):
            errors.append(f"{kind} argmin gives {again!r}, report says {mins[-1]!r}")
    return errors


def _check_transport(op: Op, out_dir: Path, dl) -> list[str]:
    d = _rows(out_dir / "transport_detail.csv")[0]
    errors = []
    if d["status"] != "found":
        errors.append(f"status {d['status']}")
    if d["pullback_in_delta"] != "1":
        errors.append("pullback outside delta")
    if d["distinctness"] != "distinct_by_normal_form":
        errors.append(f"distinctness {d['distinctness']}")
    bad = sum(int(r["transition_violations"])
              for r in _rows(out_dir / "transport_summary.csv"))
    if bad:
        errors.append(f"{bad} transition violations")
    return errors


def _check_collision(op: Op, out_dir: Path, dl) -> list[str]:
    d = _rows(out_dir / "collision_detail.csv")[0]
    errors = []
    if d["status"] != "found":
        errors.append(f"status {d['status']}")
    if d["audit_violations"] != "0":
        errors.append(f"audit_violations = {d['audit_violations']}")
    if not float(d["c_lo"]) < float(d["v_deriv"]) < float(d["c_hi"]):
        errors.append(f"v_deriv {d['v_deriv']} outside (c_lo, c_hi)")
    return errors


_CHECKS = {"flatten": _check_flatten, "probe": _check_probe,
           "transport": _check_transport, "collision": _check_collision}


def flatten_levels(out_dir: Path) -> tuple[int, int, int, int]:
    """(levels, candidates, accepted levels, levels with a same-bucket pair)."""
    rows = _rows(out_dir / "flatten_summary.csv")
    accepted = sum(r["status"] == "accepted" for r in rows)
    paired = sum(r["status"] in ("accepted", "rejected") for r in rows)
    return len(rows), int(rows[-1]["candidates"]) if rows else 0, accepted, paired
