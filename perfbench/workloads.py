"""The three benchmark workloads.

Each workload builds its inputs from the workload seed in its constructor
(the set-up), then hands out jobs in rounds.  A job is a plain dict; the
worker times ``run(job)``, and in the traced run also times
``run_traced(job, tracer)``, then passes each result to ``check``, which
raises ``CheckFailed`` if the output is wrong.  Why each workload exists
and which layer moves which metric is written down in README.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import dyngame
from dyngame import (cli, feedback_nash, feedback_stackelberg, game, gameio, lqr,
                     openloop_nash, openloop_stackelberg, verify)

from gen import random_game, random_x0, rng_for

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Layer name -> public function traced under that name.
LAYERS = {
    "game.validate": game.validate,
    "game.rollout": game.rollout,
    "feedback_nash.solve": feedback_nash.solve,
    "feedback_stackelberg.solve": feedback_stackelberg.solve,
    "openloop_nash.solve": openloop_nash.solve,
    "openloop_stackelberg.solve": openloop_stackelberg.solve,
    "lqr.solve_control": lqr.solve_control,
    "verify.stationarity": verify.stationarity,
    "verify.deviation_gap": verify.deviation_gap,
    "verify.leader_gap": verify.leader_gap,
    "verify.time_consistency": verify.time_consistency,
    "verify.definiteness_monitor": verify.definiteness_monitor,
    "gameio.load_game": gameio.load_game,
    "gameio.save_game": gameio.save_game,
}
# Spans the workloads record themselves rather than by wrapping a function.
JOB_LAYERS = ("cli.main.validate", "cli.main.solve", "cli.main.verify", "import.dyngame")
# Layers that only run during set-up; their numbers are per set-up.
SETUP_LAYERS = ("gameio.save_game",)

OPEN_LOOP = ("openloop-nash", "openloop-stackelberg")


class CheckFailed(Exception):
    """A job's output is wrong."""


def solve(name: str, spec, x0):
    """Look the solver up by module attribute at call time, so the traced
    run sees the wrapped function."""
    if name == "lqr":
        return lqr.solve_control(spec)
    if name == "feedback-nash":
        return feedback_nash.solve(spec)
    if name == "feedback-stackelberg":
        return feedback_stackelberg.solve(spec)
    if name == "openloop-nash":
        return openloop_nash.solve(spec, x0)
    if name == "openloop-stackelberg":
        return openloop_stackelberg.solve(spec, x0)
    raise ValueError(f"unknown solver {name!r}")


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def strict_json(text: str):
    """Parse JSON, refusing NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


# ---------------------------------------------------------------------------
# solve-long


class SolveLong:
    """Time-varying T = 200 games; one solver plus one rollout per job.

    Games are drawn from a fixed bank of ``BANK`` game seeds per shape so
    that their rollout costs can be checked against values recorded once
    (reference_costs.json); the workload seed picks the bank entry of every
    job and the order of the solvers in each round.  Each job builds its
    game afresh, outside the timed region, so no StageData object is ever
    seen twice.
    """

    HORIZON = 200
    BANK = 32
    BANK_KEY = 7201
    # shape name -> (state_dim p, control dims); "n x p x m".
    SHAPES = {"2x3x2": (3, (2, 2)), "3x10x3": (10, (3, 3, 3)), "1x10x3": (10, (3,))}
    COMBOS = ([("2x3x2", s) for s in ("feedback-nash", "feedback-stackelberg",
                                      "openloop-nash", "openloop-stackelberg")]
              + [("3x10x3", s) for s in ("feedback-nash", "feedback-stackelberg",
                                         "openloop-nash", "openloop-stackelberg")]
              + [("1x10x3", "lqr")])
    # A round holds every combo once, plus a second lqr job and a second
    # 3x10x3 open-loop Stackelberg job, 11 jobs.  The slowest combo then
    # fills the top 2/11 of the sorted job times, so p90 lands in the middle
    # of its block rather than at its lower edge, where it would depend on
    # the bank draws; the extra lqr job moves p50 off a block edge too.
    ROUND = COMBOS + [("1x10x3", "lqr"), ("3x10x3", "openloop-stackelberg")]
    REFERENCE = HERE / "reference_costs.json"

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        doc = json.loads(self.REFERENCE.read_text(encoding="utf-8"))
        self.rtol = doc["rtol"]
        self.reference = doc["costs"]

    @classmethod
    def bank_game(cls, shape: str, index: int):
        p, dims = cls.SHAPES[shape]
        rng = rng_for(cls.BANK_KEY, list(cls.SHAPES).index(shape), index)
        # lqr needs zero cost targets; the shape is used by lqr only.
        spec = random_game(rng, p, dims, cls.HORIZON, time_varying=True,
                           targets=len(dims) > 1)
        return spec, random_x0(rng, p)

    def warmup(self):
        rng = rng_for(self.seed, 1)
        return [self._job(shape, solver, int(rng.integers(self.BANK)))
                for shape, solver in self.COMBOS]

    def round(self, r: int):
        rng = rng_for(self.seed, 2, r)
        return [self._job(*self.ROUND[k], int(rng.integers(self.BANK)))
                for k in rng.permutation(len(self.ROUND))]

    def _job(self, shape, solver, index):
        spec, x0 = self.bank_game(shape, index)
        return {"shape": shape, "solver": solver, "index": index, "spec": spec, "x0": x0}

    @staticmethod
    def run(job):
        spec, x0 = job["spec"], job["x0"]
        sol = solve(job["solver"], spec, x0)
        if job["solver"] in OPEN_LOOP:
            traj = game.rollout(spec, sol.trajectory.controls, x0)
        else:
            traj = game.rollout(spec, sol.laws, x0)
        return traj.total_costs

    def run_traced(self, job, tracer):
        return self.run(job)

    def check(self, job, costs):
        costs = np.asarray(costs)
        if not np.all(np.isfinite(costs)):
            raise CheckFailed(f"non-finite rollout costs {costs}")
        ref = np.asarray(self.reference[f"{job['shape']}/{job['solver']}"][job["index"]])
        if costs.shape != ref.shape or not np.allclose(costs, ref, rtol=self.rtol, atol=0.0):
            raise CheckFailed(f"rollout costs {costs} differ from reference {ref}")


# ---------------------------------------------------------------------------
# verify-family


class VerifyFamily:
    """Small constant-stage games: validate, solve, run_verification.

    Every round holds each (cell, horizon) pair once, in seeded order, so
    every run does the same mix of work whatever the seed.  A cell is a
    (players, solver) pair.  Games come from a fixed bank of ``BANK`` game keys per
    (cell, horizon): a fresh draw per job would now and then hit the
    stationarity oracle's scale-blind tolerance (see README.md), while every
    bank game passes verification.  The seed picks the bank entry of every
    job, the order of the cells and the oracle seed.
    """

    HORIZONS = (4, 5, 6)
    BANK = 16
    BANK_KEY = 7202
    # (state_dim p, control dims, solver)
    CELLS = ([(3, (2,), s) for s in ("lqr", "feedback-nash", "openloop-nash")]
             + [(3, (2, 2), s) for s in ("feedback-nash", "feedback-stackelberg",
                                         "openloop-nash", "openloop-stackelberg")]
             + [(2, (1, 1, 2), s) for s in ("feedback-nash", "feedback-stackelberg",
                                            "openloop-nash", "openloop-stackelberg")])

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed

    def warmup(self):
        rng = rng_for(self.seed, 1)
        return [self._job(rng, c, min(self.HORIZONS)) for c in range(len(self.CELLS))]

    def round(self, r: int):
        rng = rng_for(self.seed, 2, r)
        pairs = [(c, t) for c in range(len(self.CELLS)) for t in self.HORIZONS]
        return [self._job(rng, *pairs[k]) for k in rng.permutation(len(pairs))]

    def _job(self, rng, cell, horizon):
        spec, x0 = self.bank_game(cell, horizon, int(rng.integers(self.BANK)))
        return {"solver": self.CELLS[cell][2], "spec": spec, "x0": x0,
                "seed": int(rng.integers(1 << 20))}

    @classmethod
    def bank_game(cls, cell: int, horizon: int, index: int):
        p, dims, solver = cls.CELLS[cell]
        rng = rng_for(cls.BANK_KEY, cell, horizon, index)
        # lqr needs zero cost targets
        spec = random_game(rng, p, dims, horizon, time_varying=False,
                           targets=solver != "lqr")
        return spec, random_x0(rng, p)

    @staticmethod
    def _pattern(solver):
        return verify.OPEN_LOOP if solver in OPEN_LOOP else verify.FEEDBACK

    def run(self, job):
        spec, x0 = job["spec"], job["x0"]
        valid = game.validate(spec)
        sol = solve(job["solver"], spec, x0)
        report = verify.run_verification(spec, sol, self._pattern(job["solver"]),
                                         solver_name=job["solver"], x0=x0, seed=job["seed"])
        return {"valid": valid.ok, "report": report}

    def run_traced(self, job, tracer):
        # The wrappers Tracer.install puts on the verify module record each
        # oracle that run_verification calls, so the per-oracle split is
        # faithful by construction.
        return self.run(job)

    def check(self, job, out):
        if not out["valid"]:
            raise CheckFailed("validate reported violations")
        report = out["report"]
        if not report.passed:
            raise CheckFailed(f"verification failed: {report.failures}")
        try:
            json.dumps(report.as_dict(), allow_nan=False)
        except ValueError as exc:
            raise CheckFailed(f"report is not strict JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# cli-cold


class CliCold:
    """One ``dyngame`` process per job, timed from spawn to exit.

    Set-up writes one large time-varying (2, 3, 2, 200) game file drawn
    from the seed and ``SMALL`` constant-stage files picked by the seed.
    Each round runs ``validate`` and ``solve --out`` on the large file and
    ``verify --out`` on one small file.  The traced run replaces each process by a fresh
    ``python -c "import dyngame"`` plus an in-process ``cli.main`` call.
    """

    SMALL = 4
    SMALL_HORIZON = 5
    rss_of_children = True  # peak_rss_mb is that of the largest dyngame process
    # The in-process probe does not track process start-up on this host
    # (README.md, "Steadiness and bounds"), so job times are wall times.
    host_speed_scaled = False
    TIMEOUT_S = 120

    def __init__(self, seed: int, work_dir: Path):
        self.work_dir = work_dir
        rng = rng_for(seed, 4)
        large = random_game(rng, 3, (2, 2), 200, time_varying=True)
        self.large_x0 = random_x0(rng, 3)
        self.large = work_dir / "large.json"
        gameio.save_game(large, self.large)
        # The small games come from verify-family's bank, whose games all
        # pass verification with the CLI's default feedback-Nash solver.
        cell = VerifyFamily.CELLS.index((3, (2, 2), "feedback-nash"))
        self.small = []
        for k in range(self.SMALL):
            spec, x0 = VerifyFamily.bank_game(cell, self.SMALL_HORIZON,
                                              int(rng.integers(VerifyFamily.BANK)))
            path = work_dir / f"small{k}.json"
            gameio.save_game(spec, path)
            self.small.append((path, x0))
        self.env = dict(os.environ)
        self.reference_costs = None

    def _in_process_costs(self):
        """The result the solve jobs must reproduce, computed on first use."""
        if self.reference_costs is None:
            spec = gameio.load_game(self.large)
            sol = feedback_nash.solve(spec)
            self.reference_costs = game.rollout(spec, sol.laws, self.large_x0).total_costs.tolist()
        return self.reference_costs

    @staticmethod
    def _x0_arg(x0):
        # one token, so a leading minus sign is not read as an option
        return "--x0=" + ",".join(repr(float(v)) for v in x0)

    def _jobs(self, r):
        path, x0 = self.small[r % self.SMALL]
        return [
            {"cmd": "validate", "argv": ["validate", "--game", str(self.large)]},
            {"cmd": "solve", "argv": ["solve", "--game", str(self.large),
                                      self._x0_arg(self.large_x0)]},
            {"cmd": "verify", "argv": ["verify", "--game", str(path), self._x0_arg(x0),
                                       "--seed", str(r)]},
        ]

    def warmup(self):
        return self._jobs(0)

    def round(self, r: int):
        return self._jobs(r)

    def _out_path(self, job, traced):
        return self.work_dir / f"out-{job['cmd']}{'-traced' if traced else ''}.json"

    def _argv(self, job, traced):
        if job["cmd"] == "validate":
            return job["argv"]
        return job["argv"] + ["--out", str(self._out_path(job, traced))]

    def run(self, job):
        proc = subprocess.run([sys.executable, "-m", "dyngame.cli", *self._argv(job, False)],
                              cwd=ROOT, env=self.env, capture_output=True, text=True,
                              timeout=self.TIMEOUT_S)
        return {"traced": False, "code": proc.returncode, "stdout": proc.stdout,
                "stderr": proc.stderr}

    def run_traced(self, job, tracer):
        with tracer.span("import.dyngame"):
            proc = subprocess.run([sys.executable, "-c", "import dyngame"], cwd=ROOT,
                                  env=self.env, capture_output=True, text=True,
                                  timeout=self.TIMEOUT_S)
        if proc.returncode != 0:
            return {"traced": True, "code": proc.returncode, "stdout": proc.stdout,
                    "stderr": proc.stderr}
        out, err = io.StringIO(), io.StringIO()
        with tracer.span(f"cli.main.{job['cmd']}"):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(self._argv(job, True))
        return {"traced": True, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

    def check(self, job, out):
        if out["code"] != 0:
            raise CheckFailed(f"{job['cmd']} exited {out['code']}: {out['stderr'][-500:]}")
        if job["cmd"] == "validate":
            if not out["stdout"].startswith("ok: 2 players, state dimension 3, 200 stages"):
                raise CheckFailed(f"unexpected validate output {out['stdout'][:200]!r}")
            return
        if out["stdout"]:
            raise CheckFailed(f"{job['cmd']} --out also wrote to stdout")
        try:
            doc = strict_json(self._out_path(job, out["traced"]).read_text(encoding="utf-8"))
        except ValueError as exc:
            raise CheckFailed(f"{job['cmd']} output is not strict JSON: {exc}") from exc
        if job["cmd"] == "solve":
            costs, expected = doc["trajectory"]["total_costs"], self._in_process_costs()
            if costs != expected or len(doc["laws"]) != 200:
                raise CheckFailed(f"solve costs {costs} != in-process {expected}")
        elif doc.get("passed") is not True:
            raise CheckFailed(f"verify report did not pass: {doc.get('failures')}")


WORKLOADS = {"solve-long": SolveLong, "verify-family": VerifyFamily, "cli-cold": CliCold}


def versions() -> dict:
    import scipy
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "dyngame": dyngame.__version__}
