"""The three benchmark workloads.

Every workload is a closed loop with one caller that repeats a fixed,
seed-determined unit of work. A unit records the (start, end) clock times
of three kinds of call, under the same names on every workload so that
each end-to-end metric exists everywhere:

  main   the workload's main step
  minor  the small call a user also waits on
  start  the work done before the workload can answer at all

plus ``items``, the work items finished in the calls of
``throughput_kinds``. Each unit also checks its outputs: golden data at
the default seed, invariants at every seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import time

import numpy as np

# Calls go through the package namespace, where the tracer wraps them.
import hvdesign as hv
import hvdesign.cli

clock = time.perf_counter

DEFAULT_SEED = 0
# avgSim is compared within this relative tolerance, so that a change to
# float rounding alone (e.g. exact-integer cosine) keeps the golden data;
# front membership and wAcc are compared exactly.
AVG_SIM_REL_TOL = 1e-9


class Checks:
    """Correctness checks attempted and failed; feeds pass_ratio."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return bool(ok)


class Discard:
    """Text sink for the CLI's stdout and log lines."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


def _traced(tracer):
    return tracer.unit() if tracer is not None else contextlib.nullcontext()


@contextlib.contextmanager
def _probe_calls(owner, name: str, marks: list, hook):
    """Before every call of owner.name, run hook() and append the clock
    times before and after it to marks."""
    original = getattr(owner, name)

    def clocked(*args, **kwargs):
        enter = clock()
        hook()
        marks.append((enter, clock()))
        return original(*args, **kwargs)

    setattr(owner, name, clocked)
    try:
        yield
    finally:
        setattr(owner, name, original)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= AVG_SIM_REL_TOL * abs(b)


class Workload:
    name = ""
    min_units = 1  # so that every tail percentile has its sample count
    aliases = {}  # generic metric -> the workload-specific name it stands for
    throughput_kinds = ("main",)  # the calls that items_per_s counts time in
    # hostspeed kernels that resemble the workload's work
    speed_kernels = ("python", "gather", "fresh_pages")
    # Host speed readings also inside a unit, before hvdesign's public
    # functions, when a unit is long enough for the host speed to change
    # within it; otherwise only between units.
    read_inside = True

    def __init__(self, seed: int, workdir: str, golden: dict):
        self.seed = seed
        self.workdir = workdir
        self.golden = golden.get(self.name) if seed == DEFAULT_SEED else None

    def setup(self):
        raise NotImplementedError

    def verify_setup(self, checks: Checks):
        pass

    def unit(self, rec: dict, checks: Checks, tracer=None, read=None):
        """One unit of work; read(), when given, takes a host speed reading."""
        raise NotImplementedError


class GaGrid(Workload):
    """NSGA-II search on the 40x40 synthetic grid (S=1600, N=2, K=4)."""

    name = "ga_grid"
    population, generations, dim, levels = 200, 3, 64, 20
    # Front members are re-scored round robin in groups, one after the search
    # and, in timed runs, one before each generation (members of the previous
    # unit's front, which is the same front): the re-score tail then samples
    # the host at many moments of the run, not one.
    rescore_group = 5
    min_units = 8  # >= 24 generations (p58 tail), >= 145 re-scores (p93)
    throughput_kinds = ("start", "main")
    # D=64 candidates: interpreter work and small arrays, no large ones
    speed_kernels = ("python", "small_arrays")
    aliases = {"main_p50_ms": "gen_p50_ms", "main_tail_ms": "gen_tail_ms",
               "minor_p50_ms": "candidate_p50_ms", "minor_tail_ms": "candidate_tail_ms",
               "start_p50_ms": "init_p50_ms", "items_per_s": "evals_per_s"}

    def setup(self):
        self.data = hv.generate_motivational(40, seed=self.seed)
        self.quantizer = hv.calibrate_quantizer(self.data, self.levels)
        self.config = hv.GAConfig(population_size=self.population, generations=self.generations,
                                  seed=self.seed, dim=self.dim, levels=self.levels)
        self.evaluator = hv.CandidateEvaluator(self.data, self.quantizer, self.seed)
        self.evaluator.evaluate(hv.uniform_flip_budget(self.dim, self.levels, features=2))
        self.first_front = None
        self.members = []
        self.rescored = 0

    def unit(self, rec, checks, tracer=None, read=None):
        def before_generation():
            if read is not None and self.members:
                self._rescore(rec, checks, read)

        marks = []
        # A probe marks generation boundaries, in untraced and traced units
        # alike; the time it spends re-scoring belongs to no generation.
        with _probe_calls(hv.evolve, "evolve_generation", marks, before_generation), \
                _traced(tracer):
            t0 = clock()
            front = hv.run_optimization(self.data, self.quantizer, self.config)
            t1 = clock()
            if tracer is not None:
                tracer.count("evolve.front_size", len(front.members))
        checks.check(len(marks) == self.generations, "ga_grid: one step per generation")
        starts = [t0] + [leave for _, leave in marks]
        ends = [enter for enter, _ in marks] + [t1]
        rec["start"].append((starts[0], ends[0]))
        rec["main"].extend(zip(starts[1:], ends[1:]))
        rec["items"] += self.population * (self.generations + 1)

        members = [(b.budgets.tolist(), s.wacc, s.avg_sim, b, s) for b, s in front.members]
        if not checks.check(members, "ga_grid: empty front"):
            return
        self._check_front(members, checks)
        self.members = members
        self._rescore(rec, checks, read)

    def _rescore(self, rec, checks, read):
        """Re-score the next group of front members, each timed."""
        if read is not None:
            # A re-score takes ~3 ms, too short for the readings taken in
            # hvdesign's calls: read before each group instead, and warm the
            # caches the reading used with an untimed re-score.
            read()
            self.evaluator.evaluate(self.members[self.rescored % len(self.members)][3])
        for _ in range(self.rescore_group):
            _, wacc, avg_sim, budget, _ = self.members[self.rescored % len(self.members)]
            self.rescored += 1
            t = clock()
            got = self.evaluator.evaluate(budget)
            rec["minor"].append((t, clock()))
            checks.check(got.feasible and got.wacc == wacc and _close(got.avg_sim, avg_sim),
                         "ga_grid: re-scored front member differs from its front scores")
        if read is not None:
            read()

    def _check_front(self, members, checks):
        checks.check(all(b.feasible and s.feasible for *_, b, s in members),
                     "ga_grid: infeasible front member")
        points = [(m[1], m[2]) for m in members]
        dominated = any(
            a[0] >= b[0] and a[1] <= b[1] and a != b for a in points for b in points
        )
        checks.check(not dominated, "ga_grid: front member dominated by another")
        keys = [json.dumps(m[0]) for m in members]
        checks.check(len(set(keys)) == len(keys), "ga_grid: duplicate budgets on the front")
        got = {k: (m[1], m[2]) for k, m in zip(keys, members)}
        if self.first_front is None:
            self.first_front = got
        else:
            checks.check(got == self.first_front, "ga_grid: same-seed rerun changed the front")
        if self.golden is not None:
            want = {json.dumps(m["budget"]): (float(m["wacc"]), float(m["avg_sim"]))
                    for m in self.golden["front"]}
            checks.check(
                got.keys() == want.keys()
                and all(got[k][0] == want[k][0] and _close(got[k][1], want[k][1]) for k in want),
                "ga_grid: front differs from the golden front",
            )

    def golden_record(self) -> dict:
        front = hv.run_optimization(self.data, self.quantizer, self.config)
        return {
            "population": self.population, "generations": self.generations,
            "dim": self.dim, "levels": self.levels,
            "front": [{"budget": b.budgets.tolist(), "wacc": repr(s.wacc),
                       "avg_sim": repr(s.avg_sim)} for b, s in front.members],
        }


class BaselineD8192(Workload):
    """The paper's failing baseline through the CLI: uniform budget, D=8192."""

    name = "baseline_d8192"
    min_units = 30  # >= 30 train and eval samples: p66 tails
    throughput_kinds = ("main", "minor")
    aliases = {"main_p50_ms": "train_p50_ms", "main_tail_ms": "train_tail_ms",
               "minor_p50_ms": "eval_p50_ms", "minor_tail_ms": "eval_tail_ms",
               "start_p50_ms": "load_p50_ms", "items_per_s": "samples_per_s"}

    def setup(self):
        self.csv = os.path.join(self.workdir, "grid.csv")
        self.model_path = os.path.join(self.workdir, "m.hdcm")
        self.train_json = os.path.join(self.workdir, "train.json")
        self.eval_json = os.path.join(self.workdir, "eval.json")
        self.train_argv = ["train", "--data", self.csv, "--dim", "8192", "--levels", "20",
                           "--seed", str(self.seed), "--out", self.model_path,
                           "--metrics-out", self.train_json]
        self.eval_argv = ["eval", "--model", self.model_path, "--data", self.csv,
                          "--metrics-out", self.eval_json]
        self.data = hv.generate_motivational(40, seed=self.seed)
        hv.save_dataset_csv(self.data, self.csv)
        self.first_model = None
        # The first in-process train is ~2x slower than later ones; warm up.
        self._cli(self.train_argv)

    @staticmethod
    def _cli(argv) -> int:
        with contextlib.redirect_stdout(Discard()):
            return hv.cli.main(argv)

    def unit(self, rec, checks, tracer=None, read=None):
        with _traced(tracer):
            t0 = clock()
            train_code = self._cli(self.train_argv)
            t1 = clock()
            eval_code = self._cli(self.eval_argv)
            t2 = clock()
            model = hv.load_model(self.model_path)
            t3 = clock()
        rec["main"].append((t0, t1))
        rec["minor"].append((t1, t2))
        rec["start"].append((t2, t3))
        rec["items"] += 2 * self.data.n_samples

        checks.check(train_code == 0 and eval_code == 0, "baseline_d8192: CLI exit code")
        with open(self.train_json, encoding="utf-8") as fh:
            report = json.load(fh)
        trained = report["train"]
        with open(self.eval_json, encoding="utf-8") as fh:
            evaluated = json.load(fh)
        checks.check(
            evaluated["wAcc"] == trained["wAcc"]
            and evaluated["confusion"] == trained["confusion"],
            "baseline_d8192: eval of the saved model disagrees with train",
        )
        checks.check(report["modelBytes"] == os.path.getsize(self.model_path),
                     "baseline_d8192: reported model size is not the file size")
        if self.first_model is None:
            self.first_model = model
        checks.check(model == self.first_model and model.table.dim == 8192,
                     "baseline_d8192: retrained model differs")
        if self.golden is not None:
            checks.check(trained["wAcc"] == float(self.golden["train_wacc"]),
                         "baseline_d8192: training wAcc differs from golden")

    def golden_record(self) -> dict:
        self._cli(self.train_argv)
        with open(self.train_json, encoding="utf-8") as fh:
            wacc = json.load(fh)["train"]["wAcc"]
        return {"dim": 8192, "levels": 20, "train_wacc": repr(wacc)}


class ServeWide(Workload):
    """Closed-loop serving of a wide model: N=57, M=20, K=2, D=2048."""

    name = "serve_wide"
    n_train, n_features, dim, levels = 400, 57, 2048, 20
    n_batches, batch = 20, 100  # query pool: 20 batches of 100 queries
    batches_per_unit, queries_per_unit = 4, 10
    min_units = 150  # >= 600 batches (p98 tail) and >= 1500 queries (p99)
    # A unit takes well under READ_EVERY_S; a reading inside it would leave
    # the next call with cold caches.
    read_inside = False
    aliases = {"main_p50_ms": "batch_p50_ms", "main_tail_ms": "batch_tail_ms",
               "minor_p50_ms": "query_p50_ms", "minor_tail_ms": "query_tail_ms",
               "start_p50_ms": "load_p50_ms", "items_per_s": "batch_qps"}

    def setup(self):
        rng = np.random.default_rng([self.seed, self.n_features])
        x = rng.uniform(0.0, 1.0, size=(self.n_train, self.n_features))
        half = self.n_features // 2
        labels = 1 + (x[:, :half].sum(axis=1) > x[:, half:2 * half].sum(axis=1))
        train = hv.Dataset(features=x, labels=labels, label_names=["neg", "pos"],
                           feature_names=[f"f{i}" for i in range(self.n_features)])
        self.model = hv.fit_baseline(train, self.dim, self.levels, self.seed)
        self.model_path = os.path.join(self.workdir, "wide.hdcm")
        hv.save_model(self.model, self.model_path)
        # Queries reach 10% past the calibrated range, so clamping runs.
        self.pool = rng.uniform(-0.1, 1.1, size=(self.n_batches, self.batch, self.n_features))
        self.expected = [hv.predict_batch(b, self.model) for b in self.pool]
        self.count = 0

    def digest(self) -> str:
        return hashlib.sha256(
            np.concatenate(self.expected).astype("<i8").tobytes()).hexdigest()

    def verify_setup(self, checks):
        if self.golden is not None:
            checks.check(self.digest() == self.golden["predictions_sha256"],
                         "serve_wide: predictions differ from golden")

    def unit(self, rec, checks, tracer=None, read=None):
        u = self.count
        self.count += 1
        picks = [(u * self.batches_per_unit + i) % self.n_batches
                 for i in range(self.batches_per_unit)]
        queries = [(picks[j % len(picks)], (u * 7 + 10 * j) % self.batch)
                   for j in range(self.queries_per_unit)]
        batch_out, query_out = [], []
        with _traced(tracer):
            t = clock()
            model = hv.load_model(self.model_path)
            rec["start"].append((t, clock()))
            for b in picks:
                t = clock()
                batch_out.append(hv.predict_batch(self.pool[b], model))
                rec["main"].append((t, clock()))
            for b, row in queries:
                t = clock()
                query_out.append(hv.classify(self.pool[b, row], model))
                rec["minor"].append((t, clock()))
        rec["items"] += self.batches_per_unit * self.batch

        checks.check(model == self.model, "serve_wide: reloaded model differs from in-memory")
        for b, got in zip(picks, batch_out):
            checks.check(np.array_equal(got, self.expected[b]),
                         "serve_wide: predict_batch changed between calls")
        for (b, row), got in zip(queries, query_out):
            checks.check(got.label == self.expected[b][row],
                         "serve_wide: classify disagrees with predict_batch")

    def golden_record(self) -> dict:
        return {"dim": self.dim, "n_features": self.n_features, "levels": self.levels,
                "predictions_sha256": self.digest()}


WORKLOADS = {w.name: w for w in (GaGrid, BaselineD8192, ServeWide)}
