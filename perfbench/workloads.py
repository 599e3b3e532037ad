"""The benchmark's workloads: inputs made from a seed, one closed-loop cycle each.

Each workload is a closed loop with one client: a cycle runs its commands in
order, each waiting for the previous one, through ``cib.cli.run`` (or the
``cib`` library where no command exists), all in the benchmark's process.

The seed selects one of ``VARIANTS`` input variants (``seed % VARIANTS``), so
every run's key values can be checked against the reference values of the
commit that defined the benchmark (``reference.json``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from speed import Sampler, speed

VARIANTS = 16

# Key values (loss terms, bounds, information quantities) are compared with
# this relative tolerance.  Reassociating a floating-point sum, which any
# vectorized or fused rewrite of the loss or the estimator does, moves them by
# ~1e-15 relative; training does not amplify that much (moving every initial
# weight of desk-train by one ULP moves its values after 2000 Adam steps by
# < 1e-15 relative).  A wrong result (a term missing, a wrong sign or normalization, a
# different trained model) moves them by 1e-3 or more.  Accuracies, verdicts,
# argmin sets and pass flags are compared exactly.
REL_TOL = 1e-6
ABS_TOL = 1e-12

# `cib estimate` at N = 2000 and `cib gradcheck` take 0.25-0.45 s, which holds
# too few speed samples to normalize; each runs this many times in a cycle.
SHORT_REPEATS = 3

# spans every training command fires
_TRAIN_SPANS = (
    "cli.run", "model.train", "model.loss_graph", "objectives.cib_loss_graph",
    "gaussians.kl_to_surrogate_graph", "diffcore.backward", "model.adam_update",
    "model.evaluate", "model.encode_batch", "objectives.cib_loss",
    "gaussians.kl_to_surrogate", "estimators.bound_report", "data_io.gen_gmm_splits",
    "data_io.save_checkpoint", "data_io.write_metrics",
)


def cpu_now() -> float:
    """CPU time of this process and of its reaped children."""
    child = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + child.ru_utime + child.ru_stime


@dataclass
class Timing:
    label: str
    wall: float
    cpu: float
    probes: list[float]  # speed samples taken inside the section


@dataclass
class CycleResult:
    timings: list[Timing] = field(default_factory=list)
    artifacts: dict[str, str] = field(default_factory=dict)  # name -> sha256
    values: dict[str, object] = field(default_factory=dict)

    def seconds(self, label: str, kind: str = "wall") -> float:
        """Mean time of one command with this label."""
        times = [getattr(t, kind) for t in self.timings if t.label == label]
        return sum(times) / len(times)

    def labels(self) -> list[str]:
        return list(dict.fromkeys(t.label for t in self.timings))

    def cost(self, label: str, cycle_speed: float) -> float:
        """Wall time of a label's sections in probe units, at the speed sampled inside them.

        Sections too short to hold a sample take the speed of the whole cycle.
        """
        timings = [t for t in self.timings if t.label == label]
        probes = [p for t in timings for p in t.probes]
        return sum(t.wall for t in timings) * (speed(probes) if probes else cycle_speed)


class Context:
    """Runs commands for one cycle; every command and check goes to the ledger."""

    def __init__(self, cib, ledger, sampler: Sampler | None = None):
        self.cib = cib
        self.ledger = ledger
        self.sampler = sampler or Sampler()  # a sampler never entered takes no samples
        self.result = CycleResult()

    @contextlib.contextmanager
    def timed(self, label: str):
        """Time a section, less the time the speed probes took inside it."""
        w0, c0, p0, i0 = time.perf_counter(), cpu_now(), self.sampler.spent, len(self.sampler.samples)
        yield
        spent = self.sampler.spent - p0
        self.result.timings.append(Timing(label, time.perf_counter() - w0 - spent, cpu_now() - c0 - spent,
                                          self.sampler.samples[i0:]))

    def cli(self, label: str, argv: list[str], pool_probes: Path | None = None, repeats: int = 1) -> str:
        """Run one ``cib`` command in-process; returns its standard output.

        With ``pool_probes`` the speed samples come from the command's pool
        workers, which write them to files in that directory.  With
        ``repeats`` the command runs that many times and must print the same
        output each time.
        """
        outputs = []
        for _ in range(repeats):
            out, err = io.StringIO(), io.StringIO()
            sampling = (self.sampler.in_workers(self.cib.cli, pool_probes) if pool_probes
                        else contextlib.nullcontext())
            with self.timed(label), sampling, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cib.cli.run(argv)
            self.ledger.check(code == 0, f"cib {' '.join(argv)} exited {code}: {err.getvalue().strip()[-300:]}")
            outputs.append(out.getvalue())
        if repeats > 1:
            self.ledger.check(len(set(outputs)) == 1, f"cib {' '.join(argv)} printed different output on a repeat")
        return outputs[0]

    def artifact(self, name: str, data: bytes) -> None:
        self.result.artifacts[name] = hashlib.sha256(data).hexdigest()

    def artifact_dir(self, prefix: str, root: Path) -> dict[str, str]:
        found = {}
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            found[path.relative_to(root).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
        self.result.artifacts.update({f"{prefix}/{k}": v for k, v in found.items()})
        return found

    def close(self, a: float, b: float, what: str) -> bool:
        return self.ledger.check(
            math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL), f"{what}: {a!r} vs {b!r}"
        )


def _write_json(path: Path, doc) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _last_metrics_row(path: Path) -> dict:
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    return dict(zip(header.split(","), map(float, rows[-1].split(","))))


def _train_values(ctx: Context, run_dir: Path) -> dict:
    """Key values of one ``cib train`` run directory, after a consistency check."""
    point = json.loads((run_dir / "point.json").read_text(encoding="utf-8"))
    final = _last_metrics_row(run_dir / "metrics.csv")
    ctx.close(final["cross_entropy"], point["ce_train"], "final metrics row vs point ce_train")
    ctx.close(final["kl_term"], point["kl_train"], "final metrics row vs point kl_train")
    keys = ("acc_test", "ce_train", "kl_train", "ce_test", "kl_test", "ixt", "ixt_given_y")
    values = {k: point[k] for k in keys}
    values["final_total"] = final["total"]
    return values


class Workload:
    name = ""
    spans: tuple[str, ...] = ()  # wrappers that must fire in a traced cycle
    named: tuple[tuple[str, str, str, str], ...] = ()  # metric, unit, timing label, wall|cpu

    def prepare(self, work: Path, variant: int, cib) -> None:
        raise NotImplementedError

    def cycle(self, ctx: Context, out: Path) -> None:
        raise NotImplementedError

    def is_exact(self, key: str) -> bool:
        return key.endswith("acc_test")

    def named_samples(self, cycles: list[CycleResult]) -> dict[str, tuple[str, list[float]]]:
        return {
            metric: (unit, [c.seconds(label, kind) for c in cycles])
            for metric, unit, label, kind in self.named
        }


def _reference_config(seed: int) -> dict:
    """The acceptance-7 reference run: 2 classes, dim 2, 500 per class, 2->8->2."""
    return {
        "dataset": {"kind": "gmm", "classes": 2, "dim": 2, "per_class": 500, "sep": 4.0, "seed": seed},
        "encoder": {"layer_dims": [2, 8, 2], "activation": "softplus",
                    "noise_mode": "fixed_sigma", "sigma2": 1.0},
        "decoder": {"variant": "naive_bayes"},
        "loss": {"beta_prime": 1.0},
        "optim": {"kind": "adam", "lr": 1e-3, "steps": 2000, "batch": 64, "log_every": 500},
        "seed": seed,
    }


class DeskTrain(Workload):
    name = "desk-train"
    spans = _TRAIN_SPANS
    named = (("train_s", "s", "train", "wall"), ("train_cpu_s", "s", "train", "cpu"))

    def prepare(self, work, variant, cib):
        self.config = _write_json(work / "config.json", _reference_config(7 + variant))

    def cycle(self, ctx, out):
        run_dir = out / "run"
        ctx.cli("train", ["train", "--config", str(self.config), "--out", str(run_dir), "--json"])
        ctx.artifact_dir("run", run_dir)
        ctx.result.values = _train_values(ctx, run_dir)


class WideTrainEstimate(Workload):
    name = "wide-n2k"
    spans = _TRAIN_SPANS + ("data_io.load_checkpoint", "data_io.load_dataset")
    named = (
        ("train_s", "s", "train", "wall"),
        ("train_cpu_s", "s", "train", "cpu"),
        ("estimate_s", "s", "estimate", "wall"),
        ("estimate_printed_s", "s", "estimate_printed", "wall"),
    )
    PER_CLASS = 200

    def prepare(self, work, variant, cib):
        seed = 7 + variant
        cfg = {
            "dataset": {"kind": "gmm", "classes": 10, "dim": 20, "per_class": self.PER_CLASS,
                        "test_per_class": self.PER_CLASS, "sep": 4.0, "seed": seed},
            "encoder": {"layer_dims": [20, 64, 8], "activation": "softplus",
                        "noise_mode": "learned_eta", "sigma2": 1.0},
            "decoder": {"variant": "naive_bayes"},
            "loss": {"beta_prime": 1.0},
            "optim": {"kind": "adam", "lr": 1e-3, "steps": 500, "batch": 256, "log_every": 250},
            "seed": seed,
        }
        self.config = _write_json(work / "config.json", cfg)
        spec = cib.data_io.GmmSpec(class_count=10, dim=20, sep=4.0, per_class=self.PER_CLASS, seed=seed)
        _, test = cib.data_io.gen_gmm_splits(spec, self.PER_CLASS)
        self.test_split = work / "test.json"
        cib.data_io.save_dataset(test, self.test_split)

    def cycle(self, ctx, out):
        run_dir = out / "run"
        ctx.cli("train", ["train", "--config", str(self.config), "--out", str(run_dir), "--json"])
        ctx.artifact_dir("run", run_dir)
        values = _train_values(ctx, run_dir)
        ckpt = str(run_dir / "checkpoint.json")
        for label, mode in (("estimate", "cited-source"), ("estimate_printed", "as-printed")):
            text = ctx.cli(label, ["estimate", "--checkpoint", ckpt, "--data", str(self.test_split),
                                   "--mode", mode, "--json"], repeats=SHORT_REPEATS)
            ctx.artifact(label, text.encode())
            doc = json.loads(text)
            values[f"{label}.unconditional"] = doc["unconditional"]
            values[f"{label}.aggregate"] = doc["aggregate"]
        # the trade-off point's bounds come from the same codes, mode and formula
        ctx.close(values["estimate.unconditional"], values["ixt"], "estimate vs point ixt")
        ctx.close(values["estimate.aggregate"], values["ixt_given_y"], "estimate vs point ixt_given_y")
        ctx.result.values = values


class SweepParallel(Workload):
    name = "sweep-parallel"
    spans = _TRAIN_SPANS + ("cli.sweep_worker", "cli.pool")
    named = (("sweep_s", "s", "sweep", "wall"), ("sweep_serial_s", "s", "sweep_serial", "wall"))
    BETAS = "0,0.3,1,3,10"

    def prepare(self, work, variant, cib):
        cfg = _reference_config(7 + variant)
        cfg["encoder"]["noise_mode"] = "learned_eta"
        cfg["decoder"]["variant"] = "softmax"
        cfg["optim"].update(steps=200, log_every=100)
        self.config = _write_json(work / "config.json", cfg)

    def cycle(self, ctx, out):
        argv = ["sweep", "--config", str(self.config), "--betas", self.BETAS, "--json"]
        ctx.cli("sweep_serial", argv + ["--out", str(out / "serial"), "--jobs", "1"])
        ctx.cli("sweep", argv + ["--out", str(out / "parallel"), "--jobs", "2"], pool_probes=out / "probes")
        serial = ctx.artifact_dir("sweep_serial", out / "serial")
        parallel = ctx.artifact_dir("sweep", out / "parallel")
        ctx.ledger.check(serial == parallel and len(serial) == 16,
                         f"--jobs 2 artifacts differ from --jobs 1 ({len(parallel)} vs {len(serial)} files)")
        header, *rows = (out / "serial" / "sweep.csv").read_text(encoding="utf-8").splitlines()
        values = {}
        for row in rows:
            doc = dict(zip(header.split(","), map(float, row.split(","))))
            for key in ("ce_test", "kl_test", "acc_test", "ixt", "ixt_given_y"):
                values[f"b{doc['beta_prime']:g}.{key}"] = doc[key]
        ctx.result.values = values


def _random_joint(rng, nx, ny, floor=0.05):
    p = rng.uniform(floor, 1.0, size=(nx, ny))
    return p / p.sum()


def _random_encoder(rng, nx, arities, floor=0.05):
    q = rng.uniform(floor, 1.0, size=(nx, int(np.prod(arities))))
    return q / q.sum(axis=1, keepdims=True)


def _random_arities(rng, max_outcomes=16):
    while True:
        arities = tuple(int(rng.integers(2, 5)) for _ in range(int(rng.integers(1, 4))))
        if int(np.prod(arities)) <= max_outcomes:
            return arities


def _random_samples(rng, nx, ny, n):
    """(x, y) pairs that hit every class at least once."""
    xs = rng.integers(0, nx, size=n)
    ys = np.concatenate([np.arange(ny), rng.integers(0, ny, size=n - ny)])
    return np.stack([xs, ys], axis=1)


class OracleVerify(Workload):
    name = "oracle-verify"
    spans = (
        "cli.run", "diffcore.grad_check", "diffcore.backward", "model.loss_graph",
        "objectives.cib_loss_graph", "gaussians.kl_to_surrogate_graph",
        "discrete_oracle.info_report", "discrete_oracle.equivalence_scan",
        "discrete_oracle.optimal_product_surrogate", "discrete_oracle.sample_kl_objective",
    )
    named = (("gradcheck_s", "s", "gradcheck", "wall"),)
    INSTANCES, FAMILIES, SEARCHES = 200, 10, 100
    BETAS = tuple(round(0.1 * k, 10) for k in range(1, 10))
    REPORT_KEYS = ("H_Y", "H_Y_given_T", "I_XT", "I_YT", "I_XT_given_Y", "I_XY_given_T")

    def prepare(self, work, variant, cib):
        do = cib.discrete_oracle
        rng = np.random.default_rng(1000 + variant)
        self.instances = []
        for i in range(self.INSTANCES):
            nx, ny = int(rng.integers(2, 7)), int(rng.integers(2, 4))
            arities = _random_arities(rng)
            doc = {
                "p": _random_joint(rng, nx, ny).tolist(),
                "q": _random_encoder(rng, nx, arities).tolist(),
                "arities": list(arities),
                "samples": _random_samples(rng, nx, ny, 12).tolist(),
            }
            self.instances.append(_write_json(work / f"instance-{i:03d}.json", doc))
        # acceptance-2 shaped: 3x2 joints, 50 single-coordinate encoders over 4 symbols
        self.families = [
            (do.DiscreteJoint(_random_joint(rng, 3, 2)),
             [do.DiscreteEncoder(_random_encoder(rng, 3, (4,)), (4,)) for _ in range(50)])
            for _ in range(self.FAMILIES)
        ]
        # acceptance-4 shaped: 4 inputs, two binary coordinates, 10 samples over 2 classes
        self.searches = [
            (do.DiscreteEncoder(_random_encoder(rng, 4, (2, 2)), (2, 2)), _random_samples(rng, 4, 2, 10))
            for _ in range(self.SEARCHES)
        ]
        self.gradcheck = ["gradcheck", "--layers", "8,32,3", "--classes", "3", "--batch", "16",
                          "--head", "both", "--seed", str(variant), "--json"]

    def cycle(self, ctx, out):
        do = ctx.cib.discrete_oracle
        values = {k: 0.0 for k in self.REPORT_KEYS}
        verdicts = {"pass": 0, "fail": 0}
        for path in self.instances:
            text = ctx.cli("oracle", ["oracle", "--instance", str(path), "--json"])
            ctx.artifact(f"oracle/{path.name}", text.encode())
            doc = json.loads(text)
            for key in self.REPORT_KEYS:
                values[key] += doc["report"][key]
            for verdict in doc["verdicts"].values():
                verdicts[verdict] += 1
        values.update({f"verdicts.{k}": v for k, v in verdicts.items()})

        argmins = []
        with ctx.timed("equivalence_scan"):
            for joint, encoders in self.families:
                for beta in self.BETAS:
                    scan = do.equivalence_scan(joint, encoders, beta, tie_tol=1e-10)
                    ctx.ledger.check(scan.coincide, f"argmin sets differ at beta {beta}")
                    argmins.append([list(scan.argmin_ib), list(scan.argmin_cib)])
        values["argmin_digest"] = hashlib.sha256(json.dumps(argmins).encode()).hexdigest()
        ctx.artifact("argmins", json.dumps(argmins).encode())

        lhs_total = 0.0
        with ctx.timed("perturbation_search"):
            for enc, samples in self.searches:
                rep = do.surrogate_optimality_check(samples, enc)
                best = max(
                    rep.lhs_min - do.sample_kl_objective(samples, enc, cand)
                    for cand in do.perturbed_product_surrogates(rep.surrogate, step=0.01)
                )
                ctx.ledger.check(abs(rep.gap) < 1e-10 and best <= 1e-10,
                                 f"optimality gap {rep.gap:.2e}, perturbation improvement {best:.2e}")
                lhs_total += rep.lhs_min
        values["lhs_min_total"] = lhs_total

        doc = json.loads(ctx.cli("gradcheck", self.gradcheck, repeats=SHORT_REPEATS))
        values["gradcheck_passed"] = bool(doc["passed"])
        ctx.result.values = values

    def is_exact(self, key):
        return key.startswith("verdicts.") or key in ("argmin_digest", "gradcheck_passed")

    def named_samples(self, cycles):
        doc = super().named_samples(cycles)
        rates = [1.0 / c.seconds("oracle") for c in cycles]  # one instance per command
        doc["oracle_instances_per_s"] = ("1/s", rates)
        return doc


WORKLOADS = {w.name: w for w in (DeskTrain, WideTrainEstimate, SweepParallel, OracleVerify)}


def compare(ledger, workload: Workload, values: dict, reference: dict | None) -> None:
    """One check per reference key: exact keys must be equal, the rest within REL_TOL."""
    if not ledger.check(reference is not None, f"{workload.name}: no reference values for this variant"):
        return
    for key, want in reference.items():
        got = values.get(key)
        if workload.is_exact(key) or got is None or isinstance(want, str):
            ok = got == want
        else:
            ok = math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)
        ledger.check(ok, f"{workload.name}: {key} = {got!r}, reference {want!r}")
    extra = sorted(set(values) - set(reference))
    ledger.check(not extra, f"{workload.name}: values without reference: {extra}")
