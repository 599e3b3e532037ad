"""Batch command-line surface for experiments and verification runs.

Exit codes: 0 on success, 1 on validation errors (bad flags, missing or
malformed files), 2 on numerical failures (non-finite training loss, a
failed identity check, a failed gradient check).  With ``--json`` every
command prints exactly one JSON document on stdout and nothing else.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import data_io, discrete_oracle, estimators, model
from .diffcore import ACTIVATIONS, NonFiniteError, grad_check
from .model import NonFiniteLossError

__all__ = ["run", "main"]

REPORT_KEYS = ("beta_prime", "ce_test", "kl_test", "acc_test", "ixt", "ixt_given_y")
POINT_KEYS = tuple(f.name for f in dataclasses.fields(model.TradeoffPoint))


class _CliError(Exception):
    """Validation problem: bad usage, bad paths, malformed inputs."""


class _NumericalFailure(Exception):
    """The command ran, but a mathematical check failed."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(f"{self.prog}: {message}")


def _require_file(path: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise _CliError(f"no such file: {path}")
    return p


def _out_dir(path: str) -> Path:
    blocked = [part for part in (Path(path), *Path(path).parents) if part.exists() and not part.is_dir()]
    if blocked:
        raise _CliError(f"--out {path}: {blocked[0]} is not a directory")
    return Path(path)


def _emit(doc: dict, human_lines: list[str], json_mode: bool) -> None:
    if json_mode:
        print(json.dumps(doc, sort_keys=True, indent=1))
    else:
        for line in human_lines:
            print(line)


# ------------------------------------------------------------------ commands


# the gen-data flag behind each GmmSpec field, whose checks name the field first
_GMM_FLAGS = {
    "class_count": "--classes", "dim": "--dim", "sep": "--sep", "per_class": "--per-class", "seed": "--seed"
}


def _cmd_gen_data(args) -> int:
    try:
        spec = data_io.GmmSpec(args.classes, args.dim, args.sep, args.per_class, args.seed)
    except ValueError as exc:
        field, _, rest = str(exc).partition(" ")
        raise _CliError(f"{_GMM_FLAGS.get(field, field)} {rest}") from exc
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    ds = data_io.gen_gmm(spec)
    data_io.save_dataset(ds, out)
    doc = {
        "out": str(out),
        "count": ds.count,
        "dim": ds.dim,
        "class_count": ds.class_count,
        "bayes_error": ds.provenance.get("bayes_error"),
    }
    _emit(doc, [f"wrote {ds.count} samples ({ds.class_count} classes, dim {ds.dim}) to {out}"], args.json)
    return 0


def _write_run_dir(out: Path, run: model.TrainResult, point: model.TradeoffPoint) -> None:
    """Make the run directory and write its three files, once the run is done."""
    out.mkdir(parents=True, exist_ok=True)
    # by keyword: the traced benchmark (perfbench/layers.py) reads the file size from ``path``
    data_io.save_checkpoint(run.state, path=out / "checkpoint.json")
    data_io.write_metrics(run.metrics, out / "metrics.csv")
    data_io.write_json(point.to_json_dict(), out / "point.json")


def _cmd_train(args) -> int:
    cfg_path = _require_file(args.config)
    cfg = data_io.load_config(cfg_path)
    out = _out_dir(args.out)
    train_ds, test_ds = data_io.dataset_from_config(cfg["dataset"])
    run = model.train([cfg], train_ds, test_ds)[0]
    point = model.tradeoff_point(run, test_ds)
    _write_run_dir(out, run, point)
    final = run.metrics[-1]
    doc = {"out": str(out), "final_step": final.step, "point": point.to_json_dict()}
    _emit(
        doc,
        [
            f"trained {final.step} steps -> {out}",
            f"test accuracy {point.acc_test:.4f}  ce {point.ce_test:.4f}  kl {point.kl_test:.4f}",
            f"I(X;T) <= {point.ixt:.4f}   I(X;T|Y) <= {point.ixt_given_y:.4f}",
        ],
        args.json,
    )
    return 0


def _sweep_worker(payload) -> list:
    """Train a share of consecutive sweep points in lockstep; returns (point, run) for each point in order.

    The list stops at the first point that fails, with that point's error in
    its place, so that the caller can write the points before it and then
    raise it.
    """
    cfg, indices, beta_primes = payload
    done: list = []
    try:
        runs, test_ds = model.sweep_runs(cfg, indices, beta_primes)
        for run in runs:
            done.append((model.tradeoff_point(run, test_ds), run))
    except (ArithmeticError, ValueError) as exc:  # what a point's numbers can raise; the caller raises it
        done.append(exc)
    return done


def _write_report_csv(points: list[dict], path: Path) -> None:
    lines = [",".join(REPORT_KEYS)]
    for p in sorted(points, key=lambda q: q["beta_prime"]):
        lines.append(",".join(repr(float(p[k])) for k in REPORT_KEYS))
    data_io.write_text_atomic(path, "\n".join(lines) + "\n")


def _cmd_sweep(args) -> int:
    cfg_path = _require_file(args.config)
    cfg = data_io.load_config(cfg_path)
    try:
        betas = [float(tok) for tok in args.betas.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise _CliError(f"--betas must be a comma-separated list of numbers: {exc}") from exc
    if not betas:
        raise _CliError("--betas must list at least one value")
    if not all(0.0 <= b < math.inf for b in betas):
        raise _CliError(f"beta' values must be finite and nonnegative, got {args.betas}")
    if args.jobs < 1:
        raise _CliError("--jobs must be at least 1")
    out = _out_dir(args.out)
    # the pool starts every worker up front, so never ask for more than can run
    workers = min(args.jobs, len(betas), estimators.usable_cores())
    # each worker trains a share of consecutive points, so the shares come back in grid order
    bounds = [len(betas) * w // workers for w in range(workers + 1)]
    payloads = [(cfg, range(lo, hi), betas[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    if workers == 1:
        stacks = [_sweep_worker(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            stacks = list(pool.map(_sweep_worker, payloads))
    # directories are written here, in grid order up to the first failing point, whatever --jobs is
    points = []
    for i, outcome in enumerate(outcome for stack in stacks for outcome in stack):
        if isinstance(outcome, Exception):
            raise outcome
        point, run = outcome
        _write_run_dir(out / f"point_{i:03d}", run, point)
        points.append(point.to_json_dict())
    _write_report_csv(points, out / "sweep.csv")
    doc = {"out": str(out), "points": points}
    lines = [f"swept {len(betas)} points -> {out}", ",".join(REPORT_KEYS)]
    for p in points:
        lines.append(
            f"{p['beta_prime']},{p['ce_test']:.6f},{p['kl_test']:.6f},"
            f"{p['acc_test']:.4f},{p['ixt']:.6f},{p['ixt_given_y']:.6f}"
        )
    _emit(doc, lines, args.json)
    return 0


def _cmd_estimate(args) -> int:
    ckpt_path = _require_file(args.checkpoint)
    data_path = _require_file(args.data)
    encoder = data_io.load_checkpoint(path=ckpt_path).encoder
    ds = data_io.load_dataset(data_path)
    if ds.dim != encoder.in_dim:
        raise _CliError(
            f"--data {data_path} has dimension {ds.dim}, but --checkpoint {ckpt_path} "
            f"encodes inputs of dimension {encoder.in_dim}"
        )
    report = estimators.bound_report(
        encoder.embedded(encoder.encode_batch(ds.features), ds.labels),
        mode=args.mode,
        printed_outer_normalization=args.printed_normalization,
        printed_count_weights=args.printed_weights,
    )
    doc = report.to_json_dict()
    lines = [
        f"mode {report.mode}: I(X;T) <= {report.unconditional:.6f}, I(X;T|Y) <= {report.aggregate:.6f}",
        "label,count,value",
    ]
    for entry in doc["per_class"]:
        lines.append(f"{entry['label']},{entry['count']},{entry['value']:.6f}")
    _emit(doc, lines, args.json)
    return 0


def _cmd_gradcheck(args) -> int:
    try:
        dims = [int(tok) for tok in args.layers.split(",")]
    except ValueError as exc:
        raise _CliError(f"--layers must be a comma-separated list of ints: {exc}") from exc
    for flag, value, low in (("--batch", args.batch, 1), ("--classes", args.classes, 1),
                             ("--seed", args.seed, 0)):
        if value < low:
            raise _CliError(f"{flag} must be at least {low}, got {value}")
    for flag, value in (("--eps", args.eps), ("--tol", args.tol)):
        if not (math.isfinite(value) and value > 0.0):
            raise _CliError(f"{flag} must be positive and finite, got {value}")
    heads = ["softmax", "naive_bayes"] if args.head == "both" else [args.head]
    # the batch is drawn below, so the dataset block is a placeholder; the
    # table checks the flags that land in the config before anything is drawn
    configs = {
        head: data_io.validate_config({
            "dataset": {"kind": "json", "train": "-", "test": "-"},
            "encoder": {"layer_dims": dims, "activation": args.activation,
                        "noise_mode": args.noise_mode, "sigma2": args.sigma2},
            "decoder": {"variant": head},
            "loss": {"beta_prime": args.beta_prime, "mc_samples": args.mc_samples},
            "seed": args.seed,
        })
        for head in heads
    }
    rng = np.random.default_rng(args.seed)
    x = rng.uniform(-2.0, 2.0, size=(args.batch, dims[0]))
    labels = rng.integers(0, args.classes, size=args.batch)
    priors = np.full(args.classes, 1.0 / args.classes)
    results = {}
    for head, cfg in configs.items():
        state = model.build_state(cfg, priors, rng)
        noise = rng.standard_normal((args.mc_samples, args.batch, dims[-1]))
        lossfn = model.make_loss_fn(state, x, labels, args.beta_prime, noise)
        report = grad_check(lossfn, state.store, eps=args.eps, tol=args.tol)
        results[head] = {"max_rel_error": report.max_rel_error, "worst_slice": report.worst_name,
                         "passed": report.passed}
    all_passed = all(r["passed"] for r in results.values())
    doc = {"tol": args.tol, "eps": args.eps, "heads": results, "passed": all_passed}
    lines = [
        f"{head}: max rel error {r['max_rel_error']:.3e} (worst slice {r['worst_slice']}) "
        f"{'pass' if r['passed'] else 'FAIL'}"
        for head, r in results.items()
    ]
    _emit(doc, lines, args.json)
    if not all_passed:
        worst = max(r["max_rel_error"] for r in results.values())
        raise _NumericalFailure(f"gradient check failed: max rel error {worst:.3e} >= tol {args.tol}")
    return 0


def _cmd_oracle(args) -> int:
    inst_path = _require_file(args.instance)
    doc = data_io.read_json(inst_path, ValueError, ("p", "q", "arities"))
    try:
        joint = discrete_oracle.DiscreteJoint(np.asarray(doc["p"], dtype=np.float64))
        enc = discrete_oracle.DiscreteEncoder(
            np.asarray(doc["q"], dtype=np.float64), tuple(doc["arities"])
        )
        samples = doc.get("samples")
        if samples:
            if not all(type(x) is int and type(y) is int and 0 <= x < joint.nx and 0 <= y < joint.ny
                       for x, y in samples):
                raise ValueError(f"samples must be integer pairs, 0 <= x < {joint.nx} and 0 <= y < {joint.ny}")
            samples = np.array(samples, dtype=np.intp)  # checked pairs: the oracle skips its per-entry scan
    except (TypeError, ValueError) as exc:
        raise _CliError(f"{inst_path}: bad oracle instance: {exc}") from exc

    rep = discrete_oracle.info_report(joint, enc)
    ind = discrete_oracle.induced(joint, enc)
    verdicts: dict[str, bool] = {}
    verdicts["chain_rule"] = abs(rep.chain_rule_gap()) < 1e-12
    quantities = {name: value for name, value in dataclasses.asdict(rep).items() if name != "TC_given_y"}
    verdicts["nonnegativity"] = all(q >= -1e-12 for q in quantities.values())

    p_y = joint.p.sum(axis=0)
    if np.any(p_y == 0.0):
        raise _CliError(f"{inst_path}: every class needs positive probability")
    best = discrete_oracle.optimal_product_surrogate(ind.t_given_y, enc.arities)
    decomp = discrete_oracle.decomposition_check(joint, enc, best, rep, ind)
    expected_residual = float(np.sum(p_y * rep.TC_given_y))
    verdicts["decomposition"] = (
        abs(decomp.gap) < 1e-12 and abs(decomp.kl_residual - expected_residual) < 1e-12
    )
    if samples is not None:
        opt = discrete_oracle.surrogate_optimality_check(samples, enc)
        verdicts["surrogate_optimality"] = abs(opt.gap) < 1e-10

    out_doc = {
        "report": {**quantities, "TC_given_y": rep.TC_given_y.tolist()},
        "verdicts": {k: ("pass" if v else "fail") for k, v in verdicts.items()},
    }
    lines = [f"I(X;T)={rep.I_XT:.6f}  I(X;T|Y)={rep.I_XT_given_Y:.6f}  I(Y;T)={rep.I_YT:.6f}"]
    lines += [f"{name}: {'pass' if ok else 'fail'}" for name, ok in verdicts.items()]
    _emit(out_doc, lines, args.json)
    if not all(verdicts.values()):
        failed = [name for name, ok in verdicts.items() if not ok]
        raise _NumericalFailure(f"oracle checks failed: {', '.join(failed)}")
    return 0


def _cmd_report(args) -> int:
    problems: list[str] = []
    points: list[dict] = []
    for run_dir in args.runs:
        rd = Path(run_dir)
        absent = [
            name
            for name in ("checkpoint.json", "metrics.csv", "point.json")
            if not (rd / name).is_file()
        ]
        if absent:
            problems.append(f"{run_dir}: missing {', '.join(absent)}")
            continue
        path = rd / "point.json"
        try:
            doc = data_io.read_json(path, ValueError, POINT_KEYS)
        except ValueError as exc:  # names the path
            problems.append(str(exc))
            continue
        try:
            points.append(model.TradeoffPoint(**{k: doc[k] for k in POINT_KEYS}).to_json_dict())
        except ValueError as exc:
            problems.append(f"{path}: {exc}")
    if problems:
        raise _CliError("unusable run directories:\n  " + "\n  ".join(problems))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_report_csv(points, out)
    doc = {"out": str(out), "rows": len(points)}
    _emit(doc, [f"wrote {len(points)} rows to {out}"], args.json)
    return 0


# ------------------------------------------------------------------ parser


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process; each parse gets its own namespace."""
    parser = _Parser(prog="cib", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-data", help="synthesize a dataset file")
    p.add_argument("--kind", choices=["gmm"], default="gmm")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--sep", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="train one run from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("sweep", help="independent runs over a beta' grid")
    p.add_argument("--config", required=True)
    p.add_argument("--betas", required=True, help="comma-separated beta' values")
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("estimate", help="information bounds of a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--mode", choices=[estimators.MODE_CITED_SOURCE, estimators.MODE_AS_PRINTED],
                   default=estimators.MODE_CITED_SOURCE)
    p.add_argument("--printed-normalization", action="store_true",
                   help="divide restricted sums by the full dataset size")
    p.add_argument("--printed-weights", action="store_true",
                   help="aggregate classes with absolute counts")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("gradcheck", help="central-difference check of the full loss gradient")
    p.add_argument("--layers", default="2,2,2")
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--batch", type=int, default=4)
    p.add_argument("--head", choices=["softmax", "naive_bayes", "both"], default="both")
    p.add_argument("--activation", choices=ACTIVATIONS, default="softplus")
    p.add_argument("--noise-mode", choices=["fixed_sigma", "learned_eta"], default="fixed_sigma")
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--beta-prime", type=float, default=1.0)
    p.add_argument("--mc-samples", type=int, default=1)
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("oracle", help="exact identity checks on a discrete instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("report", help="aggregate run directories into a trade-off CSV")
    p.add_argument("--runs", nargs="*", default=())
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_report)

    return parser


def run(argv: list[str]) -> int:
    """Parse and execute one command; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    # ConfigError, IdxFormatError and CheckpointError are ValueErrors; an OSError
    # (a missing input, an --out below a regular file) names its path
    except (_CliError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (_NumericalFailure, NonFiniteLossError, NonFiniteError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
