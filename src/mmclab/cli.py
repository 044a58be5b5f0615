"""Command-line front end: generation, sampling, clustering, metrics, sweeps.

Subcommands: generate, sample, cluster, refine, evaluate, gaps, bounds,
sweep, report. Exit codes: 0 success, 2 invalid configuration, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import memory, simgen
from .embedding import Counts, build_matrices, count_transitions, empirical_matrix
from .errors import DimensionMismatch, InputError, InvalidRange, InvalidSpec, NumericalError
from .jsondoc import (boolean, field, float_list, int_list, int_vector, integer, number,
                      read_object, require_keys)
from .likelihood import oracle_classify, refine, save_stage2
from .metrics import (
    divergence_D,
    divergence_D_pi,
    delta_W_sq,
    gap_report,
    lower_bound_check,
    misclassification,
    predicted_error_rate,
)
from .spectral import SpectralConfig, load_stage1, save_stage1, spectral_cluster

# the five axes first
SWEEP_KEYS = ("T", "H", "delta", "lambda", "seeds", "instance", "gamma", "c_sigma", "c_rho")
SWEEP_COLUMNS = ["T", "H", "delta", "lambda", "seed", "K_hat", "e_t_stage1",
                 "e_t_stage2", "e_t_oracle", "D", "D_pi", "delta_W_sq",
                 "gamma_ps", "sigma_thres", "R_hat", "wall_time_s"]
# the keys of each instance spec type, besides the ones every type takes
_SPEC_KEYS = {"separation": ("S_prime",), "random": ("S", "K", "floor", "seed"),
              "inline": ("models",)}
_SHARED_SPEC_KEYS = ("type", "alpha", "shuffle", "shuffle_seed")
_REPORT_INPUTS = {"T": int, "H": int, "delta": float, "lambda": float, "e_t_stage1": int,
                  "e_t_stage2": int, "e_t_oracle": int, "gamma_ps": float, "D_pi": float}


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _models_from_spec(spec: dict, where: str) -> tuple:
    kind = require_keys(spec, (), where).get("type")
    if kind not in _SPEC_KEYS:
        raise InvalidSpec(f"{where}: unknown instance spec type {kind!r}")
    unknown = sorted(set(spec) - set(_SPEC_KEYS[kind]) - set(_SHARED_SPEC_KEYS))
    if unknown:
        raise InvalidSpec(f"{where} has unknown key(s) {unknown}")
    if kind == "separation":
        return simgen.gen_separation_models(field(spec, "S_prime", integer, where))
    if kind == "random":
        require_keys(spec, _SPEC_KEYS["random"], where)
        S, K, base = (field(spec, k, integer, where) for k in ("S", "K", "seed"))
        floor = field(spec, "floor", number, where)
        return tuple(simgen.gen_random_ergodic(S, base + 7919 * k, floor) for k in range(K))
    from .chains import model_from_json
    return tuple(model_from_json(doc, f"{where} models[{i}]")
                 for i, doc in enumerate(field(spec, "models", list, where)))


def _build_instances(spec: dict, where: str, shapes) -> list[simgen.MixtureInstance]:
    """One instance per (T, H) in ``shapes``, all sharing the spec's models, which
    are generated and validated once, and its ``alpha``, ``shuffle`` and
    ``shuffle_seed``. ``where`` names the spec in the errors of its fields."""
    models = _models_from_spec(spec, where)
    if len(models) < 2:  # MixtureInstance's check, made before the default alpha divides by K
        raise DimensionMismatch(f"{where}: an instance needs K >= 2 models")
    alpha = field(spec, "alpha", float_list, where, None) or [1.0 / len(models)] * len(models)
    if len(alpha) != len(models):
        raise InvalidSpec(f"{where}: field 'alpha' needs {len(models)} entries, one per model")
    shuffle = field(spec, "shuffle", boolean, where, False)
    shuffle_seed = field(spec, "shuffle_seed", integer, where, 0)
    try:
        return [simgen.make_instance(models, alpha, T, H, shuffle=shuffle,
                                     shuffle_seed=shuffle_seed) for T, H in shapes]
    except InputError as exc:  # alpha, T against K, H: keep the type, name the spec
        raise type(exc)(f"{where}: {exc}") from exc


def _output_path(args, suffix: str) -> Path:
    """``<--out>/<--name><suffix>``; creates the ``--out`` directory, parents included."""
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InvalidSpec(f"--out {args.out} is not a usable directory: {exc}") from exc
    return Path(args.out) / (args.name + suffix)


def _json_out_path(path: str | None) -> Path | None:
    """The ``--json-out`` file, its parent directories created, or None when not given."""
    if path is None:
        return None
    out = Path(path)
    if out.is_dir():
        raise InvalidSpec(f"--json-out {path} is a directory")
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InvalidSpec(f"--json-out {path} has no usable directory: {exc}") from exc
    return out


def _resolve_gamma(gamma, instance) -> float:
    """The override when given, else the instance's smallest pseudo-spectral gap."""
    if gamma is not None:
        return float(gamma)
    if instance is not None:
        return float(min(m.gamma_ps for m in instance.models))
    raise InvalidSpec("supply --gamma or --instance for oracle gamma")


def _read_counts(path: str) -> tuple[Counts, str]:
    """The trajectory file's counts and its sidecar's ``instance_id``; the states die here."""
    trajs, S, instance_id = simgen.load_trajectories(path)
    return count_transitions(trajs.states, S), instance_id


# --- subcommand implementations -------------------------------------------

def cmd_generate(args) -> int:
    out = _output_path(args, ".instance.json")
    if args.spec.lstrip().startswith("{"):  # the spec itself, never probed as a file name
        where = "generator spec"
        try:
            spec = require_keys(json.loads(args.spec), (), where)
        except json.JSONDecodeError as exc:
            raise InvalidSpec(f"{where} is not valid JSON: {exc}") from exc
    else:
        spec, where = read_object(args.spec), args.spec
    T, H = (field(spec, k, integer, where) for k in ("T", "H"))
    instance_spec = {k: v for k, v in spec.items() if k not in ("T", "H")}
    instance, = _build_instances(instance_spec, where, [(T, H)])
    simgen.save_instance(instance, out)
    print(f"wrote {out} (K={instance.K}, S={instance.S}, T={T}, H={H})")
    return 0


def cmd_sample(args) -> int:
    out = _output_path(args, ".traj.bin")
    instance = simgen.load_instance(args.instance)
    trajs = simgen.sample_trajectories(instance, args.seed)
    simgen.save_trajectories(trajs, out, instance.S, instance.instance_id())
    print(f"wrote {out} (T={trajs.T}, H={trajs.H}, seed={args.seed})")
    return 0


def cmd_cluster(args) -> int:
    out = _output_path(args, ".stage1.json")
    instance = simgen.load_instance(args.instance) if args.instance else None
    gamma = _resolve_gamma(args.gamma, instance)
    counts, instance_id = _read_counts(args.trajectories)
    if instance is not None and instance_id != (expected_id := instance.instance_id()):
        raise InvalidSpec(f"{args.trajectories} was not sampled from {args.instance}: "
                          f"its sidecar names instance {instance_id}, not {expected_id}")
    cfg = SpectralConfig(delta=args.delta, gamma_ps=gamma, c_sigma=args.c_sigma,
                         c_rho=args.c_rho)
    res = spectral_cluster(empirical_matrix(counts), cfg)
    save_stage1(res, out)
    print(f"wrote {out} (K_hat={res.K_hat}, R_hat={res.R_hat}, "
          f"sigma_thres={res.sigma_thres:.6g})")
    return 0


def cmd_refine(args) -> int:
    out = _output_path(args, ".stage2.json")
    counts, _ = _read_counts(args.trajectories)
    stage1 = load_stage1(args.stage1)
    res = refine(counts, stage1.labels, stage1.K_hat, args.smoothing)
    save_stage2(res, out, dump_loglik=args.dump_loglik)
    print(f"wrote {out} (changed={res.changed})")
    return 0


def cmd_evaluate(args) -> int:
    json_out = _json_out_path(args.json_out)
    instance = simgen.load_instance(args.instance)
    results = {}
    for path in args.labels:
        labels = field(read_object(path), "labels", int_vector, path) - 1
        results[path] = misclassification(labels, instance.decoding)
    for path, e in results.items():
        print(f"E_T({path}) = {e} / {instance.T}")
    if json_out is not None:
        json_out.write_text(json.dumps(results, indent=2))
    return 0


def cmd_gaps(args) -> int:
    out = _output_path(args, ".gaps.json")
    instance = simgen.load_instance(args.instance)
    rep = gap_report(instance)
    doc = rep.to_json()
    out.write_text(json.dumps(doc, indent=2))
    width = max(len(k) for k in doc)
    for key, value in doc.items():
        if not isinstance(value, list):
            print(f"{key:<{width}}  {value:.10g}")
    print(f"wrote {out}")
    return 0


def cmd_bounds(args) -> int:
    json_out = _json_out_path(args.json_out)
    missing = [flag for flag, value in [("--gamma", args.gamma), ("--d-pi", args.d_pi),
                                        ("--c-eta", args.c_eta)] if value is None]
    if len(missing) in (1, 2):
        raise InvalidSpec(f"the predicted rate needs --gamma, --d-pi and --c-eta together; "
                          f"missing {', '.join(missing)}")
    rate = None if missing else predicted_error_rate(args.T, args.H, args.gamma, args.d_pi,
                                                     args.c_eta)
    rep = lower_bound_check(args.eps, args.delta, args.T, args.H, args.D,
                            args.alpha_min, predicted=rate)
    doc = rep.to_json()
    print(json.dumps(doc, indent=2))
    if json_out is not None:
        json_out.write_text(json.dumps(doc, indent=2))
    return 0


def _sweep_point(payload: tuple) -> tuple:
    """Run one (T, H, delta, lambda, seed) point on the instance, its columns
    and the stage-1 config that ``run_sweep`` built; returns (key, row list)."""
    start = time.perf_counter()
    instance, columns, stage1_cfg, lam, seed = payload
    counts = count_transitions(simgen.sample_trajectories(instance, seed).states, instance.S)
    # W-hat reads its rows from the counts a block at a time, and the truth
    # matrix W, which nothing here reads, is never built
    stage1 = spectral_cluster(build_matrices(instance, counts)[1], stage1_cfg)
    stage2 = refine(counts, stage1.labels, stage1.K_hat, lam)
    oracle = oracle_classify(counts, instance.models)
    key = (instance.T, instance.H, stage1_cfg.delta, lam, seed)
    row = [*key, stage1.K_hat,
           misclassification(stage1.labels, instance.decoding),
           misclassification(stage2.labels, instance.decoding),
           misclassification(oracle, instance.decoding),
           *columns, stage1_cfg.gamma_ps, float(stage1.sigma_thres), stage1.R_hat,
           time.perf_counter() - start]
    return key, row


def run_sweep(cfg: dict, jobs: int = 1, where: str = "sweep config") -> str:
    """Execute the cartesian sweep; returns the CSV text (deterministic order).
    The whole config is read and checked here, before any point runs or a
    pool starts, and ``where`` names it in every error: the models are
    generated once, and the points share one instance per (T, H), one D per
    H, one D_pi and delta_W_sq, and one stage-1 config per delta."""
    if jobs < 1:
        raise InvalidRange(f"jobs must be >= 1; got {jobs}")
    unknown = sorted(set(cfg) - set(SWEEP_KEYS))
    if unknown:
        raise InvalidSpec(f"{where} has unknown key(s) {unknown}")
    for axis in SWEEP_KEYS[:5]:
        if not cfg.get(axis):
            raise InvalidSpec(f"{where} needs a nonempty axis {axis!r}")
    Ts, Hs, seeds = (field(cfg, axis, int_list, where) for axis in ("T", "H", "seeds"))
    deltas, lams = (field(cfg, axis, float_list, where) for axis in ("delta", "lambda"))
    if len(set(seeds)) != len(seeds):
        raise InvalidSpec(f"{where}: sweep seeds must be distinct")
    try:
        for seed in seeds:
            simgen.check_seed(seed)
    except InvalidRange as exc:
        raise InvalidRange(f"{where}: {exc}") from exc
    if not all(0.0 <= lam < math.inf for lam in lams):
        raise InvalidRange(f"{where}: lambda must be finite and >= 0; got {lams}")
    instances = _build_instances(require_keys(cfg, ("instance",), where)["instance"],
                                 f"{where} instance", [(T, H) for T in Ts for H in Hs])
    gamma = _resolve_gamma(field(cfg, "gamma", number, where, None), instances[0])
    c_sigma, c_rho = (field(cfg, k, number, where, getattr(SpectralConfig, k))
                      for k in ("c_sigma", "c_rho"))
    try:
        stage1_cfgs = [SpectralConfig(delta=d, gamma_ps=gamma, c_sigma=c_sigma, c_rho=c_rho)
                       for d in deltas]
    except InvalidRange as exc:
        raise InvalidRange(f"{where}: {exc}") from exc
    # D depends on the models and H alone; D_pi and delta_W_sq on the models alone
    models = instances[0].models
    shared = (float(divergence_D_pi(models)[0]), float(delta_W_sq(models)))
    by_H = {instance.H: instance for instance in instances}
    D = {H: float(divergence_D(instance)[0]) for H, instance in by_H.items()}
    points = [(instance, (D[instance.H], *shared), stage1_cfg, lam, seed)
              for instance in instances
              for stage1_cfg in stage1_cfgs for lam in lams for seed in seeds]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs, initializer=memory.pin_mmap_threshold) as pool:
            results = list(pool.map(_sweep_point, points))
    else:
        results = [_sweep_point(p) for p in points]
    results.sort(key=lambda kr: kr[0])
    buf = io.StringIO()
    buf.write(",".join(SWEEP_COLUMNS) + "\n")
    for _, row in results:
        buf.write(",".join(_fmt(x) for x in row) + "\n")
    return buf.getvalue()


def cmd_sweep(args) -> int:
    out = _output_path(args, ".sweep.csv")
    cfg = read_object(args.config)
    text = run_sweep(cfg, jobs=args.jobs, where=args.config)
    out.write_text(text)
    print(f"wrote {out} ({text.count(chr(10)) - 1} rows)")
    return 0


def cmd_report(args) -> int:
    if not (math.isfinite(args.c_eta) and args.c_eta > 0.0):
        raise InvalidRange(f"--c-eta must be finite and > 0; got {args.c_eta}")
    out = _output_path(args, ".report.csv")
    rows = []
    for path in args.csv:
        with open(path, newline="") as fh:
            try:
                reader = csv.DictReader(fh)
                missing = [c for c in _REPORT_INPUTS if c not in (reader.fieldnames or ())]
                if missing:
                    raise InvalidSpec(f"{path} lacks sweep column(s) {missing}")
                for n, row in enumerate(reader, start=1):
                    # DictReader fills the fields of a short row with None
                    if any(row[c] is None for c in _REPORT_INPUTS):
                        raise InvalidSpec(f"{path} row {n} has fewer fields than its header")
                    parsed = {c: field(row, c, kind, f"{path} row {n}")
                              for c, kind in _REPORT_INPUTS.items()}
                    for c in ("T", "H"):
                        if parsed[c] < 1:
                            raise InvalidSpec(f"{path} row {n}: {c} must be >= 1; "
                                              f"got {parsed[c]}")
                    rows.append(parsed)
            except UnicodeDecodeError as exc:
                raise InvalidSpec(f"{path} is not a text file: {exc}") from exc
    if not rows:
        raise InvalidSpec("no rows found in the given CSV files")
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        key = (row["T"], row["H"], row["delta"], row["lambda"])
        groups.setdefault(key, []).append(row)

    out_cols = ["T", "H", "delta", "lambda", "n_seeds",
                "mean_err_stage1", "mean_err_stage2", "mean_err_oracle",
                "median_err_stage2", "ci95_err_stage2", "predicted_envelope"]
    lines = [",".join(out_cols)]
    for key in sorted(groups):
        grp = groups[key]
        T = key[0]
        frac1 = [r["e_t_stage1"] / T for r in grp]
        frac2 = [r["e_t_stage2"] / T for r in grp]
        frac_o = [r["e_t_oracle"] / T for r in grp]
        n = len(grp)
        ci = 1.96 * (statistics.pstdev(frac2) / math.sqrt(n)) if n > 1 else 0.0
        D_pi = grp[0]["D_pi"]  # +inf where chains differ in support: the envelope's limit is 0
        envelope = 0.0 if D_pi == math.inf else predicted_error_rate(
            T, key[1], grp[0]["gamma_ps"], D_pi, args.c_eta)
        lines.append(",".join(_fmt(x) for x in [
            key[0], key[1], key[2], key[3], n,
            statistics.fmean(frac1), statistics.fmean(frac2), statistics.fmean(frac_o),
            statistics.median(frac2), ci, envelope]))
    text = "\n".join(lines) + "\n"
    out.write_text(text)
    print(text, end="")
    print(f"wrote {out}")
    return 0


# --- parser ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mmclab",
                                     description="Markov-chain mixture clustering lab")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, name_default):
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--name", default=name_default, help="output file stem")

    p = sub.add_parser("generate", help="write a mixture instance from a generator spec")
    p.add_argument("spec", help="path to a JSON spec, or an inline JSON string")
    common(p, "instance")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("sample", help="sample trajectories from an instance")
    p.add_argument("instance")
    p.add_argument("--seed", type=int, required=True)
    common(p, "sample")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("cluster", help="run the spectral stage on trajectories")
    p.add_argument("trajectories")
    p.add_argument("--instance", default=None, help="instance file for oracle gamma")
    p.add_argument("--gamma", type=float, default=None, help="override gamma_ps")
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--c-sigma", dest="c_sigma", type=float, default=SpectralConfig.c_sigma)
    p.add_argument("--c-rho", dest="c_rho", type=float, default=SpectralConfig.c_rho)
    common(p, "cluster")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("refine", help="one-shot likelihood refinement")
    p.add_argument("trajectories")
    p.add_argument("stage1", help="stage-1 result JSON")
    p.add_argument("--lambda", dest="smoothing", type=float, default=0.5)
    p.add_argument("--dump-loglik", action="store_true")
    common(p, "refine")
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("evaluate", help="misclassification against the ground truth")
    p.add_argument("--instance", required=True)
    p.add_argument("labels", nargs="+", help="stage-1/stage-2 result JSON files")
    p.add_argument("--json-out", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gaps", help="divergences, gaps, and regularity parameters")
    p.add_argument("instance")
    common(p, "gaps")
    p.set_defaults(func=cmd_gaps)

    p = sub.add_parser("bounds", help="evaluate the clustering-error lower bound")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--H", type=int, required=True)
    p.add_argument("--D", type=float, required=True)
    p.add_argument("--alpha-min", dest="alpha_min", type=float, required=True)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--d-pi", dest="d_pi", type=float, default=None)
    p.add_argument("--c-eta", dest="c_eta", type=float, default=None)
    p.add_argument("--json-out", default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("sweep", help="multi-seed sweep writing one CSV row per run")
    p.add_argument("config", help="sweep config JSON")
    p.add_argument("--jobs", type=int, default=1)
    common(p, "run")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="aggregate sweep CSVs per config point")
    p.add_argument("csv", nargs="+")
    p.add_argument("--c-eta", dest="c_eta", type=float, default=1.0)
    common(p, "summary")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    memory.pin_mmap_threshold()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:  # OSError: a file it cannot read or write
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
