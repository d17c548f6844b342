"""Command-line entry point.

Subcommands: train, adapt, infer, eval, synth, gradcheck.  Exit codes: 0 on
success, 1 on runtime failure (with a diagnostic on stderr), 2 on usage
errors (argparse's convention).

Heavy imports happen after argument parsing so that --single-thread can pin
the BLAS thread pools through the environment before numpy loads.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    name = os.environ.get("SSSM_LOG_LEVEL", "info").lower()
    if name not in _LOG_LEVELS:
        raise ValueError(f"SSSM_LOG_LEVEL must be one of {sorted(_LOG_LEVELS)}, got {name!r}")
    logging.basicConfig(level=_LOG_LEVELS[name], format="%(levelname)s %(name)s: %(message)s")


def _pin_single_thread() -> None:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sssm",
        description="Self-supervised stereo matching: train, adapt, and evaluate without ground truth.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def single_thread(p):
        p.add_argument("--single-thread", action="store_true",
                       help="pin BLAS/OpenMP to one thread for bitwise reproducibility")

    def common(p, checkpoint=False, out=True):
        """The flags of a run over a manifest: train, adapt, infer and eval."""
        p.add_argument("--manifest", required=True, help="dataset manifest file")
        if checkpoint:
            p.add_argument("--checkpoint", required=True,
                           help="checkpoint file (SSSMW2: weights, RMSProp state, iteration)")
        if out:
            p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--config", help="key = value run config file")
        p.add_argument("--toy", action="store_true", help="desk-scale preset (small net, 64x128 crops)")
        single_thread(p)

    p = sub.add_parser("train", help="optimise from random weights (or resume a checkpoint)")
    common(p)
    p.add_argument("--seed", type=int, help="override the run seed")
    p.add_argument("--checkpoint", help="checkpoint to write, and to resume from when it exists "
                   "(default: OUT/weights.sssmw)")
    p.add_argument("--iterations", type=int, help="override max iterations")

    p = sub.add_parser("adapt", help="online adaptation: predict each pair, then learn from it")
    common(p, checkpoint=True)
    p.add_argument("--iterations", type=int, help="cap on adaptation steps (dataset cycles if larger)")

    p = sub.add_parser("infer", help="predict disparities for every manifest pair")
    common(p, checkpoint=True)

    p = sub.add_parser("eval", help="score predictions against manifest ground truth")
    common(p, out=False)
    p.add_argument("--pred", required=True, help="directory of NNNN_dl.pfm/NNNN_dr.pfm predictions")
    p.add_argument("--out", help="optional directory for eval.csv")

    p = sub.add_parser("synth", help="generate a synthetic dataset with exact ground truth")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0, help="dataset seed")
    single_thread(p)
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--height", type=int, default=96)
    p.add_argument("--width", type=int, default=160)
    p.add_argument("--field", default="constant:2..4",
                   help="disparity field: constant:K | constant:LO..HI | planar:D0,DU,DV,DMAX | split:KL,KR")

    p = sub.add_parser("gradcheck", help="finite-difference oracles for every differentiable op")
    p.add_argument("--seed", type=int, default=0)
    single_thread(p)
    return parser


def _load_config(args):
    from .config import RunConfig, load_run_config

    cfg = RunConfig.toy() if args.toy else RunConfig.default()
    return load_run_config(args.config, base=cfg) if args.config else cfg


def _margin(cfg) -> int:
    from .training import default_margin

    return default_margin(cfg.net) if cfg.border_margin is None else cfg.border_margin


def _require_file(path, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"{what} not found: {p}")
    return p


def _load_trained(args):
    """(config, manifest, weights, --out) of an adapt or infer run; --out is made once the checkpoint loads."""
    from .data import DatasetManifest
    from .network import init_weights
    from .training import load_checkpoint

    cfg = _load_config(args)
    manifest = DatasetManifest.load(args.manifest)
    weights = init_weights(cfg.net)  # every value is replaced by the checkpoint's
    load_checkpoint(_require_file(args.checkpoint, "checkpoint"), weights)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return cfg, manifest, weights, out


def _cmd_train(args) -> int:
    from dataclasses import replace

    from .config import format_run_config
    from .data import DatasetManifest
    from .network import init_weights
    from .training import _log_prefix, check_crop, load_checkpoint, train_from_scratch

    cfg = _load_config(args)
    flags = {"seed": args.seed, "max_iterations": args.iterations}
    cfg = replace(cfg, train=replace(cfg.train, **{k: v for k, v in flags.items() if v is not None}))
    check_crop(cfg.net, cfg.train, _margin(cfg))
    out = Path(args.out)
    ckpt = Path(args.checkpoint) if args.checkpoint else out / "weights.sssmw"
    weights = init_weights(cfg.net, seed=cfg.train.seed)
    opt = None
    if ckpt.is_file():
        opt = load_checkpoint(ckpt, weights)
        logging.getLogger(__name__).info("resuming from %s", ckpt)
    pairs = DatasetManifest.load(args.manifest).load_all()
    log_path = out / "loss_log.csv"
    if opt is not None and opt.iteration and log_path.is_file():
        _log_prefix(log_path, opt.iteration)  # refuses a foreign header or row
    # Nothing is written before the crop, the resume, the dataset and the log have been checked.
    out.mkdir(parents=True, exist_ok=True)
    ckpt.parent.mkdir(parents=True, exist_ok=True)
    (out / "run_config.txt").write_text(format_run_config(cfg))
    opt, _ = train_from_scratch(
        pairs, weights, cfg.train, cfg.loss, opt=opt, margin=_margin(cfg),
        log_path=log_path, checkpoint_path=ckpt,
    )
    print(f"trained to iteration {opt.iteration}; weights at {ckpt}")
    return 0


def _cmd_adapt(args) -> int:
    from .imageio import write_pfm
    from .training import LossLog, online_adapt

    if args.iterations is not None and args.iterations < 1:
        raise ValueError(f"--iterations must be >= 1, got {args.iterations}")
    cfg, manifest, weights, out = _load_trained(args)
    steps = args.iterations or len(manifest)
    stream = (manifest.load_pair(i % len(manifest)) for i in range(steps))
    adapted = out / "adapted.sssmw"
    logger = LossLog(out / "adapt_log.csv")
    try:
        for result in online_adapt(weights, stream, cfg.train, cfg.loss, margin=_margin(cfg),
                                   loss_log=logger, checkpoint_path=adapted):
            write_pfm(out / f"{result.index:04d}_dl.pfm", result.d_left)
            write_pfm(out / f"{result.index:04d}_dr.pfm", result.d_right)
    finally:
        logger.close()
    print(f"adapted over {steps} pairs; weights at {adapted}")
    return 0


def _cmd_infer(args) -> int:
    from .imageio import write_pfm
    from .training import infer

    _, manifest, weights, out = _load_trained(args)
    for i in range(len(manifest)):
        pair = manifest.load_pair(i)
        d_l, d_r = infer(weights, pair)
        write_pfm(out / f"{i:04d}_dl.pfm", d_l)
        write_pfm(out / f"{i:04d}_dr.pfm", d_r)
    print(f"wrote {len(manifest)} disparity pairs to {out}")
    return 0


def _cmd_eval(args) -> int:
    from .data import DatasetManifest
    from .imageio import read_pfm
    from .metrics import EvalReport, evaluate

    cfg = _load_config(args)
    manifest = DatasetManifest.load(args.manifest)
    pred = Path(args.pred)
    entries = []
    for i in range(len(manifest)):
        pair = manifest.load_pair(i)
        if pair.gt is None:
            continue
        d_l = read_pfm(_require_file(pred / f"{i:04d}_dl.pfm", "prediction"))
        d_r = read_pfm(_require_file(pred / f"{i:04d}_dr.pfm", "prediction"))
        entries.append((pair, d_l, d_r))
    report = evaluate(entries, margin=_margin(cfg))
    print(report.to_text())
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "eval.csv").write_text(EvalReport.CSV_HEADER + "\n" + report.to_csv_row() + "\n")
    return 0


def _cmd_synth(args) -> int:
    from .synth import write_dataset

    manifest = write_dataset(args.out, args.count, args.seed, args.height, args.width, args.field)
    print(f"wrote {args.count} pairs; manifest at {manifest}")
    return 0


def _cmd_gradcheck(args) -> int:
    from .gradcheck import format_results, run_suite

    results = run_suite(seed=args.seed)
    print(format_results(results))
    return 0 if all(r.ok for r in results) else 1


_COMMANDS = {
    "train": _cmd_train,
    "adapt": _cmd_adapt,
    "infer": _cmd_infer,
    "eval": _cmd_eval,
    "synth": _cmd_synth,
    "gradcheck": _cmd_gradcheck,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "single_thread", False):
        _pin_single_thread()
    try:
        _setup_logging()
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # runtime failures exit 1 with a diagnostic
        print(f"error: {exc}", file=sys.stderr)
        if os.environ.get("SSSM_LOG_LEVEL", "").lower() == "debug":
            raise
        return 1


if __name__ == "__main__":
    sys.exit(main())
