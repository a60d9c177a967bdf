"""Command-line front end.

One ``aespace`` binary with subcommands covering the whole pipeline:
generate synthetic data, score records, dump triplets, train an encoder,
embed, rank, evaluate orderings, and score frame sequences.

Every run writes its primary output plus a ``<out>.meta.json`` sidecar
recording the subcommand, the fully resolved config, seeds, paths, the
package version, and wall-clock duration. The sidecar is skipped when the
primary output is not a regular file (a pipe or a device). All outputs
except the duration field are deterministic for fixed flags.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

from . import __version__, data_model, encoder, ranker, synth, trainer, video
from .errors import AespaceError, ConfigError, InputError
from .loss import LossConfig
from .sampler import SamplerConfig, TripletSampler
from .trainer import TrainConfig
from .video import KalmanConfig, PeakConfig

SEED_ENV_VAR = "AESPACE_SEED"


class _UsageError(Exception):
    """Flag combination that parses but fails semantic validation."""


def _resolve_seed(flag_value: int | None) -> int:
    """Explicit --seed wins; otherwise AESPACE_SEED; otherwise 0."""
    if flag_value is not None:
        return flag_value
    env = os.environ.get(SEED_ENV_VAR)
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise _UsageError(f"{SEED_ENV_VAR} must be an integer, got {env!r}")


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aespace",
        description="Learn and apply an aesthetic embedding space.",
    )
    parser.add_argument("--version", action="version", version=f"aespace {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="command")

    window = argparse.ArgumentParser(add_help=False)
    window.add_argument("--alpha", type=float, default=0.25, help="lower ratio bound (default 0.25)")
    window.add_argument("--beta", type=float, default=0.75, help="upper ratio bound (default 0.75)")
    window.add_argument("--pair-ref", choices=("mean", "anchor"), default="mean",
                        help="pair reference in the ratio denominator (default mean)")

    model_input = argparse.ArgumentParser(add_help=False)
    model_input.add_argument("--model", required=True, help="model file path (JSON)")
    model_input.add_argument("--input", required=True, help="dataset path (JSONL)")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--n", type=int, required=True, help="number of records")
    p.add_argument("--din", type=int, required=True, help="feature dimension (>= 2)")
    p.add_argument("--noise", type=float, default=0.0, help="feature noise sigma (default 0.0)")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
    p.add_argument("--view-lo", type=int, default=100, help="minimum view count (default 100)")
    p.add_argument("--view-hi", type=int, default=100_000, help="maximum view count (default 100000)")
    p.add_argument("--out", required=True, help="output dataset path (JSONL)")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("score", help="compute per-record aesthetic scores")
    p.add_argument("--input", required=True, help="dataset path (JSONL)")
    p.add_argument("--out", required=True, help="output CSV path (id,score)")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("sample", parents=[window], help="draw training triplets and dump them")
    p.add_argument("--input", required=True, help="dataset path (JSONL)")
    p.add_argument("--count", type=int, default=1000, help="triplets to draw (default 1000)")
    p.add_argument("--max-proposals", type=int, default=1_000_000,
                   help="starvation budget between acceptances (default 1000000)")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
    p.add_argument("--out", required=True, help="output CSV path (a,p,n,pair_above,ratio)")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("train", parents=[window], help="train the encoder on sampled triplets")
    p.add_argument("--input", required=True, help="dataset path (JSONL)")
    p.add_argument("--embed-dim", type=int, default=16, help="embedding dimension (default 16)")
    p.add_argument("--hidden", type=_parse_dims, default=(64, 32),
                   help="hidden layer widths, comma separated (default 64,32)")
    p.add_argument("--margin", type=float, default=0.2, help="triplet margin m (default 0.2)")
    p.add_argument("--dir-margin", type=float, default=0.1,
                   help="directional margin (default 0.1)")
    p.add_argument("--lr", type=float, default=1e-3, help="initial learning rate (default 0.001)")
    p.add_argument("--batch", type=int, default=64, help="triplets per step (default 64)")
    p.add_argument("--steps", type=int, required=True, help="number of SGD steps")
    p.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
    p.add_argument("--model-out", required=True, help="model file path (JSON)")
    p.add_argument("--log-out", required=True, help="training log path (CSV)")
    p.add_argument("--no-directional", action="store_true",
                   help="train with the plain triplet loss only")
    p.add_argument("--literal-sign", action="store_true",
                   help="use the signed directional form instead of the hinge form")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("embed", parents=[model_input], help="embed every record with a trained model")
    p.add_argument("--out", required=True, help="output CSV path (id,phi0,...)")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("rank", parents=[model_input], help="order records by embedding norm")
    p.add_argument("--out", required=True, help="output CSV path (rank,id,score)")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("eval", parents=[model_input],
                       help="pairwise ordering agreement against record scores")
    p.add_argument("--thresholds", type=_parse_floats,
                   default=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6),
                   help="score-difference thresholds (default 0.1,0.2,0.3,0.4,0.5,0.6)")
    p.add_argument("--out", required=True, help="output CSV path (delta,pairs,agreement)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("video", help="score a frame sequence, smooth it, mark peaks")
    p.add_argument("--model", required=True, help="model file path (JSON)")
    p.add_argument("--frames", required=True, help="frame records path (JSONL, temporal order)")
    p.add_argument("--q", type=float, default=1e-4, help="process noise variance (default 1e-4)")
    p.add_argument("--r", type=float, default=1e-2, help="measurement noise variance (default 0.01)")
    p.add_argument("--min-sep", type=int, default=1, help="minimum peak separation (default 1)")
    p.add_argument("--min-prom", type=float, default=0.0, help="minimum peak prominence (default 0)")
    p.add_argument("--out", required=True,
                   help="output CSV path (frame,raw_score,smoothed_score,is_peak)")
    p.set_defaults(func=_cmd_video)

    return parser


def _validated(config):
    try:
        config.validate()
    except ConfigError as exc:
        raise _UsageError(str(exc))
    return config


def _cmd_synth(args):
    seed = _resolve_seed(args.seed)
    config = _validated(synth.SynthConfig(
        n=args.n,
        d_in=args.din,
        noise_sigma=args.noise,
        seed=seed,
        view_range=(args.view_lo, args.view_hi),
    ))
    dataset = synth.generate(config)
    data_model.save_dataset(dataset, args.out)
    sidecar = f"{args.out}.sidecar.json"
    synth.write_sidecar(config, sidecar)
    return {"config": dataclasses.asdict(config), "seed": seed, "inputs": [],
            "outputs": [args.out, sidecar]}


def _cmd_score(args):
    dataset = data_model.load_dataset(args.input)
    data_model.write_csv(args.out, ("id", "score"), zip(dataset.ids, dataset.scores().tolist()))
    return {"config": {}, "seed": None, "inputs": [args.input], "outputs": [args.out]}


def _cmd_sample(args):
    seed = _resolve_seed(args.seed)
    config = _validated(SamplerConfig(
        alpha=args.alpha,
        beta=args.beta,
        seed=seed,
        pair_ref=args.pair_ref,
        max_proposals=args.max_proposals,
    ))
    if args.count < 0:
        raise _UsageError(f"--count must be >= 0, got {args.count}")
    dataset = data_model.load_dataset(args.input)
    smp = TripletSampler(dataset.scores(), config)
    a, p, n, above, ratio = (arr.tolist() for arr in smp.collect_indices(args.count))
    data_model.write_csv(args.out, ("a", "p", "n", "pair_above", "ratio"), zip(
        a, p, n, ("true" if flag else "false" for flag in above), ratio
    ))
    stats = {
        "proposed": smp.stats.proposed,
        "accepted": smp.stats.accepted,
        "acceptance_rate": smp.stats.acceptance_rate,
    }
    cfg = dataclasses.asdict(config)
    cfg["count"] = args.count
    return {"config": cfg, "seed": seed, "inputs": [args.input], "outputs": [args.out],
            "stats": stats}


def _cmd_train(args):
    seed = _resolve_seed(args.seed)
    config = _validated(TrainConfig(
        max_steps=args.steps,
        lr_init=args.lr,
        batch_size=args.batch,
        seed=seed,
        hidden_dims=args.hidden,
        embed_dim=args.embed_dim,
        loss=LossConfig(
            margin_m=args.margin,
            margin_md=args.dir_margin,
            directional_enabled=not args.no_directional,
            literal_sign_form=args.literal_sign,
        ),
        sampler=SamplerConfig(alpha=args.alpha, beta=args.beta, pair_ref=args.pair_ref,
                              seed=trainer.derive_seeds(seed)[1]),
    ))
    dataset = data_model.load_dataset(args.input)
    params, log = trainer.train(dataset, config)
    encoder.save(params, args.model_out)
    columns = [f.name for f in dataclasses.fields(trainer.WindowRecord)]
    data_model.write_csv(args.log_out, columns, map(dataclasses.astuple, log.windows))
    return {"config": dataclasses.asdict(config), "seed": seed, "inputs": [args.input],
            "outputs": [args.model_out, args.log_out]}


def _load_model_and_dataset(args):
    params = encoder.load(args.model)
    dataset = data_model.load_dataset(args.input)
    if dataset.d_in is not None and dataset.d_in != params.d_in:
        raise ConfigError(
            f"model expects {params.d_in} features, dataset has {dataset.d_in}"
        )
    return params, dataset


def _cmd_embed(args):
    params, dataset = _load_model_and_dataset(args)
    embeddings = ranker.embed(params, dataset.features).tolist() if len(dataset) else []
    header = ["id", *(f"phi{j}" for j in range(params.d_out))]
    rows = ([rec_id, *phi] for rec_id, phi in zip(dataset.ids, embeddings))
    data_model.write_csv(args.out, header, rows)
    return {"config": {}, "seed": None, "inputs": [args.model, args.input], "outputs": [args.out]}


def _cmd_rank(args):
    params, dataset = _load_model_and_dataset(args)
    ranked = ranker.rank_collection(params, dataset)
    data_model.write_csv(args.out, ("rank", "id", "score"), (
        (rank, rec_id, score) for rank, (rec_id, score) in enumerate(ranked, start=1)
    ))
    return {"config": {}, "seed": None, "inputs": [args.model, args.input], "outputs": [args.out]}


def _cmd_eval(args):
    for t in args.thresholds:
        if not 0.0 < t < 1.0:
            raise _UsageError(f"thresholds must lie strictly in (0, 1), got {t}")
    if list(args.thresholds) != sorted(set(args.thresholds)):
        raise _UsageError("thresholds must be strictly increasing")
    params, dataset = _load_model_and_dataset(args)
    if len(dataset) < 2:
        raise InputError(f"need at least 2 records to evaluate, {args.input} has {len(dataset)}")
    proj = ranker.projection_score(ranker.embed(params, dataset.features))
    rows = ranker.pairwise_agreement(proj, dataset.scores(), args.thresholds)
    data_model.write_csv(args.out, ("delta", "pairs", "agreement"), map(dataclasses.astuple, rows))
    return {"config": {"thresholds": list(args.thresholds)}, "seed": None,
            "inputs": [args.model, args.input], "outputs": [args.out]}


def _cmd_video(args):
    kalman = _validated(KalmanConfig(q=args.q, r=args.r))
    peaks_cfg = _validated(PeakConfig(min_separation=args.min_sep, min_prominence=args.min_prom))
    params = encoder.load(args.model)
    ids, features = video.load_frames(args.frames)
    raw = video.score_sequence(params, features)
    smoothed = video.kalman_smooth(raw, kalman)
    peaks = video.detect_peaks(smoothed, peaks_cfg)
    peak_set = set(peaks)
    data_model.write_csv(args.out, ("frame", "raw_score", "smoothed_score", "is_peak"), (
        (frame_id, r, s, int(i in peak_set))
        for i, (frame_id, r, s) in enumerate(zip(ids, raw, smoothed))
    ))
    return {"config": {**dataclasses.asdict(kalman), **dataclasses.asdict(peaks_cfg)},
            "seed": None, "inputs": [args.model, args.frames], "outputs": [args.out]}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    start = time.perf_counter()
    try:
        meta = args.func(args)
        meta.update(
            subcommand=args.subcommand,
            artifact_version=__version__,
            duration_s=time.perf_counter() - start,
        )
        primary = meta["outputs"][0]
        if os.path.isfile(primary):
            with data_model.open_atomic(f"{primary}.meta.json") as fh:
                json.dump(meta, fh, indent=2, sort_keys=True)
                fh.write("\n")
    except _UsageError as exc:
        print(parser.format_usage(), end="", file=sys.stderr)
        print(f"aespace {args.subcommand}: error: {exc}", file=sys.stderr)
        return 2
    except (AespaceError, OSError) as exc:
        print(f"aespace {args.subcommand}: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
