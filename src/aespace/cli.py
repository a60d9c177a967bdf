"""Command-line front end.

One ``aespace`` binary with subcommands covering the whole pipeline:
generate synthetic data, score records, dump triplets, train an encoder,
embed, rank, evaluate orderings, and score frame sequences.

Every run writes its primary output plus a ``<out>.meta.json`` sidecar
recording the subcommand, the fully resolved config, seeds, paths, the
package version, and wall-clock duration. It and ``synth``'s ``<out>.sidecar.json``
are skipped when the primary output is not a regular file (a pipe or a device),
as is the binary twin that ``synth`` writes beside its dataset
(``data_model.save_dataset``).
All outputs except the duration field are deterministic for fixed flags.

Exit codes: 0 success, 1 runtime failure, 2 usage error. A ``ConfigError``,
raised only while a config is built from the flags, is a usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import __version__, data_model, encoder, ranker, synth, trainer, video
from .errors import AespaceError, ConfigError, InputError
from .loss import LossConfig
from .sampler import PAIR_REFS, SamplerConfig, TripletSampler, window
from .trainer import TrainConfig
from .video import KalmanConfig, PeakConfig

SEED_ENV_VAR = "AESPACE_SEED"
SAMPLE_BLOCK = 65_536  # triplets ``sample`` draws and writes at a time


class _UsageError(Exception):
    """Flag combination that parses but fails semantic validation."""


def _resolve_seed(flag_value: int | None) -> int:
    """Explicit --seed wins; otherwise AESPACE_SEED; otherwise 0. Must be >= 0."""
    seed, source = flag_value, "--seed"
    if seed is None:
        env = os.environ.get(SEED_ENV_VAR, "0")
        source = SEED_ENV_VAR
        try:
            seed = int(env)
        except ValueError:
            raise _UsageError(f"{SEED_ENV_VAR} must be an integer, got {env!r}")
    if seed < 0:
        raise _UsageError(f"{source} must be >= 0, got {seed}")
    return seed


def _comma_list(convert, noun: str):
    """Flag type: a tuple of ``convert`` applied to each comma-separated part."""
    def parse(text: str) -> tuple:
        try:
            return tuple(convert(part) for part in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {noun}, got {text!r}")
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aespace",
        description="Learn and apply an aesthetic embedding space.",
    )
    parser.add_argument("--version", action="version", version=f"aespace {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="command")

    window_flags = argparse.ArgumentParser(add_help=False)
    window_flags.add_argument("--alpha", type=float, default=SamplerConfig.alpha,
                              help="lower ratio bound (default %(default)s)")
    window_flags.add_argument("--beta", type=float, default=SamplerConfig.beta,
                              help="upper ratio bound (default %(default)s)")
    window_flags.add_argument("--pair-ref", choices=PAIR_REFS, default=SamplerConfig.pair_ref,
                              help="pair reference in the ratio denominator (default %(default)s)")

    model_input = argparse.ArgumentParser(add_help=False)
    model_input.add_argument("--model", required=True, help="model file path (JSON)")
    model_input.add_argument("--input", required=True, help="dataset path (JSONL)")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--n", type=int, required=True, help="number of records")
    p.add_argument("--din", type=int, required=True, help="feature dimension (>= 2)")
    p.add_argument("--noise", type=float, default=synth.SynthConfig.noise_sigma,
                   help="feature noise sigma (default %(default)s)")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
    p.add_argument("--view-lo", type=int, default=synth.SynthConfig.view_range[0],
                   help="minimum view count (default %(default)s)")
    p.add_argument("--view-hi", type=int, default=synth.SynthConfig.view_range[1],
                   help="maximum view count (default %(default)s)")
    p.add_argument("--out", required=True, help="output dataset path (JSONL)")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("score", help="compute per-record aesthetic scores")
    p.add_argument("--input", required=True, help="dataset path (JSONL)")
    p.add_argument("--out", required=True, help="output CSV path (id,score)")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("sample", parents=[window_flags], help="draw training triplets and dump them")
    p.add_argument("--input", required=True, help="dataset path (JSONL)")
    p.add_argument("--count", type=int, default=1000, help="triplets to draw (default 1000)")
    p.add_argument("--max-proposals", type=int, default=SamplerConfig.max_proposals,
                   help="starvation budget between acceptances (default %(default)s)")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
    p.add_argument("--out", required=True, help="output CSV path (a,p,n,pair_above,ratio)")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("train", parents=[window_flags], help="train the encoder on sampled triplets")
    p.add_argument("--input", required=True, help="dataset path (JSONL)")
    p.add_argument("--embed-dim", type=int, default=TrainConfig.embed_dim,
                   help="embedding dimension (default %(default)s)")
    p.add_argument("--hidden", type=_comma_list(int, "integers"), default=TrainConfig.hidden_dims,
                   help="hidden layer widths, comma separated (default %(default)s)")
    p.add_argument("--margin", type=float, default=LossConfig.margin_m,
                   help="triplet margin m (default %(default)s)")
    p.add_argument("--dir-margin", type=float, default=LossConfig.margin_md,
                   help="directional margin (default %(default)s)")
    p.add_argument("--lr", type=float, default=TrainConfig.lr_init,
                   help="initial learning rate (default %(default)s)")
    p.add_argument("--batch", type=int, default=TrainConfig.batch_size,
                   help="triplets per step (default %(default)s)")
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
    p.add_argument("--thresholds", type=_comma_list(float, "numbers"),
                   default=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6),
                   help="score-difference thresholds (default 0.1,0.2,0.3,0.4,0.5,0.6)")
    p.add_argument("--out", required=True, help="output CSV path (delta,pairs,agreement)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("video", help="score a frame sequence, smooth it, mark peaks")
    p.add_argument("--model", required=True, help="model file path (JSON)")
    p.add_argument("--frames", required=True, help="frame records path (JSONL, temporal order)")
    p.add_argument("--q", type=float, default=KalmanConfig.q,
                   help="process noise variance (default %(default)s)")
    p.add_argument("--r", type=float, default=KalmanConfig.r,
                   help="measurement noise variance (default %(default)s)")
    p.add_argument("--min-sep", type=int, default=PeakConfig.min_separation,
                   help="minimum peak separation (default %(default)s)")
    p.add_argument("--min-prom", type=float, default=PeakConfig.min_prominence,
                   help="minimum peak prominence (default %(default)s)")
    p.add_argument("--out", required=True,
                   help="output CSV path (frame,raw_score,smoothed_score,is_peak)")
    p.set_defaults(func=_cmd_video)

    return parser


def _cmd_synth(args):
    seed = _resolve_seed(args.seed)
    config = synth.SynthConfig(
        n=args.n,
        d_in=args.din,
        noise_sigma=args.noise,
        seed=seed,
        view_range=(args.view_lo, args.view_hi),
    )
    dataset = synth.generate(config)
    twin = data_model.save_dataset(dataset, args.out)
    outputs = [args.out]
    if os.path.isfile(args.out):  # a pipe or a device gets no sidecar
        outputs.append(f"{args.out}.sidecar.json")
        synth.write_sidecar(config, outputs[1])
    if twin is not None:
        outputs.append(twin)
    return {"config": dataclasses.asdict(config), "seed": seed, "inputs": [], "outputs": outputs}


def _cmd_score(args):
    kept = [(block.ids, block.scores()) for block in data_model.read_blocks(args.input)]
    data_model.write_csv(args.out, ("id", "score"), (
        row for ids, scores in kept for row in zip(ids, scores.tolist())))
    return {"config": {}, "seed": None, "inputs": [args.input], "outputs": [args.out]}


def _cmd_sample(args):
    seed = _resolve_seed(args.seed)
    config = SamplerConfig(
        alpha=args.alpha,
        beta=args.beta,
        seed=seed,
        pair_ref=args.pair_ref,
        max_proposals=args.max_proposals,
    )
    if args.count < 0:
        raise _UsageError(f"--count must be >= 0, got {args.count}")
    dataset = data_model.load_dataset(args.input)
    smp = TripletSampler(dataset.scores(), config)

    def rows():
        left = args.count
        while left > 0:
            idx = smp.collect_indices(min(left, SAMPLE_BLOCK))
            left -= idx.shape[1]
            ref, ratio = window(smp.scores, idx, config.pair_ref)
            above = ("true" if flag else "false" for flag in (ref > smp.scores[idx[2]]).tolist())
            yield from zip(*idx.tolist(), above, ratio.tolist())

    data_model.write_csv(args.out, ("a", "p", "n", "pair_above", "ratio"), rows())
    stats = {**dataclasses.asdict(smp.stats), "acceptance_rate": smp.stats.acceptance_rate}
    cfg = dataclasses.asdict(config)
    cfg["count"] = args.count
    return {"config": cfg, "seed": seed, "inputs": [args.input], "outputs": [args.out],
            "stats": stats}


def _cmd_train(args):
    seed = _resolve_seed(args.seed)
    config = TrainConfig(
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
    )
    log_out = os.path.realpath(args.log_out)
    if log_out == os.path.realpath(args.model_out):
        raise _UsageError(f"--model-out and --log-out name the same file: {args.model_out}")
    if log_out == os.path.realpath(f"{args.model_out}.meta.json"):
        raise _UsageError(f"--log-out names the model's sidecar: {args.model_out}.meta.json")
    dataset = data_model.load_dataset(args.input)
    params, log = trainer.train(dataset, config)
    encoder.save(params, args.model_out)
    columns = [f.name for f in dataclasses.fields(trainer.WindowRecord)]
    data_model.write_csv(args.log_out, columns, map(dataclasses.astuple, log.windows))
    return {"config": dataclasses.asdict(config), "seed": seed, "inputs": [args.input],
            "outputs": [args.model_out, args.log_out]}


def _cmd_embed(args):
    params = encoder.load(args.model)
    blocks = ranker.embed_blocks(ranker.embed, params, data_model.read_blocks(args.input))
    header = ["id", *(f"phi{j}" for j in range(params.d_out))]
    data_model.write_csv(args.out, header, (
        [rec_id, *phi]
        for block, (embeddings, _) in blocks for rec_id, phi in zip(block.ids, embeddings.tolist())))
    return {"config": {}, "seed": None, "inputs": [args.model, args.input], "outputs": [args.out]}


def _cmd_rank(args):
    ranked = ranker.rank_collection(encoder.load(args.model), data_model.read_blocks(args.input))
    data_model.write_csv(args.out, ("rank", "id", "score"), (
        (rank, rec_id, score) for rank, (rec_id, score) in enumerate(ranked, start=1)
    ))
    return {"config": {}, "seed": None, "inputs": [args.model, args.input], "outputs": [args.out]}


def _cmd_eval(args):
    try:
        ranker.check_thresholds(args.thresholds)
    except InputError as exc:
        raise _UsageError(str(exc)) from exc
    params = encoder.load(args.model)
    norms, scores = [], []
    for block, (_, block_norms) in ranker.embed_blocks(ranker.embed, params,
                                                       data_model.read_blocks(args.input)):
        norms.append(block_norms)
        scores.append(block.scores())
    rows = ranker.pairwise_agreement(np.concatenate(norms), np.concatenate(scores), args.thresholds)
    data_model.write_csv(args.out, ("delta", "pairs", "agreement"), map(dataclasses.astuple, rows))
    return {"config": {"thresholds": list(args.thresholds)}, "seed": None,
            "inputs": [args.model, args.input], "outputs": [args.out]}


def _cmd_video(args):
    kalman = KalmanConfig(q=args.q, r=args.r)
    peaks_cfg = PeakConfig(min_separation=args.min_sep, min_prominence=args.min_prom)
    params = encoder.load(args.model)
    ids, raw = [], []
    for block, scores in ranker.embed_blocks(video.score_sequence, params,
                                             video.load_frames(args.frames)):
        ids += block.ids
        raw += scores
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
    except (_UsageError, ConfigError) as exc:
        print(parser.format_usage(), end="", file=sys.stderr)
        print(f"aespace {args.subcommand}: error: {exc}", file=sys.stderr)
        return 2
    except (AespaceError, OSError) as exc:
        print(f"aespace {args.subcommand}: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
