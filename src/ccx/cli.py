"""Command-line interface.

Exit codes: 0 success, 2 usage error, 3 IO failure, 4 numeric abort
during training, 5 verification (gradcheck) failure.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from pathlib import Path

from . import config as cfgmod
from . import data, metrics, trainer, verify
from .rng import Rng
from .trainer import NumericAbort

EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4
EXIT_VERIFY = 5


def _parser():
    p = argparse.ArgumentParser(prog="ccx", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic dataset")
    g.add_argument("--pairs", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--image-size", type=int, default=32)
    g.add_argument("--weight", type=int, default=1)
    g.add_argument("--overfit", action="store_true",
                   help="repeat one caption five times per record")

    t = sub.add_parser("train", help="run the staged training schedule")
    t.add_argument("--config", required=True)
    t.add_argument("--stage", default="all", choices=["all", "1", "2", "3"])
    t.add_argument("--resume", default=None, help="checkpoint directory to start from")

    c = sub.add_parser("caption", help="greedy-caption one pair from a manifest")
    c.add_argument("--checkpoint", required=True)
    c.add_argument("--config", required=True)
    c.add_argument("--manifest", required=True)
    c.add_argument("--pair", required=True)

    e = sub.add_parser("eval-metrics", help="score hypotheses against references")
    e.add_argument("--hyp", help="text file, one hypothesis per line")
    e.add_argument("--ref", help="text file, references per line separated by ' ||| '")
    e.add_argument("--checkpoint")
    e.add_argument("--config")
    e.add_argument("--manifest")
    e.add_argument("--split", default=None)
    e.add_argument("--json-out", default=None)

    v = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    v.add_argument("--module", default="all",
                   choices=["all", "enhancer", "encoder", "bridge"])
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--tolerance", type=float, default=1e-4)

    i = sub.add_parser("config-init", help="write a default config file")
    i.add_argument("--out", required=True)
    i.add_argument("--profile", default="toy", choices=["toy", "published"])
    return p


def _error(message, code):
    print(f"error: {message}", file=sys.stderr)
    return code


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def cmd_gen_data(args):
    try:
        manifest = data.generate_dataset(
            args.pairs, args.seed, args.out, image_size=args.image_size,
            weight=args.weight, duplicate_captions=args.overfit)
    except ValueError as exc:  # an argument out of range, checked before writing
        return _error(exc, EXIT_USAGE)
    records = data.load_manifest(manifest)
    print(f"manifest: {manifest}")
    print(f"records: {len(records)}")
    print(f"manifest-sha256: {_sha256(manifest)}")
    return 0


def cmd_train(args):
    cfg = cfgmod.load_config(args.config)
    stages = (1, 2, 3) if args.stage == "all" else (int(args.stage),)
    ckpt, _ = trainer.run_pipeline(cfg, stages=stages, resume_from=args.resume, log=print)
    print(f"checkpoint: {ckpt}")
    return 0


def cmd_caption(args):
    model = trainer.load_model(cfgmod.load_config(args.config), args.checkpoint)
    by_id = {r.id: r for r in data.load_manifest(args.manifest)}
    if args.pair not in by_id:
        return _error(f"unknown pair id {args.pair!r}", EXIT_USAGE)
    i1, i2 = trainer.load_pair(model, by_id[args.pair], Path(args.manifest).parent)
    text, _, truncated = model.generate(i1, i2)
    print(text + (" [truncated]" if truncated else ""))
    return 0


def _corpus_from_files(hyp_path, ref_path):
    hyps = data.read_lines(hyp_path)
    refs = [line.split(" ||| ") for line in data.read_lines(ref_path)]
    if len(hyps) != len(refs):
        raise ValueError(f"{hyp_path} has {len(hyps)} lines but {ref_path} has {len(refs)}")
    return metrics.make_corpus(
        (str(i), h, r) for i, (h, r) in enumerate(zip(hyps, refs)))


def cmd_eval_metrics(args):
    if args.hyp and args.ref:
        report = metrics.evaluate(_corpus_from_files(args.hyp, args.ref))
    elif args.checkpoint and args.manifest and args.config:
        model = trainer.load_model(cfgmod.load_config(args.config), args.checkpoint)
        records = data.load_manifest(args.manifest)
        report = trainer.evaluate_checkpoint(
            model, records, Path(args.manifest).parent, split=args.split)
    else:
        return _error("need --hyp/--ref or --checkpoint/--config/--manifest", EXIT_USAGE)
    if args.json_out:
        Path(args.json_out).write_text(report.to_json() + "\n")
    print(report.format())
    return 0


def cmd_gradcheck(args):
    if not 0 < args.tolerance < math.inf:  # NaN too: no error is >= NaN
        return _error(f"--tolerance must be a positive finite number, got {args.tolerance}",
                      EXIT_USAGE)
    try:
        Rng(args.seed)
    except ValueError as exc:
        return _error(f"--seed: {exc}", EXIT_USAGE)
    errors = verify.check_module(args.module, seed=args.seed)
    for group, err in sorted(verify.group_summary(errors).items()):
        print(f"{group}: max rel err {err:.3e}")
    bad = [(n, e) for n, e in errors.items() if e >= args.tolerance]
    if bad:
        worst = max(bad, key=lambda x: x[1])
        print(f"FAIL {worst[0]}: rel err {worst[1]:.3e}", file=sys.stderr)
        return EXIT_VERIFY
    return 0


def cmd_config_init(args):
    cfg = dict(cfgmod.DEFAULTS)
    if args.profile == "published":
        cfg.update(cfgmod.PUBLISHED_PROFILE_OVERRIDES)
    cfgmod.dump_config(cfg, args.out)
    print(f"wrote {args.out}")
    return 0


def main(argv=None):
    args = _parser().parse_args(argv)
    handler = {
        "gen-data": cmd_gen_data,
        "train": cmd_train,
        "caption": cmd_caption,
        "eval-metrics": cmd_eval_metrics,
        "gradcheck": cmd_gradcheck,
        "config-init": cmd_config_init,
    }[args.command]
    try:
        return handler(args)
    except (cfgmod.ConfigError, metrics.CorpusTooSmall) as exc:  # ValueErrors, so first
        return _error(exc, EXIT_USAGE)
    except NumericAbort as exc:
        return _error(exc, EXIT_NUMERIC)
    except (OSError, ValueError) as exc:  # manifest, checkpoint, image and caption errors
        return _error(exc, EXIT_IO)


if __name__ == "__main__":
    sys.exit(main())
