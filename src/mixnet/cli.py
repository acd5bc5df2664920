"""Command line front end: synthesize data, train per plane, predict,
fuse, evaluate, verify.

``generate`` and ``train`` layer their settings in ``_resolve``, weakest
first: built-in defaults, then an optional JSON config file (--config),
then explicit flags.  The fully resolved configuration is echoed and
written next to the outputs before any work starts, so a run can be
reproduced from its artifacts alone.

Exit codes: 0 ok, 1 usage error, 2 data error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import verify, volume
from .arch import VARIANTS, NetConfig, Network, check_slice
from .augment import expand_slices, policy_for_plane
from .errors import ConfigError, DataError, MixNetError, ShapeError, VerificationFailure
from .metrics import evaluate_segmentation
from .records import check_count, check_record, kind_of
from .tensor import derive_seed
from .trainer import (TrainConfig, Trainer, load_checkpoint_header, load_network,
                      resume_trainer, save_checkpoint)
from .volume import PLANES

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    """argparse, but usage errors exit 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _numbers(kind):
    """An argparse type for comma-separated ``kind`` values, e.g. 96,96,96."""
    def parse(text: str) -> tuple:
        try:
            return tuple(kind(p) for p in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated "
                                             f"{kind.__name__}s, got {text!r}")
    return parse


# ---------------------------------------------------------------------------
# config resolution


def _resolve(defaults: dict, args, check, recorded: dict | None = None) -> dict:
    """defaults <- settings a checkpoint recorded <- --config file <- the
    flags of ``args`` (dests: the keys of ``defaults``); each file value
    must be of its default's kind (``records.kind_of``), and ``check``,
    the caller's range check, names the file if it fails on the file's
    values before the flags apply."""
    resolved = {**defaults, **(recorded or {})}
    if args.config:
        try:
            with open(args.config) as fh:
                from_file = json.load(fh)
        except OSError as e:
            raise DataError(f"cannot read config file: {e}") from None
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise ConfigError(f"{args.config}: invalid JSON: {e}") from None
        kinds = {k: kind_of(v) for k, v in defaults.items()}
        resolved.update(check_record(from_file, kinds, args.config, ConfigError))
        try:
            check(resolved)
        except ConfigError as e:
            raise ConfigError(f"{args.config}: {e}") from None
    flags = {k: getattr(args, k) for k in defaults}
    resolved.update({k: v for k, v in flags.items() if v is not None})
    return resolved


def _echo_config(command: str, resolved: dict, out_dir=None) -> None:
    doc = {"command": command, **{k: resolved[k] for k in sorted(resolved)}}
    text = json.dumps(doc, indent=1, sort_keys=False)
    print(text)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with volume.atomic_open(os.path.join(out_dir, "config.json"), "w") as fh:
            fh.write(text + "\n")


# ---------------------------------------------------------------------------
# generate


GENERATE_DEFAULTS = {
    "subjects": 3,
    "dims": (64, 64, 64),
    "spacing": (1.0, 1.0, 1.0),
    "classes": 4,
    "modalities": 3,
    "seed": 0,
}


def _check_generate(cfg: dict) -> None:
    volume.check_synthesis(cfg["dims"], cfg["classes"], cfg["modalities"],
                           cfg["spacing"], cfg["subjects"], ConfigError)
    check_count(cfg["seed"], "seed", ConfigError, least=0)


def cmd_generate(args) -> int:
    cfg = _resolve(GENERATE_DEFAULTS, args, _check_generate)
    _check_generate(cfg)
    _echo_config("generate", cfg, args.out)
    manifest = volume.generate_dataset(
        args.out, subjects=cfg["subjects"], dims=tuple(cfg["dims"]),
        classes=cfg["classes"], modalities=cfg["modalities"],
        spacing=tuple(cfg["spacing"]), seed=cfg["seed"])
    print(f"wrote {len(manifest['subjects'])} subjects "
          f"({cfg['modalities']} modalities each) to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train


# train settings passed to TrainConfig under their own names
TRAIN_CONFIG_KEYS = ("epochs", "batch_size", "lr0", "momentum", "weight_decay",
                     "loss_reduction", "val_every", "checkpoint_every")


def _owned_settings(train: TrainConfig, net: NetConfig) -> dict:
    """The train settings whose values TrainConfig and NetConfig hold."""
    return {**{k: getattr(train, k) for k in TRAIN_CONFIG_KEYS},
            "lr_schedule": train.use_lr_schedule,
            "variant": net.variant, "filters": net.filters}


TRAIN_DEFAULTS = {
    **_owned_settings(TrainConfig(), NetConfig()),
    "plane": "transverse",
    "augment": "plane",
    "max_slices": 0,
    "holdout": "",
    "seed": 0,
}


# train settings that choose the training slices and their draws; Trainer.slice_settings
SLICE_KEYS = ("plane", "augment", "max_slices", "holdout", "seed")

# the --augment policies; plane = full for transverse, light otherwise
AUGMENT = ("plane", "full", "light", "none")


def _checkpoint_settings(path) -> tuple[dict, dict]:
    """The settings recorded in the header of the resumable checkpoint
    at ``path``, and that header, as :func:`load_checkpoint_header`
    reads it.  Checkpoints older than the slice settings record none,
    and older than the seed's record no seed."""
    header = load_checkpoint_header(path)
    if "train_config" not in header:
        raise DataError(f"{path}: checkpoint has no trainer state")
    saved = header["train_config"]
    slices = check_record(header.get("slice_settings", {}),
                          {k: kind_of(TRAIN_DEFAULTS[k]) for k in SLICE_KEYS},
                          f"{path}: slice_settings", DataError)
    return {**_owned_settings(saved, header["net_config"]), **slices}, header


def _manifest_entry(manifest: dict, sid: str, role: str = "subject") -> dict:
    """The manifest's entry of subject ``sid``; ``role`` names it if absent."""
    for entry in manifest["subjects"]:
        if entry["id"] == sid:
            return entry
    raise DataError(f"{role} {sid!r} not in manifest "
                    f"({[e['id'] for e in manifest['subjects']]})")


def _stack_subjects(data_dir, entries, plane):
    """All slices of all subjects along one plane."""
    images, labels = [], []
    for entry in entries:
        sub = volume.load_subject(data_dir, entry)
        images.append(volume.slice_stack(sub["images"], plane))
        labels.append(volume.slice_stack(sub["labels"], plane))
    return np.concatenate(images, axis=0), np.concatenate(labels, axis=0)


def _train_configs(cfg: dict) -> tuple[NetConfig, TrainConfig]:
    """The network and training configs of in-range train settings."""
    if cfg["plane"] not in PLANES:
        raise ConfigError(f"plane must be one of {tuple(PLANES)}, got {cfg['plane']!r}")
    if cfg["augment"] not in AUGMENT:
        raise ConfigError(f"augment must be one of {AUGMENT}, got {cfg['augment']!r}")
    check_count(cfg["max_slices"], "max_slices", ConfigError, least=0)
    check_count(cfg["seed"], "seed", ConfigError, least=0)
    # modalities and classes come from the manifest, once the data is read
    net_config = NetConfig(variant=cfg["variant"], filters=cfg["filters"]).validate()
    train_config = TrainConfig(
        **{k: cfg[k] for k in TRAIN_CONFIG_KEYS}, use_lr_schedule=cfg["lr_schedule"],
        seed=derive_seed(cfg["seed"], "batches")).validate()
    return net_config, train_config


def cmd_train(args) -> int:
    # a resumed run starts from the checkpoint's settings; a file or flag
    # may change its epochs, and nothing else it records
    recorded = {}
    if args.resume:
        recorded, header = _checkpoint_settings(args.resume)
    cfg = _resolve(TRAIN_DEFAULTS, args, _train_configs, recorded)
    net_config, train_config = _train_configs(cfg)
    if args.resume:
        changed = [f"{k} {cfg[k]!r} (checkpoint {v!r})" for k, v in recorded.items()
                   if k != "epochs" and cfg[k] != v]
        if "seed" not in recorded and train_config.seed != header["train_config"].seed:
            changed.append(f"seed {cfg['seed']!r} (the checkpoint used another)")
        if changed:
            raise ConfigError(f"{args.resume}: cannot resume with changed settings: "
                              + ", ".join(changed))
    cfg["data"] = args.data
    cfg["resume"] = args.resume or ""
    _echo_config("train", cfg, args.out)

    manifest = volume.load_manifest(args.data)
    entries, held = manifest["subjects"], []
    if cfg["holdout"]:
        held = [_manifest_entry(manifest, cfg["holdout"], "holdout subject")]
        entries = [e for e in entries if e["id"] != cfg["holdout"]]
    if not entries:
        raise DataError("no training subjects" + (" left after holdout" if held else ""))
    if args.resume:
        saved = header["net_config"]
        data = (manifest["classes"], len(entries[0]["modalities"]))
        if (saved.classes, saved.modalities) != data:
            raise DataError(f"{args.resume}: checkpoint has {saved.classes} classes and "
                            f"{saved.modalities} modalities, the data {data[0]} and {data[1]}")
    # every sidecar of every subject stacked, the holdout's too, is checked
    # before any volume body is read: its kinds and grid, the manifest's
    # class count, its slices, and one grid for the training subjects
    dims = None
    for i, entry in enumerate(entries + held):
        paths, kinds = volume.subject_files(args.data, entry)
        meta = volume.read_metas(paths, kinds)[-1]
        if meta.classes != manifest["classes"]:
            raise DataError(f"{paths[-1]}: {meta.classes} classes, but the manifest "
                            f"has {manifest['classes']}")
        try:
            check_slice(*(d for a, d in enumerate(meta.dims) if a != PLANES[cfg["plane"]]))
        except ShapeError as e:
            raise ShapeError(f"{entry['id']}: {e}") from None
        dims = dims or meta.dims
        if i < len(entries) and meta.dims != dims:
            raise DataError(f"subject {entry['id']!r} has dims {meta.dims}, "
                            f"subject {entries[0]['id']!r} {dims}")
    val = _stack_subjects(args.data, held, cfg["plane"]) if held else None
    images, labels = _stack_subjects(args.data, entries, cfg["plane"])

    if cfg["max_slices"] and images.shape[0] > cfg["max_slices"]:
        rng = np.random.Generator(np.random.PCG64(
            derive_seed(cfg["seed"], "subsample")))
        keep = np.sort(rng.choice(images.shape[0], size=cfg["max_slices"],
                                  replace=False))
        images, labels = images[keep], labels[keep]

    policy = cfg["augment"]
    if policy == "plane":
        policy = policy_for_plane(cfg["plane"])
    if policy != "none":
        images, labels = expand_slices(images, labels, policy,
                                       seed=derive_seed(cfg["seed"], "augment"))
    print(f"training on {images.shape[0]} slices of {images.shape[1]}x"
          f"{images.shape[2]} ({cfg['plane']}, policy {policy})")

    log_path = os.path.join(args.out, "train_log.csv")
    ckpt_path = os.path.join(args.out, "checkpoint.ckpt")
    if args.resume:
        trainer = resume_trainer(args.resume, images, labels, val=val,
                                 log_path=log_path, checkpoint_path=ckpt_path)
        trainer.config.epochs = cfg["epochs"]
    else:
        net_config = replace(net_config, modalities=len(entries[0]["modalities"]),
                             classes=manifest["classes"])
        net = Network(net_config, seed=derive_seed(cfg["seed"], "params"))
        trainer = Trainer(net, images, labels, train_config, val=val,
                          log_path=log_path, checkpoint_path=ckpt_path)

    trainer.slice_settings = {k: cfg[k] for k in SLICE_KEYS}
    trainer.fit()
    save_checkpoint(ckpt_path, trainer.net, trainer)
    if trainer.history:
        last = trainer.history[-1]
        note = f", val dice {last['val_dice_mean']:.4f}" if "val_dice_mean" in last \
            else ""
        print(f"epoch {last['epoch']}: loss {last['loss']:.4f}{note}")
    print(f"checkpoint: {ckpt_path}")
    print(f"log: {log_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# predict / fuse / evaluate


def cmd_predict(args) -> int:
    check_count(args.batch_size, "batch_size", ConfigError)
    net = load_network(args.checkpoint)
    entry = _manifest_entry(volume.load_manifest(args.data), args.subject)
    if len(entry["modalities"]) != net.config.modalities:
        raise DataError(f"subject {args.subject!r} has {len(entry['modalities'])} "
                        f"modalities, checkpoint expects {net.config.modalities}")
    sub = volume.load_images(args.data, entry)
    probs = volume.predict_volume(net, sub["images"], args.plane,
                                  batch_size=args.batch_size)
    volume.write_volume(args.out, probs, sub["spacing"], "probs",
                        classes=net.config.classes)
    print(f"wrote {probs.shape} probabilities ({args.plane}) to {args.out}")
    return EXIT_OK


def cmd_fuse(args) -> int:
    weights = args.weights
    if weights is None:
        # sagittal : coronal : transverse convention for the usual 3 planes
        weights = (1.0, 1.0, 4.0) if len(args.inputs) == 3 else (1.0,) * len(args.inputs)
    weights = volume.check_weights(weights, len(args.inputs), ConfigError)
    vols = volume.read_volumes(args.inputs, ["probs"] * len(args.inputs))
    labels, _ = volume.fuse_predictions([data for data, _ in vols], weights)
    meta = vols[0][1]
    volume.write_volume(args.out, labels, meta.spacing, "labels", classes=meta.classes)
    print(f"fused {len(vols)} volumes with weights "
          f"{tuple(float(w) for w in weights)} -> {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    # the truth comes first, so a grid error names the prediction
    (truth, meta), (pred, _) = volume.read_volumes([args.truth, args.pred],
                                                   ["labels", "labels"])
    report = evaluate_segmentation(pred, truth, meta.classes, meta.spacing)
    print(report.format_table())
    if args.out:
        with volume.atomic_open(args.out, "w") as fh:
            fh.write(report.to_json())
        print(f"report: {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    check_count(args.trials, "trials", ConfigError)
    check_count(args.seed, "seed", ConfigError, least=0)
    if args.suite == "all":
        results = verify.run_all(trials=args.trials, seed=args.seed)
    else:
        results = verify.SUITES[args.suite](args.trials, args.seed)
    print(verify.format_results(results))
    if args.json:
        summary = {"suite": args.suite,
                   "passed": all(r.passed for r in results),
                   "checks": [{"name": r.name, "passed": r.passed,
                               "detail": r.detail} for r in results]}
        with volume.atomic_open(args.json, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    verify.require_all(results)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="mixnet",
                     description="Multi-modality 2D segmentation networks: "
                                 "data synthesis, training, multi-plane "
                                 "fusion, evaluation, self-verification.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("generate", help="write a synthetic dataset")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--subjects", type=int)
    p.add_argument("--dims", type=_numbers(int), help="X,Y,Z e.g. 96,96,96")
    p.add_argument("--spacing", type=_numbers(float), help="mm per voxel, e.g. 1,1,1")
    p.add_argument("--classes", type=int)
    p.add_argument("--modalities", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train one network on one plane")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--plane", choices=PLANES)
    p.add_argument("--filters", type=int, help="per-stream channel width")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr0", type=float)
    p.add_argument("--momentum", type=float)
    p.add_argument("--weight-decay", type=float)
    p.add_argument("--loss-reduction", choices=("sum", "mean"))
    p.add_argument("--lr-schedule", action=argparse.BooleanOptionalAction,
                   default=None, help="halve the rate on the standard "
                                      "epoch-fraction boundaries")
    p.add_argument("--augment", choices=AUGMENT,
                   help="plane = full for transverse, light otherwise")
    p.add_argument("--max-slices", type=int,
                   help="subsample the training slices before augmentation")
    p.add_argument("--holdout", help="subject id kept out for validation")
    p.add_argument("--val-every", type=int)
    p.add_argument("--checkpoint-every", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--resume", help="checkpoint to continue from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="probability volume for one subject")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--subject", required=True, help="subject id")
    p.add_argument("--plane", required=True, choices=PLANES)
    p.add_argument("--out", required=True, help="output .vol path")
    p.add_argument("--batch-size", type=int, default=8)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("fuse", help="fuse probability volumes into labels")
    p.add_argument("--inputs", required=True, nargs="+",
                   help="probability volumes, e.g. sagittal coronal transverse")
    p.add_argument("--weights", type=_numbers(float),
                   help="default 1,1,4 for three inputs, uniform otherwise")
    p.add_argument("--out", required=True, help="output label volume")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("evaluate", help="score a prediction against truth")
    p.add_argument("--pred", required=True, help="predicted label volume")
    p.add_argument("--truth", required=True, help="reference label volume")
    p.add_argument("--out", help="write the report as JSON here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("verify", help="run the self-verification suites")
    p.add_argument("--suite", choices=("all",) + tuple(verify.SUITES), default="all")
    p.add_argument("--trials", type=int, default=100,
                   help="random trials for the metrics suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", help="write a machine-readable summary here")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VerificationFailure as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VERIFY
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (MixNetError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
