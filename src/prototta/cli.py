"""Command-line interface: data generation, source training, benchmarks, reports.

Exit codes: 0 on success; 2 for invalid configuration, malformed files,
missing inputs, or any other path the operating system refuses (an
``OSError``, such as a file name too long); 3 for runtime failures inside an
otherwise valid run.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .bench import (
    ABLATION_AXES,
    BenchmarkPlan,
    _check_k,
    correlate_scores,
    export_boards,
    method_presets,
    run_ablation,
    run_benchmark,
)
from .errors import ConfigError, FormatError, PttaError
from .harness import (
    SyntheticTaskSpec,
    generate_dataset,
    load_dataset,
    save_dataset,
    train_source_model,
)
from .metrics import PCA_W_K, load_records
from .model import check_output, load_model, save_model

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptta",
        description="Prototype-guided test-time adaptation benchmark tools.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="generate and save a synthetic dataset", allow_abbrev=False)
    gen.add_argument("--out", required=True, help="output dataset file (PTTD1 container)")
    gen.add_argument("--classes", type=int, default=SyntheticTaskSpec.num_classes)
    gen.add_argument("--dim", type=int, default=SyntheticTaskSpec.input_dim)
    gen.add_argument("--clusters", type=int, default=SyntheticTaskSpec.clusters_per_class)
    gen.add_argument("--spread", type=float, default=SyntheticTaskSpec.cluster_spread)
    gen.add_argument("--train-samples", type=int, default=SyntheticTaskSpec.samples_per_split[0])
    gen.add_argument("--test-samples", type=int, default=SyntheticTaskSpec.samples_per_split[1])
    gen.add_argument("--seed", type=int, default=SyntheticTaskSpec.seed)

    train = sub.add_parser("train", help="train a source model on a saved dataset", allow_abbrev=False)
    train.add_argument("--data", required=True, help="dataset file (PTTD1 container)")
    train.add_argument("--out", required=True, help="output model file (PTTA1 container)")
    train.add_argument("--epochs", type=int, default=30)
    train.add_argument("--seed", type=int, default=0)

    bench = sub.add_parser("bench", help="run a benchmark plan and emit report files", allow_abbrev=False)
    _add_plan_arguments(bench)

    ablate = sub.add_parser("ablate", help="compare prototta variants along one axis", allow_abbrev=False)
    _add_plan_arguments(ablate)
    ablate.add_argument("--axis", required=True, choices=ABLATION_AXES)

    boards = sub.add_parser("boards", help=f"export each record's top-{PCA_W_K} prototype board", allow_abbrev=False)
    boards.add_argument("--records", required=True, help="activation records .jsonl path")
    boards.add_argument("--model", required=True, help="model file (PTTA1 container)")
    boards.add_argument("--out", required=True, help="output directory")
    boards.add_argument("--method", required=True, help="method name stored in each board")
    boards.add_argument("--limit", type=int, default=0, help="max boards (0 = all)")

    corr = sub.add_parser("correlate", help="correlate board ratios with external scores", allow_abbrev=False)
    corr.add_argument("--boards", required=True, help="directory of board .json files")
    corr.add_argument("--scores", required=True, help="csv with header sample_id,score")
    corr.add_argument("--out", default=None, help="optional correlations.csv path")

    return parser


def _add_plan_arguments(sub_parser: argparse.ArgumentParser) -> None:
    sub_parser.add_argument("--plan", default=None, help="benchmark plan .json path")
    # every dest except "plan" is a BenchmarkPlan field, which a given flag overrides
    sub_parser.add_argument("--model", dest="model_path", help="model file, PTTA1 container (overrides plan)")
    sub_parser.add_argument("--data", dest="dataset_path", help="dataset file, PTTD1 container (overrides plan)")
    sub_parser.add_argument("--out-dir", dest="output_dir", help="report directory (overrides plan)")
    sub_parser.add_argument(
        "--corruptions", nargs="+", default=None, metavar="KIND:SEV", help="e.g. gaussian_noise:5"
    )
    sub_parser.add_argument(
        "--methods",
        nargs="+",
        default=None,
        choices=sorted(method_presets()),
        help="preset methods to run",
    )
    sub_parser.add_argument("--seeds", nargs="+", type=int, default=None)
    sub_parser.add_argument("--num-batches", type=int, default=None)
    sub_parser.add_argument("--record-batches", type=int, default=None)


def _plan_from_args(args: argparse.Namespace) -> BenchmarkPlan:
    base = {}
    if args.plan is not None:
        path = Path(args.plan)
        if not path.is_file():
            raise ConfigError(f"plan file not found: {path}")
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text: {exc}") from None
        base = BenchmarkPlan.from_json(text).to_dict()
    elif args.model_path is None or args.dataset_path is None or args.output_dir is None:
        raise ConfigError("without --plan, all of --model, --data, --out-dir are required")
    overrides = {f.name: getattr(args, f.name) for f in fields(BenchmarkPlan)}
    if args.methods:
        presets = method_presets()
        overrides["methods"] = [[name, presets[name].to_dict()] for name in args.methods]
    base.update({key: value for key, value in overrides.items() if value is not None})
    return BenchmarkPlan.from_dict(base)


def _cmd_gen_data(args: argparse.Namespace) -> int:
    spec = SyntheticTaskSpec(
        num_classes=args.classes,
        input_dim=args.dim,
        clusters_per_class=args.clusters,
        cluster_spread=args.spread,
        samples_per_split=(args.train_samples, args.test_samples),
        seed=args.seed,
    )
    dataset = generate_dataset(spec)
    save_dataset(dataset, args.out)
    print(f"wrote {args.out}: {len(dataset.train_y)} train / {len(dataset.test_y)} test samples")
    return EXIT_OK


def _cmd_train(args: argparse.Namespace) -> int:
    if not Path(args.data).is_file():
        raise ConfigError(f"dataset file not found: {args.data}")
    check_output(args.out)
    dataset = load_dataset(args.data)
    model, stats = train_source_model(dataset, epochs=args.epochs, seed=args.seed)
    save_model(model, args.out)
    print(f"wrote {args.out}: clean accuracy {100.0 * stats['clean_accuracy']:.2f}%")
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    plan = _plan_from_args(args)
    result = run_benchmark(plan) if args.command == "bench" else run_ablation(plan, args.axis)
    for key in sorted(result.paths):
        print(f"{key}: {result.paths[key]}")
    return EXIT_OK


def _cmd_boards(args: argparse.Namespace) -> int:
    if args.limit < 0:
        raise ConfigError(f"--limit must be 0 (all) or positive, got {args.limit}")
    for label, path in (("records", args.records), ("model", args.model)):
        if not Path(path).is_file():
            raise ConfigError(f"{label} file not found: {path}")
    model = load_model(args.model)
    _check_k(model, PCA_W_K)
    records = load_records(args.records, require_range=model.config.mapping.kind == "log_inverse_distance")
    if args.limit > 0:
        records = records[: args.limit]
    written = export_boards(records, model, k=PCA_W_K, method=args.method, out_dir=args.out)
    print(f"wrote {len(written)} boards to {args.out}")
    return EXIT_OK


def _cmd_correlate(args: argparse.Namespace) -> int:
    if not Path(args.scores).is_file():
        raise ConfigError(f"scores file not found: {args.scores}")
    report = correlate_scores(args.boards, args.scores, out_path=args.out)
    for scope, n, r, rho in report.rows:
        print(f"{scope}: n={n} pearson={r:.4f} spearman={rho:.4f}")
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return EXIT_OK


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "bench": _cmd_bench,
    "ablate": _cmd_bench,
    "boards": _cmd_boards,
    "correlate": _cmd_correlate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PttaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
