"""Command-line entry point: sample, aggregate, agreement, stats, run, score, report.

Exit codes: 0 success, 2 usage, 3 data error, 4 provider failure or
partially failed run.
"""

from __future__ import annotations

import argparse
import functools
import gc
import logging
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Sequence

from . import annotation, corpus, extraction, inference, metrics
from .corpus import FORMAT_VERSION
from .errors import DataError, InsufficientReviews, ProviderFailure, UnknownRun
from .jsonio import STRING, atomic_writer, dump_json, load_json, render_table, write_jsonl
from .model import EotOutput, Review
from .prompting import PROMPT_VERSION, Strategy, load_config

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_PROVIDER = 4

# the fields of a run manifest that a resumed run and score read
RUN_MANIFEST_SPEC = (
    ("corpus", STRING, True, None), ("strategy", STRING, True, None),
    ("profile", STRING, True, None), ("prompt_version", STRING, True, None),
)


def _write_text(text: str, out: str | None) -> None:
    if out:
        with atomic_writer(out) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_sample(args: argparse.Namespace) -> int:
    plan = corpus.load_plan(args.plan, args.seed)
    reviews = corpus.load_corpus(args.corpus)

    items_by_domain: dict[str, dict[str, None]] = {}  # item ids in first-seen order
    reviews_by_item: dict[str, list[Review]] = {}
    for review in reviews.values():
        item_reviews = reviews_by_item.setdefault(review.item_id, [])
        if item_reviews and item_reviews[0].domain is not review.domain:
            # items are drawn per domain: one id in two would pool their reviews
            raise DataError(
                f"item {review.item_id!r} is under two domains,"
                f" {item_reviews[0].domain.value} and {review.domain.value}"
            )
        item_reviews.append(review)
        items_by_domain.setdefault(review.domain.value, {})[review.item_id] = None

    sample: list[Review] = []
    manifest_items: dict[str, Any] = {}
    domain_summary: dict[str, Any] = {}
    for domain in sorted(items_by_domain):
        items = list(items_by_domain[domain])
        try:
            chosen = corpus.srswor(items, plan["items_per_group"], corpus.derive_seed(plan["seed"], "items", domain))
        except DataError as exc:
            raise DataError(f"domain {domain} of {args.corpus}, items_per_group of {args.plan}: {exc}") from None
        domain_summary[domain] = {
            "items_available": len(items),
            "items_sampled": len(chosen),
            "inclusion_probability": plan["items_per_group"] / len(items),
        }
        for item_id in chosen:
            # filtered per drawn item: the corpus can be far larger than the sample
            item_reviews = corpus.filter_by_length(reviews_by_item[item_id], plan)
            if len(item_reviews) < plan["reviews_per_item"]:
                raise InsufficientReviews(item_id, len(item_reviews), plan["reviews_per_item"])
            strata = corpus.strata_in_order(item_reviews, plan["strata_granularity"])
            sample.extend(corpus.stratified_review_sample(strata, plan))
            manifest_items[item_id] = {
                "domain": domain,
                "strata": {key: len(reviews) for key, reviews in strata},
                "sampling_fraction": plan["reviews_per_item"] / len(item_reviews),
            }

    manifest_path = f"{args.out}.manifest.json"
    # the manifest is written last: an earlier sample's must not outlive a failed write
    Path(manifest_path).unlink(missing_ok=True)
    write_jsonl(args.out, (corpus.review_to_dict(r) for r in sample))
    manifest = {
        "format_version": FORMAT_VERSION,
        "seed": plan["seed"],
        "plan": plan,
        "domains": domain_summary,
        "items": manifest_items,
        "n_reviews": len(sample),
    }
    dump_json(manifest_path, manifest)
    print(f"wrote {len(sample)} reviews to {args.out}")
    return EXIT_OK


def cmd_aggregate(args: argparse.Namespace) -> int:
    reviews = corpus.load_corpus(args.corpus)
    annotations = annotation.load_annotations(args.annotations, reviews)
    lines = []
    for review_id, outputs in sorted(annotations.items()):
        try:
            gold, provenance = annotation.aggregate_gold(outputs)
        except DataError as exc:
            raise DataError(f"{args.annotations}: review {review_id!r}: {exc}") from None
        lines.append({**gold.to_dict(), "provenance": provenance, "format_version": FORMAT_VERSION})
    write_jsonl(args.out, lines)
    print(f"wrote {len(lines)} gold records to {args.out}")
    return EXIT_OK


def cmd_agreement(args: argparse.Namespace) -> int:
    reviews = corpus.load_corpus(args.corpus)
    report = annotation.build_agreement_report(annotation.load_annotations(args.annotations, reviews), reviews)
    _write_text(annotation.render_agreement_report(report, args.format), args.out)
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    reviews = corpus.load_corpus(args.corpus)
    stats = annotation.gold_statistics(annotation.load_gold(args.gold, reviews), reviews)
    _write_text(annotation.render_gold_statistics(stats, args.format), args.out)
    return EXIT_OK


def _resolve_profile(spec: str) -> inference.ProviderProfile:
    path, _, name = spec.partition(":")
    profiles = inference.load_provider_profiles(path)
    if name:
        if name not in profiles:
            raise DataError(f"profile {name!r} not in {path} (has: {', '.join(profiles)})")
        return profiles[name]
    if len(profiles) > 1:
        raise DataError(f"{path} defines several profiles; use PATH:NAME (has: {', '.join(profiles)})")
    return next(iter(profiles.values()))


def cmd_run(args: argparse.Namespace) -> int:
    strategy = Strategy(args.strategy)
    profile = _resolve_profile(args.profile)
    config = load_config(args.config)
    reviews = corpus.load_corpus(args.corpus)
    runs_dir = Path(args.runs_dir)
    run_id = args.run_id or time.strftime("run-%Y%m%d-%H%M%S")
    # a missing token, or a URL, proxy or header that cannot be sent, fails
    # here: before the manifest
    http = inference.http_transport(profile)
    template = inference.body_template(profile, config, strategy)

    run_dir = runs_dir / run_id
    manifest_path = run_dir / "manifest.json"
    # what a resumed run must share with the run it continues
    identity = {
        "strategy": strategy.value,
        "profile": profile.name,
        "prompt_version": PROMPT_VERSION,
        "config": config,
    }
    if manifest_path.exists():
        if not args.resume:
            raise DataError(f"run {run_id!r} already exists; pass --resume to continue it")
        manifest = load_json(manifest_path, RUN_MANIFEST_SPEC)
        drift = [name for name, value in identity.items() if manifest.get(name) != value]
        if drift:
            raise DataError(f"resume with a different {', '.join(drift)} is not allowed")
    elif args.resume:
        raise UnknownRun(run_id)
    else:
        run_dir.mkdir(parents=True, exist_ok=True)
        dump_json(manifest_path, {
            "format_version": FORMAT_VERSION,
            "run_id": run_id,
            "corpus": str(args.corpus),
            **identity,
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "seed": args.seed,
            "notes": {"zs_cot_system_message": "none"},
        })

    state = inference.run_experiment(
        reviews.values(), template, http,
        max_concurrency=profile.max_concurrency, runs_dir=runs_dir, run_id=run_id,
    )
    print(run_id)
    if state.failed:
        log.error("run %s: %d reviews failed", run_id, len(state.failed))
        return EXIT_PROVIDER
    return EXIT_OK


def cmd_score(args: argparse.Namespace) -> int:
    runs_dir = Path(args.runs_dir)
    run_dir = runs_dir / args.run_id
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        raise UnknownRun(args.run_id)
    manifest = load_json(manifest_path, RUN_MANIFEST_SPEC)
    reviews = corpus.load_corpus(args.corpus or manifest["corpus"])
    golds = annotation.load_gold(args.gold, reviews)

    def parse(entry: dict[str, Any]) -> tuple[EotOutput, dict[str, Any]]:
        review = reviews.get(entry["review_id"])
        if review is None:
            raise DataError(f"run references review {entry['review_id']!r} missing from the corpus")
        return extraction.parse_output(entry["raw_response"], review)

    # parsed as the ledger is read: no reply outlives its parse
    state = inference.read_ledger(runs_dir, args.run_id, manifest["prompt_version"], parse)
    parses = [state.ok[review_id] for review_id in sorted(state.ok)]
    write_jsonl(
        run_dir / "parsed",
        ({**output.to_dict(), **report, "format_version": FORMAT_VERSION} for output, report in parses),
    )

    predictions = [output for output, _ in parses]
    reports = [report for _, report in parses]
    statuses = Counter(r["parse_status"] for r in reports)
    parse_stats = {
        **{status.lower(): statuses[status] for status in extraction.PARSE_STATUSES},
        "failed_requests": len(state.failed),
        "dropped_triggers": sum(len(r["dropped_triggers"]) for r in reports),
        "dropped_emotions": sum(len(r["dropped_emotions"]) for r in reports),
    }
    document = {
        "format_version": FORMAT_VERSION,
        "run_id": args.run_id,
        "strategy": manifest["strategy"],
        "prompt_version": manifest["prompt_version"],
        "n_reviews_scored": len(predictions),
        "parse_stats": parse_stats,
        **metrics.score_predictions(predictions, golds),
    }
    dump_json(run_dir / "scores.json", document)

    label = f"{manifest['profile']}_{manifest['strategy']}"
    text = metrics.render_score_rows({label: metrics.score_row(document)}, args.format)
    text += "\nparse stats: " + ", ".join(f"{k}={v}" for k, v in parse_stats.items()) + "\n"
    text += _render_confusion(document["confusion"], args.format)
    _write_text(text, args.out)
    return EXIT_OK


def _render_confusion(confusion: dict[str, dict[str, float]], fmt: str) -> str:
    labels = list(confusion)
    rows = [["pred\\gold", *labels]]
    rows += [[p] + [f"{confusion[p][g]:.2f}" for g in labels] for p in labels]
    return render_table(rows, fmt, align="right")


def cmd_report(args: argparse.Namespace) -> int:
    rows: dict[str, Sequence[float]] = {}
    sources: dict[str, str] = {}
    for path in args.scores:
        document = load_json(path, metrics.SCORES_SPEC)
        name = f"{document.get('run_id', path)}_{document.get('strategy', '')}"
        if name in sources:
            raise DataError(f"{sources[name]} and {path} both give the row {name!r}")
        sources[name] = path
        rows[name] = metrics.score_row(document)
    _write_text(metrics.render_score_rows(rows, args.format), args.out)
    return EXIT_OK


@functools.cache  # built on first use, not at import, and kept for the process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eotbench",
        description="Benchmark harness for joint emotion and opinion-trigger extraction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="length-filter and sample a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--plan", required=True, help="JSON sampling plan file")
    p.add_argument("--seed", type=int, default=None, help="override the plan seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("aggregate", help="aggregate three-annotator files into gold")
    p.add_argument("--annotations", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("agreement", help="inter-annotator agreement statistics")
    p.add_argument("--annotations", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("table", "csv"), default="table")
    p.set_defaults(func=cmd_agreement)

    p = sub.add_parser("stats", help="gold-standard descriptive statistics")
    p.add_argument("--gold", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("table", "csv"), default="table")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("run", help="run prompts against a provider")
    p.add_argument("--corpus", required=True, help="review file (typically a sample)")
    p.add_argument("--strategy", required=True, choices=[s.value for s in Strategy])
    p.add_argument("--profile", required=True, help="profile file path, or PATH:NAME")
    p.add_argument("--config", default=None, help="inference config JSON")
    p.add_argument("--run-id", default=None)
    p.add_argument("--runs-dir", default="runs")
    p.add_argument("--resume", action="store_true")
    p.add_argument("--seed", type=int, default=None, help="recorded in the manifest")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("score", help="parse and score a finished run")
    p.add_argument("--run-id", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--corpus", default=None, help="defaults to the run manifest's corpus")
    p.add_argument("--runs-dir", default="runs")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("table", "csv"), default="table")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("report", help="combine score files into one table")
    p.add_argument("scores", nargs="+", help="scores.json files")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("table", "csv"), default="table")
    p.set_defaults(func=cmd_report)

    return parser


# The commands that run with the cyclic collector paused. Their records hold
# no reference cycles, yet each one they build counts towards the collector's
# next pass, and a full pass re-walks every record still alive. `run` keeps
# the collector: its time is the provider's, and a retried request leaves
# cycles (an exception, its traceback, the frame that held it) that only the
# collector frees.
COLLECTOR_PAUSED = frozenset({"sample", "aggregate", "agreement", "stats", "score", "report"})


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        if collecting and args.command not in COLLECTOR_PAUSED:
            gc.enable()
        return args.func(args)
    except ProviderFailure as exc:
        log.error("%s", exc)
        return EXIT_PROVIDER
    except (DataError, OSError) as exc:
        log.error("%s", exc)
        return EXIT_DATA
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
