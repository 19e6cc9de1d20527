"""eotbench benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload {curate,score,run} --seed N --seconds S --trace {0,1}

Run from anywhere inside a source checkout; the program is imported from
``src/`` next to this directory. Every workload is a closed loop in this one
process: the benchmark calls ``eotbench.cli.main`` for each stage of the
workload's chain, waits for it, and starts the next pass when the chain is
done. See README.md in this directory for the workloads and metrics.

Set-up (generating and writing the inputs in a child process, a cold import
of the CLI in another, and for ``run`` starting the mock provider) is timed
SETUP_REPEATS times and its median reported as ``setup_s``. One untimed
warm-up pass follows, then passes run for ``--seconds``.

``--trace 0`` reports the end-to-end metrics: the per-pass throughput that
nine passes in ten beat, set-up time and this process's peak RSS. ``--trace 1``
alternates untraced and traced passes for ``--seconds`` and reports the
per-layer metrics of the traced passes (medians over passes), plus
``trace.overhead_ratio``; the spans of the last traced pass go to
``.bench_work/<workload>/trace.jsonl``.

Correctness checks run after the timed window on the last pass's outputs;
the process exits 1 when one fails and 2 when the checkout has no program
to run.
"""

from __future__ import annotations

import argparse
import contextlib
import faulthandler
import io
import json
import logging
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

sys.path.insert(0, str(BENCH_DIR))
import checks  # noqa: E402
import gen  # noqa: E402
from tracing import Tracer, median_or_zero, percentile, self_seconds, summarize  # noqa: E402

RUN_ID, PROFILE_NAME = gen.RUN_ID, gen.PROFILE_NAME
# the score shapes that reach parse_output (a Failed-only review has no Ok entry)
PARSED_SHAPES = tuple(shape for shape, _ in gen.SCORE_SHAPES if shape != "failed")

# (name, unit, better)
END_TO_END = (
    ("reviews_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# (name, unit, better, the end-to-end metric and workloads it should move)
PER_LAYER = (
    ("cli.sample.s", "s", "lower", "reviews_per_s on curate"),
    ("cli.aggregate.s", "s", "lower", "reviews_per_s on curate"),
    ("cli.agreement.s", "s", "lower", "reviews_per_s on curate"),
    ("cli.stats.s", "s", "lower", "reviews_per_s on curate"),
    ("cli.run.s", "s", "lower", "reviews_per_s on run"),
    ("cli.score.s", "s", "lower", "reviews_per_s on score"),
    ("cli.report.s", "s", "lower", "reviews_per_s on score"),
    ("corpus.load_corpus.s", "s", "lower", "reviews_per_s on curate; minor on score and run"),
    ("corpus.filter_by_length.s", "s", "lower", "reviews_per_s on curate"),
    ("corpus.stratified_review_sample.s", "s", "lower", "reviews_per_s on curate"),
    ("corpus.stratified_review_sample.calls", "count", "lower", "reviews_per_s on curate"),
    ("corpus.srswor.calls", "count", "lower", "reviews_per_s on curate"),
    ("model.tokenize_with_spans.calls", "count", "lower", "reviews_per_s on curate and score"),
    ("model.tokenize_with_spans.s", "s", "lower", "reviews_per_s on curate and score"),
    ("model.tokenize.calls", "count", "lower", "reviews_per_s on curate and score"),
    ("model.tokenize.s", "s", "lower", "reviews_per_s on curate and score"),
    ("model.locate_span.calls", "count", "lower", "reviews_per_s on curate and score"),
    ("annotation.load_annotations.s", "s", "lower", "reviews_per_s on curate"),
    ("annotation.aggregate_gold.s", "s", "lower", "reviews_per_s on curate"),
    ("annotation.aggregate_gold.calls", "count", "lower", "reviews_per_s on curate"),
    ("annotation.build_agreement_report.s", "s", "lower", "reviews_per_s on curate"),
    ("annotation.trigger_token_kappa.s", "s", "lower", "reviews_per_s on curate"),
    ("annotation.fleiss_kappa.calls", "count", "lower", "reviews_per_s on curate"),
    ("annotation.gold_statistics.s", "s", "lower", "reviews_per_s on curate"),
    ("annotation.load_gold.s", "s", "lower", "reviews_per_s on score"),
    ("prompting.build_prompt.s", "s", "lower", "reviews_per_s on run"),
    ("prompting.build_prompt.calls", "count", "lower", "reviews_per_s on run"),
    ("prompting.render_messages.s", "s", "lower", "reviews_per_s on run"),
    ("inference.run_experiment.s", "s", "lower", "reviews_per_s on run"),
    ("inference.run_experiment.self_s", "s", "lower", "reviews_per_s on run"),
    ("inference.request_completion.calls", "count", "lower", "reviews_per_s on run"),
    ("inference.request_completion.p50_ms", "ms", "lower", "reviews_per_s on run"),
    ("inference.request_completion.p95_ms", "ms", "lower", "reviews_per_s on run"),
    ("mock.service.p50_ms", "ms", "lower", "reviews_per_s on run (the mock's share)"),
    ("mock.cpu_share", "ratio", "lower", "reviews_per_s on run (the mock's share)"),
    ("inference.attempts_per_request", "attempts", "lower", "reviews_per_s on run"),
    ("inference.skipped_on_resume", "count", "higher", "reviews_per_s on run"),
    ("inference.read_ledger.s", "s", "lower", "reviews_per_s on run and score"),
    ("inference.read_ledger.calls", "count", "lower", "reviews_per_s on run and score"),
    ("extraction.parse_output.s", "s", "lower", "reviews_per_s on score"),
    ("extraction.parse_output.calls", "count", "lower", "reviews_per_s on score"),
    ("extraction.extract_structured_block.s", "s", "lower", "reviews_per_s on score"),
    *((f"extraction.parse_output.{shape}.s", "s", "lower", "reviews_per_s on score")
      for shape in PARSED_SHAPES),
    ("extraction.clean_ratio", "ratio", "higher", "reviews_per_s on score"),
    ("extraction.repaired_ratio", "ratio", "lower", "reviews_per_s on score"),
    ("extraction.unparseable_ratio", "ratio", "lower", "reviews_per_s on score"),
    ("extraction.dropped_triggers", "count", "lower", "reviews_per_s on score"),
    ("metrics.score_predictions.s", "s", "lower", "reviews_per_s on score"),
    ("metrics.emotion_prf.s", "s", "lower", "reviews_per_s on score"),
    ("metrics.trigger_em_pm.s", "s", "lower", "reviews_per_s on score"),
    ("metrics.align_and_average_rouge.s", "s", "lower", "reviews_per_s on score"),
    ("metrics.confusion_matrix.s", "s", "lower", "reviews_per_s on score"),
    ("metrics.rougeL.calls", "count", "lower", "reviews_per_s on score"),
    ("jsonio.write_jsonl.s", "s", "lower", "reviews_per_s on score and curate"),
    ("jsonio.dump_json.s", "s", "lower", "reviews_per_s on score and curate"),
    ("ledger.bytes", "bytes", "lower", "reviews_per_s on score and run"),
    ("trace.overhead_ratio", "ratio", "lower", "none: the cost of tracing itself"),
)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """The CLI chain of one workload over the inputs in ``work``."""

    name = ""

    def __init__(self, work: Path):
        self.work = work
        self.expected = json.loads((work / "expected.json").read_text(encoding="utf-8"))

    def commands(self) -> list[list[str]]:
        raise NotImplementedError

    def reviews_per_pass(self) -> int:
        raise NotImplementedError

    def prepare(self) -> None:
        """Restore the state a pass starts from (untimed)."""

    def requests(self) -> tuple[int, int, list[int]]:
        """Provider requests of the last pass: (attempted, failed, attempt counts)."""
        return 0, 0, []

    def layer_extras(self, spans: list[tuple]) -> dict[str, float]:
        """Per-layer values read from the last pass's outputs, or from its
        spans grouped by what the workload's inputs say about each review."""
        return {}

    def check(self, run_cli) -> list[str]:
        raise NotImplementedError

    def path(self, name: str) -> str:
        return str(self.work / name)


class Curate(Workload):
    name = "curate"

    def commands(self):
        return [
            ["sample", "--corpus", self.path("corpus.jsonl"), "--plan", self.path("plan.json"),
             "--out", self.path("sample.jsonl")],
            ["aggregate", "--annotations", self.path("annotations.jsonl"),
             "--corpus", self.path("sample.jsonl"), "--out", self.path("gold.jsonl")],
            ["agreement", "--annotations", self.path("annotations.jsonl"),
             "--corpus", self.path("sample.jsonl"), "--format", "csv", "--out", self.path("agreement.csv")],
            ["stats", "--gold", self.path("gold.jsonl"), "--corpus", self.path("sample.jsonl"),
             "--format", "csv", "--out", self.path("stats.csv")],
        ]

    def reviews_per_pass(self):
        return len(self.expected["sample_ids"])

    def check(self, run_cli):
        return checks.check_curate(self.work)


class Score(Workload):
    name = "score"

    def commands(self):
        return [
            ["score", "--run-id", RUN_ID, "--gold", self.path("gold.jsonl"),
             "--corpus", self.path("reviews.jsonl"), "--runs-dir", self.path("runs"),
             "--format", "csv", "--out", self.path("score.csv")],
            ["report", self.path(f"runs/{RUN_ID}/scores.json"), "--format", "csv",
             "--out", self.path("report.csv")],
        ]

    def reviews_per_pass(self):
        return sum(1 for shape in self.expected["shapes"].values() if shape != "failed")

    def layer_extras(self, spans):
        shapes = self.expected["shapes"]
        parse_s = dict.fromkeys(PARSED_SHAPES, 0.0)
        for _, name, start, end, _, review_id in spans:
            if name == "extraction.parse_output":
                parse_s[shapes[review_id]] += end - start
        scores = json.loads((self.work / "runs" / RUN_ID / "scores.json").read_text(encoding="utf-8"))
        stats, n = scores["parse_stats"], max(1, scores["n_reviews_scored"])
        return {
            "extraction.clean_ratio": stats["clean"] / n,
            "extraction.repaired_ratio": stats["repaired"] / n,
            "extraction.unparseable_ratio": stats["unparseable"] / n,
            "extraction.dropped_triggers": stats["dropped_triggers"],
            "ledger.bytes": (self.work / "runs" / RUN_ID / "ledger").stat().st_size,
            **{f"extraction.parse_output.{shape}.s": s for shape, s in parse_s.items()},
        }

    def check(self, run_cli):
        sys.path.insert(0, str(ROOT / "tests"))
        from oracles import oracle_score

        return checks.check_score(self.work, RUN_ID, run_cli, oracle_score)


class Run(Workload):
    name = "run"

    def __init__(self, work: Path):
        super().__init__(work)
        self.ledger = work / "runs" / RUN_ID / "ledger"
        self.preseeded = (work / "ledger.preseeded").read_bytes()
        self.n_reviews = len(checks.read_jsonl(work / "reviews.jsonl"))

    def commands(self):
        return [["run", "--corpus", self.path("reviews.jsonl"), "--strategy", "eot-detect",
                 "--profile", f"{self.path('profiles.ini')}:{PROFILE_NAME}", "--run-id", RUN_ID,
                 "--runs-dir", self.path("runs"), "--resume"]]

    def reviews_per_pass(self):
        return self.n_reviews - len(self.expected["preseeded_ids"])

    def prepare(self):
        self.ledger.write_bytes(self.preseeded)

    def _appended(self) -> list[dict]:
        tail = self.ledger.read_bytes()[len(self.preseeded):].decode("utf-8")
        return [json.loads(line) for line in tail.splitlines() if line.strip()]

    def requests(self):
        entries = self._appended()
        failed = sum(1 for e in entries if e["status"] != "Ok")
        return len(entries), failed, [e["attempt_count"] for e in entries]

    def layer_extras(self, spans):
        return {
            "inference.skipped_on_resume": self.n_reviews - len(self._appended()),
            "ledger.bytes": self.ledger.stat().st_size,
        }

    def check(self, run_cli):
        return checks.check_run(self.work, RUN_ID)


WORKLOADS = {w.name: w for w in (Curate, Score, Run)}


# ---------------------------------------------------------------------------
# Set-up: inputs, import, mock
# ---------------------------------------------------------------------------


class Mock:
    """The mock provider in a child process; stops when its stdin closes."""

    def __init__(self, replies: Path, workers: int):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "mock.py"), "--replies", str(replies), "--workers", str(workers)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.strip().isdigit():
            self.stop()
            raise RuntimeError("the mock provider did not start")
        self.port = int(line)

    def stats(self) -> dict:
        with urllib.request.urlopen(f"http://127.0.0.1:{self.port}/stats", timeout=10) as response:
            return json.loads(response.read())

    def stop(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def write_profile(path: Path, port: int, concurrency: int) -> None:
    path.write_text(
        f"[{PROFILE_NAME}]\n"
        f"base_url = http://127.0.0.1:{port}\n"
        "model_id = mock-model\n"
        "supported_params = temperature, top_p, top_k, max_tokens\n"
        f"max_concurrency = {concurrency}\n"
        "timeout = 10\n",
        encoding="utf-8",
    )


def set_up(workload: str, seed: int, size: str, work: Path, nproc: int) -> tuple[list[float], Mock | None]:
    """Generate inputs, cold-import the CLI and start the mock; returns the
    time of each repeat and the mock of the last one, left running.

    The run's concurrency is min(2, nproc), and the mock gets as many workers.
    """
    concurrency = min(2, nproc)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    times, mock = [], None
    try:
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            started = time.perf_counter()
            subprocess.run([sys.executable, str(BENCH_DIR / "gen.py"), "--workload", workload,
                            "--seed", str(seed), "--out", str(work), "--size", size], check=True)
            subprocess.run([sys.executable, "-c", "import eotbench.cli"], env=env, check=True)
            new_mock = None
            if workload == "run":
                new_mock = Mock(work / "replies.jsonl", concurrency)
                write_profile(work / "profiles.ini", new_mock.port, concurrency)
            times.append(time.perf_counter() - started)
            if mock is not None:
                mock.stop()
            mock = new_mock
    except BaseException:
        if mock is not None:
            mock.stop()
        raise
    return times, mock


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


class Runner:
    def __init__(self, workload: Workload, cli_main):
        self.workload = workload
        self.cli_main = cli_main
        self.attempted = 0
        self.failed = 0

    def call(self, argv: list[str], tracer: Tracer | None = None) -> int:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            if tracer is None:
                return self.cli_main(argv)
            with tracer.span(f"cli.{argv[0]}"):
                return self.cli_main(argv)

    def one_pass(self, tracer: Tracer | None = None) -> tuple[float, list[int]]:
        """Run the chain once; returns its wall time and the attempt counts of its requests."""
        self.workload.prepare()
        codes = []
        started = time.perf_counter()
        for argv in self.workload.commands():
            codes.append(self.call(argv, tracer))
        wall = time.perf_counter() - started
        requested, failed_requests, attempts = self.workload.requests()
        self.attempted += len(codes) + requested
        self.failed += sum(1 for c in codes if c != 0) + failed_requests
        return wall, attempts


def measure_end_to_end(runner: Runner, seconds: float) -> dict[str, float]:
    """The 10th percentile of the per-pass throughputs. On a shared host a
    pass runs up to twice as fast while the other tenants of the CPU are idle;
    the slow passes are the state every window holds, so their rate repeats
    from run to run where the median does not."""
    rates = []
    deadline = time.perf_counter() + seconds
    while not rates or time.perf_counter() < deadline:
        wall, _ = runner.one_pass()
        rates.append(runner.workload.reviews_per_pass() / wall)
    if len(rates) > 1:
        return {"reviews_per_s": statistics.quantiles(rates, n=10, method="inclusive")[0]}
    return {"reviews_per_s": rates[0]}


def measure_layers(runner: Runner, seconds: float, mock: Mock | None, trace_path: Path) -> dict[str, float]:
    tracer = Tracer()
    plain_walls, traced_walls, per_pass = [], [], []
    durations: dict[str, list[float]] = {}
    service_ms: list[float] = []
    if mock is not None:
        mock.stats()  # clears what the mock counted before the first pass
    deadline = time.perf_counter() + seconds
    while not traced_walls or time.perf_counter() < deadline:
        values: dict[str, float] = {}
        plain_walls.append(runner.one_pass()[0])
        if mock is not None:
            # the mock's CPU time over the untraced pass, as a share of its wall time
            values["mock.cpu_share"] = mock.stats()["cpu_s"] / plain_walls[-1]
        tracer.spans.clear()  # keep only the last traced pass's spans for trace.jsonl
        tracer.install()
        try:
            wall, attempts = runner.one_pass(tracer)
        finally:
            tracer.uninstall()
        traced_walls.append(wall)
        if mock is not None:
            service_ms += mock.stats()["service_ms"]
        for name, entry in summarize(tracer.spans).items():
            values[f"{name}.s"] = entry["s"]
            values[f"{name}.calls"] = entry["calls"]
            durations.setdefault(name, []).extend(entry["durations"])
        values["inference.run_experiment.self_s"] = self_seconds(tracer.spans, "inference.run_experiment")
        values["inference.attempts_per_request"] = statistics.mean(attempts) if attempts else 0.0
        values.update(runner.workload.layer_extras(tracer.spans))
        per_pass.append(values)
    tracer.write(trace_path)

    requests_ms = [d * 1000.0 for d in durations.get("inference.request_completion", [])]
    pooled = {
        "inference.request_completion.p50_ms": percentile(requests_ms, 0.50),
        "inference.request_completion.p95_ms": percentile(requests_ms, 0.95),
        "mock.service.p50_ms": percentile(service_ms, 0.50),
        "trace.overhead_ratio": statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0,
    }
    result = {}
    for name, _, _, _ in PER_LAYER:
        result[name] = pooled[name] if name in pooled else median_or_zero([v.get(name, 0) for v in per_pass])
    return result


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def import_cli():
    """eotbench.cli from this checkout's src/, or None when it has none."""
    if not (SRC / "eotbench" / "cli.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import eotbench.cli

    if Path(eotbench.cli.__file__).resolve().parent != SRC / "eotbench":
        return None
    return eotbench.cli.main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(gen.SIZES), default="full",
                        help="input size; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)

    # One CPU for this process and every child it starts (children inherit the
    # mask): a request's hand-off between the harness and the mock is then a
    # same-CPU switch. Across the vCPUs of a small VM those wake-ups halved the
    # run workload's throughput and made it vary by 40% between runs.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    # set-up, warm-up and checks take well under 140 s beyond the timed window
    faulthandler.dump_traceback_later(args.seconds + 140, exit=True)
    cli_main = import_cli()
    if cli_main is None:
        print(f"no eotbench source under {SRC}", file=sys.stderr)
        return 2
    # the CLI configures logging only when nothing else has; keep its INFO lines off stderr
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    os.environ.setdefault("NO_PROXY", "127.0.0.1,localhost")

    work = ROOT / ".bench_work" / args.workload
    setup_times, mock = set_up(args.workload, args.seed, args.size, work, len(cpus))
    try:
        workload = WORKLOADS[args.workload](work)
        runner = Runner(workload, cli_main)
        runner.one_pass()  # warm-up
        if args.trace:
            metrics = measure_layers(runner, args.seconds, mock, work / "trace.jsonl")
            units = {name: unit for name, unit, _, _ in PER_LAYER}
        else:
            metrics = measure_end_to_end(runner, args.seconds)
            metrics["setup_s"] = statistics.median(setup_times)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            units = {name: unit for name, unit, _ in END_TO_END}
        problems = workload.check(runner.call)
    finally:
        if mock is not None:
            mock.stop()

    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not problems and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if not problems and runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
