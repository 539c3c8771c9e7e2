#!/usr/bin/env python3
"""loctower benchmark: one seeded, single-threaded, closed-loop workload per run.

Run from the root of a checkout:

    python3 bench/run.py --workload membership --seed 1 --seconds 55 --trace 0

One client sends the next query when the previous one returns.  A query is a
text question: parse, call the library's public functions, format the answer.
Every answer is checked against one known from how the input was built; a
wrong answer makes the command exit 1.  A query the library refuses (it
raises ``ValueError`` or ``RuntimeError``) counts as failed.

Workloads (see ``workloads.py``):
  membership     Stallings graphs of rank-3/4 subgroups with 40-640 generator
                 letters (one build, many contains/express reads each) and,
                 about one subgroup in eight, a folding pair {u^a, u^b} whose
                 express falls back to a bounded search that refuses some
                 targets.
  tower_abelian  one round of tower queries then one of abelian queries.
                 Tower: promotion of level 0-3 elements to levels 6-7 (4k-32k
                 letters), normalize, p-root certificates in both modes,
                 h_multiply across levels, centralizer compatibility, roots of
                 long promoted powers.  Abelian: abelianization of tower
                 truncations (sparse, 7-255 generators), triangle groups and
                 dense U*D*V presentations; amalgam normal forms with long
                 x-power tails; non-perfectness witnesses at levels 2-7.

With ``--trace 0`` the last line carries the end-to-end metrics, measured
untraced.  With ``--trace 1`` it carries per-layer metrics: a fixed number of
rounds each run untraced and traced (their wall-time ratio is
``trace.overhead_ratio``), followed by one small round of every workload, the
README CLI examples and the fixed-size sweep points.  Spans are written to
``bench/out/`` at exit.  ``--tiny`` shrinks every round, for the smoke test.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import spans
import workloads

SETUP_REPS = 9  # set-ups spread through a run; setup_s is their median
TRACE_ROUNDS = 4  # rounds run both untraced and traced with --trace 1
SWEEP_REPS = 5

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "answered_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "words.parse_s": "s",
    "words.format_s": "s",
    "words.arith_s": "s",
    "words.letters_built": "count",
    "roots.kth_root_s": "s",
    "roots.primitive_root_s": "s",
    "roots.max_letters": "count",
    "roots.primitive_root_70k_s": "s",
    "stallings.build_graph_s": "s",
    "stallings.build_graph_exp": "exponent",
    "stallings.fold_ratio": "ratio",
    "stallings.contains_s": "s",
    "stallings.express_basis_s": "s",
    "stallings.express_folded_s": "s",
    "stallings.express_refused": "count",
    "stallings.build_graph_320_s": "s",
    "stallings.build_graph_640_s": "s",
    "tower.promote_s": "s",
    "tower.normalize_s": "s",
    "tower.levels_stripped": "count",
    "tower.root_theorem_s": "s",
    "tower.root_crosscheck_s": "s",
    "tower.h_multiply_s": "s",
    "tower.max_letters": "count",
    "tower.normalize_4096_s": "s",
    "presentations.abelianize_sparse_s": "s",
    "presentations.abelianize_sparse_exp": "exponent",
    "presentations.abelianize_dense_s": "s",
    "presentations.snf_max_bits": "bits",
    "presentations.abelianize_127_s": "s",
    "presentations.abelianize_255_s": "s",
    "adjunction.normalize_s": "s",
    "adjunction.coset_exp": "exponent",
    "adjunction.witness_s": "s",
    "adjunction.witness_exp": "exponent",
    "adjunction.coset_rep_160_s": "s",
    "adjunction.coset_rep_320_s": "s",
    "cli.readme_s": "s",
    "trace.overhead_ratio": "ratio",
}

HERE = Path(__file__).resolve().parent


class WrongAnswer(Exception):
    pass


def provenance(seed: int) -> dict:
    files = sorted(Path("src/loctower").glob("*.py"))
    digest = hashlib.sha256()
    loc = 0
    for f in files:
        data = f.read_bytes()
        digest.update(data)
        loc += data.count(b"\n")
    commit = "unknown"
    head = Path(".git/HEAD")
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and Path(".git", ref[5:]).is_file():
            commit = Path(".git", ref[5:]).read_text().strip()
    return {
        "seed": seed,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_loc": loc,
        "src_sha256": digest.hexdigest(),
    }


def play(lib, rnd, tracer=None):
    """Run one round closed-loop: (latencies, answers, wall seconds).
    A refused query's answer is None."""
    state: dict = {}
    latencies, answers = [], []
    round_start = time.perf_counter()
    for q in rnd:
        if tracer is not None:
            tracer.begin(q.kind, workloads.size_of(q))
        start = time.perf_counter()
        try:
            answer = workloads.execute(lib, state, q)
        except (ValueError, RuntimeError):
            answer = None
        except Exception as exc:  # a crash is a wrong answer, reported below
            answer = exc
        latencies.append(time.perf_counter() - start)
        answers.append(answer)
    return latencies, answers, time.perf_counter() - round_start


def verify(rnd, answers) -> int:
    """Raise on the first wrong answer; return the number refused."""
    refused = 0
    for q, answer in zip(rnd, answers):
        if answer is None:
            refused += 1
        elif isinstance(answer, Exception) or not workloads.check(q, answer):
            raise WrongAnswer(f"{q.kind} {q.payload!r:.300} -> {answer!r:.300}")
    return refused


def load_library():
    """Import (or re-import) loctower from the checkout's ``src``."""
    for name in [n for n in sys.modules if n.split(".")[0] == "loctower"]:
        del sys.modules[name]
    return {layer: importlib.import_module(f"loctower.{layer}") for layer in spans.LAYERS}


def make_round(args, index):
    """Round ``index`` of the run; the same seed gives the same rounds."""
    rng = random.Random(f"{args.workload}:{args.seed}:{index}")
    return workloads.ROUNDS[args.workload](rng, args.tiny)


def setup(args, index):
    """Import the library, generate round ``index`` and warm lazy caches with
    one small round (it normalizes a level-7 word, so every tower level is
    warm)."""
    start = time.perf_counter()
    modules = load_library()
    rnd = make_round(args, index)
    warm = workloads.ROUNDS[args.workload](random.Random(f"{args.workload}:{args.seed}:warm"), True)
    _, answers, _ = play(spans.bind(modules), warm)
    seconds = time.perf_counter() - start
    verify(warm, answers)
    return seconds, modules, rnd


def cli_examples(lib, tracer=None) -> None:
    """Every README CLI example, in-process; stdout must match the recording."""
    if tracer is not None:
        tracer.begin("cli")
    for example in json.loads((HERE / "cli_examples.json").read_text()):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.run(example["argv"])
        if code != 0 or out.getvalue() != example["stdout"]:
            raise WrongAnswer(f"cli {example['argv']} exited {code}: {out.getvalue()!r}{err.getvalue()!r}")


def percentile(sorted_values, q) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, -(-len(sorted_values) * q // 100) - 1)]


def end_to_end(args, report) -> tuple[dict, int, int]:
    """Closed loop over whole rounds until ``args.seconds`` of measured time.

    Set-up is repeated at evenly spaced times through the run, because a
    shared host can change speed every few seconds: set-ups made back to back
    would all land in one phase.  Rounds after the first are
    generated, and every round is checked, outside the measured time."""
    reps = 1 if args.tiny else SETUP_REPS
    setups = []
    latencies: list[float] = []
    measured = 0.0
    refused = rounds = 0
    while rounds == 0 or measured < args.seconds:
        if len(setups) < reps and measured >= len(setups) * args.seconds / reps:
            seconds, modules, rnd = setup(args, rounds)
            setups.append(seconds)
            lib = spans.bind(modules)
        elif rounds:
            rnd = make_round(args, rounds)
        lat, answers, wall = play(lib, rnd)
        refused += verify(rnd, answers)
        latencies += lat
        measured += wall
        rounds += 1
    cli_examples(lib)
    lat_ms = sorted(x * 1000 for x in latencies)
    n = len(lat_ms)
    metrics = {
        "ops_per_s": n / measured,
        "latency_p50_ms": percentile(lat_ms, 50),
        "latency_p90_ms": percentile(lat_ms, 90),
        "answered_ratio": (n - refused) / n,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report(f"rounds={rounds} queries={n} refused={refused} fail_ratio={refused / n:.6f} "
           f"measured_s={measured:.3f} setup_runs={len(setups)} latency_samples={n}")
    return metrics, n, refused


def snf_max_bits(lib, queries) -> int:
    """Largest bit length in the Smith form and its transforms, over every
    presentation the traced queries abelianized."""
    bits = 0
    seen = set()
    for q in queries:
        if q.kind not in ("a.truncation", "a.triangle", "a.dense") or (q.kind, q.payload) in seen:
            continue
        seen.add((q.kind, q.payload))
        if q.kind == "a.truncation":
            pres = lib.tower_truncation(*q.payload)
        elif q.kind == "a.triangle":
            pres = lib.triangle_group(*q.payload)
        else:
            pres = lib.parse_presentation(*q.payload)
        snf = lib.smith_normal_form(lib.relation_matrix(pres))
        for matrix in (snf.d, snf.u, snf.v):
            for row in matrix:
                bits = max(bits, max((abs(x).bit_length() for x in row), default=0))
    return bits


def per_layer(args, report) -> tuple[dict, int, int, dict]:
    _, modules, first = setup(args, 0)
    plain = spans.bind(modules)
    tracer = spans.Tracer()
    traced = spans.bind(modules, tracer)
    rounds = [first] + [make_round(args, i) for i in range(1, TRACE_ROUNDS)]
    untraced_wall = traced_wall = 0.0
    attempted = refused = 0
    for i, rnd in enumerate(rounds):
        # each round runs untraced and traced, alternating which goes first
        for with_spans in (False, True) if i % 2 == 0 else (True, False):
            if with_spans:
                _, answers, wall = play(traced, rnd, tracer)
                refused += verify(rnd, answers)
                attempted += len(rnd)
                traced_wall += wall
            else:
                _, answers, wall = play(plain, rnd)
                verify(rnd, answers)
                untraced_wall += wall
    played = [q for rnd in rounds for q in rnd]
    for name, make in workloads.ROUNDS.items():
        small = make(random.Random(f"{name}:{args.seed}:probe"), True)
        _, answers, _ = play(traced, small, tracer)
        verify(small, answers)
        played += small
    cli_examples(traced, tracer)
    metrics = spans.layer_metrics(tracer)
    metrics["presentations.snf_max_bits"] = snf_max_bits(plain, played)
    metrics.update(workloads.sweep(plain, random.Random(f"sweep:{args.seed}"), 1 if args.tiny else SWEEP_REPS))
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
    report(f"trace rounds={len(rounds)} queries={attempted} spans={len(tracer.spans)} "
           f"untraced_s={untraced_wall:.3f} traced_s={traced_wall:.3f}")
    return metrics, attempted, refused, {"queries": tracer.queries, "spans": tracer.spans}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small rounds (smoke test)")
    args = parser.parse_args()

    if not Path("src/loctower/__init__.py").is_file():
        print("error: run from the root of a loctower checkout (src/loctower not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))

    info = provenance(args.seed)
    print("provenance " + json.dumps(info, sort_keys=True))

    def report(line):
        print(f"{args.workload}: {line}")

    trace_data = None
    try:
        if args.trace:
            values, attempted, failed, trace_data = per_layer(args, report)
            units = PER_LAYER
        else:
            values, attempted, failed = end_to_end(args, report)
            units = END_TO_END
        correct = True
    except WrongAnswer as exc:
        print(f"wrong answer: {exc}", file=sys.stderr)
        values, attempted, failed, units, correct = {}, 1, 0, {}, False

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        report(f"{name} = {m['value']:.6g} {m['unit']}")
    if trace_data is not None:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / f"spans-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps({"provenance": info, "metrics": values, **trace_data}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
