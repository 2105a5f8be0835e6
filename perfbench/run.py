"""Benchmark of the ``bp2cert`` command line, checked against an independent reference.

Run from the repository root::

    python3 perfbench/run.py --workload certify-12 --seed 1 --seconds 30 --trace 0

Every command goes through ``bp2cert.cli.main`` in this process, one graph per
call.  A run repeats whole rounds of its workload (the same calls in the same
order) until ``--seconds`` have passed, checks every output against
``reference``, and prints one JSON object as its last line.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs one untraced and one
traced round and reports the per-layer metrics (see ``tracing.py``).  The
workloads and metrics are described in ``README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time

import numpy as np

import reference as ref
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

# Non-members of order 12 that have a safe deletion order, yet on which the
# greedy recipe fails, so ``certify`` answers "uncertifiable".  They are
# ``bp2cert gen --random 12 P --seed S`` for (P, S) = (0.5, 0), (0.3, 6),
# (0.3, 7), (0.3, 8), and do not depend on ``--seed``, so the failed share is
# the same in every run.
RECIPE_FAILURES = ("KEcF`]jd_OJ@", "K?aPA?Q?RJtO", "KX`bDcXc@KP?", "KfJNAJOD?U_U")

# decide-16 input strata: (order, edge probability, member?, count).  The
# non-members reach clause 3 and enumerate every vertex cut of the complement;
# the members mostly stop at a cheap clause or an early cut.
DECIDE_STRATA = ((16, 0.4, False, 24), (14, 0.4, False, 36), (16, 0.5, True, 6), (14, 0.5, True, 6))

# certify-12 input strata: (edge probability, member?, size of the largest
# vertex set that is one or two parts, count).  Non-members are drawn only
# where the recipe yields a safe order (see RECIPE_FAILURES for the others);
# their cost grows as that largest set shrinks.
CERTIFY_STRATA = ((0.5, True, 12, 8), (0.3, False, 11, 40), (0.3, False, 10, 4))

CLAIMS = ("L1", "L2/L3", "L4/C5", "L-del", "T-depth", "T-seq", "T-verify-sound", "T-verify-complete")
AUDIT_ORDERS = range(3, 7)


class Mismatch(Exception):
    """An output of the program disagrees with the reference."""


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise Mismatch(what)


def measure_setup() -> float:
    """Cold set-up: a fresh interpreter imports ``bp2cert`` and builds the CLI parser.

    ``-S`` leaves out the site hooks of whatever Python is installed, which
    are no part of the program and cost as much as importing it.
    """
    code = "import sys; sys.path.insert(0, sys.argv[1]); from bp2cert.cli import build_parser; build_parser()"
    start = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", code, SRC], check=True)
    return time.perf_counter() - start


def cli_call(argv: list[str]) -> tuple[str, float]:
    """One in-process call of ``bp2cert.cli.main``: captured stdout and seconds taken."""
    from bp2cert import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    expect(code == 0, f"exit code {code} for {argv}")
    return out.getvalue(), elapsed


class Round:
    """One pass over a workload's calls: seconds per call in order, and failures."""

    def __init__(self) -> None:
        self.call_s: list[float] = []
        self.main: list[bool] = []
        self.failed = 0

    @property
    def attempted(self) -> int:
        return len(self.call_s)

    @property
    def total_s(self) -> float:
        return sum(self.call_s)

    def call(self, argv: list[str], main: bool = True) -> str:
        """Time one CLI call; ``main`` marks the workload's primary command."""
        out, elapsed = cli_call(argv)
        self.call_s.append(elapsed)
        self.main.append(main)
        return out


# ---------------------------------------------------------------- audit-3to6


class AuditWorkload:
    """``bp2cert audit --n-min 3 --n-max 6 --report FILE`` at one worker per core."""

    def __init__(self, seed: int) -> None:
        # The sweep covers every labeled graph; the seed has nothing to choose.
        self.workers = len(os.sched_getaffinity(0))
        self.graphs = self.nonmembers = self.two_part_only = 0
        self.no_safe_order: set[str] = set()
        self.member: dict[int, np.ndarray] = {}
        for n in AUDIT_ORDERS:
            rows = ref.all_rows(n)
            one = ref.one_part(rows, n)
            two = ref.two_part(one, n)
            full = (1 << n) - 1
            member = two[:, full]
            safe = ref.safe_order_exists(~two, n)[:, full]
            self.member[n] = member
            self.graphs += rows.shape[0]
            self.nonmembers += int((~member).sum())
            self.two_part_only += int((member & ~one[:, full]).sum())
            for index in np.flatnonzero(~member & ~safe):
                self.no_safe_order.add(ref.g6_encode(n, [int(r) for r in rows[index]]))

    def is_member(self, code: str) -> bool:
        n, rows = ref.g6_decode(code)
        index = sum((rows[i] >> j & 1) << k for k, (i, j) in enumerate(ref.pair_order(n)))
        return bool(self.member[n][index])

    def run(self, one_round: Round, workers: int | None = None) -> str:
        report = os.path.join(OUT, f"audit-report-{workers or self.workers}.txt")
        argv = ["audit", "--n-min", "3", "--n-max", "6", "--parallel", str(workers or self.workers), "--report", report]
        stdout = one_round.call(argv)
        with open(report, encoding="utf-8") as handle:
            text = handle.read()
        self.check(stdout, text)
        return text

    def check(self, stdout: str, report: str) -> None:
        summary, _, body = report.partition("\n\n")
        lines = summary.splitlines()
        expect(stdout.rstrip("\n") == summary, "audit stdout differs from the report summary")
        expect(lines[0] == "audit orders 3..6", f"unexpected report header {lines[0]!r}")
        counts = {}
        for line in lines[1:]:
            claim, *fields = line.split()
            values = dict(field.split("=") for field in fields)
            counts[claim] = (int(values["checked"]), int(values["agreements"]), int(values["counterexamples"]))
        lists: dict[str, list[str]] = {}
        for line in body.splitlines():
            if line.startswith("# "):
                lists[line[2:].split(":")[0]] = current = []
            elif line:
                current.append(line)
        expect(tuple(counts) == CLAIMS and tuple(lists) == CLAIMS, "report claims differ from the claim list")
        for claim, (checked, agreed, bad) in counts.items():
            expect(checked == agreed + bad == agreed + len(lists[claim]), f"{claim}: tallies do not add up")
        members = self.graphs - self.nonmembers
        for claim, want in (
            ("L1", self.graphs),
            ("L2/L3", self.graphs),
            ("L4/C5", self.nonmembers),
            ("T-seq", self.nonmembers),
            ("T-verify-complete", self.nonmembers),
            ("T-verify-sound", members),
            ("T-depth", self.two_part_only),
        ):
            expect(counts[claim][0] == want, f"{claim} checked {counts[claim][0]} graphs, reference has {want}")
        for claim in ("L1", "L2/L3", "L4/C5", "L-del", "T-verify-sound"):
            expect(not lists[claim], f"{claim} has counterexamples")
        expect(set(lists["T-verify-complete"]) == self.no_safe_order,
               "T-verify-complete counterexamples differ from the non-members without a safe order")
        expect(not any(self.is_member(code) for code in lists["T-seq"]), "a T-seq counterexample is a member")

    def round(self) -> Round:
        one_round = Round()
        self.run(one_round)
        return one_round

    def traced(self, tracer: Tracer) -> tuple[list[Round], float, float]:
        """Untraced and traced one-worker audits; both reports must equal the multi-worker one.

        The traced audit runs at one worker so that every span is in this process.
        """
        rounds = [Round(), Round(), Round()]
        reports = [self.run(rounds[0]), self.run(rounds[1], workers=1)]
        tracer.install()
        try:
            reports.append(self.run(rounds[2], workers=1))
        finally:
            tracer.uninstall()
        expect(reports[0] == reports[1] == reports[2], "audit reports differ between worker counts or under tracing")
        return rounds, rounds[1].total_s, rounds[2].total_s


# ----------------------------------------------------------------- decide-16


class SingleGraphWorkload:
    """A workload of one CLI call per input graph; ``round`` makes one pass over the inputs."""

    def round(self) -> Round:
        raise NotImplementedError

    def traced(self, tracer: Tracer) -> tuple[list[Round], float, float]:
        """One untraced round, then the same round traced."""
        rounds = [self.round()]
        tracer.install()
        try:
            rounds.append(self.round())
        finally:
            tracer.uninstall()
        return rounds, rounds[0].total_s, rounds[1].total_s


class DecideWorkload(SingleGraphWorkload):
    """``bp2cert decide --problem bp2 --g6 G`` on seeded G(n, p) graphs."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"decide-16/{seed}")
        self.inputs: list[tuple[str, bool]] = []
        for n, p, member, count in DECIDE_STRATA:
            drawn = 0
            while drawn < count:
                rows = ref.random_rows(n, p, rng)
                one = ref.one_part(np.array([rows], dtype=np.int64), n)
                if bool(ref.two_part_whole(one, n)[0]) == member:
                    self.inputs.append((ref.g6_encode(n, rows), member))
                    drawn += 1
        rng.shuffle(self.inputs)

    def round(self) -> Round:
        one_round = Round()
        for code, member in self.inputs:
            out = one_round.call(["decide", "--problem", "bp2", "--g6", code])
            want = f"{code}\tbp2={'true' if member else 'false'}\n"
            expect(out == want, f"decide printed {out!r}, reference gives {want!r}")
        return one_round


# ---------------------------------------------------------------- certify-12


class CertifyWorkload(SingleGraphWorkload):
    """``bp2cert certify --g6 G``, then ``bp2cert verify`` on each certificate printed."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"certify-12/{seed}")
        self.inputs: list[tuple[str, ref.Graph]] = []
        for p, member, largest, count in CERTIFY_STRATA:
            drawn = 0
            while drawn < count:
                rows = ref.random_rows(12, p, rng)
                g = ref.Graph(12, rows)
                if g.member != member or (not member and not self._recipe_certifies(g, largest)):
                    continue
                self.inputs.append((ref.g6_encode(12, rows), g))
                drawn += 1
        for code in RECIPE_FAILURES:
            self.inputs.append((code, ref.Graph(*ref.g6_decode(code))))
        rng.shuffle(self.inputs)
        self.cert_path = os.path.join(OUT, "certificate.txt")

    @staticmethod
    def _recipe_certifies(g: ref.Graph, largest: int) -> bool:
        if g.largest_two_part().bit_count() != largest:
            return False
        order = g.recipe_order()
        return order is not None and g.order_is_safe(order)

    def round(self) -> Round:
        one_round = Round()
        for code, g in self.inputs:
            out = one_round.call(["certify", "--g6", code])
            if out.startswith("uncertifiable:"):
                expect(not g.member, f"certify found no certificate for member {code}")
                one_round.failed += g.safe_exists
                continue
            if g.member:
                check_partition(g, out)
                want = "valid\n"
            else:
                check_deletion_order(g, out)
                want = "accept\n"
            with open(self.cert_path, "w", encoding="utf-8") as handle:
                handle.write(out)
            verdict = one_round.call(["verify", "--g6", code, "--cert", self.cert_path], main=False)
            expect(verdict == want, f"verify printed {verdict!r} for {code}")
        return one_round


def _labels(text: str) -> list[int]:
    return [int(token) for token in text.split()]


def check_partition(g: ref.Graph, text: str) -> None:
    """A ``kind: bp2`` certificate: parts cover the vertices, each side pair complete, edge by edge."""
    lines = text.splitlines()
    expect(lines[0] == "kind: bp2" and 2 <= len(lines) <= 3, f"bad membership certificate {text!r}")
    seen: set[int] = set()
    for line in lines[1:]:
        key, _, value = line.partition(": ")
        part_text, _, sides_text = value.partition(" | sides: ")
        x_text, _, y_text = sides_text.partition("/")
        part, x, y = set(_labels(part_text)), _labels(x_text), _labels(y_text)
        expect(key == "part" and part and not part & seen, f"bad part line {line!r}")
        expect(set(x) | set(y) == part and not set(x) & set(y), f"sides do not split the part in {line!r}")
        expect(bool(y) == (len(part) > 1), f"a multi-vertex part needs two sides, a single vertex one: {line!r}")
        expect(all(g.rows[u] >> v & 1 for u in x for v in y), f"a side pair is not an edge in {line!r}")
        seen |= part
    expect(seen == set(range(g.n)), "parts do not cover the vertex set")


def check_deletion_order(g: ref.Graph, text: str) -> None:
    """A ``kind: nbp2`` certificate: every prefix needs more than two parts; three isolated vertices remain."""
    lines = text.splitlines()
    expect(len(lines) == 2 and lines[0] == "kind: nbp2", f"bad non-membership certificate {text!r}")
    key, _, value = lines[1].partition(":")
    order = _labels(value)
    expect(key == "sequence" and len(order) == g.n - 3 and len(set(order)) == len(order)
           and all(0 <= v < g.n for v in order), f"bad deletion order {lines[1]!r}")
    expect(g.order_is_safe(order), f"a prefix of {order} leaves a graph with a two-part cover")
    rest = [v for v in range(g.n) if v not in order]
    expect(all(not g.rows[u] >> v & 1 for u in rest for v in rest), "the three vertices left are not edgeless")


# -------------------------------------------------------------- command line

WORKLOADS = {"audit-3to6": AuditWorkload, "decide-16": DecideWorkload, "certify-12": CertifyWorkload}

PER_LAYER_CALLS = (
    "certificates.verify_nbp2", "certificates.gen_safe_sequence",
    "oracle.bp1_oracle", "oracle.bp2_oracle", "oracle.star_biclique_oracle", "oracle.deletion_depths",
    "oracle.max_bp2_subset", "oracle.max_bp1_split", "oracle.first_unsafe_prefix",
    "oracle.disconnected_vertex_cuts", "deciders.decide_bp2", "deciders.is_bp1", "deciders.nbp2_necessary",
    "graphs.closure", "graphio.graph_from_index",
)
PER_LAYER_SELF = PER_LAYER_CALLS + (
    "certificates.dual_certify", "audit.engine", "graphio.g6_decode", "witnesses.partition_error", "cli",
)


def end_to_end(rounds: list[Round], setup_s: float) -> dict[str, tuple[float, str]]:
    """Each call's latency is its fastest over the rounds, which are the same calls in the same order.

    Slow stretches of a shared machine last seconds, so the fastest of a few
    repeats is the steadiest estimate of what the call costs.
    """
    best = [min(column) for column in zip(*(r.call_s for r in rounds))]
    main = [s for s, is_main in zip(best, rounds[0].main) if is_main]
    return {
        "setup_s": (setup_s, "s"),
        "round_s": (sum(best), "s"),
        "call_p50_ms": (statistics.median(main) * 1e3, "ms"),
    }


def per_layer(tracer: Tracer, plain_s: float, traced_s: float) -> dict[str, tuple[float, str]]:
    metrics: dict[str, tuple[float, str]] = {}
    for name in PER_LAYER_CALLS:
        metrics[f"{name}.calls"] = (tracer.calls_of(name), "count")
    for name in PER_LAYER_SELF:
        metrics[f"{name}.self_s"] = (tracer.self_s(name), "s")
    metrics["certificates.verify_nbp2.accepted"] = (tracer.accepted, "count")
    metrics["certificates.gen_safe_sequence.built"] = (tracer.built, "count")
    metrics["deciders.decide_bp2.clause3_calls"] = (tracer.clause3_calls, "count")
    for n in AUDIT_ORDERS:
        metrics[f"audit.order{n}_s"] = (tracer.order_s(n), "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    metrics["trace.spans"] = (tracer.total_spans(), "count")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setup_s = measure_setup()
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed)
    rounds: list[Round] = []
    correct = True
    try:
        if args.trace:
            tracer = Tracer()
            rounds, plain_s, traced_s = workload.traced(tracer)
            tracer.dump(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl"))
            metrics = per_layer(tracer, plain_s, traced_s)
        else:
            started = time.perf_counter()
            while not rounds or time.perf_counter() - started < args.seconds:
                rounds.append(workload.round())
            metrics = end_to_end(rounds, setup_s)
    except Mismatch as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        correct = False
        metrics = {}
    result = {
        "correct": correct,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"), "w") as handle:
        json.dump(result, handle, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
