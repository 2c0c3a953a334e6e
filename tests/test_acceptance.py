"""Acceptance gate: ten checks, one verdict line printed per criterion.

Verdict lines go straight to the real stdout (bypassing capture) so a full
run always shows all ten, with the measured numbers and pinned tolerances
inline.  Each criterion is one test; a failed assertion repeats its line.

The random-instance corpus is generated once per module, run through the
oracle suite of ``hog.verify`` and shared by the equivalence criteria (1, 2,
7, and the containment part of 4).  The large
performance dataset (k=10^4, n=10^6, ACGT, seed 42) comes from session
fixtures shared with the rest of the suite.
"""

import csv
import random
import statistics
import time
from dataclasses import dataclass, field

import pytest

from hog.baselines import get_marker
from hog.bench import run_marking, sweep
from hog.cli import main
from hog.datasets import generate_random, normalize
from hog.ehog import build_ehog
from hog.marking import mark_hog_new
from hog.queries import QueryEngine
from hog.verify import CHECKS, verify_instance

CORPUS_SIZE = 1000
CORPUS_SEED = 20260814

FIG1 = [b"aabaa", b"aadbd", b"dbdaa"]
FIG1_EHOG = {b"", b"a", b"aa", b"d", b"dbd", b"aabaa", b"aadbd", b"dbdaa"}
FIG1_HOG = {b"", b"aa", b"dbd", b"aabaa", b"aadbd", b"dbdaa"}


@pytest.fixture
def verdict(request):
    """Print one pass/fail line per criterion on the real terminal.

    pytest captures at the file-descriptor level, so passing tests would
    otherwise swallow their lines; the capture manager lets us lift that
    for the single print.
    """
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def emit(num: int, ok: bool, detail: str) -> None:
        line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print(line, flush=True)
        else:
            print(line, flush=True)
        assert ok, line

    return emit


def node_strings(t) -> set[bytes]:
    return {t.node_string(v) for v in range(t.n_nodes)}


# -- shared random-instance corpus ---------------------------------------------

def corpus_instances(rng: random.Random, count: int):
    """Instances per the stated recipe: k in [1,40], lengths in [1,25],
    alphabet sizes {1,2,4}, duplicates and prefix-of-another injected."""
    alphabets = (b"a", b"ab", b"abcd")
    for idx in range(count):
        alpha = alphabets[idx % 3]
        k = rng.randint(1, 38)
        raw = [
            bytes(rng.choice(alpha) for _ in range(rng.randint(1, 25)))
            for _ in range(k)
        ]
        if rng.random() < 0.5:
            raw.append(rng.choice(raw))  # deliberate duplicate
        if rng.random() < 0.5:
            s = rng.choice(raw)
            raw.append(s[: rng.randint(1, len(s))])  # deliberate prefix
        yield raw


@dataclass
class CorpusResult:
    instances: int = 0
    # failures per verify.CHECKS kind: criterion 1 counts "sets" and
    # "vectors" (a vector unlike the oracle's marks a wrong set), 2
    # "vectors", 4 "structure" (audits and containment), 7 "queries"
    failures: dict[str, list[str]] = field(
        default_factory=lambda: {check: [] for check in CHECKS}
    )
    seconds: float = 0.0


@pytest.fixture(scope="module")
def corpus() -> CorpusResult:
    rng = random.Random(CORPUS_SEED)
    res = CorpusResult()
    for raw in corpus_instances(rng, CORPUS_SIZE):
        res.instances += 1
        t0 = time.perf_counter()
        problems = verify_instance(normalize(raw))
        res.seconds += time.perf_counter() - t0
        for check, msg in problems:
            res.failures[check].append(f"instance {res.instances}: {msg}")
    return res


def first(failures: list[str]) -> str:
    return f"; first: {failures[0]}" if failures else ""


# -- criteria -------------------------------------------------------------------

def test_criterion_1_marked_sets_match_brute_force(corpus, verdict):
    fails = corpus.failures["sets"] + corpus.failures["vectors"]
    ok = corpus.instances >= 1000 and not fails
    elapsed_ok = corpus.seconds < 60.0
    verdict(
        1,
        ok and elapsed_ok,
        f"{corpus.instances} instances, 4 algorithms vs brute-force target: "
        f"{len(fails)} mismatches (all checks {corpus.seconds:.1f}s, limit 60s)"
        + first(fails),
    )


def test_criterion_2_mark_vectors_bit_identical(corpus, verdict):
    fails = corpus.failures["vectors"]
    verdict(
        2,
        not fails,
        f"vectors bit-identical across 4 algorithms on extended and full "
        f"structures, {corpus.instances} instances: {len(fails)} mismatches"
        + first(fails),
    )


def test_criterion_3_worked_instance_goldens(verdict):
    b = build_ehog(normalize(FIG1))
    ehog, hog = b.trie, b.minimal
    sizes = (b.nodes_act, ehog.n_nodes, hog.n_nodes)
    ok = (
        sizes == (14, 8, 6)
        and node_strings(ehog) == FIG1_EHOG
        and node_strings(hog) == FIG1_HOG
    )
    verdict(3, ok, f"worked 3-string instance: sizes {sizes} want (14, 8, 6), node sets pinned")


def test_criterion_4_containment_and_verify_subcommand(corpus, capsys, verdict):
    rc = main(["verify", "--instances", "40", "--seed", "99"])
    capsys.readouterr()
    fails = corpus.failures["structure"]
    verdict(
        4,
        rc == 0 and not fails,
        f"minimal ⊆ extended ⊆ full as string sets and structure audits on "
        f"{corpus.instances} corpus instances ({len(fails)} violations); verify "
        f"subcommand exit code {rc}" + first(fails),
    )


def test_criterion_5_linear_work_bounds(big_build, verdict):
    t0 = time.perf_counter()
    details = []
    counters_ok = True
    for n in (10_000, 100_000, 1_000_000):
        k = n // 100
        build = big_build if n == 1_000_000 else build_ehog(
            generate_random(k, n, b"ACGT", seed=42)
        )
        c = {}
        mark_hog_new(build.trie, counters=c)
        hops, updates = c["suffix_hops"], c["count_updates"]
        counters_ok &= hops <= n and updates <= 6 * n
        details.append(f"n=10^{len(str(n)) - 1}: hops={hops} updates={updates}")

    # wall-time growth in the regime where the extended structure dominates:
    # fixed k, n rising one decade per step
    medians = []
    sizes = []
    for n in (10_000, 100_000, 1_000_000):
        build = build_ehog(generate_random(1000, n, b"ACGT", seed=42))
        run = run_marking(build.trie, "new", reps=5)
        medians.append(run.median_s)
        sizes.append(build.trie.n_nodes)
    growth = [b / a for a, b in zip(medians, medians[1:])]
    growth_ok = all(g <= 2.5 for g in growth)
    elapsed = time.perf_counter() - t0
    verdict(
        5,
        counters_ok and growth_ok and elapsed < 300,
        f"{'; '.join(details)} (bounds n and 6n); fixed k=1000 medians "
        f"{['%.4fs' % m for m in medians]} over sizes {sizes}, growth/decade "
        f"{['%.2fx' % g for g in growth]} (limit 2.50x); {elapsed:.0f}s of 300s",
    )


def measure_ordering(trie):
    # one untraced warm-up per marker, then the median of three timed runs:
    # run_marking's traced warm-up would cost more than all the timed runs
    medians = {}
    for algo in ("new", "khan", "parkcpr", "cazaux"):
        marker = get_marker(algo)
        marker(trie)
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            marker(trie)
            times.append(time.perf_counter() - t0)
        medians[algo] = statistics.median(times)
    chain = [("new", "khan"), ("khan", "parkcpr"), ("parkcpr", "cazaux")]
    ok = all(medians[b] >= 1.2 * medians[a] for a, b in chain)
    ok &= medians["cazaux"] == max(medians.values())
    return ok, medians


def test_criterion_6_performance_ordering(big_build, verdict):
    t0 = time.perf_counter()
    ok, medians = measure_ordering(big_build.trie)
    scale = "n=10^6"
    if not ok:  # the stated retry at quadruple length before failing
        retry = build_ehog(generate_random(10_000, 4_000_000, b"ACGT", seed=42))
        ok, medians = measure_ordering(retry.trie)
        scale = "n=4*10^6 (retry)"
    elapsed = time.perf_counter() - t0
    shown = ", ".join(f"{a}={medians[a]:.4f}s" for a in ("new", "khan", "parkcpr", "cazaux"))
    verdict(
        6,
        ok and elapsed < 600,
        f"{scale}, k=10^4: {shown}; need new < khan < parkcpr < cazaux, "
        f"each step >= 1.2x; {elapsed:.0f}s of 600s",
    )


def test_criterion_7_query_oracle_equivalence(corpus, verdict):
    fails = corpus.failures["queries"]
    verdict(
        7,
        not fails,
        f"five query types vs quadratic brute force on both contracted "
        f"structures, {corpus.instances} instances: {len(fails)} mismatches"
        + first(fails),
    )


def test_criterion_8_query_latency_and_state(big_build, verdict):
    hog = big_build.minimal
    eng = QueryEngine(hog)
    k = hog.k
    rng = random.Random(8)
    fingerprint = eng.state_fingerprint()
    lat = {"O": [], "A": [], "R": [], "C": [], "T": []}
    for q in range(10_000):
        op = "OARCT"[q % 5]
        i = rng.randint(1, k)
        t0 = time.perf_counter()
        if op == "O":
            eng.one_to_one(i, rng.randint(1, k))
        elif op == "A":
            eng.one_to_all(i)
        elif op == "R":
            eng.report(i, rng.randint(0, 8))
        elif op == "C":
            eng.count(i, rng.randint(0, 8))
        else:
            eng.top(i, rng.randint(1, 20))
        lat[op].append(time.perf_counter() - t0)
    med_o = statistics.median(lat["O"])
    med_a = statistics.median(lat["A"])
    state_ok = eng.state_fingerprint() == fingerprint and eng.scratch_is_clean()
    verdict(
        8,
        med_o < 1e-3 and med_a < 50e-3 and state_ok,
        f"10^4 mixed queries on k=10^4, n=10^6: median one_to_one "
        f"{med_o * 1e3:.3f}ms (limit 1ms), one_to_all {med_a * 1e3:.2f}ms "
        f"(limit 50ms), engine state {'unchanged' if state_ok else 'CHANGED'}",
    )


def spearman(xs, ys) -> float:
    def ranks(vals):
        order = sorted(range(len(vals)), key=vals.__getitem__)
        out = [0.0] * len(vals)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and vals[order[j + 1]] == vals[order[i]]:
                j += 1
            for t in range(i, j + 1):
                out[order[t]] = (i + j) / 2 + 1
            i = j + 1
        return out

    return statistics.correlation(ranks(xs), ranks(ys))


def test_criterion_9_structure_size_shape(verdict):
    reports = sweep(
        "fix_n_vary_k",
        1_000_000,
        [100, 1_000, 10_000, 100_000],
        ["new"],
        seed=42,
        reps=2,
        timeout_s=None,
    )
    sizes = [r.build.trie.n_nodes for r in reports]
    times = [r.runs[0].median_s for r in reports]
    rho = spearman(times, sizes)
    rises = [i for i in range(len(sizes) - 1) if sizes[i + 1] > sizes[i]]
    falls = [i for i in range(len(sizes) - 1) if sizes[i + 1] < sizes[i]]
    non_monotone = bool(rises) and bool(falls) and min(rises) < max(falls)
    verdict(
        9,
        non_monotone and rho >= 0.8,
        f"extended sizes over k=10^2..10^5 at n=10^6: {sizes} "
        f"({'rise-then-fall' if non_monotone else 'strictly monotone - no fall'}); "
        f"Spearman(time, size) = {rho:.2f} (need >= 0.8)",
    )


def test_criterion_10_sweep_determinism(tmp_path, verdict):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        rc = main([
            "sweep", "--mode", "fix_k_vary_n", "--k", "8",
            "--grid", "200,800", "--algos", "new,khan",
            "--seed", "77", "--reps", "1", "--csv", str(p),
        ])
        assert rc == 0
    timing_cols = {"t_ehog_s", "t_mark_s", "peak_bytes"}

    def stable_rows(path):
        with open(path, newline="") as fh:
            return [
                {k: v for k, v in row.items() if k not in timing_cols}
                for row in csv.DictReader(fh)
            ]

    first, second = stable_rows(paths[0]), stable_rows(paths[1])
    verdict(
        10,
        first == second and len(first) == 4,
        f"two same-seed sweep runs: {len(first)} rows, identical outside "
        f"the timing/memory columns {sorted(timing_cols)}",
    )
