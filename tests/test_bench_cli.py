"""Benchmark plumbing and the command-line surface."""

import csv
import os
import subprocess
import sys
import tracemalloc

import pytest

import hog
import hog.baselines as baselines
from hog.baselines import mark_hog_oracle
from hog.bench import (
    CSV_HEADER,
    BenchError,
    bench_point,
    measure_peak_memory,
    render_report,
    run_marking,
    sweep,
    write_csv,
)
from hog.cli import main
from hog.datasets import generate_random, normalize
from hog.ehog import build_ehog
from hog.marking import MarkTimeout, mark_hog_new

FIG1 = [b"aabaa", b"aadbd", b"dbdaa"]


def bogus_marker(t, counters=None, deadline=None):
    marks = bytearray(mark_hog_oracle(t))
    marks[-1] ^= 1  # the last node in pre-order, a whole string
    return marks


def slow_marker(t, counters=None, deadline=None):
    raise MarkTimeout("synthetic")


# -- CSV schema ----------------------------------------------------------------

def test_csv_header_is_frozen():
    assert CSV_HEADER == (
        "dataset,k,n,nodes_act,nodes_ehog,nodes_hog,t_ehog_s,algo,t_mark_s,"
        "peak_bytes,suffix_hops,count_updates,seed,rep"
    )


def test_write_csv_round_trip(tmp_path):
    ss = normalize(FIG1)
    report = bench_point(ss, ["new", "khan"], reps=2, dataset="fig1", seed=7)
    path = tmp_path / "rows.csv"
    assert write_csv([report], path) == 2
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["algo"] for r in rows] == ["new", "khan"]
    for r in rows:
        assert (r["dataset"], r["k"], r["n"]) == ("fig1", "3", "15")
        assert (r["nodes_act"], r["nodes_ehog"], r["nodes_hog"]) == ("14", "8", "6")
        assert r["seed"] == "7" and r["rep"] == "2"
        assert float(r["t_mark_s"]) >= 0
    # op counters are the new algorithm's own instrumentation
    assert rows[0]["suffix_hops"] == "6" and rows[0]["count_updates"] == "6"
    assert rows[1]["suffix_hops"] == "" and rows[1]["count_updates"] == ""


# -- measurement ----------------------------------------------------------------

def test_measure_peak_memory_shape():
    result, peak = measure_peak_memory(lambda: bytearray(512 * 1024))
    assert len(result) == 512 * 1024
    assert peak >= 512 * 1024


def test_measure_peak_memory_is_deterministic():
    fn = lambda: [0] * 50_000
    measure_peak_memory(fn)  # first call pays one-time tracer warmup
    _, first = measure_peak_memory(fn)
    _, second = measure_peak_memory(fn)
    assert first == second


def test_measure_peak_memory_counts_only_the_call_when_tracing_is_on():
    tracemalloc.start()
    try:
        held = bytearray(1 << 20)  # traced before the call: not its peak
        _, peak = measure_peak_memory(lambda: [0] * 1000)
        assert peak < 64 * 1024
        assert tracemalloc.is_tracing()  # the caller's tracing stays on
        del held
    finally:
        tracemalloc.stop()


def test_marking_peaks_reproduce_across_identical_builds():
    ss = generate_random(50, 1500, b"ACGT", seed=3)
    run_marking(build_ehog(ss).trie, "new", reps=1)  # tracer warm-up
    second = run_marking(build_ehog(ss).trie, "new", reps=1)
    third = run_marking(build_ehog(ss).trie, "new", reps=1)
    assert second.peak_alloc == third.peak_alloc


def test_marking_peak_is_taken_without_counters():
    # new's counters hold vm_lengths, one int per string: they are filled
    # by a call of their own, outside the traced one
    t = build_ehog(generate_random(2000, 20_000, b"ACGT", seed=1)).trie
    run = run_marking(t, "new", reps=1)
    _, own = measure_peak_memory(lambda: mark_hog_new(t))
    _, counted = measure_peak_memory(lambda: mark_hog_new(t, counters={}))
    assert run.peak_alloc == own < counted
    c = {}
    mark_hog_new(t, counters=c)
    assert run.counters == c and len(c["vm_lengths"]) == 2000


def test_marking_peaks_do_not_depend_on_call_history():
    # in a fresh interpreter no earlier FavStructure has shaped the next one
    code = (
        "from hog.bench import run_marking\n"
        "from hog.datasets import generate_random\n"
        "from hog.ehog import build_ehog\n"
        "t = build_ehog(generate_random(50, 1500, b'ACGT', seed=3)).trie\n"
        "for _ in range(16): print(run_marking(t, 'new', reps=1).peak_alloc)\n"
    )
    src = os.path.dirname(os.path.dirname(hog.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert len(out) == 16 and out[0] == out[-1], out


def test_run_marking_timeout(monkeypatch):
    monkeypatch.setitem(baselines.MARKERS, "slowpoke", slow_marker)
    build = build_ehog(normalize(FIG1))
    run = run_marking(build.trie, "slowpoke", reps=2, timeout_s=1.0)
    assert run.timed_out and run.marks is None and run.times == []


# -- bench_point ----------------------------------------------------------------

def test_bench_point_runs_all_algorithms():
    ss = normalize(FIG1)
    report = bench_point(ss, ["new", "khan", "parkcpr", "cazaux"], reps=2)
    assert report.nodes_hog == 6
    assert [r.algo for r in report.runs] == ["new", "khan", "parkcpr", "cazaux"]
    assert not any(r.timed_out for r in report.runs)
    text = render_report(report, 2)
    assert "1.00x" in text  # relative table normalizes to the row minimum
    for name in ("new", "khan", "parkcpr", "cazaux"):
        assert name in text


def test_bench_point_rejects_disagreeing_marks(monkeypatch):
    monkeypatch.setitem(baselines.MARKERS, "bogus", bogus_marker)
    with pytest.raises(BenchError, match="disagree at node"):
        bench_point(normalize(FIG1), ["new", "bogus"])


def test_bench_point_excludes_timed_out_rows(monkeypatch, tmp_path):
    monkeypatch.setitem(baselines.MARKERS, "slowpoke", slow_marker)
    report = bench_point(normalize(FIG1), ["new", "slowpoke"], reps=1)
    assert write_csv([report], tmp_path / "rows.csv") == 1
    with open(tmp_path / "rows.csv", newline="") as fh:
        assert [r["algo"] for r in csv.DictReader(fh)] == ["new"]
    assert "TIMED OUT" in render_report(report, 1)
    with pytest.raises(BenchError, match="timed out"):
        bench_point(normalize(FIG1), ["slowpoke"], reps=1)


# -- sweep ----------------------------------------------------------------------

def test_sweep_single_point_grid(tmp_path):
    reports = sweep(
        "fix_k_vary_n", 5, [60], ["new"], seed=3, reps=1, timeout_s=None
    )
    assert write_csv(reports, tmp_path / "rows.csv") == 1
    with open(tmp_path / "rows.csv", newline="") as fh:
        [row] = csv.DictReader(fh)
    assert row["dataset"] == "random-k5-n60"
    assert (row["k"], row["n"]) == ("5", "60")
    assert int(row["nodes_hog"]) <= int(row["nodes_ehog"]) <= int(row["nodes_act"])


def test_sweep_rejects_unknown_mode():
    with pytest.raises(ValueError):
        sweep("vary_everything", 5, [60], ["new"], seed=3)


def test_sweep_peak_memory_non_decreasing_in_n():
    # fixed string count, growing total length; the fast marker's working
    # set tracks the extended structure, so peaks stay flat-to-rising
    # (10% slack absorbs allocator noise)
    reports = sweep(
        "fix_k_vary_n",
        2000,
        [100_000, 400_000, 1_600_000],
        ["new"],
        seed=11,
        reps=1,
        timeout_s=None,
    )
    peaks = [r.runs[0].peak_alloc for r in reports]
    for prev, cur in zip(peaks, peaks[1:]):
        assert cur >= 0.9 * prev, peaks


# -- the command line -----------------------------------------------------------

def fig1_file(tmp_path, name="fig1.txt"):
    path = tmp_path / name
    path.write_bytes(b"".join(s + b"\n" for s in FIG1))
    return str(path)


def test_cli_build_with_csv_and_serialize(tmp_path, capsys):
    inp = fig1_file(tmp_path)
    out_csv = tmp_path / "row.csv"
    dump = tmp_path / "hog.txt"
    rc = main([
        "build", "--input", inp, "--reps", "2",
        "--csv", str(out_csv), "--serialize", str(dump),
    ])
    assert rc == 0
    text = dump.read_text()
    assert text.startswith("# kind=hog nodes=6 k=3 n=15\n")
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1 and rows[0]["algo"] == "new"
    assert "full-trie=14" in capsys.readouterr().out


def test_cli_build_csv_quotes_a_comma_in_the_dataset_name(tmp_path, capsys):
    out_csv = tmp_path / "row.csv"
    inp = fig1_file(tmp_path, "fig,1.txt")
    assert main(["build", "--input", inp, "--reps", "1", "--csv", str(out_csv)]) == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert (rows[0]["dataset"], rows[0]["k"], rows[0]["n"]) == ("fig,1.txt", "3", "15")
    assert rows[0]["algo"] == "new" and None not in rows[0]


def test_cli_build_csv_round_trips_a_non_ascii_dataset_name(tmp_path, capsys):
    out_csv = tmp_path / "row.csv"
    inp = fig1_file(tmp_path, "f\u00efg.txt")
    assert main(["build", "--input", inp, "--reps", "1", "--csv", str(out_csv)]) == 0
    with open(out_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert (rows[0]["dataset"], rows[0]["k"], rows[0]["algo"]) == ("f\u00efg.txt", "3", "new")


@pytest.mark.parametrize("seconds", ["0", "-1", "nan", "inf"])
def test_cli_build_rejects_a_meaningless_timeout(capsys, seconds):
    rc = main(["build", "--random", "5", "50", "--reps", "1", f"--timeout={seconds}"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: --timeout must be a positive number")
    assert captured.out == ""  # nothing was built


@pytest.mark.parametrize("command", [
    ["build", "--random", "5", "50"],
    ["compare", "--random", "5", "50"],
    ["sweep", "--mode", "fix_k_vary_n", "--k", "5", "--grid", "50", "--algos", "new"],
])
def test_cli_rejects_zero_reps_before_building(monkeypatch, tmp_path, capsys, command):
    built = []

    def no_build(ss):
        built.append(ss)
        raise BenchError("built before checking --reps")

    monkeypatch.setattr(hog.bench, "build_ehog", no_build)
    rc = main(command + ["--reps", "0", "--csv", str(tmp_path / "rows.csv")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == "error: --reps must be at least 1, got 0\n"
    assert built == []
    assert not (tmp_path / "rows.csv").exists()


@pytest.mark.parametrize("command", ["build", "compare", "query"])
@pytest.mark.parametrize("flags, message", [
    (["--filter", "AC"], "error: --filter only applies to --input with --format fasta\n"),
    (["--filter", ""], "error: --filter only applies to --input with --format fasta\n"),
    (["--format", "fasta"], "error: --format fasta only applies to --input\n"),
], ids=["filter", "filter-empty", "format-fasta"])
def test_cli_rejects_input_options_with_random(tmp_path, capsys, command, flags, message):
    batch = tmp_path / "batch.txt"
    batch.write_text("A 1\n")
    extra = ["--batch", str(batch)] if command == "query" else ["--reps", "1"]
    rc = main([command, "--random", "10", "100", *flags, *extra])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == message
    assert captured.out == ""  # nothing was built


@pytest.mark.parametrize("command", ["build", "compare", "query"])
@pytest.mark.parametrize("flags, message", [
    (["--alphabet", "XY"], "error: --alphabet only applies to --random\n"),
    (["--seed", "9"], "error: --seed only applies to --random\n"),
], ids=["alphabet", "seed"])
def test_cli_rejects_random_options_with_input(tmp_path, capsys, command, flags, message):
    batch = tmp_path / "batch.txt"
    batch.write_text("A 1\n")
    extra = ["--batch", str(batch)] if command == "query" else ["--reps", "1"]
    rc = main([command, "--input", fig1_file(tmp_path), *flags, *extra])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == message
    assert captured.out == ""  # nothing was built


@pytest.mark.parametrize("fmt, message", [
    ("lines", "--filter only applies to --format fasta"),
    ("fasta", "no records left after alphabet filtering"),
])
def test_cli_empty_filter_is_a_filter(tmp_path, capsys, fmt, message):
    # an empty alphabet admits no record; it is not the same as no --filter
    path = tmp_path / "fig1.fa"
    path.write_bytes(b"".join(b">r\n" + s + b"\n" for s in FIG1))
    rc = main(["build", "--input", str(path), "--format", fmt, "--filter", "", "--reps", "1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:") and message in captured.err
    assert captured.out == ""  # nothing was built


def test_cli_random_defaults_to_acgt_and_seed_42(monkeypatch, tmp_path, capsys):
    calls = []

    def recording_generator(k, n, alphabet, seed):
        calls.append((k, n, alphabet, seed))
        return generate_random(k, n, alphabet, seed)

    monkeypatch.setattr(hog.cli, "generate_random", recording_generator)
    out_csv = tmp_path / "row.csv"
    assert main(["build", "--random", "10", "100", "--reps", "1", "--csv", str(out_csv)]) == 0
    assert calls == [(10, 100, b"ACGT", 42)]
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["seed"] for r in rows] == ["42"]


def test_cli_compare_agreement_line(capsys):
    rc = main([
        "compare", "--random", "30", "300", "--seed", "5",
        "--algos", "new,khan,parkcpr,cazaux", "--reps", "1",
    ])
    assert rc == 0
    assert "mark vectors: all algorithms agree" in capsys.readouterr().out


def test_cli_compare_needs_two_algorithms(capsys):
    rc = main(["compare", "--random", "5", "50", "--algos", "new"])
    assert rc == 1
    assert "at least two" in capsys.readouterr().err


def test_cli_compare_rejects_a_repeated_algorithm(capsys):
    rc = main(["compare", "--random", "5", "50", "--algos", "new,new", "--reps", "1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:") and "twice" in captured.err
    assert "agree" not in captured.out


@pytest.mark.parametrize("seconds", ["-1", "nan"])
def test_cli_compare_rejects_a_meaningless_timeout(capsys, seconds):
    rc = main(["compare", "--random", "5", "50", "--reps", "1", f"--timeout={seconds}"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: --timeout must be a positive number")
    assert captured.out == ""


def test_cli_compare_suppresses_report_on_mismatch(monkeypatch, capsys):
    monkeypatch.setitem(baselines.MARKERS, "bogus", bogus_marker)
    rc = main(["compare", "--random", "6", "48", "--algos", "new,bogus", "--reps", "1"])
    out = capsys.readouterr()
    assert rc == 1
    assert "disagree" in out.err
    assert "agree" not in out.out  # no report at all on stdout


def test_cli_compare_fails_when_fewer_than_two_finish(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(baselines.MARKERS, "slowpoke", slow_marker)
    rc = main([
        "compare", "--random", "6", "48", "--algos", "new,slowpoke", "--reps", "1",
        "--csv", str(tmp_path / "rows.csv"),
    ])
    out = capsys.readouterr()
    assert rc == 1
    assert out.err.startswith("error: nothing to compare: slowpoke timed out")
    assert "agree" not in out.out
    assert not (tmp_path / "rows.csv").exists()


def test_cli_compare_counts_the_vectors_compared(monkeypatch, capsys):
    monkeypatch.setitem(baselines.MARKERS, "slowpoke", slow_marker)
    rc = main([
        "compare", "--random", "6", "48", "--algos", "new,slowpoke,khan", "--reps", "1",
    ])
    assert rc == 0
    assert "mark vectors: 2 of 3 compared, all agree (slowpoke timed out)" in (
        capsys.readouterr().out
    )


def test_cli_sweep_writes_rows(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--mode", "fix_k_vary_n", "--k", "5", "--grid", "50,100",
        "--algos", "new", "--reps", "1", "--csv", str(out),
    ])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["k"], r["n"]) for r in rows] == [("5", "50"), ("5", "100")]


def test_cli_sweep_rejects_a_repeated_algorithm(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--mode", "fix_k_vary_n", "--k", "5", "--grid", "50",
        "--algos", "khan,khan", "--reps", "1", "--csv", str(out),
    ])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("seconds", ["0", "nan"])
def test_cli_sweep_rejects_a_meaningless_timeout(tmp_path, capsys, seconds):
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--mode", "fix_k_vary_n", "--k", "5", "--grid", "50",
        "--algos", "new", "--reps", "1", f"--timeout={seconds}", "--csv", str(out),
    ])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: --timeout must be a positive number")
    assert not out.exists()


def test_cli_sweep_flag_validation(capsys):
    assert main(["sweep", "--mode", "fix_n_vary_k", "--grid", "10"]) == 1
    assert "--n" in capsys.readouterr().err


@pytest.mark.parametrize("mode, fixed, unused", [
    ("fix_n_vary_k", ["--n", "2000"], ["--k", "7"]),
    ("fix_k_vary_n", ["--k", "10"], ["--n", "99"]),
], ids=["fix_n_vary_k", "fix_k_vary_n"])
def test_cli_sweep_rejects_the_size_flag_its_mode_varies(tmp_path, capsys, mode, fixed, unused):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--mode", mode, *fixed, *unused, "--grid", "100",
               "--algos", "new", "--reps", "1", "--csv", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {unused[0]} does not apply to {mode}")
    assert not out.exists()


def test_cli_query_batch(tmp_path, capsys):
    inp = fig1_file(tmp_path)
    batch = tmp_path / "batch.txt"
    batch.write_text("O 2 3\nA 1\nC 1 0\n")
    rc = main(["query", "--input", inp, "--batch", str(batch)])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    assert lines[:3] == ["3 dbd", "2 2 0", "3"]
    assert any("median=" in ln and "ms" in ln for ln in lines)


def test_cli_query_engines_print_the_same_answers(tmp_path, capsys):
    # fig. 1's extended graph has two nodes that its minimal graph drops
    inp = fig1_file(tmp_path)
    batch = tmp_path / "batch.txt"
    batch.write_text("".join(
        f"O {i} {j}\nA {i}\nR {i} {j - 1}\nC {i} {j - 1}\nT {i} {j}\n"
        for i in (1, 2, 3) for j in (1, 2, 3)
    ))
    answers = {}
    for engine in ("hog", "ehog"):
        assert main(["query", "--input", inp, "--batch", str(batch), "--engine", engine]) == 0
        lines = capsys.readouterr().out.splitlines()
        answers[engine] = [ln for ln in lines if not ln.startswith("#")]
    assert len(answers["hog"]) == 45
    assert answers["ehog"] == answers["hog"]


def test_cli_query_has_no_algo_option(tmp_path, capsys):
    inp = fig1_file(tmp_path)
    batch = tmp_path / "batch.txt"
    batch.write_text("O 2 3\n")
    with pytest.raises(SystemExit) as exc:
        main(["query", "--input", inp, "--batch", str(batch), "--algo", "new"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --algo" in capsys.readouterr().err


def test_cli_query_rejects_bad_batch(tmp_path, capsys):
    inp = fig1_file(tmp_path)
    batch = tmp_path / "batch.txt"
    batch.write_text("Z 1\n")
    assert main(["query", "--input", inp, "--batch", str(batch)]) == 1
    assert "line 1" in capsys.readouterr().err


def test_cli_query_rejects_out_of_range_index(tmp_path, capsys):
    inp = fig1_file(tmp_path)
    batch = tmp_path / "batch.txt"
    batch.write_text("O 9 1\n")
    assert main(["query", "--input", inp, "--batch", str(batch)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "out of range" in err


def test_cli_dataset_flag_conflicts(tmp_path, capsys):
    inp = fig1_file(tmp_path)
    assert main(["build", "--input", inp, "--random", "3", "30"]) == 1
    assert main(["build"]) == 1


def test_cli_verify_smoke(capsys):
    assert main(["verify", "--instances", "12", "--seed", "1"]) == 0
    assert "12 instance(s) ok" in capsys.readouterr().out


@pytest.mark.parametrize("count", ["0", "-5"])
def test_cli_verify_rejects_checking_nothing(capsys, count):
    assert main(["verify", "--instances", count]) == 1
    captured = capsys.readouterr()
    assert "ok" not in captured.out
    assert captured.err.startswith("error: --instances must be at least 1")


def test_cli_build_restricts_algorithm_choices():
    with pytest.raises(SystemExit):
        main(["build", "--random", "3", "30", "--algo", "oracle"])
