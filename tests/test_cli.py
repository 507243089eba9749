import json
import subprocess
import sys
from pathlib import Path

from sigpat import mine
from sigpat.cli import main
from sigpat.miner import InternalInvariantError

GENO_MATRIX = "snp,bob,eve,kim,sam,ana,joe\nrs1,2,0,2,1,2,0\nrs2,1,0,1,2,1,0\nrs3,0,0,1,0,2,1\n"
GENO_LABELS = "bob,1\neve,0\nkim,1\nsam,0\nana,1\njoe,0\n"


SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_process(*argv):
    """``main(argv)`` in a fresh interpreter, where no test harness handles
    log records, so stderr is what a user of the command sees."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            "from sigpat.cli import main; sys.exit(main(sys.argv[1:]))")
    # -I: no user site or environment; -B: no bytecode written into src
    args = [sys.executable, "-I", "-B", "-c", code, *argv]
    done = subprocess.run(args, capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout, done.stderr


def test_mine_worked_rows(table1_path, capsys):
    rc, out, _ = run(capsys, "mine", "--input", str(table1_path))
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == (
        "items,n_case_tids,n_control_tids,sup_case,sup_control,sd,gr,ors,"
        "lci_gr,uci_gr,lci_ors,uci_ors,ci_corrected,case_tids,control_tids"
    )
    assert len(lines) == 51
    assert (
        "a;b;c,3,1,0.6,0.25,0.35,2.4,4.5,0.380354,15.1438,0.251336,80.5694,false,1;2;3,7"
        in lines
    )
    assert (
        "b;c;i,2,1,0.4,0.25,0.15,1.6,2,0.214725,11.9222,0.111705,35.8086,false,1;2,8"
        in lines
    )


def test_mine_header_only_when_nothing_passes(table1_path, capsys):
    rc, out, _ = run(capsys, "mine", "--input", str(table1_path), "--min-sd", "1.0")
    assert rc == 0
    assert out.splitlines() == [out.splitlines()[0]]
    assert out.splitlines()[0].startswith("items,")


def test_mine_matches_oracle_bytes(table1_path, capsys):
    args = ("--input", str(table1_path), "--min-ors", "1.5")
    rc1, mined, _ = run(capsys, "mine", *args)
    rc2, reference, _ = run(capsys, "oracle", *args)
    assert rc1 == rc2 == 0
    assert mined == reference


def test_mine_matches_oracle_bytes_json(table1_path, capsys):
    args = ("--input", str(table1_path), "--output-format", "json")
    rc1, mined, _ = run(capsys, "mine", *args)
    rc2, reference, _ = run(capsys, "oracle", *args)
    assert rc1 == rc2 == 0
    assert mined == reference


def test_mine_no_prune_same_bytes(table1_path, capsys):
    args = ("--input", str(table1_path), "--min-ors", "2", "--min-sd", "0.1")
    _, pruned, _ = run(capsys, "mine", *args)
    _, full, _ = run(capsys, "mine", *args, "--no-prune")
    assert pruned == full


def test_mine_json_round_trip(table1_path, table1, capsys):
    rc, out, _ = run(
        capsys, "mine", "--input", str(table1_path), "--output-format", "json"
    )
    assert rc == 0
    payload = json.loads(out)
    records, _ = mine(table1)
    assert len(payload) == len(records)
    for row, rec in zip(payload, records):
        assert row["items"] == [table1.items[i] for i in rec.itemset]
        assert row["n_case_tids"] == len(rec.tidset.pos)
        assert row["n_control_tids"] == len(rec.tidset.neg)
        assert row["sd"] == rec.scores.sd
        assert row["lci_ors"] == rec.scores.lci_ors
        assert row["ci_corrected"] is rec.scores.corrected_ci
        assert row["case_tids"] == [str(t + 1) for t in rec.tidset.pos]


def test_infinite_odds_ratio_rendering(tmp_path, capsys):
    data = tmp_path / "inf.tct"
    data.write_text("1 x\n1 x\n0 x\n0 y\n", encoding="utf-8")
    rc, out, _ = run(capsys, "mine", "--input", str(data))
    assert rc == 0
    assert out.splitlines()[1] == (
        "x,2,1,1,0.5,0.5,2,inf,0.482494,5.75713,0.113308,220.637,true,1;2,3"
    )
    rc, out, _ = run(capsys, "mine", "--input", str(data), "--output-format", "json")
    assert rc == 0
    row = json.loads(out)[0]
    assert row["ors"] == "inf"
    assert row["gr"] == 2.0
    assert row["ci_corrected"] is True


def test_mine_output_file(table1_path, tmp_path, capsys):
    out_path = tmp_path / "patterns.csv"
    rc, out, _ = run(
        capsys, "mine", "--input", str(table1_path), "--output", str(out_path)
    )
    assert rc == 0
    assert out == ""
    _, stdout, _ = run(capsys, "mine", "--input", str(table1_path))
    assert out_path.read_text(encoding="utf-8") == stdout


def test_mine_stats_file(table1_path, tmp_path, capsys):
    stats_path = tmp_path / "stats.json"
    rc, _, _ = run(
        capsys,
        "mine",
        "--input",
        str(table1_path),
        "--min-ors",
        "2",
        "--output",
        str(tmp_path / "out.csv"),
        "--stats",
        str(stats_path),
    )
    assert rc == 0
    stats = json.loads(stats_path.read_text(encoding="utf-8"))
    assert next(iter(stats.items())) == ("schema", 1)
    assert stats["nodes_visited"] == 124
    assert stats["nodes_pruned"] == 35
    assert stats["nodes_duplicate"] == 16
    assert stats["nodes_dead"] == 5
    assert stats["patterns_emitted"] == 15
    assert stats["min_case_support"] == 2
    assert stats["wall_time_seconds"] >= 0.0
    assert stats["load_seconds"] >= 0.0
    assert stats["write_seconds"] >= 0.0
    rc, _, _ = run(
        capsys,
        "mine",
        "--input",
        str(table1_path),
        "--min-ors",
        "2",
        "--no-prune",
        "--output",
        str(tmp_path / "out.csv"),
        "--stats",
        str(stats_path),
    )
    assert rc == 0
    stats = json.loads(stats_path.read_text(encoding="utf-8"))
    assert stats["min_case_support"] is None
    assert stats["nodes_visited"] == 160
    assert stats["nodes_dead"] == 9


def test_mine_negative_threshold_rejected(table1_path, capsys):
    rc, _, err = run(capsys, "mine", "--input", str(table1_path), "--min-gr", "-1")
    assert rc == 1
    assert "min_gr" in err


def test_exit_code_usage():
    assert main(["mine"]) == 1
    assert main(["bogus"]) == 1
    assert main(["mine", "--input", "x", "--format", "genotype"]) == 1


def test_exit_code_missing_file(capsys):
    rc, _, err = run(capsys, "mine", "--input", "/nonexistent/data.tct")
    assert rc == 2
    assert "error" in err


def test_exit_code_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.tct"
    bad.write_text("1 a\n7 b\n", encoding="utf-8")
    rc, _, err = run(capsys, "mine", "--input", str(bad))
    assert rc == 2
    assert "label" in err


def test_exit_code_invalid_utf8_input(tmp_path, capsys):
    bad = tmp_path / "bad.tct"
    bad.write_bytes(b"1 a \xff b\n0 a\n")
    rc, _, err = run(capsys, "mine", "--input", str(bad))
    assert rc == 2
    assert "UTF-8" in err


def test_exit_code_single_class(tmp_path, capsys):
    cases_only = tmp_path / "cases.tct"
    cases_only.write_text("1 a\n1 b\n", encoding="utf-8")
    rc, _, err = run(capsys, "mine", "--input", str(cases_only))
    assert rc == 2
    assert "classes" in err


def test_exit_code_oracle_too_large(tmp_path, capsys):
    big = tmp_path / "big.tct"
    rc, _, _ = run(capsys, "gen", "--cases", "15", "--controls", "15", "--items", "8",
                   "--density", "0.5", "--seed", "3", "--output", str(big))
    assert rc == 0
    rc, _, err = run(capsys, "oracle", "--input", str(big))
    assert rc == 1
    assert "at most" in err


def test_exit_code_internal_invariant(table1_path, capsys, monkeypatch):
    def boom(dataset, config):
        raise InternalInvariantError("duplicate pattern")

    monkeypatch.setattr("sigpat.cli.mine", boom)
    rc, _, err = run(capsys, "mine", "--input", str(table1_path))
    assert rc == 3
    assert "internal error" in err


def test_gen_deterministic(tmp_path, capsys):
    a = tmp_path / "a.tct"
    b = tmp_path / "b.tct"
    for path in (a, b):
        rc, _, _ = run(capsys, "gen", "--cases", "6", "--controls", "4", "--items", "9",
                       "--density", "0.4", "--seed", "11", "--output", str(path))
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.tct"
    run(capsys, "gen", "--cases", "6", "--controls", "4", "--items", "9",
        "--density", "0.4", "--seed", "12", "--output", str(c))
    assert c.read_bytes() != a.read_bytes()
    lines = a.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 10
    assert [line.split()[0] for line in lines] == ["1"] * 6 + ["0"] * 4
    # random.Random(seed).random() draws, item by item, each over all transactions
    assert a.read_bytes() == (
        b"1 i1 i2 i4 i5 i6\n"
        b"1 i1 i2 i4 i5 i6\n"
        b"1 i1 i4 i7 i8\n"
        b"1 i2 i4\n"
        b"1 i2 i6 i7 i8\n"
        b"1 i1 i2 i3 i5 i6 i8\n"
        b"0 i0 i2 i5 i6 i7\n"
        b"0 i4 i6\n"
        b"0 i7 i8\n"
        b"0 i5 i6 i7\n"
    )


def test_gen_rejects_bad_density(capsys):
    rc, _, err = run(capsys, "gen", "--cases", "2", "--controls", "2", "--items", "5",
                     "--density", "1.5", "--seed", "1")
    assert rc == 1
    assert "density" in err


def test_gen_then_mine_pipeline(tmp_path, capsys):
    data = tmp_path / "d.tct"
    run(capsys, "gen", "--cases", "7", "--controls", "6", "--items", "10",
        "--density", "0.45", "--seed", "23", "--output", str(data))
    args = ("--input", str(data), "--min-sd", "0.2")
    rc, mined, _ = run(capsys, "mine", *args)
    assert rc == 0
    rc, reference, _ = run(capsys, "oracle", *args)
    assert rc == 0
    assert mined == reference


def test_filter_genotypes_oversized_matrix_field(tmp_path, capsys):
    matrix = tmp_path / "m.csv"
    labels = tmp_path / "l.csv"
    matrix.write_text(GENO_MATRIX + "rs4," + "0" * 200_000 + "\n", encoding="utf-8")
    labels.write_text(GENO_LABELS, encoding="utf-8")
    rc, _, err = run(capsys, "filter-genotypes", "--input", str(matrix),
                     "--labels", str(labels))
    assert rc == 2
    assert "field larger than field limit" in err and str(matrix) in err
    assert "Traceback" not in err


def test_mine_genotype_oversized_labels_field(tmp_path, capsys):
    matrix = tmp_path / "m.csv"
    labels = tmp_path / "l.csv"
    matrix.write_text(GENO_MATRIX, encoding="utf-8")
    labels.write_text(GENO_LABELS + "x" * 200_000 + ",1\n", encoding="utf-8")
    rc, _, err = run(capsys, "mine", "--format", "genotype", "--input", str(matrix),
                     "--labels", str(labels))
    assert rc == 2
    assert "field larger than field limit" in err and str(labels) in err
    assert "Traceback" not in err


def test_filter_genotypes_error_names_file_line(tmp_path, capsys):
    matrix = tmp_path / "m.csv"
    labels = tmp_path / "l.csv"
    matrix.write_text("snp,bob,eve\n# comment\n\nrs1,0,1\nrs2,0,7\n", encoding="utf-8")
    labels.write_text("bob,1\neve,0\n", encoding="utf-8")
    rc, _, err = run(capsys, "filter-genotypes", "--input", str(matrix),
                     "--labels", str(labels))
    assert rc == 2
    assert err == "error: genotype matrix row 5: genotype must be 0, 1 or 2, got '7'\n"


def test_labels_typo_on_the_first_line_exits_2(tmp_path, capsys):
    matrix = tmp_path / "m.csv"
    labels = tmp_path / "l.csv"
    matrix.write_text("snp,bob,eve\nrs1,0,1\n", encoding="utf-8")
    labels.write_text("bob,7\neve,0\n", encoding="utf-8")
    for command in (("mine", "--format", "genotype"), ("filter-genotypes",)):
        rc, _, err = run(capsys, *command, "--input", str(matrix), "--labels", str(labels))
        assert rc == 2
        assert err == "error: labels line 1: label for 'bob' must be 0 or 1, got '7'\n"


def test_filter_genotypes(tmp_path, capsys):
    matrix = tmp_path / "m.csv"
    labels = tmp_path / "l.csv"
    matrix.write_text(GENO_MATRIX, encoding="utf-8")
    labels.write_text(GENO_LABELS, encoding="utf-8")
    out = tmp_path / "filtered.tct"
    report = tmp_path / "report.csv"
    rc, _, _ = run(capsys, "filter-genotypes", "--input", str(matrix),
                   "--labels", str(labels), "--max-pvalue", "0.2",
                   "--max-control-support", "0.5",
                   "--output", str(out), "--report", str(report))
    assert rc == 0
    report_lines = report.read_text(encoding="utf-8").splitlines()
    assert report_lines[0] == "item,p_value,control_support,kept"
    # 3 SNPs expand to 9 items, one report row each plus two totals
    assert len(report_lines) == 12
    kept = {row.split(",")[0] for row in report_lines[1:10] if row.endswith("true")}
    total_kept = int(report_lines[10].split()[-1])
    total_dropped = int(report_lines[11].split()[-1])
    assert report_lines[10].startswith("# total_kept")
    assert report_lines[11].startswith("# total_dropped")
    assert total_kept == len(kept)
    assert total_kept + total_dropped == 9
    # rs1_2 and rs2_1 are case-only (3 of 3 cases, 0 controls): p ~ 0.014
    assert {"rs1_2", "rs2_1"} <= kept
    text = out.read_text(encoding="utf-8").splitlines()
    assert len(text) == 6
    for line in text[:3]:
        assert line.startswith("1")
    for line in text[3:]:
        assert line.startswith("0")
    mentioned = {tok for line in text for tok in line.split()[1:]}
    assert mentioned <= kept


def test_filter_genotypes_rejects_whitespace_in_item_names(tmp_path, capsys):
    # A kept item "rs 1_0" would read back from the .tct file as "rs" and "1_0".
    matrix = tmp_path / "m.csv"
    labels = tmp_path / "l.csv"
    matrix.write_text('snp,bob,eve,kim,sam\n"rs 1",0,1,0,1\nrs2,2,2,1,0\n', encoding="utf-8")
    labels.write_text("bob,1\neve,1\nkim,0\nsam,0\n", encoding="utf-8")
    out = tmp_path / "filtered.tct"
    report = tmp_path / "report.csv"
    args = ("filter-genotypes", "--input", str(matrix), "--labels", str(labels))
    rc, _, err = run(capsys, *args, "--output", str(out), "--report", str(report))
    assert (rc, err) == (2, "error: item name 'rs 1_0' is empty or holds whitespace\n")
    assert not out.exists() and not report.exists()
    rc, stdout, _ = run(capsys, *args)
    assert (rc, stdout) == (2, "")
    # with the SNP's items dropped (p-value 1) there is nothing to refuse
    rc, stdout, _ = run(capsys, *args, "--max-pvalue", "0.1")
    assert (rc, stdout) == (0, "1 rs2_2\n1 rs2_2\n0\n0\n")


def test_filter_genotypes_keep_all(tmp_path, capsys):
    matrix = tmp_path / "m.csv"
    labels = tmp_path / "l.csv"
    matrix.write_text(GENO_MATRIX, encoding="utf-8")
    labels.write_text(GENO_LABELS, encoding="utf-8")
    rc, out, _ = run(capsys, "filter-genotypes", "--input", str(matrix),
                     "--labels", str(labels), "--max-pvalue", "1",
                     "--max-control-support", "1")
    assert rc == 0
    lines = out.splitlines()
    # every individual keeps one item per SNP
    assert all(len(line.split()) == 4 for line in lines)


def test_filter_genotypes_validates_fractions(tmp_path, capsys):
    matrix = tmp_path / "m.csv"
    labels = tmp_path / "l.csv"
    matrix.write_text(GENO_MATRIX, encoding="utf-8")
    labels.write_text(GENO_LABELS, encoding="utf-8")
    rc, _, err = run(capsys, "filter-genotypes", "--input", str(matrix),
                     "--labels", str(labels), "--max-pvalue", "1.5")
    assert rc == 1
    assert "max-pvalue" in err


def test_mine_genotype_format_uses_individual_ids(tmp_path, capsys):
    matrix = tmp_path / "m.csv"
    labels = tmp_path / "l.csv"
    matrix.write_text(GENO_MATRIX, encoding="utf-8")
    labels.write_text(GENO_LABELS, encoding="utf-8")
    rc, out, _ = run(capsys, "mine", "--input", str(matrix), "--format", "genotype",
                     "--labels", str(labels))
    assert rc == 0
    rows = out.splitlines()[1:]
    assert rows
    referenced = {name for row in rows for name in row.split(",")[13].split(";")}
    assert referenced <= {"bob", "kim", "ana"}
    referenced_controls = {name for row in rows for name in row.split(",")[14].split(";")}
    assert referenced_controls <= {"eve", "sam", "joe"}


def test_mine_empty_transaction_warns_on_stderr(tmp_path):
    data = tmp_path / "empty.tct"
    data.write_text("1 a b\n1\n0 a\n1 b c\n0 c\n", encoding="utf-8")
    out = tmp_path / "out.csv"
    rc, stdout, err = run_process("mine", "--input", str(data), "--output", str(out))
    # no logging is configured, so the last-resort handler prints the bare message
    assert (rc, stdout, err) == (0, "", "line 2: transaction has no items\n")
    assert out.read_text(encoding="utf-8") == (
        "items,n_case_tids,n_control_tids,sup_case,sup_control,sd,gr,ors,"
        "lci_gr,uci_gr,lci_ors,uci_ors,ci_corrected,case_tids,control_tids\n"
        "a,1,1,0.333333,0.5,-0.166667,0.666667,0.5,0.0802581,5.53769,0.0127788,19.5637,"
        "false,1,3\n"
        "c,1,1,0.333333,0.5,-0.166667,0.666667,0.5,0.0802581,5.53769,0.0127788,19.5637,"
        "false,4,5\n"
    )


def test_filter_genotypes_writes_nothing_to_stderr(tmp_path):
    matrix = tmp_path / "m.csv"
    labels = tmp_path / "l.csv"
    matrix.write_text(GENO_MATRIX, encoding="utf-8")
    labels.write_text(GENO_LABELS, encoding="utf-8")
    out = tmp_path / "filtered.tct"
    report = tmp_path / "report.csv"
    rc, stdout, err = run_process("filter-genotypes", "--input", str(matrix),
                                  "--labels", str(labels), "--max-pvalue", "0.2",
                                  "--output", str(out), "--report", str(report))
    assert (rc, stdout, err) == (0, "", "")
    assert out.exists() and report.exists()
