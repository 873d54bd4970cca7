import subprocess
import sys

import pytest

from extph.cli import main

CYCLE = "a\tb\t1\nb\tc\t1\nc\td\t1\nd\ta\t1\n"
TWO_STAGE = "a\tb\t1\nb\tc\t2\n"
HYPER = "1\ta\n1\tb\n1\ta,b\n"


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# pph / hyper
# ---------------------------------------------------------------------------


def test_pph_cycle_has_one_dim1_extended_point(tmp_path, capsys):
    src = tmp_path / "cycle.tsv"
    src.write_text(CYCLE)
    out = tmp_path / "diagram.tsv"
    code, _, _ = run(["pph", str(src), "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "dim\ttype\tbirth\tdeath"
    assert sum(1 for l in lines[1:] if l.startswith("1\text")) == 1


def test_pph_empty_file_gives_empty_diagram(tmp_path, capsys):
    src = tmp_path / "empty.tsv"
    src.write_text("# nothing here\n")
    code, out, err = run(["pph", str(src)], capsys)
    assert code == 0
    assert out == "dim\ttype\tbirth\tdeath\n"


HEADER = "dim\ttype\tbirth\tdeath\n"


@pytest.mark.parametrize(
    "command, text, want",
    [
        # the stage grid keeps the spelling of a value that it reads first
        ("pph", "a\tb\t0\nb\tc\t-0\nc\ta\t1\n", "0\text\t0.0\t1.0\n1\text\t1.0\t0.0\n1\trel\t1.0\t0.0\n"),
        ("pph", "a\tb\t-0\nb\tc\t0\nc\ta\t1\n", "0\text\t-0.0\t1.0\n1\text\t1.0\t-0.0\n1\trel\t1.0\t-0.0\n"),
        ("hyper", "0\ta\n-0\tb\n1\ta,b\n", "0\text\t0.0\t0.0\n0\tord\t0.0\t1.0\n"),
        ("hyper", "-0\ta\n0\tb\n1\ta,b\n", "0\text\t-0.0\t-0.0\n0\tord\t-0.0\t1.0\n"),
    ],
    ids=["pph-zero-first", "pph-negative-zero-first", "hyper-zero-first", "hyper-negative-zero-first"],
)
def test_a_signed_zero_prints_as_first_read(tmp_path, capsys, command, text, want):
    src = tmp_path / "zeros.tsv"
    src.write_text(text)
    code, out, _ = run([command, str(src)], capsys)
    assert (code, out) == (0, HEADER + want)


def test_pph_malformed_line_exits_2(tmp_path, capsys):
    src = tmp_path / "bad.tsv"
    src.write_text("a\tb\t1\nnot a record\n")
    code, _, err = run(["pph", str(src)], capsys)
    assert code == 2
    assert "line 2" in err


def test_pph_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run(["pph", str(tmp_path / "nope.tsv")], capsys)
    assert code == 2


def test_pph_rejects_a_nan_weight(tmp_path, capsys):
    src = tmp_path / "g.tsv"
    src.write_text("a\tb\t1\nb\tc\tnan\n")
    code, out, err = run(["pph", str(src)], capsys)
    assert code == 2 and out == ""
    assert "line 2" in err and "non-finite" in err


def test_hyper_rejects_an_inf_value(tmp_path, capsys):
    src = tmp_path / "h.tsv"
    src.write_text("1\ta\ninf\ta,b\n")
    code, out, err = run(["hyper", str(src)], capsys)
    assert code == 2 and out == ""
    assert "line 2" in err and "non-finite" in err


def test_pph_oracle_check_passes(tmp_path, capsys):
    src = tmp_path / "g.tsv"
    src.write_text(TWO_STAGE)
    code, _, _ = run(["pph", str(src), "--oracle-check"], capsys)
    assert code == 0


def test_pph_oracle_check_catches_a_dropped_interval(tmp_path, capsys, monkeypatch):
    import extph.cli
    from extph import ExtendedBarcode, extended_barcode

    def drop_one(x, p_max, **kwargs):
        bc = extended_barcode(x, p_max, **kwargs)
        assert len(bc) > 0
        return ExtendedBarcode(bc.intervals[1:], bc.num_ascending, bc.num_descending)

    monkeypatch.setattr(extph.cli, "extended_barcode", drop_one)
    src = tmp_path / "cycle.tsv"
    src.write_text(CYCLE)
    out = tmp_path / "diagram.tsv"
    code, stdout, err = run(["pph", str(src), "--oracle-check", "--out", str(out)], capsys)
    assert code == 1 and stdout == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("oracle mismatch at (dim, stage, stage) windows [(")
    assert not out.exists()


def test_hyper_round_trip(tmp_path, capsys):
    src = tmp_path / "h.tsv"
    src.write_text(HYPER)
    code, out, _ = run(["hyper", str(src), "--oracle-check"], capsys)
    assert code == 0
    assert any(l.startswith("0\text") for l in out.splitlines())


def test_hyper_malformed_exits_2(tmp_path, capsys):
    src = tmp_path / "h.tsv"
    src.write_text("1\ta\nbroken\n")
    code, _, err = run(["hyper", str(src)], capsys)
    assert code == 2 and "line 2" in err


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------


def test_distance_of_identical_diagrams_is_zero(tmp_path, capsys):
    src = tmp_path / "g.tsv"
    src.write_text(CYCLE)
    d = tmp_path / "d.tsv"
    run(["pph", str(src), "--out", str(d)], capsys)
    code, out, _ = run(["distance", str(d), str(d)], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "max\t0.0"


def test_distance_reports_inf_on_extended_mismatch(tmp_path, capsys):
    d1 = tmp_path / "d1.tsv"
    d2 = tmp_path / "d2.tsv"
    d1.write_text("dim\ttype\tbirth\tdeath\n0\text\t1.0\t2.0\n")
    d2.write_text("dim\ttype\tbirth\tdeath\n")
    code, out, _ = run(["distance", str(d1), str(d2)], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "max\tinf"


def test_distance_rejects_a_nan_point(tmp_path, capsys):
    d1, d2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
    d1.write_text("dim\ttype\tbirth\tdeath\n0\tord\tnan\t1.0\n")
    d2.write_text("dim\ttype\tbirth\tdeath\n0\tord\t0.5\t1.0\n")
    code, out, err = run(["distance", str(d1), str(d2)], capsys)
    assert code == 2 and out == ""
    assert "non-finite" in err and len(err.splitlines()) == 1


def test_distance_refuses_coordinates_whose_difference_overflows(tmp_path, capsys):
    d1, d2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
    d1.write_text("dim\ttype\tbirth\tdeath\n0\tord\t-1e308\t1e308\n")
    d2.write_text("dim\ttype\tbirth\tdeath\n")
    for args in ([d1, d2], [d2, d1]):
        code, out, err = run(["distance", *map(str, args)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "where distances overflow" in err and len(err.splitlines()) == 1


def test_distance_matches_the_exhaustive_oracle(tmp_path, capsys):
    from oracles import bottleneck_oracle
    from extph import read_diagram

    d1 = tmp_path / "d1.tsv"
    d2 = tmp_path / "d2.tsv"
    d1.write_text("dim\ttype\tbirth\tdeath\n0\tord\t1.0\t4.0\n0\text\t0.0\t5.0\n")
    d2.write_text("dim\ttype\tbirth\tdeath\n0\tord\t1.5\t3.0\n0\text\t1.0\t5.5\n")
    code, out, _ = run(["distance", str(d1), str(d2)], capsys)
    assert code == 0
    got = float(out.splitlines()[-1].split("\t")[1])
    want = bottleneck_oracle(read_diagram(d1.read_text()), read_diagram(d2.read_text()), 0)
    assert got == pytest.approx(want, abs=1e-9)


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------


def test_stability_zero_delta_all_pass(tmp_path, capsys):
    src = tmp_path / "g.tsv"
    src.write_text(TWO_STAGE)
    code, out, _ = run(["stability", str(src), "--delta", "0", "--trials", "3"], capsys)
    assert code == 0
    rows = [l for l in out.splitlines() if l and l[0].isdigit()]
    assert len(rows) == 3
    assert all(row.endswith("pass") for row in rows)


def test_stability_detects_hypergraph_input(tmp_path, capsys):
    src = tmp_path / "h.tsv"
    src.write_text(HYPER)
    code, out, _ = run(["stability", str(src), "--delta", "0.2", "--trials", "3"], capsys)
    assert code == 0
    assert "3/3 trials" in out


@pytest.mark.parametrize(
    "text, line", [(TWO_STAGE + HYPER, 4), (HYPER + TWO_STAGE, 5)], ids=["digraph_first", "hypergraph_first"]
)
def test_stability_rejects_a_line_of_the_other_width(tmp_path, capsys, text, line):
    src = tmp_path / "mixed.tsv"
    src.write_text("# the first record sets the format\n" + text)
    code, out, err = run(["stability", str(src), "--trials", "1"], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: line {line}: expected '") and len(err.splitlines()) == 1


def test_stability_digraph_run_passes(tmp_path, capsys):
    src = tmp_path / "g.tsv"
    src.write_text(CYCLE)
    code, out, _ = run(
        ["stability", str(src), "--delta", "0.3", "--trials", "5", "--seed", "9"], capsys
    )
    assert code == 0
    assert "5/5 trials" in out


# ---------------------------------------------------------------------------
# determinism and config validation
# ---------------------------------------------------------------------------


def test_outputs_are_byte_identical_across_runs(tmp_path, capsys):
    src = tmp_path / "g.tsv"
    src.write_text(TWO_STAGE)
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code, _, _ = run(["pph", str(src), "--out", str(out)], capsys)
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]

    reports = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        code, _, _ = run(
            ["stability", str(src), "--delta", "0.2", "--trials", "4", "--seed", "5", "--out", str(out)],
            capsys,
        )
        assert code == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_bad_field_modulus_exits_2(tmp_path, capsys):
    src = tmp_path / "g.tsv"
    src.write_text(TWO_STAGE)
    code, _, err = run(["pph", str(src), "--field", "4"], capsys)
    assert code == 2
    assert "prime" in err


def test_negative_pmax_exits_2(tmp_path, capsys):
    src = tmp_path / "g.tsv"
    src.write_text(TWO_STAGE)
    code, _, _ = run(["pph", str(src), "--pmax", "-1"], capsys)
    assert code == 2


def test_negative_trials_exits_2(tmp_path, capsys):
    src = tmp_path / "g.tsv"
    src.write_text(TWO_STAGE)
    code, out, err = run(["stability", str(src), "--trials", "-3"], capsys)
    assert code == 2 and out == ""
    assert "--trials" in err


@pytest.mark.parametrize("command", ["pph", "hyper", "distance", "stability"])
def test_a_negative_seed_exits_2_and_names_the_flag(tmp_path, capsys, command):
    src = tmp_path / "g.tsv"
    src.write_text(TWO_STAGE if command != "hyper" else HYPER)
    files = [str(src), str(src)] if command == "distance" else [str(src)]
    code, out, err = run([command, *files, "--seed", "-1"], capsys)
    assert code == 2 and out == ""
    assert "--seed must be nonnegative" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "command, flags",
    [
        ("pph", ["--seed", "-1"]),
        ("pph", ["--pmax", "-1"]),
        ("stability", ["--trials", "-3"]),
        ("stability", ["--delta", "nan"]),
        ("stability", []),  # a file with both line shapes
    ],
)
def test_a_config_error_names_no_line(tmp_path, capsys, command, flags):
    src = tmp_path / "g.tsv"
    src.write_text(TWO_STAGE if flags else TWO_STAGE + HYPER)
    code, out, err = run([command, str(src), *flags], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "line 0" not in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("delta", ["nan", "inf", "1e308", "-0.1"])
def test_a_delta_that_cannot_be_drawn_from_exits_2(tmp_path, capsys, delta):
    src = tmp_path / "g.tsv"
    src.write_text(TWO_STAGE)
    code, out, err = run(["stability", str(src), "--trials", "1", "--delta", delta], capsys)
    assert code == 2 and out == ""
    assert "--delta" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("q", ["65536", "65537", "4294967311"])
def test_a_field_above_the_supported_bound_exits_2(tmp_path, capsys, q):
    from extph.field import MAX_MODULUS

    assert MAX_MODULUS == 65535  # so 65536 is the first rejected modulus
    src = tmp_path / "g.tsv"
    src.write_text(TWO_STAGE)
    code, out, err = run(["pph", str(src), "--oracle-check", "--field", q], capsys)
    assert code == 2 and out == ""
    assert "65535" in err and len(err.splitlines()) == 1


def test_the_largest_supported_prime_passes_the_oracle_check(tmp_path, capsys):
    # nine vertices of out-degree 2 and seven weights, the shape on which a
    # modulus near 2**32 made int64 products wrap and the oracle disagree
    lines = [f"v{i}\tv{(i + s) % 9}\t{(3 * i + s) % 7}" for i in range(9) for s in (1, 3)]
    src = tmp_path / "g.tsv"
    src.write_text("\n".join(lines) + "\n")
    code, out, err = run(["pph", str(src), "--oracle-check", "--field", "65521"], capsys)
    assert (code, err) == (0, "")
    assert out.startswith("dim\ttype\tbirth\tdeath\n") and len(out.splitlines()) > 1


def test_an_unexpected_exception_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    import extph.cli

    def broken(args):
        raise RuntimeError("boom\nat two lines")

    monkeypatch.setattr(extph.cli, "_cmd_pph", broken)
    src = tmp_path / "g.tsv"
    src.write_text(TWO_STAGE)
    code, out, err = run(["pph", str(src)], capsys)
    assert code == 3 and out == ""
    assert err == "internal error: RuntimeError: boom at two lines\n"


@pytest.mark.parametrize(
    "command, flag",
    [("stability", "--oracle-check"), ("stability", "--no-clearing")]
    + [("distance", flag) for flag in ("--oracle-check", "--no-clearing", "--pmax=1", "--field=3")],
)
def test_a_flag_the_command_does_not_read_exits_2(tmp_path, capsys, command, flag):
    src = tmp_path / "g.tsv"
    src.write_text(TWO_STAGE)
    files = [str(src), str(src)] if command == "distance" else [str(src)]
    with pytest.raises(SystemExit) as exc:
        main([command, *files, flag])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and flag.split("=")[0] in captured.err


def test_argparse_exits_pass_through_the_internal_error_handler(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pph"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_consecutive_calls_share_one_parser_and_act_like_fresh_ones(tmp_path, capsys):
    from extph.cli import _build_parser

    src = tmp_path / "g.tsv"
    src.write_text(CYCLE)
    calls = [
        ["stability", str(src), "--trials", "2"],
        ["pph", str(src), "--field", "3"],
        ["pph", str(src)],
        ["stability", str(src), "--trials", "-1"],
    ]

    def call(argv):
        return run(argv, capsys), vars(_build_parser().parse_args(argv))

    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(call(argv))
    _build_parser.cache_clear()
    parser = _build_parser()
    assert [call(argv) for argv in calls] == fresh and _build_parser() is parser
    assert [code for (code, _, _), _ in fresh] == [0, 0, 0, 2]
    assert fresh[2][1]["field"] == 2 and "trials" not in fresh[2][1]


def test_console_module_entry_point(tmp_path):
    src = tmp_path / "g.tsv"
    src.write_text(CYCLE)
    proc = subprocess.run(
        [sys.executable, "-m", "extph.cli", "pph", str(src)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("dim\ttype\tbirth\tdeath")
