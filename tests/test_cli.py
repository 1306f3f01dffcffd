"""End-to-end runs of the command line front end via main(argv)."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from coupledalpha.cli import load_points, load_simplices, main

X_ROWS = "0.0,0.0\n2.0,0.0\n"
Y_ROWS = "1.0,1.0\n"


@pytest.fixture
def clouds(tmp_path):
    x = tmp_path / "x.csv"
    y = tmp_path / "y.csv"
    x.write_text(X_ROWS)
    y.write_text(Y_ROWS)
    return str(x), str(y)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_load_points_skips_comments_and_blank(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("# header\n\n1.0,2.0\n 3.0 , 4.0 \n")
    pts = load_points(str(path))
    assert pts.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    with pytest.raises(ValueError):
        load_points(str(path), dim=3)
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ValueError):
        load_points(str(bad))


def test_build_csv_lists_every_face(capsys, clouds):
    x, y = clouds
    code, out, err = run(capsys, ["build", x, y])
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "0,0",
        "0,1",
        "0,2",
        "1,0,1",
        "1,0,2",
        "1,1,2",
        "2,0,1,2",
    ]


def test_build_json(capsys, clouds):
    x, y = clouds
    code, out, _ = run(capsys, ["build", x, y, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 2
    assert [0, 1, 2] in payload["simplices"]
    assert len(payload["simplices"]) == 7


def test_filtrate_rows_sorted_and_capped(capsys, clouds):
    x, y = clouds
    code, out, _ = run(capsys, ["filtrate", x, y])
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()]
    values = [float(r[0]) for r in rows]
    assert values == sorted(values)
    assert len(rows) == 7
    # The known mixed-triangle value for this layout is 1.0.
    assert values[-1] == pytest.approx(1.0, abs=1e-9)

    code, out, _ = run(capsys, ["filtrate", x, y, "--max-radius", "0.0"])
    assert code == 0
    assert len(out.splitlines()) == 3  # vertices only


def test_filtrate_reuses_built_complex(capsys, tmp_path, clouds):
    x, y = clouds
    listing = tmp_path / "cplx.csv"
    code, _, _ = run(capsys, ["build", x, y, "--output", str(listing)])
    assert code == 0
    assert load_simplices(str(listing))[-1] == (0, 1, 2)
    direct_code, direct, _ = run(capsys, ["filtrate", x, y])
    reuse_code, reused, _ = run(capsys, ["filtrate", x, y, "--complex", str(listing)])
    assert direct_code == reuse_code == 0
    assert reused == direct


@pytest.mark.parametrize(
    "rows",
    [
        "0,0\n0,1\n0,2\n1,-1,0\n",  # negative index
        "0,0\n0,1\n0,2\n1,0,9\n",  # index beyond the 3 points
        "0,0\n0,1\n0,2\n2,0,1,2\n",  # triangle listed without its edges
        "0,0\n0,1\n0,2\n1,1,0\n",  # vertices out of order
    ],
)
def test_filtrate_rejects_bad_listing(capsys, tmp_path, clouds, rows):
    x, y = clouds
    listing = tmp_path / "bad.csv"
    listing.write_text(rows)
    code, out, err = run(capsys, ["filtrate", x, y, "--complex", str(listing)])
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {listing}: ")



@pytest.mark.parametrize("row,dim,count", [("1,0", 1, 1), ("0,0,1", 0, 2), ("-1", -1, 0)])
def test_filtrate_reports_a_listing_row_of_the_wrong_length(capsys, tmp_path, clouds, row, dim, count):
    x, y = clouds
    listing = tmp_path / "bad.csv"
    listing.write_text(f"0,0\n{row}\n")
    code, out, err = run(capsys, ["filtrate", x, y, "--complex", str(listing)])
    assert code == 1
    assert out == ""
    assert err == f"error: {listing}:2: dim {dim} with {count} vertices\n"


@pytest.mark.parametrize("row", ["1,x,2", ","])
def test_filtrate_reports_non_integer_listing_row(capsys, tmp_path, clouds, row):
    x, y = clouds
    listing = tmp_path / "bad.csv"
    listing.write_text(f"0,0\n0,1\n0,2\n{row}\n")
    code, out, err = run(capsys, ["filtrate", x, y, "--complex", str(listing)])
    assert code == 1
    assert out == ""
    assert err == f"error: {listing}:4: not an integer row: {row!r}\n"

def _listing_of_faces(path, vertices):
    rows = [
        ",".join(str(t) for t in (size - 1,) + combo)
        for size in range(1, len(vertices) + 1)
        for combo in itertools.combinations(vertices, size)
    ]
    path.write_text("".join(row + "\n" for row in rows))
    return str(path)


def test_filtrate_refuses_a_simplex_beyond_d_plus_2_vertices(capsys, tmp_path):
    x = tmp_path / "x.csv"
    y = tmp_path / "y.csv"
    x.write_text("0.0,0.0\n1.0,0.0\n0.0,1.0\n")
    y.write_text("1.0,1.0\n3.0,2.0\n")
    listing = _listing_of_faces(tmp_path / "five.csv", range(5))
    code, out, err = run(
        capsys, ["filtrate", str(x), str(y), "--complex", listing, "--format", "json"]
    )
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "DimensionOverflow"


def test_filtrate_refuses_a_pure_simplex_beyond_d_plus_1_vertices(capsys, tmp_path):
    x = tmp_path / "x.csv"
    x.write_text("0.0,0.0\n1.0,0.0\n0.0,1.0\n1.0,1.0\n")
    listing = _listing_of_faces(tmp_path / "four.csv", range(4))
    code, out, err = run(capsys, ["filtrate", str(x), "--complex", listing, "--format", "json"])
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "DimensionOverflow"


def test_filtrate_refuses_a_collinear_triangle(capsys, tmp_path):
    x = tmp_path / "x.csv"
    x.write_text("0.0,0.0\n1.0,0.0\n2.0,0.0\n")
    listing = _listing_of_faces(tmp_path / "line.csv", range(3))
    code, out, err = run(capsys, ["filtrate", str(x), "--complex", listing, "--format", "json"])
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "RankDeficient"


def test_diagram_csv_and_json_inf_handling(capsys, tmp_path):
    x = tmp_path / "solo.csv"
    x.write_text("0.0,0.0\n3.0,0.0\n")
    code, out, _ = run(capsys, ["diagram", str(x)])
    assert code == 0
    assert out.splitlines() == ["0,0.0,1.5", "0,0.0,inf"]

    code, out, _ = run(capsys, ["diagram", str(x), "--format", "json"])
    assert code == 0
    intervals = json.loads(out)["intervals"]
    assert {"dim": 0, "birth": 0.0, "death": 1.5} in intervals
    assert {"dim": 0, "birth": 0.0, "death": None} in intervals


def test_compare_pass_and_fail_exit_codes(capsys, tmp_path):
    x = tmp_path / "x.csv"
    y = tmp_path / "y.csv"
    # The fast diagram and the exact Cech diagram differ here by round-off only.
    x.write_text("1.8,-1.2\n1.3,-1.4\n")
    y.write_text("0.1,-1.5\n0.8,1.4\n")
    code, out, _ = run(capsys, ["compare", str(x), str(y)])
    assert code == 0
    assert out.startswith("PASS,")
    code, out, _ = run(capsys, ["compare", str(x), str(y), "--tolerance", "0.0"])
    assert code == 1
    verdict, worst = out.strip().split(",")
    assert verdict == "FAIL" and float(worst) > 0
    code, out, _ = run(
        capsys, ["compare", str(x), str(y), "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["max_discrepancy"] <= 1e-9


def test_compare_refuses_more_points_than_the_reference_cap(capsys, tmp_path):
    rng = np.random.default_rng(0)
    x = tmp_path / "x.csv"
    y = tmp_path / "y.csv"
    for path in (x, y):
        path.write_text("".join(f"{a!r},{b!r}\n" for a, b in rng.random((10, 2)).tolist()))
    code, out, err = run(capsys, ["compare", str(x), str(y)])
    assert (code, out) == (1, "")
    assert err == "error: 20 points exceed the brute-force cap 16\n"
    code, out, err = run(capsys, ["compare", str(x), str(y), "--format", "json"])
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "TooLarge", "message": "20 points exceed the brute-force cap 16"
    }


def test_missing_file_reports_error(capsys, tmp_path):
    code, out, err = run(capsys, ["diagram", str(tmp_path / "absent.csv")])
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    code, _, err = run(
        capsys, ["diagram", str(tmp_path / "absent.csv"), "--format", "json"]
    )
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "FileNotFoundError"


def test_degenerate_input_reports_error(capsys, tmp_path):
    x = tmp_path / "square.csv"
    x.write_text("0.0,0.0\n1.0,0.0\n0.0,1.0\n1.0,1.0\n")
    code, _, err = run(capsys, ["build", str(x)])
    assert code == 1
    assert err.startswith("error:")


def test_check_reports_violations(capsys, tmp_path, clouds):
    x, y = clouds
    code, out, _ = run(capsys, ["check", x, y])
    assert code == 0
    assert out == "ok\n"

    dup = tmp_path / "dup.csv"
    dup.write_text("0.0,0.0\n0.0,0.0\n")
    code, out, _ = run(capsys, ["check", str(dup)])
    assert code == 1
    assert out.splitlines()[0].startswith("duplicate,")
    code, out, _ = run(capsys, ["check", str(dup), "--format", "json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["violations"][0]["kind"] == "duplicate"

    line = tmp_path / "line.csv"
    line.write_text("0.0,0.0\n1.0,0.0\n2.0,0.0\n")
    code, out, _ = run(capsys, ["check", str(line)])
    assert code == 1
    assert out == "flat,0,1,2\n"


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["build", "filtrate", "diagram", "compare", "check"])
def test_epsilon_is_not_an_option(capsys, clouds, command):
    # The tolerance is fixed; an unknown option is a usage error.
    with pytest.raises(SystemExit) as exc:
        main([command, *clouds, "--epsilon", "1e-9"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_scaling_rerun_byte_identical(capsys):
    argv = ["scaling", "--n-list", "8,16", "--trials", "2", "--seed", "3"]
    code_a, first, _ = run(capsys, argv)
    code_b, second, _ = run(capsys, argv)
    assert code_a == code_b == 0
    assert first == second
    lines = first.splitlines()
    assert lines[0].startswith("n,trial,seed,f0")
    assert len([l for l in lines if not l.startswith("#")]) == 1 + 4
    assert any(l.startswith("# k=0 slope=") for l in lines)

    code, out, _ = run(capsys, argv + ["--with-timing"])
    assert code == 0
    assert out.splitlines()[0].endswith(",wall_time")

    code, out, _ = run(capsys, argv + ["--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["records"]) == 4
    assert "wall_time" not in payload["records"][0]
    assert payload["ratios"]["0"][0]["n"] == 8



@pytest.mark.parametrize("workers", ["-3", "0"])
def test_workers_is_not_an_option(capsys, workers):
    # Trials run in this process; an unknown option is a usage error.
    with pytest.raises(SystemExit) as exc:
        main(["scaling", "--n-list", "8", "--trials", "1", "--workers", workers])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("option,value", [("--dim", "0"), ("--dim", "-1"), ("--trials", "0")])
def test_scaling_rejects_dim_and_trials_below_one(capsys, option, value):
    argv = ["scaling", "--n-list", "8", "--trials", "1", option, value]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {option[2:]} must be at least 1, got {value}\n"


@pytest.mark.parametrize("command", ["build", "filtrate", "diagram", "compare", "check"])
@pytest.mark.parametrize("dim", ["0", "-2"])
def test_cloud_commands_reject_dim_below_one(capsys, tmp_path, clouds, command, dim):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    for inputs in ([str(empty)] * (1 + (command == "compare")), list(clouds)):
        code, out, err = run(capsys, [command, *inputs, "--dim", dim])
        assert code == 1
        assert out == ""
        assert err == f"error: dim must be at least 1, got {dim}\n"


def test_build_keeps_the_width_of_an_empty_file(capsys, tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    code, out, err = run(capsys, ["build", str(empty), "--dim", "2", "--format", "json"])
    assert code == 0 and err == ""
    assert json.loads(out) == {"dim": 2, "simplices": []}


def test_scaling_rejects_a_negative_seed(capsys):
    code, out, err = run(capsys, ["scaling", "--n-list", "8", "--trials", "1", "--seed", "-1"])
    assert code == 1
    assert out == ""
    assert err == "error: seed must be non-negative, got -1\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "command", ["build", "filtrate", "diagram", "compare", "scaling", "check"]
)
def test_output_file_matches_stdout(capsys, tmp_path, clouds, command, fmt):
    inputs = ["--n-list", "8,16", "--trials", "1"] if command == "scaling" else list(clouds)
    argv = [command, *inputs, "--format", fmt]
    out_path = tmp_path / "rows.txt"
    code, written, _ = run(capsys, argv + ["--output", str(out_path)])
    streamed_code, streamed, _ = run(capsys, argv)
    assert code == streamed_code == 0
    assert written == ""
    assert streamed and out_path.read_text() == streamed


@pytest.mark.parametrize(
    "argv",
    [["filtrate", "--max-radius", "nan"], ["compare", "--tolerance", "nan"]],
    ids=["max-radius", "tolerance"],
)
def test_nan_option_is_a_usage_error(capsys, clouds, argv):
    # Every interval fails `length > nan` and no value is `<= nan`, so a NaN
    # bound would silently compute on nothing; infinity stays allowed.
    with pytest.raises(SystemExit) as exc:
        main([argv[0], *clouds, *argv[1:]])
    assert exc.value.code == 2
    assert "NaN is not allowed" in capsys.readouterr().err
    assert main([argv[0], *clouds, argv[1], "inf"]) == 0
    capsys.readouterr()


def test_non_numeric_option_is_a_usage_error(capsys, clouds):
    with pytest.raises(SystemExit) as exc:
        main(["filtrate", *clouds, "--max-radius", "abc"])
    assert exc.value.code == 2
    assert "argument --max-radius: invalid float value: 'abc'" in capsys.readouterr().err


def test_negative_tolerance_is_a_usage_error(capsys, clouds):
    # No discrepancy is at most a negative bound, so compare would FAIL
    # whatever the diagrams (0 stays allowed: test_compare_pass_and_fail_exit_codes).
    with pytest.raises(SystemExit) as exc:
        main(["compare", *clouds, "--tolerance", "-1"])
    assert exc.value.code == 2
    assert "must not be negative" in capsys.readouterr().err


@pytest.mark.parametrize("n_list", ["8,x", "8,,16", "", "8.5"])
def test_malformed_n_list_is_a_usage_error(capsys, n_list):
    with pytest.raises(SystemExit) as exc:
        main(["scaling", "--n-list", n_list, "--trials", "1"])
    assert exc.value.code == 2
    assert "argument --n-list: invalid comma-separated int list" in capsys.readouterr().err


@pytest.mark.parametrize(
    "n_list,message",
    [
        ("16,8", "intensities must be ascending"),
        ("8,8", "intensities must be ascending"),
        ("0,8", "intensity must be positive"),
    ],
)
def test_n_list_values_are_checked_by_the_experiment(capsys, n_list, message):
    code, out, err = run(capsys, ["scaling", "--n-list", n_list, "--trials", "1"])
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_python_m_entry_point(capsys, tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    solo = tmp_path / "solo.csv"
    solo.write_text("0.0,0.0\n3.0,0.0\n")

    def module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "coupledalpha", *argv], capture_output=True, text=True, env=env
        )

    done = module("diagram", str(solo))
    code, out, _ = run(capsys, ["diagram", str(solo)])
    assert done.returncode == code == 0
    assert done.stdout == out == "0,0.0,1.5\n0,0.0,inf\n"
    missing = module("diagram", str(tmp_path / "absent.csv"))
    assert missing.returncode == 1 and missing.stderr.startswith("error:")
    assert module("bogus").returncode == 2
