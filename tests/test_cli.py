import json

import numpy as np
import pytest

from berezin import cli
from berezin.cli import main
from berezin.symbols import Atom, Symbol, serialize_symbol


@pytest.fixture
def log_symbol_file(tmp_path):
    path = tmp_path / "log.json"
    path.write_text(serialize_symbol(Symbol(atoms=(Atom("log", 0.0, 1.0),))))
    return str(path)


@pytest.fixture
def product_symbol_file(tmp_path):
    from berezin.symbols import product_preimage_symbol

    path = tmp_path / "product.json"
    path.write_text(serialize_symbol(product_preimage_symbol(0.3, 1, 1)))
    return str(path)


def test_transform_exact_grid_json(log_symbol_file, tmp_path, capsys):
    out = tmp_path / "grid.json"
    code = main(["transform", "--symbol", log_symbol_file, "--trunc", "8",
                 "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["truncation"] == [8, 8]
    coeffs = doc["coefficients"]
    assert coeffs[0][0] == [-0.5, 0.0]
    assert coeffs[1][1] == [0.5, 0.0]


def test_transform_numeric_csv(log_symbol_file, tmp_path):
    out = tmp_path / "samples.csv"
    code = main(["transform", "--symbol", log_symbol_file, "--mode", "numeric",
                 "--format", "csv", "--output", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "z_re,z_im,value_re,value_im"
    assert len(lines) == 1 + 10 * 32
    for line in lines[1:]:
        zr, zi, vr, vi = map(float, line.split(","))
        want = (zr * zr + zi * zi - 1) / 2
        assert abs(vr - want) <= 1e-6
        assert abs(vi) <= 1e-6


def test_transform_single_point(log_symbol_file, capsys):
    code = main(["transform", "--symbol", log_symbol_file, "--mode", "numeric",
                 "--z", "0.5,0"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    _, _, vr, vi = map(float, lines[1].split(","))
    assert abs(vr + 0.375) <= 1e-6


def test_transform_negative_point(log_symbol_file, capsys):
    # argparse reads "-0.7,-0.7" after a space as a flag; the "=" form parses
    code = main(["transform", "--symbol", log_symbol_file, "--mode", "both", "--z=-0.7,-0.7"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    zr, zi, vr, vi = map(float, captured.out.strip().splitlines()[1].split(","))
    assert abs(complex(zr, zi)) == pytest.approx(0.98995, abs=1e-5)
    assert abs(complex(vr, vi) - (zr * zr + zi * zi - 1) / 2) <= 1e-6


def test_transform_both_reports_deviation(log_symbol_file, tmp_path, capsys):
    out = tmp_path / "both.csv"
    code = main(["transform", "--symbol", log_symbol_file, "--mode", "both",
                 "--output", str(out)])
    assert code == 0
    err = capsys.readouterr().err
    assert "max numeric-exact deviation" in err
    deviation = float(err.split()[3])
    assert deviation <= 1e-6


def test_transform_both_near_boundary(tmp_path, capsys):
    # |a| = 0.94: a truncated exact grid is 5e-5 off here; the closed form is not
    path = tmp_path / "pole.json"
    path.write_text(serialize_symbol(Symbol(atoms=(Atom("pole", 0.7199 + 0.6040j, 1.0),))))
    code = main(["transform", "--symbol", str(path), "--mode", "both",
                 "--z", "0.7483226510722907,0.500013209717642"])
    assert code == 0, capsys.readouterr().err


def test_transform_both_of_a_large_atom(tmp_path, capsys):
    # a pole of coefficient 100 at 0.72 e^{0.7i}: its fine-vs-coarse
    # deviation, 1.6e-6, is measured against its own scale, so it passes
    path = tmp_path / "pole.json"
    path.write_text(serialize_symbol(Symbol(atoms=(Atom("pole", 0.72 * np.exp(0.7j), 100.0),))))
    code = main(["transform", "--symbol", str(path), "--mode", "both",
                 "--output", str(tmp_path / "both.csv")])
    assert code == 0, capsys.readouterr().err
    assert float(capsys.readouterr().err.split()[3]) <= 1e-6


@pytest.mark.parametrize("coeff", [1e-9, 1.0, 1e3, 1e6])
def test_transform_both_is_relative_to_the_symbols_scale(coeff, tmp_path, capsys, monkeypatch):
    # with no --tol the deviation is compared with 1e-6 of the largest
    # |exact value| at the points: the pole passes at every scale (its
    # deviation is 4.8e-12 of that; an absolute 1e-6 failed it at 1e6), and
    # a numeric error of 1e-8, three times the 1e-9 pole's values, fails
    path = tmp_path / "pole.json"
    path.write_text(serialize_symbol(Symbol(atoms=(Atom("pole", 0.72 * np.exp(0.7j), coeff),))))
    argv = ["transform", "--symbol", str(path), "--mode", "both",
            "--output", str(tmp_path / "both.csv")]
    assert main(argv) == 0, capsys.readouterr().err
    assert "max |exact|" in capsys.readouterr().err
    numeric = cli.berezin_numeric
    monkeypatch.setattr(cli, "berezin_numeric", lambda *args: numeric(*args) + 1e-8)
    assert main(argv) == (3 if coeff == 1e-9 else 0)


def test_subcommands_reject_flags_they_ignore(product_symbol_file):
    for argv in (["rank", "--symbol", product_symbol_file, "--radial", "5"],
                 ["recover", "--symbol", product_symbol_file, "--tol", "1e-3"],
                 ["moments", "--symbol", product_symbol_file, "--trunc", "20"],
                 ["verify", "--trunc", "20"],
                 # no subcommand takes a rule size: the numeric transform
                 # sizes its rule from the points' reach
                 ["transform", "--symbol", product_symbol_file, "--radial", "64"],
                 ["moments", "--symbol", product_symbol_file, "--angular", "512"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_rank_report(product_symbol_file, tmp_path):
    out = tmp_path / "rank.json"
    assert main(["rank", "--symbol", product_symbol_file, "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["rank"] == 1
    assert doc["tol"] == 1e-8


def test_moments_document(log_symbol_file, tmp_path):
    out = tmp_path / "moments.json"
    assert main(["moments", "--symbol", log_symbol_file, "--kmax", "3",
                 "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["kmax"] == 3
    assert "orientation" not in doc
    # log atom at the origin: only the (0, 0) entry is nonzero, value 1/2
    entries = np.array([[complex(re, im) for re, im in row] for row in doc["entries"]])
    assert abs(entries[0, 0] - 0.5) <= 1e-8
    assert np.max(np.abs(entries[1:, 1:])) <= 1e-8


def test_recover_round_trip(tmp_path):
    form_nodes = ((0.3, 1.0, 0.5j, -0.7), (-0.2 + 0.5j, -0.3, 0.8, 0.25j))
    from berezin.symbols import NodeForm

    form = NodeForm(nodes=form_nodes)
    path = tmp_path / "symbol.json"
    path.write_text(serialize_symbol(form.to_symbol()))
    out = tmp_path / "recovered.json"
    assert main(["recover", "--symbol", str(path), "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    got = sorted((complex(*n["a"]).real, complex(*n["a"]).imag) for n in doc["nodes"])
    want = sorted((complex(a).real, complex(a).imag) for (a, _, _, _) in form_nodes)
    for (gr, gi), (wr, wi) in zip(got, want):
        assert abs(complex(gr, gi) - complex(wr, wi)) <= 1e-6
    assert doc["recovery"]["fit_residual"] <= 1e-6


def test_decompose_form_document(tmp_path):
    doc = {
        "harmonic": {"K": [], "L": []},
        "nodes": [{"a": [0.3, 0.0], "D": [0.0, 0.0], "E": [1.0, 0.0], "F": [1.0, 0.0]}],
    }
    path = tmp_path / "form.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "pieces.json"
    assert main(["decompose", "--symbol", str(path), "--output", str(out)]) == 0
    result = json.loads(out.read_text())
    assert len(result["pieces"]) == 2
    assert result["remainder"] is None


def test_decompose_checks_the_truncation_of_a_form_without_nodes(tmp_path, capsys):
    # a harmonic-only node form builds no piece, so decompose_form itself
    # checks the truncation
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"harmonic": {"K": [[0.3, 0], [0.1, 0]]}, "nodes": []}))
    argv = ["decompose", "--symbol", str(path), "--output", str(tmp_path / "out")]
    for trunc, message in (("-1", "truncation must be >= 0, got -1"),
                           ("161", "truncation 161 exceeds configured maximum 160"),
                           ("100000", "truncation 100000 exceeds configured maximum 160")):
        assert main(argv + [f"--trunc={trunc}"]) == 3
        assert message in capsys.readouterr().err
    assert main(argv + ["--trunc", "160"]) == 0


def test_verify_deterministic(tmp_path):
    out1 = tmp_path / "report1.txt"
    out2 = tmp_path / "report2.txt"
    assert main(["verify", "--seed", "7", "--output", str(out1)]) == 0
    assert main(["verify", "--seed", "7", "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert b"PASS" in out1.read_bytes()


def test_verify_deterministic_across_processes(tmp_path):
    import os
    import subprocess
    import sys

    import berezin

    # the child imports the package from where this process found it
    src = os.path.dirname(os.path.dirname(berezin.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    outputs = []
    for name in ("p1.txt", "p2.txt"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "berezin", "verify", "--seed", "3",
             "--output", str(out)],
            capture_output=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_one_parser_serves_every_call_of_main(log_symbol_file, capsys):
    # the parser is built once per process: transform, rank, a flag the
    # subcommand does not take (exit 2) and transform again in one process
    # give the outputs and exit codes of a fresh process each
    import os
    import subprocess
    import sys

    import berezin

    src = os.path.dirname(os.path.dirname(berezin.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    transform = ["transform", "--symbol", log_symbol_file, "--trunc", "6"]
    calls = [transform, ["rank", "--symbol", log_symbol_file, "--trunc", "6"],
             transform + ["--kmax", "3"], transform]
    codes = []
    for argv in calls:
        fresh = subprocess.run([sys.executable, "-m", "berezin", *argv], capture_output=True,
                               text=True, env={**os.environ, "PYTHONPATH": path})
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        codes.append(code)
    assert codes == [0, 0, 2, 0]
    assert cli.build_parser.cache_info().misses == 1


def test_verify_tightened_tolerance_fails(tmp_path):
    out = tmp_path / "report.txt"
    code = main(["verify", "--seed", "7", "--tol", "1e-15", "--output", str(out)])
    assert code == 1
    assert b"FAIL" in out.read_bytes()


def test_schema_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["transform", "--symbol", str(bad)]) == 2
    assert "schema error" in capsys.readouterr().err


@pytest.mark.parametrize("point", ["nan,0", "inf,0", "0,-inf"])
def test_non_finite_point_is_a_schema_error(log_symbol_file, point, capsys):
    # like any other malformed --z, not a numeric failure (exit 3)
    code = main(["transform", "--symbol", log_symbol_file, "--mode", "both", f"--z={point}"])
    assert code == 2
    assert "schema error: --z" in capsys.readouterr().err


def test_numeric_failure_exit_code(tmp_path, capsys):
    path = tmp_path / "sym.json"
    path.write_text(serialize_symbol(Symbol.constant(1.0)))
    code = main(["transform", "--symbol", str(path), "--mode", "numeric",
                 "--z", "0.995,0"])
    assert code == 3
    assert "numeric failure" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["transform", "rank", "recover", "decompose"])
def test_truncation_is_checked_for_a_harmonic_symbol(command, tmp_path, capsys):
    # a harmonic-only symbol has no atom series, so the grid assembly alone
    # checks the truncation before it sizes a grid
    from berezin.core import PowerSeries

    path = tmp_path / "harmonic.json"
    path.write_text(serialize_symbol(Symbol(holo=PowerSeries([0.3, -0.5j, 0.2]),
                                            anti=PowerSeries([0, 0.4]))))
    argv = [command, "--symbol", str(path), "--output", str(tmp_path / "out")]
    assert main(argv + ["--trunc=-1"]) == 3
    assert "truncation must be >= 0, got -1" in capsys.readouterr().err
    assert main(argv + ["--trunc", "161"]) == 3
    assert "truncation 161 exceeds configured maximum 160" in capsys.readouterr().err
    assert main(argv + ["--trunc", "160"]) == 0


#: The 4-node symbol of the CI recovery steps, as ``(a, c11, c21, c12)``.
FOUR_NODES = ((0.3 + 0.2j, 1.0, 0.4j, -0.6), (-0.4 + 0.1j, 0.8, 0.5, 0.3j),
              (0.1 - 0.5j, -0.7j, 0.2, 0.9), (-0.3 - 0.4j, 1.2, -0.3, 0.5))


def test_recover_does_not_depend_on_the_symbols_scale(tmp_path):
    # the zero-moment test of recover_nodes is absolute; on the grid scaled
    # into [0.5, 1) a small symbol keeps its nodes
    from berezin.symbols import NodeForm

    found = {}
    for c in (1e-12, 1e-8, 1.0, 1e12):
        form = NodeForm(nodes=tuple((a, *(c * x for x in cs)) for a, *cs in FOUR_NODES))
        path, out = tmp_path / f"{c}.json", tmp_path / f"{c}.out.json"
        path.write_text(serialize_symbol(form.to_symbol()))
        assert main(["recover", "--symbol", str(path), "--output", str(out)]) == 0
        found[c] = [complex(*n["a"]) for n in json.loads(out.read_text())["nodes"]]
    for c, nodes in found.items():
        assert len(nodes) == 4
        assert max(abs(a - b) for a, b in zip(nodes, found[1.0])) <= 1e-12
