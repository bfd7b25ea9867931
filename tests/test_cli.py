import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import latticewh
from latticewh import checks
from latticewh.checks import Check
from latticewh.errors import WindowMismatch
from latticewh.cli import _build_parser, main
from latticewh.fields import FieldGrid
from latticewh.kernels import MatrixKernelSpec, ScalarKernel
from latticewh.series import CircleGrid


def run(args):
    return main(args)


class TestKernelCommand:
    def test_scalar_csv(self, tmp_path):
        out = tmp_path / "k.csv"
        assert run(["kernel", "--family", "sq_crack", "--omega", "1,0.1",
                    "--nq", "128", "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert data[0] == "k,z_re,z_im,re,im"
        assert len(data) == 1 + 128

    def test_matrix_csv_rows(self, tmp_path):
        out = tmp_path / "ka.csv"
        assert run(["kernel", "--family", "array_cracks", "--omega", "1,0.1",
                    "--nu", "3", "--sep", "3", "--offsets", "0,2,5",
                    "--nq", "16", "-o", str(out)]) == 0
        data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert data[0] == "k,z_re,z_im,i,j,re,im"
        assert len(data) == 1 + 16 * 9  # nine entries per node, row-major

    def test_csv_values_are_exact(self, tmp_path):
        for kern, args in (
            (ScalarKernel("tri_dirichlet", 1 + 0.1j), ["--family", "tri_dirichlet"]),
            (MatrixKernelSpec("array_constraints", 1 + 0.1j, count=3, sep=2, offsets=(0, 2, 5)),
             ["--family", "array_constraints", "--nu", "3", "--sep", "2", "--offsets", "0,2,5"]),
        ):
            out = tmp_path / "k.csv"
            assert run(["kernel", *args, "--omega", "1,0.1", "--nq", "64", "-o", str(out)]) == 0
            data = np.loadtxt([l for l in out.read_text().splitlines()
                               if not l.startswith("#")][1:], delimiter=",")
            nodes = CircleGrid(1.0, 64).nodes
            vals = kern(nodes)
            index = np.indices(vals.shape).reshape(vals.ndim, -1)  # k, then i, j
            assert np.array_equal(data[:, [0, *range(3, 2 + vals.ndim)]].T, index)
            assert np.array_equal(data[:, 1] + 1j * data[:, 2], nodes[index[0]])
            assert np.array_equal(data[:, -2] + 1j * data[:, -1], vals.ravel())

    def test_invalid_count_exits_one(self, tmp_path, capsys):
        code = run(["kernel", "--family", "array_cracks", "--omega", "1,0.1",
                    "--nu", "1", "--offsets", "0", "--nq", "16",
                    "-o", str(tmp_path / "x.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("invalid input: array kernels require count")


class TestFactorizeCommand:
    def test_scalar_report(self, tmp_path):
        rep = tmp_path / "rep.json"
        code = run(["factorize", "--family", "sq_constraint", "--omega", "1,0.1",
                    "--nq", "1024",
                    "--output-plus", str(tmp_path / "p.csv"),
                    "--output-minus", str(tmp_path / "m.csv"),
                    "--report", str(rep)])
        assert code == 0
        payload = json.loads(rep.read_text())
        assert payload["winding"] == 0
        assert payload["reconstruction_residual"] < 1e-8

    def test_matrix_family_rejected(self, tmp_path):
        code = run(["factorize", "--family", "opposing_cracks", "--omega", "1,0.1",
                    "--report", str(tmp_path / "r.json")])
        assert code == 1


class TestSolveCommand:
    def test_tri_dirichlet_reports_two_constants(self, tmp_path):
        rep = tmp_path / "rep.json"
        code = run(["solve", "--family", "tri_dirichlet", "--omega", "1,0.1",
                    "--theta", "0.5", "--nq", "2048", "--window", "6",
                    "-o", str(tmp_path / "f.csv"), "--report", str(rep)])
        assert code == 0
        payload = json.loads(rep.read_text())
        assert len(payload["constants"]) == 2
        assert payload["residual"] < 1e-8

    def test_hex_crack_has_v_columns(self, tmp_path):
        out = tmp_path / "f.csv"
        code = run(["solve", "--family", "hex_crack", "--omega", "1,0.1",
                    "--theta", "0.5", "--nq", "2048", "--window", "5",
                    "-o", str(out), "--report", str(tmp_path / "r.json")])
        assert code == 0
        header = [l for l in out.read_text().splitlines() if l.startswith("x,")][0]
        assert header == "x,y,re_u,im_u,re_v,im_v"

    def test_radius_outside_annulus_exits_one(self, tmp_path):
        code = run(["solve", "--family", "sq_crack", "--omega", "1,0.1", "--theta", "0.5",
                    "--radius", "2.0", "-o", str(tmp_path / "f.csv")])
        assert code == 1

    def test_undamped_rejected(self, tmp_path):
        code = run(["solve", "--family", "sq_crack", "--omega", "1,0",
                    "-o", str(tmp_path / "f.csv")])
        assert code == 1


class TestWindowFlag:
    @pytest.mark.parametrize("args", [["solve", "--family", "sq_crack", "--window", "-3"],
                                      ["compare", "a.csv", "b.csv", "--window", "-2"]],
                             ids=["solve", "compare"])
    def test_negative_window_rejected_at_parse_time(self, tmp_path, capsys, args):
        with pytest.raises(SystemExit) as exc:
            run([*args, "-o" if args[0] == "solve" else "--report", str(tmp_path / "out")])
        assert exc.value.code == 1
        assert "argument --window: half window must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_zero_window_accepted(self, tmp_path):
        out = tmp_path / "f.csv"
        assert run(["solve", "--family", "sq_crack", "--omega", "1,0.1", "--theta", "0.5",
                    "--nq", "1024", "--window", "0", "-o", str(out)]) == 0
        assert FieldGrid.from_csv(out).u.shape == (1, 1)


class TestOracleCompare:
    def test_family_shortcut_and_compare(self, tmp_path):
        out = tmp_path / "field.csv"
        code = run(["oracle", "--family", "sq_crack", "--omega", "1,0.15",
                    "--theta", "0.5", "-L", "30", "-o", str(out)])
        assert code == 0
        rep = tmp_path / "cmp.json"
        assert run(["compare", str(out), str(out), "--window", "8",
                    "--report", str(rep)]) == 0
        payload = json.loads(rep.read_text())
        assert payload["rel_l2"] == 0.0

    def test_lattice_mismatch_exits_one(self, tmp_path, capsys):
        """Two grids of different lattices do not compare, even holding the
        same numbers."""
        values = np.arange(49, dtype=complex).reshape(7, 7)
        for lattice in ("square", "triangular"):
            FieldGrid(lattice, (-3, 3), (-3, 3), values, meta={"lattice": lattice}).to_csv(
                tmp_path / f"{lattice}.csv")
        rep = tmp_path / "cmp.json"
        assert run(["compare", str(tmp_path / "square.csv"), str(tmp_path / "triangular.csv"),
                    "--window", "2", "--report", str(rep)]) == 1
        assert "square grid with a triangular grid" in capsys.readouterr().err
        assert not rep.exists()

    @pytest.mark.parametrize("body,message", [
        ("", "no data rows"),
        ("0,0,1,0,1\n", "4 columns"),
        ("0,0,1,0\n1,0,1,0,0,0\n", "4 columns"),
        ("0,0,1,0\n1,1,1,0\n", "exactly once"),
        ("0,0,1,0\n0,0,2,0\n", "exactly once"),
    ], ids=["header_only", "five_columns", "mixed_columns", "missing_sites", "repeated_site"])
    def test_malformed_csv_exits_one(self, tmp_path, capsys, body, message):
        """compare exits 1 with "invalid input", not a traceback, on a CSV
        without data rows, with 5 columns, or whose sites do not fill their
        rectangle exactly once: the first two raised IndexError, and a
        missing site read as 0."""
        bad = tmp_path / "bad.csv"
        bad.write_text("# lattice = square\nx,y,re_u,im_u\n" + body)
        assert run(["compare", str(bad), str(bad), "--window", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid input") and message in err

    def test_family_default_half_width(self, tmp_path):
        out = tmp_path / "field.csv"
        assert run(["oracle", "--family", "sq_crack", "-o", str(out)]) == 0
        assert FieldGrid.from_csv(out).x_range == (-100, 100)

    def test_json_problem_spec(self, tmp_path):
        config = tmp_path / "prob.json"
        config.write_text(json.dumps({
            "lattice": "square",
            "omega": [1.0, 0.15],
            "theta": 0.5,
            "defects": [{"kind": "constraint", "row": 0, "side": "left", "tip": 0}],
            "half_width": 25,
        }))
        out = tmp_path / "field.csv"
        assert run(["oracle", "--config", str(config), "-o", str(out)]) == 0
        assert FieldGrid.from_csv(out).x_range == (-25, 25)
        assert run(["oracle", "--config", str(config), "-L", "20", "-o", str(out)]) == 0
        assert FieldGrid.from_csv(out).x_range == (-20, 20)

    def test_json_defect_row_beyond_the_window_exits_1(self, tmp_path, capsys):
        """A defect row past half_width raises WindowTooSmall; it used to
        write a zero scattered field."""
        config = tmp_path / "prob.json"
        config.write_text(json.dumps({
            "lattice": "square", "omega": [1.0, 0.15], "theta": 0.5,
            "defects": [{"kind": "crack", "row": 25}], "half_width": 20,
        }))
        out = tmp_path / "field.csv"
        assert run(["oracle", "--config", str(config), "-o", str(out)]) == 1
        assert "defect row 25 needs half width >= 25" in capsys.readouterr().err
        assert not out.exists()

    def test_json_amplitude_number_or_pair(self, tmp_path):
        problem = {"lattice": "square", "omega": [1.0, 0.15], "theta": 0.5,
                   "defects": [{"kind": "crack", "row": 0}], "half_width": 20}
        fields = {}
        for label, amplitude in (("number", 2.0), ("pair", [2.0, 0.0])):
            config = tmp_path / f"{label}.json"
            config.write_text(json.dumps({**problem, "amplitude": amplitude}))
            out = tmp_path / f"{label}.csv"
            assert run(["oracle", "--config", str(config), "-o", str(out)]) == 0
            fields[label] = out.read_bytes()
        assert fields["number"] == fields["pair"]
        for bad in ("2", [2.0]):
            config = tmp_path / "bad.json"
            config.write_text(json.dumps({**problem, "amplitude": bad}))
            assert run(["oracle", "--config", str(config), "-o", str(tmp_path / "x.csv")]) == 1


    def test_json_bloch_config_matches_the_family(self, tmp_path):
        """A JSON strip of period 3, a constraint and a crack on row 0, is
        mixed_array --sep 3, byte for byte; its CSV keeps the multiplier, so
        the loaded grid reads wrapped rows as the solved one does."""
        config = tmp_path / "strip.json"
        config.write_text(json.dumps({
            "lattice": "square", "omega": [1.0, 0.1], "theta": 0.5, "half_width": 60,
            "defects": [{"kind": "constraint", "row": 0}, {"kind": "crack", "row": 0}],
            "bloch": {"period": 3},
        }))
        ours, family = tmp_path / "config.csv", tmp_path / "family.csv"
        assert run(["oracle", "--config", str(config), "-o", str(ours)]) == 0
        assert run(["oracle", "--family", "mixed_array", "--sep", "3", "--omega", "1,0.1",
                    "--theta", "0.5", "-L", "60", "-o", str(family)]) == 0
        assert ours.read_bytes() == family.read_bytes()
        grid = FieldGrid.from_csv(ours)
        psi = grid.bloch_multiplier
        assert psi is not None and "bloch_multiplier" not in grid.meta
        assert np.array_equal(grid.row(3), psi * grid.row(0))
        assert np.array_equal(grid.row(-1), psi ** -1 * grid.row(2))

    def test_bloch_strips_compare(self, tmp_path):
        """A strip stores rows 0..2 only, yet compares on any window: its
        window reads row j as psi^(j div 3) times stored row j mod 3.  The
        columns still end where the grid does."""
        out, rep = tmp_path / "strip.csv", tmp_path / "cmp.json"
        assert run(["oracle", "-L", "30", "--family", "mixed_array", "--sep", "3",
                    "--omega", "1,0.1", "--theta", "0.5", "-o", str(out)]) == 0
        for window in ("5", "1"):
            assert run(["compare", str(out), str(out), "--window", window,
                        "--report", str(rep)]) == 0
            assert json.loads(rep.read_text())["rel_l2"] == 0.0
        grid = FieldGrid.from_csv(out)
        part = grid.window((-30, 30), (-5, 5))
        assert part.bloch_multiplier is None and part.y_range == (-5, 5)
        for j in range(-5, 6):
            shift, row = divmod(j, 3)
            assert np.array_equal(part.u[j + 5], grid.bloch_multiplier ** shift * grid.u[row])
        with pytest.raises(WindowMismatch, match="exceeds the stored grid"):
            grid.window((-31, 30), (0, 2))

    def test_json_period_two_strip_cracked_on_both_rows(self, tmp_path):
        config = tmp_path / "strip.json"
        config.write_text(json.dumps({
            "lattice": "square", "omega": [1.2, 0.1], "theta": 0.7, "half_width": 30,
            "defects": [{"kind": "crack", "row": 0}, {"kind": "crack", "row": 1, "tip": 3}],
            "bloch": {"period": 2},
        }))
        out = tmp_path / "strip.csv"
        assert run(["oracle", "--config", str(config), "-o", str(out)]) == 0
        assert FieldGrid.from_csv(out).y_range == (0, 1)

    def test_csv_without_bloch_rows_has_no_multiplier(self, tmp_path):
        """A window's CSV holds no multiplier line, reads back as a grid
        without one, and writes back the same bytes."""
        out, again = tmp_path / "field.csv", tmp_path / "again.csv"
        assert run(["oracle", "--family", "sq_crack", "-L", "20", "-o", str(out)]) == 0
        assert "bloch_multiplier" not in out.read_text()
        grid = FieldGrid.from_csv(out)
        assert grid.bloch_multiplier is None
        with pytest.raises(WindowMismatch, match="row 21 outside"):
            grid.row(21)
        grid.to_csv(again)
        assert again.read_bytes() == out.read_bytes()


class TestDeterminism:
    def test_identical_runs_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(["solve", "--family", "sq_crack", "--omega", "1,0.1",
                        "--theta", "0.5", "--nq", "1024", "--window", "4",
                        "-o", str(out), "--report", str(tmp_path / "r.json")]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestVerify:
    def test_dets_suite_passes(self, capsys):
        assert run(["verify", "--suite", "dets"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_limits_suite_passes(self):
        assert run(["verify", "--suite", "limits"]) == 0

    def test_suite_choices(self):
        verify = _build_parser()._subparsers._group_actions[0].choices["verify"]
        suite = next(a for a in verify._actions if a.dest == "suite")
        assert suite.choices == [*checks.SUITES, "all"]

    def test_failing_check_exits_two(self, monkeypatch, capsys):
        monkeypatch.setitem(checks.SUITES, "dk", lambda: [Check("forced", 2.0, 1.0)])
        assert run(["verify", "--suite", "dk"]) == 2
        out = capsys.readouterr().out
        assert "FAIL  forced: 2.000e+00 (bound 1.0e+00)" in out
        assert "1 check(s) failed" in out


class TestModuleEntry:
    def test_python_m_latticewh(self, tmp_path):
        """python -m latticewh runs the CLI from a source checkout, with its
        exit codes: 0 for a comparison, 1 for grids of different lattices."""
        values = np.ones((7, 7), complex)
        for lattice in ("square", "triangular"):
            FieldGrid(lattice, (-3, 3), (-3, 3), values, meta={"lattice": lattice}).to_csv(
                tmp_path / f"{lattice}.csv")
        env = dict(os.environ, PYTHONPATH=str(Path(latticewh.__file__).parents[1]))

        def module(*args):
            return subprocess.run([sys.executable, "-m", "latticewh", "compare", *args,
                                   "--window", "2", "--report", "cmp.json"],
                                  cwd=tmp_path, env=env, capture_output=True, text=True)

        done = module("square.csv", "square.csv")
        assert done.returncode == 0, done.stderr
        assert json.loads((tmp_path / "cmp.json").read_text())["rel_l2"] == 0.0
        assert module("square.csv", "triangular.csv").returncode == 1
