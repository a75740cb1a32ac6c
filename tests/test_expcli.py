"""Config parsing, CSV emission, exit codes, reproducibility."""

import csv
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from starfem import (ExperimentConfig, edge_identity_defects, parse_config,
                     run, solve_example_stage)
from starfem.errors import ConfigError
from starfem.expcli import (_PARSERS, _SUBCOMMAND_EMIT, FLOAT_FMT,
                            _build_parser, _config_from_args, _validate,
                            main)

BASE = "example=ex1\nstages=4,8\nmesh=8\n"


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


class TestParse:
    def test_defaults_applied(self):
        cfg = parse_config("example=ex3\n")
        assert cfg.example == "ex3"
        assert cfg.emit == "table"
        assert cfg.mesh == 100
        assert cfg.stages == (10, 20, 100, 1000)
        assert cfg.coeff == "deterministic"
        assert cfg.reference == "oracle"

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# run setup\n\nexample=ex1\n# tail note\nmesh=12\n")
        assert cfg.mesh == 12

    def test_pi_literals(self):
        cfg = parse_config("example=ex1\ninterval=0,pi\n")
        assert cfg.interval == (0.0, np.pi)
        cfg = parse_config("example=ex1\ninterval=pi,2pi\n")
        assert cfg.interval == (np.pi, 2 * np.pi)

    def test_datum_forms(self):
        assert parse_config("example=ex1\nh=2.5\n").h_of(10) == 2.5
        cfg = parse_config("example=ex1\nh=0.25*n\n")
        assert cfg.h_of(8) == 2.0
        with pytest.raises(ConfigError):
            parse_config("example=ex1\nh=2.5*m\n")

    def test_duplicate_key_reports_both_lines(self):
        with pytest.raises(ConfigError) as err:
            parse_config("example=ex1\nmesh=8\nmesh=9\n")
        assert "line 3" in str(err.value)
        assert "line 2" in str(err.value)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("example=ex1\ngrid=9\n")
        assert "line 2" in str(err.value)

    def test_missing_example_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("mesh=8\n")
        assert "example" in str(err.value)

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("example=ex1\nmesh 8\n")

    @pytest.mark.parametrize("line", [
        "example=ex9", "emit=plot", "coeff=fixed", "reference=exact",
        "orientation=up", "mesh=ten", "probs=0.5,half", "full_h1=maybe",
        "seed=-1", "noise=-2.0", "interval=0,1,2",
    ])
    def test_bad_values_rejected(self, line):
        with pytest.raises(ConfigError):
            parse_config(f"example=ex1\n{line}\n".replace(
                "example=ex1\nexample=", "example="))

    @pytest.mark.parametrize("line", [
        "mesh=1", "window=1", "threads=0", "n=0", "probs=0.5,0.6",
        "probs=0.5", "stages=10,10", "centers=20,10", "interval=3,1",
        "interval=0,6.5",
    ])
    def test_cross_field_validation(self, line):
        with pytest.raises(ConfigError):
            parse_config(f"example=ex1\n{line}\n")

    def test_normalized_line_is_sorted_and_tagged(self):
        norm = parse_config("example=ex2\nnoise=1.5\nseed=3\n").normalized()
        assert norm.endswith(" prng=numpy-pcg64")
        keys = [part.split("=")[0] for part in norm.split()[:-1]]
        assert keys == sorted(keys)
        assert "noise=1.5" in norm
        assert "seed=3" in norm

    def test_unset_noise_stays_out_of_the_header(self):
        assert "noise" not in parse_config("example=ex2\n").normalized()

    def test_readme_key_table_lists_exactly_the_parsed_keys(self):
        # a key added to the parser without a row in README's table fails
        readme = os.path.join(os.path.dirname(__file__), os.pardir,
                              "README.md")
        lines = iter(_read(readme).splitlines())
        for line in lines:
            if line.startswith("| key | meaning | default |"):
                break
        next(lines)  # the |---| rule under the header
        keys = []
        for line in lines:
            if not line.startswith("|"):
                break
            keys.append(line.split("|")[1].strip().strip("`"))
        assert sorted(keys) == sorted(_PARSERS)
        assert len(keys) == len(set(keys))

    def test_parameters_routing(self):
        cfg = parse_config("example=ex2\nnoise=0.5\norientation=rim\n")
        assert cfg.parameters() == {"noise": 0.5, "orientation": "rim"}
        cfg = parse_config("example=constant\nc=2.0\n")
        assert cfg.parameters() == {"c": 2.0}
        assert parse_config("example=ex1\n").parameters() == {}


class TestRun:
    def test_table_csv_layout(self, tmp_path):
        cfg = parse_config(BASE + "out=" + str(tmp_path / "t.csv"))
        paths = run(cfg)
        text = _read(paths[0])
        lines = text.splitlines()
        assert lines[0].startswith("# ")
        assert "prng=numpy-pcg64" in lines[0]
        assert lines[1] == f"# max_bh={FLOAT_FMT.format(np.pi / 8)}"
        assert lines[2] == "n,group,l2_error,h1_error,center_value,reference,m,seed"
        assert len(lines) == 3 + 4  # two stages, two groups
        first = lines[3].split(",")
        assert first[0] == "4"
        float(first[2])  # parses
        assert "e" in first[2]  # scientific float format

    def test_rerun_is_byte_identical(self, tmp_path):
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        run(parse_config(BASE + f"out={out1}"))
        run(parse_config(BASE + f"out={out2}"))
        assert _read(out1) == _read(out2)

    def test_timestamp_adds_a_comment(self, tmp_path):
        out = str(tmp_path / "t.csv")
        run(parse_config(BASE + f"timestamp=true\nout={out}"))
        lines = _read(out).splitlines()
        assert lines[1].startswith("# generated ")

    def test_solution_csv(self, tmp_path):
        out = str(tmp_path / "s.csv")
        cfg = parse_config(f"example=ex1\nemit=solution\nn=3\nmesh=4\nout={out}")
        run(cfg)
        lines = _read(out).splitlines()
        assert lines[1].startswith("# center_value=")
        assert lines[2] == "edge_index,node_index,t,value"
        assert len(lines) == 3 + 3 * 5

    def test_identity_csv(self, tmp_path):
        out = str(tmp_path / "i.csv")
        run(parse_config(f"example=ex1\nemit=identity\nn=12\nmesh=10\nout={out}"))
        lines = _read(out).splitlines()
        assert lines[1] == "n,m,center_identity,max_edge_identity,flux_gap"
        vals = lines[2].split(",")
        assert float(vals[2]) <= 1e-10
        assert float(vals[4]) <= 1e-10

    def test_identity_max_matches_per_edge_residuals(self, tmp_path):
        out = str(tmp_path / "i.csv")
        cfg = parse_config(
            f"example=ex3\nemit=identity\nn=50\nmesh=20\nh=1.5\nout={out}")
        run(cfg)
        sol = solve_example_stage("ex3", 50, 20, h=1.5)
        expect = float(edge_identity_defects(sol).max())
        assert _read(out).splitlines()[2].split(",")[3] \
            == FLOAT_FMT.format(expect)

    def test_upscaled_csv(self, tmp_path):
        out = str(tmp_path / "u.csv")
        run(parse_config(f"example=ex3\nemit=upscaled\nmesh=16\nout={out}"))
        lines = _read(out).splitlines()
        assert lines[1].startswith("# center_value=")
        assert lines[2].startswith("# center_limit=")
        assert lines[3].startswith("# group 1: predicted_flux=")
        assert lines[5] == "group,node_index,t,value"
        assert len(lines) == 6 + 2 * 17

    def test_weyl_csv(self, tmp_path):
        out = str(tmp_path / "w.csv")
        run(parse_config(f"example=ex1\nemit=weyl\nn=6\ninterval=0,pi\nout={out}"))
        lines = _read(out).splitlines()
        assert lines[1] == "n,c,d,fraction,cos_mean"
        assert float(lines[2].split(",")[3]) == pytest.approx(0.5)

    def test_cauchy_csv(self, tmp_path):
        out = str(tmp_path / "c.csv")
        run(parse_config(
            f"example=ex1\nemit=cauchy\ncenters=10\nwindow=4\nmesh=8\nout={out}"))
        lines = _read(out).splitlines()
        assert lines[1].startswith("# max_bh=")
        assert lines[2] == "n,group,epsilon,delta,window"
        assert len(lines) == 3 + 2

    @pytest.mark.parametrize("example,emit,sizes,mesh,bh", [
        # the window around 10 walks to edge 12, where ex5 has b = 2 pi 12
        ("ex5", "cauchy", "centers=10\nwindow=4", 8, 2 * np.pi * 12 / 8),
        ("ex5", "cauchy", "centers=10\nwindow=4", 400, 2 * np.pi * 12 / 400),
        ("ex3", "table", "stages=4,8", 8, 2 * np.pi / 8),
    ])
    def test_sine_sweeps_report_their_largest_bh(self, tmp_path, example,
                                                 emit, sizes, mesh, bh):
        out = tmp_path / "t.csv"
        run(parse_config(f"example={example}\nemit={emit}\n{sizes}\n"
                         f"mesh={mesh}\nout={out}"))
        comment = _read(out).splitlines()[1]
        assert comment.startswith(f"# max_bh={FLOAT_FMT.format(bh)}")
        assert ("alias" in comment) == (bh > np.pi)

    def test_fields_without_a_sine_declaration_report_no_bh(self, tmp_path):
        out = tmp_path / "t.csv"
        run(parse_config(f"example=manufactured\nstages=4,8\nmesh=8\n"
                         f"reference=upscaled\nout={out}"))
        assert not any("max_bh" in ln for ln in _read(out).splitlines())

    def test_rate_csv(self, tmp_path):
        out = str(tmp_path / "r.csv")
        run(parse_config(
            f"example=ex1\nemit=rate\nerrors=1e-1,1e-2,1e-4,1e-8\nout={out}"))
        lines = _read(out).splitlines()
        assert lines[1] == "k,d_minus,d_zero,d_plus,alpha"
        assert float(lines[2].split(",")[4]) == pytest.approx(2.08185,
                                                              abs=1e-4)

    def test_output_dir_redirects_relative_paths(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STARFEM_OUT_DIR", str(tmp_path))
        run(parse_config(BASE + "out=rel.csv"))
        assert (tmp_path / "rel.csv").exists()

    def test_output_dir_leaves_absolute_paths_alone(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setenv("STARFEM_OUT_DIR", str(tmp_path / "sub"))
        out = tmp_path / "abs.csv"
        run(parse_config(BASE + f"out={out}"))
        assert out.exists()

    def test_no_leftover_temp_files(self, tmp_path):
        run(parse_config(BASE + f"out={tmp_path / 'clean.csv'}"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["clean.csv"]


class TestMain:
    def test_success_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE)
        out = tmp_path / "t.csv"
        assert main(["table", "--config", str(cfg), "--out", str(out)]) == 0
        assert f"wrote {out}" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("example=ex9\n")
        assert main(["table", "--config", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_config_exit_code(self, capsys):
        assert main(["table"]) == 2
        assert "requires --config" in capsys.readouterr().err

    def test_numerical_error_exit_code(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main(["rate", "--errors", "1e-2,1e-2,1e-2,1e-2",
                     "--out", str(out)])
        assert code == 3
        assert not out.exists()

    @pytest.mark.parametrize("example,line", [
        ("ex1", "probs=nan,nan"), ("ex1", "values=nan,2"),
        ("constant", "c=inf"), ("ex1", "h=nan"), ("ex1", "h=inf"),
    ])
    def test_non_finite_numbers_rejected(self, tmp_path, capsys, example,
                                         line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"example={example}\nstages=4,8\nmesh=8\n{line}\n")
        out = tmp_path / "t.csv"
        assert main(["table", "--config", str(cfg), "--out", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_reference_with_more_curves_than_groups_exits_2(self, tmp_path,
                                                             capsys):
        # the printed ex1 reference is a pair of curves; one group value
        # makes one group
        cfg = tmp_path / "run.cfg"
        cfg.write_text("example=ex1\ncoeff=random\nprobs=1\nvalues=2\n"
                       "reference=printed\nstages=10,20\nmesh=8\n")
        out = tmp_path / "t.csv"
        assert main(["table", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "reference printed has 2 curves" in err
        assert "1 group (values = 2.0)" in err
        assert not out.exists()

    def test_threads_is_not_a_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE + "threads=2\n")
        out = tmp_path / "t.csv"
        assert main(["table", "--config", str(cfg), "--out", str(out)]) == 2
        assert "unknown key 'threads'" in capsys.readouterr().err
        assert not out.exists()
        cfg.write_text(BASE)
        with pytest.raises(SystemExit) as exc:
            main(["table", "--config", str(cfg), "--threads", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv,config", [
        (["weyl", "--n", str(10**12)], None),
        (["solve", "--n", str(10**12)], "example=ex1\nmesh=8\n"),
        (["identity"], f"example=ex1\nn={10**12}\n"),
        (["table", "--mesh", str(10**12)], "example=ex3\n"),
        (["table"], f"example=ex3\nstages=10,{10**12}\n"),
        (["cauchy"], f"example=ex5\ncenters={10**12}\n"),
        (["upscaled"], f"example=ex3\nmesh={10**12}\n"),
    ])
    def test_oversized_request_refused_before_allocating(
            self, tmp_path, capsys, argv, config):
        out = tmp_path / "big.csv"
        if config is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(config)
            argv = argv + ["--config", str(cfg)]
        tracemalloc.start()
        try:
            code = main(argv + ["--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "budget" in capsys.readouterr().err
        assert peak < 2**20
        assert not out.exists()

    @pytest.mark.parametrize("example,stages,accepted", [
        # no array grows with n: an ex3 table to 10^8 fits the work budget
        ("ex3", f"10,{10**8}", True),
        ("ex3", f"10,{10**9}", False),
        ("ex3", f"{6 * 10**7},{7 * 10**7},{8 * 10**7}", True),
        # ex2 walks every stage from edge 1
        ("ex2", f"{4 * 10**7},{5 * 10**7},{6 * 10**7},{65 * 10**6}", False),
        ("ex3", f"{4 * 10**7},{5 * 10**7},{6 * 10**7},{65 * 10**6}", True),
    ])
    def test_sweep_work_budget(self, example, stages, accepted):
        text = f"example={example}\nstages={stages}\nmesh=100\n"
        if accepted:
            parse_config(text)
            return
        with pytest.raises(ConfigError, match="budget of 17179869184 edge"):
            parse_config(text)

    @pytest.mark.parametrize("emit,lines,largest", [
        # within the work budget, but ex2 draws noise for each stage's edges
        ("table", f"stages=10,{10**8}", 10**8),
        ("cauchy", f"centers={10**8}\nwindow=2", 10**8 + 1),
    ])
    def test_ex2_noise_counts_against_the_array_budget(self, emit, lines,
                                                       largest):
        text = f"example=ex2\nemit={emit}\n{lines}\nmesh=100\n"
        with pytest.raises(ConfigError, match=f"arrays of {largest} values, "
                           "more than the budget of 67108864;"):
            parse_config(text)
        parse_config(text.replace("ex2", "ex3"))

    @pytest.mark.parametrize("lines", [
        "orientation=rim\nreference=upscaled",
        "probs=0.5,0.5\nreference=upscaled",
        "values=1,3\nreference=oracle",
        "h=0.5*n\nreference=upscaled",
        "coeff=random\nreference=upscaled",
    ])
    def test_references_follow_the_configured_law(self, tmp_path, capsys,
                                                  lines):
        # each case once plateaued at an L2 error of 0.17 to 2.4 against a
        # reference built for the default law; the limit of index-split
        # forcing under random coefficients mixes both classes in every
        # group, and no reference is offered for it
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"example=ex3\nstages=100,1000,10000\nmesh=100\n"
                       f"{lines}\n")
        out = tmp_path / "t.csv"
        code = main(["table", "--config", str(cfg), "--out", str(out)])
        if "random" in lines:
            assert code == 2
            assert "random" in capsys.readouterr().err
            assert not out.exists()
            return
        assert code == 0
        with open(out, encoding="utf-8") as fh:
            rows = list(csv.DictReader(line for line in fh
                                       if not line.startswith("#")))
        last = [float(r["l2_error"]) for r in rows if r["n"] == "10000"]
        assert len(last) == 2 and max(last) < 1e-2

    def test_non_finite_row_refused_before_writing(self, tmp_path, capsys):
        # a group value of 1e-300 makes a ~1e300 group average whose norm
        # overflows; the solve itself passes its gate
        cfg = tmp_path / "run.cfg"
        cfg.write_text("example=ex1\nstages=10,20\nmesh=8\n"
                       "values=1e-300,2\n")
        out = tmp_path / "t.csv"
        assert main(["table", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "row 1" in err and "l2_error=inf" in err
        assert not out.exists()
        assert list(tmp_path.iterdir()) == [cfg]

    def test_unwritable_path_exit_code(self, tmp_path, capsys):
        code = main(["weyl", "--n", "5",
                     "--out", str(tmp_path / "no" / "dir" / "w.csv")])
        assert code == 4
        assert "cannot write" in capsys.readouterr().err

    def test_unreadable_config_exit_code(self, tmp_path, capsys):
        code = main(["table", "--config", str(tmp_path / "gone.cfg")])
        assert code == 4
        assert "cannot read" in capsys.readouterr().err

    def test_overrides_reach_the_run(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE)
        out = tmp_path / "o.csv"
        main(["table", "--config", str(cfg), "--out", str(out),
              "--mesh", "12", "--seed", "5"])
        header = _read(out).splitlines()[0]
        assert "mesh=12" in header
        assert "seed=5" in header

    def test_weyl_needs_no_config(self, tmp_path):
        out = tmp_path / "w.csv"
        assert main(["weyl", "--n", "100", "--interval", "0,pi",
                     "--out", str(out)]) == 0

    @pytest.mark.parametrize("argv,flag", [
        (["weyl", "--interval", "0,1,2"], "--interval"),
        (["weyl", "--interval", "0,abc"], "--interval"),
        (["rate", "--errors", "1,2,nan,3"], "--errors"),
        (["weyl", "--n", "abc"], "--n"),
        (["weyl", "--seed", "-1"], "--seed"),
    ])
    def test_bad_flag_values_name_the_flag(self, tmp_path, capsys, argv,
                                           flag):
        # a flag's text goes through the parser of the config key
        out = tmp_path / "f.csv"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}: ")
        assert "line 0" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "table"])
    def test_ex2_noise_with_an_overflowing_range_exits_2(self, tmp_path,
                                                         capsys, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("example=ex2\nnoise=1e308\nn=4\nstages=4,8\nmesh=8\n")
        out = tmp_path / "n.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "noise" in capsys.readouterr().err
        assert not out.exists()

    def test_console_script_is_installed(self, tmp_path):
        out = tmp_path / "w.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "starfem.expcli", "weyl", "--n", "10",
             "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_package_runs_as_a_module(self, tmp_path):
        out = tmp_path / "w.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "starfem", "weyl", "--n", "10",
             "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert out.exists()

    def test_import_does_not_load_numpy_random(self):
        # numpy.random costs ~15 ms of every start-up; only random
        # coefficients and noise need it, and they import it when drawn
        src = os.path.dirname(os.path.dirname(
            os.path.abspath(sys.modules["starfem"].__file__)))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, starfem; print('numpy.random' in sys.modules)"],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_no_class_is_built_at_import_by_dataclasses(self, tmp_path):
        # a frozen dataclass costs ~1 ms of start-up to build; every module
        # a table needs is still loaded by importing the CLI
        src = os.path.dirname(os.path.dirname(
            os.path.abspath(sys.modules["starfem"].__file__)))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE + f"out={tmp_path / 't.csv'}\n")
        code = (
            "import sys, starfem.expcli\n"
            "loaded = set(sys.modules)\n"
            "classes = [c for m in list(sys.modules.values())\n"
            "           if m and m.__name__.startswith('starfem')\n"
            "           for c in vars(m).values() if isinstance(c, type)]\n"
            "assert classes\n"
            "print([c.__name__ for c in classes\n"
            "       if hasattr(c, '__dataclass_fields__')])\n"
            "starfem.expcli.main(['table', '--config', sys.argv[1]])\n"
            "print(sorted(m for m in set(sys.modules) - loaded\n"
            "             if m.startswith(('starfem', 'dataclasses'))))\n")
        proc = subprocess.run([sys.executable, "-c", code, str(cfg)],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "[]" and lines[-1] == "[]"


_TOKENS = st.sampled_from([
    "example", "emit", "stages", "centers", "n", "window", "mesh", "coeff",
    "probs", "values", "seed", "h", "reference", "out", "noise", "c",
    "orientation", "interval", "errors", "full_h1", "timestamp", "threads",
    "ex1", "ex3", "constant", "table", "cauchy", "random", "rim", "pi",
    "2pi", "true", "0", "1", "-1", "2", "10,20", "0.5,0.5", "1e400", "nan",
    "*n", "0.5*n", "=", ",", "#", " ", "\n",
])


#: the value flags of the subcommands that need no config
_FLAGS_OF = {"weyl": ("out", "seed", "mesh", "n", "interval"),
             "rate": ("out", "seed", "mesh", "errors")}


class TestConfigProperties:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), command=st.sampled_from(sorted(_FLAGS_OF)))
    def test_flags_parse_like_config_keys(self, tmp_path, monkeypatch,
                                          capsys, data, command):
        # relative --out paths land under tmp_path
        monkeypatch.setenv("STARFEM_OUT_DIR", str(tmp_path))
        keys = data.draw(st.lists(st.sampled_from(_FLAGS_OF[command]),
                                  unique=True, max_size=3))
        # padded with blanks, which a config line's value loses
        pad = st.sampled_from(["", " "])
        value = st.tuples(pad, st.lists(_TOKENS, max_size=4).map("".join), pad)
        raws = {k: "".join(data.draw(value)) for k in keys}
        argv = [command] + [f"--{k}={raws[k]}" for k in keys]
        assert main(argv) in (0, 2, 3, 4)
        capsys.readouterr()
        assume(not any("\n" in raw for raw in raws.values()))
        # the same values as lines of a config file
        text = f"example=ex1\nemit={_SUBCOMMAND_EMIT[command]}\n" + "".join(
            f"{k}={raw}\n" for k, raw in raws.items())
        try:
            from_file = parse_config(text)
        except ConfigError:
            from_file = None
        try:
            from_flags = _config_from_args(_build_parser().parse_args(argv))
        except ConfigError:
            from_flags = None
        assert from_flags == from_file

    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(
        st.text(max_size=80),
        st.lists(_TOKENS, max_size=24).map("".join),
        st.lists(st.tuples(_TOKENS, _TOKENS), max_size=8).map(
            lambda pairs: "example=ex1\n" + "".join(
                f"{k}={v}\n" for k, v in pairs)),
    ))
    def test_any_text_parses_or_raises_config_error(self, text):
        try:
            cfg = parse_config(text)
        except ConfigError:
            return
        assert isinstance(cfg, ExperimentConfig)

    @settings(max_examples=200, deadline=None)
    @given(
        example=st.sampled_from(["ex1", "ex2", "ex3", "ex4", "ex5",
                                 "constant", "manufactured"]),
        emit=st.sampled_from(["table", "cauchy", "solution", "weyl",
                              "identity", "upscaled", "rate"]),
        stages=st.lists(st.integers(2, 10**6), min_size=1, max_size=5,
                        unique=True).map(sorted),
        centers=st.lists(st.integers(6, 10**5), min_size=1, max_size=4,
                         unique=True).map(sorted),
        sizes=st.tuples(st.integers(1, 1000), st.integers(2, 50),
                        st.integers(2, 400)),
        coeff=st.sampled_from(["deterministic", "random"]),
        law=st.sampled_from([((1 / 3, 2 / 3), (1.0, 2.0)),
                             ((0.25, 0.75), (0.5, 3.0)),
                             ((0.2, 0.3, 0.5), (1.0, 2.0, 4.0))]),
        seed=st.integers(0, 2**64 - 1),
        h=st.tuples(st.floats(-1e6, 1e6, allow_subnormal=False),
                    st.booleans()),
        reference=st.sampled_from(["oracle", "printed", "upscaled"]),
        noise=st.one_of(st.just(-1.0), st.floats(0, 10)),
        c=st.floats(-1e3, 1e3),
        orientation=st.sampled_from(["center", "rim"]),
        interval=st.tuples(st.floats(0, 3), st.floats(3.5, 2 * np.pi)),
        errors=st.lists(st.floats(-1, 1), max_size=6).map(tuple),
        full_h1=st.booleans(),
    )
    def test_normalized_line_parses_back(self, example, emit, stages,
                                         centers, sizes, coeff, law, seed,
                                         h, reference, noise, c, orientation,
                                         interval, errors, full_h1):
        n, window, mesh = sizes
        cfg = ExperimentConfig(
            example=example, emit=emit, stages=tuple(stages),
            centers=tuple(centers), n=n, window=window, mesh=mesh,
            coeff=coeff, probs=law[0], values=law[1], seed=seed,
            h_coeff=h[0], h_linear=h[1], reference=reference, noise=noise,
            c=c, orientation=orientation, interval=interval, errors=errors,
            full_h1=full_h1)
        try:
            _validate(cfg)
        except ConfigError:
            assume(False)  # over the size budget
        parts = [p for p in cfg.normalized().split()
                 if not p.startswith("prng=")]
        assert parse_config("\n".join(parts)) == cfg

