"""Experiment harness and CLI surface: configs, CSV contracts, runners,
determinism, and exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

from opgeom import experiments
from opgeom.cli import main as cli_main
from opgeom.errors import DomainError
from opgeom.experiments import (EXPERIMENTS, ExperimentConfig, read_report,
                                run_experiment)
from opgeom.funcspace import project_to_Cpsi, psi, registry
from opgeom.series import iterate_apply


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig(experiment="geom")
        assert cfg.n_list == (4, 8, 16, 32)
        assert cfg.eps == 1e-8
        cfg_z = ExperimentConfig(experiment="geom", family="mkz-symmetric")
        assert cfg_z.n_list == (4, 8, 16)
        assert cfg_z.eps == 1e-6

    def test_validation(self):
        with pytest.raises(DomainError):
            ExperimentConfig(experiment="nope")
        with pytest.raises(DomainError):
            ExperimentConfig(experiment="geom", n_list=(8, 4))
        with pytest.raises(DomainError):
            ExperimentConfig(experiment="geom", grid_size=16)
        with pytest.raises(DomainError):
            ExperimentConfig(experiment="geom", eps=-1.0)
        with pytest.raises(DomainError):
            ExperimentConfig(experiment="geom", jobs=0)

    def test_durrmeyer_default_rho(self):
        assert ExperimentConfig(experiment="geom",
                                family="durrmeyer").rho == 1.0
        assert ExperimentConfig(experiment="geom", family="durrmeyer",
                                rho=2.0).rho == 2.0
        assert ExperimentConfig(experiment="geom").rho is None
        with pytest.raises(DomainError):
            ExperimentConfig(experiment="geom", family="durrmeyer",
                             rho=0.0).spec(4)

    def test_spec_carries_eps_only_for_series_families(self):
        cfg = ExperimentConfig(experiment="geom", family="mkz-symmetric",
                               eps=1e-7)
        assert cfg.spec(4).truncation_eps == 1e-7
        cfg_b = ExperimentConfig(experiment="geom", family="bernstein")
        assert cfg_b.spec(4).truncation_eps is None


class TestReports:
    def test_csv_round_trip_exact(self, tmp_path):
        cfg = ExperimentConfig(experiment="geom", family="bernstein",
                               n_list=(4, 8), function="e1", grid_size=65,
                               output=str(tmp_path / "r.csv"))
        rep = run_experiment(cfg)
        back = read_report(tmp_path / "r.csv", "geom")
        assert back == [tuple(r) for r in rep.rows]
        meta = json.loads((tmp_path / "r.csv.meta.json").read_text())
        assert meta["config"]["function"] == "e1"
        assert "wall_time_s" in meta
        assert len(meta["tail_bounds"]) == 2
        assert meta["series_method"] == ["krylov", "krylov"]
        assert len(meta["residual_psi_norms"]) == 2

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_every_experiment_round_trips(self, experiment, tmp_path):
        out = tmp_path / f"{experiment}.csv"
        rep = run_experiment(ExperimentConfig(
            experiment=experiment, family="bernstein", n_list=(4, 8),
            function="e3", grid_size=65, output=str(out)))
        assert rep.rows
        assert read_report(out, experiment) == [tuple(r) for r in rep.rows]

    def test_read_report_checks_row_width(self, tmp_path):
        header = "n,error_psi,terms_used,tail_bound\n"
        for body in ("4,0.1\n", "8,0.2,3,1e-9,7\n"):
            path = tmp_path / "r.csv"
            path.write_text(header + body)
            with pytest.raises(DomainError):
                read_report(path, "geom")

    def test_csv_headers(self, tmp_path):
        pairs = [
            ("iterates", "n,k,error_psi,envelope"),
            ("geom", "n,error_psi,terms_used,tail_bound"),
            ("voronovskaya", "n,error_psi,aux_error"),
            ("inverse-voronovskaya", "n,error_psi,aux_error"),
            ("conditions", "n,sup_m4_over_m2,eta,cond55"),
        ]
        for exp, header in pairs:
            cfg = ExperimentConfig(
                experiment=exp, family="bernstein", n_list=(4,),
                function="e2", grid_size=65,
                output=str(tmp_path / f"{exp}.csv"))
            run_experiment(cfg)
            first = (tmp_path / f"{exp}.csv").read_text().splitlines()[0]
            assert first == header, exp

    def test_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            run_experiment(ExperimentConfig(
                experiment="voronovskaya", family="bernstein", n_list=(4, 8),
                function="sin_pi", grid_size=129, output=str(out)))
        assert out1.read_text() == out2.read_text()

    def test_jobs_reproducible(self, tmp_path):
        rows = {}
        for jobs in (1, 2):
            cfg = ExperimentConfig(experiment="geom", family="bernstein",
                                   n_list=(4, 8, 16), function="e1",
                                   grid_size=129, jobs=jobs)
            rows[jobs] = run_experiment(cfg).rows
        assert rows[1] == rows[2]


class TestRunners:
    def test_iterates_affine_input_is_fixed(self):
        rep = run_experiment(ExperimentConfig(
            experiment="iterates", family="bernstein", n_list=(4,),
            function="e1", grid_size=65))
        assert all(r[2] <= 1e-13 for r in rep.rows)

    def test_iterates_envelope_and_ratio(self):
        rep = run_experiment(ExperimentConfig(
            experiment="iterates", family="bernstein", n_list=(4,),
            function="e2", grid_size=65))
        errs = [r[2] for r in rep.rows]
        for (n, k, err, env) in rep.rows:
            assert err <= env * (1 + 1e-9)
        ratios = [b / a for a, b in zip(errs[1:-1], errs[2:])]
        assert all(r == pytest.approx(0.75, abs=1e-6) for r in ratios)

    @pytest.mark.parametrize("family", ["durrmeyer", "mkz-symmetric"])
    def test_iterates_match_one_iterate_at_a_time(self, family):
        # the runner evaluates all iterates in one apply_rep call; the
        # reference is iterate_apply, one iterate per call, which sums in
        # another order, so the rows agree to a relative 1e-13
        cfg = ExperimentConfig(experiment="iterates", family=family,
                               n_list=(4,), function="e2", grid_size=129)
        op = cfg.spec(4)
        pts = op.grid(cfg.base_grid()).points
        f1 = project_to_Cpsi(registry("e2"))
        for (n, k, err, env) in run_experiment(cfg).rows[1:]:
            ref = np.max(np.abs(iterate_apply(op, k, f1, pts)) / psi(pts))
            assert err == pytest.approx(ref, rel=1e-13, abs=0.0), k

    def test_geom_identity_case(self):
        rep = run_experiment(ExperimentConfig(
            experiment="geom", family="bernstein", n_list=(4, 8),
            function="e0", grid_size=129))
        for (n, err, terms, tail) in rep.rows:
            assert err <= 1e-6 * n

    def test_voronovskaya_rejects_no_second_derivative(self):
        with pytest.raises(DomainError):
            run_experiment(ExperimentConfig(
                experiment="voronovskaya", family="bernstein", n_list=(4,),
                function="osc", grid_size=65))

    def test_voronovskaya_linear_input_zero(self):
        rep = run_experiment(ExperimentConfig(
            experiment="voronovskaya", family="bernstein", n_list=(4, 8),
            function="e1", grid_size=65))
        assert all(r[1] <= 1e-12 for r in rep.rows)

    def test_voronovskaya_durrmeyer_exact_quadratic(self):
        rep = run_experiment(ExperimentConfig(
            experiment="voronovskaya", family="durrmeyer", rho=1.0,
            n_list=(4, 8), function="e2", grid_size=65))
        assert all(r[1] <= 1e-9 for r in rep.rows)

    def test_conditions_runner(self):
        rep = run_experiment(ExperimentConfig(
            experiment="conditions", family="bernstein", n_list=(4, 8),
            grid_size=129))
        assert rep.rows[0][1] <= 0.75 / 4 - 0.5 / 16 + 1e-12
        assert rep.rows[1][1] < rep.rows[0][1]

    def test_invariants_all_pass(self):
        rep = run_experiment(ExperimentConfig(
            experiment="invariants", grid_size=257))
        assert rep.failures == []
        names = [r[0] for r in rep.rows]
        assert len(names) == len(set(names))


class TestCli:
    def test_subcommand_writes_files(self, tmp_path, capsys):
        out = tmp_path / "geom.csv"
        code = cli_main(["geom", "--family", "bernstein", "--function", "e1",
                         "--n-list", "4,8", "--grid-size", "65",
                         "-o", str(out)])
        assert code == 0
        assert out.exists() and Path(str(out) + ".meta.json").exists()
        assert "wrote" in capsys.readouterr().out

    def test_stdout_mode(self, capsys):
        code = cli_main(["voronovskaya", "--family", "bernstein",
                         "--function", "e3", "--n-list", "4",
                         "--grid-size", "65"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,error_psi,aux_error"
        assert lines[1].startswith("4,")

    def test_stdout_mode_prints_the_csv_lines(self, tmp_path, capsys):
        argv = ["geom", "--family", "bernstein", "--function", "e1",
                "--n-list", "4,8", "--grid-size", "65"]
        assert cli_main(argv) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "geom.csv"
        assert cli_main(argv + ["-o", str(out)]) == 0
        assert printed == out.read_text()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "family": "bernstein", "function": "e3", "n_list": [4, 8, 16],
            "grid_size": 65}))
        code = cli_main(["voronovskaya", "--config", str(cfg),
                         "--n-list", "4"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2  # header + the single overridden n

    def test_config_cannot_switch_the_experiment(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        base = {"family": "bernstein", "function": "e1", "n_list": [4],
                "grid_size": 65}
        cfg.write_text(json.dumps({**base, "experiment": "geom"}))
        assert cli_main(["geom", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.startswith(
            "n,error_psi,terms_used,tail_bound\n")
        cfg.write_text(json.dumps({**base, "experiment": "conditions"}))
        out = tmp_path / "out.csv"
        assert cli_main(["geom", "--config", str(cfg), "-o", str(out)]) == 2
        assert "error: " in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_carrier_exit_code(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert cli_main(["geom", "--family", "mkz-symmetric", "--n-list", "64",
                         "-o", str(out)]) == 2
        assert "error: " in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_carrier_fails_before_the_runner(self, tmp_path, capsys,
                                                       monkeypatch):
        calls = []
        for name in ("alpha_profile", "F_transform"):
            monkeypatch.setattr(experiments, name,
                                lambda *a, name=name, **k: calls.append(name))
        out = tmp_path / "out.csv"
        assert cli_main(["geom", "--family", "mkz-symmetric", "--n-list", "4,64",
                         "-o", str(out)]) == 2
        assert "GiB" in capsys.readouterr().err
        assert calls == [] and not out.exists()

    def test_conditions_needs_no_carrier(self, monkeypatch):
        # conditions builds no carrier, so an order whose carrier would not
        # fit still runs
        monkeypatch.setattr(experiments, "condition_report",
                            lambda family, n_list, *a, **k: [])
        cfg = ExperimentConfig(experiment="conditions", family="mkz-symmetric",
                               n_list=(64,), grid_size=65)
        assert run_experiment(cfg).rows == []

    def test_bad_input_exit_code(self, capsys):
        assert cli_main(["geom", "--function", "nope", "--grid-size", "65",
                         "--n-list", "4"]) == 2
        assert "error" in capsys.readouterr().err

    def test_non_integer_order_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_list": [4.5, 8], "grid_size": 65}))
        for argv in (["geom", "--family", "bernstein"],
                     ["voronovskaya", "--family", "mkz-symmetric"]):
            out = tmp_path / "out.csv"
            assert cli_main(argv + ["--config", str(cfg), "-o", str(out)]) == 2
            assert "integer" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["iterates", "--family", "mkz", "--n-list", "2000"],
        ["geom", "--family", "durrmeyer", "--rho", "0.1", "--function", "osc",
         "--n-list", "4"],
    ], ids=["truncation-budget", "quadrature"])
    def test_numerical_failure_exit_code(self, argv, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert cli_main(argv + ["-o", str(out)]) == 2
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    def test_invariants_exit_status(self, tmp_path, capsys):
        code = cli_main(["invariants", "--grid-size", "257",
                         "-o", str(tmp_path / "inv.csv")])
        assert code == 0
        rows = read_report(tmp_path / "inv.csv", "invariants")
        assert all(row[3] for row in rows)

    def test_durrmeyer_default_rho(self, capsys):
        code = cli_main(["voronovskaya", "--family", "durrmeyer",
                         "--function", "e2", "--n-list", "4",
                         "--grid-size", "65"])
        assert code == 0
