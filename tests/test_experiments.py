"""Experiment harness and CLI surface: configs, CSV contracts, runners,
determinism, and exit codes."""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from opgeom import cli, experiments, operators
from opgeom.cli import main as cli_main
from opgeom.errors import DomainError
from opgeom.experiments import (EXPERIMENTS, ExperimentConfig, read_report,
                                run_experiment)
from opgeom.funcspace import default_grid, project_to_Cpsi, psi, registry
from opgeom.operators import alpha_profile
from opgeom.series import iterate_apply


def run_fresh(code, path, **env_vars):
    """Run code after `import sys, opgeom, opgeom.cli` in a fresh process,
    on this checkout's opgeom, with sys.argv[1] = path and the environment
    variables env_vars set (unset where None); assert it exits 0."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ)
    for key, value in env_vars.items():
        env.pop(key, None)
        if value is not None:
            env[key] = value
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c",
                          "import sys, opgeom, opgeom.cli\n" + code, str(path)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    return out


def _assert_joins_its_orders(tmp_path, experiment, family, *flags):
    """At the family's default orders, the CSV and sidecar of one run
    equal the joined outputs of one run per order, each sidecar key one
    value per order, and two workers write the bytes of one."""
    def run(name, *more):
        out = tmp_path / name
        assert cli_main([experiment, "--family", family, *flags, *more,
                         "-o", str(out)]) == 0
        meta = json.loads(out.with_name(name + ".meta.json").read_text())
        for key in ("wall_time_s", "config"):
            del meta[key]
        return out.read_text().splitlines(), meta

    lines, meta = run("all.csv")
    n_list = operators.family_record(family).default_n_list
    alone = [run(f"{n}.csv", "--n-list", str(n)) for n in n_list]
    assert meta and all(len(values) == len(n_list) for values in meta.values())
    assert lines == lines[:1] + [row for part, _ in alone for row in part[1:]]
    assert meta == {key: [m[key][0] for _, m in alone] for key in meta}
    assert all(m.keys() == meta.keys() for _, m in alone)
    assert run("jobs2.csv", "--jobs", "2") == (lines, meta)


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
        for value in (-1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                ExperimentConfig(experiment="geom", eps=value)
        for value in (math.nan, math.inf):
            with pytest.raises(DomainError, match="finite"):
                ExperimentConfig(experiment="geom", family="durrmeyer", rho=value)
        with pytest.raises(DomainError):
            ExperimentConfig(experiment="geom", jobs=0)
        for family in ("bernstein", "mkz", "mkz-reflected", "mkz-symmetric"):
            with pytest.raises(DomainError, match=f"^{family} takes no rho$"):
                ExperimentConfig(experiment="geom", family=family, rho=0.5)

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
        assert meta["eps_met"] == [True, True]
        assert meta["series_method"] == ["krylov", "krylov"]
        assert len(meta["residual_psi_norms"]) == 2

    def test_geom_sidecar_records_its_bounds(self, tmp_path):
        # b, the carrier's truncation bound and node count and the kernel
        # transform's quadrature bound, per n; with one worker and with
        # two the sidecars differ only in the wall time
        metas = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}.csv"
            cfg = ExperimentConfig(experiment="geom", family="mkz-symmetric",
                                   n_list=(3, 4), function="e1", grid_size=65,
                                   jobs=jobs, output=str(out))
            run_experiment(cfg)
            meta = json.loads(out.with_name(out.name + ".meta.json").read_text())
            del meta["wall_time_s"], meta["config"]["jobs"], meta["config"]["output"]
            metas.append(meta)
        assert metas[0] == metas[1]
        meta = metas[0]
        for key in ("contraction_bounds", "truncation_error_bounds",
                    "carrier_nodes", "stack_bytes", "quad_error_bounds"):
            assert len(meta[key]) == 2, key
        for i, n in enumerate(cfg.n_list):
            op = cfg.spec(n)
            disc = operators.node_discretization(op)
            transform = experiments.F_transform(registry("e1"),
                                                grid=op.grid(cfg.base_grid()))
            assert meta["contraction_bounds"][i] == op.contraction_bound() < 1.0
            assert meta["truncation_error_bounds"][i] == disc.truncation_error_bound > 0.0
            assert meta["carrier_nodes"][i] == disc.nodes.size
            assert meta["stack_bytes"][i] == disc.stack_bytes
            assert meta["quad_error_bounds"][i] == transform.quad_error_bound
        assert meta["gauss_rules"] == [{}, {}]

    @pytest.mark.parametrize("function,top", [("sin_pi", 24), ("abs_half", 192)])
    def test_geom_sidecar_counts_the_gauss_rules(self, function, top, tmp_path,
                                                 monkeypatch):
        # per n, the rules of each order the durrmeyer carrier solved: one
        # per mirror pair k, n - k; an analytic input stops at 24 points
        monkeypatch.setattr(operators, "_DISC_CACHE", {})
        out = tmp_path / "g.csv"
        cfg = ExperimentConfig(experiment="geom", family="durrmeyer",
                               n_list=(8, 16), function=function, grid_size=65,
                               output=str(out))
        run_experiment(cfg)
        meta = json.loads(out.with_name(out.name + ".meta.json").read_text())
        for n, counts in zip(cfg.n_list, meta["gauss_rules"]):
            table = operators.node_discretization(cfg.spec(n)).gauss_rules
            assert counts == {str(m): k for m, k in table.items()}
            assert max(table) == top and table[12] == table[24] == n // 2

    def test_geom_sidecar_counts_only_the_rules_it_solved(self, monkeypatch):
        # geom after voronovskaya in one process finds every rule in the
        # cached carriers and lists none; a fresh geom lists the carriers'
        # whole tables, as before
        cfg = dict(family="durrmeyer", n_list=(32, 64), function="sin_pi",
                   grid_size=65)
        monkeypatch.setattr(operators, "_DISC_CACHE", {})
        fresh = run_experiment(ExperimentConfig(experiment="geom", **cfg))
        tables = [operators.node_discretization(ExperimentConfig(
            experiment="geom", **cfg).spec(n)).gauss_rules for n in (32, 64)]
        assert fresh.metadata["gauss_rules"] == tables
        assert all(table[12] == table[24] for table in tables)
        monkeypatch.setattr(operators, "_DISC_CACHE", {})
        run_experiment(ExperimentConfig(experiment="voronovskaya", **cfg))
        warm = run_experiment(ExperimentConfig(experiment="geom", **cfg))
        assert warm.metadata["gauss_rules"] == [{}, {}]
        assert warm.rows == fresh.rows

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

    def test_read_report_checks_the_header(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("n,error_psi,terms_used,tail_bound\n4,0.1,3,1e-9\n")
        with pytest.raises(DomainError, match="unexpected header"):
            read_report(path, "conditions")

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

    def test_geom_evaluates_the_grid_basis_once_per_row(self, monkeypatch):
        # the residual and g share one Bernstein-form evaluation at the
        # grid points (a carrier build, if its carrier is not cached yet,
        # takes one at the nodes)
        calls = []
        values = operators.bernstein_values
        monkeypatch.setattr(operators, "bernstein_values",
                            lambda n, coeffs, xs, **kwargs: calls.append((n, len(xs)))
                            or values(n, coeffs, xs, **kwargs))
        run_experiment(ExperimentConfig(experiment="geom", family="bernstein",
                                        n_list=(4, 8), function="e1",
                                        grid_size=65))
        assert [n for n, size in calls if size == 65] == [4, 8]
        assert all(size == n + 1 for n, size in calls if size != 65)

    @pytest.mark.parametrize("family,built", [("bernstein", 1),
                                              ("mkz-symmetric", 3)])
    def test_geom_builds_one_kernel_transform_per_grid(self, family, built,
                                                       tmp_path, monkeypatch):
        # at its defaults, bernstein takes one family grid for n = 4..32
        # and mkz-symmetric one per n (its cap tightens with n).  The CSV
        # and sidecar equal those of one run per n, each with its own
        # transform, and two workers write the bytes of one
        calls = []
        inner = experiments.F_transform
        monkeypatch.setattr(experiments, "F_transform",
                            lambda f, grid: calls.append(grid) or inner(f, grid=grid))
        run_experiment(ExperimentConfig(experiment="geom", family=family))
        assert len(calls) == built
        _assert_joins_its_orders(tmp_path, "geom", family)

    @pytest.mark.parametrize("experiment,family", [
        ("voronovskaya", "bernstein"), ("voronovskaya", "mkz-symmetric"),
        ("inverse-voronovskaya", "durrmeyer"), ("inverse-voronovskaya", "mkz"),
        ("conditions", "bernstein"), ("conditions", "mkz-symmetric")])
    def test_run_joins_its_per_order_chunks(self, experiment, family,
                                            tmp_path):
        _assert_joins_its_orders(tmp_path, experiment, family,
                                 "--grid-size", "129")

    @pytest.mark.parametrize("experiment,family", [
        ("voronovskaya", "mkz"), ("inverse-voronovskaya", "mkz"),
        ("voronovskaya", "durrmeyer"), ("inverse-voronovskaya", "bernstein")])
    def test_condition_of_error_psi_in_sidecar(self, experiment, family):
        cfg = ExperimentConfig(experiment=experiment, family=family,
                               n_list=(4, 8), function="e2", grid_size=65)
        conds = run_experiment(cfg).metadata["error_psi_condition"]
        assert len(conds) == 2
        for n, cond in zip(cfg.n_list, conds):
            prof = alpha_profile(cfg.spec(n), cfg.base_grid())
            pts = prof.grid.points
            scale = prof.nu if experiment == "voronovskaya" else prof.alpha_values
            assert cond == np.max(1.0 / (scale * psi(pts)))

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

    @pytest.mark.parametrize("experiment", ["voronovskaya", "inverse-voronovskaya"])
    def test_voronovskaya_runs_fill_no_stack(self, experiment, monkeypatch):
        # both studies read L_n f at grid points only: the carriers they
        # leave in the cache hold no stack, a durrmeyer carrier the rules
        # its functionals solved alone
        for family, kw in [("mkz-symmetric", {}), ("bernstein", {}), (
                "durrmeyer", {"rho": 1.0, "function": "sin_pi",
                              "n_list": (32, 64, 128, 256, 512)})]:
            monkeypatch.setattr(operators, "_DISC_CACHE", {})
            cfg = ExperimentConfig(experiment=experiment, family=family, **kw)
            run_experiment(cfg)
            cache = operators._DISC_CACHE
            held = {spec.n: disc.matrix_bytes for spec, disc in cache.items()}
            rules = {spec.n: 0 if disc._rules is None else disc._rules.nbytes
                     for spec, disc in cache.items()}
            assert held == rules and list(held) == list(cfg.n_list), family
            assert all(disc._filled is None for disc in cache.values()), family
            assert (min(rules.values()) > 0) == (family == "durrmeyer"), family

    def test_default_mkz_geom_holds_no_stack(self, monkeypatch):
        # geom on mkz-symmetric at its defaults takes the factored solve,
        # whose products stream each stack: no carrier holds one
        # afterwards, and the sidecar records the bytes each would fill
        monkeypatch.setattr(operators, "_DISC_CACHE", {})
        cfg = ExperimentConfig(experiment="geom", family="mkz-symmetric")
        rep = run_experiment(cfg)
        cache = operators._DISC_CACHE
        assert [spec.n for spec in cache] == [4, 8, 16]
        assert all(disc.matrix_bytes == 0 for disc in cache.values())
        assert rep.metadata["series_method"] == ["solve"] * 3
        assert rep.metadata["stack_bytes"] == [4753800, 23544000, 141092352]

    def test_default_mkz_iterates_holds_one_stack(self, monkeypatch):
        # the cap is applied before each fill: iterates on mkz-symmetric at
        # its defaults advances every carrier and leaves one filled stack
        # in the cache, the n = 16 one, whose 141.1 MB pass the cap alone
        monkeypatch.setattr(operators, "_DISC_CACHE", {})
        cfg = ExperimentConfig(experiment="iterates", family="mkz-symmetric")
        run_experiment(cfg)
        held = [disc.matrix_bytes for disc in operators._DISC_CACHE.values()
                if disc.matrix_bytes]
        assert held == [operators.node_discretization(cfg.spec(16)).stack_bytes]

    def test_invariants_carrier_checks_fill_no_mkz_stack(self, monkeypatch):
        # discretization-consistency and mkz-reflection-identity read
        # images and truncation bounds: their series carriers hold no stack
        monkeypatch.setattr(operators, "_DISC_CACHE", {})
        run_experiment(ExperimentConfig(experiment="invariants", grid_size=257))
        held = {(spec.family, spec.n): disc.matrix_bytes
                for spec, disc in operators._DISC_CACHE.items()
                if spec.record.series}
        assert held == {("mkz", 6): 0, ("mkz-symmetric", 6): 0,
                        ("mkz-reflected", 5): 0}
        # and, of the two exact carriers it reads, the bernstein one holds
        # no transfer; the inversion row's products fill the durrmeyer one
        exact = [operators._DISC_CACHE[operators.OperatorSpec(*key)] for key in
                 (("bernstein", 6), ("durrmeyer", 6, 1.0))]
        assert [disc._filled is None for disc in exact] == [True, False]
        assert exact[0].matrix_bytes == 0

    def test_pointwise_studies_run_no_fill(self, monkeypatch):
        # conditions on mkz-symmetric and invariants read alpha, images
        # and truncation bounds: none of them makes a carrier weight row
        monkeypatch.setattr(operators, "_DISC_CACHE", {})
        calls, fill = [], operators._mkz_fill

        def counted(*args):
            calls.append(args[:3])
            return fill(*args)

        monkeypatch.setattr(operators, "_mkz_fill", counted)
        run_experiment(ExperimentConfig(experiment="conditions",
                                        family="mkz-symmetric"))
        run_experiment(ExperimentConfig(experiment="invariants"))
        assert calls == []

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

    def test_geom_flags_a_bound_above_eps(self, tmp_path, capsys):
        # bernstein n = 32 certifies e1 only to 1.137e-13, by the exact
        # solve once Krylov misses eps: the row and the exit status stay as
        # they are, the sidecar and one warning say so
        out = tmp_path / "geom.csv"
        argv = ["geom", "--family", "bernstein", "--function", "e1",
                "-o", str(out)]
        assert cli_main(argv + ["--n-list", "32", "--eps", "1e-13"]) == 0
        meta = json.loads(Path(str(out) + ".meta.json").read_text())
        assert meta["eps_met"] == [False]
        assert meta["series_method"] == ["solve"]
        (bound,) = meta["tail_bounds"]
        assert read_report(out, "geom")[0][3] == bound > 1e-13
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning: ")]
        assert warnings == [f"warning: n = 32: tail_bound {bound:.3e} "
                            "exceeds eps 1.000e-13"]
        assert cli_main(argv) == 0  # the default orders and eps
        meta = json.loads(Path(str(out) + ".meta.json").read_text())
        assert meta["eps_met"] == [True] * 4
        assert "warning" not in capsys.readouterr().err

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

    def test_bad_n_list_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["geom", "--n-list", "4,x"])
        assert exc.value.code == 2
        assert "bad n-list" in capsys.readouterr().err

    def test_unreadable_config_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "out.csv"
        for cfg in (tmp_path / "missing.json", bad):
            assert cli_main(["geom", "--config", str(cfg), "-o", str(out)]) == 2
            assert "error: cannot read config" in capsys.readouterr().err
            assert not out.exists()

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

    @pytest.mark.parametrize("family", ["bernstein", "durrmeyer"])
    def test_oversized_exact_carrier_fails_before_the_runner(
            self, family, tmp_path, capsys, monkeypatch):
        # n = 30000 would hold a 7.2 GB transfer: the guard refuses it by
        # arithmetic before n = 4 runs, and no carrier is built
        built = []
        record = operators.family_record(family)
        monkeypatch.setitem(operators._FAMILY_TABLE, family,
                            replace(record, carrier=built.append))
        out = tmp_path / "out.csv"
        assert cli_main(["geom", "--family", family, "--n-list", "4,30000",
                         "-o", str(out)]) == 2
        assert "GiB" in capsys.readouterr().err
        assert built == [] and not out.exists()

    @pytest.mark.parametrize("family", ["bernstein", "durrmeyer"])
    def test_exact_family_past_exact_binomials(self, family, tmp_path):
        # C(n, k) overflows a float from n = 1030; eps 1e-6 lets the
        # Krylov solve certify at n = 1100
        out = tmp_path / "out.csv"
        assert cli_main(["geom", "--family", family, "--function", "sin_pi",
                         "--n-list", "1100", "--grid-size", "65",
                         "--eps", "1e-6", "-o", str(out)]) == 0
        (row,) = read_report(out, "geom")
        assert row[0] == 1100 and np.isfinite(row[1]) and row[3] <= 1e-6

    def test_conditions_needs_no_carrier(self, monkeypatch):
        # conditions builds no carrier, so an order whose carrier would not
        # fit still runs: the real report at n = 64
        def refuse(spec):
            raise AssertionError(f"carrier built for {spec}")

        monkeypatch.setattr(operators, "_DISC_CACHE", {})
        monkeypatch.setattr(operators, "node_discretization", refuse)
        monkeypatch.setattr(experiments, "node_discretization", refuse)
        cfg = ExperimentConfig(experiment="conditions", family="mkz-symmetric",
                               n_list=(64,), grid_size=65)
        (row,) = run_experiment(cfg).rows
        assert row[0] == 64 and all(np.isfinite(row[1:]))
        assert operators._DISC_CACHE == {}

    def test_conditions_sidecar(self, tmp_path):
        # per n, the interior nodes and the most closed-form M2 terms
        # behind cond55; 0 for an exact family, whose alpha is constant.
        # The CSV keeps its four columns.
        out = tmp_path / "c.csv"
        for family, n_list in (("mkz-symmetric", "4,8"), ("bernstein", "4")):
            assert cli_main(["conditions", "--family", family, "--n-list",
                             n_list, "--grid-size", "65", "-o", str(out)]) == 0
            meta = json.loads(Path(str(out) + ".meta.json").read_text())
            header = out.read_text().splitlines()[0]
            assert header == "n,sup_m4_over_m2,eta,cond55"
            if family == "bernstein":
                assert meta["cond55_nodes"] == meta["cond55_terms"] == [0]
                continue
            nodes, terms = meta["cond55_nodes"], meta["cond55_terms"]
            for n, count in zip((4, 8), nodes):
                spec = operators.OperatorSpec(family, n, truncation_eps=1e-6)
                pts = spec.grid(default_grid(65)).points
                assert count == max(operators.mkz_truncation_index(n, t, 1e-7)
                                    for t in (pts[-1], 1.0 - pts[0]))
            assert all(isinstance(v, int) and v > 0 for v in terms)

    def test_bad_input_exit_code(self, tmp_path, capsys):
        assert cli_main(["geom", "--function", "nope", "--grid-size", "65",
                         "--n-list", "4"]) == 2
        assert "error" in capsys.readouterr().err
        # --eps inf once overflowed the depth formula into a traceback,
        # and nan reached it as a NaN depth; every subcommand now rejects
        # both before any work
        out = tmp_path / "out.csv"
        for name in EXPERIMENTS:
            for value in ("nan", "inf"):
                for args in (["--family", "mkz-symmetric", "--eps", value],
                             ["--family", "bernstein", "--eps", value],
                             ["--family", "durrmeyer", "--rho", value]):
                    argv = [name, *args, "--n-list", "4", "-o", str(out)]
                    assert cli_main(argv) == 2, argv
                    assert "finite" in capsys.readouterr().err, argv
                    assert not out.exists()

    def test_parameter_outside_the_family_exit_code(self, tmp_path, capsys,
                                                    monkeypatch):
        # --rho on a family that takes none was once ignored, with exit 0
        out = tmp_path / "out.csv"
        monkeypatch.setattr(cli, "run_experiment", None)  # no run starts
        for family in ("bernstein", "mkz-symmetric"):
            assert cli_main(["geom", "--family", family, "--rho", "0.5",
                             "-o", str(out)]) == 2
            assert capsys.readouterr().err == f"error: {family} takes no rho\n"
            assert not out.exists()

    def test_non_integer_order_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_list": [4.5, 8], "grid_size": 65}))
        for argv in (["geom", "--family", "bernstein"],
                     ["voronovskaya", "--family", "mkz-symmetric"]):
            out = tmp_path / "out.csv"
            assert cli_main(argv + ["--config", str(cfg), "-o", str(out)]) == 2
            assert "integer" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("config", [
        {"jobs": "2"}, {"jobs": 2.5}, {"jobs": True}, {"eps": "1e-6"},
        {"rho": "1"}, {"grid_size": "abc"}, {"grid_size": 100.5}, [1],
        {"n_list": 4}, {"output": 3, "n_list": [4]}, {"n-list": [4, 8]},
        {"famly": "durrmeyer"}],
        ids=lambda c: json.dumps(c))
    def test_mistyped_config_exit_code(self, config, tmp_path, capsys,
                                       monkeypatch):
        # a mistyped config is bad input (exit 2) before any work, never a
        # traceback with exit 1, the code of a failed invariant; the flags
        # are left out where the config sets the field, since they override it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out.csv"
        argv = ["geom", "--family", "durrmeyer", "--config", str(cfg)]
        if "n_list" not in config:
            argv += ["--n-list", "4"]
        if "output" not in config:
            argv += ["-o", str(out)]
        monkeypatch.setattr(cli, "run_experiment", None)  # no run starts
        assert cli_main(argv) == 2
        assert "error: " in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_keys_are_named(self, tmp_path, capsys,
                                           monkeypatch):
        # a key the config does not know was once dropped: this file ran
        # conditions on bernstein at the default orders, with exit 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n-list": [4, 8], "famly": "durrmeyer"}))
        monkeypatch.setattr(cli, "run_experiment", None)  # no run starts
        assert cli_main(["conditions", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"error: config {cfg} has unknown keys ['famly', 'n-list']\n")

    def test_missing_output_directory_exit_code(self, tmp_path, capsys,
                                                monkeypatch):
        # checked before the runner starts: once the run did all its work,
        # then died writing the CSV with a traceback and exit 1
        monkeypatch.setitem(experiments._TABLE, "conditions", replace(
            experiments._TABLE["conditions"], runner=None))  # no run starts
        out = tmp_path / "missing" / "x.csv"
        assert cli_main(["conditions", "--family", "bernstein", "--n-list", "4",
                         "-o", str(out)]) == 2
        assert "does not exist" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_output_is_a_directory_exit_code(self, tmp_path, capsys,
                                             monkeypatch):
        # checked before the runner starts: once the run did all its work,
        # then failed writing the CSV ("Is a directory")
        calls = []
        monkeypatch.setitem(experiments._TABLE, "conditions", replace(
            experiments._TABLE["conditions"],
            runner=lambda config: calls.append(config) or [([], {})]))
        assert cli_main(["conditions", "--family", "bernstein", "--n-list", "4",
                         "-o", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: output {tmp_path} is a directory\n")
        assert calls == [] and list(tmp_path.iterdir()) == []

    def test_failed_write_exit_code(self, tmp_path, capsys, monkeypatch):
        # a write that fails with an OSError (here a full disk) exits 2
        def full(report, path):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(experiments.ExperimentReport, "write_csv", full)
        out = tmp_path / "out.csv"
        assert cli_main(["conditions", "--family", "bernstein", "--n-list", "4",
                         "--grid-size", "65", "-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: [Errno 28] No space left on device\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("field,value", [
        ("grid_size", 100.5), ("grid_size", True), ("jobs", 2.5),
        ("jobs", "2"), ("eps", "1e-6"), ("eps", True), ("rho", "1.0"),
        ("n_list", 4), ("n_list", [4, "8"]), ("output", 3)])
    def test_config_checks_types(self, field, value):
        with pytest.raises(DomainError, match=field):
            ExperimentConfig(experiment="geom", **{field: value})

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

    def test_runs_without_scipy(self, tmp_path):
        # numpy is the one runtime dependency: a durrmeyer run, quadrature
        # included, loads no scipy module
        out = run_fresh("assert opgeom.cli.main(['geom', '--family', 'durrmeyer', "
                        "'--n-list', '8', '-o', sys.argv[1]]) == 0\n"
                        "print(sorted(m for m in sys.modules "
                        "if m.split('.')[0] == 'scipy'))\n", tmp_path / "g.csv")
        assert out.stdout.strip().splitlines()[-1] == "[]"

    def test_mkz_run_loads_no_masked_arrays(self, tmp_path):
        # numpy.ma (about 1 MB) loads lazily on np.unique's masked-array
        # check; the series depths take their distinct values without it
        out = run_fresh("assert opgeom.cli.main(['geom', '--family', "
                        "'mkz-symmetric', '--n-list', '4', '-o', sys.argv[1]]) == 0\n"
                        "print('numpy.ma' in sys.modules)\n", tmp_path / "g.csv")
        assert out.stdout.strip().splitlines()[-1] == "False"

    @pytest.mark.slow
    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads the peak from /proc/self/status")
    def test_default_mkz_geom_peaks_below_120_mb(self, tmp_path):
        # geom on mkz-symmetric at its defaults, alone in a fresh process,
        # holds no stack: it peaks near 65 MB, where filling the n = 16
        # stack (141.1 MB) took it to 172 MB.  The peak is VmHWM, that of
        # the process's own memory: ru_maxrss keeps the RSS this test
        # process had when it started the child
        out = run_fresh("assert opgeom.cli.main(['geom', '--family', "
                        "'mkz-symmetric', '-o', sys.argv[1]]) == 0\n"
                        "print(open('/proc/self/status').read())\n",
                        tmp_path / "g.csv")
        (peak,) = [line.split()[1:] for line in out.stdout.splitlines()
                   if line.startswith("VmHWM:")]
        assert peak[1] == "kB" and int(peak[0]) < 120 * 1024

    def test_one_worker_loads_no_thread_pool(self, tmp_path):
        # concurrent.futures, with the logging it imports, loads only for a
        # run on more than one worker: not on import, nor for --jobs 1
        out = run_fresh("print('concurrent.futures' in sys.modules)\n"
                        "assert opgeom.cli.main(['geom', '--family', 'bernstein', "
                        "'--n-list', '4', '--jobs', '1', '-o', sys.argv[1]]) == 0\n"
                        "print('concurrent.futures' in sys.modules)\n",
                        tmp_path / "g.csv")
        lines = out.stdout.strip().splitlines()
        assert (lines[0], lines[-1]) == ("False", "False")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_warm_rule_tables_write_the_fresh_csv(self, jobs, tmp_path,
                                                  monkeypatch):
        # voronovskaya leaves each durrmeyer carrier's Gauss-Jacobi rules
        # in the carrier cache; geom after it, in the same process, writes
        # the bytes geom writes alone in a fresh one
        flags = ["--family", "durrmeyer", "--rho", "1", "--function", "sin_pi",
                 "--n-list", "32,64", "--jobs", jobs]
        monkeypatch.setattr(operators, "_DISC_CACHE", {})
        warm, fresh = tmp_path / "warm.csv", tmp_path / "fresh.csv"
        assert cli_main(["voronovskaya", *flags, "-o", str(tmp_path / "v.csv")]) == 0
        assert cli_main(["geom", *flags, "-o", str(warm)]) == 0
        run_fresh(f"assert opgeom.cli.main(['geom', *{flags!r}, '-o', "
                  f"sys.argv[1]]) == 0\n", fresh)
        assert warm.read_bytes() == fresh.read_bytes()

    def test_held_stack_geom_on_two_workers_writes_the_bytes_of_one(
            self, tmp_path, monkeypatch):
        # the n = 4 carrier holds its stack (filled by advance) while the
        # other orders' carriers hold none; every series solve on a paired
        # carrier runs on one BLAS thread, held or not, so no worker's
        # bits follow whether another worker's scope is open
        monkeypatch.setattr(operators, "_DISC_CACHE", {})
        spec = ExperimentConfig(experiment="geom", family="mkz-symmetric").spec(4)
        disc = operators.node_discretization(spec)
        disc.advance(np.zeros(disc.nodes.size))

        def run(name, jobs):
            out = tmp_path / name
            assert cli_main(["geom", "--family", "mkz-symmetric", "--jobs",
                             jobs, "-o", str(out)]) == 0
            assert operators.node_discretization(spec) is disc
            assert disc._filled is not None
            return out.read_bytes()

        want = run("jobs1.csv", "1")
        for k in range(3):
            assert run(f"jobs2-{k}.csv", "2") == want, k

    @pytest.mark.slow
    def test_mkz_geom_bits_do_not_follow_the_blas_thread_count(self, tmp_path):
        # geom on mkz-symmetric in fresh processes on one BLAS thread, on
        # two, and on the default count: the same CSV bytes
        outs = []
        for threads in ("1", "2", None):
            out = tmp_path / f"geom-{threads}.csv"
            run_fresh("assert opgeom.cli.main(['geom', '--family', "
                      "'mkz-symmetric', '--function', 'e1', '-o', "
                      "sys.argv[1]]) == 0\n", out,
                      OPENBLAS_NUM_THREADS=threads)
            outs.append(out.read_bytes())
        assert outs[1:] == outs[:1] * 2
