import json
import math
import subprocess
import sys

import numpy as np
import pytest

from lcklab import cli
from lcklab import suites as suites_mod
from lcklab.charts import ChartDomainError, SingularMetricError
from lcklab.lck import SingularLeeError
from lcklab.report import RunConfig, VerificationReport, to_csv, to_json
from lcklab.suites import (
    MODELS, SUITES, Suite, UsageError, _point_states, _run_suite, run_config, suites_for,
)

# Each model's parameter range at its edges, as (n, s, lambda): configs
# just inside it, the smallest n first, then configs just outside it.
RANGE_EDGES = {
    "hopf": ([(2, 1, 0.5), (3, 2, 0.05), (3, 1, 0.99)],
             [(1, 0, 0.5), (2, 0, 0.5), (2, 2, 0.5), (2, 1, 0.0), (2, 1, 1.0)]),
    "flat": ([(1, 0, 0.5), (1, 1, 0.5), (2, 0, 5.0)], [(0, 0, 0.5), (1, 2, 0.5), (2, -1, 0.5)]),
    "tricerri": ([(1, 0, 0.5), (2, 1, 5.0)], [(0, 0, 0.5), (2, 2, 0.5), (2, -1, 0.5)]),
    "synthetic-null": ([(2, 1, 0.5), (3, 2, 5.0)], [(3, 0, 0.5), (3, 3, 0.5), (1, 1, 0.5)]),
}


def _residuals(cfg, draws):
    """A probe suite's check: each draw is its own residual."""
    return list(draws)


def run_cli(args, env=None):
    import os
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "lcklab.cli", *args],
                          capture_output=True, text=True, env=full_env)


class TestRegistry:
    def test_required_suites_present(self):
        names = {s.name for s in SUITES}
        for required in ("prop1-lee-field", "eq5-nv-invariance",
                         "thm4-integrability", "eq18-mean-curvature",
                         "thm5-leaf-space", "cayley-boundary",
                         "submersion-fibre-invariance",
                         "retraction-monotonicity", "torus-isometry",
                         "gab-invariance", "levi-signature",
                         "thm1-totally-geodesic", "eq8-transversal",
                         "lemma7-leaf-radius"):
            assert required in names

    def test_anchor_lookup(self):
        anchors = {s.name: s.anchor for s in SUITES}
        assert anchors["thm1-totally-geodesic"] == "Theorem 1"
        assert anchors["eq8-transversal"] == "Equation (8)"
        assert anchors["lemma7-leaf-radius"] == "Lemma 7"

    def test_all_expansion_respects_model(self):
        cfg = RunConfig(model="tricerri", suites=("all",))
        chosen = suites_for(cfg)
        assert all("tricerri" in s.models for s in chosen)

    def test_unknown_suite_rejected(self):
        cfg = RunConfig(model="hopf", suites=("does-not-exist",))
        with pytest.raises(UsageError):
            suites_for(cfg)

    def test_empty_selection_rejected(self):
        # RunConfig defaults to no suites: that is a usage error, not a
        # passing report with zero suites
        with pytest.raises(UsageError, match="empty suite selection"):
            suites_for(RunConfig(model="hopf"))
        with pytest.raises(UsageError, match="empty suite selection"):
            run_config(RunConfig(model="hopf"))

    def test_repeated_suite_rejected(self):
        # a suite named twice would run twice and be listed twice
        cfg = RunConfig(model="hopf", suites=("prop1-lee-field", "thm2-deck-pullback",
                                              "prop1-lee-field"))
        with pytest.raises(UsageError, match="'prop1-lee-field' is selected more than once"):
            suites_for(cfg)
        out = run_cli(["--model", "hopf", "--points", "2",
                       "--suites", "prop1-lee-field,prop1-lee-field"])
        assert out.returncode == 2 and out.stdout == ""

    def test_inapplicable_suite_rejected(self):
        cfg = RunConfig(model="flat", suites=("thm1-totally-geodesic",))
        with pytest.raises(UsageError):
            suites_for(cfg)
        cfg = RunConfig(model="synthetic-null", n=2, suites=("lemma6-pair",))
        with pytest.raises(UsageError):
            suites_for(cfg)


class TestModels:
    @pytest.mark.parametrize("model", list(MODELS))
    def test_range_edges(self, model):
        inside, outside = RANGE_EDGES[model]
        for n, s, lam in inside:
            rep = run_config(RunConfig(model=model, n=n, s=s, lam=lam, points=1, seed=1,
                                       suites=("all",)))
            assert rep.passed, (n, s, lam)
        for n, s, lam in outside:
            with pytest.raises(UsageError, match=f"^{model} model: "):
                run_config(RunConfig(model=model, n=n, s=s, lam=lam, points=1,
                                     suites=("all",)))

    def test_every_model_name_is_a_table_key(self):
        for suite in SUITES:
            assert suite.models <= set(MODELS), suite.name
        for model, (inside, _) in RANGE_EDGES.items():
            n, s, lam = inside[0]
            cfg = RunConfig(model=model, n=n, s=s, lam=lam)
            assert any(suite.applicable(cfg) for suite in SUITES), model
        choices = next(a.choices for a in cli._build_parser()._actions if a.dest == "model")
        assert list(choices) == list(MODELS) == list(RANGE_EDGES)


class TestRunConfig:
    def test_parallel_lee_passes(self):
        cfg = RunConfig(model="hopf", points=20, seed=5, suites=("parallel-lee",))
        rep = run_config(cfg)
        assert rep.passed
        assert rep.results[0].max_residual < 1e-6

    def test_nonparallel_witness_passes(self):
        cfg = RunConfig(model="tricerri", points=10, seed=5,
                        suites=("nonparallel-lee",))
        rep = run_config(cfg)
        assert rep.passed
        assert rep.results[0].direction == "ge"
        assert rep.results[0].max_residual > 0.01

    def test_synthetic_lemma6(self):
        cfg = RunConfig(model="synthetic-null", n=3, points=50, seed=5,
                        suites=("lemma6-pair",))
        rep = run_config(cfg)
        assert rep.passed
        assert rep.results[0].max_residual < 1e-10

    def test_invalid_dimensions(self):
        with pytest.raises(UsageError):
            run_config(RunConfig(model="hopf", n=1, s=1, suites=("all",)))
        with pytest.raises(UsageError):
            run_config(RunConfig(model="hopf", n=2, s=2, suites=("all",)))
        with pytest.raises(UsageError):
            run_config(RunConfig(model="hopf", lam=1.5, suites=("all",)))

    @pytest.mark.parametrize("bad", [
        {"tol_fd": math.nan}, {"tol_fd": math.inf}, {"tol_fd": -math.inf},
        {"tol_analytic": math.nan}, {"tol_analytic": math.inf}, {"seed": -1},
    ])
    def test_nonfinite_tolerance_or_negative_seed_rejected(self, bad):
        with pytest.raises(UsageError):
            run_config(RunConfig(model="hopf", points=2, suites=("prop1-lee-field",), **bad))

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_nonfinite_lambda_rejected_for_every_model(self, model, lam):
        # models other than hopf read no lambda, yet a report must not
        # record one that JSON writes as null
        with pytest.raises(UsageError, match="lambda"):
            run_config(RunConfig(model=model, lam=lam, points=2, suites=("all",)))

    def test_seed_changes_points_not_verdicts(self):
        reports = [run_config(RunConfig(model="hopf", points=10, seed=seed,
                                        suites=("prop1-lee-field", "thm5-leaf-space")))
                   for seed in range(5)]
        assert all(r.passed for r in reports)
        residuals = {r.results[0].max_residual for r in reports}
        assert len(residuals) > 1  # different samples

    def test_registry_insert_keeps_other_seeds(self, monkeypatch):
        cfg = RunConfig(model="hopf", points=2, seed=4, suites=("all",))
        before = {r.name: r.max_residual for r in run_config(cfg).results}
        dummy = Suite(name="dummy-first", anchor="none", models=frozenset({"hopf"}),
                      tolerance=lambda cfg: 1.0, draw=lambda cfg, rng: rng.uniform(),
                      check=_residuals)
        monkeypatch.setattr(suites_mod, "SUITES", (dummy,) + SUITES)
        monkeypatch.setattr(suites_mod, "_BY_NAME", {s.name: s for s in suites_mod.SUITES})
        after = {r.name: r.max_residual for r in run_config(cfg).results}
        assert after.pop("dummy-first") < 1.0
        assert after == before

    @pytest.mark.parametrize("direction, values", [
        ("le", [0.0, math.nan, 0.0]),
        ("ge", [1.0, math.nan, 1.0]),
        ("le", [0.0, -math.inf, 0.0]),
        ("ge", [1.0, math.inf, 1.0]),
    ])
    def test_nonfinite_residual_fails(self, direction, values):
        it = iter(values)
        suite = Suite(name="nonfinite-probe", anchor="none", models=frozenset({"hopf"}),
                      tolerance=lambda cfg: 0.5, draw=lambda cfg, rng: next(it),
                      check=_residuals, direction=direction)
        cfg = RunConfig(model="hopf", points=len(values), seed=0)
        result = _run_suite(cfg, suite, _point_states(cfg, [suite])[0])
        assert result.verdict == "fail"
        assert result.points == len(values)
        assert not math.isfinite(result.max_residual)

    @staticmethod
    def _raising_suite(exc_type):
        def draw(cfg, rng):
            raise exc_type("probe")
        return Suite(name="raise-probe", anchor="none", models=frozenset({"hopf"}),
                     tolerance=lambda cfg: 0.5, draw=draw, check=_residuals)

    @pytest.mark.parametrize("exc_type", [
        ChartDomainError, SingularLeeError, SingularMetricError, np.linalg.LinAlgError,
        ValueError, ZeroDivisionError, RuntimeError,
    ])
    def test_domain_or_numerical_fault_is_an_error_verdict(self, exc_type):
        cfg, suite = RunConfig(model="hopf", points=2, seed=0), self._raising_suite(exc_type)
        result = _run_suite(cfg, suite, _point_states(cfg, [suite])[0])
        assert result.verdict == "error"
        assert result.points == 0
        assert result.error == f"{exc_type.__name__}: probe"

    @pytest.mark.parametrize("exc_type", [TypeError, AttributeError, NameError, IndexError])
    def test_programming_error_propagates(self, exc_type):
        cfg, suite = RunConfig(model="hopf", points=2, seed=0), self._raising_suite(exc_type)
        with pytest.raises(exc_type, match="probe"):
            _run_suite(cfg, suite, _point_states(cfg, [suite])[0])


class TestSerialization:
    def test_json_is_valid_and_17_digits(self):
        cfg = RunConfig(model="hopf", points=5, seed=9, suites=("parallel-lee",))
        rep = run_config(cfg)
        payload = to_json(rep)
        parsed = json.loads(payload)
        assert parsed["schema"] == 2
        assert "threads" not in parsed["config"]
        assert parsed["config"]["lambda"] == 0.5
        assert parsed["suites"][0]["name"] == "parallel-lee"
        assert parsed["summary"]["verdict"] == "pass"
        # 17 significant digits on tolerances
        assert "9.9999999999999995e-07" in payload

    def test_csv_rows(self):
        cfg = RunConfig(model="hopf", points=5, seed=9,
                        suites=("parallel-lee", "thm5-leaf-space"))
        rep = run_config(cfg)
        lines = to_csv(rep).strip().splitlines()
        assert lines[1].startswith("name,anchor,points")
        assert len(lines) == 4

    def test_an_error_or_a_nonfinite_residual_is_null_in_json(self, monkeypatch):
        # JSON has no NaN or infinity: the error verdict's NaN and an
        # infinite residual are written as null, so the report parses; CSV
        # keeps nan and inf
        def fault(cfg, rng):
            raise ValueError("probe")

        probes = tuple(Suite(name=name, anchor="none", models=frozenset({"hopf"}),
                             tolerance=lambda cfg: 0.5, draw=draw, check=_residuals)
                       for name, draw in (("raise-probe", fault),
                                          ("inf-probe", lambda cfg, rng: math.inf)))
        monkeypatch.setattr(suites_mod, "SUITES", probes)
        monkeypatch.setattr(suites_mod, "_BY_NAME", {s.name: s for s in probes})
        rep = run_config(RunConfig(model="hopf", points=2, seed=0, suites=("all",)))
        parsed = json.loads(to_json(rep))
        assert [(r["verdict"], r["max_residual"]) for r in parsed["suites"]] == \
            [("error", None), ("fail", None)]
        assert parsed["suites"][0]["error"] == "ValueError: probe"
        assert [row.split(",")[3] for row in to_csv(rep).splitlines()[2:]] == ["nan", "inf"]

    def test_csv_header_carries_report_schema(self):
        rep = VerificationReport(schema=7, config=RunConfig(model="hopf", seed=3),
                                 results=())
        assert to_csv(rep).startswith("# schema=7 model=hopf ")


class TestCommandLine:
    def test_list_suites(self):
        out = run_cli(["--list-suites"])
        assert out.returncode == 0
        assert "thm1-totally-geodesic" in out.stdout
        assert "Theorem 1" in out.stdout
        assert "lemma7-leaf-radius" in out.stdout

    def test_basic_run_and_determinism(self):
        args = ["--model", "hopf", "--points", "5", "--seed", "3",
                "--suites", "prop1-lee-field,thm2-deck-pullback"]
        out1 = run_cli(args)
        out2 = run_cli(args)
        assert out1.returncode == 0
        assert out1.stdout == out2.stdout
        parsed = json.loads(out1.stdout)
        assert parsed["summary"]["verdict"] == "pass"

    def test_exit_code_usage_error(self):
        out = run_cli(["--model", "hopf", "--n", "1", "--s", "1"])
        assert out.returncode == 2
        out = run_cli(["--model", "hopf", "--suites", "nope"])
        assert out.returncode == 2

    def test_nan_lambda_exits_2_on_a_model_that_reads_no_lambda(self):
        out = run_cli(["--model", "flat", "--lambda", "nan", "--points", "2",
                       "--suites", "christoffel-oracle"])
        assert out.returncode == 2, out.stdout
        assert "lambda must be finite" in out.stderr

    @pytest.mark.parametrize("args,env", [
        (["--tol-fd", "nan"], None),
        (["--tol-fd", "inf"], None),
        (["--tol-analytic", "inf"], None),
        (["--seed", "-1"], None),
        ([], {"LCKLAB_SEED": "-1"}),
        (["--suites", ","], None),
    ])
    def test_bad_tolerance_seed_or_selection_exits_2(self, args, env):
        out = run_cli(["--model", "hopf", "--points", "2", *args], env=env)
        assert out.returncode == 2, out.stderr

    def test_env_seed_fallback(self):
        args = ["--model", "hopf", "--points", "4", "--suites", "prop1-lee-field"]
        with_env = run_cli(args, env={"LCKLAB_SEED": "17"})
        with_flag = run_cli(args + ["--seed", "17"])
        assert with_env.stdout == with_flag.stdout

    def test_out_file_and_csv(self, tmp_path):
        path = tmp_path / "report.csv"
        out = run_cli(["--model", "hopf", "--points", "4", "--seed", "2",
                       "--suites", "parallel-lee", "--format", "csv",
                       "--out", str(path)])
        assert out.returncode == 0
        text = path.read_text()
        assert text.splitlines()[1].startswith("name,")
        assert "parallel-lee" in text

    @pytest.mark.parametrize("where", ["missing/report.json", ""])
    def test_an_unwritable_out_path_exits_2_before_any_suite_runs(self, tmp_path, where):
        # a file in a missing directory, or a directory
        path = tmp_path / where
        out = run_cli(["--model", "hopf", "--points", "2", "--suites", "prop1-lee-field",
                       "--out", str(path)])
        assert out.returncode == 2, out.stderr
        assert out.stderr.splitlines()[-1] == f"lcklab: error: cannot write the report to {str(path)!r}"
        assert "Traceback" not in out.stderr and " suites in " not in out.stderr
        assert sorted(tmp_path.iterdir()) == []

    def test_more_points_than_index_words_exits_2_before_any_state_is_built(self):
        # point_states gives each point index one 32-bit word
        out = run_cli(["--model", "hopf", "--points", str(2**32 + 1),
                       "--suites", "levi-signature"])
        assert out.returncode == 2, out.stderr
        assert out.stderr.splitlines()[-1] == "lcklab: error: points must be <= 2**32"
        assert "Traceback" not in out.stderr

    def test_option_defaults_are_the_run_config_defaults(self):
        args = cli._build_parser().parse_args(["--model", "hopf"])
        defaults = RunConfig(model="hopf")
        for name in ("n", "s", "lam", "points", "tol_analytic", "tol_fd"):
            assert getattr(args, name) == getattr(defaults, name), name

    def test_threads_flag_is_gone(self):
        out = run_cli(["--model", "hopf", "--points", "2", "--threads", "2"])
        assert out.returncode == 2
