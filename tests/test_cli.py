import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import seqaccel
from seqaccel import GuardPolicy, IngestError, PathSpec, SequenceSample, walk_path
from seqaccel.cli import (
    CompareError,
    ConfigError,
    RunConfig,
    apply_transform,
    compare,
    fmt_scalar,
    ingest,
    main,
    parse_problem,
    parse_transforms,
    parse_path,
    run,
    transform_names,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestIngest:
    def test_csv_terms_mode(self, tmp_path):
        src = write(tmp_path / "terms.csv", "1\n-0.5\n0.333333\n")
        sample = ingest(src)
        assert sample.values == pytest.approx((1.0, 0.5, 0.833333))
        assert sample.terms == pytest.approx((1.0, -0.5, 0.333333))

    def test_csv_values_mode_with_limit(self, tmp_path):
        src = write(tmp_path / "values.csv", "2\n1.5\n1.25\n")
        sample = ingest(src, values_mode=True, limit=1.0)
        assert sample.terms is None
        assert sample.limit == 1.0

    def test_csv_malformed_row_reports_line(self, tmp_path):
        src = write(tmp_path / "bad.csv", "1\nnot-a-number\n2\n")
        with pytest.raises(IngestError) as info:
            ingest(src)
        assert info.value.line == 2

    def test_json_values_and_limit(self, tmp_path):
        src = write(tmp_path / "in.json", json.dumps({"values": [1.0, 0.5], "limit": 5.0}))
        sample = ingest(src, fmt="json")
        assert sample.values == (1.0, 0.5)
        assert sample.limit == 5.0

    def test_json_terms_build_partial_sums(self, tmp_path):
        src = write(tmp_path / "in.json", json.dumps({"terms": [1.0, 1.0, 0.5]}))
        sample = ingest(src, fmt="json")
        assert sample.values == (1.0, 2.0, 2.5)

    def test_json_requires_a_series_key(self, tmp_path):
        src = write(tmp_path / "in.json", json.dumps({"limit": 3.0}))
        with pytest.raises(IngestError):
            ingest(src, fmt="json")

    def test_missing_file(self):
        with pytest.raises(IngestError):
            ingest("/nonexistent/nowhere.csv")

    def test_stdin_text_stream_without_a_byte_buffer(self, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("1\n0.5\n"))
        assert ingest("-").values == (1.0, 1.5)

    def test_stream_of_an_unknown_format(self):
        with pytest.raises(ConfigError, match="unknown input format 'xml'"):
            ingest(io.StringIO("1"), fmt="xml")


class TestParsers:
    def test_problem_string(self):
        spec = parse_problem("zeta_dirichlet:z=1.1:N=20")
        assert spec.family == "zeta_dirichlet"
        assert spec.length == 20
        assert spec.params == {"z": 1.1}

    def test_problem_list_parameters(self):
        spec = parse_problem("exponential_sum:c=1,0.5:lam=0.3,-0.6:N=8")
        assert spec.params["c"] == (1.0, 0.5)
        assert spec.params["lam"] == (0.3, -0.6)

    def test_problem_needs_length(self):
        with pytest.raises(ConfigError):
            parse_problem("zeta_dirichlet:z=2.0")

    def test_transform_list(self):
        assert parse_transforms("levin_u,rho_osada:alpha=0.5") == (
            ("levin_u", {}),
            ("rho_osada", {"alpha": 0.5}),
        )
        with pytest.raises(ConfigError):
            parse_transforms("levin_u:zeta")

    @pytest.mark.parametrize("spec, key", (("zeta_dirichlet:z=2:N=5:z=3", "z"),
                                           ("geometric:c=1:lam=0.5:N=5:N=7", "N")))
    def test_problem_refuses_a_repeated_key(self, capsys, spec, key):
        with pytest.raises(ConfigError, match=f"problem parameter {key} is given twice"):
            parse_problem(spec)
        assert main(["run", "--problem", spec, "--transforms", "aitken"]) == 2
        one_line_error(capsys, stdout_empty=True)

    def test_transforms_refuse_a_repeated_key(self, capsys):
        with pytest.raises(ConfigError, match="transform parameter zeta is given twice"):
            parse_transforms("levin_u:zeta=1:zeta=2")
        argv = ["run", "--problem", "zeta_dirichlet:z=2:N=10", "--transforms", "levin_u:zeta=1:zeta=2"]
        assert main(argv) == 2
        one_line_error(capsys, stdout_empty=True)

    def test_paths(self):
        assert parse_path("staircase") == PathSpec.staircase()
        assert parse_path("order_constant:2") == PathSpec.order_constant(2)
        assert parse_path("index_constant:3") == PathSpec.index_constant(3)
        assert parse_path(None) is None
        with pytest.raises(ConfigError):
            parse_path("zigzag")
        with pytest.raises(ConfigError):
            parse_path("order_constant")

    def test_registry_holds_full_catalog(self):
        from seqaccel.cli import transform_names

        assert transform_names() == sorted([
            "levin_u", "levin_t", "levin_v", "levin_d",
            "weniger_y", "weniger_tau", "weniger_phi", "weniger_delta",
            "aitken", "epsilon", "theta", "theta_iterated",
            "richardson", "rho", "rho_iterated", "rho_osada", "bdg",
            "pade_epsilon",
        ])

    def test_registry_validation(self):
        sample = SequenceSample((1.0, 2.0, 3.0))
        with pytest.raises(ConfigError):
            apply_transform("unknown", sample, GuardPolicy(), {})
        with pytest.raises(ConfigError):
            apply_transform("epsilon", sample, GuardPolicy(), {"zeta": 1.0})
        with pytest.raises(ConfigError):
            apply_transform("rho_osada", sample, GuardPolicy(), {})

    def test_scalar_formatting(self):
        assert fmt_scalar(None, 16) == "NA"
        assert fmt_scalar(1.0, 16) == "1"
        assert fmt_scalar(0.5 + 0.25j, 6) == "0.5+0.25j"
        # display precision never exceeds double precision digits
        assert fmt_scalar(1 / 3, 99) == f"{1/3:.17g}"


class TestRunApi:
    def test_transform_errors_do_not_abort_others(self):
        config = RunConfig(
            sample=SequenceSample((1.0, 2.0)),
            transforms=(("theta_iterated", {}), ("richardson", {})),
        )
        report = run(config)
        assert report.transforms[0].error is not None
        assert report.transforms[1].error is None
        assert report.any_valid()

    def test_summary_picks_smallest_error(self):
        vals = tuple(1.0 + 2.0 ** -n for n in range(8))
        config = RunConfig(
            sample=SequenceSample(vals, limit=1.0),
            transforms=(("aitken", {}),),
        )
        report = run(config)
        summary = report.transforms[0].summary
        entries = [e for e in report.transforms[0].entries if e[4]]
        assert summary["abs_error"] == min(e[3] for e in entries)

    def test_divergent_run_ranks_delta_above_epsilon(self):
        from seqaccel import ProblemSpec, generate_problem

        sample = generate_problem(ProblemSpec("euler_factorial", 25, {"x": 1.0}))
        config = RunConfig(
            sample=sample,
            transforms=(("weniger_delta", {}), ("epsilon", {})),
        )
        report = run(config)
        delta, epsilon = report.transforms
        raw_err = abs(sample.values[-1] - sample.limit)
        # both sum the divergent series; the factorial-series weights win
        assert delta.summary["abs_error"] < epsilon.summary["abs_error"]
        assert epsilon.summary["abs_error"] < 1e-3 < raw_err

    def test_compare_rejects_a_transform_listed_twice(self):
        config = RunConfig(
            sample=SequenceSample((1.0, 0.5, 0.75, 0.625)),
            transforms=(("aitken", {}), ("epsilon", {}), ("aitken", {})),
        )
        with pytest.raises(CompareError, match="aitken listed twice"):
            compare(config)

    def test_compare_budgets_are_element_counts(self):
        vals = tuple(1.0 + 2.0 ** -n for n in range(8))
        config = RunConfig(
            sample=SequenceSample(vals, limit=1.0),
            transforms=(("epsilon", {}), ("levin_d", {})),
        )
        table = compare(config)
        budgets = [b for b, _ in table.rows]
        assert budgets == sorted(budgets)
        first = dict(table.rows)[1]
        assert "epsilon" in first  # eps_0^(0) consumes exactly one element

    def test_compare_keeps_the_more_accurate_entry_of_a_repeated_budget(self):
        # on the staircase, T_k^(1) and T_{k+1}^(0) of these tables consume the
        # same k + 2 elements: a cell holds the smaller error of the two
        sample = seqaccel.generate_problem(parse_problem("zeta_dirichlet:z=2:N=12"))
        names = ("levin_u", "weniger_y", "richardson")
        config = RunConfig(sample=sample, transforms=tuple((name, {}) for name in names),
                           path=PathSpec.staircase())
        cells = {(name, budget): cell for budget, row in compare(config).rows
                 for name, cell in row.items()}
        kept_a_later_entry = False
        for name in names:
            table = apply_transform(name, sample, GuardPolicy(), {})
            seen = {}
            for k, n, value, ok in walk_path(table, PathSpec.staircase()):
                if ok:
                    seen.setdefault(table.consumed(k, n), []).append(abs(value - sample.limit))
            assert {budget for n, budget in cells if n == name} == set(seen)
            for budget, errors in seen.items():
                assert cells[name, budget][1] == min(errors)
                kept_a_later_entry |= min(errors) < errors[0]
        assert kept_a_later_entry


class TestCliEndToEnd:
    def test_run_is_deterministic(self, tmp_path, capsys):
        argv = [
            "run", "--problem", "geometric:s=5:c=-4:lam=0.8:N=10",
            "--transforms", "aitken,theta,levin_t",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert first.startswith("transform\tk\tn\tvalue\tabs_error\tvalid\n")

    def test_run_json_mirror(self, capsys):
        assert main([
            "run", "--problem", "geometric:s=5:c=-4:lam=0.8:N=6",
            "--transforms", "epsilon", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["problem"].startswith("geometric")
        eps = payload["transforms"][0]
        assert eps["name"] == "epsilon"
        assert float(eps["summary"]["abs_error"]) == pytest.approx(0.0, abs=1e-12)

    def test_start_offset_equals_truncated_input(self, tmp_path, capsys):
        values = [f"{5.0 - 4.0 * 0.8 ** n!r}" for n in range(11)]
        full = write(tmp_path / "full.csv", "\n".join(values) + "\n")
        cut = write(tmp_path / "cut.csv", "\n".join(values[2:]) + "\n")
        base = ["--values", "--limit", "5", "--transforms", "aitken,epsilon,levin_t"]
        assert main(["run", "--input", full, "--start-offset", "2", *base]) == 0
        offset_report = capsys.readouterr().out
        assert main(["run", "--input", cut, *base]) == 0
        assert capsys.readouterr().out == offset_report

    def test_start_offset_of_a_problem_from_flag_or_config(self, tmp_path, capsys):
        values = [f"{5.0 - 4.0 * 0.8 ** n!r}" for n in range(2, 11)]
        cut = write(tmp_path / "cut.csv", "\n".join(values) + "\n")
        base = ["--limit", "5", "--transforms", "aitken,epsilon,levin_t"]
        assert main(["run", "--input", cut, "--values", *base]) == 0
        cut_report = capsys.readouterr().out
        problem = ["run", "--problem", "geometric:s=5:c=-4:lam=0.8:N=10", *base]
        assert main([*problem, "--start-offset", "2"]) == 0
        assert capsys.readouterr().out == cut_report
        assert main([*problem, "--config", write(tmp_path / "o.cfg", "start_offset=2\n")]) == 0
        assert capsys.readouterr().out == cut_report

    def test_limit_replaces_a_problems_own(self, capsys):
        # the geometric problem's own limit is s = 5
        argv = ["run", "--problem", "geometric:s=5:c=-5:lam=0.5:N=4", "--limit", "7",
                "--transforms", "aitken"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:3] == ["aitken\t0\t0\t0\t7\t1", "aitken\t1\t0\t5\t2\t1"]
        assert lines[-1] == "# summary\taitken\tbest_k=1\tbest_n=0\tvalue=5\tabs_error=2"

    def test_ingest_error_exit_code(self, tmp_path, capsys):
        bad = write(tmp_path / "bad.csv", "1\noops\n")
        assert main(["run", "--input", bad, "--transforms", "aitken"]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_config_error_exit_code(self, capsys):
        assert main(["run", "--problem", "geometric:s=1:c=1:lam=0.5:N=5",
                     "--transforms", "warp_drive"]) == 2

    def test_total_transform_failure_exit_code(self, tmp_path, capsys):
        short = write(tmp_path / "short.csv", "1\n2\n")
        code = main(["run", "--input", short, "--values",
                     "--transforms", "theta_iterated"])
        assert code == 3
        out = capsys.readouterr().out
        assert "# error\ttheta_iterated" in out

    def test_compare_cli(self, capsys):
        assert main([
            "compare", "--problem", "zeta_dirichlet:z=2:N=12",
            "--transforms", "levin_u,rho", "--digits", "6",
        ]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "budget\tlevin_u:abs_error\trho:abs_error"

    def test_estimate_alpha_cli(self, capsys):
        assert main([
            "estimate-alpha", "--problem", "decay_model:alpha=0.5:N=60",
        ]) == 0
        out = capsys.readouterr().out
        summary = [line for line in out.splitlines() if "alpha_estimate" in line]
        assert len(summary) == 1
        assert float(summary[0].split("\t")[1]) == pytest.approx(0.5, abs=1e-2)

    def test_estimate_alpha_cli_on_real_and_complex_values(self, tmp_path, capsys):
        # every eighth value written as a complex: the last quartile mixes estimate types
        values = [1 + 1 / (n + 1) ** 1.5 for n in range(60)]
        text = "".join(f"{v!r}+0j\n" if n % 8 == 7 else f"{v!r}\n" for n, v in enumerate(values))
        assert main(["estimate-alpha", "--values", "--input", write(tmp_path / "f.csv", text)]) == 0
        assert "# alpha_estimate" in capsys.readouterr().out

    def test_pade_direct_cli(self, capsys):
        assert main([
            "pade", "--problem", "power_series:name=exp:z=1:N=4",
            "--l", "2", "--m", "2", "--digits", "10",
        ]) == 0
        row = capsys.readouterr().out.splitlines()[1].split("\t")
        assert float(row[2]) == pytest.approx(19.0 / 7.0)

    def test_pade_staircase_from_coefficient_file(self, tmp_path, capsys):
        coeffs = write(tmp_path / "c.csv", "1\n1\n1\n1\n")
        assert main(["pade", "--coeffs", coeffs, "--z", "0.5", "--staircase"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "l\tm\tvalue\tabs_error\tvalid"
        assert len(lines) == 5

    def test_gen_roundtrip(self, tmp_path, capsys):
        out_file = tmp_path / "problem.json"
        assert main([
            "gen", "--problem", "euler_factorial:x=1:N=10",
            "--output", str(out_file),
        ]) == 0
        payload = json.loads(out_file.read_text())
        assert payload["N"] == 10
        assert len(payload["terms"]) == 11
        assert main([
            "run", "--input", str(out_file), "--input-format", "json",
            "--transforms", "weniger_delta",
        ]) == 0
        out = capsys.readouterr().out
        assert "weniger_delta" in out

    def test_pade_staircase_on_euler_problem(self, capsys):
        assert main(["pade", "--problem", "euler_factorial:x=1:N=6", "--staircase"]) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        assert rows[0] == ["l", "m", "value", "abs_error", "valid"]
        assert [row[:2] for row in rows[1:]] == [
            ["0", "0"], ["1", "0"], ["1", "1"], ["2", "1"], ["2", "2"], ["3", "2"], ["3", "3"]]
        assert all(row[4] == "1" for row in rows[1:])
        assert float(rows[-1][3]) < 0.01

    @pytest.mark.parametrize("problem", ("power_series:name=log1p:z=0.9:N=20",
                                         "power_series:name=log1p:z=0.5+0.4j:N=20",
                                         "euler_factorial:x=0.3:N=20"))
    def test_pade_staircase_matches_pade_epsilon_run(self, capsys, problem):
        # eps_2k^(n) = [n+k/k]: both read the Pade table off the same partial sums
        assert main(["run", "--problem", problem, "--transforms", "pade_epsilon",
                     "--path", "staircase"]) == 0
        run_values = [row.split("\t")[3] for row in capsys.readouterr().out.splitlines()[1:]
                      if not row.startswith("#")]
        assert main(["pade", "--problem", problem, "--staircase"]) == 0
        pade_values = [row.split("\t")[2] for row in capsys.readouterr().out.splitlines()[1:]]
        assert len(run_values) == 21
        assert run_values == pade_values

    def test_pade_direct_on_a_problem_matches_its_coefficients(self, tmp_path, capsys):
        # a direct approximant needs no partial sum, so x^4 overflowing does not matter
        argv = ["pade", "--problem", "euler_factorial:x=1e100:N=5", "--l", "2", "--m", "2"]
        assert main(argv) == 0
        from_problem = capsys.readouterr().out.splitlines()[1].split("\t")
        coeffs = write(tmp_path / "c.csv", "1\n-1\n2\n-6\n24\n-120\n")
        assert main(["pade", "--coeffs", coeffs, "--z", "1e100", "--l", "2", "--m", "2"]) == 0
        from_coeffs = capsys.readouterr().out.splitlines()[1].split("\t")
        assert from_problem[:3] == from_coeffs[:3] == ["2", "2", "0.3333333333333333"]

    def test_gen_writes_complex_values_as_strings(self, tmp_path):
        from seqaccel import generate_problem

        out_file = tmp_path / "complex.json"
        problem = "zeta_dirichlet:z=2+1j:N=2"
        assert main(["gen", "--problem", problem, "--output", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        scalars = [*payload["values"], *payload["terms"], payload["limit"], payload["params"]["z"]]
        assert all(isinstance(value, str) for value in scalars)
        sample = generate_problem(parse_problem(problem))
        assert [complex(value) for value in payload["values"]] == list(sample.values)
        assert complex(payload["params"]["z"]) == 2 + 1j

    def test_config_file_defaults_and_override(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "run.cfg",
            "problem=geometric:s=2:c=1:lam=0.5:N=8\ntransforms=aitken\ndigits=6\n",
        )
        assert main(["run", "--config", cfg]) == 0
        from_config = capsys.readouterr().out
        assert "aitken" in from_config
        assert main(["run", "--config", cfg, "--transforms", "theta"]) == 0
        overridden = capsys.readouterr().out
        assert "theta" in overridden and "aitken" not in overridden

    def test_config_file_rejects_unknown_keys(self, tmp_path, capsys):
        cfg = write(tmp_path / "bad.cfg", "plot=yes\n")
        assert main(["run", "--config", cfg, "--transforms", "aitken",
                     "--problem", "geometric:s=1:c=1:lam=0.5:N=5"]) == 2

    def test_problem_and_input_are_exclusive(self, tmp_path):
        src = write(tmp_path / "x.csv", "1\n2\n3\n")
        assert main(["run", "--problem", "geometric:s=1:c=1:lam=0.5:N=5",
                     "--input", src, "--transforms", "aitken"]) == 2


GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

# The reports of every subcommand, in both formats, beyond the ``run``
# reports that the acceptance tests pin.  Input files are read from
# tests/golden, so the report labels do not depend on where the suite runs.
_REPORTS = {
    # a linearly convergent problem with s_0 != 0, so its Levin rows are valid
    "run_geometric_levin": ["run", "--problem", "geometric:s=2:c=-1:lam=0.8:N=15",
                            "--transforms", "levin_t,levin_u"],
    "run_nolimit": ["run", "--input", "sums.csv", "--values",
                    "--transforms", "aitken,levin_t"],
    # one column of each table: columns 0..2 are all the walk reads
    "run_order_constant": ["run", "--problem", "zeta_dirichlet:z=2:N=30", "--transforms",
                           "epsilon,theta,levin_u,bdg:alpha=1", "--path", "order_constant:2"],
    "compare_zeta2": ["compare", "--problem", "zeta_dirichlet:z=2:N=12",
                      "--transforms", "levin_u,rho,epsilon"],
    "compare_nolimit": ["compare", "--input", "sums.csv", "--values",
                        "--transforms", "aitken,epsilon,levin_t"],
    "estimate_alpha": ["estimate-alpha", "--input", "decay.csv", "--values"],
    "pade_direct": ["pade", "--problem", "power_series:name=exp:z=1:N=8",
                    "--l", "3", "--m", "3"],
    "pade_staircase": ["pade", "--coeffs", "coeffs.csv", "--z", "0.5", "--staircase"],
}
CLI_GOLDENS = [
    (f"{stem}.{fmt}", argv + ["--format", fmt])
    for stem, argv in _REPORTS.items() for fmt in ("tsv", "json")
] + [
    # gen writes data, not a report: always JSON
    ("gen_geometric.json", ["gen", "--problem", "geometric:s=3:c=-2:lam=0.7:N=6"]),
]


@pytest.mark.parametrize("golden, argv", CLI_GOLDENS, ids=[g for g, _ in CLI_GOLDENS])
def test_report_matches_golden(tmp_path, monkeypatch, golden, argv):
    monkeypatch.chdir(GOLDEN_DIR)
    out = tmp_path / golden
    assert main(argv + ["--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / golden).read_bytes()


def one_line_error(capsys, stdout_empty=False):
    """The stderr of a failed call, checked to be one ``seqaccel:`` line."""
    out, err = capsys.readouterr()
    assert err.startswith("seqaccel: ") and err.count("\n") == 1, err
    assert not (stdout_empty and out), out
    return err


class TestCliRobustness:
    SMALL = ["run", "--problem", "zeta_dirichlet:z=2:N=10", "--transforms", "epsilon"]

    def test_non_numeric_limit(self, capsys):
        assert main(self.SMALL + ["--limit", "abc"]) == 2
        assert "--limit" in one_line_error(capsys)

    @pytest.mark.parametrize("command", (["run", "--transforms", "epsilon"],
                                         ["compare", "--transforms", "epsilon"],
                                         ["estimate-alpha"]))
    def test_out_of_range_limit(self, capsys, command):
        # the parts are finite, the magnitude is not
        argv = [*command, "--problem", "zeta_dirichlet:z=2:N=10", "--limit", "1.7e308+1.7e308j"]
        assert main(argv) == 2
        assert "--limit: not a finite number" in one_line_error(capsys, stdout_empty=True)

    def test_non_numeric_config_setting(self, tmp_path, capsys):
        cfg = write(tmp_path / "digits.cfg", "digits=abc\n")
        assert main(self.SMALL + ["--config", cfg]) == 2
        assert "line 1" in one_line_error(capsys)

    @pytest.mark.parametrize("setting", ("format=xml", "input_format=xml", "values=ture"))
    def test_config_values_are_validated_like_flags(self, tmp_path, capsys, setting):
        cfg = write(tmp_path / "bad.cfg", "# a comment\n" + setting + "\n")
        assert main(self.SMALL + ["--config", cfg]) == 2
        key, raw = setting.split("=")
        err = one_line_error(capsys, stdout_empty=True)
        assert f"config line 2: bad {key} value {raw!r}" in err

    @pytest.mark.parametrize("raw, values", [
        ("1", True), ("Yes", True), ("on", True), ("true", True),
        ("0", False), ("no", False), ("OFF", False), ("false", False),
    ])
    def test_config_values_switch(self, tmp_path, capsys, raw, values):
        argv = ["run", "--input", str(GOLDEN_DIR / "sums.csv"), "--transforms", "aitken"]
        cfg = write(tmp_path / "values.cfg", f"values={raw}\ninput_format=csv\n")
        assert main(argv + ["--config", cfg]) == 0
        from_config = capsys.readouterr().out
        assert main(argv + (["--values"] if values else [])) == 0
        assert from_config == capsys.readouterr().out

    def test_overflowing_problem(self, capsys):
        assert main(["pade", "--problem", "power_series:name=exp:z=1:N=5000",
                     "--l", "4", "--m", "4"]) == 2
        assert "overflows" in one_line_error(capsys)

    def test_flag_overrides_config_format(self, tmp_path, capsys):
        cfg = write(tmp_path / "json.cfg", "format=json\n")
        assert main(self.SMALL + ["--config", cfg]) == 0
        assert capsys.readouterr().out.startswith("{")
        assert main(self.SMALL + ["--format", "tsv", "--config", cfg]) == 0
        assert capsys.readouterr().out.startswith("transform\tk\tn\t")

    @pytest.mark.parametrize("name, text, fmt", [
        ("inf.csv", "1\n0.5\ninf\n0.25\n", "csv"),
        ("nan.csv", "1\n0.5\nnan\n0.25\n", "csv"),
        ("inf.json", '{"values": [1, 2, 1e999]}', "json"),
        ("nan.json", '{"terms": [1, "nan"]}', "json"),
        ("limit.json", '{"values": [1, 2, 3], "limit": "inf"}', "json"),
    ])
    def test_non_finite_input_is_rejected(self, tmp_path, capsys, name, text, fmt):
        path = write(tmp_path / name, text)
        assert main(["run", "--input", path, "--input-format", fmt,
                     "--transforms", "epsilon", "--path", "order_constant:0"]) == 2
        assert "not a finite number" in one_line_error(capsys, stdout_empty=True)
        with pytest.raises(IngestError):
            ingest(path, fmt=fmt)

    @pytest.mark.parametrize("name, text, fmt, reason", [
        ("cplx.csv", "1.7e308+1.7e308j\n1\n2\n", "csv", "not a finite number"),
        ("cplx.json", '{"values": ["1.7e308+1.7e308j", 1, 2, 3]}', "json", "not a finite number"),
        ("sum.csv", "1e308\n1e308\n1\n2\n", "csv", "partial sum s_1 overflows"),
        ("sum.json", '{"terms": [1e308, 1e308, 1]}', "json", "partial sum s_1 overflows"),
        ("cplxsum.csv", "1.2e308+1.2e308j\n1e307+1e307j\n1\n", "csv",
         "partial sum s_1 overflows"),
    ])
    @pytest.mark.parametrize("command", (
        ["run", "--transforms", "aitken", "--path", "order_constant:0"], ["estimate-alpha"],
    ))
    def test_out_of_range_input_is_rejected(self, tmp_path, capsys, name, text, fmt, reason,
                                            command):
        path = write(tmp_path / name, text)
        assert main([*command, "--input", path, "--input-format", fmt]) == 2
        assert reason in one_line_error(capsys, stdout_empty=True)
        with pytest.raises(IngestError):
            ingest(path, fmt=fmt)

    def test_entry_with_overflowing_modulus_is_invalid(self, tmp_path, capsys):
        # each value is in range; richardson's first column has finite parts
        # whose modulus overflows
        path = write(tmp_path / "modulus.csv", "\n".join([
            "-6.801614468865279e+307-1.8692021860147845e+307j",
            "-1.130302109820317e+308-6.679400009447158e+307j",
            "-1.4906977523862697e+307-1.0050620683558442e+306j",
            "-6.405973193818256e+307-6.459203003016377e+307j",
            "-6.749255103895473e+307-9.69516822294394e+306j",
            "-5.045241249828346e+307-1.1484247073618186e+308j",
        ]) + "\n")
        argv = ["run", "--input", path, "--values", "--transforms", "richardson"]
        assert main(argv + ["--limit", "0"]) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        assert [row[5] for row in rows[1:7]] == ["1", "0", "0", "0", "0", "0"]
        assert rows[7][:3] == ["# summary", "richardson", "best_k=0"]
        assert main(argv) == 0
        assert "best_k=0" in capsys.readouterr().out

    @pytest.mark.parametrize("fmt", ("tsv", "json"))
    @pytest.mark.parametrize("command", ("run", "compare"))
    def test_error_with_overflowing_modulus_is_inf(self, tmp_path, capsys, command, fmt):
        # the entry and the limit are in range, the modulus of their difference is not
        path = write(tmp_path / "far.csv", "1.2e308+1.2e308j\n1\n2\n3\n")
        assert main([command, "--input", path, "--values", "--limit=-5e307-5e307j",
                     "--transforms", "aitken", "--path", "order_constant:0",
                     "--format", fmt]) == 0
        out = capsys.readouterr().out
        if fmt == "tsv":
            first = out.splitlines()[1].split("\t")[4 if command == "run" else 1]
        elif command == "run":
            first = json.loads(out)["transforms"][0]["entries"][0]["abs_error"]
        else:
            first = json.loads(out)["rows"][0]["cells"]["aitken"]
        assert first == "inf"

    @pytest.mark.parametrize("fmt", ("tsv", "json"))
    @pytest.mark.parametrize("coeffs, z, l, m", [
        ("1\n2\n3\n", "1e300", 2, 0),  # the value overflows to inf
        ("1.2e308+1.2e308j\n1\n2\n3\n", "1", 1, 1),  # the value is nan+nanj
        ("1\n1\n", "1", 0, 1),  # z is the pole of [0/1] = 1 / (1 - z)
    ])
    def test_pade_direct_non_finite_value_is_invalid(self, tmp_path, capsys, coeffs, z, l, m,
                                                     fmt):
        path = write(tmp_path / "c.csv", coeffs)
        argv = ["pade", "--coeffs", path, "--z", z, "--l", str(l), "--m", str(m)]
        assert main(argv + ["--format", fmt]) == 3
        out, err = capsys.readouterr()
        assert err == "seqaccel: no valid approximant\n"
        if fmt == "tsv":
            assert out.splitlines()[1] == f"{l}\t{m}\tNA\tNA\t0"
        else:
            assert json.loads(out)["approximants"] == [
                {"l": l, "m": m, "value": None, "abs_error": None, "valid": False}]

    def test_pade_staircase_overflowing_partial_sum_is_invalid(self, tmp_path, capsys):
        # s_1 = 1e308 + 1e308 overflows, so the series has no sample: the same
        # input error as run on these terms
        path = write(tmp_path / "c.csv", "1e308\n1e308\n1\n1\n")
        assert main(["pade", "--coeffs", path, "--z", "1", "--staircase"]) == 2
        assert "not a finite number" in one_line_error(capsys, stdout_empty=True)

    def test_overflowing_difference_of_values_is_inconsistent(self, tmp_path, capsys):
        # each value is in range, but |s_1 - s_0| is not
        path = write(tmp_path / "diff.json", '{"values": ["-6.5e307-6.5e307j", '
                     '"6.5e307+6.5e307j"], "terms": ["-6.5e307-6.5e307j", 0]}')
        assert main(["run", "--input", path, "--input-format", "json",
                     "--transforms", "epsilon", "--path", "order_constant:0"]) == 2
        assert "not the partial sums" in one_line_error(capsys, stdout_empty=True)

    @pytest.mark.parametrize("text", (
        '{"values": [true, false, true, 0.5], "limit": true}',
        '{"values": [1, 0.5, 0.25, false]}',
        '{"terms": [1, 0.5, true]}',
        '{"values": [1, 0.5, 0.25], "limit": false}',
    ))
    def test_json_booleans_are_not_numbers(self, tmp_path, capsys, text):
        path = write(tmp_path / "bool.json", text)
        assert main(["run", "--input", path, "--input-format", "json",
                     "--transforms", "epsilon", "--path", "order_constant:0"]) == 2
        assert "not a number" in one_line_error(capsys, stdout_empty=True)
        with pytest.raises(IngestError):
            ingest(path, fmt="json")

    def test_pade_with_singular_order_conditions_exits_3(self, capsys):
        # the geometric series is [0/1]: the [1/2] order conditions have a zero pivot
        argv = ["pade", "--problem", "power_series:name=geometric:z=0.5:N=4", "--l", "1", "--m", "2"]
        assert main(argv) == 3
        assert "[1/2] order conditions are singular" in one_line_error(capsys, stdout_empty=True)

    def test_divergent_problem_without_a_limit_reports_no_error(self, capsys):
        # 1 + 1 + 1 + ... has no limit, so no entry has an abs_error
        argv = ["run", "--problem", "power_series:name=geometric:z=1:N=6",
                "--transforms", "epsilon,levin_u", "--format", "tsv"]
        assert main(argv) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert header == "transform\tk\tn\tvalue\tabs_error\tvalid"
        entries = [row.split("\t") for row in rows if not row.startswith("#")]
        summaries = [row for row in rows if row.startswith("# summary")]
        assert any(e[5] == "1" for e in entries) and len(summaries) == 2
        assert all(e[4] == "NA" for e in entries)
        assert all(row.endswith("\tabs_error=NA") for row in summaries)

    @pytest.mark.parametrize("command", (["run", "--transforms", "epsilon"],
                                         ["pade", "--l", "3", "--m", "3"]))
    def test_a_limit_beyond_the_double_range_reports_no_error(self, capsys, command):
        # exp(800) overflows a double, though each term and partial sum is finite
        argv = [*command, "--problem", "power_series:name=exp:z=800:N=6", "--format", "tsv"]
        assert main(argv) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        column = header.split("\t").index("abs_error")
        entries = [row.split("\t") for row in rows if not row.startswith("#")]
        assert entries and all(e[column] == "NA" for e in entries)

    @pytest.mark.parametrize("command", (["run", "--transforms", "epsilon"], ["pade", "--staircase"]))
    def test_an_infinite_closed_form_limit_reports_no_error(self, capsys, command):
        # 1 / (1 - z) is an infinite complex at z = 1+1e-320j, though every term is finite
        argv = [*command, "--problem", "power_series:name=geometric:z=1+1e-320j:N=5",
                "--format", "tsv"]
        assert main(argv) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        column, valid = header.split("\t").index("abs_error"), header.split("\t").index("valid")
        entries = [row.split("\t") for row in rows if not row.startswith("#")]
        assert any(e[valid] == "1" for e in entries) and all(e[column] == "NA" for e in entries)

    def test_total_failure_names_the_reason(self, capsys):
        argv = ["run", "--problem", "zeta_dirichlet:z=2:N=10",
                "--transforms", "levin_u:zeta=-1"]
        assert main(argv) == 3
        assert "levin_u: zeta must be positive" in one_line_error(capsys)

    @pytest.mark.parametrize("transform", (
        "levin_u:zeta=inf", "levin_u:zeta=1j",
        "rho_osada:alpha=1j", "bdg:alpha=1j", "richardson:beta=1j",
        "richardson:beta=inf", "rho_osada:alpha=inf", "bdg:alpha=inf",
        "richardson:beta=nan", "rho_osada:alpha=nan",
    ))
    def test_parameters_must_be_positive_and_finite(self, capsys, transform):
        name, key = transform.split("=")[0].split(":")
        argv = ["run", "--problem", "zeta_dirichlet:z=2:N=8", "--transforms", transform]
        assert main(argv) == 3
        assert f"{name}: {key} must be positive and finite" in one_line_error(capsys)

    @pytest.mark.parametrize("flag", (
        ["--format", "tsv"], ["--digits", "3"], ["--guard-threshold", "5"],
    ))
    def test_gen_takes_no_report_flags(self, capsys, flag):
        with pytest.raises(SystemExit) as info:
            main(["gen", "--problem", "geometric:s=1:c=1:lam=0.5:N=4", *flag])
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("problem", (
        "geometric:s=nan:c=1:lam=0.5:N=4", "geometric:s=0:c=1e308:lam=10:N=3",
    ))
    def test_non_finite_generated_problem_is_rejected(self, capsys, problem):
        argv = ["run", "--problem", problem, "--transforms", "aitken",
                "--path", "order_constant:0"]
        assert main(argv) == 2
        assert "not a finite number" in one_line_error(capsys, stdout_empty=True)

    @pytest.mark.parametrize("setting", (
        "--guard-threshold=nan", "--guard-threshold=inf", "guard_threshold=nan",
    ))
    def test_non_finite_guard_threshold(self, tmp_path, capsys, setting):
        if setting.startswith("--"):
            extra = [setting]
        else:
            extra = ["--config", write(tmp_path / "guard.cfg", setting + "\n")]
        assert main(self.SMALL + extra) == 2
        assert "guard threshold must be a finite nonnegative number" in one_line_error(
            capsys, stdout_empty=True)

    def test_estimate_alpha_without_a_last_quartile_estimate(self, capsys):
        argv = ["estimate-alpha", "--problem", "decay_model:alpha=0.5:N=16",
                "--guard-threshold", "1e-3"]
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert err == "seqaccel: no valid decay-exponent estimate\n"
        lines = out.splitlines()
        # a valid estimate exists (n=0), but none in the last quartile
        assert lines[:2] == ["n\tT_n\tvalid", "0\t0.4693151302808907\t1"]
        assert not any(line.startswith("# alpha_estimate") for line in lines)

    @pytest.mark.parametrize("argv, reason", [
        (["estimate-alpha", "--problem", "geometric:s=1:c=1:lam=0.5:N=1"],
         "at least 4 elements"),
        (["compare", "--problem", "geometric:s=1:c=1:lam=0.5:N=2",
          "--transforms", "theta_iterated"], "at least 4 elements"),
        (["run", "--problem", "power_series:name=exp:N=4:z=abc", "--transforms", "aitken"],
         "z='abc' is not numeric"),
        (["run", "--problem", "exponential_sum:c=1:lam=0.5:N=4", "--transforms", "aitken"],
         "wrong kind"),
        (["run", "--problem", "euler_factorial:x=1j:N=4", "--transforms", "aitken"],
         "wrong kind"),
        (["run", "--problem", "euler_factorial:x=inf:N=10", "--transforms", "levin_u"],
         "not a finite number"),
        (["pade", "--problem", "euler_factorial:x=1e100:N=5", "--staircase"],
         "a series term is not a finite number in the double range"),
        (["pade", "--problem", "power_series:name=exp:z=1:N=5000", "--l", "4", "--m", "4"],
         "overflows double precision"),
        (["pade", "--problem", "power_series:name=exp:z=1,2:N=5", "--l", "2", "--m", "2"],
         "wrong kind"),
        (["run", "--problem", "zeta_dirichlet:z=2:N=5", "--transforms", "levin_u:zeta=abc"],
         "transform parameter 'zeta=abc' is not numeric"),
        (["run", "--problem", ":", "--transforms", "aitken"], "empty problem specification"),
        (["run", "--problem", "decay_model:alpha=0.5:bta=2:N=6", "--transforms", "aitken"],
         "decay_model does not take parameters ['bta']"),
        (["run", "--problem", "zeta_dirichlet:z=2:lam=3:N=6", "--transforms", "aitken"],
         "zeta_dirichlet does not take parameters ['lam']"),
        (["run", "--problem", "power_series:name=exp:z=1:x=9:N=6", "--transforms", "aitken"],
         "power_series does not take parameters ['x']"),
        (["run", "--problem", "zeta_dirichlet:N=5", "--transforms", "aitken"],
         "zeta_dirichlet needs parameter 'z'"),
        (["run", "--problem", "zeta_dirichlet:z:N=5", "--transforms", "aitken"],
         "problem parameter 'z' is not key=value"),
        ([*SMALL, "--path", "order_constant:x"], "bad path parameter"),
        ([*SMALL, "--path", "order_constant"], "order_constant path needs :k"),
    ])
    def test_package_errors_exit_2(self, capsys, argv, reason):
        assert main(argv) == 2
        assert reason in one_line_error(capsys, stdout_empty=True)

    @pytest.mark.parametrize("argv, reason", [
        (["run", "--input", "{tmp}/undecodable", "--transforms", "aitken"],
         "cannot read {tmp}/undecodable: 'utf-8' codec can't decode byte 0xff"),
        (["run", "--input", "-", "--transforms", "aitken"],
         "cannot read -: 'utf-8' codec can't decode byte 0xff"),
        (["pade", "--coeffs", "{tmp}/undecodable", "--z", "1", "--staircase"],
         "cannot read {tmp}/undecodable: 'utf-8' codec can't decode byte 0xff"),
        ([*SMALL, "--config", "{tmp}/undecodable"],
         "cannot read config {tmp}/undecodable: 'utf-8' codec can't decode byte 0xff"),
        (["run", "--input", "{tmp}/deep.json", "--input-format", "json", "--transforms", "aitken"],
         "invalid JSON: maximum recursion depth exceeded"),
        ([*SMALL, "--output", "{tmp}/missing/report.tsv"], "cannot write {tmp}/missing/report.tsv"),
        (["gen", "--problem", "geometric:s=1:c=1:lam=0.5:N=4", "--output", "{tmp}"],
         "cannot write {tmp}"),
        (["run", "--input", "{tmp}/comments.csv", "--transforms", "aitken"],
         "no data rows found"),
        (["run", "--input", "{tmp}/array.json", "--input-format", "json", "--transforms", "aitken"],
         "JSON input must be an object"),
        (["run", "--input", "{tmp}/truncated.json", "--input-format", "json",
          "--transforms", "aitken"], "line 1: invalid JSON: Expecting ',' delimiter"),
        (["run", "--input", "{tmp}/string_values.json", "--input-format", "json",
          "--transforms", "aitken"], "'values' must be a JSON array"),
        (["run", "--input", "{tmp}/string_terms.json", "--input-format", "json",
          "--transforms", "aitken"], "'terms' must be a JSON array"),
        (["run", "--input", "{tmp}/bad.csv", "--transforms", "aitken"],
         "line 2: not a number: 'abc'"),
        ([*SMALL, "--config", "{tmp}/colour.cfg"], "config line 1: unknown setting 'colour=red'"),
    ], ids=["input", "stdin", "coeffs", "config", "deep_json", "run_output", "gen_output",
            "comments_csv", "json_array", "truncated_json", "json_string_values",
            "json_string_terms", "csv_line", "config_setting"])
    def test_file_errors_exit_2(self, tmp_path, monkeypatch, capsys, argv, reason):
        undecodable = b"1\n\xff\n"
        (tmp_path / "undecodable").write_bytes(undecodable)
        (tmp_path / "deep.json").write_text("[" * 200000)
        (tmp_path / "comments.csv").write_text("# no data\n# here\n")
        (tmp_path / "array.json").write_text("[1, 2, 3]")
        (tmp_path / "truncated.json").write_text('{"values": [1, 2')
        (tmp_path / "string_values.json").write_text('{"values": "123", "limit": 3}')
        (tmp_path / "string_terms.json").write_text('{"terms": "123"}')
        (tmp_path / "bad.csv").write_text("1\nabc\n")
        (tmp_path / "colour.cfg").write_text("colour=red\n")
        # a strict UTF-8 stdin, as outside Python's UTF-8 mode
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(undecodable), "utf-8"))
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert main(argv) == 2
        assert reason.format(tmp=tmp_path) in one_line_error(capsys, stdout_empty=True)

    def test_stdin_decodes_strictly_in_utf8_mode(self):
        # Python's UTF-8 mode reads stdin text with errors="surrogateescape",
        # which would pass byte 0xff on to the number parser
        src = os.path.dirname(os.path.dirname(seqaccel.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = [sys.executable, "-X", "utf8", "-m", "seqaccel.cli",
                "run", "--input", "-", "--transforms", "aitken"]
        result = subprocess.run(argv, input=b"1\n\xff\n", env=env, capture_output=True)
        assert result.returncode == 2
        assert result.stdout == b""
        assert result.stderr.decode().startswith(
            "seqaccel: cannot read -: 'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize("argv, message", [
        (["run", "--problem", "zeta_dirichlet:z=2:N=5"], "--transforms is required"),
        (["run", "--transforms", "aitken"],
         "a problem (--problem) or an input file (--input) is required"),
        ([*SMALL[:3], "--transforms", ","], "at least one transform is required"),
        (["pade"], "pade needs --problem or --coeffs"),
        (["pade", "--problem", "power_series:name=exp:z=0.5:N=4", "--coeffs", "c.csv"],
         "give either --problem or --coeffs, not both"),
        (["pade", "--coeffs", "c.csv", "--staircase"], "--coeffs needs --z"),
        (["pade", "--problem", "zeta_dirichlet:z=2:N=4", "--staircase"],
         "pade needs a power_series or euler_factorial problem, or --coeffs"),
        (["pade", "--problem", "power_series:name=exp:z=0.5:N=4"],
         "pade needs --staircase or both --l and --m"),
    ])
    def test_usage_errors_exit_2(self, capsys, argv, message):
        assert main(argv) == 2
        assert one_line_error(capsys, stdout_empty=True) == f"seqaccel: {message}\n"


_PROBLEM_PARAMS = {
    "geometric": {"s": "1", "c": "1", "lam": "0.5"},
    "zeta_dirichlet": {"z": "2"},
    "power_series": {"name": "exp", "z": "0.5"},
    "euler_factorial": {"x": "1"},
    "decay_model": {"alpha": "0.5", "beta": "2"},
    "exponential_sum": {"c": "1,-0.5", "lam": "0.5,-0.3"},
    "no_such_family": {"z": "1"},
}


_MALFORMED_VALUES = ["abc", "", "-1", "1e", "1,2", "1j"]


@st.composite
def _problem_arg(draw):
    family = draw(st.sampled_from(sorted(_PROBLEM_PARAMS)))
    parts = []
    for key, value in _PROBLEM_PARAMS[family].items():
        parts.append(f"{key}={draw(st.sampled_from([value, value, *_MALFORMED_VALUES]))}")
    if draw(st.booleans()):
        parts.append("unknown_key=3")
    n = draw(st.one_of(st.integers(-1, 8).map(str), st.sampled_from(["", "x", "2.5"])))
    if n != "":
        parts.append(f"N={n}")
    return ":".join([family, *draw(st.permutations(parts))])


_TRANSFORM_ARG = st.sampled_from(transform_names() + [
    "rho_osada:alpha=0.5", "bdg:alpha=abc", "levin_u:zeta=-1", "weniger_delta:zeta=2",
    "richardson:beta=0", "aitken:foo=1", "no_such_transform", "epsilon:alpha",
    *(f"{name}:{key}={value}"
      for name, key in (("rho_osada", "alpha"), ("bdg", "alpha"), ("richardson", "beta"),
                        ("levin_u", "zeta"), ("weniger_tau", "zeta"))
      for value in ("1j", "inf", "nan")),
])
_PATH_ARG = st.sampled_from([
    "staircase", "index_constant", "index_constant:1", "order_constant:0",
    "order_constant:2", "order_constant", "order_constant:x", "order_constant:99",
    "index_constant:-1", "no_such_path",
])


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["run", "compare", "estimate-alpha", "pade", "gen"]))
    argv = [command]
    if draw(st.integers(0, 9)):
        # a well-formed problem often enough that the transforms do run
        argv += ["--problem", draw(st.one_of(
            st.sampled_from(["zeta_dirichlet:z=2:N=8", "euler_factorial:x=inf:N=10"]),
            _problem_arg()))]
    else:
        argv += ["--input", "no-such-input.csv"]
    if command in ("run", "compare"):
        transforms = draw(st.lists(_TRANSFORM_ARG, min_size=1, max_size=3, unique=True))
        argv += ["--transforms", ",".join(transforms)]
        if draw(st.booleans()):
            argv += ["--path", draw(_PATH_ARG)]
    if command == "pade":
        if draw(st.booleans()):
            argv += ["--staircase"]
        else:
            argv += ["--l", str(draw(st.integers(-1, 3))), "--m", str(draw(st.integers(0, 3)))]
    if command in ("run", "compare", "estimate-alpha") and draw(st.booleans()):
        argv += ["--limit", draw(st.sampled_from(["1", "abc", "inf", "1.7e308+1.7e308j"]))]
    if draw(st.booleans()):
        argv += ["--format", "json"]
    return argv


@settings(max_examples=100, deadline=None)
@given(_argv())
def test_argv_never_escapes_as_traceback(argv):
    """Any argv from the problem/transform/path grammar, well formed or not,
    exits 0, 2 or 3; exits 2 and 3 print one ``seqaccel:`` line on stderr."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse's own exit for a malformed flag
        assert exc.code == 2, argv
        return
    assert code in (0, 2, 3), argv
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("seqaccel: "), (argv, lines)


def test_module_run_as_a_script_exits_with_mains_code(monkeypatch, capsys):
    """``python -m seqaccel.cli`` exits with ``main()``'s return code."""
    import runpy
    import warnings

    argv = ["seqaccel", "gen", "--problem", "geometric:s=1:c=1:lam=0.5:N=2"]
    monkeypatch.setattr(sys, "argv", argv)
    with warnings.catch_warnings(), pytest.raises(SystemExit) as info:
        # the package, already imported, holds the module runpy executes again
        warnings.filterwarnings("ignore", "'seqaccel.cli' found in sys.modules", RuntimeWarning)
        runpy.run_module("seqaccel.cli", run_name="__main__")
    assert info.value.code == 0
    assert json.loads(capsys.readouterr().out)["values"] == [2.0, 1.5, 1.25]


def test_cli_import_loads_neither_scipy_nor_mpmath():
    src = os.path.dirname(os.path.dirname(seqaccel.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, seqaccel.cli; "
            "print(sorted(m for m in ('scipy', 'mpmath') if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_euler_golden_runs_without_mpmath():
    """A run on an Euler problem needs no third-party package: with mpmath
    made unimportable, the ``run_euler`` golden comes out byte for byte."""
    src = os.path.dirname(os.path.dirname(seqaccel.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys; sys.modules['mpmath'] = None; from seqaccel.cli import main; "
            "sys.exit(main(['run', '--problem', 'euler_factorial:x=1:N=25', "
            "'--transforms', 'weniger_delta,rho', '--format', 'tsv']))")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDEN_DIR / "run_euler.tsv").read_bytes()


def test_cli_import_loads_no_heavy_stdlib_modules():
    """``import seqaccel.cli`` stays cheap: no dataclasses (and the inspect,
    ast and tokenize it pulls in), fractions, decimal or json.  Modules the
    bare interpreter already loads (``site`` hooks) do not count."""
    src = os.path.dirname(os.path.dirname(seqaccel.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def loaded(code):
        result = subprocess.run([sys.executable, "-c", code + "print(*sys.modules)"],
                                env=env, capture_output=True, text=True, check=True)
        return set(result.stdout.split())

    added = loaded("import sys, seqaccel.cli; ") - loaded("import sys; ")
    heavy = {"dataclasses", "inspect", "fractions", "decimal", "json"}
    assert "seqaccel.cli" in added
    assert sorted(heavy & added) == []
