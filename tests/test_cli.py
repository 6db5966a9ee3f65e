"""Command-line interface: payload shapes, exit codes, determinism."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sipq
from sipq import basis_gf, identities, sip
from sipq.cli import main
from sipq.partitions import PartitionClass, RowRule
from sipq.reporting import CheckReport
from sipq.series import TruncationMismatch

CLASSES = ("g1", "g2", "p1", "p2")


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--class", "g1", "--weight", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["command"] == "enumerate"
        assert payload["params"] == {"class": "g1", "weight": 5}
        got = {tuple(r["partition"]): r["omega"] for r in payload["results"]}
        assert got == {
            (5,): {"a": 3, "b": 2, "c": 0, "d": 0},
            (3, 2): {"a": 2, "b": 1, "c": 1, "d": 1},
        }

    def test_csv_payload(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--class", "g1", "--weight", "5", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "partition,weight,length,alt_sum,odd_parts,bg_rank,a,b,c,d"
        assert lines[1:] == ["5,5,1,5,1,1,3,2,0,0", '"3,2",5,2,1,1,1,2,1,1,1']

    def test_every_tag_at_weight_14_is_pinned(self, capsys):
        """The members of every class and basis tag, in enum order, stay
        byte-identical to this recorded digest of their concatenated stdout."""
        out = ""
        for cls in PartitionClass:
            code, tag_out, _ = run(capsys, "enumerate", "--class", cls.value, "--weight", "14")
            assert code == 0
            out += tag_out
        digest = "a254412cdb9fc97880b7a5bb8e6f697c9d82c1072ca4f71ac84f92de030838c8"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_empty_class_weight(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--class", "g2", "--weight", "1")
        assert code == 0
        assert json.loads(out)["results"] == []

    def test_negative_weight(self, capsys):
        code, _, err = run(capsys, "enumerate", "--class", "all", "--weight", "-3")
        assert code == 2
        assert "nonnegative" in err


class TestDecompose:
    def test_worked_example(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--class", "g1", "--partition", "11,8,7,4"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["results"] == {"beta": [5, 4, 3, 2], "mu": [6, 4, 4, 2], "modulus": 2}

    def test_not_in_class(self, capsys):
        code, _, err = run(capsys, "decompose", "--class", "g1", "--partition", "3,3")
        assert code == 2
        assert "not in class" in err

    def test_bad_literal(self, capsys):
        code, _, err = run(capsys, "decompose", "--class", "g1", "--partition", "3,x")
        assert code == 2
        assert "invalid partition literal" in err


class TestVerify:
    def test_single_identity(self, capsys):
        code, out, err = run(capsys, "verify", "g1-four", "--trunc", "8")
        assert code == 0
        payload = json.loads(out)
        results = payload["results"]
        assert len(results) == 1
        assert results[0]["name"] == "identity[g1-four]"
        assert results[0]["passed"] is True
        # timing goes to stderr, never into the payload
        assert "s" in err and "seconds" not in out

    def test_unknown_identity(self, capsys):
        code, _, err = run(capsys, "verify", "nope", "--trunc", "8")
        assert code == 2
        assert "unknown identity key" in err

    def test_no_selection(self, capsys):
        code, _, err = run(capsys, "verify")
        assert code == 2

    def test_keys_with_all_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "g1-four", "--all", "--trunc", "4")
        assert code == 2
        assert out == ""
        assert "not both" in err

    def test_failure_exit_code(self, capsys, monkeypatch):
        def fake(spec, trunc):
            return CheckReport(f"identity[{spec.key}]", False, 1, ("forced",))

        monkeypatch.setattr(identities, "verify_spec", fake)
        code, out, _ = run(capsys, "verify", "g1-four", "--trunc", "4")
        assert code == 1
        assert json.loads(out)["results"][0]["failures"] == ["forced"]

    def test_full_battery_is_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "verify", "--all", "--trunc", "4")
        code2, out2, _ = run(capsys, "verify", "--all", "--trunc", "4")
        assert code1 == code2 == 0
        assert out1 == out2
        results = json.loads(out1)["results"]
        assert all(r["passed"] for r in results)
        assert len(results) >= 30

    @pytest.mark.parametrize(
        "trunc, digest",
        (
            pytest.param("16", "3cacdd563cd270f9c786558155257092b78e8f834c683f3506870129af9fa9a8", id="16"),
            pytest.param("24", "3285defdbf5571064d06afa0a2b72ca82cb1865fde6151e4e7b7fad2709888f8", id="24"),
            pytest.param("32", "81fa5f2a00c07eccd78b538be36c1b3c621d6042c871d6636cbc9f09c1dcee6e", id="32"),
            pytest.param("48", "903fabfdb35f3ce52bfb9228a47226aa55d0ab6f659197cb0b4853b85a05bcc0", id="48"),
            pytest.param("64", "c245dbda27fa08ef7ed79d361a22f6adf4ee399d2382caa2258a715acb094b23", id="64"),
        ),
    )
    def test_full_battery_stdout_is_pinned(self, capsys, trunc, digest):
        """A refactor keeps every report's name, check count and result: the
        battery's stdout stays byte-identical to these recorded digests."""
        code, out, _ = run(capsys, "verify", "--all", "--trunc", trunc)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_reports_off_the_command_truncation_state_their_bounds(self, capsys):
        """The member-by-member reports state on stdout the bound they ran at,
        as do the fixed-size ones, and re-running one at that bound gives the
        same checks."""
        code, out, err = run(capsys, "verify", "--all", "--trunc", "20")
        assert code == 0
        assert "ran at trunc" not in err
        reports = {r["name"]: r for r in json.loads(out)["results"]}
        declared = {name: r["params"] for name, r in reports.items() if r["params"]}
        assert declared == {
            **{f"basis-tables[basis-{c}]": {"n_max": 12, "h_max": 12} for c in CLASSES},
            **{f"sip-property[{c}]": {"weight_max": 16} for c in CLASSES},
            "qbinomial-recurrences": {"n_max": 10},
            "qbinomial-theorem[z=a*b^2*c*d]": {"n_max": 6},
            "qbinomial-theorem[z=a*b*d]": {"n_max": 6},
            "partial-sums[p1]": {"n_max": 4},
            "partial-sums[p2]": {"n_max": 4},
            "substitution[xzq]": {"weight_max": 16},
            "substitution[bg]": {"weight_max": 16},
        }
        rerun = sip.verify_sip_property(PartitionClass.G2, **declared["sip-property[g2]"])
        assert rerun.as_dict() == reports["sip-property[g2]"]
        assert sip.verify_sip_property(PartitionClass.G2, 20).checks != rerun.checks
        table = basis_gf.cross_check_tables(
            PartitionClass.BASIS_P1, **declared["basis-tables[basis-p1]"]
        )
        assert table.checks == reports["basis-tables[basis-p1]"]["checks"]
        code, out, _ = run(capsys, "verify", "--all", "--trunc", "12")
        assert code == 0
        reports = json.loads(out)["results"]
        assert {r["name"]: r["params"] for r in reports}["substitution[bg]"] == {"weight_max": 12}

    def test_assembly_runs_at_the_command_truncation(self, capsys):
        """Above the member-wise cap, ``sip-gf-four`` checks every degree up to
        ``--trunc`` and states no bound of its own, while the member walks
        stay at the cap."""
        code, out, _ = run(capsys, "verify", "--all", "--trunc", "24")
        assert code == 0
        reports = {r["name"]: r for r in json.loads(out)["results"]}
        for c in CLASSES:
            four = reports[f"sip-gf-four[{c}]"]
            assert (four["checks"], four["params"]) == (25, {})
            assert reports[f"sip-property[{c}]"]["params"] == {"weight_max": 16}
        for key in ("xzq", "bg"):
            assert reports[f"substitution[{key}]"]["params"] == {"weight_max": 16}

    def test_bad_split_fails_its_reports_and_keeps_the_rest(self, capsys, monkeypatch):
        """A strict gap set that makes the split ambiguous fails ``sip-property``
        member by member instead of aborting the battery: every report is
        still printed."""
        monkeypatch.setattr(
            RowRule, "gaps", property(lambda rule: (1, 3) if rule.strict else (0, 1))
        )
        code, out, _ = run(capsys, "verify", "--all", "--trunc", "10")
        assert code == 1
        reports = json.loads(out)["results"]
        assert len(reports) == 44
        failed = {r["name"] for r in reports if not r["passed"]}
        assert failed == {
            f"{name}[{prefix}{c}]"
            for c in ("g1", "g2")
            for name, prefix in (
                ("basis-tables", "basis-"),
                ("sip-property", ""),
                ("sip-gf-single", ""),
                ("sip-gf-four", ""),
            )
        }
        split = {r["name"]: r["failures"] for r in reports}["sip-property[g2]"]
        assert "Partition(2, 1): InternalError: gap choice not unique" in split[0]

    def test_row_recursion_cut_short_fails_its_reports_and_keeps_the_rest(
        self, capsys, monkeypatch
    ):
        """A row recursion one degree short fails every skeleton assembly on
        the precision error it raises, instead of aborting the battery: every
        report is still printed."""
        real = sip.class_weight_series
        monkeypatch.setattr(
            sip, "class_weight_series", lambda cls, trunc, m: real(cls, trunc - 1, m)
        )
        code, out, _ = run(capsys, "verify", "--all", "--trunc", "10")
        assert code == 1
        reports = json.loads(out)["results"]
        assert len(reports) == 44
        failed = {r["name"]: r["failures"] for r in reports if not r["passed"]}
        assert failed == {
            f"{name}[{c}]": ["PrecisionLoss: degree 10 exceeds truncation 9"]
            for c in CLASSES
            for name in ("sip-gf-single", "sip-gf-four")
        }

    @pytest.mark.parametrize(
        ("module", "name", "reached"),
        (
            ("qseries", "horner_sum", ("q-gauss[",)),
            ("qseries", "running_product", ("qbinomial-",)),
            (
                "identities",
                "horner_sum",
                ("partial-sums[", *(f"identity[{s.key}]" for s in sipq.registry() if s.series)),
            ),
        ),
        ids=("q-gauss", "q-binomial", "partial-sums"),
    )
    def test_arithmetic_error_fails_only_the_reports_it_reaches(
        self, capsys, monkeypatch, module, name, reached
    ):
        """A ``SeriesError`` raised by the arithmetic of any check fails only
        the reports that reach it, each with the error as its last failure
        line, and the battery still prints all 44 reports."""

        def fault(*args, **kwargs):
            raise TruncationMismatch("injected")

        monkeypatch.setattr(getattr(sipq, module), name, fault)
        code, out, _ = run(capsys, "verify", "--all", "--trunc", "10")
        assert code == 1
        reports = json.loads(out)["results"]
        assert len(reports) == 44
        failed = {r["name"]: r["failures"] for r in reports if not r["passed"]}
        assert set(failed) == {r["name"] for r in reports if r["name"].startswith(reached)}
        assert all(lines[-1] == "TruncationMismatch: injected" for lines in failed.values())

    def test_env_default_truncation(self, capsys, monkeypatch):
        monkeypatch.setenv("SIPQ_TRUNC", "5")
        code, out, _ = run(capsys, "verify", "g1-four")
        assert code == 0
        assert json.loads(out)["params"]["trunc"] == 5

    def test_negative_trunc(self, capsys):
        code, _, err = run(capsys, "verify", "g1-four", "--trunc", "-2")
        assert code == 2

    @pytest.mark.parametrize("value", ("abc", "-3", "2.5"))
    def test_bad_env_truncation_is_a_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("SIPQ_TRUNC", value)
        for argv in (
            ("verify", "g1-four"),
            ("series", "--spec", "boulet-p", "--side", "product"),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert "SIPQ_TRUNC" in err
        # An explicit --trunc never reads the variable; other commands ignore it.
        assert run(capsys, "verify", "g1-four", "--trunc", "4")[0] == 0
        assert run(capsys, "enumerate", "--class", "g1", "--weight", "3")[0] == 0
        assert run(capsys, "decompose", "--class", "g1", "--partition", "5,4")[0] == 0
        assert run(capsys, "tables-check", "--basis", "g1", "--n-max", "2", "--h-max", "2")[0] == 0
        table = ("table", "--basis", "g1", "--method", "recurrence", "--n-max", "1", "--h-max", "1")
        assert run(capsys, *table)[0] == 0


class TestSeries:
    def test_product_terms(self, capsys):
        code, out, _ = run(
            capsys, "series", "--spec", "boulet-p", "--side", "product", "--trunc", "2"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["variables"] == ["a", "b", "c", "d"]
        # weights of (), (1), (1,1), (2) in canonical order
        assert payload["results"]["terms"] == [
            {"ea": 0, "eb": 0, "ec": 0, "ed": 0, "coeff": "1"},
            {"ea": 1, "eb": 0, "ec": 0, "ed": 0, "coeff": "1"},
            {"ea": 1, "eb": 0, "ec": 1, "ed": 0, "coeff": "1"},
            {"ea": 1, "eb": 1, "ec": 0, "ed": 0, "coeff": "1"},
        ]

    def test_every_side_stdout_is_pinned(self, capsys):
        """The rendered terms of every catalog side at trunc 32, in the order
        the registry lists them, stay byte-identical to a recorded digest."""
        digest = hashlib.sha256()
        for spec in identities.registry():
            for side in ("series", "product", "product-alt"):
                main(["series", "--spec", spec.key, "--side", side, "--trunc", "32"])
                digest.update(capsys.readouterr().out.encode())
        assert digest.hexdigest() == "d476056f66f4586e64e7d5ed80ccb9eeee3e59983b6d6b8ef839436f07170812"

    def test_every_combinatorial_side_is_pinned(self, capsys):
        """The combinatorial side of every catalog identity at trunc 32, in
        registry order, stays byte-identical to a recorded digest."""
        digest = hashlib.sha256()
        for spec in identities.registry():
            main(["series", "--spec", spec.key, "--side", "combinatorial", "--trunc", "32"])
            digest.update(capsys.readouterr().out.encode())
        assert digest.hexdigest() == "3a5db8da09d3a34f88153f168e6af440558d79b82fe4640a21c8641c5cf7aa5e"

    def test_every_side_at_trunc_64_is_pinned(self, capsys):
        """Every catalog side at trunc 64, the scale of the ``sides-t64``
        benchmark workload, stays byte-identical to a recorded digest."""
        digest = hashlib.sha256()
        for spec in identities.registry():
            for side in ("series", "product", "product-alt"):
                main(["series", "--spec", spec.key, "--side", side, "--trunc", "64"])
                digest.update(capsys.readouterr().out.encode())
        assert digest.hexdigest() == "361f25e636954edcad86a3fdd3a50bf4ec0d7edde4fac8a02f1fcb0e72f1a97a"

    def test_largest_product_at_trunc_64_is_pinned(self, capsys):
        """The ``boulet-p`` product, the catalog's largest, stays byte-identical
        at trunc 64, where its exponents and coefficients are far larger than
        at trunc 32."""
        argv = ("series", "--spec", "boulet-p", "--side", "product", "--trunc", "64")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "fb0f808afaa108f1d74d981cfec9fc1020eb3420e026cfea105b17b2715f9f83"

    def test_missing_side(self, capsys):
        code, _, err = run(
            capsys, "series", "--spec", "boulet-p", "--side", "product-alt", "--trunc", "2"
        )
        assert code == 2
        assert "no alternate product" in err

    def test_unknown_spec(self, capsys):
        code, _, _ = run(capsys, "series", "--spec", "zzz", "--side", "series", "--trunc", "2")
        assert code == 2


class TestTable:
    def test_grid_shape_and_values(self, capsys):
        code, out, _ = run(
            capsys, "table", "--basis", "g1", "--method", "closed-form",
            "--n-max", "2", "--h-max", "2",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "class,method,n,h,polynomial"
        assert len(lines) == 10  # header + 3x3 grid
        cells = {tuple(row.split(",")[2:4]): row.split(",")[4] for row in lines[1:]}
        assert cells[("0", "0")] == "1"
        assert cells[("1", "1")] == "a"
        assert cells[("1", "2")] == "a*b"
        assert cells[("2", "1")] == "0"

    def test_methods_agree(self, capsys):
        outs = []
        for method in ("enumerated", "recurrence", "closed-form"):
            code, out, _ = run(
                capsys, "table", "--basis", "p2", "--method", method,
                "--n-max", "4", "--h-max", "6",
            )
            assert code == 0
            outs.append([line.split(",", 2)[2] for line in out.splitlines()[1:]])
        assert outs[0] == outs[1] == outs[2]


    def test_method_choices_are_the_basis_table_methods(self, capsys):
        """``--method`` offers exactly the methods ``basis_gf`` cross-checks."""
        with pytest.raises(SystemExit) as exc:
            main(["table", "--basis", "g1", "--method", "none", "--n-max", "1", "--h-max", "1"])
        assert exc.value.code == 2
        choices = ", ".join(repr(name) for name in sorted(dict(basis_gf._METHODS)))
        assert f"(choose from {choices})" in capsys.readouterr().err


class TestTablesCheck:
    def test_passes(self, capsys):
        code, out, _ = run(capsys, "tables-check", "--basis", "g2", "--n-max", "6", "--h-max", "6")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"][0]["passed"] is True

    def test_negative_bound(self, capsys):
        code, _, _ = run(capsys, "tables-check", "--basis", "g2", "--n-max", "-1")
        assert code == 2


def test_unknown_subcommand_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("module", ["sipq", "sipq.cli"])
def test_module_entry_point_runs_the_command(module):
    env = dict(os.environ)
    src = str(Path(sipq.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", module, "verify", "g1-four", "--trunc", "4"],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    payload = json.loads(done.stdout)
    assert payload["command"] == "verify"
    assert [r["name"] for r in payload["results"]] == ["identity[g1-four]"]
    assert payload["results"][0]["passed"] is True
