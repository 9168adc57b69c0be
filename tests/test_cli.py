"""End-to-end CLI behavior: exit codes, formats, artifact files."""

import contextlib
import csv
import functools
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnside import cli, dihedral, oracle, subgrp, tower
from burnside.dihedral import build_cyclic, build_quaternion
from burnside.subgrp import Certificate, verify_certificate
from burnside.words import parse_word
from support import CERT_TYPES, JSON_JUNK, replaced, table_csv

KLEIN = "gens 2\nrel aa\nrel bb\nrel abab\n"
B23 = "gens 2\nrel aaa\nrel bbb\nrel ababab\nrel aBaBaB\n"
DINF = "gens 2\nrel aa\nrel bb\n"


@pytest.fixture
def pres(tmp_path):
    def write(text, name="g.txt"):
        f = tmp_path / name
        f.write_text(text)
        return str(f)
    return write


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_tower_text(capsys):
    code, out, _ = run(["tower", "-m", "2", "-n", "2"], capsys)
    assert code == 0
    assert "terminated-equals-burnside" in out
    assert "periods: a, b, ab" in out
    assert "order 4, exponent 2" in out


def test_tower_json(capsys):
    code, out, _ = run(["--format", "json", "tower", "-m", "2", "-n", "3"],
                       capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == "burnside/tower-report/4"
    assert rep["status"] == "terminated-equals-burnside"
    assert rep["periods"] == ["a", "b", "ab", "aB"]
    assert rep["result"]["order"] == 27
    assert set(rep["execution"]) == {"timestamp", "elapsed_seconds"}


def test_tower_audit(capsys):
    code, out, _ = run(["tower", "-m", "2", "-n", "3", "--audit"], capsys)
    assert code == 0
    assert "audit: 100%" in out


def test_tower_reports_are_deterministic_across_runs(capsys):
    reports = []
    for _ in range(2):
        _, out, _ = run(["--format", "json", "tower", "-m", "2", "-n", "3"],
                        capsys)
        rep = json.loads(out)
        del rep["execution"]
        reports.append(json.dumps(rep, sort_keys=True))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("argv, env, named", [
    (["tower", "-m", "2", "-n", "3", "--kb-max-rules", "-1"], {},
     "kb_max_rules"),
    (["tower", "-m", "2", "-n", "3", "--max-candidates", "-3"], {},
     "max_candidates"),
    (["order", "PRES", "ab", "--max-kernel-index", "-1"], {},
     "max_kernel_index"),
    (["tower", "-m", "2", "-n", "3"], {"BURNSIDE_MAX_RANKS": "-1"},
     "max_ranks"),
    (["tower", "-m", "2", "-n", "3"], {"BURNSIDE_MAX_CANDIDATES": "abc"},
     "BURNSIDE_MAX_CANDIDATES"),
    (["tower", "-m", "2", "-n", "3", "--jobs", "2"], {}, "--jobs"),
    (["tower", "-m", "2", "-n", "3", "--max-cosets", "5"], {},
     "--max-cosets"),
    (["kb", "PRES", "--max-candidates", "1"], {}, "--max-candidates"),
    (["kb", "PRES", "--stage-max-cosets", "1"], {}, "--stage-max-cosets"),
    (["kb", "PRES", "--max-kernel-index", "1"], {}, "--max-kernel-index"),
    (["order", "PRES", "ab", "--max-candidates", "1"], {},
     "--max-candidates"),
], ids=["kb-max-rules", "max-candidates", "max-kernel-index",
        "env-max-ranks", "env-not-an-int", "jobs-flag-gone",
        "max-cosets-flag-gone", "kb-max-candidates-gone",
        "kb-stage-max-cosets-gone", "kb-max-kernel-index-gone",
        "order-max-candidates-gone"])
def test_bad_budgets_exit_1(argv, env, named, pres, monkeypatch, capsys):
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    argv = [pres(B23) if a == "PRES" else a for a in argv]
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects an unknown flag
        code = exc.code
    err = capsys.readouterr().err
    assert code == 1
    assert any("error:" in line and named in line
               for line in err.splitlines())


@pytest.mark.parametrize("argv, var", [
    (["kb", "PRES"], "BURNSIDE_MAX_CANDIDATES"),
    (["kb", "PRES"], "BURNSIDE_STAGE_MAX_COSETS"),
    (["order", "PRES", "ab"], "BURNSIDE_MAX_CANDIDATES"),
    (["order", "PRES", "ab"], "BURNSIDE_MAX_RANKS"),
])
def test_unread_budget_variables_are_ignored(argv, var, pres, monkeypatch,
                                             capsys):
    # a subcommand reads the variables of the budgets it takes, no others
    argv = [pres(B23) if a == "PRES" else a for a in argv]
    monkeypatch.setenv(var, "abc")
    code, _, err = run(argv, capsys)
    assert code == 0 and err == ""
    monkeypatch.setenv("BURNSIDE_KB_MAX_STEPS", "abc")
    code, _, err = run(argv, capsys)
    assert code == 1 and "BURNSIDE_KB_MAX_STEPS must be an integer" in err


def test_coset_max_cosets_zero_is_rejected(pres, capsys):
    code, _, err = run(["coset", pres(B23), "--max-cosets", "0"], capsys)
    assert code == 1
    assert "max_cosets must be at least 1" in err


def test_kb_rejects_negative_count_max_len(pres, capsys):
    code, out, err = run(["kb", pres(B23), "--count-max-len", "-2"], capsys)
    assert code == 1
    assert out == ""
    assert "error:" in err and "--count-max-len" in err


@pytest.mark.parametrize("length", [7141, 20000, 2000000])
def test_kb_rejects_a_count_it_could_not_write(pres, capsys, length):
    # 4^7141 has 4,300 digits, past what Python writes in decimal; 20,000
    # once counted and then failed to print, and 2,000,000 counted first
    t0 = time.monotonic()
    code, out, err = run(["kb", pres("gens 2\n"), "--count-max-len",
                          str(length)], capsys)
    assert time.monotonic() - t0 < 1.0
    assert (code, out) == (1, "")
    assert err == (f"error: --count-max-len {length} is too long for rank "
                   "2: the count could not be written\n")
    code, out, _ = run(["kb", pres("gens 2\n"), "--count-max-len", "7140"],
                       capsys)
    assert code == 0 and "normal forms up to length 7140: " in out


def test_tower_checkpoint_resume(tmp_path, capsys):
    cp = tmp_path / "cp.json"
    code, out, _ = run(["tower", "-m", "2", "-n", "3",
                        "--max-candidates", "2",
                        "--checkpoint", str(cp)], capsys)
    assert code == 2
    assert cp.exists()
    assert "checkpoint written" in out
    code, out, _ = run(["tower", "-m", "2", "-n", "3",
                        "--resume", str(cp)], capsys)
    assert code == 0
    assert "order 27" in out


def test_tower_resume_rejects_checkpoint_without_periods(tmp_path, capsys):
    cp = tmp_path / "cp.json"
    cp.write_text(json.dumps({"schema": "burnside/tower-checkpoint/1",
                              "m": 2, "n": 3}))
    code, _, err = run(["tower", "-m", "2", "-n", "3", "--resume", str(cp)],
                       capsys)
    assert code == 1
    assert "error:" in err and "periods" in err


BUDGET_NAMES = list(tower.Budgets().to_dict())

# a value no budget field accepts: below every floor, or not an int
bad_budget_values = st.one_of(
    st.integers(max_value=-1), st.booleans(), st.floats(), st.none(),
    st.text(max_size=4), st.lists(st.integers(), max_size=2),
)
bad_budgets_mutations = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(BUDGET_NAMES),
              bad_budget_values),
    st.tuples(st.just("add"),
              st.text(min_size=1, max_size=12)
              .filter(lambda k: k not in BUDGET_NAMES),
              st.integers(min_value=0)),
    st.tuples(st.just("replace"), st.none(),
              st.one_of(st.none(), st.integers(), st.text(max_size=4),
                        st.lists(st.integers(), max_size=3))),
)


@functools.lru_cache(maxsize=None)
def _checkpoint_text():
    res = tower.run_tower(2, 3, budgets=tower.Budgets(max_candidates=2))
    return json.dumps(res.checkpoint)


@settings(max_examples=60, deadline=None)
@given(mutation=bad_budgets_mutations)
def test_resume_rejects_mutated_checkpoint_budgets(tmp_path_factory,
                                                   mutation):
    how, name, value = mutation
    cp = json.loads(_checkpoint_text())
    if how == "replace":
        cp["budgets"] = value
    else:
        cp["budgets"][name] = value
    f = tmp_path_factory.mktemp("cp") / "cp.json"
    f.write_text(json.dumps(cp))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["tower", "-m", "2", "-n", "3", "--resume", str(f)])
    assert code == 1, mutation
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: checkpoint budgets"), \
        err.getvalue()
    if how == "set":
        assert name in err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_audit_of_a_resumed_run_agrees(tmp_path, capsys):
    # the resumed run's ranks start at rank 3, after two stored periods
    cp = tmp_path / "cp.json"
    code, _, _ = run(["tower", "-m", "2", "-n", "3", "--max-candidates", "3",
                      "--checkpoint", str(cp)], capsys)
    assert code == 2
    assert json.loads(cp.read_text())["periods"] == ["a", "b"]
    code, out, _ = run(["tower", "-m", "2", "-n", "3", "--resume", str(cp),
                        "--audit"], capsys)
    assert code == 0
    assert "audit: 100% (13 checks)" in out


def test_audit_of_a_huge_claimed_order_is_bounded(tmp_path, capsys):
    # a^(10**12) is never built: the audit falls back to the stage's
    # enumeration, which cannot close on the infinite rank-2 stage; the
    # whole resumed run with its audit takes about a second
    cp = tmp_path / "cp.json"
    code, _, _ = run(["tower", "-m", "2", "-n", "3", "--max-candidates", "2",
                      "--checkpoint", str(cp)], capsys)
    assert code == 2
    data = json.loads(cp.read_text())
    assert data["partial_log"][0] == {"word": "a", "verdict": "finite",
                                      "order": 3, "strategy": "kb-power"}
    data["partial_log"][0]["order"] = 10**12
    cp.write_text(json.dumps(data))
    t0 = time.monotonic()
    code, out, err = run(["--format", "json", "tower", "-m", "2", "-n", "3",
                          "--resume", str(cp), "--audit"], capsys)
    assert time.monotonic() - t0 < 5
    assert code == 1 and err == ""
    problems = [(d["word"], d["stage_rank"], d["problem"])
                for d in json.loads(out)["audit"]["disagreements"]]
    assert problems == [
        ("a", 2, f"could not re-prove order {10**12}"),
        ("a", 2, f"terminal realization order 3 != {10**12}")]


@functools.lru_cache(maxsize=None)
def _log_checkpoint_text():
    """A checkpoint whose partial log holds each kind of entry: finite
    and filtered from a real halt at rank 4, plus the infinite aB."""
    cp = tower.run_tower(2, 3, budgets=tower.Budgets(max_candidates=5)) \
        .checkpoint
    infinite = next(e for e in tower.run_tower(2, 3).ranks[3].log
                    if e["word"] == "aB")
    cp["partial_log"].append(infinite)
    return json.dumps(cp)


not_an_object = st.one_of(st.none(), st.booleans(), st.integers(),
                          st.text(max_size=4),
                          st.lists(st.integers(), max_size=2))
# for each key of a log entry, values that no valid entry holds there
bad_entry_values = {
    "word": st.one_of(st.sampled_from(["", "c", "a b", "Z", "x1"]),
                      st.integers(), st.none()),
    "filtered": st.one_of(st.none(), st.integers(), st.text(max_size=8)
                          .filter(lambda t: t not in tower.FILTERS)),
    "verdict": st.one_of(st.none(), st.integers(), st.text(max_size=8)
                         .filter(lambda t: t not in ("finite", "infinite"))),
    "order": st.one_of(st.integers(max_value=0), st.booleans(), st.floats(),
                       st.none(), st.text(max_size=3)),
    "certificate": not_an_object,
}


@st.composite
def bad_log_entries(draw):
    """(i, entry): entry i of the checkpoint's log, broken one way."""
    entries = json.loads(_log_checkpoint_text())["partial_log"]
    i = draw(st.integers(0, len(entries) - 1))
    entry = entries[i]
    kind = "filtered" if "filtered" in entry else entry["verdict"]
    keys = ["word", "filtered"] if kind == "filtered" else \
        ["word", "verdict", "order" if kind == "finite" else "certificate"]
    how = draw(st.sampled_from(["replace", "drop", "set"]
                               + (["cert"] if kind == "infinite" else [])))
    if how == "replace":
        return i, draw(not_an_object)
    if how == "drop":
        del entry[draw(st.sampled_from(keys))]
    elif how == "set":
        key = draw(st.sampled_from(keys))
        entry[key] = draw(bad_entry_values[key])
    else:
        cert = entry["certificate"]
        key = draw(st.sampled_from(sorted(CERT_TYPES)))
        if draw(st.booleans()):
            del cert[key]
        else:
            cert[key] = draw(st.sampled_from(
                [v for v in JSON_JUNK if type(v) is not CERT_TYPES[key]]))
    return i, entry


@settings(max_examples=60, deadline=None)
@given(bad=bad_log_entries())
def test_resume_rejects_mutated_checkpoint_log(tmp_path_factory, bad):
    i, entry = bad
    cp = json.loads(_log_checkpoint_text())
    cp["partial_log"][i] = entry
    f = tmp_path_factory.mktemp("cp") / "cp.json"
    f.write_text(json.dumps(cp))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["tower", "-m", "2", "-n", "3", "--resume", str(f),
                         "--audit"])
    assert code == 1, bad
    assert out.getvalue() == ""
    assert err.getvalue().startswith(
        f"error: checkpoint partial_log entry {i}: "), err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_checkpoint_log_with_every_entry_kind_is_valid():
    cp = json.loads(_log_checkpoint_text())
    assert {e.get("verdict", "filtered") for e in cp["partial_log"]} == {
        "finite", "infinite", "filtered"}
    assert tower._check_checkpoint(cp, 2, 3) == tower.Budgets(
        max_candidates=5)


def test_resume_rejects_a_retired_certificate_schema(tmp_path, capsys):
    # a certificate of the first schema carried witness coordinates in a
    # Smith basis; it names its schema and exits 1, with no replay
    cp = json.loads(_log_checkpoint_text())
    cert = cp["partial_log"][-1]["certificate"]
    value = cert.pop("value")
    del cert["homomorphism"]
    cert.update(schema="burnside/order-certificate/1",
                num_schreier_generators=10, free_positions=[8, 9],
                witness_position=8, witness_coordinate=value)
    f = tmp_path / "cp.json"
    f.write_text(json.dumps(cp))
    code, out, err = run(["tower", "-m", "2", "-n", "3", "--resume", str(f),
                          "--audit"], capsys)
    assert (code, out) == (1, "")
    i = len(cp["partial_log"]) - 1
    assert err == (f"error: checkpoint partial_log entry {i}: not an order "
                   "certificate of schema burnside/order-certificate/2: "
                   "'burnside/order-certificate/1'\n")


def _audit(cp, tmp_path):
    """(exit code, audit block) of an audited resume from cp, which must
    write no traceback."""
    f = tmp_path / "cp.json"
    f.write_text(json.dumps(cp))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--format", "json", "tower", "-m", "2", "-n", "3",
                         "--resume", str(f), "--audit"])
    assert "Traceback" not in err.getvalue()
    return code, json.loads(out.getvalue())["audit"]


def _audit_problems(cp, tmp_path):
    """(exit code, [(word, problem)]) of an audited resume from cp."""
    code, audit = _audit(cp, tmp_path)
    return code, [(d["word"], d["problem"]) for d in audit["disagreements"]]


@pytest.mark.parametrize("spec", [
    {"kind": "permutation", "images": [[0, 1], [0, 1]]},
    {"kind": "abelian", "moduli": [2], "images": [[0], [0]]}])
def test_audit_reports_a_non_transitive_certificate(tmp_path, spec):
    # a certificate for the logged word and stage whose quotient fixes
    # both points: its replay fails as a bad spec, which the audit reports
    cp = json.loads(_log_checkpoint_text())
    entry = cp["partial_log"][-1]
    entry["certificate"].update(quotient=spec, kernel_index=2)
    assert _audit_problems(cp, tmp_path) == (1, [(
        entry["word"], "certificate replay failed: bad quotient spec: the "
                       "action is not transitive: 1 of 2 points reached "
                       "from 0")])


def test_audit_refuses_a_certificate_for_another_stage_unbuilt(
        tmp_path, monkeypatch):
    # a certificate over <a | a^2> is refused for the logged stage before
    # its kernel, which a crafted checkpoint may make large, is built
    built = []
    init = subgrp.Kernel.__init__

    def recorded(self, p, spec):
        built.append(p)
        init(self, p, spec)

    monkeypatch.setattr(subgrp.Kernel, "__init__", recorded)
    cp = json.loads(_log_checkpoint_text())
    entry = cp["partial_log"][-1]
    entry["certificate"].update(
        presentation={"rank": 1, "relators": ["aa"]}, word="a",
        quotient={"kind": "permutation", "images": [[1, 0]]}, kernel_index=2)
    assert _audit_problems(cp, tmp_path) == (1, [(
        "aB", "certificate replay failed: it is for another word or stage")])
    assert built and all(p.rank == 2 for p in built)


def test_audit_catches_a_multiple_of_the_true_order(tmp_path, capsys):
    # the run halts at rank 2 without a terminal realization, so only the
    # re-derived order can tell 6 from the order 3 of a in <a, b | a^3>
    cp = tmp_path / "cp.json"
    code, _, _ = run(["tower", "-m", "2", "-n", "3", "--max-candidates", "1",
                      "--checkpoint", str(cp)], capsys)
    assert code == 2
    data = json.loads(cp.read_text())
    assert data["partial_log"] == [{"word": "a", "verdict": "finite",
                                    "order": 3, "strategy": "kb-power"}]
    data["partial_log"][0]["order"] = 6
    cp.write_text(json.dumps(data))
    code, out, err = run(["--format", "json", "tower", "-m", "2", "-n", "3",
                          "--resume", str(cp), "--max-candidates", "1",
                          "--audit"], capsys)
    assert code == 1 and err == ""
    assert [(d["word"], d["stage_rank"], d["problem"])
            for d in json.loads(out)["audit"]["disagreements"]] == [
        ("a", 2, "could not re-prove order 6")]


def test_audit_reports_non_integer_moduli(tmp_path):
    # int() once read 3.5 as 3, so this certificate replayed and the
    # audit said 100%
    cp = json.loads(_log_checkpoint_text())
    quotient = cp["partial_log"][-1]["certificate"]["quotient"]
    assert quotient["moduli"] == [3, 3]
    quotient["moduli"] = [3.5, 3.5]
    assert _audit_problems(cp, tmp_path) == (1, [(
        "aB", "certificate replay failed: bad quotient spec: certificate "
              "field 'moduli' is missing or ill-typed")])


# JSON values that are no integer, 3.0 and false among them
NOT_AN_INT = st.sampled_from([v for v in JSON_JUNK if type(v) is not int]
                             + [3.0, 1.0, False])


@st.composite
def bad_quotients(draw):
    """The log's abelian quotient spec, broken one way: a field dropped,
    or a whole field, a modulus, an image or an image entry set to a
    value that is no integer."""
    q = json.loads(_log_checkpoint_text())["partial_log"][-1][
        "certificate"]["quotient"]
    how = draw(st.sampled_from(["drop", "field", "modulus", "image",
                                "image entry"]))
    if how == "drop":
        del q[draw(st.sampled_from(sorted(q)))]
    elif how == "field":
        q[draw(st.sampled_from(sorted(q)))] = draw(NOT_AN_INT)
    elif how == "modulus":
        q["moduli"][draw(st.integers(0, 1))] = draw(NOT_AN_INT)
    elif how == "image":
        q["images"][draw(st.integers(0, 1))] = draw(NOT_AN_INT)
    else:
        q["images"][draw(st.integers(0, 1))][draw(st.integers(0, 1))] = \
            draw(NOT_AN_INT)
    return q


@settings(max_examples=40, deadline=None)
@given(quotient=bad_quotients())
def test_audit_reports_a_mutated_quotient_spec(tmp_path_factory, quotient):
    cp = json.loads(_log_checkpoint_text())
    cp["partial_log"][-1]["certificate"]["quotient"] = quotient
    code, problems = _audit_problems(cp, tmp_path_factory.mktemp("cp"))
    assert code == 1, quotient
    assert [word for word, _ in problems] == ["aB"], problems
    assert problems[0][1].startswith(
        "certificate replay failed: bad quotient spec: "), problems


@st.composite
def changed_certificates(draw):
    """(field, certificate): the log's certificate with one homomorphism
    entry, its value or its power set to another integer."""
    cert = json.loads(_log_checkpoint_text())["partial_log"][-1][
        "certificate"]
    field = draw(st.sampled_from(["homomorphism", "value", "power"]))
    if field == "homomorphism":
        f = cert["homomorphism"]
        i = draw(st.integers(0, len(f) - 1))
        f[i] = draw(st.integers().filter(lambda a: a != f[i]))
    else:
        cert[field] = draw(st.integers().filter(lambda a: a != cert[field]))
    return field, cert


# the replay failure each field's change may give
CHANGE_FAILURES = {
    "homomorphism": ("homomorphism is not 0 on relator ",
                     "value mismatch: "),
    "value": ("value mismatch: ",),
    "power": ("power mismatch: ",),
}


@settings(max_examples=30, deadline=None)
@given(changed=changed_certificates())
def test_audit_names_the_check_a_changed_certificate_fails(
        tmp_path_factory, changed):
    # a well-typed change to f, its value or the power fails the replay
    # by name, unless the changed certificate still holds
    field, cert = changed
    cp = json.loads(_log_checkpoint_text())
    cp["partial_log"][-1]["certificate"] = cert
    code, audit = _audit(cp, tmp_path_factory.mktemp("cp"))
    if verify_certificate(Certificate.from_json_dict(cert))[0]:
        assert field == "homomorphism"
        assert (code, audit["agreement"]) == (0, "100%")
        return
    assert code == 1, cert
    (problem,) = audit["disagreements"]
    assert problem["word"] == "aB"
    reason = problem["problem"]
    assert reason.startswith("certificate replay failed: "), reason
    assert reason[len("certificate replay failed: "):].startswith(
        CHANGE_FAILURES[field]), reason


def test_coset_closed(pres, capsys):
    f = pres(KLEIN)
    code, out, _ = run(["coset", f], capsys)
    assert code == 0
    assert "order 4" in out


def test_coset_subgroup_and_table(pres, tmp_path, capsys):
    f = pres(KLEIN)
    csv = tmp_path / "t.csv"
    code, out, _ = run(["coset", f, "--subgroup", "a",
                        "--table-out", str(csv)], capsys)
    assert code == 0
    assert "index 2" in out
    assert csv.exists()
    assert csv.read_text().startswith("coset")


def test_coset_exhausted_is_inconclusive(pres, capsys):
    f = pres(DINF)
    code, out, _ = run(["coset", f, "--max-cosets", "300"], capsys)
    assert code == 2
    assert "exhausted" in out


def test_order_finite(pres, capsys):
    f = pres(B23)
    code, out, _ = run(["order", f, "aB"], capsys)
    assert code == 0
    assert "finite: order 3" in out


def test_order_infinite_writes_certificate(pres, tmp_path, capsys):
    f = pres(DINF)
    cert_path = tmp_path / "cert.json"
    code, out, _ = run(["order", f, "ab", "--certificate", str(cert_path)],
                       capsys)
    assert code == 0
    assert "infinite order" in out
    cert = Certificate.from_json_dict(json.loads(cert_path.read_text()))
    ok, reason = verify_certificate(cert)
    assert ok, reason


def test_order_refuses_a_certificate_that_does_not_replay(pres, tmp_path,
                                                          capsys,
                                                          monkeypatch):
    real = cli.oracle.element_order

    def tampered(*args, **kwargs):
        verdict = real(*args, **kwargs)
        cert = verdict.certificate
        verdict.certificate = replaced(cert, value=cert.value + 1)
        return verdict

    monkeypatch.setattr(cli.oracle, "element_order", tampered)
    cert_path = tmp_path / "cert.json"
    code, out, err = run(["order", pres(DINF), "ab",
                          "--certificate", str(cert_path)], capsys)
    assert code == 1
    assert "value mismatch" in err
    assert "verified" not in out
    assert not cert_path.exists()


@pytest.mark.parametrize("cosets, strategy", [
    # five cosets never close B(2,3), so its confluent completion's
    # normal-form table realizes the stage
    ("5", "kb-census"), ("100000", "coset-closure")])
def test_order_names_the_closure_that_realized_the_stage(pres, capsys,
                                                         cosets, strategy):
    code, out, _ = run(["--format", "json", "order", pres(B23), "ab",
                        "--stage-max-cosets", cosets], capsys)
    assert code == 0
    assert json.loads(out)["verdict"] == {
        "word": "ab", "verdict": "finite", "order": 3, "strategy": strategy}


def test_order_identity_word_is_usage_error(pres, capsys):
    f = pres(B23)
    code, _, err = run(["order", f, "1"], capsys)
    assert code == 1
    assert "error" in err


def test_order_json_verdict(pres, capsys):
    f = pres(B23)
    code, out, _ = run(["--format", "json", "order", f, "ab"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == "burnside/order-report/3"
    assert "oracle_max_cosets" not in rep["config"]["budgets"]
    assert rep["verdict"]["order"] == 3
    assert rep["verdict"]["verdict"] == "finite"


def test_kb_confluent_counts_group(pres, capsys):
    f = pres(KLEIN)
    code, out, _ = run(["kb", f], capsys)
    assert code == 0
    assert "confluent" in out
    assert "group order 4" in out


def test_kb_infinite_language(pres, capsys):
    f = pres(DINF)
    code, out, _ = run(["kb", f], capsys)
    assert code == 0
    assert "language infinite" in out


def test_kb_counts_a_finite_language_past_the_cutoff(pres, capsys):
    # a^60 has normal forms up to length 30, beyond --count-max-len 24;
    # a finite language is counted whole, so the report gives the order
    code, out, _ = run(["--format", "json", "kb", pres("gens 1\nrel "
                                                       + "a" * 60 + "\n")],
                       capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == "burnside/kb-report/2"
    assert rep["confluent"]
    assert (rep["normal_forms"], rep["group_order"]) == (60, 60)
    assert "normal_forms_up_to_len" not in rep
    assert "group_infinite" not in rep
    code, out, _ = run(["--format", "json", "kb", pres(DINF),
                        "--count-max-len", "3"], capsys)
    rep = json.loads(out)
    assert rep["normal_forms_up_to_len"] == {"max_len": 3, "count": 7}
    assert rep["group_infinite"] is True


def test_kb_budget_exhaustion(pres, capsys):
    f = pres(B23)
    code, out, _ = run(["kb", f, "--kb-max-steps", "3"], capsys)
    assert code == 2
    assert "budget-exhausted" in out


def test_kb_rank_over_the_code_points_is_error(pres, capsys):
    code, out, err = run(["kb", pres("gens 600000\nrel x1\n")], capsys)
    assert code == 1
    assert out == ""
    assert "error:" in err and "557056" in err


@pytest.mark.parametrize("argv", [["abelian", "FILE"], ["order", "FILE", "x2"],
                                  ["tower", "-m", "50000000", "-n", "2"]])
def test_a_huge_rank_is_refused_before_its_matrices(pres, capsys, argv):
    # the abelian invariants' rank x rank transform would need 2.5e15 cells
    huge = pres("gens 50000000\nrel x1\n")
    t0 = time.monotonic()
    code, out, err = run([huge if a == "FILE" else a for a in argv], capsys)
    assert time.monotonic() - t0 < 1.0
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "rank 50000000" in err
    assert "Traceback" not in err


def test_a_certifier_whose_smith_form_is_over_the_cap_is_left_out(
        pres, capsys):
    # (Z/2)^11 x Z: the torsion rung has index 2,048 and 22,529 Schreier
    # generators, whose dense rows once ran out of memory; it is left out
    # the way --max-kernel-index 1024 leaves it out, and l stays Unknown
    text = "gens 12\n" + "".join(
        f"rel {x}{x}\n" for x in "abcdefghijk") + "".join(
        f"rel {x}{y}{x.upper()}{y.upper()}\n"
        for i, x in enumerate("abcdefghijk") for y in "abcdefghijk"[i + 1:])
    f = pres(text)
    verdicts = []
    for flags in ([], ["--max-kernel-index", "1024"]):
        t0 = time.monotonic()
        code, out, err = run(["--format", "json", "order", f, "l", *flags],
                             capsys)
        assert time.monotonic() - t0 < 5.0
        assert (code, err) == (2, "")
        verdicts.append(json.loads(out)["verdict"])
    assert verdicts[0] == verdicts[1] == {
        "word": "l", "verdict": "unknown", "strategy": "exhausted"}
    verdict = oracle.element_order(
        oracle.StageContext(cli.load_presentation(f), oracle.Budgets()),
        parse_word("l", 12))
    assert verdict.evidence["attempts"][-1] == {
        "strategy": "kernel-certificate",
        "reason": "no quotient in the ladder separated the word",
        "quotients": []}


def test_abelian(pres, capsys):
    f = pres(B23)
    code, out, _ = run(["--format", "json", "abelian", f], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["torsion"] == [3, 3]
    assert rep["free_rank"] == 0


def test_the_package_runs_as_a_module(pres):
    # python -m burnside runs the CLI from a checkout, with src on the path
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "burnside", "--format", "json", "abelian",
         pres(B23)], env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["torsion"] == [3, 3]


def test_importing_the_engine_loads_no_heavy_modules():
    # start-up stays cheap: no records by dataclasses, which import inspect,
    # ast and dis, and csv only once embed reads a table
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys\nbefore = set(sys.modules)\n"
            "import burnside, burnside.cli\n"
            "print(*sorted(set(sys.modules) - before))\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    loaded = set(proc.stdout.split())
    assert "burnside.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "csv"}


def test_embed_found_and_refuted(tmp_path, capsys):
    c4 = tmp_path / "c4.csv"
    c4.write_text(table_csv(build_cyclic(4)))
    code, out, _ = run(["embed", str(c4), "-n", "4"], capsys)
    assert code == 0
    assert "embedding found" in out
    q8 = tmp_path / "q8.csv"
    q8.write_text(table_csv(build_quaternion()))
    code, out, _ = run(["embed", str(q8), "-n", "4", "--r-max", "1"], capsys)
    assert code == 0  # exhaustive refusal is definitive, not inconclusive
    assert "not_found_exhausted" in out
    code, out, _ = run(["--format", "json", "embed", str(q8), "-n", "4"],
                       capsys)
    rep = json.loads(out)
    assert rep["schema"] == "burnside/embed-report/3"
    assert rep["result"]["status"] == "not_found_exhausted"
    assert rep["result"]["nodes"] > 0


@pytest.mark.parametrize("flag, value", [("--r-max", "-1"),
                                         ("--budget", "-3")])
def test_embed_rejects_bad_search_limits(tmp_path, capsys, flag, value):
    c4 = tmp_path / "c4.csv"
    c4.write_text(table_csv(build_cyclic(4)))
    code, out, err = run(["embed", str(c4), "-n", "4", flag, value], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and flag[2:].replace("-", "_") in err


def test_embed_refuses_an_oversized_lead_factor(tmp_path, capsys):
    # D(20000) would need 1.6e9 table cells; the cap refuses it first
    c2 = tmp_path / "c2.csv"
    c2.write_text(table_csv(build_cyclic(2)))
    t0 = time.monotonic()
    code, out, err = run(["embed", str(c2), "-n", "20000", "--r-max", "0"],
                         capsys)
    assert time.monotonic() - t0 < 1.0
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "D20000" in err
    assert "Traceback" not in err


def test_embed_refuses_a_table_above_the_cell_cap(tmp_path, capsys):
    # order 300 needs 90,000 cells; the header is refused before any row
    # is read or any axiom replayed
    c300 = tmp_path / "c300.csv"
    c300.write_text(table_csv(build_cyclic(300)))
    t0 = time.monotonic()
    code, out, err = run(["embed", str(c300), "-n", "4"], capsys)
    assert time.monotonic() - t0 < 1.0
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "90000 cells" in err
    assert "Traceback" not in err


def embed_error(path):
    """(exit code, stdout, stderr) of `embed path -n 4`, run in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["embed", str(path), "-n", "4"])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("text, message", [
    ("", "missing table header"),
    ("order,8,name,Q8\n1," + "9" * 200_000 + "\n",  # over the csv limit
     "field larger than field limit"),
    ("rows,2\n0,1\n1,0\n", "missing table header"),
    ("order,2\n0,1\n", "expected 2 rows, got 1"),
    ("order,2\n1,0\n0,1\n", "0 is not an identity"),
    ("order,3\n0,1,2\n1,0,2\n2,0,1\n", "column 1 is not a permutation"),
])
def test_embed_refuses_a_bad_table(tmp_path, text, message):
    f = tmp_path / "t.csv"
    f.write_text(text)
    code, out, err = embed_error(f)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and message in err, err
    assert "Traceback" not in err


_TABLE_ROWS = [build_quaternion().rows, build_cyclic(5).rows,
               dihedral.build_dihedral(3).rows]


@st.composite
def mutated_tables(draw):
    """A valid table CSV with one mutation that makes it invalid: cut
    short, a row dropped, two unequal cells swapped, or a cell replaced
    by text with no digit or by a huge field."""
    rows = [list(r) for r in draw(st.sampled_from(_TABLE_ROWS))]
    order = len(rows)
    how = draw(st.sampled_from(["truncate", "drop", "swap", "text", "huge"]))
    if how == "drop":
        del rows[draw(st.integers(0, len(rows) - 1))]
    cells = [(g, h) for g in range(len(rows)) for h in range(len(rows[g]))]
    if how == "swap":
        (g, h), (i, j) = draw(st.lists(st.sampled_from(cells), min_size=2,
                                       max_size=2, unique=True).filter(
            lambda c: rows[c[0][0]][c[0][1]] != rows[c[1][0]][c[1][1]]))
        rows[g][h], rows[i][j] = rows[i][j], rows[g][h]
    if how in ("text", "huge"):
        g, h = draw(st.sampled_from(cells))
        rows[g][h] = draw(st.text("ab ,\"\n-_.", min_size=1)) \
            if how == "text" else draw(st.sampled_from("9x")) * draw(
                st.sampled_from([5_000, 200_000]))
    buf = io.StringIO()
    csv.writer(buf).writerows([["order", order]] + rows)
    text = buf.getvalue()
    if how == "truncate":
        text = text[:draw(st.integers(0, len(text.rstrip()) - 1))]
    return how, text


@settings(max_examples=80, deadline=None)
@given(mutation=mutated_tables())
def test_embed_refuses_a_mutated_table(tmp_path_factory, mutation):
    _, text = mutation
    f = tmp_path_factory.mktemp("table") / "t.csv"
    f.write_text(text)
    code, out, err = embed_error(f)
    assert (code, out) == (1, ""), mutation
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_output_file_written_in_text_mode(pres, tmp_path, capsys):
    f = pres(KLEIN)
    rep_path = tmp_path / "rep.json"
    code, out, _ = run(["--output", str(rep_path), "coset", f], capsys)
    assert code == 0
    assert "report written" in out
    rep = json.loads(rep_path.read_text())
    assert rep["schema"] == "burnside/coset-report/1"
    assert rep["num_cosets"] == 4


def test_missing_file_is_error(capsys):
    code, _, err = run(["coset", "/nonexistent/g.txt"], capsys)
    assert code == 1
    assert "error" in err


def test_bad_presentation_is_error(pres, capsys):
    f = pres("gens 2\nrel a!\n")
    code, _, err = run(["kb", f], capsys)
    assert code == 1
    assert "error" in err


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 1
    capsys.readouterr()
