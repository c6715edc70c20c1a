"""Problem-file parsing, task dispatch, report determinism, exit codes."""

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncqm import cli
from ncqm.cli import ProblemError, ProblemFile, main, run_task
from ncqm.poisson import build_gamma, jacobi_defect
from ncqm.star import measure_defect, trace

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

FUZZY_TEXT = """{
  "dim": 3,
  "bivector": [
    {"i": 1, "j": 2, "poly": "x3"},
    {"i": 2, "j": 3, "poly": "x1"},
    {"i": 3, "j": 1, "poly": "x2"}
  ],
  "measure": "1",
  "order": 2,
  "tasks": ["validate"],
  "seed": 5
}"""


class TestParsing:
    def test_fuzzy_file(self):
        problem = ProblemFile.parse(FUZZY_TEXT)
        assert problem.dim == 3
        assert problem.seed == 5
        # the (3,1) entry is folded into the upper triangle with a sign
        assert problem.bivector.entry(0, 2).text() == "-1/1*x2"

    def test_empty_bivector_is_valid(self):
        problem = ProblemFile.parse('{"dim": 2, "bivector": []}')
        rec = run_task(problem, "validate")
        assert rec["status"] == "pass"

    def test_diagonal_entry_rejected(self):
        with pytest.raises(ProblemError):
            ProblemFile.parse(
                '{"dim": 2, "bivector": [{"i": 1, "j": 1, "poly": "x1"}]}')

    def test_index_out_of_range(self):
        with pytest.raises(ProblemError):
            ProblemFile.parse(
                '{"dim": 2, "bivector": [{"i": 1, "j": 3, "poly": "x1"}]}')

    def test_bad_polynomial_names_entry(self):
        with pytest.raises(ProblemError) as err:
            ProblemFile.parse(
                '{"dim": 2, "bivector": [{"i": 1, "j": 2, "poly": "x9"}]}')
        assert "(1,2)" in str(err.value)

    def test_unknown_task(self):
        with pytest.raises(ProblemError):
            ProblemFile.parse('{"dim": 2, "bivector": [], "tasks": ["fly"]}')

    def test_json_syntax_error_position(self):
        with pytest.raises(ProblemError) as err:
            ProblemFile.parse('{"dim": 2,,}')
        assert "line" in str(err.value)

    def test_roundtrip(self):
        problem = ProblemFile.parse(FUZZY_TEXT)
        again = ProblemFile.parse(json.dumps(problem.to_json()))
        assert again.to_json() == problem.to_json()
        assert again.bivector == problem.bivector


class TestTasks:
    def test_validate_pass(self):
        problem = ProblemFile.parse(FUZZY_TEXT)
        rec = run_task(problem, "validate")
        assert rec["status"] == "pass"
        assert rec["jacobi_defect"] == {}

    def test_validate_fail_payload(self):
        text = (PROBLEMS / "non_poisson.json").read_text()
        problem = ProblemFile.parse(text)
        rec = run_task(problem, "validate")
        assert rec["status"] == "fail"
        assert rec["jacobi_defect"]  # nonzero polynomial printed

    def test_gamma_task(self):
        problem = ProblemFile.parse(FUZZY_TEXT)
        rec = run_task(problem, "gamma")
        assert rec["status"] == "pass"
        assert "1" in rec["tensors"] and "2" in rec["tensors"]

    def test_gamma_error_on_non_poisson(self):
        text = (PROBLEMS / "non_poisson.json").read_text()
        problem = ProblemFile.parse(text)
        rec = run_task(problem, "gamma")
        assert rec["status"] == "error"
        assert rec["jacobi_defect"]

    def test_oscillator_guard(self):
        for text, reason in [
                ('{"dim": 2, "bivector": []}', "oscillator task needs the fuzzy-sphere bivector"),
                (FUZZY_TEXT.replace('"measure": "1"', '"measure": "2"'),
                 "oscillator task needs unit density")]:
            rec = run_task(ProblemFile.parse(text), "oscillator")
            assert rec == {"status": "error", "reason": reason}

    def test_unsupported_task_is_an_error_record(self):
        report = cli.run(ProblemFile.parse(FUZZY_TEXT), ["bogus"])
        assert report["tasks"] == {
            "bogus": {"status": "error", "reason": "unsupported task 'bogus'"}}
        assert report["status"] == "error"

    def test_free_particle(self):
        problem = ProblemFile.parse(
            '{"dim": 2, "bivector": [], "measure": "1+x1^2"}')
        rec = run_task(problem, "free-particle")
        assert rec["status"] == "pass"

    def test_star_assoc_small(self):
        problem = ProblemFile.parse(FUZZY_TEXT)
        rec = run_task(problem, "star-assoc")
        assert rec["status"] == "pass"
        assert rec["failures"] == []
        assert rec["bounds"]["degree_max"] == 3


class TestDeterminism:
    def test_identical_runs_byte_identical(self, capsys):
        path = str(PROBLEMS / "quadratic2d.json")
        assert main([path, "--task", "darboux-check", "--task", "gamma"]) == 0
        first = capsys.readouterr().out
        assert main([path, "--task", "darboux-check", "--task", "gamma"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first.strip().startswith("{")

    def test_report_sorted_by_task(self, capsys):
        path = str(PROBLEMS / "quadratic2d.json")
        assert main([path, "--task", "gamma", "--task", "darboux-check"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report["tasks"]) == sorted(report["tasks"])


# malformed values of each field; a malformed document has exactly one of them
MALFORMED = {
    "dim": [0, -1, 7, "2", 2.5, True, None],
    "order": [-1, 9, "3", 1.5, False],
    "bivector": [{}, "x1", None, 5, [{}], [{"i": 1, "j": 2}], [[1, 2, "x1"]],
                 [{"i": 1, "j": 1, "poly": "1"}], [{"i": 0, "j": 2, "poly": "1"}],
                 [{"i": 1, "j": 4, "poly": "1"}], [{"i": "1", "j": 2, "poly": "1"}],
                 [{"i": 1, "j": 2, "poly": "x1"}, {"i": 2, "j": 1, "poly": "1"}],
                 *([{"i": 1, "j": 2, "poly": p}] for p in
                   ["x4", "x1^", "(", "", "x1^100000", "7^2000000", "1/0", 3, None])],
    "measure": ["0", "", "x1^", "x4", 1],
    "seed": ["7", 1.5, None],
    "tasks": [["bogus"], "validate", None],
}


@st.composite
def problem_texts(draw) -> str:
    """A problem document, well-formed or with one malformed field, or a
    text that is no problem document at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["", "[]", "{", "null", "3", '{"dim": 1e999}']))
    n = draw(st.sampled_from([3, 2, 1]))
    term = st.tuples(st.sampled_from([1, -2, 3]), st.lists(st.integers(1, n), max_size=2)) \
        .map(lambda t: "*".join([str(t[0]), *(f"x{v}" for v in t[1])]))
    poly = st.lists(term, min_size=1, max_size=2).map("+".join)
    combos = list(itertools.combinations(range(1, n + 1), 2))
    pairs = st.lists(st.sampled_from(combos), unique=True, min_size=1, max_size=3) if combos \
        else st.just([])
    doc = draw(st.fixed_dictionaries({
        "dim": st.just(n),
        "bivector": pairs.flatmap(lambda ps: st.tuples(*(poly for _ in ps)).map(
            lambda texts: [{"i": i, "j": j, "poly": t} for (i, j), t in zip(ps, texts)])),
    }, optional={
        "order": st.integers(0, 3),
        "measure": st.sampled_from(["1", "2", "1+x1^2", f"x{n}"]),
        "seed": st.integers(-5, 5),
        "tasks": st.lists(st.sampled_from(cli.TASKS), max_size=2),
    }))
    if draw(st.booleans()):
        field = draw(st.sampled_from(list(MALFORMED)))
        doc[field] = draw(st.sampled_from(MALFORMED[field]))
    return json.dumps(doc)


@settings(max_examples=60, deadline=None)
@given(text=problem_texts(), tasks=st.lists(st.sampled_from(cli.TASKS), max_size=2))
def test_main_fuzz(text, tasks, tmp_path_factory):
    """Any problem document, crossed with any --task flags: the exit code
    is 0, 1 or 2 as the report's status says, and a rejected document
    exits 2 with a one-line message and no traceback."""
    path = tmp_path_factory.mktemp("fuzz") / "problem.json"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(path), *(arg for t in tasks for arg in ("--task", t))])
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1
        assert err.getvalue().startswith("error: ")
    else:
        status = json.loads(out.getvalue())["status"]
        assert code == (0 if status == "pass" else 1)


class TestExitCodes:
    def test_pass_is_zero(self, capsys):
        assert main([str(PROBLEMS / "quadratic2d.json"), "--task", "gamma"]) == 0
        capsys.readouterr()

    def test_fail_is_one(self, capsys):
        assert main([str(PROBLEMS / "non_poisson.json")]) == 1
        capsys.readouterr()

    def test_missing_file_is_two(self, capsys):
        assert main(["/nonexistent/problem.json"]) == 2
        capsys.readouterr()

    def test_parse_error_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 0}')
        assert main([str(bad)]) == 2
        capsys.readouterr()

    def test_bad_flag_is_two(self, capsys):
        assert main(["--task", "unknown"]) == 2
        capsys.readouterr()

    def test_pretty_flag(self, capsys):
        assert main([str(PROBLEMS / "quadratic2d.json"),
                     "--task", "gamma", "--pretty"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("{\n")

    @pytest.mark.parametrize("doc,message", [
        ({"dim": 2, "bivector": [{"i": 1, "j": 2, "poly": 5}]},
         "entry (1,2): polynomial must be a string"),
        ({"dim": 2, "bivector": [], "measure": 7},
         "measure: polynomial must be a string"),
        ({"dim": 2, "bivector": [{"i": 1, "j": 2, "poly": "x1^"}]},
         "entry (1,2): unexpected end of polynomial"),
        ({"dim": 2, "bivector": [], "tasks": "validate"},
         "'tasks' must be a list"),
        ({"dim": True, "bivector": []},
         "'dim' must be a positive integer"),
        ({"dim": 2, "bivector": 5},
         "'bivector' must be a list"),
        ({"dim": 2, "bivector": [{"i": 1, "j": 2, "poly": "7^2000000"}]},
         "entry (1,2): power with 6000000-bit coefficients exceeds the cap of 256 bits"),
        ({"dim": 3, "bivector": [{"i": 1, "j": 2, "poly": "(1+x1+x2+x3)^40"}]},
         "entry (1,2): power of degree 40 exceeds the cap of 8"),
        ({"dim": 9, "bivector": [{"i": 1, "j": 2, "poly": "x3"}]},
         "'dim' 9 exceeds the cap of 6"),
        ({"dim": 2, "bivector": [{"i": 1, "j": 2, "poly": "x1"}], "order": 9},
         "'order' 9 exceeds the cap of 8"),
        ({"dim": 2, "bivector": [{"i": 1, "j": 2, "poly": "(" * 246 + "x1" + ")" * 246}]},
         "entry (1,2): parentheses nested deeper than 64"),
        ({"dim": 2, "bivector": [], "measure": "-" * 983 + "x3"},
         "measure: variable x3 out of range for dimension 2"),
        ({"dim": 2, "bivector": [], "seed": "7"},
         "'seed' must be an integer"),
        ({"dim": 2, "bivector": [{"i": True, "j": 2, "poly": "1"}]},
         "bivector indices must be integers"),
        ({"dim": 2, "bivector": [{"i": 1, "j": 2}]},
         "bivector entries must be objects with keys i, j, poly"),
        ({"dim": 2, "bivector": [{"i": 1, "j": 2, "poly": "x1"}, {"i": 2, "j": 1, "poly": "1"}]},
         "duplicate bivector entry (2,1)"),
    ], ids=["poly-int", "measure-int", "dangling-caret", "tasks-string",
            "dim-bool", "bivector-int", "power-coefficient-cap",
            "power-degree-cap", "dim-cap", "order-cap", "nesting-cap",
            "sign-run", "seed-string", "index-bool", "entry-without-poly",
            "duplicate-transposed"])
    def test_malformed_document_is_two(self, doc, message, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main([str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("raw,message", [
        (b'{"dim": 2, "bivector": [], "measure": "\xff"}',
         "problem file is not valid UTF-8"),
        (b'{"dim": ' + b"9" * 5000 + b'}',
         "parse error: a number has too many digits"),
        (b"[" * 100000,
         "parse error: arrays or objects nested too deep"),
    ], ids=["not-utf8", "long-integer", "deep-nesting"])
    def test_malformed_bytes_are_two(self, raw, message, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(raw)
        assert main([str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]

    def test_order_flag_cap_is_two(self, capsys):
        # the file's order is within the cap; the flag is checked on its own
        assert main([str(PROBLEMS / "quadratic2d.json"),
                     "--task", "gamma", "--order", "9"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: order 9 exceeds the cap of 8"]

    def test_negative_order_flag_is_two(self, capsys):
        assert main([str(PROBLEMS / "quadratic2d.json"),
                     "--task", "gamma", "--order", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: order must be nonnegative"]

    def test_seed_flag_overrides_the_file(self, monkeypatch, tmp_path, capsys):
        """--seed 11 reports exactly what the file with seed 11 written in
        does, and the seed changes the sampled pairs."""
        monkeypatch.setattr(cli, "RANDOM_TRIPLES", 2)
        reports = {}
        for seed in (0, 11):
            path = tmp_path / f"seed{seed}.json"
            path.write_text(json.dumps({**json.loads(FUZZY_TEXT), "seed": seed}))
            assert main([str(path), "--task", "trace-check"]) == 0
            reports[seed] = capsys.readouterr().out
        assert main([str(tmp_path / "seed0.json"), "--task", "trace-check", "--seed", "11"]) == 0
        assert capsys.readouterr().out == reports[11]
        assert json.loads(reports[0])["tasks"] != json.loads(reports[11])["tasks"]

    def test_zero_measure_is_two(self, tmp_path, capsys):
        # a zero density makes every trace vanish, so trace-check would
        # pass vacuously; the file is rejected instead
        bad = tmp_path / "zero.json"
        bad.write_text(json.dumps({
            "dim": 3, "bivector": [{"i": 1, "j": 2, "poly": "1"}],
            "measure": "0"}))
        for task in ("trace-check", "free-particle"):
            assert main([str(bad), "--task", task]) == 2
            captured = capsys.readouterr()
            assert captured.err.splitlines() == [
                "error: measure: density must be nonzero"]


# sha256 of the compact report and the exit code of every problem file and
# task at the file's own order
GOLDEN = [
    ("constant", "validate", 0, "118ca62224184f89ee075765d01ff999eb7ae28e5a4ef3dacc3578bc59165766"),
    ("constant", "gamma", 0, "0e6b719a7fd2d04d8a643fc19448b5d50be89c14cd7372bf7638179929118295"),
    ("constant", "darboux-check", 0, "6961b2e4619f7b778c4504cb082fe696f46e09b3ee05aa1b726857538f6e746e"),
    ("constant", "star-assoc", 0, "7849ce4c1b5843dca41d509955ee8231d96870adda9c48b7216072dbb0d79057"),
    ("constant", "trace-check", 0, "bdb7222d6f7cee3e541b28aa387488ec2df43fe55a969078fa2ab0cdab22da2d"),
    ("constant", "subalgebra", 0, "783522d41dfc9bc62a0237bf3651fce2dd8e99795863ded64ff5225b8de9a808"),
    ("constant", "oscillator", 1, "ab9b1027b5d23a2e59f913c9e77a0557e9ecff0f3c932783f60b51f8931c832e"),
    ("constant", "free-particle", 0, "5c13fa26b0f2336f3c1caadacf067c3970a421b7052a4fe70830251a629f35c5"),
    ("fuzzy_sphere", "validate", 0, "6cab052d33557ac791e31a87277ac4761b9b9fed1bfcfc07038be17e0efd40aa"),
    ("fuzzy_sphere", "gamma", 0, "f60c020172d84f6092acd6c012b55f779dda64c5457a7071e4d77e93923d6f32"),
    ("fuzzy_sphere", "darboux-check", 0, "0bc528ff26735a7e521102622ed9559d2053a7a6d52e5dada33f1400e1215a28"),
    ("fuzzy_sphere", "star-assoc", 0, "4fbb1994b288e82f10c08a5141b8cde1864ab3d242fc4ebed1b1742ae7696e93"),
    ("fuzzy_sphere", "trace-check", 0, "81801f06e5e3a9cbe40f6fa3f0326d119a19ea143c9ed7d70fddfca7a5b71284"),
    ("fuzzy_sphere", "subalgebra", 0, "47d95650c92cd41fb20933003acfcdef292244172e85a46264e1a645741ed099"),
    ("fuzzy_sphere", "oscillator", 0, "38be37e2fdcd858a369e0ed1e057b22cc63e4631be49835fb4b89723bd18126d"),
    ("fuzzy_sphere", "free-particle", 0, "9b51c709d06b54c5ec4bd0e27051eabce827863287df4ab71b0798abe4ee245f"),
    ("non_poisson", "validate", 1, "3918270b8a7ac17e17b93857ce0b9c2182b158f56b91899e1a46f9db567950be"),
    ("non_poisson", "gamma", 1, "24b3de503429358d1fc104724640794f4d08fe0bbf9c9582047cb936aa9a67dc"),
    ("non_poisson", "darboux-check", 1, "70ae2ccecad84e578ee16ad6fbbc79af0c723a156fa7c04072866e09c3289f2e"),
    ("non_poisson", "star-assoc", 1, "4ba517d4216b3b96685be32a848cf90918136a9eed6be22d7f7e875521005e7e"),
    ("non_poisson", "trace-check", 1, "f063878335e1bd9bb877cd5d748feef9824b7979eb9e7847afc6c3f9864496bd"),
    ("non_poisson", "subalgebra", 1, "9a825bde7fb833b624d9cf5e1bb4db4844c1a1ba7cb3658fd66fe09ccd9139ec"),
    ("non_poisson", "oscillator", 1, "86ad07758d7e69f70765bef6f238f6a07ecbbf5b1d8c2485780ac8838b4c6a4a"),
    ("non_poisson", "free-particle", 0, "83bbe9efe30af3cfc320c5c0598c6ebad59069867787ee1737a2d57e68be25a1"),
    ("quadratic2d", "validate", 1, "4bd6d3dd412d5000e16d6120c3bbd82ede00c88423f6e04b435be7715f349c53"),
    ("quadratic2d", "gamma", 0, "f9c3d731251f24e96cceeceaad8493dbb48f2b843ec29fab9aa37d65cfb25858"),
    ("quadratic2d", "darboux-check", 0, "88b7bf2876947074a495398d9d623ec093c2d05d40467968672177060d9e30bb"),
    ("quadratic2d", "star-assoc", 0, "d2ee8a676a42d8f5c3ac66ec97a38983953c67a6874d9ba5a14c77d9bef59fab"),
    ("quadratic2d", "trace-check", 1, "582005348375984eec5d7dbbace74258ce3d7dd34422182ba8e8c63244ca03af"),
    ("quadratic2d", "subalgebra", 0, "0e21f02de1b8aeae426d62d5c703d5918699cd6c8224d5d7f5e8d1e61b7362f8"),
    ("quadratic2d", "oscillator", 1, "ea2aa2d2393c5e0cb27e4b7ab31bd71e3c2737548cfdefd817301444fe8966de"),
    ("quadratic2d", "free-particle", 0, "2e568f8810587c43ef1e238ccd70c8141014d9a6c524b181814fba37b4a4bc81"),
]


@pytest.mark.parametrize("name,task,code,digest", GOLDEN,
                         ids=[f"{n}-{t}" for n, t, _, _ in GOLDEN])
def test_golden_report(name, task, code, digest, capsys):
    assert main([str(PROBLEMS / f"{name}.json"), "--task", task]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# the same for every problem file and task at --order 2, recorded while
# operators were still stored as (grade, multi-index) -> coefficient tables
GOLDEN_ORDER2 = [
    ("constant", "darboux-check", 0, "3fd22977d90833f6bd5666290d29cdcf4c7879f3f95c95f078041b99ef4e0d6e"),
    ("constant", "free-particle", 0, "fe3c65353e9b78ffb1c6b1958f52c0b48b6f104dac0dc4866f8813332f41817b"),
    ("constant", "gamma", 0, "0557c6754ceec4caee2ddbae3891a27deba0fef08605da9adf556347bc275cde"),
    ("constant", "oscillator", 1, "9e93259ecfb7dbd51df6f48b8e9569afb2e4395cb013bd51a32e7910d05e4472"),
    ("constant", "star-assoc", 0, "c2ffbaef7c1723fa0411387e4a6810d318bd13846adeeddcec19e307e3a8b3eb"),
    ("constant", "subalgebra", 0, "03b3c8c6cff582cbdfdc82a256b77b74c3960191a997fe2c16998ca6a050b3aa"),
    ("constant", "trace-check", 0, "3f0378f560aeac6e99be77ff5d1c73b73a8a6fd5c0fcc12feb855d1d081814ca"),
    ("constant", "validate", 0, "ba2d0e6249b70f42e7448c5fac74a3a6c93bfa29de6811b882e771470febf5d5"),
    ("fuzzy_sphere", "darboux-check", 0, "6c70d8c899b1599cc284fa6f9cf0c4259eed4762f010e8c5e9337706a6aa3f21"),
    ("fuzzy_sphere", "free-particle", 0, "4b2cbaf914fe6958c86cb194bf70646bcbb7611e33862510c948020beaeec3a1"),
    ("fuzzy_sphere", "gamma", 0, "f26f1bf9c77f84b0697d958a56600862ff55da2a5c8882a108c32ab4bf1c0b5c"),
    ("fuzzy_sphere", "oscillator", 0, "02c67607afb5a54a6ebd900a7d7c1c56beb1adbaa41e1e191a110d224f6eebd0"),
    ("fuzzy_sphere", "star-assoc", 0, "a66409674782c867aef6f8a388f3f291eee36c93f2f14608081cabbd21aa0da6"),
    ("fuzzy_sphere", "subalgebra", 0, "ec831446f8a2cb3ce23a413916bce650b6f5ab28cc667e8e0301e7fa51e77f61"),
    ("fuzzy_sphere", "trace-check", 0, "ff7426a4e658682b9a2dd1ea89b128219de51c1e196c4718e6db7f4bd06442f7"),
    ("fuzzy_sphere", "validate", 0, "ab78f14fe2e165b396d415f544be39b4029d7d3e87552047a15abaae5fd6e43d"),
    ("non_poisson", "darboux-check", 1, "70ae2ccecad84e578ee16ad6fbbc79af0c723a156fa7c04072866e09c3289f2e"),
    ("non_poisson", "free-particle", 0, "83bbe9efe30af3cfc320c5c0598c6ebad59069867787ee1737a2d57e68be25a1"),
    ("non_poisson", "gamma", 1, "24b3de503429358d1fc104724640794f4d08fe0bbf9c9582047cb936aa9a67dc"),
    ("non_poisson", "oscillator", 1, "86ad07758d7e69f70765bef6f238f6a07ecbbf5b1d8c2485780ac8838b4c6a4a"),
    ("non_poisson", "star-assoc", 1, "4ba517d4216b3b96685be32a848cf90918136a9eed6be22d7f7e875521005e7e"),
    ("non_poisson", "subalgebra", 1, "9a825bde7fb833b624d9cf5e1bb4db4844c1a1ba7cb3658fd66fe09ccd9139ec"),
    ("non_poisson", "trace-check", 1, "f063878335e1bd9bb877cd5d748feef9824b7979eb9e7847afc6c3f9864496bd"),
    ("non_poisson", "validate", 1, "3918270b8a7ac17e17b93857ce0b9c2182b158f56b91899e1a46f9db567950be"),
    ("quadratic2d", "darboux-check", 0, "abedad050b2e46a61cec6a52ddc10828a1bef4a9a616fd63f4097945075779f3"),
    ("quadratic2d", "free-particle", 0, "e72a1abce5a6c0abbfcd686b027fdbb8052a322e84d79d10644ade08696b6c9d"),
    ("quadratic2d", "gamma", 0, "dcc8a90d15b620f44156c89722ca8d87c473127b4061b41c9454d73023560f0f"),
    ("quadratic2d", "oscillator", 1, "5043796b030437084ce9f2ead1990dfab0e220035b50d9ce3631c54f3a00dcd1"),
    ("quadratic2d", "star-assoc", 0, "f7929c4691496c9e408d2cd2c475975fbb305e5a0aa1e1efb3c28b4c3a9b6070"),
    ("quadratic2d", "subalgebra", 0, "6d90bcc9983314e0484df3b551581696d500732f28de926a0bc8e9ab547b8689"),
    ("quadratic2d", "trace-check", 1, "9e06d670c62e42016418ea7eebec2d783a7903e223cdf963c197e9633c2b1c17"),
    ("quadratic2d", "validate", 1, "ff8125b7bab6ee114a40226901baa76874c49634da25fd2b192a636f978d0161"),
]


@pytest.mark.parametrize("name,task,code,digest", GOLDEN_ORDER2,
                         ids=[f"{n}-{t}" for n, t, _, _ in GOLDEN_ORDER2])
def test_golden_report_order2(name, task, code, digest, capsys):
    assert main([str(PROBLEMS / f"{name}.json"), "--task", task, "--order", "2"]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# darboux-check of every problem file at the orders the tables above leave
# out, recorded while the map was still checked through a separate
# coordinate-and-momentum map type
GOLDEN_DARBOUX = [
    ("constant", 0, 0, "445e8bb77f0ba2c3a88d0a66ec148a7ecb8da9789d3e80448e3a1e1372d1e4c9"),
    ("constant", 1, 0, "fc84c025683d8001eb2a9e4b356555280a7f3ddfb8fff15bec753386a8dd97a5"),
    ("constant", 4, 0, "f28238c812e3a72fa61194237036d0071d2954dca1a4b4dd7de03de6567418b8"),
    ("constant", 5, 0, "12d37879ed3d228b5df83668d81d18e910f278fa390e64939df154f0e77f74fc"),
    ("fuzzy_sphere", 0, 0, "a1a922624e4aa0530bf7e2e5e4be92562371d1dfafae99c9618eebca7e4c0f39"),
    ("fuzzy_sphere", 1, 0, "6778fc52c7c03c1d7ced1acb65685735faeef02e3e9f1682e10dd8e160eb068e"),
    ("fuzzy_sphere", 4, 0, "2ff88c828b4e948aceb725ed0f19ad40124d025de6b524a5fdfdf5cc91b6eb24"),
    ("fuzzy_sphere", 5, 0, "316e9c2dc1ce6282ee72ad404bd2cd9d18eaf6fef143a546cc4c6460fef25322"),
    ("non_poisson", 0, 1, "0a8d4eb5ecc16366fd16f2d00b39be27b09e8f6f3d04d6b6349fa79941932c80"),
    ("non_poisson", 1, 1, "10f24792f5f6605b312afe6451a22cc53a7d99a27828cfc420d6b77b520c18d7"),
    ("non_poisson", 4, 1, "15f43b2eb633bdc2b0ab19e4fa4f20a5ef2d5689449cae7f5db15230cae0a145"),
    ("non_poisson", 5, 1, "f332248dbb99ba477edeeae8cac142215d046151cece018afcdd21494b58c459"),
    ("quadratic2d", 0, 0, "bfcc42a5faa6392b25ab995f92ecb4e539e8b2ad882f1d218677e5fcdfbb8dbf"),
    ("quadratic2d", 1, 0, "e60d5ed75acac9d1a9b2c8397998b78d2c341656ff550d0e2f149de94e20b2e8"),
    ("quadratic2d", 4, 0, "73d32f9429f6c55fc185acebdeb9a3f9edc62705307f7cd63d3171fc25012daa"),
    ("quadratic2d", 5, 0, "7d6ea69a0d608d648d72afba88c5a5f7adcff315791cbbc190ad4b77b6c3038b"),
]


@pytest.mark.parametrize("name,order,code,digest", GOLDEN_DARBOUX,
                         ids=[f"{n}-{o}" for n, o, _, _ in GOLDEN_DARBOUX])
def test_golden_darboux_orders(name, order, code, digest, capsys):
    assert main([str(PROBLEMS / f"{name}.json"), "--task", "darboux-check",
                 "--order", str(order)]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# trace-check of every problem file at the orders below the grade-2 product,
# whose reports still carry the gauge, recorded while the gauge came from a
# closed form in the bivector instead of the product's grade-2 rules
GOLDEN_TRACE_LOW_ORDER = [
    ("constant", 0, 0, "6ae5dc1114c59572acfc0f87cf320ea64e6fe8c11095fb4e7c58ee719e854490"),
    ("constant", 1, 0, "5c2b63a345b58600651dec66422c2996603585ae4500d6a7276b66470d967ba8"),
    ("fuzzy_sphere", 0, 0, "6100558b86111c874c5f02ce757ea4840773ec60330e0b3db0f62d1c66aa8bfb"),
    ("fuzzy_sphere", 1, 0, "6fd3f59e2f7fd27fd37023df0dc6237606d692cf02a8b042093d591b771916fe"),
    ("non_poisson", 0, 1, "e4dffc1210bfabdab1218bdf31899ad517c148628cc6a29d9543e59d3e36819f"),
    ("non_poisson", 1, 1, "e8be3aa17896d71d63e2375f8a699a07dfb6fdf1fb974d5c67e9c00c5202548c"),
    ("quadratic2d", 0, 1, "6877061904554499946a052c770bede37db66003ef49790713dac1f8024a2acd"),
    ("quadratic2d", 1, 1, "487dc8266459be30aec67acfc5b519ad40e8ac702f7b83083295983ea98b5c3e"),
]


@pytest.mark.parametrize("name,order,code,digest", GOLDEN_TRACE_LOW_ORDER,
                         ids=[f"{n}-{o}" for n, o, _, _ in GOLDEN_TRACE_LOW_ORDER])
def test_golden_trace_low_orders(name, order, code, digest, capsys):
    assert main([str(PROBLEMS / f"{name}.json"), "--task", "trace-check",
                 "--order", str(order)]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# every problem file and task at each --order 0-5 that the tables above
# leave out, recorded while the product still quantized the Darboux tower;
# with them every cell of files x tasks x (default, --order 0-5) is pinned
GOLDEN_MATRIX = [
    ("constant", "validate", 0, 0, "8fe38bf7b5caade43710176f6ba1b279afc98f033ea858fdce12d6eaf2df17ba"),
    ("constant", "validate", 1, 0, "e2ce613511d4cde775203164b88ecb6a1675a3ea89b21fca79abe49ea4fd8062"),
    ("constant", "validate", 3, 0, "118ca62224184f89ee075765d01ff999eb7ae28e5a4ef3dacc3578bc59165766"),
    ("constant", "validate", 4, 0, "981924bdcce2966c14d132bcdd8a2e533fb1b822bbbc315038fa58a9f639a397"),
    ("constant", "validate", 5, 0, "979c683216825fc546dd19cce9f8f8938ebdcc23971c2de0d74f2a9396834850"),
    ("constant", "gamma", 0, 0, "ee3fba51a16d529628691f89101e660705066c3091d598fe4478861545cb2c38"),
    ("constant", "gamma", 1, 0, "499554bd6b2f49e69492929b6762aa7a581d6599f0597799054d3fef03886dfb"),
    ("constant", "gamma", 3, 0, "0e6b719a7fd2d04d8a643fc19448b5d50be89c14cd7372bf7638179929118295"),
    ("constant", "gamma", 4, 0, "7d1c96899f441af768bb2e56d8067005d0bd29254f9c30bc4f31a00ddb764956"),
    ("constant", "gamma", 5, 0, "e37109033dd034470d211b97739f9e70afecfd2674fcf7f081896f333aa24d3d"),
    ("constant", "darboux-check", 3, 0, "6961b2e4619f7b778c4504cb082fe696f46e09b3ee05aa1b726857538f6e746e"),
    ("constant", "star-assoc", 0, 0, "d8641d688e3762aa9ffb6f252982a873a2e6c3db15420fe63e558557b2205d79"),
    ("constant", "star-assoc", 1, 0, "022b201d2aace9833158f9af860c0edca4aa55685e8031afbfdec9ae8aa12ffc"),
    ("constant", "star-assoc", 3, 0, "7849ce4c1b5843dca41d509955ee8231d96870adda9c48b7216072dbb0d79057"),
    ("constant", "star-assoc", 4, 1, "d94232bb85e7941fafd83665dc601285e6c5389f1c8debecb77a0eda8bdcf809"),
    ("constant", "star-assoc", 5, 1, "8e16a7b86061815bf5a4108a184cb572b3443ffa82d4672734488f06dd1d8e6d"),
    ("constant", "trace-check", 3, 0, "bdb7222d6f7cee3e541b28aa387488ec2df43fe55a969078fa2ab0cdab22da2d"),
    ("constant", "trace-check", 4, 1, "dd8e09c9b344267de994c22ea47897886fe7a3a3e9741cf9c26fcbbd6c871139"),
    ("constant", "trace-check", 5, 1, "4b09257cd87239729b59f5303d161362f321ddba54ccd9c818ad48d49a148d21"),
    ("constant", "subalgebra", 0, 0, "2329fcb611982aadacdccda1f3b87cf4834164da590d3b0c33981afe2ac5bab7"),
    ("constant", "subalgebra", 1, 0, "b288ace25460a493e5962092bc5d9f9d02a3c82a7f584cf081a36a64f48f6371"),
    ("constant", "subalgebra", 3, 0, "783522d41dfc9bc62a0237bf3651fce2dd8e99795863ded64ff5225b8de9a808"),
    ("constant", "subalgebra", 4, 0, "dc8a5e5bcb8b9a6f1930d860274d1aa636ea0231ae0a081121ee8fc30519dd74"),
    ("constant", "subalgebra", 5, 0, "56c8ad08c3708c94fd3fd71cc90a1c76286210f33c4c68f70e8e67cf8e83c21b"),
    ("constant", "oscillator", 0, 1, "6f952693e0871f6e0decab4d38d87dae8f776802f1497704bf7c6d2d3ecc5627"),
    ("constant", "oscillator", 1, 1, "ea84bf5b77417c17f159d0581110ceaf0e94638d4395b592d1ce754f59cad042"),
    ("constant", "oscillator", 3, 1, "ab9b1027b5d23a2e59f913c9e77a0557e9ecff0f3c932783f60b51f8931c832e"),
    ("constant", "oscillator", 4, 1, "c0507b407b465001dbd176a37849c19641e33984681bf84935cedf77ba2c0899"),
    ("constant", "oscillator", 5, 1, "1e13930e0a9530ca60363c73a48df86f6117f7e6c41875f4650e91715026400e"),
    ("constant", "free-particle", 0, 0, "9c75afe662c144793041664b859afd0f03427b3010f053665f46f74a98d69da7"),
    ("constant", "free-particle", 1, 0, "cfb1fdb6b74e93ca5015d5efb1567aeab33e61a9c558907d2a7c08b3e5ff79a3"),
    ("constant", "free-particle", 3, 0, "5c13fa26b0f2336f3c1caadacf067c3970a421b7052a4fe70830251a629f35c5"),
    ("constant", "free-particle", 4, 0, "d5a22eb996fcaa76255015ab8dff9360b67fc156bc0363572385980627002f07"),
    ("constant", "free-particle", 5, 0, "1640b78d857c08991c4469decb2cfb3ba313bbb294b49f9a64391a0771dc580c"),
    ("fuzzy_sphere", "validate", 0, 0, "eeac00b8776c29ce4406c4c2ba05c87dce21dcb043d466083131abacfcdc30a1"),
    ("fuzzy_sphere", "validate", 1, 0, "b17d8c6280ccb9e55818b717a3b56c24f7ce2d81cc756b96223aa419f20e15c5"),
    ("fuzzy_sphere", "validate", 3, 0, "6cab052d33557ac791e31a87277ac4761b9b9fed1bfcfc07038be17e0efd40aa"),
    ("fuzzy_sphere", "validate", 4, 0, "95fe8cdd93c7bf7759ab2a67b7a249010bd1a3f9055b205fd45f6bbad59d9745"),
    ("fuzzy_sphere", "validate", 5, 0, "dfe868c60dae6ee6f0cfd12403da8d09def50689c9569eb12dca4b588a356682"),
    ("fuzzy_sphere", "gamma", 0, 0, "d764cda92d7ccdfdcf5a0bf617eda1b9e6f0f4e3ccffbb235fb10031d8bb92ec"),
    ("fuzzy_sphere", "gamma", 1, 0, "d51873edaa54b417b288981878620f06b89233d5b2faa0776d07d85fba7f6d72"),
    ("fuzzy_sphere", "gamma", 3, 0, "f60c020172d84f6092acd6c012b55f779dda64c5457a7071e4d77e93923d6f32"),
    ("fuzzy_sphere", "gamma", 4, 0, "9fe3018861381e087ce00c440da7e030bf4719ae85cd8486a0bec1b0abf4a8b0"),
    ("fuzzy_sphere", "gamma", 5, 0, "f62b32105d5057dc4b43e5a71397106d066377e9e08bc149994e8d24cdc69056"),
    ("fuzzy_sphere", "darboux-check", 3, 0, "0bc528ff26735a7e521102622ed9559d2053a7a6d52e5dada33f1400e1215a28"),
    ("fuzzy_sphere", "star-assoc", 0, 0, "67bb158b2eba2e8719c678601124b4f44d84fa827d48d11a41f86f6eb2c38636"),
    ("fuzzy_sphere", "star-assoc", 1, 0, "542f498c30f12a5ec3179fe585a6bbbf114935bfd9e379b5eeaf8e8299a0d252"),
    ("fuzzy_sphere", "star-assoc", 3, 0, "4fbb1994b288e82f10c08a5141b8cde1864ab3d242fc4ebed1b1742ae7696e93"),
    ("fuzzy_sphere", "star-assoc", 4, 1, "0ce012fa9713eb7ab12c179c1dea9e1573e713675701b96d4c7acb2b41861baa"),
    ("fuzzy_sphere", "star-assoc", 5, 1, "7ea92e7fd26092cdbb40e27adb4431883fc6132ad26d48a464f13ead0a0cfb42"),
    ("fuzzy_sphere", "trace-check", 3, 0, "81801f06e5e3a9cbe40f6fa3f0326d119a19ea143c9ed7d70fddfca7a5b71284"),
    ("fuzzy_sphere", "trace-check", 4, 1, "7a63308c99194674d19f2e8c23610e651a5a3cd4a932f2656b33168afc7922fe"),
    ("fuzzy_sphere", "trace-check", 5, 1, "29c55c1de30af772c955f618231453906280f3dab8400d96034d419807f8405d"),
    ("fuzzy_sphere", "subalgebra", 0, 0, "be2f114f1f27a56caa5db535d8c0119591846061d6683c8f5c3ace1ede08c4ab"),
    ("fuzzy_sphere", "subalgebra", 1, 0, "0b9e1047ff2a199b80bc7b387b34e36458e2aa726b071a71ed91b4970e5e01ec"),
    ("fuzzy_sphere", "subalgebra", 3, 0, "47d95650c92cd41fb20933003acfcdef292244172e85a46264e1a645741ed099"),
    ("fuzzy_sphere", "subalgebra", 4, 0, "a654a9a8329d3a24712da4d98476820cfdae4ee465c544bfb245e705ab986275"),
    ("fuzzy_sphere", "subalgebra", 5, 0, "48ebe8ca0ac2e3ad5f39eff22e9c4fa4de00749950e35acebe67f2d35306e74d"),
    ("fuzzy_sphere", "oscillator", 0, 0, "972d43731ddfdbf49886c6b2523a18f2a33fa36baa3a98dbe3d3de53dfbb6d8d"),
    ("fuzzy_sphere", "oscillator", 1, 0, "e8a7df63ed0dbbebbad889845e2981ecfafc1670eb599d66e8722ac1ef671bc3"),
    ("fuzzy_sphere", "oscillator", 3, 0, "38be37e2fdcd858a369e0ed1e057b22cc63e4631be49835fb4b89723bd18126d"),
    ("fuzzy_sphere", "oscillator", 4, 0, "cc148b054d1f818c8cccad9055abf6192bbc2d7bcc977269aa311efa848b6db5"),
    ("fuzzy_sphere", "oscillator", 5, 0, "bac66c2ad48c1f48c479a7751e585a5320a95d10b69e853b5fe896f537f96163"),
    ("fuzzy_sphere", "free-particle", 0, 0, "f133df27498e764280cad6969a40e00bbcea40d563126fb0afa97e1ac8fa7595"),
    ("fuzzy_sphere", "free-particle", 1, 0, "03dfeb8552cc5ef7278d557e8a7197e6a20f71d0b7fcb692212c3cf091e51cd2"),
    ("fuzzy_sphere", "free-particle", 3, 0, "9b51c709d06b54c5ec4bd0e27051eabce827863287df4ab71b0798abe4ee245f"),
    ("fuzzy_sphere", "free-particle", 4, 0, "97d0b291a64094a7147381b4ce7d01d51f70fc2b1dc574f3e2ddf66d3f77cd2e"),
    ("fuzzy_sphere", "free-particle", 5, 0, "8c952ea2df852a509e6152e2dd502e6f68cf447b8598021e61d598792a6d6ae5"),
    ("non_poisson", "validate", 0, 1, "d721d767cdfe48be6a75625ccae42fd5bc2dd9f72c4858b9cdf8a337650d5146"),
    ("non_poisson", "validate", 1, 1, "d432e3118fd9cffdcb023bff6524ab8421fa873f47dc35e3ee65a186bacb3785"),
    ("non_poisson", "validate", 3, 1, "5a967145ef533b9890a51bd3b7b48a739c989252833617be389bb3d9597c0eaa"),
    ("non_poisson", "validate", 4, 1, "3c9369e2a15b5b4eb80934ce6dc4f201074638394b3469146e07352d52c4b16f"),
    ("non_poisson", "validate", 5, 1, "700f100eed678f20acc365d1dc06a3413f670c18bad561e76a7376268029f521"),
    ("non_poisson", "gamma", 0, 1, "42ef71346aad52ba7647675359e360641b8df99741a08fb4ae995ef076f20035"),
    ("non_poisson", "gamma", 1, 1, "d991d38fe963c4b734d010eb108b9aad24fef2f972fb6320f0e7b58bd5b3fe54"),
    ("non_poisson", "gamma", 3, 1, "3e2a798e6d050d870a85f77875972f7e24d5ae55307d76901b8c885a69c36b84"),
    ("non_poisson", "gamma", 4, 1, "9e2ac323a54c1bb5cb26afe8c4a1c557c7b0fc9e3b389e93ae469c440c185fed"),
    ("non_poisson", "gamma", 5, 1, "3a5d561bcd8ee3580ad953ecd4e92c7c23f9b40875d7e69238b24b704ca5958f"),
    ("non_poisson", "darboux-check", 3, 1, "b76a0cf97c1fa5c0dc3e19120949ec2823f46a5acdc143a539e50e87815ec6d2"),
    ("non_poisson", "star-assoc", 0, 1, "d4b8ce934af05d21c473d9be7a346da4b8c523d159c8fb0a7348b5e10a5de366"),
    ("non_poisson", "star-assoc", 1, 1, "bf8b17c8f6c7d4583ec4dd29965d65d822dfe202946e0f94bde0c3fc8d3b3f42"),
    ("non_poisson", "star-assoc", 3, 1, "6965b9a0bae86a55ce9d71eb75378d0e64df4c63349b9c8c0c2efc7c3b7a0625"),
    ("non_poisson", "star-assoc", 4, 1, "e66a96e9e0b52266c289d628c15a0768b3b4202cf4a3a517e9c432afe9bde2c5"),
    ("non_poisson", "star-assoc", 5, 1, "ed96fa0747c4f242dcc880b59b3d61c4d6bcc0437c60436bc1dea19f8cbbfb6b"),
    ("non_poisson", "trace-check", 3, 1, "3aada8c15995f1cb767a9d562229955d63677eff022769a62f6b5bad403707a5"),
    ("non_poisson", "trace-check", 4, 1, "ad137d6fd3c1abf831295bca587d410d0a2207a8e6ebc18d9e6b55c1b3c77b4f"),
    ("non_poisson", "trace-check", 5, 1, "5e579c1b77c731d31c7482ed8001cf1cb7bfdac5f6e3a8005dd2653540fb63d0"),
    ("non_poisson", "subalgebra", 0, 1, "10f7c8b683aea172b595df7ff7da76081aeca726bf3428af5c5042b0d9b333d0"),
    ("non_poisson", "subalgebra", 1, 1, "9f3bcd5a12d81c3a96de90d135f7bfb79ab8ca6c3f12c7781de668841d8d6f90"),
    ("non_poisson", "subalgebra", 3, 1, "304adf1a20bba64a5a3b0b775d14fbe7c53d0500eaef6e15f43d5e26eae81e84"),
    ("non_poisson", "subalgebra", 4, 1, "ec6250b03bc64f5008c863e617b76ae757d3386d9dce3ff3b0d385e6b3c2e706"),
    ("non_poisson", "subalgebra", 5, 1, "fdb4fa28195c0c52e3a42151f141cc3eea1e7729c049343c562bd57f44696e60"),
    ("non_poisson", "oscillator", 0, 1, "ea43b74678eac5cd53021923cf2f1282fcd801a752afcfe50ab1ca43d83c16e3"),
    ("non_poisson", "oscillator", 1, 1, "a28bcb60301c223cfe7a2246d270429c0479843d9eb8228e9f5d5c1776ac9b7d"),
    ("non_poisson", "oscillator", 3, 1, "ec970ac23115862b99985efd46bb7fad67eb45d9141733b9b7cf05c83899c216"),
    ("non_poisson", "oscillator", 4, 1, "03b9076a0a29302ee1638281ed65cf64264a7b1c7560f6843f36d334cc0d1238"),
    ("non_poisson", "oscillator", 5, 1, "0d86231d2e0f58abd86a8dd35f3355d2679a8ba1889a9bff08bc4d0de70f6041"),
    ("non_poisson", "free-particle", 0, 0, "b6aa2ba98bf43c219fb6ab8d8aa424e59d44cfe719807ff5a30139dc78795b62"),
    ("non_poisson", "free-particle", 1, 0, "7a5dd1b661437d2c8bec9b8a39fe1377581374778efe38f1c6dfa4c2304f2f97"),
    ("non_poisson", "free-particle", 3, 0, "15cb0c800022f0136cd45b2f9542333cdff68205d8449478839349525896d40a"),
    ("non_poisson", "free-particle", 4, 0, "ad60af2c262844f83a1169c3c06e9c834c03196a9e9f0382511032d8682e7d65"),
    ("non_poisson", "free-particle", 5, 0, "a2362877a842a78e49fa1045b248e00b9c046e5b7623c202523c96a01e00080c"),
    ("quadratic2d", "validate", 0, 1, "563383718a936f4b5254eb79baf8f6ce6e09300a2916d82f20231ae592c9b207"),
    ("quadratic2d", "validate", 1, 1, "dc7d69800f92f5d4472efe097c3b22011b72a7005cdf7448424f1fc332168877"),
    ("quadratic2d", "validate", 3, 1, "4bd6d3dd412d5000e16d6120c3bbd82ede00c88423f6e04b435be7715f349c53"),
    ("quadratic2d", "validate", 4, 1, "ab3f4575d9791a166b334f9f90c5e20615a70c1d738d70e85ff78475c037c878"),
    ("quadratic2d", "validate", 5, 1, "6ac27461f6f771b4f3585a9dcac42159375f7d634d097fc72de5641cbe3faeb9"),
    ("quadratic2d", "gamma", 0, 0, "be9784260d0f9cef206c4f4f74a03950bc9f1a299bc91fbc92a06d2b34537c2b"),
    ("quadratic2d", "gamma", 1, 0, "57fb5730dc69e6b8e026017a2ffc85f125b6988812fd1f16613c36f7e692b0ca"),
    ("quadratic2d", "gamma", 3, 0, "f9c3d731251f24e96cceeceaad8493dbb48f2b843ec29fab9aa37d65cfb25858"),
    ("quadratic2d", "gamma", 4, 0, "83d7c04228218481da7b80e71f4d7c82564a7923f9edcd206cd6b081134ec737"),
    ("quadratic2d", "gamma", 5, 0, "499136074030910ebb0426934b7233c69b53996e0ed4f9a6521af3c1b87c528d"),
    ("quadratic2d", "darboux-check", 3, 0, "88b7bf2876947074a495398d9d623ec093c2d05d40467968672177060d9e30bb"),
    ("quadratic2d", "star-assoc", 0, 0, "cab178a47b4207ee8201e9310496862fa621d9e3785b2ecfa2c13f15d43a48a6"),
    ("quadratic2d", "star-assoc", 1, 0, "b7f8828bca6874a583c8eee1190e9eea1dcb1cd15525ffa9ebf2b40c553f4cdd"),
    ("quadratic2d", "star-assoc", 3, 0, "d2ee8a676a42d8f5c3ac66ec97a38983953c67a6874d9ba5a14c77d9bef59fab"),
    ("quadratic2d", "star-assoc", 4, 1, "e30055e6a4fb0be8a6937d75131e95a33192eb511d1354a8597c2a099db5871f"),
    ("quadratic2d", "star-assoc", 5, 1, "29fdd7d6dadf5a84c7502ec7dcf538ff7ac4dea3964f51b243781e54eeb4429a"),
    ("quadratic2d", "trace-check", 3, 1, "582005348375984eec5d7dbbace74258ce3d7dd34422182ba8e8c63244ca03af"),
    ("quadratic2d", "trace-check", 4, 1, "7215cc9096c4e04ca6e171a8f52baa625646450f6d6d33f0213fdd8221db2647"),
    ("quadratic2d", "trace-check", 5, 1, "0f0ea7aafbcdbec8a2b5c23bf5c68fb8c1c4cc7b2a7b8738a2d81fdcfce0884c"),
    ("quadratic2d", "subalgebra", 0, 0, "ca3f971d1292a4ae5327a3f9cabbc2e80ea8866096b2fdce75a15334333ab150"),
    ("quadratic2d", "subalgebra", 1, 0, "4714e830d08fe77a6f3ec5730d151afcaccb8ac957645fdb8118c615dd7a9af3"),
    ("quadratic2d", "subalgebra", 3, 0, "0e21f02de1b8aeae426d62d5c703d5918699cd6c8224d5d7f5e8d1e61b7362f8"),
    ("quadratic2d", "subalgebra", 4, 0, "78ddccb7dd6dee2d1d04e17f479786971e2bc781c9b8d8449dfa7eb2c4e55dc4"),
    ("quadratic2d", "subalgebra", 5, 0, "345373bbfe489ae05fcd3a42a4c2d68808f4891a40dcee3eaa53e29b04d6c1ab"),
    ("quadratic2d", "oscillator", 0, 1, "9d0f73c34c93696507ba13d4599d03f510c9158cbe6d7f72fe09f766dc47cc80"),
    ("quadratic2d", "oscillator", 1, 1, "4347d6a2a45a3f55f98a3c9434a41b38776ccba74135a73aca90312cbc58d4ff"),
    ("quadratic2d", "oscillator", 3, 1, "ea2aa2d2393c5e0cb27e4b7ab31bd71e3c2737548cfdefd817301444fe8966de"),
    ("quadratic2d", "oscillator", 4, 1, "b280683aaefeb09b7e6dbacad160800c0441fcd40e14f67ebe42c8d29c675b98"),
    ("quadratic2d", "oscillator", 5, 1, "591920afc16713494aedb8258d8c13ef27c7efdb626c420fca98a315e340e64a"),
    ("quadratic2d", "free-particle", 0, 0, "7447ad6b219e281d805320afd45b04f5eb19c122cd5ab4097d7d4bfa048cc819"),
    ("quadratic2d", "free-particle", 1, 0, "87ecb4d503fe010555d2ccec1294092e91a77666f98b98a48780bc9da09092bd"),
    ("quadratic2d", "free-particle", 3, 0, "2e568f8810587c43ef1e238ccd70c8141014d9a6c524b181814fba37b4a4bc81"),
    ("quadratic2d", "free-particle", 4, 0, "8115ed4a089a2299ad6ed505fc7414d48b30d376f02ed5da66899e33d4551e43"),
    ("quadratic2d", "free-particle", 5, 0, "ec09e92339c3f8f90d705e58380dc64e47a1fdbef1474757c639182a2206d683"),
]


@pytest.mark.parametrize("name,task,order,code,digest", GOLDEN_MATRIX,
                         ids=[f"{n}-{t}-{o}" for n, t, o, _, _ in GOLDEN_MATRIX])
def test_golden_matrix(name, task, order, code, digest, capsys):
    assert main([str(PROBLEMS / f"{name}.json"), "--task", task,
                 "--order", str(order)]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# the fuzzy sphere with the radial density r^2, recorded as above: the
# gauge is not polynomial, so every order reports the same GaugeError reason
GOLDEN_RADIAL = [
    (0, "7f4727259955b08ec04f6ecd006ef3e6966dc73ad2aecfdc303ecd53410fd9b1"),
    (1, "af88aa1e1fa923c53f11e83a2887000e4446bf13735a498fc08d716df126f49f"),
    (2, "f769d81636cfd724d858c5d3b72fa4e2e085f72863d063a3369c586b7d4b6263"),
    (3, "72d20e7d910e022ad47fdc1bcce1d54c2c7f207bd37cbb2d5a54137b70a441db"),
]


@pytest.mark.parametrize("order,digest", GOLDEN_RADIAL,
                         ids=[str(o) for o, _ in GOLDEN_RADIAL])
def test_golden_radial_gauge_error(order, digest, tmp_path, capsys):
    doc = json.loads((PROBLEMS / "fuzzy_sphere.json").read_text())
    doc["measure"] = "x1^2+x2^2+x3^2"
    path = tmp_path / "radial.json"
    path.write_text(json.dumps(doc))
    assert main([str(path), "--task", "trace-check", "--order", str(order)]) == 1
    out = capsys.readouterr().out
    assert json.loads(out)["tasks"]["trace-check"] == {
        "status": "error",
        "reason": "gauge entry (1,1) is not polynomial: "
                  "(1/12*x3^2 + 1/12*x2^2 + 1/24*x1^2) / "
                  "(1/1*x3^2 + 1/1*x2^2 + 1/1*x1^2)"}
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# the Nambu bivector of C = x1*x2 at order 2; its gauge, (3,3) = -1/24, is
# nonzero, so the gauge-corrected pairs run through a nontrivial product
NAMBU_X1X2 = json.dumps({
    "dim": 3, "order": 2,
    "bivector": [{"i": 2, "j": 3, "poly": "x2"}, {"i": 3, "j": 1, "poly": "x1"}]})


def test_trace_check_with_gauge(monkeypatch):
    monkeypatch.setattr(cli, "RANDOM_TRIPLES", 3)
    rec = run_task(ProblemFile.parse(NAMBU_X1X2), "trace-check")
    assert rec["gauge"] == {"(3,3)": "-1/24"}
    text = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
        "77da724c41aa462eb59159ec515fec3f9eace549da57c75a17d1fdf00002f63c"


def count_calls(monkeypatch, func) -> list:
    """Replace every ncqm binding of ``func`` with a wrapper that records
    the arguments of each call in the returned list."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ncqm" and getattr(module, func.__name__, None) is func:
            monkeypatch.setattr(module, func.__name__, counted)
    return calls


@pytest.mark.parametrize("task", ["star-assoc", "trace-check", "oscillator", "subalgebra"])
def test_product_builds_no_tower(monkeypatch, task):
    """The product solves its operators from the closure, and the bare
    operators of the subalgebra report are read off them: verdicts that
    only build products never build the Darboux tower."""
    calls = count_calls(monkeypatch, build_gamma)
    monkeypatch.setattr(cli, "RANDOM_TRIPLES", 2)
    rec = run_task(ProblemFile.parse((PROBLEMS / "fuzzy_sphere.json").read_text()), task)
    assert rec["status"] == "pass"
    assert calls == []


def test_subalgebra_checks_jacobi_once(monkeypatch):
    """The product's Poisson gate is the verdict's only Jacobi check."""
    calls = count_calls(monkeypatch, jacobi_defect)
    rec = run_task(ProblemFile.parse(FUZZY_TEXT), "subalgebra")
    assert rec["status"] == "pass"
    assert len(calls) == 1


def test_trace_check_integrates_fg_once_per_pair(monkeypatch):
    """Each pair is traced five times: f * g and g * f under the corrected
    and the uncorrected product, and the pointwise fg once for both."""
    calls = count_calls(monkeypatch, trace)
    monkeypatch.setattr(cli, "RANDOM_TRIPLES", 2)
    rec = run_task(ProblemFile.parse(FUZZY_TEXT), "trace-check")
    assert rec["status"] == "pass"
    assert len(calls) == 2 * 5


@pytest.mark.parametrize("name,status", [("fuzzy_sphere", "pass"), ("quadratic2d", "fail")])
def test_trace_check_checks_the_density_once(monkeypatch, name, status):
    """Reading the gauge checks the density, and that is the verdict's only
    divergence check, whether the density passes it or not."""
    calls = count_calls(monkeypatch, measure_defect)
    monkeypatch.setattr(cli, "RANDOM_TRIPLES", 2)
    rec = run_task(ProblemFile.parse((PROBLEMS / f"{name}.json").read_text()), "trace-check")
    assert rec["status"] == status
    assert len(calls) == 1


@pytest.mark.parametrize("name,n", [("fuzzy_sphere", 3), ("quadratic2d", 2)])
def test_subalgebra_builds_each_target_once(monkeypatch, name, n):
    """One left star multiplication per bivector entry w^{ij}, i < j,
    shared by the corrected and the bare coordinate operators."""
    from ncqm.star import StarProduct
    original = StarProduct.left_multiplication_operator
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(StarProduct, "left_multiplication_operator", counted)
    rec = run_task(ProblemFile.parse((PROBLEMS / f"{name}.json").read_text()), "subalgebra")
    assert rec["status"] == "pass"
    assert len(calls) == n * (n - 1) // 2


def test_oscillator_reports_the_computed_coefficient(monkeypatch):
    """The record carries the report's coefficient, not a fixed string."""
    report = dataclasses.replace(cli.build_fuzzy_oscillator(),
                                 correction_coefficient=Fraction(1, 12))
    monkeypatch.setattr(cli, "build_fuzzy_oscillator", lambda: report)
    rec = run_task(ProblemFile.parse(FUZZY_TEXT), "oscillator")
    assert rec["correction_coefficient"] == "1/12"
