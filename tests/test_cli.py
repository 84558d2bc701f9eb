import collections
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st
from poly_text import poly_from_text

from knotpair import census
from knotpair.cli import main
from knotpair.diagram import orient, pd_from_rep
from knotpair.reps import Girth2Rep, Girth3Rep


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_eval_conway(capsys):
    code, out = run(capsys, "eval", "(2,2)", "conway")
    assert code == 0
    assert out.strip() == "1 + z^2"


def test_eval_girth3_conway(capsys):
    code, out = run(capsys, "eval", "[2 2 2 / 2 2 2]", "conway")
    assert code == 0
    assert out.strip() == "1 + 6z^2 + 9z^4"


def test_eval_span(capsys):
    code, out = run(capsys, "eval", "(2,8)", "span")
    assert code == 0 and out.strip() == "10"


def test_eval_both_methods_agree(capsys):
    code, out = run(capsys, "eval", "(2,-3)", "jones", "--method", "both")
    assert code == 0
    assert "AGREE" in out


def test_eval_both_agrees_on_girth3_knot_conway(capsys):
    # the closed side reads the frozen parity-pattern table, the oracle
    # side runs Fox calculus on the template
    rng = random.Random(20261018)
    checked = 0
    while checked < 100:
        labels = [rng.randint(-8, 8) for _ in range(6)]
        rep = Girth3Rep(tuple(labels[:3]), tuple(labels[3:]))
        if (
            not 10 <= sum(map(abs, labels)) <= 24
            or all(x % 2 == 0 for x in labels)
            or orient(pd_from_rep(rep)).n_components != 1
        ):
            continue
        code, out = run(capsys, "eval", str(rep), "conway", "--method", "both")
        assert code == 0 and out.splitlines()[-1] == "AGREE", (rep, out)
        assert "(not available)" not in out
        checked += 1


WITHHELD_KNOT = "[3 2 7 / 1 4 9]"  # 26 crossings, an odd label: no closed Conway


def test_eval_both_refuses_a_withheld_closed_conway_before_fox(monkeypatch, capsys):
    from knotpair import oracle

    monkeypatch.setattr(oracle, "conway_fox", lambda *a, **k: pytest.fail("Fox ran"))
    for fmt in ("text", "json"):
        argv = ["eval", WITHHELD_KNOT, "conway", "--method", "both",
                "--budget-crossings", "100", "--format", fmt]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: 26 crossings exceeds CONWAY_CAP = 24, the bound of the closed "
            "Conway table: --method both has no closed value to compare\n"
        )
    # the budget check comes first and keeps its message
    assert main(["eval", WITHHELD_KNOT, "conway", "--method", "both"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 26 crossings exceeds the oracle budget of 24 crossings\n"


def test_eval_both_on_a_link_over_conway_cap_agrees_on_no_value(capsys):
    code, out = run(capsys, "eval", "[3 3 7 / 1 3 9]", "conway", "--method", "both",
                    "--budget-crossings", "100")
    assert code == 0
    assert out == "closed: (not available)\noracle: (not available)\nAGREE\n"


def test_eval_both_exits_1_when_two_values_differ(monkeypatch, capsys):
    from knotpair import oracle
    from knotpair.laurent import LaurentPoly

    monkeypatch.setattr(oracle, "conway_fox", lambda *a, **k: LaurentPoly.one("z"))
    code, out = run(capsys, "eval", "(2,2)", "conway", "--method", "both")
    assert code == 1
    assert out == "closed: 1 + z^2\noracle: 1\nDISAGREE\n"


def test_eval_oracle_over_the_cap_is_refused_in_one_line(capsys):
    code = main(["eval", "(13,12)", "bracket", "--method", "oracle"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: 25 crossings exceeds the oracle budget of 24 crossings\n"
    )


def test_eval_output_parses_back(capsys):
    code, out = run(capsys, "eval", "(3,-2)", "conway")
    poly = poly_from_text(out.strip(), "z")
    assert dict(poly.terms).get(0, 0) == 1


# sha256 of stdout, recorded while every product still ran the schoolbook
# loop; these brackets have hundreds of terms, so they pin the closed forms'
# big-integer evaluation end to end.  The last four, recorded before the
# single-term product became a shift and the renderer a one-pass loop, pin
# the text of half-integer Jones exponents (a girth-3 link and an odd/odd
# girth-2 link), a compare's Jones evidence and a JSON bracket.
@pytest.mark.parametrize(
    "argv, digest",
    [
        (("eval", "[40 50 60 / 30 20 10]", "jones"),
         "62e48a66956f0eba40c188cc6def53da69e120c9273dbd6a5bd0d9b81de3b8f5"),
        (("eval", "(1000,1000)", "bracket"),
         "8206ed436703409e8397b8f65b7fb05dd4bde9cd4e2f93ed219b4f9b51f1eb33"),
        (("eval", "[-300 211 97 / 150 -64 288]", "bracket"),
         "d817b570253896cd27b37ddce6ff414a8a14380032676ed5adc7d8629acd333e"),
        (("eval", "[-300 211 97 / 150 -64 288]", "span"),
         "ca1144ed9f3aa0bf799043d185aa306dfc74e468d61ae6e12465a48c966bb4bf"),
        (("eval", "[297 -283 301 / -276 305 -299]", "bracket"),
         "aadb283ed45e4c52936ffaffb1951aa1967f8df9a0a438c5ab6490707eb5d4be"),
        (("eval", "[241 -150 160 / 130 -120 111]", "jones"),
         "cc1705a76b21339f84c4e8016d51749e0597c086943692f4ae33390d9a5a6476"),
        (("eval", "(31,-17)", "jones"),
         "837b915ba152c554d85dbdd9e7fc6e53467fa24b4b943d979f6cb2e432869bfa"),
        (("compare", "[41 51 60 / 30 20 10]", "[41 51 60 / 10 20 30]"),
         "602e448ffe28f62f176b7f8206b1a3db0e982e98e09b1c2c077fac7e87939245"),
        (("eval", "[61 -47 52 / -38 70 29]", "bracket", "--format", "json"),
         "d9606ec865784d0e3e1950cbf9d036db6ee658bfc00a773d9a393045a244aa02"),
    ],
)
def test_eval_large_labels_pinned(capsys, argv, digest):
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_compare(capsys):
    code, out = run(capsys, "compare", "(2,8)", "(4,4)")
    assert code == 0
    assert out.startswith("DistinctByJones")
    code, out = run(capsys, "compare", "[2 4 6 / 2 2 4]", "[4 6 2 / 2 4 2]")
    assert out.startswith("EqualBySymmetry")
    code, out = run(capsys, "compare", "[4 8 12 / 4 6 2]", "[4 8 12 / 2 4 6]")
    assert out.startswith("DistinctByJones")


def test_compare_json(capsys):
    code, out = run(capsys, "compare", "(2,8)", "(4,4)", "--format", "json")
    obj = json.loads(out)
    assert obj["verdict"] == "DistinctByJones"


def test_parse_error_exit_code(capsys):
    code = main(["eval", "(oops)", "conway"])
    assert code == 2


def test_girth_and_decompose(tmp_path, capsys):
    from diagram_builders import pd_to_json
    from knotpair.diagram import pd_from_rep
    from knotpair.reps import Girth3Rep

    pd = pd_from_rep(Girth3Rep((0, 2, 2), (0, -1, -1)))
    path = tmp_path / "fig2.pd.json"
    path.write_text(pd_to_json(pd))
    code, out = run(capsys, "girth", str(path))
    assert code == 0 and out.startswith("girth 3")
    code, out = run(capsys, "decompose", str(path))
    assert code == 0 and "rep:" in out


def test_girth_budget_refusal(tmp_path, capsys):
    from diagram_builders import braid_closure_pd, pd_to_json

    # least girth 9: the sweep would run, and the budget refuses it
    path = tmp_path / "big.pd.json"
    path.write_text(pd_to_json(braid_closure_pd([1, -2] * 9, 3)))
    code = main(["girth", str(path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 18 crossings exceeds the spanning-tree budget of 16\n"
    assert main(["girth", str(path), "--budget-crossings", "18"]) == 0
    assert capsys.readouterr().out.startswith("girth 9\n")


def test_girth_refuses_a_large_braid_closure_before_the_backtracking(tmp_path, capsys):
    # counting its trees once took minutes at 2000 crossings; the shading
    # and the girth-2 and girth-3 construction run first
    import time

    from diagram_builders import braid_closure_pd, pd_to_json

    path = tmp_path / "braid.pd.json"
    path.write_text(pd_to_json(braid_closure_pd([1, -2] * 1000, 3)))
    start = time.perf_counter()
    assert main(["girth", str(path)]) == 2
    assert time.perf_counter() - start < 10
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 2000 crossings exceeds the spanning-tree budget of 16\n"


def test_girth_with_a_lifted_budget_finds_the_reference_witness(tmp_path, capsys):
    from girth_reference import reference_least
    from diagram_builders import pd_to_json
    from knotpair.diagram import checkerboard, tait_graph

    pd = pd_from_rep(Girth3Rep((6, 6, 6), (6, 6, 6)))
    path = tmp_path / "dense.pd.json"
    path.write_text(pd_to_json(pd))
    code, out = run(
        capsys, "girth", str(path), "--budget-crossings", "36", "--format", "json"
    )
    assert code == 0
    result = json.loads(out)
    girth, tree = reference_least(tait_graph(pd, checkerboard(pd)[0]))
    assert result["girth"] == girth == 3
    assert result["witness"]["tree_crossings"] == list(tree)


def test_unreduced_diagram_is_refused_in_one_line(tmp_path, capsys):
    from diagram_builders import pd_to_json

    path = tmp_path / "kink.pd.json"
    path.write_text(pd_to_json(pd_from_rep(Girth3Rep((0, 0, 1), (1, 0, 0)))))
    assert main(["girth", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: diagram is not reduced: crossings[0] is nugatory\n"


@pytest.mark.parametrize("command", ["girth", "decompose"])
def test_a_nugatory_crossing_between_two_trefoils_is_refused(tmp_path, capsys, command):
    # the closure of s1^3 s2 s3^3 joins two trefoils by a nugatory s2: its
    # Tait graphs have a loop and a bridge but no valence-1 vertex
    from diagram_builders import braid_closure_pd, pd_to_json

    path = tmp_path / "two-trefoils.pd.json"
    path.write_text(pd_to_json(braid_closure_pd([1, 1, 1, 2, 3, 3, 3], 4)))
    assert main([command, str(path)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: diagram is not reduced: crossings[3] is nugatory\n")


@pytest.mark.parametrize("command", ["girth", "decompose"])
def test_a_split_diagram_is_refused_as_split(tmp_path, capsys, command):
    # two disjoint trefoils are planar, but each piece adds its own n + 2
    # regions: 10 where a connected diagram of 6 crossings has 8
    path = tmp_path / "two-trefoils.pd"
    path.write_text(
        "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3) X(7,10,8,11) X(9,12,10,7) X(11,8,12,9)"
    )
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: region count 10 violates Euler formula (expected 8); "
        "the diagram is split into 2 pieces\n"
    )


@pytest.mark.parametrize("command", ["girth", "decompose"])
def test_a_split_code_with_the_euler_count_is_refused_as_split(tmp_path, capsys, command):
    # a genus-one piece of two crossings beside a trefoil: 2 + 5 regions
    # are the 7 of a connected planar diagram of 5 crossings, so only the
    # piece count refuses it
    path = tmp_path / "split.json"
    path.write_text(
        '{"crossings": [[1,2,3,4],[1,2,3,4],[11,14,12,15],[13,16,14,11],[15,12,16,13]]}'
    )
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the diagram is split into 2 pieces\n"


@pytest.mark.parametrize(
    "text",
    [
        "{}",
        '{"crossings": [1,2]}',
        '{"crossings": null}',
        '{"crossings": [], "free_loops": -3}',
        '{"crossings": [["a","a","b","b"]]}',
        '{"crossings": [], "free_loops": 1.5}',
    ],
)
def test_malformed_pd_json_exits_2(tmp_path, capsys, text):
    path = tmp_path / "bad.pd.json"
    path.write_text(text)
    code = main(["girth", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


_DEEP = 200000  # far past the interpreter's recursion limit


@pytest.mark.parametrize(
    "text",
    [
        "[" * _DEEP,
        '{"crossings": ' + "[" * _DEEP + "]" * _DEEP + "}",
        # an integer too long for int() sends the reader to its second pass
        '{"free_loops": ' + "1" * 5000 + ', "crossings": ' + "[" * _DEEP + "]" * _DEEP + "}",
    ],
    ids=["list", "crossings", "long-int-first"],
)
def test_deeply_nested_pd_json_exits_2_in_one_line(tmp_path, capsys, text):
    path = tmp_path / "deep.pd.json"
    path.write_text(text)
    (tmp_path / "fixtures").mkdir()
    (tmp_path / "fixtures" / "3_1.pd.json").write_text(text)
    for argv, prefix in (
        (["decompose", str(path)], ""),
        (["girth", str(path)], ""),
        (
            ["verify-table", "--max-crossings", "3", "--fixtures", str(tmp_path / "fixtures")],
            "3_1.pd.json: ",
        ),
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {prefix}PD JSON nests too deeply\n"


@pytest.mark.parametrize("text", ["[1,2]", "[[1,2,3,4]]"])
def test_json_list_pd_file_gets_the_json_error(tmp_path, capsys, text):
    path = tmp_path / "list.pd"
    path.write_text(text + "\n")
    code = main(["girth", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: PD JSON must be an object with a 'crossings' list\n"


def test_large_non_pd_file_gets_a_short_error(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text("not a diagram\n" * 7500)
    code = main(["girth", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err[:300]
    assert len(lines[0]) < 200


def test_census_csv_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        code, _ = run(
            capsys,
            "census",
            "--girth",
            "2",
            "--max",
            "10",
            "--even",
            "--positive",
            "--output",
            str(out),
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0].startswith("rep,girth,components")
    class_ids = {line.split(",")[-2] for line in lines[1:]}
    assert len(class_ids) == 15


def test_verify_table_cli(capsys):
    code, out = run(
        capsys, "verify-table", "--max-crossings", "7", "--errata"
    )
    assert code == 0
    assert "PASS" in out
    # without errata the printed rows fail and the exit code reports it
    code, out = run(capsys, "verify-table", "--max-crossings", "7")
    assert code == 1


def test_verify_table_negative_max_crossings_is_a_usage_error(capsys):
    # a negative bound used to print one empty line and exit 0, a check of
    # nothing that passed
    assert main(["verify-table", "--max-crossings", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the crossing bound is negative\n"


@pytest.mark.parametrize("bound", ["0", "1"])
def test_verify_table_below_the_smallest_entry_is_a_usage_error(capsys, bound):
    # no table entry has fewer than 2 crossings: these bounds used to print
    # one empty line and exit 0, a check of nothing that passed
    assert main(["verify-table", "--max-crossings", bound]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: the crossing bound {bound} is below 2, the fewest crossings of a table entry\n"
    )


def test_verify_table_with_no_fixtures_skips_every_entry(tmp_path, capsys):
    # an empty fixtures directory checks nothing but refuses nothing: every
    # entry within the bound is a SKIP row, and the exit code is 0
    code, out = run(capsys, "verify-table", "--max-crossings", "2", "--fixtures", str(tmp_path))
    assert code == 0
    assert out.splitlines()[-1] == "SKIP=1"


def test_verify_table_fixtures_dir_override(tmp_path, capsys):
    code, out = run(
        capsys,
        "verify-table",
        "--max-crossings",
        "3",
        "--errata",
        "--fixtures",
        str(tmp_path),
    )
    assert code == 0
    assert "SKIP" in out


@pytest.mark.parametrize("kind", ["missing", "file"])
def test_verify_table_fixtures_not_a_directory_exits_2(tmp_path, capsys, kind):
    # a path that lists no directory is an error, not a table of SKIP rows
    path = tmp_path / "fixtures"
    if kind == "file":
        path.write_text("{}")
    code = main(["verify-table", "--fixtures", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert str(path) in lines[0]


def test_verify_table_refuses_a_many_component_fixture_in_one_line(tmp_path, capsys):
    # a chain of 30 unknots as the trefoil's fixture: orienting it must not
    # try 2^29 directions, and its 58 crossings exceed the state-sum cap
    from diagram_builders import braid_closure_pd, pd_to_json

    chain = braid_closure_pd([i for i in range(1, 30) for _ in range(2)], 30)
    (tmp_path / "3_1.pd.json").write_text(pd_to_json(chain))
    code = main(["verify-table", "--fixtures", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


@pytest.mark.parametrize(
    "content, reason",
    [
        (b'{"crossings": [[1, 3, 2, 4]]}\xff', "'utf-8' codec can't decode byte 0xff"),
        (
            b'{"crossings": [[1, 3, 2, 4], [2, 4, 1, 3]]}',
            "region count 2 violates Euler formula (expected 4); "
            "the code does not describe a planar diagram",
        ),
    ],
)
def test_verify_table_names_the_fixture_it_cannot_read(tmp_path, capsys, content, reason):
    # undecodable text and a non-planar code: one line, led by the file name
    (tmp_path / "3_1.pd.json").write_bytes(content)
    code = main(["verify-table", "--fixtures", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: 3_1.pd.json: {reason}")
    assert len(captured.err.splitlines()) == 1, captured.err


def test_selftest(capsys):
    code, out = run(capsys, "selftest")
    assert code == 0
    assert "all suites passed" in out
    assert out.count("PASS") >= 6


def _spy_on_selftest(monkeypatch):
    """The arguments of each call that ``cli`` makes of the suites' closed
    forms and oracles, as {name: Counter of (args, kwargs)}.  A call from
    inside the package is not counted, so the count does not depend on how
    a formula is computed."""
    from knotpair import closedform, oracle

    calls = collections.defaultdict(collections.Counter)
    for module, names in (
        (closedform, ("bracket_double_twist", "bracket_girth3", "conway_girth3_even",
                      "conway_diff", "bracket_diff_formula", "permute_bottom", "s_hat",
                      "shat_cycle_det")),
        (oracle, ("bracket_state_sum", "conway_fox")),
    ):
        for name in names:
            real = getattr(module, name)

            def spy(*args, name=name, real=real, **kwargs):
                if sys._getframe(1).f_globals["__name__"] == "knotpair.cli":
                    calls[name][args, tuple(sorted(kwargs.items()))] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)
    return calls


def test_the_selftest_suites_check_the_same_reps(monkeypatch, capsys):
    # the suites' inputs, restated: the grid, then 25 reps and later 20
    # from one seeded generator, each rep drawing its top ring first
    rng = random.Random(20240915)

    def draw(n, label):
        return [Girth3Rep(*(tuple(label() for _ in range(3)) for _ in range(2)))
                for _ in range(n)]

    grid = [(p, q) for p in range(-3, 4) for q in range(-3, 4)]
    small = draw(25, lambda: rng.randint(-2, 2))
    sample = [Girth3Rep((p, q, r), (2, 2, 2)) for p in (2, 4) for q in (2, 4) for r in (0, 2)]
    example = Girth3Rep((4, 8, 12), (4, 6, 2))
    even = draw(20, lambda: 2 * rng.randint(1, 5))
    perms = {"swap_ab": (1, 0, 2), "swap_bc": (0, 2, 1), "swap_ac": (2, 1, 0),
             "cycle_cab": (2, 0, 1), "cycle_bca": (1, 2, 0)}
    pairs = [(rep, perm) for rep in even for perm in perms]
    others = [Girth3Rep(rep.top, tuple(rep.bottom[i] for i in perms[perm])) for rep, perm in pairs]

    def expect(*cases):
        return collections.Counter((case, ()) for case in cases)

    expected = {
        "bracket_double_twist": expect(*grid),
        "bracket_state_sum": expect(*((pd_from_rep(rep),) for rep in
                                      [Girth2Rep(p, q) for p, q in grid] + small)),
        "bracket_girth3": expect(*((rep,) for rep in small + even + others)),
        "conway_fox": expect(*((pd_from_rep(rep),) for rep in sample)),
        "conway_girth3_even": expect(*((rep,) for rep in sample + even + others)),
        "shat_cycle_det": expect((example, "cycle_cab")),
        "permute_bottom": expect(*pairs),
        "conway_diff": expect(*pairs),
        "bracket_diff_formula": expect(*pairs),
        "s_hat": expect(*((q,) for q in range(-10, 11) if q != 0)),
    }
    calls = _spy_on_selftest(monkeypatch)
    code, out = run(capsys, "selftest")
    assert code == 0 and out.endswith("all suites passed\n")
    assert dict(calls) == expected


def test_a_failing_selftest_suite_is_reported(monkeypatch, capsys):
    from knotpair import closedform
    from knotpair.laurent import LaurentPoly

    real = closedform.bracket_double_twist
    monkeypatch.setattr(
        closedform, "bracket_double_twist",
        lambda p, q: LaurentPoly.from_dict({99: 1}, "A") if (p, q) in ((1, -3), (-2, 2))
        else real(p, q),
    )
    code, out = run(capsys, "selftest")
    assert code == 1
    assert out.splitlines() == [
        "FAIL  double twist bracket grid |p|,|q|<=3 (1, -3)",
        "PASS  girth-3 bracket vs oracle (25 random reps)",
        "PASS  girth-3 even Conway vs Fox oracle (sample)",
        "PASS  S-determinant example (4 8 12 / 4 6 2)",
        "PASS  difference formulas (20 random even-positive reps)",
        "PASS  S-hat identity |q| <= 10",
        "1 failing suites",
    ]


FIXTURE_3_1 = os.path.join(os.path.dirname(__file__), "..", "src", "knotpair", "fixtures",
                           "rolfsen", "3_1.pd.json")


@pytest.mark.parametrize("argv", [
    ["eval", "(3)", "jones", "--budget-crossings", "-1"],
    ["eval", "(3)", "jones", "--method", "oracle", "--budget-crossings", "-1"],
    ["eval", "(3)", "conway", "--method", "both", "--budget-crossings", "-1"],
    ["girth", FIXTURE_3_1, "--budget-crossings", "-3"],
    ["decompose", FIXTURE_3_1, "--budget-crossings", "-1", "--format", "json"],
])
def test_a_negative_crossing_budget_is_refused_before_any_evaluation(monkeypatch, capsys, argv):
    from knotpair import classify, girth, oracle

    for module, name in ((classify, "rep_invariants"), (oracle, "bracket_state_sum"),
                         (oracle, "conway_fox"), (girth, "diagram_girth")):
        monkeypatch.setattr(module, name, lambda *a, **k: pytest.fail("evaluated"))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the crossing budget is negative\n"


@pytest.mark.parametrize(
    "rep, invariant",
    [
        ("(1000,1)", "span"),
        ("(990,1)", "span"),
        ("(1,1000)", "span"),
        ("(1000,3)", "span"),
        ("(1001)", "conway"),
    ],
)
def test_eval_of_a_long_twist_region_exits_0(capsys, rep, invariant):
    code = main(["eval", rep, invariant])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.err == "" and captured.out.strip()


# each of these took tens of seconds and hundreds of megabytes before the
# closed forms were capped; a `compare` evaluates both of its reps
@pytest.mark.parametrize(
    "argv, n",
    [
        (["eval", "[1500 1500 1500 / 1500 1500 1500000]", "jones"], 1507500),
        (["eval", "(1500,1500000)", "jones"], 1501500),
        (["compare", "(1500,1500000)", "(2,-3)"], 1501500),
        (["eval", "(10000,10001)", "span"], 20001),
    ],
)
def test_closed_evaluation_over_the_cap_is_refused_unevaluated(monkeypatch, capsys, argv, n):
    from knotpair import closedform

    evaluated = []
    monkeypatch.setattr(closedform, "bracket_girth3", evaluated.append)
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and evaluated == []
    assert captured.err == (
        f"error: {n} crossings exceeds the closed-form cap of 20000 crossings\n"
    )


def test_closed_evaluation_at_the_cap_answers(capsys):
    from knotpair.classify import CLOSED_CAP

    code, out = run(capsys, "eval", "(10000,10000)", "span")
    assert code == 0 and out == f"{CLOSED_CAP}\n"


@pytest.mark.parametrize("argv", [["census", "--girth", "3", "--max", "3"], ["selftest"]])
def test_a_closed_stdout_exits_141_quietly(argv):
    # as in ``knotpair census ... | head -1``: the reader has gone before
    # the command writes, which is no usage error
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        r = subprocess.run(
            [sys.executable, "-m", "knotpair.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env,
        )
    finally:
        os.close(write_end)
    assert (r.returncode, r.stderr) == (141, b"")


def test_one_process_parses_like_separate_ones():
    # the parser is built once per process and reused: a usage error, a
    # command and another usage error print what each prints on its own
    commands = [
        ["eval", "(3)"],
        ["eval", "(2,-3)", "jones"],
        ["census", "--girth", "4", "--max", "1"],
    ]
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)

    def alone(argv):
        r = subprocess.run(
            [sys.executable, "-m", "knotpair.cli", *argv],
            capture_output=True, text=True, env=env,
        )
        return [r.returncode, r.stdout, r.stderr]

    script = """if True:
        import argparse, contextlib, io, json, sys
        init = argparse.ArgumentParser.__init__
        built = []
        def counting(self, *a, **k):
            built.append(1)
            init(self, *a, **k)
        argparse.ArgumentParser.__init__ = counting
        from knotpair.cli import main
        results, counts = [], [len(built)]
        for argv in json.loads(sys.argv[1]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            results.append([code, out.getvalue(), err.getvalue()])
            counts.append(len(built))
        print(json.dumps([results, counts]))
    """
    r = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)],
        capture_output=True, text=True, env=env, check=True,
    )
    results, counts = json.loads(r.stdout)
    assert results == [alone(argv) for argv in commands]
    assert [code for code, _, _ in results] == [2, 0, 2]
    # importing builds nothing; the first command builds the parsers, once
    assert counts[0] == 0 and counts[1] == counts[2] == counts[3] > 1


def test_usage_errors_take_the_one_line_path(capsys):
    for argv in (
        ["eval", "-(3)", "span"],
        ["eval", "(3)"],
        ["census", "--girth", "4", "--max", "1"],
        [],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


def test_census_jobs_is_a_usage_error(capsys):
    # the option was ignored, and is gone
    assert main(["census", "--girth", "2", "--max", "3", "--jobs", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


@pytest.mark.parametrize("girth", ["2", "3"])
def test_census_negative_max_is_a_usage_error(capsys, girth):
    # a negative bound used to print only the header and exit 0
    assert main(["census", "--girth", girth, "--max", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def collector(request):
    """The cyclic collector on or off before the test, restored after it."""
    enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if enabled else gc.disable)()


def test_census_pauses_the_collector_and_restores_it(collector, monkeypatch, capsys):
    seen = []
    real = census.census_csv

    def spy(classes, out):
        seen.append(gc.isenabled())
        return real(classes, out)

    monkeypatch.setattr(census, "census_csv", spy)
    code, out = run(capsys, "census", "--girth", "2", "--max", "3")
    assert code == 0 and out.startswith("rep,girth,components")
    assert seen == [False]
    assert gc.isenabled() == collector


@pytest.mark.parametrize(
    "girth, bound, message",
    [("2", "13", "girth-2 label budget is 12"), ("2", "2000", "girth-2 label budget is 12"),
     ("3", "7", "girth-3 label budget is 6")],
)
def test_census_refuses_an_over_budget_bound_before_keying(monkeypatch, capsys, girth, bound,
                                                           message):
    from knotpair import closedform, g3table

    def refuse(*args):
        pytest.fail("a key table was built before the label budget was checked")

    monkeypatch.setattr(closedform, "census_jones", refuse)
    monkeypatch.setattr(g3table, "census_keys", refuse)
    assert main(["census", "--girth", girth, "--max", bound]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_census_restores_the_collector_on_a_usage_error(collector, capsys):
    assert main(["census", "--girth", "3", "--max", "-1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert gc.isenabled() == collector


_fuzz_label = st.integers(-1500, 1500)
_well_formed_rep = st.one_of(
    st.builds("({})".format, _fuzz_label),
    st.builds("({},{})".format, _fuzz_label, _fuzz_label),
    st.builds("[{} {} {} / {} {} {}]".format, *[_fuzz_label] * 6),
)


@st.composite
def _mangled_rep(draw):
    text = list(draw(_well_formed_rep))
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(("delete", "insert", "replace")))
        char = draw(st.sampled_from(list("()[]/,- 0123456789x.e")))
        if kind == "insert" or not text:
            text.insert(pos, char)
        elif kind == "delete":
            del text[min(pos, len(text) - 1)]
        else:
            text[min(pos, len(text) - 1)] = char
    return "".join(text)


def _main_quietly(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one command."""
    # hypothesis raises the recursion limit while a test runs; the CLI runs
    # with the interpreter's default of 1000 frames
    limit = sys.getrecursionlimit()
    out, err = io.StringIO(), io.StringIO()
    try:
        sys.setrecursionlimit(1000)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.setrecursionlimit(limit)
    return code, out.getvalue(), err.getvalue()


def _assert_input_contract(code: int, out: str, err: str) -> None:
    """Exit 0 with nothing on stderr, or exit 2 with one ``error:`` line."""
    assert code in (0, 2), (code, out, err)
    lines = err.splitlines()
    if code == 2:
        assert out == "" and len(lines) == 1 and lines[0].startswith("error: "), err
    else:
        assert lines == []


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(_well_formed_rep, _mangled_rep()),
    st.sampled_from(["conway", "bracket", "jones", "span"]),
)
def test_eval_input_contract(text, invariant):
    _assert_input_contract(*_main_quietly(["eval", text, invariant]))


@st.composite
def _mutated_template(draw):
    """Crossings and free loops of a small template, mutated 0 to 3 times."""
    label = st.integers(-3, 3)
    if draw(st.booleans()):
        rep = Girth2Rep(draw(label), draw(label))
    else:
        rep = Girth3Rep(tuple(draw(label) for _ in range(3)), tuple(draw(label) for _ in range(3)))
    crossings = [list(c) for c in pd_from_rep(rep).crossings]
    free_loops = 0
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("relabel", "swap", "rotate", "delete", "copy", "loops")))
        if kind == "loops":
            free_loops = draw(st.integers(0, 2))
            continue
        if not crossings:
            continue
        i = draw(st.integers(0, len(crossings) - 1))
        if kind == "relabel":
            crossings[i][draw(st.integers(0, 3))] = draw(st.integers(-2, 2 * len(crossings) + 2))
        elif kind == "swap":
            s, t = draw(st.integers(0, 3)), draw(st.integers(0, 3))
            crossings[i][s], crossings[i][t] = crossings[i][t], crossings[i][s]
        elif kind == "rotate":
            crossings[i] = crossings[i][1:] + crossings[i][:1]
        elif kind == "delete":
            del crossings[i]
        else:
            crossings.insert(draw(st.integers(0, len(crossings))), list(crossings[i]))
    return crossings, free_loops


@settings(max_examples=80, deadline=None)
@given(
    _mutated_template(),
    st.sampled_from(("json", "text")),
    st.sampled_from(("girth", "decompose")),
    st.sampled_from(("text", "json")),
)
def test_girth_input_contract(diagram, pd_form, command, fmt):
    crossings, free_loops = diagram
    if pd_form == "json":
        text = json.dumps({"crossings": crossings, "free_loops": free_loops})
    else:
        text = " ".join("X({},{},{},{})".format(*c) for c in crossings) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.pd")
        with open(path, "w") as f:
            f.write(text)
        code, out, err = _main_quietly([command, path, "--format", fmt])
    _assert_input_contract(code, out, err)
    if code == 0 and fmt == "json":
        json.loads(out)  # one JSON document
