import csv
import functools
import gc
import hashlib
import io
import itertools
import json
import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from knotpair import classify, closedform, g3table
from knotpair.census import (
    G2_BUDGET,
    CensusClass,
    InvariantRecord,
    _CSV_LEAD,
    _JSON_LEAD,
    _label_range,
    _labellings,
    build_record,
    census_csv,
    census_enumerate,
    census_jsonl,
    dedup_census,
    table_report,
    verify_table,
)
from knotpair.classify import closed_bracket, closed_invariants, compare, rep_invariants
from knotpair.diagram import pd_from_rep
from knotpair.closedform import _slot_bits, bracket_girth3, census_jones
from knotpair.laurent import (
    LaurentPoly,
    jones_from_bracket,
    jones_span_inclusive,
    jones_to_text,
    poly_to_text,
)
from knotpair.oracle import CONWAY_CAP, conway_fox
from knotpair.reps import (
    Girth1Rep,
    Girth2Rep,
    Girth3Rep,
    canonicalize,
    d3_orbit,
    g3_wheel_min,
    parse_rep,
    rep_from_labels,
    rep_labels,
)
from knotpair.tables import ROLFSEN_TABLE, TABLE_ERRATA, crossing_number

import census_reference
from census_reference import girth2_labellings
from template_spy import spy_on_templates


def _record(rep):
    inv = rep_invariants(rep)
    return build_record(inv.components, inv.conway, inv.jones)


def test_enumerate_even_positive_girth2():
    reps = census_enumerate(2, 4, even_only=True, positive_only=True)
    assert set(reps) == {Girth2Rep(2, 2), Girth2Rep(2, 4), Girth2Rep(4, 4)}


def test_enumerate_includes_figure_eight_class():
    reps = census_enumerate(2, 2)
    assert Girth2Rep(-2, 2) in reps


def test_enumerate_girth3_even_positive_max2():
    reps = census_enumerate(3, 2, even_only=True, positive_only=True)
    assert reps == [Girth3Rep((2, 2, 2), (2, 2, 2))]


@pytest.mark.parametrize(
    "even_only, positive_only", [(False, False), (True, False), (False, True)]
)
def test_enumerate_girth3_is_one_canonical_rep_per_key(even_only, positive_only):
    values = [-2, -1, 0, 1, 2]
    if even_only:
        values = [-2, 0, 2]
    if positive_only:
        values = [1, 2]
    seen = {}
    for labels in itertools.product(values, repeat=6):
        canon = canonicalize(Girth3Rep(labels[:3], labels[3:]))
        seen.setdefault(canon.key, canon.rep)
    want = [seen[k] for k in sorted(seen)]
    assert census_enumerate(3, 2, even_only, positive_only) == want


@pytest.mark.parametrize("max_abs", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "even_only, positive_only",
    [(False, False), (True, False), (False, True), (True, True)],
)
def test_enumerate_girth3_equals_the_wheel_min_filter(max_abs, even_only, positive_only):
    # the reference tests every labelling against its 12 wheel images
    values = _label_range(max_abs, even_only, positive_only)
    want = [
        Girth3Rep(labels[:3], labels[3:])
        for labels in itertools.product(values, repeat=6)
        if g3_wheel_min(labels) == labels
    ]
    assert census_enumerate(3, max_abs, even_only, positive_only) == want


@pytest.mark.parametrize("max_abs", range(13))
@pytest.mark.parametrize(
    "even_only, positive_only",
    [(False, False), (True, False), (False, True), (True, True)],
)
def test_enumerate_girth2_reps_are_canonical_in_key_order(max_abs, even_only, positive_only):
    # the census verdicts rest on this: no rep shares another's key
    keys = []
    for rep in census_enumerate(2, max_abs, even_only, positive_only):
        canon = canonicalize(rep)
        assert canon.rep == rep
        keys.append(canon.key)
    assert all(a < b for a, b in zip(keys, keys[1:]))


@pytest.mark.parametrize("max_abs", range(13))
@pytest.mark.parametrize(
    "even_only, positive_only",
    [(False, False), (True, False), (False, True), (True, True)],
)
def test_enumerate_girth2_equals_canonicalising_every_pair(max_abs, even_only, positive_only):
    want = girth2_labellings(max_abs, even_only, positive_only)
    assert _labellings(2, max_abs, even_only, positive_only) == want


def test_enumerate_budget():
    with pytest.raises(ValueError):
        census_enumerate(2, 13)
    with pytest.raises(ValueError):
        census_enumerate(3, 7)


def test_census_determinism():
    a, b = io.StringIO(), io.StringIO()
    census_csv(dedup_census(2, 6, even_only=True, positive_only=True), a)
    census_csv(dedup_census(2, 6, even_only=True, positive_only=True), b)
    assert a.getvalue() == b.getvalue()


def test_even_positive_census_classes_are_multisets():
    # fifteen classes for labels in {2,4,6,8,10}
    reps = census_enumerate(2, 10, even_only=True, positive_only=True)
    assert len(reps) == 15
    classes = dedup_census(2, 10, even_only=True, positive_only=True)
    assert len(classes) == 15
    assert all(len(c.members) == 1 for c in classes)


def test_collision_example_conway_only():
    # K(2,8) and K(4,4) share the Conway polynomial but not the class key
    reps = [Girth2Rep(2, 8), Girth2Rep(4, 4)]
    recs = [_record(r) for r in reps]
    assert recs[0].conway == recs[1].conway
    heads = [rep_from_labels(cls.members[0]) for cls in dedup_census(2, 8, True, True)]
    assert set(reps) <= set(heads)


def test_d3_orbit_collapses_to_one_class():
    # the members of a wheel orbit share one record, so one class key
    orbit = d3_orbit(Girth3Rep((2, 4, 6), (2, 2, 4)))
    assert len(orbit) > 1
    assert len({_record(rep) for rep in orbit}) == 1


@functools.cache
def _census_classes(girth, max_abs, even_only=False, positive_only=False):
    # both formats of one census are written from the same classes
    return dedup_census(girth, max_abs, even_only, positive_only)


def test_dedup_verdicts_match_compare():
    for girth, max_abs in ((2, 12), (3, 2)):
        out = io.StringIO()
        census_csv(_census_classes(girth, max_abs), out)
        out.seek(0)
        heads, members = {}, 0
        for row in csv.DictReader(out):
            rep = parse_rep(row["rep"])
            head = heads.setdefault(row["class_id"], rep)
            if head is rep:
                assert row["verdict"] == ""
            else:
                assert row["verdict"] == compare(head, rep).tag, (head, rep)
                members += 1
        assert members > 0


def _pin(fmt, girth, max_abs, digest, flags=()):
    # the CSV rows keep the ids they had before the format column, and the
    # census without flags the ids it had before the flag pins
    prefix = "" if fmt == "csv" else f"{fmt}-"
    bound = "-".join((str(max_abs), *flags))
    return pytest.param(
        fmt, girth, max_abs, flags, digest, id=f"{prefix}{girth}-{bound}-{digest}"
    )


# census --girth 2 --max 12, pinned for both writers and both streams
G2_MAX12 = {
    "csv": "796729674c2428d2cf8aed1195e938d6a63d9eea4da8bb3010fd2effa39e0211",
    "jsonl": "8e527178b5c4ef8b91beed12ed4ba45c106ee2d8ca4b37091ff595cc2896acab",
}


@pytest.mark.parametrize(
    "fmt, girth, max_abs, flags, digest",
    [
        _pin("csv", 2, 12, G2_MAX12["csv"]),
        _pin("csv", 3, 2, "110926f4bd058053efda451cac9a8686ec3cd4070fb9c0fd281af4251477606d"),
        # the first pin with labels of |x| = 3, whose reduced labels differ
        _pin("csv", 3, 3, "9539e585500773509d32a755c5df00c1334d60883d2bb5b4e74a7e4b074f6c66"),
        # every label of |x| <= 4, the rows formatted from their labels
        _pin("csv", 3, 4, "80128450ce48e154ec5570722d57dabf8daf38ec578279e9ad03bb6c9d3ba576"),
        _pin("jsonl", 2, 12, G2_MAX12["jsonl"]),
        _pin("jsonl", 3, 2, "443cb3b0208d4ab396dbed18531fda5f1ef86104fe57e7846fc266730ec11a43"),
        # --even, --positive and both: the girth-3 slot width comes from the
        # bound, whatever labels the flags keep
        _pin("csv", 3, 4, "46bd9cc99badd08e24de67f79a8407288ed952a5bcc7fe2a6cbcb56d12b33001",
             ("even",)),
        _pin("csv", 3, 4, "2719d05d783dd6c9b1f24ddd5b92d5c4df072075915a1b2d977038cf3baab4bf",
             ("positive",)),
        _pin("csv", 3, 4, "70c35419f0e55e7ffd830ad40d904098fcfddf00c6e74fbced94bd760eeff107",
             ("even", "positive")),
        _pin("csv", 2, 12, "e158d89fe437a75c83f6a0843d0ffbcf7ff330c4165caf4374602b90c44b0889",
             ("even",)),
        _pin("csv", 2, 12, "2bf8032c724fe75a8181a3c4560afe7c765959ea932977715b87adb04c903f1a",
             ("positive",)),
        _pin("csv", 2, 12, "b6746b55dd5424b541550e217cf6f403a6af5af1862146bf402f35fa82feda4d",
             ("even", "positive")),
        # the edges: one rep, no rep (the header alone), and a girth-2
        # bound whose only rep is that of --max 0
        _pin("csv", 3, 0, "1d32a4019ab02f0e00f6ba78a2d2109f866d13d5b3566c0fe25dad8f07fd0a2c"),
        _pin("csv", 2, 0, "9514db202af7861aba1e300af2882575df005491bf67ac2632bc5612ba069951"),
        _pin("csv", 3, 0, "f632538e10134b369e947464771f538ac70991b4b2175068f8c6edaf61559bad",
             ("positive",)),
        _pin("csv", 2, 1, "9514db202af7861aba1e300af2882575df005491bf67ac2632bc5612ba069951",
             ("even",)),
    ],
)
def test_census_csv_is_byte_identical(fmt, girth, max_abs, flags, digest):
    write = {"csv": census_csv, "jsonl": census_jsonl}[fmt]
    out = io.StringIO()
    write(_census_classes(girth, max_abs, "even" in flags, "positive" in flags), out)
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "max_abs, even_only, positive_only",
    [(3, False, False), (2, False, False), (2, True, False), (2, False, True), (2, True, True),
     (4, True, False)],
)
def test_the_census_slot_width_gives_each_reps_own_bracket(max_abs, even_only, positive_only):
    # the census evaluates every girth-3 bracket at the slot width of its
    # label bound, from label-triple rows it shares across reps; from
    # max_abs 3 on, some reps have a narrower width of their own, so the
    # shared width is exercised (at max_abs 2 every rep has the census's)
    key, jones = census_jones(3, max_abs)
    reps = census_enumerate(3, max_abs, even_only, positive_only)
    census_k = _slot_bits((max_abs,) * 6)
    widths = set()
    for rep in reps:
        labels = rep.top + rep.bottom
        widths.add(_slot_bits(labels))
        writhe = closed_invariants(labels)[1]
        assert jones(key(labels, writhe)) == jones_from_bracket(bracket_girth3(rep), writhe), rep
    assert max(widths) <= census_k
    if max_abs > 2:
        assert min(widths) < census_k


@pytest.mark.parametrize(
    "girth, max_abs, even_only, positive_only",
    [(3, 2, e, p) for e in (False, True) for p in (False, True)] + [(2, 12, False, False)],
)
def test_the_census_jones_key_is_exact(girth, max_abs, even_only, positive_only):
    # the key decodes to the rep's Jones polynomial, and two reps share a
    # key exactly when they share the text key of their invariants
    key, jones = census_jones(girth, max_abs)
    by_key, by_text = {}, {}
    for rep in census_enumerate(girth, max_abs, even_only, positive_only):
        labels = rep_labels(rep)
        comps, writhe, conway = closed_invariants(labels)
        k = key(labels, writhe)
        want = jones_from_bracket(closed_bracket(rep), writhe)
        assert jones(k) == want, rep
        conway_text = poly_to_text(conway) if conway is not None else ""
        by_key.setdefault((comps, conway_text, k), []).append(labels)
        by_text.setdefault((comps, conway_text, jones_to_text(want)), []).append(labels)
    assert sorted(by_key.values()) == sorted(by_text.values())


@pytest.mark.parametrize("girth, max_abs", [(3, 2), (2, 12)])
def test_each_members_record_is_built_from_its_own_invariants(girth, max_abs):
    classes = _census_classes(girth, max_abs)
    assert any(len(cls.members) > 1 for cls in classes)
    for cls in classes:
        for labels in cls.members:
            rep = rep_from_labels(labels)
            assert _record(rep) == cls.record, rep


def test_the_census_checks_the_identities_once_per_class(monkeypatch):
    calls = []
    real = classify.check_identities

    def spy(comps, conway, jones):
        calls.append((comps, conway, jones))
        real(comps, conway, jones)

    monkeypatch.setattr(classify, "check_identities", spy)
    classes = dedup_census(3, 2)
    assert len(calls) == len(set(calls)) == len(classes) < len(census_enumerate(3, 2))


def _packed_decodes_by_tag(monkeypatch, *args):
    """The tags of the ``LaurentPoly.from_packed`` calls of dedup_census(*args)."""
    tags = []
    real = LaurentPoly.from_packed

    def spy(value, low, k, stride, tag):
        tags.append(tag)
        return real(value, low, k, stride, tag)

    monkeypatch.setattr(LaurentPoly, "from_packed", staticmethod(spy))
    return dedup_census(*args), tags


def test_the_census_decodes_a_polynomial_once_per_class(monkeypatch):
    # a rep is keyed by integers: only a class unpacks its Jones polynomial
    classes, tags = _packed_decodes_by_tag(monkeypatch, 3, 2)
    assert tags.count("t") == len(classes) == 243
    assert len(census_enumerate(3, 2)) == 1505


def test_the_census_conway_key_is_exact():
    # every rep of the girth-3 census at --max 3: its components and writhe
    # are those of closed_invariants, its Conway int decodes to the same
    # polynomial, and two knots share an int exactly when they share a
    # polynomial
    key, conway = g3table.census_keys(3, 3, CONWAY_CAP)
    by_int, by_poly = {}, {}
    for labels in _labellings(3, 3, False, False):
        comps, writhe, nabla = key(labels)
        want = closed_invariants(labels)
        assert (comps, writhe) == want[:2], labels
        if nabla is None:
            assert want[2] is None, labels
            continue
        assert conway(nabla) == want[2], labels
        by_int.setdefault(nabla, []).append(labels)
        by_poly.setdefault(want[2], []).append(labels)
    assert len(by_poly) > 500
    assert sorted(by_int.values()) == sorted(by_poly.values())


def test_the_census_conway_key_at_the_label_budget():
    # labels to the girth-3 budget of 6, where knots of more than
    # CONWAY_CAP crossings with an odd label have no Conway value
    key, conway = g3table.census_keys(3, 6, CONWAY_CAP)
    rng = random.Random(20261019)
    capped = 0
    for _ in range(3000):
        labels = tuple(rng.randint(-6, 6) for _ in range(6))
        comps, writhe, nabla = key(labels)
        want = closed_invariants(labels)
        assert (comps, writhe) == want[:2], labels
        assert (None if nabla is None else conway(nabla)) == want[2], labels
        capped += comps == 1 and nabla is None
    assert capped > 100


@pytest.mark.parametrize("max_abs", range(13))
def test_the_girth2_census_conway_key_is_exact(max_abs):
    # every K(p, q) and K(p) with |p|, |q| <= max_abs, and every K(p) of the
    # census, whose |p| reaches max_abs + 1, keyed at the census's slot
    # width: the key decodes to closed_invariants, and two knots share an
    # int exactly when they share a polynomial
    key, conway = g3table.census_keys(2, max_abs, CONWAY_CAP)
    values = range(-max_abs, max_abs + 1)
    single = {(p,) for p in values}
    single.update(labels for labels in _labellings(2, max_abs, False, False) if len(labels) == 1)
    reps = [(p, q) for p in values for q in values] + sorted(single)
    by_int, by_poly = {}, {}
    for labels in reps:
        comps, writhe, nabla = key(labels)
        want = closed_invariants(labels)
        assert (comps, writhe) == want[:2], labels
        assert (None if nabla is None else conway(nabla)) == want[2], labels
        if nabla is not None:
            by_int.setdefault(nabla, []).append(labels)
            by_poly.setdefault(want[2], []).append(labels)
    assert sorted(by_int.values()) == sorted(by_poly.values())
    # a K(p) and a K(p, q) share an int: 1 + z^2, of K(3) and K(2, 2)
    assert max_abs < 2 or {(3,), (2, 2)} <= set(by_int[key((3,))[2]])


def test_no_girth2_census_knot_is_past_the_conway_cap():
    # the table withholds an odd-pattern Conway value past the cap, and
    # closed_invariants never did for girth 2
    assert 2 * G2_BUDGET <= CONWAY_CAP


_LABEL = st.integers(-30, 30)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.tuples(_LABEL),
        st.tuples(_LABEL, _LABEL),
        st.tuples(_LABEL, _LABEL, _LABEL, _LABEL, _LABEL, _LABEL),
    )
)
def test_a_row_is_formatted_as_its_rep(labels):
    # the lead of a row, as CSV and as a JSON line, holds the text and the
    # girth of the rep whose labels it formats
    rep = rep_from_labels(labels)
    row = next(csv.reader([_CSV_LEAD[len(labels)](*labels)]))
    assert row[:2] == [str(rep), str(rep.girth())]
    entry = json.loads(_JSON_LEAD[len(labels)](*labels) + '"end": 0}')
    assert (entry["rep"], entry["girth"]) == (str(rep), rep.girth())


def _poly(tag, step):
    """Nonzero polynomials with exponents that are multiples of ``step``."""
    coeffs = st.dictionaries(
        st.integers(-12, 12).map(lambda e: step * e), st.integers(-40, 40).filter(bool),
        min_size=1, max_size=6,
    )
    return coeffs.map(lambda d: LaurentPoly.from_dict(d, tag))


# a Jones polynomial in quarter powers of t: a link's has half-integer ones
_RECORD = st.builds(
    lambda comps, conway, jones: InvariantRecord(
        comps, "" if conway is None else poly_to_text(conway),
        jones_to_text(jones), jones_span_inclusive(jones),
    ),
    st.integers(1, 3), st.none() | _poly("z", 2), _poly("t", 2),
)
_MEMBERS = st.one_of(
    st.lists(st.tuples(_LABEL) | st.tuples(_LABEL, _LABEL), min_size=1, max_size=5),
    st.lists(st.tuples(*[_LABEL] * 6), min_size=1, max_size=5),
)
_LINK = LaurentPoly.from_dict({-10: -1, -2: -1}, "t")  # -t^(-5/2) - t^(-1/2)
_CLASSES = st.lists(st.tuples(_RECORD, _MEMBERS), max_size=6).map(
    lambda classes: [
        CensusClass(f"c{i:04d}", record, tuple(members))
        for i, (record, members) in enumerate(classes)
    ]
)


@settings(max_examples=200, deadline=None)
@given(_CLASSES)
@example([
    # a girth-2 class of both lengths, no Conway value and a link's Jones
    # polynomial, then a single-member class
    CensusClass("c0000", InvariantRecord(2, "", jones_to_text(_LINK), jones_span_inclusive(_LINK)),
                ((-2,), (2, -4), (-3,))),
    CensusClass("c0001", build_record(1, None, LaurentPoly.one("t")), ((1, 0, 0, 2, 0, 0),)),
])
def test_the_writers_give_the_bytes_of_csv_and_json(classes):
    for write, reference in (
        (census_csv, census_reference.census_csv),
        (census_jsonl, census_reference.census_jsonl),
    ):
        got, want = io.StringIO(), io.StringIO()
        write(classes, got)
        reference(classes, want)
        assert got.getvalue() == want.getvalue()


def test_the_census_decodes_a_conway_polynomial_once_per_class(monkeypatch):
    classes, tags = _packed_decodes_by_tag(monkeypatch, 3, 2)
    assert tags.count("z") == sum(1 for cls in classes if cls.record.conway) > 100


def test_the_census_makes_no_reference_cycles():
    # what lets the census command pause the cyclic collector: with
    # collection off, nothing the census made is left unreachable
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        classes = dedup_census(3, 3)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    assert len(classes) > 1000


def test_a_failing_identity_stops_the_census(monkeypatch, tmp_path):
    # one more z^2 moves nabla(2i) by -4, so |V(-1)| = |nabla(2i)| fails on
    # the all-even knots of the census
    from knotpair import cli

    real = closedform.conway_girth3_even
    monkeypatch.setattr(
        closedform, "conway_girth3_even",
        lambda rep: real(rep) + LaurentPoly.monomial(1, 2, "z"),
    )
    out = tmp_path / "census.csv"
    with pytest.raises(AssertionError, match="nabla"):
        cli.main(["census", "--girth", "3", "--max", "2", "--output", str(out)])


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_census_stdout_equals_the_output_file(fmt, capsys, tmp_path):
    from knotpair import cli

    argv = ["census", "--girth", "2", "--max", "12", "--format", fmt]
    assert cli.main(argv) == 0
    stdout = capsys.readouterr().out
    path = tmp_path / f"census.{fmt}"
    assert cli.main(argv + ["--output", str(path)]) == 0
    assert path.read_bytes() == stdout.encode()
    assert hashlib.sha256(stdout.encode()).hexdigest() == G2_MAX12[fmt]


def test_record_fields():
    rec = _record(Girth2Rep(2, 2))
    assert rec.components == 1
    assert rec.span == 4
    assert rec.conway == "1 + z^2"
    # the even closed form covers negative labels; odd labels read the
    # frozen parity-pattern table; both agree with Fox
    for rep in (Girth3Rep((2, 2, 2), (2, 2, -2)), Girth3Rep((1, 2, 0), (0, 0, 0))):
        rec = _record(rep)
        assert rec.components == 1
        assert rec.conway == poly_to_text(conway_fox(pd_from_rep(rep)))


def test_verify_table_knots_up_to_seven_pass_with_errata():
    results = verify_table(max_crossings=7, apply_errata=True)
    knots = [r for r in results if "^" not in r.name]
    assert knots and all(r.status == "PASS" for r in knots)
    links = [r for r in results if "^" in r.name]
    assert all(r.status in ("PASS", "SKIP") for r in links)


def test_verify_table_reports_printed_errata_rows_as_failures():
    # the erratum list is data: as printed, exactly these rows fail
    results = verify_table(max_crossings=7, apply_errata=False)
    failing = {r.name for r in results if r.status == "FAIL"}
    assert failing == set(TABLE_ERRATA)


def test_verify_table_absent_entry():
    results = verify_table(apply_errata=True)
    status = {r.name: r.status for r in results}
    assert status["8_18"] == "ABSENT"


def test_verify_table_skip_notice():
    results = verify_table(max_crossings=9, apply_errata=True)
    skipped = [r for r in results if r.status == "SKIP"]
    assert skipped and all("fixture" in r.detail for r in skipped)


def test_table_report_format():
    text = table_report(verify_table(max_crossings=4, apply_errata=True))
    assert "3_1" in text and "PASS" in text


def test_girth3_census_calls_no_fox(monkeypatch, tmp_path):
    from knotpair import cli, oracle

    calls = []
    monkeypatch.setattr(oracle, "conway_fox", lambda *a, **k: calls.append(a))
    out = tmp_path / "census.csv"
    assert cli.main(["census", "--girth", "3", "--max", "2", "--output", str(out)]) == 0
    assert out.read_text().count("\n") == 1 + len(census_enumerate(3, 2))
    assert calls == []


def test_girth3_census_builds_no_template(monkeypatch, tmp_path):
    # knots and links alike read the frozen table; --max 3 has labels of
    # |x| = 3, whose reduced labels differ from their own
    from knotpair import cli

    calls = spy_on_templates(monkeypatch)
    out = tmp_path / "census.csv"
    assert cli.main(["census", "--girth", "3", "--max", "3", "--output", str(out)]) == 0
    assert out.read_text().count("\n") == 1 + len(census_enumerate(3, 3))
    assert calls == []


@pytest.mark.parametrize("girth, max_abs, pairs", [(3, 2, 0), (2, 12, 0)])
def test_census_canonicalizes_no_member(monkeypatch, tmp_path, girth, max_abs, pairs):
    # the census verdicts follow from the enumeration: the girth-3 one takes
    # the wheel minima directly, the girth-2 one lists the canonical forms
    # directly, and nothing canonicalises a class head or member
    from knotpair import cli, reps

    calls = []
    real = reps.canonicalize

    def spy(rep):
        calls.append(rep)
        return real(rep)

    for name, module in list(sys.modules.items()):
        if name.startswith("knotpair") and getattr(module, "canonicalize", None) is real:
            monkeypatch.setattr(module, "canonicalize", spy)
    out = tmp_path / "census.csv"
    argv = ["census", "--girth", str(girth), "--max", str(max_abs), "--output", str(out)]
    assert cli.main(argv) == 0
    assert len(calls) == pairs
