import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reworkopt.instances import generate_instance, toy_instance
from reworkopt.model import (GlobalParams, InvalidInstanceError, Job,
                             ProblemInstance)
from reworkopt.storage import (ARCHIVE_TAG, INSTANCE_TAG, FormatError,
                               dump_archive, dump_instance, dump_manifest,
                               dump_report, load_archive, load_instance,
                               load_manifest, load_report, parse_archive,
                               parse_instance, parse_report, save_archive,
                               save_instance, save_manifest, save_report)


def _same_instance(a: ProblemInstance, b: ProblemInstance) -> bool:
    if len(a.jobs) != len(b.jobs) or len(a.machines) != len(b.machines):
        return False
    for x, y in zip(a.jobs, b.jobs):
        if (x.id, x.type, x.origin) != (y.id, y.type, y.origin):
            return False
        if x.nominal_times != y.nominal_times:
            return False
    for x, y in zip(a.machines, b.machines):
        if x != y:
            return False
    return (a.quality == b.quality and a.globals == b.globals
            and a.idle_nominal == b.idle_nominal and a.meta == b.meta)


def test_instance_round_trip_is_exact():
    for inst in (toy_instance(8, seed=2), generate_instance(15, seed=4)):
        text = dump_instance(inst)
        assert text.splitlines()[0] == INSTANCE_TAG
        back = parse_instance(text)
        assert _same_instance(inst, back)
        assert dump_instance(back) == text


def test_instance_file_round_trip(tmp_path):
    inst = generate_instance(6, seed=1)
    p = tmp_path / "case.txt"
    save_instance(inst, p)
    assert _same_instance(inst, load_instance(p))


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1e6,
                 allow_nan=False, allow_infinity=False))
def test_awkward_nominal_times_survive_the_text_format(o):
    inst = toy_instance(2, seed=0)
    inst.jobs[0].nominal_times[0] = o
    back = parse_instance(dump_instance(inst))
    assert back.jobs[0].nominal_times[0] == o


def test_instance_parser_rejects_foreign_text():
    with pytest.raises(FormatError):
        parse_instance("just some file\n")
    with pytest.raises(FormatError):
        parse_instance(ARCHIVE_TAG + "\n")
    with pytest.raises(FormatError):
        parse_instance("")


def test_instance_parser_names_missing_fields_and_ids():
    text = dump_instance(toy_instance(2, seed=0))
    no_w0 = "\n".join(l for l in text.splitlines() if not l.startswith("w0 ="))
    with pytest.raises(FormatError):
        parse_instance(no_w0)
    bare_idle = text.replace("[idle 0]", "[idle]")
    assert bare_idle != text
    with pytest.raises(FormatError):
        parse_instance(bare_idle)
    with pytest.raises(FormatError):
        parse_instance(text.replace("type = 0", "type = zero", 1))


def test_loading_validates_the_instance(tmp_path):
    # an instance that starts above its failure threshold would repair
    # for ever; it must be refused where it enters
    inst = toy_instance(3, seed=0)
    inst.machines[0].w0 = 0.95
    inst.machines[0].cap = 0.9
    p = tmp_path / "bad.txt"
    save_instance(inst, p)
    with pytest.raises(InvalidInstanceError, match="initial wear"):
        load_instance(p)



def test_loading_rejects_a_nan_parameter(tmp_path):
    # with eta = nan every job runs at nan speed and the archive
    # collapses to a meaningless (0.0, 0) point
    text = dump_instance(generate_instance(20, 0))
    assert text.count("\neta = 0.2\n") == 1
    p = tmp_path / "nan_eta.txt"
    p.write_text(text.replace("\neta = 0.2\n", "\neta = nan\n"))
    with pytest.raises(InvalidInstanceError, match="globals: non-finite eta"):
        load_instance(p)


def test_loading_requires_an_idle_time_for_every_capable_machine(tmp_path):
    # without it an idle placeholder on machine 0 has no processing time
    text = dump_instance(toy_instance(6, seed=0))
    head, sep, tail = text.partition("[idle 0]\n")
    assert tail.startswith("nominal 0 =")
    cut = head + sep + tail.split("\n", 1)[1]
    p = tmp_path / "no_idle_time.txt"
    p.write_text(cut)
    with pytest.raises(InvalidInstanceError,
                       match="idle type 0: no nominal time on machine 0"):
        load_instance(p)


def test_loading_rejects_a_negative_idle_time(tmp_path):
    inst = toy_instance(6, seed=0)
    inst.idle_nominal[0][0] = -5.0
    p = tmp_path / "negative_idle_time.txt"
    save_instance(inst, p)
    with pytest.raises(InvalidInstanceError,
                       match="idle type 0: nonpositive nominal time on machine 0"):
        load_instance(p)


def test_archive_rows_come_back_sorted_and_exact():
    rows = [(3, 101.5, 220.0, "aaa"), (1, 99.25, 500.0, "bbb"),
            (2, 99.25, 300.0, "ccc"), (0, 150.0, 1e-7, "ddd")]
    text = dump_archive(rows)
    lines = text.splitlines()
    assert lines[0] == ARCHIVE_TAG
    assert lines[1] == "seed\tc_max\tmaint_cost\tdigest"
    back = parse_archive(text)
    assert back == sorted(rows, key=lambda r: (r[1], r[2], r[0], r[3]))
    assert back[0][1] == 99.25
    assert back[-1][2] == 1e-7
    # serialization is canonical: dumping the parse reproduces the bytes
    assert dump_archive(back) == text


def test_archive_with_no_rows_is_just_the_header(tmp_path):
    p = tmp_path / "empty.tsv"
    save_archive([], p)
    assert load_archive(p) == []
    assert p.read_text() == ARCHIVE_TAG + "\n" + "seed\tc_max\tmaint_cost\tdigest\n"


def test_archive_parser_rejects_bad_header():
    with pytest.raises(FormatError):
        parse_archive(ARCHIVE_TAG + "\nwrong\theader\n")
    with pytest.raises(FormatError):
        parse_archive("no tag at all\n")


def test_manifest_round_trip(tmp_path):
    payload = {"seed": 3, "config": {"pop_size": 20, "det": False},
               "archive": [[100.0, 2.0, "ff00"]]}
    p = tmp_path / "manifest.txt"
    save_manifest(payload, p)
    assert load_manifest(p) == payload
    # key order in the input dict does not change the bytes
    flipped = {"archive": [[100.0, 2.0, "ff00"]],
               "config": {"det": False, "pop_size": 20}, "seed": 3}
    assert dump_manifest(flipped) == dump_manifest(payload)


def test_report_round_trip(tmp_path):
    per_seed = [(1, 0.5, 0.01, 0.0), (0, 0.625, 0.02, 3.5)]
    aggregate = {"mean_hv": 0.5625, "mean_igd": 0.015, "mean_rpd": 1.75}
    p = tmp_path / "report.txt"
    save_report(per_seed, aggregate, p)
    back_rows, back_agg = load_report(p)
    assert back_rows == sorted(per_seed)
    assert back_agg == aggregate


def test_report_parser_rejects_foreign_text():
    with pytest.raises(FormatError):
        parse_report("seed\thv\tigd\trpd\n")


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 999),
                          st.floats(0.001, 1e5, allow_nan=False),
                          st.floats(0.0, 1e5, allow_nan=False),
                          st.text(alphabet="0123456789abcdef", min_size=4,
                                  max_size=16)),
                max_size=12))
def test_archive_round_trip_property(rows):
    assert parse_archive(dump_archive(rows)) \
        == sorted(rows, key=lambda r: (r[1], r[2], r[0], r[3]))
