import pytest

from spans import Tracer, group_time, self_times

# root [0, 10] with children a [1, 4] and b [5, 9]; c [6, 7] inside b
START = [0.0, 1.0, 5.0, 6.0]
END = [10.0, 4.0, 9.0, 7.0]
PARENT = [-1, 0, 0, 2]


def test_self_time_subtracts_direct_children_only():
    assert self_times(START, END, PARENT) == [3.0, 3.0, 3.0, 1.0]


def test_self_times_add_up_to_the_root_span():
    assert sum(self_times(START, END, PARENT)) == END[0] - START[0]


def test_group_time_counts_nested_group_spans_once():
    # b and c both in the group: c lies inside b, so only b's 4 s count
    assert group_time([0, 1, 2, 3], START, END, PARENT, set()) == 0.0
    name = [0, 1, 2, 2]  # c renamed to b: a recursive call
    assert group_time(name, START, END, PARENT, {2}) == 4.0
    assert group_time(name, START, END, PARENT, {1, 2}) == 7.0
    assert group_time(name, START, END, PARENT, {0, 2}) == 10.0


def test_group_time_sees_through_spans_outside_the_group():
    # x [0, 10] > y [1, 9] > x [2, 3]: the inner x is still inside the outer one
    assert group_time([0, 1, 0], [0.0, 1.0, 2.0], [10.0, 9.0, 3.0], [-1, 0, 1], {0}) == 10.0


def test_wrap_records_nesting_jobs_and_results():
    tr = Tracer()
    seen = []
    inner = tr.wrap("inner", lambda x: x + 1, after=lambda a, r, t: seen.append((a, r, t)),
                    before=lambda a: "token")
    outer = tr.wrap("outer", lambda x: inner(x) * 2)
    tr.job_id = 7
    assert outer(1) == 4
    assert seen == [((1,), 2, "token")]
    assert [tr.names[n] for n in tr.name] == ["outer", "inner"]
    assert list(tr.parent) == [-1, 0]
    assert list(tr.job) == [7, 7]
    assert tr.start[0] <= tr.start[1] <= tr.end[1] <= tr.end[0]


def test_wrap_closes_the_span_when_the_call_raises():
    tr = Tracer()

    def boom():
        raise ValueError("x")

    after = []
    f = tr.wrap("boom", boom, after=lambda *a: after.append(a))
    with pytest.raises(ValueError):
        f()
    assert len(tr) == 1 and tr.end[0] >= tr.start[0] > 0
    assert not after
    g = tr.wrap("next", lambda: None)
    g()
    assert tr.parent[1] == -1  # the failed span no longer counts as open


def test_merge_remaps_names_and_parents():
    child = Tracer()
    f = child.wrap("b", child.wrap("a", lambda: None))
    f()
    child.counts["n"] += 2
    child.peak("p", 5)
    parent = Tracer()
    parent.wrap("a", lambda: None)()
    parent.merge(child.to_json(), job_id=3)
    assert [parent.names[n] for n in parent.name] == ["a", "b", "a"]
    assert list(parent.parent) == [-1, -1, 1]
    assert list(parent.job)[1:] == [3, 3]
    assert parent.counts["n"] == 2 and parent.peaks["p"] == 5
