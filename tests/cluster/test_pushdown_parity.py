"""Pure per-row work below the gather: answers match on every driver.

The shard planner pushes every pure, row-local expression — XPath,
arithmetic, ``IN``, scalar builtins — into the shard workers.  Each case
here runs on the unified driver, a 4-shard thread-pool cluster and a
4-shard process-pool cluster, checks that the expression really sits
below the ShardExec gather, and compares the answers; a builtin that
raises must raise the same exception class everywhere.  The process
pool must ship every pushed plan: ``local_fallbacks`` stays 0.
"""

from __future__ import annotations

import pytest

from repro.cluster.sharded import ShardedDatabase
from repro.datagen.load import load_dataset
from repro.errors import ExecutionError

# (id, text, params, fragment rendered below the gather, ordered?)
CASES = [
    (
        "q6_xpath_topk",
        'FOR inv IN invoices '
        'LET total = TO_NUMBER(FIRST(XPATH(inv.root, "/invoice/total/text()"))) '
        "FILTER total > @t SORT total DESC LIMIT 20 RETURN {id: inv._id, total}",
        {"t": 0},
        "XPATH(inv.root",
        True,
    ),
    (
        "arithmetic_and_in_filter",
        "FOR o IN orders FILTER o.total_price * 2 - 100 > @t "
        'AND o.status IN ["shipped", "pending"] RETURN {id: o._id, p: o.total_price}',
        {"t": 900},
        "o.status IN",
        False,
    ),
    (
        "concat_upper_sort",
        'FOR o IN orders LET tag = UPPER(CONCAT(o.status, "-", o._id)) '
        "SORT tag RETURN tag",
        None,
        "UPPER(CONCAT(",
        True,
    ),
    (
        "builtin_collect_keys_and_args",
        "FOR o IN orders COLLECT y = DATE_YEAR(o.order_date), "
        "m = DATE_MONTH(o.order_date) "
        "AGGREGATE n = COUNT(1), s = SUM(o.total_price * 2), "
        "hi = MAX(ROUND(o.total_price)) RETURN {y, m, n, s, hi}",
        None,
        "HashAggregate(partial)",
        True,
    ),
]

RAISING = "FOR o IN orders LET m = DATE_MONTH(o.status) RETURN {id: o._id, m}"


@pytest.fixture(scope="module")
def drivers(small_dataset, loaded_unified):
    threads = ShardedDatabase(n_shards=4, pool="threads")
    processes = ShardedDatabase(n_shards=4, pool="processes")
    try:
        for db in (threads, processes):
            load_dataset(db, small_dataset)
        yield {"unified": loaded_unified, "threads": threads, "processes": processes}
    finally:
        threads.close()
        processes.close()


def _answers(drivers, text, params):
    return {name: driver.query(text, params) for name, driver in drivers.items()}


@pytest.mark.parametrize(
    "text, params, fragment, ordered",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_pushed_expressions_match_unified(drivers, text, params, fragment, ordered):
    plan = drivers["threads"].explain(text)
    assert plan.index("ShardExec") < plan.index(fragment), plan
    answers = _answers(drivers, text, params)
    expected = answers.pop("unified")
    assert expected, "case selects no rows"
    for name, rows in answers.items():
        if ordered:
            assert rows == expected, name
        else:
            assert sorted(map(repr, rows)) == sorted(map(repr, expected)), name
    pool = drivers["processes"].remote_pool()
    assert pool.plans_shipped > 0 and pool.local_fallbacks == 0


def test_raising_builtin_raises_the_same_class(drivers):
    # Compare classes, not messages: which row fails first depends on
    # the order the shards are scanned in.
    plan = drivers["threads"].explain(RAISING)
    assert plan.index("ShardExec") < plan.index("DATE_MONTH("), plan
    for name, driver in drivers.items():
        with pytest.raises(ExecutionError) as caught:
            driver.query(RAISING)
        assert type(caught.value) is ExecutionError, name
    assert drivers["processes"].remote_pool().local_fallbacks == 0
