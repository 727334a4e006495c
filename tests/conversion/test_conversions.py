"""Model conversions and gold-standard verification."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.conversion.base import (
    ConversionTask,
    outputs_equal,
    run_conversion_task,
)
from repro.conversion.json_kv import document_to_kv_pairs, kv_pairs_to_document
from repro.conversion.json_xml import (
    gold_order_summary,
    invoice_to_order_summary,
    order_to_invoice,
)
from repro.conversion.relational_graph import (
    gold_knows_rows,
    gold_purchase_edges,
    graph_to_edge_rows,
    purchase_graph_edges,
    purchase_graph_from_entities,
)
from repro.conversion.relational_json import (
    documents_to_order_rows,
    gold_customer_document,
    gold_order_rows,
    order_rows_to_document,
    rows_to_documents,
)
from repro.datagen.generator import build_invoice
from repro.datagen.schemas import CUSTOMERS_SCHEMA, ORDER_ITEMS_RELATIONAL_SCHEMA
from repro.errors import ConversionError
from repro.models.graph.property_graph import PropertyGraph
from repro.models.relational.schema import Column, ColumnType, TableSchema

ORDER = {
    "_id": "o9",
    "customer_id": 3,
    "order_date": "2015-05-05",
    "status": "paid",
    "total_price": 31.0,
    "items": [
        {"product_id": "p1", "quantity": 2, "unit_price": 10.5, "amount": 21.0},
        {"product_id": "p2", "quantity": 1, "unit_price": 10.0, "amount": 10.0},
    ],
}

CUSTOMER = {
    "id": 3, "first_name": "Ada", "last_name": "L",
    "country": "FI", "city": "Helsinki", "join_date": "2012-01-01",
}


class TestRelationalJson:
    def test_rows_to_documents_pk_becomes_id(self):
        docs = rows_to_documents([CUSTOMER], CUSTOMERS_SCHEMA)
        assert docs[0]["_id"] == 3
        assert "id" not in docs[0]

    def test_rows_to_documents_drops_nulls(self):
        row = dict(CUSTOMER, city=None)
        docs = rows_to_documents([row], CUSTOMERS_SCHEMA)
        assert "city" not in docs[0]

    def test_rows_to_documents_matches_gold(self):
        got = rows_to_documents([CUSTOMER], CUSTOMERS_SCHEMA)[0]
        assert got == gold_customer_document(CUSTOMER)

    def test_composite_key_joined(self):
        docs = rows_to_documents(
            [{"order_id": "o1", "line_no": 2, "product_id": "p", "quantity": 1,
              "unit_price": 1.0, "amount": 1.0}],
            ORDER_ITEMS_RELATIONAL_SCHEMA,
        )
        assert docs[0]["_id"] == "o1|2"

    def test_no_pk_rejected(self):
        schema = TableSchema("t", (Column("a", ColumnType.TEXT),))
        with pytest.raises(ConversionError):
            rows_to_documents([{"a": "x"}], schema)

    def test_shredding_matches_gold(self):
        assert documents_to_order_rows(ORDER) == gold_order_rows(ORDER)

    def test_shredding_line_numbers(self):
        _, items = documents_to_order_rows(ORDER)
        assert [r["line_no"] for r in items] == [1, 2]

    def test_shredding_missing_id_rejected(self):
        with pytest.raises(ConversionError):
            documents_to_order_rows({"items": []})

    def test_shred_reassemble_roundtrip(self):
        head, items = documents_to_order_rows(ORDER)
        assert order_rows_to_document(head, items) == ORDER

    def test_reassemble_sorts_by_line_no(self):
        head, items = documents_to_order_rows(ORDER)
        assert order_rows_to_document(head, list(reversed(items))) == ORDER


class TestJsonXml:
    def test_invoice_matches_generator_gold(self):
        assert order_to_invoice(ORDER, CUSTOMER) == build_invoice(ORDER, CUSTOMER)

    def test_invoice_parse_back_matches_gold(self):
        invoice = build_invoice(ORDER, CUSTOMER)
        assert invoice_to_order_summary(invoice) == gold_order_summary(ORDER, CUSTOMER)

    def test_money_is_two_decimals(self):
        invoice = order_to_invoice(ORDER, CUSTOMER)
        assert invoice.child("total").text_content() == "31.00"

    def test_wrong_root_rejected(self):
        from repro.models.xml.node import element

        with pytest.raises(ConversionError):
            invoice_to_order_summary(element("receipt"))


class TestGraphConversions:
    def test_purchase_graph_matches_gold(self):
        customers = [CUSTOMER]
        orders = [ORDER]
        graph = purchase_graph_from_entities(customers, orders)
        assert purchase_graph_edges(graph) == gold_purchase_edges(customers, orders)

    def test_purchase_quantities_accumulate(self):
        orders = [ORDER, dict(ORDER, _id="o10")]
        graph = purchase_graph_from_entities([CUSTOMER], orders)
        edges = dict(
            ((src, dst), q) for src, dst, q in purchase_graph_edges(graph)
        )
        assert edges[("c3", "p1")] == 4  # 2 + 2

    def test_graph_to_edge_rows(self):
        g = PropertyGraph()
        g.add_vertex(1, "p")
        g.add_vertex(2, "p")
        g.add_edge(1, 2, "knows", since=2010)
        rows = graph_to_edge_rows(g, "knows")
        assert rows == [{"src": 1, "dst": 2, "label": "knows", "since": 2010}]

    def test_knows_rows_match_gold(self):
        triples = [(1, 2, 2010), (2, 3, 2012)]
        g = PropertyGraph()
        for v in (1, 2, 3):
            g.add_vertex(v, "p")
        for s, d, y in triples:
            g.add_edge(s, d, "knows", since=y)
        assert graph_to_edge_rows(g, "knows") == gold_knows_rows(triples)


class TestJsonKv:
    def test_flatten_simple(self):
        pairs = document_to_kv_pairs({"a": 1, "b": {"c": 2}})
        assert pairs == [("a", 1), ("b/c", 2)]

    def test_flatten_arrays(self):
        pairs = document_to_kv_pairs({"xs": [1, [2, 3]]})
        assert ("xs#0", 1) in pairs and ("xs#1#0", 2) in pairs

    def test_empty_containers_roundtrip(self):
        doc = {"o": {}, "a": [], "v": 1}
        assert kv_pairs_to_document(document_to_kv_pairs(doc)) == doc

    def test_separator_in_key_rejected(self):
        with pytest.raises(ConversionError):
            document_to_kv_pairs({"a/b": 1})

    def test_order_roundtrip(self):
        assert kv_pairs_to_document(document_to_kv_pairs(ORDER)) == ORDER

    json_values = st.recursive(
        st.one_of(
            st.none(), st.booleans(), st.integers(-1000, 1000),
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            st.text(max_size=6),
        ),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(
                st.text(
                    alphabet=st.characters(
                        blacklist_characters="/#\x00", blacklist_categories=("Cs",)
                    ),
                    min_size=1, max_size=6,
                ),
                children,
                max_size=4,
            ),
        ),
        max_leaves=12,
    )

    @settings(max_examples=120, deadline=None)
    @given(st.dictionaries(
        st.text(
            alphabet=st.characters(blacklist_characters="/#\x00", blacklist_categories=("Cs",)),
            min_size=1, max_size=6,
        ),
        json_values, max_size=5,
    ))
    # Strings that look like (or start like) the empty-container markers.
    @example({"0": "\x00{}"})
    @example({"0": "\x00[]"})
    @example({"a": ["\x00{}"]})
    @example({"0": "\x00x"})
    def test_roundtrip_property(self, doc):
        assert kv_pairs_to_document(document_to_kv_pairs(doc)) == doc


class TestFramework:
    def test_outcome_accuracy(self):
        task = ConversionTask("double", lambda x: x * 2, lambda x: x + x)
        outcome = run_conversion_task(task, [1, 2, 3])
        assert outcome.accuracy == 1.0
        assert outcome.items == 3

    def test_mismatches_reported(self):
        task = ConversionTask("bad", lambda x: x, lambda x: x + 1)
        outcome = run_conversion_task(task, [1, 2])
        assert outcome.correct == 0
        assert len(outcome.mismatches) == 2

    def test_outputs_equal_handles_xml(self):
        from repro.models.xml.node import element

        assert outputs_equal(element("a"), element("a"))
        assert not outputs_equal(element("a"), element("b"))

    def test_outputs_equal_numeric_coercion(self):
        assert outputs_equal({"x": 10}, {"x": 10.0})

    def test_outputs_equal_tuples_vs_lists(self):
        assert outputs_equal((1, 2), [1, 2])
