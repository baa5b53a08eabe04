"""Shared fixtures: the paper's running example and small helpers."""

from __future__ import annotations

import random

import pytest

from repro import (
    CFD,
    ConstantRelation,
    DatabaseInstance,
    DatabaseSchema,
    FD,
    Product,
    RelationRef,
    RelationSchema,
    SPCUView,
    Union,
)

CUSTOMER_ATTRS = ["AC", "phn", "name", "street", "city", "zip"]


@pytest.fixture
def customer_schema() -> DatabaseSchema:
    """The three customer sources of Example 1.1."""
    return DatabaseSchema(
        [RelationSchema(f"R{i}", CUSTOMER_ATTRS) for i in (1, 2, 3)]
    )


@pytest.fixture
def customer_view(customer_schema) -> SPCUView:
    """The SPCU integration view V = Q1 U Q2 U Q3 with country codes."""

    def q(i: int, cc: str):
        return Product(ConstantRelation({"CC": cc}), RelationRef(f"R{i}"))

    expr = Union(Union(q(1, "44"), q(2, "01")), q(3, "31"))
    return SPCUView.from_expr(expr, customer_schema, name="R")


@pytest.fixture
def customer_sigma() -> list:
    """f1-f3 and cfd1-cfd2 of Section 1."""
    return [
        FD("R1", ("zip",), ("street",)),
        FD("R1", ("AC",), ("city",)),
        FD("R3", ("AC",), ("city",)),
        CFD("R1", {"AC": "20"}, {"city": "ldn"}),
        CFD("R3", {"AC": "20"}, {"city": "Amsterdam"}),
    ]


@pytest.fixture
def customer_instance(customer_schema) -> DatabaseInstance:
    """The instances D1, D2, D3 of Figure 1."""
    return DatabaseInstance(
        customer_schema,
        {
            "R1": [
                _cust("20", "1234567", "Mike", "Portland", "LDN", "W1B 1JL"),
                _cust("20", "3456789", "Rick", "Portland", "LDN", "W1B 1JL"),
            ],
            "R2": [
                _cust("610", "3456789", "Joe", "Copley", "Darby", "19082"),
                _cust("610", "1234567", "Mary", "Walnut", "Darby", "19082"),
            ],
            "R3": [
                _cust("20", "3456789", "Marx", "Kruise", "Amsterdam", "1096"),
                _cust("36", "1234567", "Bart", "Grote", "Almere", "1316"),
            ],
        },
    )


def _cust(ac, phn, name, street, city, zip_):
    return {
        "AC": ac,
        "phn": phn,
        "name": name,
        "street": street,
        "city": city,
        "zip": zip_,
    }


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20080824)  # VLDB'08 started August 24.


@pytest.fixture(scope="session")
def fig5_fast():
    """The Fig 5 setting and its REPRO_FAST Sigma pool.

    Seeded exactly as ``benchmarks/conftest.py`` seeds it: a 10-relation
    schema, the |Y|=25, |F|=10, |Ec|=4 block-projection view, and one
    Sigma per (|Sigma|, var%) in {100, 200} x {0.4, 0.5}.
    Returns ``(schema, view, {(size, var_pct): sigma})``.
    """
    from repro.generators import random_cfds, random_schema, random_spc_view

    seed = 20080824
    schema = random_schema(random.Random(seed), num_relations=10)
    view = random_spc_view(
        random.Random(seed + 7919 * 25 + 31 * 10 + 4),
        schema,
        num_projected=25,
        num_selections=10,
        num_atoms=4,
        block_projection=True,
    )
    pool = {
        (size, var_pct): random_cfds(
            random.Random(seed + size + int(var_pct * 100)),
            schema,
            size,
            max_lhs=9,
            min_lhs=3,
            var_pct=var_pct,
        )
        for size in (100, 200)
        for var_pct in (0.4, 0.5)
    }
    return schema, view, pool
