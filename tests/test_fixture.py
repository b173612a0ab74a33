"""Relational fixture: cardinalities, determinism, integrity, session costs."""
import pytest

from antiwatt.fixture import (
    Customer,
    FixtureSession,
    Order,
    OrderDetail,
    Product,
    RelationalFixture,
    Supplier,
    build_indexes,
    generate_fixture,
)


def check_integrity(fx):
    """Scan every foreign key; return a list of violations (empty = ok)."""
    problems = []
    for order in fx.orders:
        if order.customer_id not in fx.customers_by_id:
            problems.append(f"order {order.id} -> missing customer {order.customer_id}")
    for det in fx.order_details:
        if det.order_id not in fx.orders_by_id:
            problems.append(f"order_detail {det.id} -> missing order {det.order_id}")
        if det.product_id not in fx.products_by_id:
            problems.append(f"order_detail {det.id} -> missing product {det.product_id}")
    for prod in fx.products:
        if prod.supplier_id not in fx.suppliers_by_id:
            problems.append(f"product {prod.id} -> missing supplier {prod.supplier_id}")
    return problems


def test_base_scale_cardinalities():
    fx = generate_fixture(seed=1, scale=1)
    assert len(fx.customers) == 91
    assert len(fx.orders) == 830
    assert len(fx.order_details) == 2155
    assert len(fx.products) == 77
    assert len(fx.suppliers) == 29


def test_generation_is_deterministic():
    a = generate_fixture(seed=1, scale=1)
    b = generate_fixture(seed=1, scale=1)
    assert a.customers == b.customers
    assert a.orders == b.orders
    assert a.order_details == b.order_details
    assert a.products == b.products
    assert a.suppliers == b.suppliers


def test_seeds_differ():
    a = generate_fixture(seed=1, scale=1)
    b = generate_fixture(seed=2, scale=1)
    assert a.orders != b.orders


def test_scaled_fixture_integrity():
    fx = generate_fixture(seed=2, scale=3)
    assert len(fx.orders) == 2490
    assert check_integrity(fx) == []


def test_base_fixture_integrity():
    assert check_integrity(generate_fixture(seed=1, scale=1)) == []


def test_scale_must_be_positive():
    with pytest.raises(ValueError):
        generate_fixture(seed=1, scale=0)


def test_recent_orders_sorted_most_recent_first():
    fx = generate_fixture(seed=1, scale=1)
    for cid, order_ids in fx.order_ids_by_customer.items():
        days = [fx.orders_by_id[oid].order_day for oid in order_ids]
        assert days == sorted(days, reverse=True)


def test_session_counts_lookups():
    fx = generate_fixture(seed=1, scale=1)
    session = FixtureSession(fx)
    session.get_customer(1)
    session.recent_order_ids(1, limit=5)
    session.get_product(1)
    assert session.lookups == 3


def test_session_open_and_lookup_costs_burn_time():
    import time

    fx = generate_fixture(seed=1, scale=1)

    t0 = time.perf_counter()
    FixtureSession(fx, open_cost_rounds=20_000)
    open_cost = time.perf_counter() - t0

    t1 = time.perf_counter()
    FixtureSession(fx)
    free_open = time.perf_counter() - t1

    assert open_cost > free_open


def make_hand_fixture():
    """One customer, 3 orders x 2 details each, all FKs resolvable."""
    customers = [Customer(id=1, name="Acme", city="Berlin", country="Germany")]
    suppliers = [Supplier(id=1, name="Sup", country="France")]
    products = [Product(id=1, name="Widget", supplier_id=1, unit_price=3.5)]
    orders = [Order(id=i, customer_id=1, order_day=10 * i, freight=1.0) for i in (1, 2, 3)]
    details = [
        OrderDetail(id=10 * o + d, order_id=o, product_id=1, quantity=d, unit_price=2.0)
        for o in (1, 2, 3)
        for d in (1, 2)
    ]
    fx = RelationalFixture(
        seed=0,
        scale=1,
        customers=customers,
        suppliers=suppliers,
        products=products,
        orders=orders,
        order_details=details,
    )
    build_indexes(fx)
    return fx


def test_hand_fixture_integrity_and_indexes():
    fx = make_hand_fixture()
    assert check_integrity(fx) == []
    assert fx.order_ids_by_customer[1] == [3, 2, 1]  # most recent first
    assert sorted(fx.detail_ids_by_order[2]) == [21, 22]
