"""Seeded synthetic relational fixture with Northwind-shaped tables.

Stands in for an order-management database: customers, orders,
order_details, products, and suppliers with resolvable foreign keys.
Row counts at scale 1 match the canonical Northwind cardinalities
(91 customers, 830 orders, 2155 order details, 77 products,
29 suppliers) and scale linearly. Generation is a pure function of
(seed, scale).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from antiwatt.kernels import hash_rounds

CUSTOMERS_PER_SCALE = 91
ORDERS_PER_SCALE = 830
ORDER_DETAILS_PER_SCALE = 2155
PRODUCTS_PER_SCALE = 77
SUPPLIERS_PER_SCALE = 29

_CITIES = [
    "Berlin", "Aachen", "Graz", "Lyon", "Nantes", "Torino", "Lisboa", "Madrid",
    "Bergamo", "Bern", "Salzburg", "Bolzano", "Leipzig", "Albuquerque", "Oulu",
]
_COUNTRIES = [
    "Germany", "Austria", "France", "Italy", "Portugal", "Spain",
    "Switzerland", "Finland", "USA", "Brazil", "Mexico", "UK",
]
_NOUNS = [
    "Trading", "Imports", "Provisions", "Holdings", "Foods", "Freight",
    "Mercantile", "Exports", "Wholesale", "Supplies", "Logistics", "Goods",
]
_STEMS = [
    "Alfreds", "Berglund", "Centro", "Drachen", "Ernst", "Folk", "Galeria",
    "Hanari", "Island", "Koniglich", "Lehmann", "Magazzini", "Nord", "Ottilies",
    "Pericles", "Queen", "Rattle", "Santé", "Tortuga", "Vaffeljernet", "Wolski",
]


@dataclass(frozen=True)
class Customer:
    id: int
    name: str
    city: str
    country: str


@dataclass(frozen=True)
class Supplier:
    id: int
    name: str
    country: str


@dataclass(frozen=True)
class Product:
    id: int
    name: str
    supplier_id: int
    unit_price: float


@dataclass(frozen=True)
class Order:
    id: int
    customer_id: int
    order_day: int  # days since an arbitrary epoch; larger = more recent
    freight: float


@dataclass(frozen=True)
class OrderDetail:
    id: int
    order_id: int
    product_id: int
    quantity: int
    unit_price: float


@dataclass
class RelationalFixture:
    seed: int
    scale: int
    customers: list[Customer]
    suppliers: list[Supplier]
    products: list[Product]
    orders: list[Order]
    order_details: list[OrderDetail]
    # Indexes, built once at generation time.
    customers_by_id: dict[int, Customer] = field(default_factory=dict, repr=False)
    suppliers_by_id: dict[int, Supplier] = field(default_factory=dict, repr=False)
    products_by_id: dict[int, Product] = field(default_factory=dict, repr=False)
    orders_by_id: dict[int, Order] = field(default_factory=dict, repr=False)
    details_by_id: dict[int, OrderDetail] = field(default_factory=dict, repr=False)
    order_ids_by_customer: dict[int, list[int]] = field(default_factory=dict, repr=False)
    detail_ids_by_order: dict[int, list[int]] = field(default_factory=dict, repr=False)

    def check_integrity(self) -> list[str]:
        """Scan every foreign key; return a list of violations (empty = ok)."""
        problems = []
        for order in self.orders:
            if order.customer_id not in self.customers_by_id:
                problems.append(f"order {order.id} -> missing customer {order.customer_id}")
        for det in self.order_details:
            if det.order_id not in self.orders_by_id:
                problems.append(f"order_detail {det.id} -> missing order {det.order_id}")
            if det.product_id not in self.products_by_id:
                problems.append(f"order_detail {det.id} -> missing product {det.product_id}")
        for prod in self.products:
            if prod.supplier_id not in self.suppliers_by_id:
                problems.append(f"product {prod.id} -> missing supplier {prod.supplier_id}")
        return problems


def _derive_rng(seed: int, scale: int) -> random.Random:
    # Portable integer mixing; avoids hash() so streams are stable everywhere.
    mixed = (seed * 0x9E3779B97F4A7C15 + scale * 0xC2B2AE3D27D4EB4F) & 0xFFFFFFFFFFFFFFFF
    return random.Random(mixed)


def generate_fixture(seed: int, scale: int = 1) -> RelationalFixture:
    """Deterministically generate the fixture for (seed, scale).

    Identical arguments always produce identical table contents.
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    rng = _derive_rng(seed, scale)

    n_customers = CUSTOMERS_PER_SCALE * scale
    n_suppliers = SUPPLIERS_PER_SCALE * scale
    n_products = PRODUCTS_PER_SCALE * scale
    n_orders = ORDERS_PER_SCALE * scale
    n_details = ORDER_DETAILS_PER_SCALE * scale

    customers = [
        Customer(
            id=i + 1,
            name=f"{rng.choice(_STEMS)} {rng.choice(_NOUNS)} {i + 1}",
            city=rng.choice(_CITIES),
            country=rng.choice(_COUNTRIES),
        )
        for i in range(n_customers)
    ]
    suppliers = [
        Supplier(
            id=i + 1,
            name=f"{rng.choice(_STEMS)} {rng.choice(_NOUNS)} Co {i + 1}",
            country=rng.choice(_COUNTRIES),
        )
        for i in range(n_suppliers)
    ]
    products = [
        Product(
            id=i + 1,
            name=f"Product {rng.choice(_STEMS)} {i + 1}",
            supplier_id=rng.randrange(1, n_suppliers + 1),
            unit_price=round(rng.uniform(2.5, 263.5), 2),
        )
        for i in range(n_products)
    ]
    orders = [
        Order(
            id=i + 1,
            customer_id=rng.randrange(1, n_customers + 1),
            order_day=rng.randrange(0, 730),
            freight=round(rng.uniform(0.1, 1000.0), 2),
        )
        for i in range(n_orders)
    ]
    details = [
        OrderDetail(
            id=i + 1,
            order_id=rng.randrange(1, n_orders + 1),
            product_id=rng.randrange(1, n_products + 1),
            quantity=rng.randrange(1, 131),
            unit_price=round(rng.uniform(2.0, 264.0), 2),
        )
        for i in range(n_details)
    ]

    fx = RelationalFixture(
        seed=seed,
        scale=scale,
        customers=customers,
        suppliers=suppliers,
        products=products,
        orders=orders,
        order_details=details,
    )
    build_indexes(fx)
    return fx


def build_indexes(fx: RelationalFixture) -> RelationalFixture:
    """(Re)build all lookup indexes from the table lists, in place."""
    fx.customers_by_id = {c.id: c for c in fx.customers}
    fx.suppliers_by_id = {s.id: s for s in fx.suppliers}
    fx.products_by_id = {p.id: p for p in fx.products}
    fx.orders_by_id = {o.id: o for o in fx.orders}
    fx.details_by_id = {d.id: d for d in fx.order_details}
    by_customer: dict[int, list[int]] = {}
    for o in fx.orders:
        by_customer.setdefault(o.customer_id, []).append(o.id)
    # Most recent first; ties broken by id for determinism.
    for cid, ids in by_customer.items():
        ids.sort(key=lambda oid: (-fx.orders_by_id[oid].order_day, oid))
    fx.order_ids_by_customer = by_customer
    by_order: dict[int, list[int]] = {}
    for d in fx.order_details:
        by_order.setdefault(d.order_id, []).append(d.id)
    fx.detail_ids_by_order = by_order
    return fx


class FixtureSession:
    """One 'connection' to the fixture.

    Opening a session burns a fixed artificial cost (mimicking connection
    setup) and every lookup burns a per-lookup cost (mimicking a round
    trip). Lookups are counted for diagnostics.
    """

    def __init__(self, fixture: RelationalFixture, open_cost_rounds: int = 0, lookup_cost_rounds: int = 0):
        self.fixture = fixture
        self.lookup_cost_rounds = lookup_cost_rounds
        self.lookups = 0
        if open_cost_rounds:
            hash_rounds(open_cost_rounds)

    def _charge(self) -> None:
        self.lookups += 1
        if self.lookup_cost_rounds:
            hash_rounds(self.lookup_cost_rounds)

    def get_customer(self, customer_id: int) -> Customer | None:
        self._charge()
        return self.fixture.customers_by_id.get(customer_id)

    def recent_order_ids(self, customer_id: int, limit: int) -> list[int]:
        self._charge()
        return list(self.fixture.order_ids_by_customer.get(customer_id, ())[:limit])

    def detail_ids_for_order(self, order_id: int) -> list[int]:
        self._charge()
        return list(self.fixture.detail_ids_by_order.get(order_id, ()))

    def get_detail(self, detail_id: int) -> OrderDetail | None:
        self._charge()
        return self.fixture.details_by_id.get(detail_id)

    def get_product(self, product_id: int) -> Product | None:
        self._charge()
        return self.fixture.products_by_id.get(product_id)

    def get_supplier(self, supplier_id: int) -> Supplier | None:
        self._charge()
        return self.fixture.suppliers_by_id.get(supplier_id)
