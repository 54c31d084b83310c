//! TPC-W-style workload data (§7: XBench/ToXgene substitute).
//!
//! A deterministic, seeded generator produces one entity graph —
//! countries, authors, items, customers, addresses, orders, order
//! lines, dates — and renders it into the paper's three database
//! designs:
//!
//! * **MCT** ([`TpcwData::build_mct`]): the five colored hierarchies of
//!   §7 —
//!   `cust`: customer–order–orderline, `bill`: billing
//!   address–order–orderline, `ship`: shipping
//!   address–order–orderline, `date`: date–order–orderline, and
//!   `auth`: author–item–orderline. Orders carry four colors, order
//!   lines five; leaf subelements follow their parents' colors
//!   (Definition 3.2).
//! * **Shallow** ([`TpcwData::build_shallow`]): one flat single-color
//!   tree per entity type, relationships as `*IdRef` attributes — a
//!   shallow schema in the paper's Definition 3.3 sense.
//! * **Deep** ([`TpcwData::build_deep`]): the paper's nesting —
//!   customer at the top, then order, addresses, country, item,
//!   author — replicating addresses, countries, dates, items, and
//!   authors at every use site (deep per Definition 3.3, with the
//!   attendant update anomalies).
//!
//! Cardinality ratios follow TPC-W's spirit (≈0.9 orders/customer, ≈3
//! lines/order, 2 addresses/customer); the absolute scale is set by
//! [`TpcwConfig::scale`].

use mct_core::{ColorId, McNodeId, MctDatabase};
use crate::rng::XorShiftRng;

/// Generator configuration.
#[derive(Clone, Copy, Debug)]
pub struct TpcwConfig {
    /// Scale factor; 1.0 ≈ 30 K elements in the MCT/shallow designs.
    pub scale: f64,
    /// RNG seed (generation is fully deterministic given scale+seed).
    pub seed: u64,
}

impl Default for TpcwConfig {
    fn default() -> Self {
        TpcwConfig {
            scale: 1.0,
            seed: 0xC010F_u64,
        }
    }
}

/// One country.
#[derive(Clone, Debug)]
pub struct Country {
    /// Display name.
    pub name: String,
}

/// One author.
#[derive(Clone, Debug)]
pub struct Author {
    /// Author name.
    pub name: String,
    /// Short biography (replicated at every use site in the deep design).
    pub bio: String,
}

/// One catalog item.
#[derive(Clone, Debug)]
pub struct Item {
    /// Title.
    pub title: String,
    /// Price in cents.
    pub cost: u32,
    /// Long description (TPC-W's `i_desc`).
    pub desc: String,
    /// Publisher name.
    pub publisher: String,
    /// Subject classification.
    pub subject: String,
    /// Index into authors.
    pub author: usize,
}

/// One registered customer.
#[derive(Clone, Debug)]
pub struct Customer {
    /// Unique login.
    pub uname: String,
    /// Display name.
    pub name: String,
}

/// One address.
#[derive(Clone, Debug)]
pub struct Address {
    /// Street line.
    pub street: String,
    /// City.
    pub city: String,
    /// Postal code.
    pub zip: String,
    /// Index into countries.
    pub country: usize,
}

/// One order.
#[derive(Clone, Debug)]
pub struct Order {
    /// Index into customers.
    pub customer: usize,
    /// Billing address index.
    pub bill_addr: usize,
    /// Shipping address index.
    pub ship_addr: usize,
    /// Index into dates.
    pub date: usize,
    /// Total in cents.
    pub total: u32,
    /// Status string.
    pub status: &'static str,
}

/// One order line.
#[derive(Clone, Debug)]
pub struct OrderLine {
    /// Index into orders.
    pub order: usize,
    /// Index into items.
    pub item: usize,
    /// Quantity.
    pub qty: u32,
}

/// The generated entity graph.
#[derive(Clone, Debug)]
pub struct TpcwData {
    /// Countries.
    pub countries: Vec<Country>,
    /// Authors.
    pub authors: Vec<Author>,
    /// Items.
    pub items: Vec<Item>,
    /// Customers.
    pub customers: Vec<Customer>,
    /// Addresses.
    pub addresses: Vec<Address>,
    /// Orders.
    pub orders: Vec<Order>,
    /// Order lines.
    pub orderlines: Vec<OrderLine>,
    /// Distinct order dates (ISO strings).
    pub dates: Vec<String>,
}

const CITIES: &[&str] = &[
    "Springfield", "Rivertown", "Lakewood", "Hillcrest", "Maplewood", "Fairview", "Oakdale",
    "Brookside", "Ashford", "Elmhurst",
];
const STATUSES: &[&str] = &["PENDING", "PROCESSING", "SHIPPED", "DELIVERED", "CANCELLED"];

impl TpcwData {
    /// Generate the entity graph.
    pub fn generate(cfg: &TpcwConfig) -> TpcwData {
        let mut rng = XorShiftRng::seed_from_u64(cfg.seed);
        let s = cfg.scale;
        let n_countries = 92usize;
        let n_authors = ((500.0 * s) as usize).max(10);
        let n_items = ((1000.0 * s) as usize).max(20);
        let n_customers = ((1440.0 * s) as usize).max(20);
        let n_addresses = n_customers * 2;
        let n_orders = ((n_customers as f64 * 0.9) as usize).max(10);
        let n_dates = 365usize.min(n_orders.max(30));

        let countries = (0..n_countries)
            .map(|i| Country {
                name: format!("Country-{i:03}"),
            })
            .collect();
        let authors = (0..n_authors)
            .map(|i| Author {
                name: format!("Author {} {}", FIRST[i % FIRST.len()], i),
                bio: format!(
                    "{} {} writes about the {} from a converted lighthouse near {}.",
                    FIRST[i % FIRST.len()],
                    LAST[i % LAST.len()],
                    NOUNS[i % NOUNS.len()],
                    CITIES[i % CITIES.len()],
                ),
            })
            .collect::<Vec<_>>();
        // Every author gets at least one item (round-robin head), so
        // the deep design — which only materializes authors at use
        // sites — covers the same author set as MCT/shallow.
        let items = (0..n_items)
            .map(|i| Item {
                title: format!("The {} of {} (vol. {})", NOUNS[i % NOUNS.len()],
                    FIRST[(i * 7) % FIRST.len()], i),
                cost: rng.gen_range(100u32..20000),
                desc: format!(
                    "A {} account of the {} that travels from {} to {}, tracing how the \
                     {} reshaped everything its keepers believed about the {}. Vol {i}.",
                    WORDSY[i % WORDSY.len()],
                    NOUNS[i % NOUNS.len()],
                    CITIES[i % CITIES.len()],
                    CITIES[(i + 3) % CITIES.len()],
                    NOUNS[(i * 5) % NOUNS.len()],
                    NOUNS[(i * 11) % NOUNS.len()],
                ),
                publisher: format!("{} House", LAST[i % LAST.len()]),
                subject: NOUNS[(i * 3) % NOUNS.len()].to_string(),
                author: if i < n_authors { i } else { rng.gen_range(0..n_authors) },
            })
            .collect();
        let customers = (0..n_customers)
            .map(|i| Customer {
                uname: format!("user{i:06}"),
                name: format!("{} {}", FIRST[i % FIRST.len()], LAST[(i / FIRST.len()) % LAST.len()]),
            })
            .collect();
        let addresses = (0..n_addresses)
            .map(|_| Address {
                street: format!("{} Main St", rng.gen_range(1..9999)),
                city: CITIES[rng.gen_range(0..CITIES.len())].to_string(),
                zip: format!("{:05}", rng.gen_range(10000..99999)),
                country: rng.gen_range(0..n_countries),
            })
            .collect();
        let dates: Vec<String> = (0..n_dates)
            .map(|i| format!("2003-{:02}-{:02}", 1 + (i / 28) % 12, 1 + i % 28))
            .collect();
        let orders: Vec<Order> = (0..n_orders)
            .map(|_| {
                let customer = rng.gen_range(0..n_customers);
                Order {
                    customer,
                    bill_addr: customer * 2,
                    ship_addr: customer * 2 + 1,
                    date: rng.gen_range(0..n_dates),
                    total: rng.gen_range(500u32..100000),
                    status: STATUSES[rng.gen_range(0..STATUSES.len())],
                }
            })
            .collect();
        // Every item is ordered at least once (cycle through items for
        // the first lines), again so deep covers the full catalog.
        let mut orderlines = Vec::new();
        let mut next_item = 0usize;
        for (oi, _) in orders.iter().enumerate() {
            let lines = rng.gen_range(1..=5);
            for _ in 0..lines {
                let item = if next_item < n_items {
                    let i = next_item;
                    next_item += 1;
                    i
                } else {
                    rng.gen_range(0..n_items)
                };
                orderlines.push(OrderLine {
                    order: oi,
                    item,
                    qty: rng.gen_range(1u32..=9),
                });
            }
        }
        TpcwData {
            countries,
            authors,
            items,
            customers,
            addresses,
            orders,
            orderlines,
            dates,
        }
    }

    // ------------------------------------------------------------------ MCT

    /// Render as a five-hierarchy MCT database.
    pub fn build_mct(&self) -> MctDatabase {
        let mut db = MctDatabase::new();
        let cust = db.add_color("cust");
        let bill = db.add_color("bill");
        let ship = db.add_color("ship");
        let date = db.add_color("date");
        let auth = db.add_color("auth");

        // Roots per hierarchy.
        let customers: Vec<McNodeId> = self
            .customers
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let n = db.new_element("customer", cust);
                db.set_attr(n, "id", &format!("c{i}"));
                db.append_child(McNodeId::DOCUMENT, n, cust);
                leaf_multi(&mut db, n, "uname", &c.uname, &[cust]);
                leaf_multi(&mut db, n, "name", &c.name, &[cust]);
                n
            })
            .collect();
        // Addresses are roots in both the bill and ship hierarchies —
        // multi-colored roots.
        let addresses: Vec<McNodeId> = self
            .addresses
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let n = db.new_element("address", bill);
                db.set_attr(n, "id", &format!("a{i}"));
                db.append_child(McNodeId::DOCUMENT, n, bill);
                db.add_node_color(n, ship);
                db.append_child(McNodeId::DOCUMENT, n, ship);
                leaf_multi(&mut db, n, "street", &a.street, &[bill, ship]);
                leaf_multi(&mut db, n, "city", &a.city, &[bill, ship]);
                leaf_multi(&mut db, n, "zip", &a.zip, &[bill, ship]);
                leaf_multi(&mut db, n, "country", &self.countries[a.country].name, &[bill, ship]);
                n
            })
            .collect();
        let dates: Vec<McNodeId> = self
            .dates
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let n = db.new_element("date", date);
                db.set_attr(n, "id", &format!("d{i}"));
                db.set_content(n, d);
                db.append_child(McNodeId::DOCUMENT, n, date);
                n
            })
            .collect();
        let authors: Vec<McNodeId> = self
            .authors
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let n = db.new_element("author", auth);
                db.set_attr(n, "id", &format!("au{i}"));
                db.append_child(McNodeId::DOCUMENT, n, auth);
                leaf_multi(&mut db, n, "name", &a.name, &[auth]);
                leaf_multi(&mut db, n, "bio", &a.bio, &[auth]);
                n
            })
            .collect();
        let items: Vec<McNodeId> = self
            .items
            .iter()
            .enumerate()
            .map(|(i, it)| {
                let n = db.new_element("item", auth);
                db.set_attr(n, "id", &format!("i{i}"));
                db.append_child(authors[it.author], n, auth);
                leaf_multi(&mut db, n, "title", &it.title, &[auth]);
                leaf_multi(&mut db, n, "cost", &it.cost.to_string(), &[auth]);
                leaf_multi(&mut db, n, "desc", &it.desc, &[auth]);
                leaf_multi(&mut db, n, "publisher", &it.publisher, &[auth]);
                leaf_multi(&mut db, n, "subject", &it.subject, &[auth]);
                n
            })
            .collect();
        // Orders: four colors.
        let orders: Vec<McNodeId> = self
            .orders
            .iter()
            .enumerate()
            .map(|(i, o)| {
                let n = db.new_element("order", cust);
                db.set_attr(n, "id", &format!("o{i}"));
                db.append_child(customers[o.customer], n, cust);
                db.add_node_color(n, bill);
                db.append_child(addresses[o.bill_addr], n, bill);
                db.add_node_color(n, ship);
                db.append_child(addresses[o.ship_addr], n, ship);
                db.add_node_color(n, date);
                db.append_child(dates[o.date], n, date);
                leaf_multi(&mut db, n, "total", &o.total.to_string(), &[cust, bill, ship, date]);
                leaf_multi(&mut db, n, "status", o.status, &[cust, bill, ship, date]);
                n
            })
            .collect();
        // Order lines: five colors.
        for (i, l) in self.orderlines.iter().enumerate() {
            let n = db.new_element("orderline", cust);
            db.set_attr(n, "id", &format!("l{i}"));
            db.append_child(orders[l.order], n, cust);
            for (c, parent) in [
                (bill, orders[l.order]),
                (ship, orders[l.order]),
                (date, orders[l.order]),
                (auth, items[l.item]),
            ] {
                db.add_node_color(n, c);
                db.append_child(parent, n, c);
            }
            leaf_multi(&mut db, n, "qty", &l.qty.to_string(), &[cust, bill, ship, date, auth]);
        }
        db
    }

    // -------------------------------------------------------------- shallow

    /// Render as the flat single-color design with IDREF attributes.
    pub fn build_shallow(&self) -> MctDatabase {
        let mut db = MctDatabase::new();
        let c = db.add_color("black");
        let mk_section = |db: &mut MctDatabase, name: &str| {
            let s = db.new_element(name, c);
            db.append_child(McNodeId::DOCUMENT, s, c);
            s
        };
        let sec_customers = mk_section(&mut db, "customers");
        let sec_addresses = mk_section(&mut db, "addresses");
        let sec_dates = mk_section(&mut db, "dates");
        let sec_authors = mk_section(&mut db, "authors");
        let sec_items = mk_section(&mut db, "items");
        let sec_orders = mk_section(&mut db, "orders");
        let sec_lines = mk_section(&mut db, "orderlines");

        for (i, cu) in self.customers.iter().enumerate() {
            let n = db.new_element("customer", c);
            db.set_attr(n, "id", &format!("c{i}"));
            db.append_child(sec_customers, n, c);
            leaf_multi(&mut db, n, "uname", &cu.uname, &[c]);
            leaf_multi(&mut db, n, "name", &cu.name, &[c]);
        }
        for (i, a) in self.addresses.iter().enumerate() {
            let n = db.new_element("address", c);
            db.set_attr(n, "id", &format!("a{i}"));
            db.append_child(sec_addresses, n, c);
            leaf_multi(&mut db, n, "street", &a.street, &[c]);
            leaf_multi(&mut db, n, "city", &a.city, &[c]);
            leaf_multi(&mut db, n, "zip", &a.zip, &[c]);
            leaf_multi(&mut db, n, "country", &self.countries[a.country].name, &[c]);
        }
        for (i, d) in self.dates.iter().enumerate() {
            let n = db.new_element("date", c);
            db.set_attr(n, "id", &format!("d{i}"));
            db.set_content(n, d);
            db.append_child(sec_dates, n, c);
        }
        for (i, a) in self.authors.iter().enumerate() {
            let n = db.new_element("author", c);
            db.set_attr(n, "id", &format!("au{i}"));
            db.append_child(sec_authors, n, c);
            leaf_multi(&mut db, n, "name", &a.name, &[c]);
            leaf_multi(&mut db, n, "bio", &a.bio, &[c]);
        }
        for (i, it) in self.items.iter().enumerate() {
            let n = db.new_element("item", c);
            db.set_attr(n, "id", &format!("i{i}"));
            db.set_attr(n, "authorIdRef", &format!("au{}", it.author));
            db.append_child(sec_items, n, c);
            leaf_multi(&mut db, n, "title", &it.title, &[c]);
            leaf_multi(&mut db, n, "cost", &it.cost.to_string(), &[c]);
            leaf_multi(&mut db, n, "desc", &it.desc, &[c]);
            leaf_multi(&mut db, n, "publisher", &it.publisher, &[c]);
            leaf_multi(&mut db, n, "subject", &it.subject, &[c]);
        }
        for (i, o) in self.orders.iter().enumerate() {
            let n = db.new_element("order", c);
            db.set_attr(n, "id", &format!("o{i}"));
            db.set_attr(n, "customerIdRef", &format!("c{}", o.customer));
            db.set_attr(n, "billAddrIdRef", &format!("a{}", o.bill_addr));
            db.set_attr(n, "shipAddrIdRef", &format!("a{}", o.ship_addr));
            db.set_attr(n, "dateIdRef", &format!("d{}", o.date));
            db.append_child(sec_orders, n, c);
            leaf_multi(&mut db, n, "total", &o.total.to_string(), &[c]);
            leaf_multi(&mut db, n, "status", o.status, &[c]);
        }
        for (i, l) in self.orderlines.iter().enumerate() {
            let n = db.new_element("orderline", c);
            db.set_attr(n, "id", &format!("l{i}"));
            db.set_attr(n, "orderIdRef", &format!("o{}", l.order));
            db.set_attr(n, "itemIdRef", &format!("i{}", l.item));
            db.append_child(sec_lines, n, c);
            leaf_multi(&mut db, n, "qty", &l.qty.to_string(), &[c]);
        }
        db
    }

    // ----------------------------------------------------------------- deep

    /// Render as the fully nested deep design (replication of
    /// addresses, countries, dates, items, and authors at use sites).
    pub fn build_deep(&self) -> MctDatabase {
        let mut db = MctDatabase::new();
        let c = db.add_color("black");
        let root = db.new_element("customers", c);
        db.append_child(McNodeId::DOCUMENT, root, c);
        // Group orders (and their lines) by customer.
        let mut orders_by_cust: Vec<Vec<usize>> = vec![Vec::new(); self.customers.len()];
        for (oi, o) in self.orders.iter().enumerate() {
            orders_by_cust[o.customer].push(oi);
        }
        let mut lines_by_order: Vec<Vec<usize>> = vec![Vec::new(); self.orders.len()];
        for (li, l) in self.orderlines.iter().enumerate() {
            lines_by_order[l.order].push(li);
        }
        for (ci, cu) in self.customers.iter().enumerate() {
            let cn = db.new_element("customer", c);
            db.set_attr(cn, "id", &format!("c{ci}"));
            db.append_child(root, cn, c);
            leaf_multi(&mut db, cn, "uname", &cu.uname, &[c]);
            leaf_multi(&mut db, cn, "name", &cu.name, &[c]);
            for &oi in &orders_by_cust[ci] {
                let o = &self.orders[oi];
                let on = db.new_element("order", c);
                db.set_attr(on, "id", &format!("o{oi}"));
                db.append_child(cn, on, c);
                leaf_multi(&mut db, on, "total", &o.total.to_string(), &[c]);
                leaf_multi(&mut db, on, "status", o.status, &[c]);
                leaf_multi(&mut db, on, "date", &self.dates[o.date], &[c]);
                // Replicated addresses with nested country.
                for (role, ai) in [("billing", o.bill_addr), ("shipping", o.ship_addr)] {
                    let a = &self.addresses[ai];
                    let an = db.new_element("address", c);
                    db.set_attr(an, "role", role);
                    db.append_child(on, an, c);
                    leaf_multi(&mut db, an, "street", &a.street, &[c]);
                    leaf_multi(&mut db, an, "city", &a.city, &[c]);
                    leaf_multi(&mut db, an, "zip", &a.zip, &[c]);
                    let con = db.new_element("country", c);
                    db.append_child(an, con, c);
                    leaf_multi(&mut db, con, "name", &self.countries[a.country].name, &[c]);
                }
                for &li in &lines_by_order[oi] {
                    let l = &self.orderlines[li];
                    let ln = db.new_element("orderline", c);
                    db.set_attr(ln, "id", &format!("l{li}"));
                    db.append_child(on, ln, c);
                    leaf_multi(&mut db, ln, "qty", &l.qty.to_string(), &[c]);
                    // Replicated item with nested author.
                    let it = &self.items[l.item];
                    let itn = db.new_element("item", c);
                    db.set_attr(itn, "itemkey", &format!("i{}", l.item));
                    db.append_child(ln, itn, c);
                    leaf_multi(&mut db, itn, "title", &it.title, &[c]);
                    leaf_multi(&mut db, itn, "cost", &it.cost.to_string(), &[c]);
                    leaf_multi(&mut db, itn, "desc", &it.desc, &[c]);
                    leaf_multi(&mut db, itn, "publisher", &it.publisher, &[c]);
                    leaf_multi(&mut db, itn, "subject", &it.subject, &[c]);
                    let aun = db.new_element("author", c);
                    db.set_attr(aun, "authorkey", &format!("au{}", it.author));
                    db.append_child(itn, aun, c);
                    leaf_multi(&mut db, aun, "name", &self.authors[it.author].name, &[c]);
                    leaf_multi(&mut db, aun, "bio", &self.authors[it.author].bio, &[c]);
                }
            }
        }
        db
    }
}

/// Create a content leaf child carrying all the listed colors (the
/// same node appended once per color — Definition 3.2).
fn leaf_multi(
    db: &mut MctDatabase,
    parent: McNodeId,
    name: &str,
    content: &str,
    colors: &[ColorId],
) -> McNodeId {
    let n = db.new_element(name, colors[0]);
    db.set_content(n, content);
    db.append_child(parent, n, colors[0]);
    for &c in &colors[1..] {
        db.add_node_color(n, c);
        db.append_child(parent, n, c);
    }
    n
}

const FIRST: &[&str] = &[
    "Ada", "Ben", "Cora", "Dev", "Elif", "Femi", "Gail", "Hugo", "Ines", "Jomo", "Kira", "Liam",
    "Mina", "Noor", "Omar", "Pia", "Quin", "Rosa", "Sami", "Tess",
];
const LAST: &[&str] = &[
    "Abbott", "Blake", "Chen", "Diaz", "Eng", "Fox", "Gupta", "Hale", "Ito", "Jones", "Khan",
    "Lopez", "Mori", "Ng", "Okafor", "Patel", "Quist", "Reyes", "Sato", "Tran",
];
const WORDSY: &[&str] = &[
    "meticulous", "sweeping", "quiet", "restless", "luminous", "wry", "patient", "stubborn",
];
const NOUNS: &[&str] = &[
    "Garden", "River", "Mountain", "Archive", "Mirror", "Engine", "Harbor", "Lantern", "Meadow",
    "Compass", "Orchard", "Quarry", "Signal", "Thicket", "Voyage",
];

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TpcwData {
        TpcwData::generate(&TpcwConfig {
            scale: 0.02,
            seed: 7,
        })
    }

    #[test]
    fn generation_is_deterministic() {
        let a = TpcwData::generate(&TpcwConfig { scale: 0.05, seed: 1 });
        let b = TpcwData::generate(&TpcwConfig { scale: 0.05, seed: 1 });
        assert_eq!(a.orders.len(), b.orders.len());
        assert_eq!(a.items[0].title, b.items[0].title);
        assert_eq!(a.orderlines.len(), b.orderlines.len());
        let c = TpcwData::generate(&TpcwConfig { scale: 0.05, seed: 2 });
        assert_ne!(a.items[0].cost, c.items[0].cost);
    }

    #[test]
    fn mct_and_shallow_have_same_element_count() {
        let data = tiny();
        let mct = data.build_mct();
        let shallow = data.build_shallow();
        let (me, _, mc) = mct.counts();
        let (se, _, sc) = shallow.counts();
        // Shallow adds 7 section wrappers; otherwise identical (Table 1).
        assert_eq!(se, me + 7);
        assert_eq!(sc, mc);
    }

    #[test]
    fn deep_replicates_data() {
        let data = tiny();
        let deep = data.build_deep();
        let mct = data.build_mct();
        let (de, ..) = deep.counts();
        let (me, ..) = mct.counts();
        // At tiny scale the replication factor is modest; at bench
        // scale it approaches the paper's ~2.6×.
        assert!(
            de as f64 > me as f64 * 1.3,
            "deep should blow up element count: deep={de} mct={me}"
        );
    }

    #[test]
    fn mct_hierarchies_are_wired() {
        let data = tiny();
        let mut db = data.build_mct();
        db.check_invariants();
        let cust = db.color("cust").unwrap();
        let auth = db.color("auth").unwrap();
        db.annotate(cust);
        db.annotate(auth);
        // Every orderline has parents in all five hierarchies.
        let five = ["cust", "bill", "ship", "date", "auth"];
        let mut lines = 0;
        for i in 0..db.len() {
            let n = McNodeId(i as u32);
            if db.name_str(n) == Some("orderline") {
                lines += 1;
                for cname in five {
                    let c = db.color(cname).unwrap();
                    assert!(
                        db.parent(n, c).is_some(),
                        "orderline missing parent in {cname}"
                    );
                }
                // cust-parent is an order, auth-parent is an item.
                let po = db.parent(n, cust).unwrap();
                assert_eq!(db.name_str(po), Some("order"));
                let pi = db.parent(n, auth).unwrap();
                assert_eq!(db.name_str(pi), Some("item"));
            }
        }
        assert_eq!(lines as usize, data.orderlines.len());
    }

    #[test]
    fn shallow_idrefs_resolve() {
        let data = tiny();
        let db = data.build_shallow();
        let c = db.color("black").unwrap();
        // Collect ids.
        let mut ids = std::collections::HashSet::new();
        for i in 0..db.len() {
            let n = McNodeId(i as u32);
            if let Some(id) = db.attr(n, "id") {
                ids.insert(id.to_string());
            }
        }
        for i in 0..db.len() {
            let n = McNodeId(i as u32);
            for attr in ["customerIdRef", "billAddrIdRef", "itemIdRef", "orderIdRef", "dateIdRef", "authorIdRef"] {
                if let Some(r) = db.attr(n, attr) {
                    assert!(ids.contains(r), "dangling {attr}={r}");
                }
            }
        }
        let _ = c;
    }

    #[test]
    fn deep_is_single_rooted_nested() {
        let data = tiny();
        let db = data.build_deep();
        let c = db.color("black").unwrap();
        let roots: Vec<_> = db.children(McNodeId::DOCUMENT, c).collect();
        assert_eq!(roots.len(), 1);
        assert_eq!(db.name_str(roots[0]), Some("customers"));
        // items appear under orderlines.
        let mut found = false;
        for i in 0..db.len() {
            let n = McNodeId(i as u32);
            if db.name_str(n) == Some("item") {
                let p = db.parent(n, c).unwrap();
                assert_eq!(db.name_str(p), Some("orderline"));
                found = true;
            }
        }
        assert!(found);
    }

    #[test]
    fn scales_roughly_linearly() {
        let small = TpcwData::generate(&TpcwConfig { scale: 0.05, seed: 3 });
        let big = TpcwData::generate(&TpcwConfig { scale: 0.1, seed: 3 });
        let ratio = big.orderlines.len() as f64 / small.orderlines.len() as f64;
        assert!(ratio > 1.5 && ratio < 2.5, "ratio {ratio}");
    }
}
