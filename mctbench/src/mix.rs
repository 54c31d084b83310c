//! Benchmark inputs: the TPC-W data, the read mix and the update mix,
//! all derived from `--seed` and nothing else.
//!
//! **Read mix.** One *round* is 24 statements in a fixed order: class
//! `flwor` = the 16 `TQ1..TQ16` MCXQuery texts of
//! `mct_workloads::all_queries` (all outside the planner fragment, so
//! `mctd` runs them in the interpreter under the write lock); class
//! `path` = 8 bare path expressions the planner accepts. A run cycles
//! through [`VARIANTS`] parameter sets (another customer, city, date,
//! author … per set, drawn by the seeded generator), so no latency
//! hangs on the selectivity of one hot key and a run on another seed
//! measures the same distribution.
//!
//! **Update mix.** `replace value` statements in the paper's TU2, TU4
//! and TU3 shapes: 80 % touch one element, 15 % the few items of one
//! author, 5 % every order shipped to one city. Replacement values
//! have the length of the values they replace (four-digit costs, status
//! words), so the store keeps its size over a run.

use mct_workloads::rng::XorShiftRng;
use mct_workloads::{
    all_queries, Dataset, Params, QueryKind, SigmodConfig, SigmodData, TpcwConfig, TpcwData,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// TPC-W scale of every workload: ≈19 K elements, ≈48 K structural
/// records, ≈4 MB of catalog. Bounded by `setup_s` — a store build
/// costs ≈100 µs per element today and every run sets up three times.
pub const SCALE: f64 = 0.5;

/// Parameter sets a run cycles through.
pub const VARIANTS: usize = 8;

/// Which engine path a read statement is written for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReadClass {
    /// A `for … return` text: interpreter.
    Flwor,
    /// A bare path expression: planner + shared executor.
    Path,
}

/// One read statement of the mix.
#[derive(Clone, Debug)]
pub struct ReadOp {
    /// `TQ1..TQ16` for class flwor, `P1..P8` for class path.
    pub id: String,
    /// Statement class.
    pub class: ReadClass,
    /// MCXQuery text.
    pub text: String,
}

/// Everything a workload needs that depends on the seed.
pub struct Inputs {
    /// The generated entity graph.
    pub data: TpcwData,
    /// One `Params` per variant.
    pub variants: Vec<Params>,
    /// `rounds[v]` = the 24 read statements under variant `v`.
    pub rounds: Vec<Vec<ReadOp>>,
    /// The seed everything came from.
    pub seed: u64,
    /// Seconds spent in the generator.
    pub generate_s: f64,
}

fn path_ops(p: &Params) -> Vec<(&'static str, String)> {
    let doc = r#"document("tpcw")"#;
    let customer = format!(
        r#"{doc}/{{cust}}descendant::customer[{{cust}}child::uname = "{}"]"#,
        p.uname
    );
    vec![
        ("P1", format!("{customer}/{{cust}}child::name")),
        ("P2", format!("{customer}/{{cust}}descendant::orderline/{{auth}}parent::item/{{auth}}child::title")),
        ("P3", format!(r#"{doc}/{{cust}}descendant::customer[{{cust}}child::name = "{}"]"#, p.cust_name)),
        ("P4", format!(r#"{doc}/{{auth}}descendant::author[{{auth}}child::name = "{}"]/{{auth}}descendant::orderline"#, p.author)),
        ("P5", format!(r#"{doc}/{{ship}}descendant::address[{{ship}}child::city = "{}"]/{{ship}}child::order/{{ship}}child::orderline"#, p.city)),
        ("P6", format!(r#"{doc}/{{date}}descendant::date[. = "{}"]/{{date}}child::order/{{date}}child::orderline"#, p.date)),
        ("P7", format!(r#"{doc}/{{bill}}descendant::address[{{bill}}child::country = "{}"]/{{bill}}child::order/{{bill}}child::orderline"#, p.country)),
        ("P8", format!(r#"{doc}/{{cust}}descendant::order[{{cust}}child::status = "{}"]"#, p.status)),
    ]
}

fn round(p: &Params) -> Vec<ReadOp> {
    let mut ops: Vec<ReadOp> = all_queries(p)
        .into_iter()
        .filter(|q| q.dataset == Dataset::Tpcw && q.kind == QueryKind::Read)
        .map(|q| ReadOp {
            id: q.id.to_string(),
            class: ReadClass::Flwor,
            text: q.mct_text,
        })
        .collect();
    ops.extend(path_ops(p).into_iter().map(|(id, text)| ReadOp {
        id: id.to_string(),
        class: ReadClass::Path,
        text,
    }));
    ops
}

impl Inputs {
    /// Generate data and statements from `seed` at `scale`.
    pub fn generate(seed: u64, scale: f64) -> Inputs {
        let t0 = Instant::now();
        let data = TpcwData::generate(&TpcwConfig { scale, seed });
        let generate_s = t0.elapsed().as_secs_f64();
        // `Params` also carries SIGMOD-Record fields; the mix never
        // reads them, so the smallest data set will do.
        let sigmod = SigmodData::generate(&SigmodConfig { scale: 0.02, seed });
        let base = Params::derive(&data, &sigmod);
        let mut rng = XorShiftRng::seed_from_u64(seed ^ 0x6d63_7462_656e_6368);
        let variants: Vec<Params> = (0..VARIANTS)
            .map(|_| {
                // Draw through an order so the customer has orders and
                // the date, city and country have order lines.
                let order = &data.orders[rng.gen_range(0..data.orders.len())];
                let customer = &data.customers[order.customer];
                let author = rng.gen_range(0..data.authors.len());
                Params {
                    uname: customer.uname.clone(),
                    cust_name: customer.name.clone(),
                    qty: rng.gen_range(1u32..=9),
                    status: data.orders[rng.gen_range(0..data.orders.len())]
                        .status
                        .to_string(),
                    author: data.authors[author].name.clone(),
                    author2: data.authors[(author + 1) % data.authors.len()].name.clone(),
                    city: data.addresses[order.ship_addr].city.clone(),
                    country: data.countries[data.addresses[order.bill_addr].country]
                        .name
                        .clone(),
                    date: data.dates[order.date].clone(),
                    item_title: data.items[rng.gen_range(0..data.items.len())].title.clone(),
                    ..base.clone()
                }
            })
            .collect();
        let rounds = variants.iter().map(round).collect();
        Inputs {
            data,
            variants,
            rounds,
            seed,
            generate_s,
        }
    }
}

/// What an update statement does to the expected state.
#[derive(Clone, Debug)]
pub enum Effect {
    /// These items now cost this.
    Cost(Vec<usize>, String),
    /// These orders now have this status.
    Status(Vec<usize>, String),
}

/// One update statement with what it must do.
#[derive(Clone, Debug)]
pub struct UpdateOp {
    /// `replace value` statement.
    pub text: String,
    /// Expected change (its length is the expected element count).
    pub effect: Effect,
}

impl UpdateOp {
    /// Elements the statement must report as updated.
    pub fn elements(&self) -> usize {
        match &self.effect {
            Effect::Cost(v, _) | Effect::Status(v, _) => v.len(),
        }
    }
}

/// Seeded source of update statements.
pub struct UpdateGen {
    rng: XorShiftRng,
    items_by_author: Vec<Vec<usize>>,
    orders_by_city: Vec<(String, Vec<usize>)>,
}

impl UpdateGen {
    /// A generator over `data`; the same seed gives the same statements.
    pub fn new(data: &TpcwData, seed: u64) -> UpdateGen {
        let mut items_by_author = vec![Vec::new(); data.authors.len()];
        for (i, item) in data.items.iter().enumerate() {
            items_by_author[item.author].push(i);
        }
        let mut by_city: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, o) in data.orders.iter().enumerate() {
            by_city
                .entry(&data.addresses[o.ship_addr].city)
                .or_default()
                .push(i);
        }
        UpdateGen {
            rng: XorShiftRng::seed_from_u64(seed ^ 0x7570_6461_7465_7321),
            items_by_author,
            orders_by_city: by_city
                .into_iter()
                .map(|(c, v)| (c.to_string(), v))
                .collect(),
        }
    }

    /// The next statement of the 80/15/5 mix.
    pub fn next_op(&mut self, data: &TpcwData) -> UpdateOp {
        let doc = r#"document("tpcw")"#;
        let roll = self.rng.next_below(100);
        let cost = self.rng.gen_range(1000u32..10000).to_string();
        if roll < 80 {
            let i = self.rng.gen_range(0..data.items.len());
            UpdateOp {
                text: format!(
                    r#"for $i in {doc}/{{auth}}descendant::item where $i/{{auth}}child::title = "{}" update $i {{ replace value of $i/{{auth}}child::cost with "{cost}" }}"#,
                    data.items[i].title
                ),
                effect: Effect::Cost(vec![i], cost),
            }
        } else if roll < 95 {
            let a = self.rng.gen_range(0..data.authors.len());
            UpdateOp {
                text: format!(
                    r#"for $i in {doc}/{{auth}}descendant::author[{{auth}}child::name = "{}"]/{{auth}}child::item update $i {{ replace value of $i/{{auth}}child::cost with "{cost}" }}"#,
                    data.authors[a].name
                ),
                effect: Effect::Cost(self.items_by_author[a].clone(), cost),
            }
        } else {
            let c = self.rng.gen_range(0..self.orders_by_city.len());
            let status = data.orders[self.rng.gen_range(0..data.orders.len())]
                .status
                .to_string();
            let (city, orders) = &self.orders_by_city[c];
            UpdateOp {
                text: format!(
                    r#"for $o in {doc}/{{ship}}descendant::address[{{ship}}child::city = "{city}"]/{{ship}}child::order update $o {{ replace value of $o/{{ship}}child::status with "{status}" }}"#
                ),
                effect: Effect::Status(orders.clone(), status),
            }
        }
    }
}

/// The values every acknowledged update should have left behind.
pub struct Model {
    /// Cost per item index.
    pub cost: Vec<String>,
    /// Status per order index.
    pub status: Vec<String>,
}

impl Model {
    /// The state the generator built.
    pub fn new(data: &TpcwData) -> Model {
        Model {
            cost: data.items.iter().map(|i| i.cost.to_string()).collect(),
            status: data.orders.iter().map(|o| o.status.to_string()).collect(),
        }
    }

    /// Record an acknowledged update.
    pub fn apply(&mut self, op: &UpdateOp) {
        match &op.effect {
            Effect::Cost(items, v) => items.iter().for_each(|&i| self.cost[i] = v.clone()),
            Effect::Status(orders, v) => orders.iter().for_each(|&o| self.status[o] = v.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = Inputs::generate(11, 0.05);
        let b = Inputs::generate(11, 0.05);
        let c = Inputs::generate(12, 0.05);
        let texts = |i: &Inputs| -> Vec<String> {
            i.rounds.iter().flatten().map(|o| o.text.clone()).collect()
        };
        assert_eq!(texts(&a), texts(&b));
        assert_ne!(texts(&a), texts(&c));
        assert_eq!(a.rounds.len(), VARIANTS);
        assert!(a.rounds.iter().all(|r| r.len() == 24));
        let ups = |i: &Inputs| -> Vec<String> {
            let mut g = UpdateGen::new(&i.data, i.seed);
            (0..50).map(|_| g.next_op(&i.data).text).collect()
        };
        assert_eq!(ups(&a), ups(&b));
        assert_ne!(ups(&a), ups(&c));
    }

    #[test]
    fn update_mix_has_all_three_shapes() {
        let i = Inputs::generate(3, 0.05);
        let mut g = UpdateGen::new(&i.data, 3);
        let mut model = Model::new(&i.data);
        let (mut one, mut many) = (0, 0);
        for _ in 0..400 {
            let op = g.next_op(&i.data);
            assert!(op.elements() >= 1);
            match &op.effect {
                Effect::Cost(v, _) if v.len() == 1 => one += 1,
                Effect::Status(..) => many += 1,
                Effect::Cost(..) => {}
            }
            model.apply(&op);
        }
        assert!(one >= 280, "one-element share too low: {one}/400");
        assert!(
            (5..=45).contains(&many),
            "many-element share off: {many}/400"
        );
    }
}
