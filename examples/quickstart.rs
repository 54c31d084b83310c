//! Quickstart: build the paper's Figure 2 movie database and run the
//! Figure 3 queries Q1, Q2, and Q4 through the MCXQuery interpreter.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use colorful_xml::core::StoredDb;
use colorful_xml::query::{eval, parse_query, EvalContext, Item};
use colorful_xml::workloads::movies;

fn main() {
    // The Figure 2 database: red genre hierarchy, green temporal award
    // hierarchy, blue actors — movies and roles shared across them.
    let movie_db = movies::build();
    let mut stored = StoredDb::build(movie_db.db, 16 * 1024 * 1024).expect("store");

    println!("Figure 2 database:");
    let stats = stored.stats();
    println!(
        "  {} elements stored once, {} structural records across 3 colored trees\n",
        stats.num_elements, stats.num_structural
    );

    // Q1: names of comedy movies whose title contains "Eve".
    run(
        &mut stored,
        "Q1 (comedy movies titled *Eve*)",
        r#"for $m in document("mdb.xml")/{red}descendant::movie-genre[{red}child::name = "Comedy"]/
                {red}descendant::movie[contains({red}child::name, "Eve")]
           return $m/{red}child::name"#,
    );

    // Q2: ...that were also nominated for an Oscar (two hierarchies!).
    run(
        &mut stored,
        "Q2 (+ Oscar-nominated — navigates red AND green)",
        r#"for $m in document("mdb.xml")/{red}descendant::movie-genre[{red}child::name = "Comedy"]/
                {red}descendant::movie[contains({red}child::name, "Eve")],
            $m2 in document("mdb.xml")/{green}descendant::movie-award
                [contains({green}child::name, "Oscar")]/{green}descendant::movie
           where $m = $m2
           return $m/{red}child::name"#,
    );

    // Q4: a single path expression crossing three colors.
    run(
        &mut stored,
        "Q4 (actors in nominated movies with >10 votes — one path, three colors)",
        r#"for $a in document("mdb.xml")/{green}descendant::movie-award
                [contains({green}child::name, "Oscar")]/{green}descendant::movie
                [{green}child::votes > 10]/{red}child::movie-role/{blue}parent::actor
           return $a/{blue}child::name"#,
    );
}

fn run(stored: &mut StoredDb, label: &str, text: &str) {
    println!("{label}");
    let expr = parse_query(text).expect("parse");
    let mut ctx = EvalContext::new(stored);
    let out = eval(&mut ctx, &expr).expect("eval");
    let strings: Vec<String> = out
        .iter()
        .map(|item| match item {
            Item::Node(n, _) => ctx
                .stored
                .db
                .content(*n)
                .unwrap_or("<element>")
                .to_string(),
            Item::Built(b) => b.content.clone().unwrap_or_else(|| "<element>".into()),
            Item::Str(s) => s.clone(),
            Item::Num(n) => n.to_string(),
            Item::Bool(b) => b.to_string(),
        })
        .collect();
    println!("  -> {strings:?}\n");
}
