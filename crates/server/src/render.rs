//! Result rendering shared by the HTTP handlers and the test suite.
//!
//! Both the planner pipeline (`Vec<Tuple>`) and the interpreter
//! (`Sequence` of [`Item`]s) funnel into the same [`Row`] shape, so a
//! query answered from the plan cache, the cold planner, or the
//! interpreter renders byte-identically. Tests exploit this: they run
//! [`PathPlan::execute_shared`](mct_query::PathPlan) directly,
//! render with these functions, and compare against server responses
//! byte for byte.

use crate::json::escape_into;
use mct_core::{McNodeId, StoredDb};
use mct_query::{Item, Tuple};
use mct_storage::DiskManager;

/// One result row: a node projected to (name, content, colors), or a
/// scalar from the interpreter.
#[derive(Clone, Debug, PartialEq)]
pub enum Row {
    /// An element with its tag name, text content, and color names.
    Node {
        /// Tag name.
        name: String,
        /// Text content (empty for structure-only elements).
        content: String,
        /// Names of every color the node participates in.
        colors: Vec<String>,
    },
    /// A string value.
    Str(String),
    /// A numeric value.
    Num(f64),
    /// A boolean value.
    Bool(bool),
}

/// Project one node to a [`Row`].
pub fn node_row<D: DiskManager>(s: &StoredDb<D>, n: McNodeId) -> Row {
    Row::Node {
        name: s.db.name_str(n).unwrap_or("?").to_string(),
        content: s.db.content(n).unwrap_or("").to_string(),
        colors: s
            .db
            .colors(n)
            .iter()
            .map(|c| s.db.palette.name(c).to_string())
            .collect(),
    }
}

/// Rows for a planner result set (first column of each tuple, matching
/// `mctq` output for a planned path).
pub fn rows_from_tuples<D: DiskManager>(s: &StoredDb<D>, tuples: &[Tuple]) -> Vec<Row> {
    tuples.iter().map(|t| node_row(s, t[0].node)).collect()
}

/// Rows for an interpreter result sequence. A built element renders
/// as the node it would be: its name and content, and no colors.
pub fn rows_from_items<D: DiskManager>(s: &StoredDb<D>, items: &[Item]) -> Vec<Row> {
    items
        .iter()
        .map(|item| match item {
            Item::Node(n, _) => node_row(s, *n),
            Item::Built(b) => Row::Node {
                name: b.name.clone(),
                content: b.content.clone().unwrap_or_default(),
                colors: Vec::new(),
            },
            Item::Str(v) => Row::Str(v.clone()),
            Item::Num(v) => Row::Num(*v),
            Item::Bool(v) => Row::Bool(*v),
        })
        .collect()
}

fn xml_escape(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(ch),
        }
    }
}

/// Render rows as the `/query` XML body.
pub fn render_xml(rows: &[Row]) -> String {
    let mut out = format!("<results count=\"{}\">\n", rows.len());
    for row in rows {
        match row {
            Row::Node {
                name,
                content,
                colors,
            } => {
                out.push_str("  <node name=\"");
                xml_escape(name, &mut out);
                out.push_str("\" colors=\"");
                xml_escape(&colors.join(" "), &mut out);
                out.push_str("\">");
                xml_escape(content, &mut out);
                out.push_str("</node>\n");
            }
            Row::Str(v) => {
                out.push_str("  <value>");
                xml_escape(v, &mut out);
                out.push_str("</value>\n");
            }
            Row::Num(v) => out.push_str(&format!("  <value>{v}</value>\n")),
            Row::Bool(v) => out.push_str(&format!("  <value>{v}</value>\n")),
        }
    }
    out.push_str("</results>\n");
    out
}

/// Render rows as the `/query` JSON body (`?format=json`).
pub fn render_json(rows: &[Row]) -> String {
    let mut out = format!("{{\"count\":{},\"rows\":[", rows.len());
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match row {
            Row::Node {
                name,
                content,
                colors,
            } => {
                out.push_str("{\"name\":");
                escape_into(&mut out, name);
                out.push_str(",\"content\":");
                escape_into(&mut out, content);
                out.push_str(",\"colors\":[");
                for (j, c) in colors.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    escape_into(&mut out, c);
                }
                out.push_str("]}");
            }
            Row::Str(v) => {
                out.push_str("{\"value\":");
                escape_into(&mut out, v);
                out.push('}');
            }
            Row::Num(v) => {
                if v.is_finite() {
                    out.push_str(&format!("{{\"value\":{v}}}"));
                } else {
                    out.push_str("{\"value\":null}");
                }
            }
            Row::Bool(v) => out.push_str(&format!("{{\"value\":{v}}}")),
        }
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xml_rendering_escapes_markup() {
        let rows = vec![
            Row::Node {
                name: "a<b".into(),
                content: "x & y".into(),
                colors: vec!["red".into(), "green".into()],
            },
            Row::Str("s\"q".into()),
            Row::Num(3.5),
            Row::Bool(true),
        ];
        let xml = render_xml(&rows);
        assert!(xml.contains("count=\"4\""));
        assert!(xml.contains("name=\"a&lt;b\" colors=\"red green\">x &amp; y</node>"));
        assert!(xml.contains("<value>s&quot;q</value>"));
        assert!(xml.contains("<value>3.5</value>"));
        assert!(xml.contains("<value>true</value>"));
    }

    #[test]
    fn json_rendering_escapes_strings() {
        let rows = vec![
            Row::Node {
                name: "n".into(),
                content: "line\nbreak".into(),
                colors: vec!["c".into()],
            },
            Row::Str("q\"".into()),
        ];
        let json = render_json(&rows);
        assert!(json.starts_with("{\"count\":2,\"rows\":["));
        assert!(json.contains("\"content\":\"line\\nbreak\""));
        assert!(json.contains("{\"value\":\"q\\\"\"}"));
        assert!(json.ends_with("]}\n"));
    }
}
