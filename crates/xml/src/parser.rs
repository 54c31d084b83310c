//! A hand-written XML parser.
//!
//! Covers the subset of XML 1.0 the system needs: prolog, elements,
//! attributes (single or double quoted), character data, CDATA sections,
//! comments, processing instructions, the five predefined entities and
//! decimal/hex character references. DOCTYPE declarations are skipped.
//! Namespaces are treated lexically (prefixes stay part of the name).
//!
//! Whitespace-only text between elements is dropped (the paper's data is
//! data-centric, not document-centric); text adjacent to non-whitespace
//! is preserved verbatim.

use crate::document::Document;
use crate::node::NodeId;
use std::fmt;

/// Position-annotated parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset in the input where the error was detected.
    pub offset: usize,
    /// 1-based line number.
    pub line: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// How deeply elements may nest (libxml2's default, too). The parser
/// recurses once per element, so without a bound deeply nested input
/// overflows the stack of the thread parsing it (and aborts the
/// process); past it, parsing fails with a [`ParseError`].
pub const MAX_NESTING: usize = 256;

/// Parse an XML string into a [`Document`].
pub fn parse(input: &str) -> Result<Document, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
        doc: Document::new(),
    };
    p.parse_document()?;
    Ok(p.doc)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Elements open at `pos`.
    depth: usize,
    doc: Document,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        let line = 1 + self.bytes[..self.pos.min(self.bytes.len())]
            .iter()
            .filter(|&&b| b == b'\n')
            .count();
        ParseError {
            message: message.into(),
            offset: self.pos,
            line,
        }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn expect(&mut self, s: &str) -> Result<(), ParseError> {
        if self.starts_with(s) {
            self.pos += s.len();
            Ok(())
        } else {
            Err(self.err(format!("expected `{s}`")))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn skip_until(&mut self, end: &str) -> Result<(), ParseError> {
        match self.bytes[self.pos..]
            .windows(end.len())
            .position(|w| w == end.as_bytes())
        {
            Some(i) => {
                self.pos += i + end.len();
                Ok(())
            }
            None => Err(self.err(format!("unterminated construct, expected `{end}`"))),
        }
    }

    fn parse_document(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        // XML declaration.
        if self.starts_with("<?xml") {
            self.skip_until("?>")?;
        }
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                self.parse_comment(NodeId::DOCUMENT)?;
            } else if self.starts_with("<!DOCTYPE") {
                self.skip_doctype()?;
            } else if self.starts_with("<?") {
                self.parse_pi(NodeId::DOCUMENT)?;
            } else {
                break;
            }
        }
        self.skip_ws();
        if self.peek() != Some(b'<') {
            return Err(self.err("expected root element"));
        }
        self.parse_element(NodeId::DOCUMENT)?;
        self.skip_ws();
        // Trailing comments / PIs are allowed.
        while self.peek().is_some() {
            if self.starts_with("<!--") {
                self.parse_comment(NodeId::DOCUMENT)?;
            } else if self.starts_with("<?") {
                self.parse_pi(NodeId::DOCUMENT)?;
            } else {
                return Err(self.err("content after root element"));
            }
            self.skip_ws();
        }
        Ok(())
    }

    fn skip_doctype(&mut self) -> Result<(), ParseError> {
        self.expect("<!DOCTYPE")?;
        // Skip to matching '>' taking internal-subset brackets into account.
        let mut depth = 0usize;
        loop {
            match self.bump() {
                Some(b'[') => depth += 1,
                Some(b']') => depth = depth.saturating_sub(1),
                Some(b'>') if depth == 0 => return Ok(()),
                Some(_) => {}
                None => return Err(self.err("unterminated DOCTYPE")),
            }
        }
    }

    fn parse_name(&mut self) -> Result<&'a str, ParseError> {
        let start = self.pos;
        match self.peek() {
            Some(b) if is_name_start(b) => self.pos += 1,
            _ => return Err(self.err("expected name")),
        }
        while matches!(self.peek(), Some(b) if is_name_char(b)) {
            self.pos += 1;
        }
        // SAFETY of slicing: name chars are ASCII here; multi-byte UTF-8
        // name chars also satisfy is_name_char byte-wise (>= 0x80).
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid UTF-8 in name"))
    }

    fn parse_element(&mut self, parent: NodeId) -> Result<NodeId, ParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.err(format!("elements nest deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let el = self.parse_element_body(parent);
        self.depth -= 1;
        el
    }

    fn parse_element_body(&mut self, parent: NodeId) -> Result<NodeId, ParseError> {
        self.expect("<")?;
        let name = self.parse_name()?.to_string();
        let el = self.doc.create_element(&name);
        self.doc.append_child(parent, el);
        // Attributes.
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(b'/') => {
                    self.expect("/>")?;
                    return Ok(el);
                }
                Some(b) if is_name_start(b) => {
                    let aname = self.parse_name()?.to_string();
                    self.skip_ws();
                    self.expect("=")?;
                    self.skip_ws();
                    let value = self.parse_quoted()?;
                    self.doc.set_attribute(el, &aname, &value);
                }
                _ => return Err(self.err("malformed start tag")),
            }
        }
        // Content.
        self.parse_content(el, &name)?;
        Ok(el)
    }

    fn parse_content(&mut self, el: NodeId, name: &str) -> Result<(), ParseError> {
        let mut text = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err(format!("unterminated element <{name}>"))),
                Some(b'<') => {
                    if self.starts_with("</") {
                        self.flush_text(el, &mut text);
                        self.expect("</")?;
                        let close = self.parse_name()?;
                        if close != name {
                            return Err(
                                self.err(format!("mismatched close tag </{close}> for <{name}>"))
                            );
                        }
                        self.skip_ws();
                        self.expect(">")?;
                        return Ok(());
                    } else if self.starts_with("<!--") {
                        self.flush_text(el, &mut text);
                        self.parse_comment(el)?;
                    } else if self.starts_with("<![CDATA[") {
                        self.expect("<![CDATA[")?;
                        let start = self.pos;
                        self.skip_until("]]>")?;
                        let raw = &self.bytes[start..self.pos - 3];
                        text.push_str(
                            std::str::from_utf8(raw)
                                .map_err(|_| self.err("invalid UTF-8 in CDATA"))?,
                        );
                    } else if self.starts_with("<?") {
                        self.flush_text(el, &mut text);
                        self.parse_pi(el)?;
                    } else {
                        self.flush_text(el, &mut text);
                        self.parse_element(el)?;
                    }
                }
                Some(b'&') => {
                    self.parse_reference(&mut text)?;
                }
                Some(_) => {
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'<') | Some(b'&')) {
                        self.pos += 1;
                    }
                    text.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8 in text"))?,
                    );
                }
            }
        }
    }

    fn flush_text(&mut self, el: NodeId, text: &mut String) {
        if !text.is_empty() {
            // Drop whitespace-only runs (data-centric XML).
            if !text.trim().is_empty() {
                let t = self.doc.create_text(text);
                self.doc.append_child(el, t);
            }
            text.clear();
        }
    }

    fn parse_comment(&mut self, parent: NodeId) -> Result<(), ParseError> {
        self.expect("<!--")?;
        let start = self.pos;
        self.skip_until("-->")?;
        let body = std::str::from_utf8(&self.bytes[start..self.pos - 3])
            .map_err(|_| self.err("invalid UTF-8 in comment"))?;
        let c = self.doc.create_comment(body);
        self.doc.append_child(parent, c);
        Ok(())
    }

    fn parse_pi(&mut self, parent: NodeId) -> Result<(), ParseError> {
        self.expect("<?")?;
        let target = self.parse_name()?.to_string();
        self.skip_ws();
        let start = self.pos;
        self.skip_until("?>")?;
        let data = std::str::from_utf8(&self.bytes[start..self.pos - 2])
            .map_err(|_| self.err("invalid UTF-8 in PI"))?
            .to_string();
        let pi = self.doc.create_pi(&target, &data);
        self.doc.append_child(parent, pi);
        Ok(())
    }

    fn parse_quoted(&mut self) -> Result<String, ParseError> {
        let quote = match self.bump() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.err("expected quoted attribute value")),
        };
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated attribute value")),
                Some(q) if q == quote => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'&') => self.parse_reference(&mut out)?,
                Some(b'<') => return Err(self.err("`<` in attribute value")),
                Some(_) => {
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == quote || b == b'&' || b == b'<' {
                            break;
                        }
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8 in attribute"))?,
                    );
                }
            }
        }
    }

    fn parse_reference(&mut self, out: &mut String) -> Result<(), ParseError> {
        self.expect("&")?;
        let start = self.pos;
        while matches!(self.peek(), Some(b) if b != b';') {
            self.pos += 1;
        }
        if self.peek() != Some(b';') {
            return Err(self.err("unterminated entity reference"));
        }
        let ent = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid UTF-8 in entity"))?;
        self.pos += 1; // consume ';'
        match ent {
            "amp" => out.push('&'),
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "apos" => out.push('\''),
            "quot" => out.push('"'),
            _ if ent.starts_with("#x") || ent.starts_with("#X") => {
                let cp = u32::from_str_radix(&ent[2..], 16)
                    .ok()
                    .and_then(char::from_u32)
                    .ok_or_else(|| self.err(format!("bad character reference &{ent};")))?;
                out.push(cp);
            }
            _ if ent.starts_with('#') => {
                let cp = ent[1..]
                    .parse::<u32>()
                    .ok()
                    .and_then(char::from_u32)
                    .ok_or_else(|| self.err(format!("bad character reference &{ent};")))?;
                out.push(cp);
            }
            _ => return Err(self.err(format!("unknown entity &{ent};"))),
        }
        Ok(())
    }
}

#[inline]
fn is_name_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b == b':' || b >= 0x80
}

#[inline]
fn is_name_char(b: u8) -> bool {
    is_name_start(b) || b.is_ascii_digit() || b == b'-' || b == b'.'
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeKind;

    #[test]
    fn parse_minimal() {
        let d = parse("<a/>").unwrap();
        let root = d.root_element().unwrap();
        assert_eq!(d.name_str(root), Some("a"));
        d.check_invariants();
    }

    #[test]
    fn parse_nested_with_text() {
        let d = parse("<movie><name>All About Eve</name></movie>").unwrap();
        let root = d.root_element().unwrap();
        let name = d.child_named(root, "name").unwrap();
        assert_eq!(d.string_value(name), "All About Eve");
    }

    #[test]
    fn parse_attributes_both_quotes() {
        let d = parse(r#"<m id="m1" year='1950'/>"#).unwrap();
        let root = d.root_element().unwrap();
        assert_eq!(d.attribute(root, "id"), Some("m1"));
        assert_eq!(d.attribute(root, "year"), Some("1950"));
    }

    #[test]
    fn parse_entities_in_text_and_attrs() {
        let d = parse(r#"<m t="a&amp;b &#65;">x &lt; y &gt; z &quot;q&quot;</m>"#).unwrap();
        let root = d.root_element().unwrap();
        assert_eq!(d.attribute(root, "t"), Some("a&b A"));
        assert_eq!(d.string_value(root), r#"x < y > z "q""#);
    }

    #[test]
    fn parse_hex_char_reference() {
        let d = parse("<m>&#x41;&#x2014;</m>").unwrap();
        assert_eq!(d.string_value(d.root_element().unwrap()), "A\u{2014}");
    }

    #[test]
    fn parse_cdata() {
        let d = parse("<m><![CDATA[1 < 2 && 3 > 2]]></m>").unwrap();
        assert_eq!(d.string_value(d.root_element().unwrap()), "1 < 2 && 3 > 2");
    }

    #[test]
    fn parse_comments_and_pis() {
        let d = parse("<?xml version=\"1.0\"?><!-- top --><m><?php echo ?><!-- in --></m>")
            .unwrap();
        let root = d.root_element().unwrap();
        let kinds: Vec<NodeKind> = d.children(root).map(|c| d.kind(c)).collect();
        assert_eq!(
            kinds,
            vec![NodeKind::ProcessingInstruction, NodeKind::Comment]
        );
    }

    #[test]
    fn whitespace_only_text_dropped() {
        let d = parse("<m>\n  <a/>\n  <b/>\n</m>").unwrap();
        let root = d.root_element().unwrap();
        assert_eq!(d.children(root).count(), 2);
    }

    #[test]
    fn mixed_text_preserved() {
        let d = parse("<m>hello <b>world</b>!</m>").unwrap();
        assert_eq!(d.string_value(d.root_element().unwrap()), "hello world!");
    }

    #[test]
    fn doctype_skipped() {
        let d = parse("<!DOCTYPE m [<!ELEMENT m (#PCDATA)>]><m>x</m>").unwrap();
        assert_eq!(d.string_value(d.root_element().unwrap()), "x");
    }

    #[test]
    fn mismatched_tag_is_error() {
        let e = parse("<a><b></a></b>").unwrap_err();
        assert!(e.message.contains("mismatched"), "{e}");
    }

    #[test]
    fn unterminated_element_is_error() {
        assert!(parse("<a><b></b>").is_err());
    }

    #[test]
    fn unknown_entity_is_error() {
        let e = parse("<a>&nope;</a>").unwrap_err();
        assert!(e.message.contains("unknown entity"));
    }

    #[test]
    fn content_after_root_is_error() {
        assert!(parse("<a/><b/>").is_err());
    }

    #[test]
    fn error_line_numbers() {
        let e = parse("<a>\n\n<b></c>\n</a>").unwrap_err();
        assert_eq!(e.line, 3);
    }

    #[test]
    fn deep_nesting() {
        let mut s = String::new();
        for _ in 0..200 {
            s.push_str("<d>");
        }
        s.push('x');
        for _ in 0..200 {
            s.push_str("</d>");
        }
        let d = parse(&s).unwrap();
        assert_eq!(d.string_value(d.root_element().unwrap()), "x");
    }

    /// Past `MAX_NESTING` elements the parser returns its typed error
    /// instead of overflowing the stack.
    #[test]
    fn nesting_past_the_limit_is_an_error_not_a_stack_overflow() {
        let nest = |levels: usize| format!("{}{}", "<a>".repeat(levels), "</a>".repeat(levels));
        let e = parse(&nest(100_000)).unwrap_err();
        assert!(e.message.contains("nest deeper"), "{e}");
        assert!(parse(&nest(MAX_NESTING)).is_ok());
        assert!(parse(&nest(MAX_NESTING + 1)).is_err());
    }
}
