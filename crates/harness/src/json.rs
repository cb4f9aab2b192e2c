//! A minimal, dependency-free JSON writer with fully deterministic output.
//!
//! Sweep reports must be **byte-identical** across runner thread counts and
//! across runs (the determinism contract of the harness), so this writer
//! offers no HashMap-backed objects, no locale formatting, and exactly one
//! rendering per value:
//!
//! * object keys appear in the order they are written (callers write
//!   them deterministically);
//! * floats render via Rust's shortest-roundtrip formatting, with the
//!   non-finite values JSON lacks mapped to `null`;
//! * strings are escaped per RFC 8259.
//!
//! `JsonWriter` is the one formatter. A [`Json`] tree renders through
//! it, and a large document (a sweep report) streams into it directly,
//! without building a tree first.

use std::fmt::Write as _;

/// A JSON value assembled by hand.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Unsigned integer (counters, counts).
    U64(u64),
    /// Float; non-finite renders as `null`.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Shorthand for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Starts an empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` to an object (panics on non-objects — a
    /// programming error, not a data error).
    pub fn push(&mut self, key: &str, value: Json) -> &mut Json {
        match self {
            Json::Obj(fields) => fields.push((key.to_string(), value)),
            other => panic!("push on non-object {other:?}"),
        }
        self
    }

    /// Builder-style [`Json::push`].
    pub fn with(mut self, key: &str, value: Json) -> Json {
        self.push(key, value);
        self
    }

    /// Renders compact JSON (no whitespace).
    pub fn render(&self) -> String {
        let mut w = JsonWriter::compact();
        self.write(&mut w);
        w.finish()
    }

    /// Renders with two-space indentation and a final newline.
    pub fn render_pretty(&self) -> String {
        let mut w = JsonWriter::pretty();
        self.write(&mut w);
        w.finish()
    }

    /// Writes this value as the writer's next value.
    fn write(&self, w: &mut JsonWriter) {
        match self {
            Json::Null => w.null(),
            Json::Bool(b) => w.bool(*b),
            Json::U64(n) => w.u64(*n),
            Json::F64(x) => w.f64(*x),
            Json::Str(s) => w.str(s),
            Json::Arr(items) => {
                w.begin_arr();
                for item in items {
                    item.write(w);
                }
                w.end_arr()
            }
            Json::Obj(fields) => {
                w.begin_obj();
                for (k, v) in fields {
                    w.key(k);
                    v.write(w);
                }
                w.end_obj()
            }
        };
    }
}

/// Streams one JSON document into a string, compact or pretty.
///
/// Values, keys and container brackets are written in document order;
/// the writer places the commas, and in pretty mode the newlines and the
/// two-space indentation. Inside an object every value follows a
/// [`JsonWriter::key`]. Each call returns the writer, so a field reads
/// `w.key("runs").u64(3)`.
#[derive(Debug)]
pub(crate) struct JsonWriter {
    out: String,
    pretty: bool,
    /// Open containers.
    depth: usize,
    /// Nothing written yet in the innermost open container.
    first: bool,
    /// A key was written and its value is next.
    after_key: bool,
}

impl JsonWriter {
    /// A writer of compact JSON (no whitespace).
    pub fn compact() -> Self {
        Self::new(false)
    }

    /// A writer of two-space-indented JSON.
    pub fn pretty() -> Self {
        Self::new(true)
    }

    fn new(pretty: bool) -> Self {
        JsonWriter {
            out: String::new(),
            pretty,
            depth: 0,
            first: true,
            after_key: false,
        }
    }

    /// The finished document; a pretty one ends with a newline.
    pub fn finish(mut self) -> String {
        debug_assert_eq!(self.depth, 0, "unclosed JSON container");
        if self.pretty {
            self.out.push('\n');
        }
        self.out
    }

    /// Starts one item of the innermost container: the comma after its
    /// previous item and, when pretty, a new indented line.
    fn item(&mut self) {
        if self.depth == 0 {
            return;
        }
        if !std::mem::replace(&mut self.first, false) {
            self.out.push(',');
        }
        if self.pretty {
            self.newline();
        }
    }

    /// Starts a value: right after its key, or as an item of its own.
    fn value(&mut self) -> &mut String {
        if !std::mem::take(&mut self.after_key) {
            self.item();
        }
        &mut self.out
    }

    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
    }

    fn open(&mut self, bracket: char) -> &mut Self {
        self.value().push(bracket);
        self.depth += 1;
        self.first = true;
        self
    }

    fn close(&mut self, bracket: char) -> &mut Self {
        debug_assert!(self.depth > 0 && !self.after_key, "misplaced {bracket}");
        self.depth -= 1;
        if self.pretty && !self.first {
            self.newline();
        }
        self.first = false;
        self.out.push(bracket);
        self
    }

    /// Opens an object.
    pub fn begin_obj(&mut self) -> &mut Self {
        self.open('{')
    }

    /// Closes the innermost object.
    pub fn end_obj(&mut self) -> &mut Self {
        self.close('}')
    }

    /// Opens an array.
    pub fn begin_arr(&mut self) -> &mut Self {
        self.open('[')
    }

    /// Closes the innermost array.
    pub fn end_arr(&mut self) -> &mut Self {
        self.close(']')
    }

    /// Writes an object key; its value is the next thing written.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.item();
        write_escaped(&mut self.out, key);
        self.out.push(':');
        if self.pretty {
            self.out.push(' ');
        }
        self.after_key = true;
        self
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.value().push_str("null");
        self
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.value().push_str(if b { "true" } else { "false" });
        self
    }

    /// Writes an unsigned integer.
    pub fn u64(&mut self, n: u64) -> &mut Self {
        let _ = write!(self.value(), "{n}");
        self
    }

    /// Writes a float: shortest roundtrip form, with `.0` forced on
    /// integral values so the type is stable for consumers, and `null`
    /// for the non-finite values JSON lacks.
    pub fn f64(&mut self, x: f64) -> &mut Self {
        let out = self.value();
        if !x.is_finite() {
            out.push_str("null");
        } else if x.fract() == 0.0 && x.abs() < 1e15 {
            let _ = write!(out, "{x:.1}");
        } else {
            let _ = write!(out, "{x}");
        }
        self
    }

    /// Writes an escaped string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        write_escaped(self.value(), s);
        self
    }

    /// Writes an object of string values, in the order given.
    pub fn str_pairs(&mut self, pairs: &[(String, String)]) -> &mut Self {
        self.begin_obj();
        for (k, v) in pairs {
            self.key(k).str(v);
        }
        self.end_obj()
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::U64(42).render(), "42");
        assert_eq!(Json::F64(1.5).render(), "1.5");
        assert_eq!(Json::F64(3.0).render(), "3.0");
        assert_eq!(Json::F64(f64::NAN).render(), "null");
        assert_eq!(Json::F64(f64::INFINITY).render(), "null");
        assert_eq!(Json::str("a\"b\\c\nd").render(), r#""a\"b\\c\nd""#);
        assert_eq!(Json::str("\u{1}").render(), "\"\\u0001\"");
    }

    #[test]
    fn nested_compact_and_pretty() {
        let v = Json::obj()
            .with("name", Json::str("sweep"))
            .with("xs", Json::Arr(vec![Json::U64(1), Json::U64(2)]))
            .with("empty", Json::Arr(vec![]));
        assert_eq!(v.render(), r#"{"name":"sweep","xs":[1,2],"empty":[]}"#);
        let pretty = v.render_pretty();
        assert!(pretty.contains("\"name\": \"sweep\""));
        assert!(pretty.ends_with("}\n"));
        assert!(pretty.contains("\"empty\": []"));
    }

    #[test]
    fn key_order_is_insertion_order() {
        let v = Json::obj().with("z", Json::U64(1)).with("a", Json::U64(2));
        assert_eq!(v.render(), r#"{"z":1,"a":2}"#);
    }

    /// Empty and nested-empty containers, every float rule, every escape,
    /// and keys out of alphabetical order.
    fn edge_doc() -> Json {
        Json::obj()
            .with("z", Json::Arr(vec![]))
            .with("a", Json::obj())
            .with(
                "nested",
                Json::Arr(vec![
                    Json::Arr(vec![]),
                    Json::obj().with("in", Json::Arr(vec![Json::obj()])),
                ]),
            )
            .with(
                "floats",
                Json::Arr(vec![
                    Json::F64(3.0),
                    Json::F64(-0.25),
                    Json::F64(f64::NAN),
                    Json::F64(f64::NEG_INFINITY),
                    Json::F64(1e15),
                ]),
            )
            .with(
                "esc\"key",
                Json::str("tab\t cr\r bs\\ nl\n ctl\u{1f} \u{e9}"),
            )
            .with(
                "rest",
                Json::Arr(vec![Json::Null, Json::Bool(false), Json::U64(u64::MAX)]),
            )
    }

    const EDGE_COMPACT: &str = concat!(
        r#"{"z":[],"a":{},"nested":[[],{"in":[{}]}],"#,
        r#""floats":[3.0,-0.25,null,null,1000000000000000],"#,
        r#""esc\"key":"tab\t cr\r bs\\ nl\n ctl\u001f é","#,
        r#""rest":[null,false,18446744073709551615]}"#,
    );

    const EDGE_PRETTY: &str = r#"{
  "z": [],
  "a": {},
  "nested": [
    [],
    {
      "in": [
        {}
      ]
    }
  ],
  "floats": [
    3.0,
    -0.25,
    null,
    null,
    1000000000000000
  ],
  "esc\"key": "tab\t cr\r bs\\ nl\n ctl\u001f é",
  "rest": [
    null,
    false,
    18446744073709551615
  ]
}
"#;

    #[test]
    fn writer_edge_cases_render_compact() {
        assert_eq!(edge_doc().render(), EDGE_COMPACT);
        assert_eq!(Json::obj().render(), "{}");
        assert_eq!(Json::Arr(vec![]).render(), "[]");
    }

    #[test]
    fn writer_edge_cases_render_pretty() {
        assert_eq!(edge_doc().render_pretty(), EDGE_PRETTY);
        assert_eq!(Json::obj().render_pretty(), "{}\n");
        assert_eq!(
            Json::Arr(vec![Json::Arr(vec![])]).render_pretty(),
            "[\n  []\n]\n"
        );
        assert_eq!(Json::U64(7).render_pretty(), "7\n");
    }

    #[test]
    fn a_streamed_document_renders_as_its_tree() {
        let stream = |mut w: JsonWriter| {
            w.begin_obj();
            w.key("z").begin_arr().end_arr();
            w.key("a").str_pairs(&[]);
            w.key("nested").begin_arr();
            w.begin_arr().end_arr();
            w.begin_obj().key("in").begin_arr();
            w.begin_obj().end_obj();
            w.end_arr().end_obj();
            w.end_arr();
            w.key("floats").begin_arr();
            for x in [3.0, -0.25, f64::NAN, f64::NEG_INFINITY, 1e15] {
                w.f64(x);
            }
            w.end_arr();
            w.key("esc\"key")
                .str("tab\t cr\r bs\\ nl\n ctl\u{1f} \u{e9}");
            w.key("rest").begin_arr().null().bool(false).u64(u64::MAX);
            w.end_arr().end_obj();
            w.finish()
        };
        assert_eq!(stream(JsonWriter::compact()), EDGE_COMPACT);
        assert_eq!(stream(JsonWriter::pretty()), EDGE_PRETTY);
        let mut w = JsonWriter::compact();
        w.str_pairs(&[("b".into(), "1".into()), ("a".into(), "2".into())]);
        assert_eq!(w.finish(), r#"{"b":"1","a":"2"}"#);
    }
}
