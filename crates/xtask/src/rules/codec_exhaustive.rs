//! `codec-exhaustive`: every control message variant has a wire encoding.
//!
//! `engine/src/messages.rs` defines the control-plane enums (`WorkerMsg`,
//! `CoordMsg`, `BspSignal`); `engine/src/wire.rs` gives each variant its
//! byte layout, and that encoder is also the only source of a message's
//! size (`wire::encoded_len`), so a variant it skips can neither cross a
//! socket nor be charged to the cost model. The encoders are written as
//! exhaustive `match`es with no wildcard, so *within one crate build* the
//! compiler enforces coverage — but nothing stops a `_ => Err(..)` wildcard
//! from creeping in during a refactor and silently refusing (and
//! zero-rating) every future variant. This cross-file check closes that
//! hole: each variant name declared in `messages.rs` must appear as
//! `Enum::Variant` somewhere in `wire.rs`.

use super::Rule;
use crate::scan::{SourceFile, Violation};

/// The enums whose variants must be encoded, and the file that must encode
/// them.
const MESSAGES: &str = "crates/engine/src/messages.rs";
const CODEC: &str = "crates/engine/src/wire.rs";
const ENUMS: &[&str] = &["WorkerMsg", "CoordMsg", "BspSignal"];

pub struct CodecExhaustive;

impl Rule for CodecExhaustive {
    fn name(&self) -> &'static str {
        "codec-exhaustive"
    }

    fn describe(&self) -> &'static str {
        "every WorkerMsg/CoordMsg/BspSignal variant has a matching arm in engine/src/wire.rs"
    }

    fn check(&self, files: &[SourceFile]) -> Vec<Violation> {
        let Some(messages) = files.iter().find(|f| f.rel == MESSAGES) else {
            // Scanning a partial tree (e.g. a rule fixture): nothing to do.
            return Vec::new();
        };
        let Some(codec) = files.iter().find(|f| f.rel == CODEC) else {
            return vec![Violation {
                rule: self.name(),
                file: MESSAGES.to_string(),
                line: 1,
                message: format!("{CODEC} is missing — control messages have no wire encoding"),
            }];
        };

        let codec_text: String = codec
            .lines
            .iter()
            .map(|l| l.code.as_str())
            .collect::<Vec<_>>()
            .join("\n");

        let mut out = Vec::new();
        for enum_name in ENUMS {
            let variants = enum_variants(messages, enum_name);
            if variants.is_empty() {
                out.push(Violation {
                    rule: self.name(),
                    file: MESSAGES.to_string(),
                    line: 1,
                    message: format!(
                        "could not find `enum {enum_name}` in {MESSAGES} — \
                         update the codec-exhaustive rule if it moved"
                    ),
                });
                continue;
            }
            for (line, variant) in variants {
                let arm = format!("{enum_name}::{variant}");
                if !codec_text.contains(&arm) {
                    out.push(Violation {
                        rule: self.name(),
                        file: MESSAGES.to_string(),
                        line,
                        message: format!(
                            "`{arm}` has no arm in {CODEC} — add it to the \
                             encoder so it can cross a wire and be charged for it"
                        ),
                    });
                }
            }
        }
        out
    }
}

/// Extract `(line, variant_name)` pairs from `enum <name> { … }` in a
/// preprocessed file. Variants are the depth-1 identifiers that open the
/// line inside the enum's braces; derive attributes, doc comments, and
/// field lines (deeper brace depth) never match because comments are
/// stripped and depth is tracked.
fn enum_variants(file: &SourceFile, enum_name: &str) -> Vec<(usize, String)> {
    let header = format!("enum {enum_name} ");
    let header_brace = format!("enum {enum_name} {{");
    let mut out = Vec::new();
    let mut depth_in_enum: Option<u32> = None;

    for line in &file.lines {
        let code = line.code.trim();
        match depth_in_enum {
            None => {
                if code.contains(&header_brace) || code.contains(&header) && code.ends_with('{') {
                    depth_in_enum = Some(1);
                }
            }
            Some(ref mut depth) => {
                if *depth == 1 {
                    // A variant line starts with an uppercase identifier
                    // followed by `,`, `(`, `{`, or ` `.
                    let ident: String = code
                        .chars()
                        .take_while(|c| c.is_alphanumeric() || *c == '_')
                        .collect();
                    if !ident.is_empty()
                        && ident.chars().next().is_some_and(|c| c.is_ascii_uppercase())
                    {
                        let after = code[ident.len()..].chars().next();
                        if matches!(after, None | Some(',') | Some('(') | Some('{') | Some(' ')) {
                            out.push((line.number, ident));
                        }
                    }
                }
                for c in code.chars() {
                    match c {
                        '{' => *depth += 1,
                        '}' => {
                            *depth -= 1;
                            if *depth == 0 {
                                return out;
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::parse_source;

    const FIXTURE_MESSAGES: &str = "\
/// Doc comment.
#[derive(Debug)]
pub enum WorkerMsg {
    /// A data batch.
    Batch(Vec<Traverser>),
    QueryBegin { ctx: Arc<QueryCtx>, stage: u16 },
    Shutdown,
}

pub enum CoordMsg {
    Progress { query: QueryId, weight: Weight },
    Tick,
}

pub enum BspSignal {
    RunStep { query: QueryId, depth: u32 },
}
";

    fn files(codec_src: &str) -> Vec<SourceFile> {
        vec![
            parse_source("crates/engine/src/messages.rs", FIXTURE_MESSAGES),
            parse_source("crates/engine/src/wire.rs", codec_src),
        ]
    }

    #[test]
    fn variant_extraction_skips_docs_attrs_and_fields() {
        let f = parse_source("crates/engine/src/messages.rs", FIXTURE_MESSAGES);
        let v: Vec<String> = enum_variants(&f, "WorkerMsg")
            .into_iter()
            .map(|(_, n)| n)
            .collect();
        assert_eq!(v, ["Batch", "QueryBegin", "Shutdown"]);
        let c: Vec<String> = enum_variants(&f, "CoordMsg")
            .into_iter()
            .map(|(_, n)| n)
            .collect();
        assert_eq!(c, ["Progress", "Tick"]);
    }

    #[test]
    fn complete_codec_passes() {
        let codec = "\
fn size(m: &WorkerMsg) -> usize {
    match m {
        WorkerMsg::Batch(b) => b.len(),
        WorkerMsg::QueryBegin { .. } => 16,
        WorkerMsg::Shutdown => 4,
    }
}
fn csize(m: &CoordMsg) -> usize {
    match m { CoordMsg::Progress { .. } => 32, CoordMsg::Tick => 4 }
}
fn bsize(s: &BspSignal) -> usize {
    match s { BspSignal::RunStep { .. } => 16 }
}
";
        assert!(CodecExhaustive.check(&files(codec)).is_empty());
    }

    #[test]
    fn missing_variant_is_reported_at_its_declaration() {
        // Codec forgot QueryBegin and the whole BspSignal enum.
        let codec = "\
fn size(m: &WorkerMsg) -> usize {
    match m { WorkerMsg::Batch(b) => b.len(), WorkerMsg::Shutdown => 4, _ => 0 }
}
fn csize(m: &CoordMsg) -> usize {
    match m { CoordMsg::Progress { .. } => 32, CoordMsg::Tick => 4 }
}
";
        let v = CodecExhaustive.check(&files(codec));
        assert_eq!(v.len(), 2, "{v:#?}");
        assert!(v[0].message.contains("WorkerMsg::QueryBegin"));
        assert_eq!(v[0].file, "crates/engine/src/messages.rs");
        assert_eq!(v[0].line, 6, "points at the variant declaration");
        assert!(v[1].message.contains("BspSignal::RunStep"));
    }

    #[test]
    fn partial_trees_without_messages_are_skipped() {
        let only = vec![parse_source("crates/engine/src/wire.rs", "fn x() {}")];
        assert!(CodecExhaustive.check(&only).is_empty());
    }
}
