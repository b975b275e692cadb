//! Graph persistence: a line-oriented journal that captures every version
//! of every entity, losslessly, for save/load across process restarts.
//!
//! Format (one record per line, values in the canonical
//! [`nepal_schema::codec`] encoding):
//!
//! ```text
//! NEPALJ1
//! N <uid> <class-path> <n-versions>
//! E <uid> <class-path> <src> <dst> <n-versions>
//! V <from> <to> <n-fields> <value> <value> …
//! ```
//!
//! Entities are written in uid order (uids are dense store indexes), so
//! loading reconstructs an identical store: same uids, same versions, same
//! indexes. The schema itself is not persisted — callers keep it in the
//! schema DSL — and the loader verifies every class path against the
//! provided schema.

use std::io::{BufRead, Write};
use std::sync::Arc;

use nepal_schema::codec::{decode_value, value_to_text};
use nepal_schema::{ClassKind, Schema, Value};

use crate::error::{GraphError, Result};
use crate::interval::FOREVER;
use crate::store::{TemporalGraph, Uid};

const MAGIC: &str = "NEPALJ1";

fn io_err(e: std::io::Error) -> GraphError {
    GraphError::BadClass(format!("journal io error: {e}"))
}

fn format_err(line: usize, msg: &str) -> GraphError {
    GraphError::BadClass(format!("journal format error at line {line}: {msg}"))
}

/// Number of lines [`save_graph`] would emit for `g` — one header, one per
/// entity, one per version. A cheap persistence-size gauge.
pub fn journal_lines(g: &TemporalGraph) -> u64 {
    1 + g.num_entities() as u64 + g.num_versions()
}

/// Exact size in bytes of the journal [`save_graph`] would produce, via a
/// counting-writer pass over the full serialization (no allocation beyond
/// per-line formatting).
pub fn journal_bytes(g: &TemporalGraph) -> u64 {
    struct CountWriter(u64);
    impl Write for CountWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0 += buf.len() as u64;
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let mut w = CountWriter(0);
    save_graph(g, &mut w).expect("counting writer cannot fail");
    w.0
}

/// Write the complete graph to `w`.
pub fn save_graph<W: Write>(g: &TemporalGraph, w: &mut W) -> Result<()> {
    let schema = g.schema();
    writeln!(w, "{MAGIC}").map_err(io_err)?;
    for raw in 0..g.num_entities() as u64 {
        let uid = Uid(raw);
        let class = g.class_of(uid).expect("dense uids");
        let path = schema.path_name(class);
        let versions = g.versions(uid);
        if g.is_node(uid) {
            writeln!(w, "N {raw} {path} {}", versions.len()).map_err(io_err)?;
        } else {
            let e = g.edge(uid)?;
            writeln!(w, "E {raw} {path} {} {} {}", e.src.0, e.dst.0, versions.len()).map_err(io_err)?;
        }
        for (i, v) in versions.iter().enumerate() {
            // Journal lines always carry full values; delta-encoded
            // history versions are materialized on the way out (the
            // loader re-encodes them canonically, so accounting
            // round-trips byte-exactly).
            let fields = crate::store::materialize_version(versions, i);
            write!(w, "V {} {} {}", v.span.from, v.span.to, fields.len()).map_err(io_err)?;
            for f in fields.iter() {
                write!(w, " {}", value_to_text(f)).map_err(io_err)?;
            }
            writeln!(w).map_err(io_err)?;
        }
    }
    Ok(())
}

/// A torn (partially written) journal tail dropped by lenient recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// 1-based line where the tear was detected.
    pub line: usize,
    /// Why that line failed to parse.
    pub reason: String,
    /// Lines dropped (the torn line plus any incomplete entity block it
    /// belongs to).
    pub dropped_lines: usize,
    /// Byte length of the intact journal prefix — truncate the file to
    /// this length to repair it in place.
    pub keep_bytes: u64,
}

/// Load a graph saved by [`save_graph`], validating against `schema`.
pub fn load_graph<R: BufRead>(schema: Arc<Schema>, r: &mut R) -> Result<TemporalGraph> {
    load_graph_inner(schema, r, false).map(|(g, _)| g)
}

/// [`load_graph`] tolerating a torn tail: a crash mid-append leaves a
/// partial final record, which strict loading rejects wholesale. Lenient
/// loading recovers every complete entity before the tear and reports the
/// dropped tail (so the caller can warn and truncate). Corruption that is
/// *followed* by valid records is still a hard error — only a trailing
/// tear is recoverable.
pub fn load_graph_lenient<R: BufRead>(schema: Arc<Schema>, r: &mut R) -> Result<(TemporalGraph, Option<TornTail>)> {
    let (g, torn) = load_graph_inner(schema, r, true)?;
    if let Some(t) = &torn {
        // Recovery is an operational event, not just a warning: bump the
        // process counter behind `nepal_journal_torn_tail_total` and leave
        // a wide event in the flight recorder.
        nepal_obs::flight::note_journal_torn_tail(t.line as u64, t.dropped_lines as u64);
    }
    Ok((g, torn))
}

fn load_graph_inner<R: BufRead>(
    schema: Arc<Schema>,
    r: &mut R,
    lenient: bool,
) -> Result<(TemporalGraph, Option<TornTail>)> {
    let all: Vec<String> = r.lines().collect::<std::io::Result<_>>().map_err(io_err)?;
    if all.is_empty() {
        return Err(format_err(1, "empty journal"));
    }
    if all[0].trim() != MAGIC {
        return Err(format_err(1, "bad magic"));
    }
    // Byte offset of each line start (journal lines are `\n`-terminated).
    let offset_of = |idx: usize| -> u64 { all[..idx].iter().map(|l| l.len() as u64 + 1).sum() };
    let mut g = TemporalGraph::new(schema.clone());
    let mut pending: Option<(bool, u64, nepal_schema::ClassId, u64, u64, usize)> = None;
    // Line index of the pending entity's header — the start of the block
    // a torn version line belongs to.
    let mut pending_start: usize = 0;
    let mut versions: Vec<(i64, i64, Vec<Value>)> = Vec::new();
    let mut torn: Option<TornTail> = None;
    let flush = |g: &mut TemporalGraph,
                 pending: &mut Option<(bool, u64, nepal_schema::ClassId, u64, u64, usize)>,
                 versions: &mut Vec<(i64, i64, Vec<Value>)>,
                 lineno: usize|
     -> Result<()> {
        if let Some((is_node, uid, class, src, dst, n)) = pending.take() {
            if versions.len() != n {
                return Err(format_err(lineno, "version count mismatch"));
            }
            g.restore_entity(Uid(uid), is_node, class, Uid(src), Uid(dst), std::mem::take(versions))?;
        }
        Ok(())
    };
    // A parse error is a recoverable tear only if nothing meaningful
    // follows it.
    let tail_is_blank = |from: usize| all[from..].iter().all(|l| l.trim().is_empty());
    let mut idx = 1;
    'parse: while idx < all.len() {
        let lineno = idx + 1;
        let line = all[idx].trim_end();
        if line.is_empty() {
            idx += 1;
            continue;
        }
        // Run one line; on a tail tear in lenient mode, drop the torn
        // entity block instead of failing.
        let step = |g: &mut TemporalGraph,
                    pending: &mut Option<(bool, u64, nepal_schema::ClassId, u64, u64, usize)>,
                    pending_start: &mut usize,
                    versions: &mut Vec<(i64, i64, Vec<Value>)>|
         -> Result<()> {
            parse_line(&schema, g, line, lineno, idx, pending, pending_start, versions, &flush)
        };
        if let Err(e) = step(&mut g, &mut pending, &mut pending_start, &mut versions) {
            if lenient && tail_is_blank(idx + 1) {
                let drop_start = if pending.is_some() { pending_start } else { idx };
                torn = Some(TornTail {
                    line: lineno,
                    reason: e.to_string(),
                    dropped_lines: all.len() - drop_start,
                    keep_bytes: offset_of(drop_start),
                });
                pending = None;
                versions.clear();
                break 'parse;
            }
            return Err(e);
        }
        idx += 1;
    }
    if torn.is_none() {
        if let Err(e) = flush(&mut g, &mut pending, &mut versions, usize::MAX) {
            // EOF mid-entity: the file ends before the declared version
            // count was reached — the canonical torn tail.
            if !lenient {
                return Err(e);
            }
            torn = Some(TornTail {
                line: all.len(),
                reason: e.to_string(),
                dropped_lines: all.len() - pending_start,
                keep_bytes: offset_of(pending_start),
            });
        }
    }
    g.rebuild_unique_index()?;
    Ok((g, torn))
}

/// Parse one journal line, updating the in-progress entity block.
#[allow(clippy::too_many_arguments)]
fn parse_line(
    schema: &Arc<Schema>,
    g: &mut TemporalGraph,
    line: &str,
    lineno: usize,
    idx: usize,
    pending: &mut Option<(bool, u64, nepal_schema::ClassId, u64, u64, usize)>,
    pending_start: &mut usize,
    versions: &mut Vec<(i64, i64, Vec<Value>)>,
    flush: &impl Fn(
        &mut TemporalGraph,
        &mut Option<(bool, u64, nepal_schema::ClassId, u64, u64, usize)>,
        &mut Vec<(i64, i64, Vec<Value>)>,
        usize,
    ) -> Result<()>,
) -> Result<()> {
    {
        let mut parts = line.split(' ');
        match parts.next() {
            Some("N") | Some("E") => {
                flush(g, pending, versions, lineno)?;
                let is_node = line.starts_with('N');
                let uid: u64 =
                    parts.next().and_then(|s| s.parse().ok()).ok_or_else(|| format_err(lineno, "bad uid"))?;
                let path = parts.next().ok_or_else(|| format_err(lineno, "missing class"))?;
                let class =
                    schema.class_by_name(path).ok_or_else(|| format_err(lineno, &format!("unknown class `{path}`")))?;
                let expected_kind = if is_node { ClassKind::Node } else { ClassKind::Edge };
                if schema.kind(class) != expected_kind {
                    return Err(format_err(lineno, "class kind mismatch"));
                }
                let (src, dst) = if is_node {
                    (0, 0)
                } else {
                    let s: u64 =
                        parts.next().and_then(|x| x.parse().ok()).ok_or_else(|| format_err(lineno, "bad src"))?;
                    let d: u64 =
                        parts.next().and_then(|x| x.parse().ok()).ok_or_else(|| format_err(lineno, "bad dst"))?;
                    (s, d)
                };
                let n: usize =
                    parts.next().and_then(|x| x.parse().ok()).ok_or_else(|| format_err(lineno, "bad version count"))?;
                *pending = Some((is_node, uid, class, src, dst, n));
                *pending_start = idx;
            }
            Some("V") => {
                let from: i64 =
                    parts.next().and_then(|x| x.parse().ok()).ok_or_else(|| format_err(lineno, "bad from"))?;
                let to: i64 = parts.next().and_then(|x| x.parse().ok()).ok_or_else(|| format_err(lineno, "bad to"))?;
                let n: usize =
                    parts.next().and_then(|x| x.parse().ok()).ok_or_else(|| format_err(lineno, "bad field count"))?;
                // The rest of the line holds the encoded values, after the
                // fourth space-separated token (`V from to n`).
                let mut rest = if n == 0 {
                    ""
                } else {
                    let rest_start = line
                        .match_indices(' ')
                        .nth(2)
                        .map(|(i, _)| i + 1)
                        .ok_or_else(|| format_err(lineno, "missing fields"))?;
                    // Skip the field-count token itself.
                    let tail = &line[rest_start..];
                    match tail.find(' ') {
                        Some(sp) => &tail[sp + 1..],
                        None => return Err(format_err(lineno, "missing field values")),
                    }
                };
                let mut fields = Vec::with_capacity(n);
                for _ in 0..n {
                    rest = rest.trim_start();
                    let (v, used) = decode_value(rest).map_err(|e| format_err(lineno, &format!("bad value: {e}")))?;
                    fields.push(v);
                    rest = &rest[used..];
                }
                if !rest.trim().is_empty() {
                    return Err(format_err(lineno, "trailing value data"));
                }
                versions.push((from, to, fields));
            }
            other => return Err(format_err(lineno, &format!("unknown record {other:?}"))),
        }
    }
    Ok(())
}

/// Save to a file path.
pub fn save_to_file(g: &TemporalGraph, path: &std::path::Path) -> Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path).map_err(io_err)?);
    save_graph(g, &mut f)?;
    f.flush().map_err(io_err)
}

/// Load from a file path.
pub fn load_from_file(schema: Arc<Schema>, path: &std::path::Path) -> Result<TemporalGraph> {
    let mut f = std::io::BufReader::new(std::fs::File::open(path).map_err(io_err)?);
    load_graph(schema, &mut f)
}

/// Load from a file path, repairing a torn tail in place: every complete
/// entity before the tear is recovered, a warning is printed to stderr,
/// and the file is truncated back to its intact prefix so the next append
/// starts from a clean boundary. Returns the recovered graph and the tear
/// description (if any).
pub fn load_from_file_lenient(
    schema: Arc<Schema>,
    path: &std::path::Path,
) -> Result<(TemporalGraph, Option<TornTail>)> {
    let mut f = std::io::BufReader::new(std::fs::File::open(path).map_err(io_err)?);
    let (g, torn) = load_graph_lenient(schema, &mut f)?;
    drop(f);
    if let Some(t) = &torn {
        eprintln!(
            "warning: journal `{}` has a torn tail at line {} ({}); dropping {} line(s), truncating to {} bytes",
            path.display(),
            t.line,
            t.reason,
            t.dropped_lines,
            t.keep_bytes
        );
        let file = std::fs::OpenOptions::new().write(true).open(path).map_err(io_err)?;
        file.set_len(t.keep_bytes).map_err(io_err)?;
    }
    Ok((g, torn))
}

const _: () = {
    // FOREVER is serialized as its literal i64 value; assert it's stable.
    assert!(FOREVER == i64::MAX);
};

#[cfg(test)]
mod tests {
    use super::*;
    use nepal_schema::dsl::parse_schema;

    fn fixture() -> TemporalGraph {
        let s = Arc::new(
            parse_schema(
                r#"
                data geo { region: str }
                node VM { vm_id: int unique, status: str, loc: geo optional }
                node Host { host_id: int unique }
                edge HostedOn { }
                "#,
            )
            .unwrap(),
        );
        let mut g = TemporalGraph::new(s.clone());
        let vm = s.class_by_name("VM").unwrap();
        let host = s.class_by_name("Host").unwrap();
        let ho = s.class_by_name("HostedOn").unwrap();
        let v1 = g
            .insert_node(
                vm,
                vec![Value::Int(1), Value::Str("Green".into()), Value::Composite(vec![Value::Str("east".into())])],
                100,
            )
            .unwrap();
        let h1 = g.insert_node(host, vec![Value::Int(7)], 100).unwrap();
        let e = g.insert_edge(ho, v1, h1, vec![], 110).unwrap();
        g.update(v1, &[(1, Value::Str("Red".into()))], 200).unwrap();
        g.delete(e, 300).unwrap();
        let v2 = g.insert_node(vm, vec![Value::Int(2), Value::Str("Green".into()), Value::Null], 150).unwrap();
        g.delete(v2, 400).unwrap();
        g
    }

    #[test]
    fn save_load_round_trip_is_exact() {
        let g = fixture();
        let mut buf = Vec::new();
        save_graph(&g, &mut buf).unwrap();
        let mut cursor = std::io::Cursor::new(&buf);
        let g2 = load_graph(g.schema().clone(), &mut cursor).unwrap();

        assert_eq!(g.num_entities(), g2.num_entities());
        assert_eq!(g.num_versions(), g2.num_versions());
        // The restored element and `since` columns are the original's and
        // their definitions.
        assert_eq!(g2.elem_column(), g.elem_column());
        assert_eq!(g2.since_column(), g.since_column());
        assert_eq!((g2.elem_column().to_vec(), g2.since_column().to_vec()), g2.elem_column_recount());
        for raw in 0..g.num_entities() as u64 {
            let uid = Uid(raw);
            assert_eq!(g.class_of(uid), g2.class_of(uid));
            assert_eq!(g.is_node(uid), g2.is_node(uid));
            let (va, vb) = (g.versions(uid), g2.versions(uid));
            assert_eq!(va.len(), vb.len(), "uid {raw}");
            for (i, (a, b)) in va.iter().zip(vb).enumerate() {
                assert_eq!(a.span, b.span);
                assert_eq!(g.fields_of(uid, i), g2.fields_of(uid, i));
            }
            if !g.is_node(uid) {
                assert_eq!(g.edge(uid).unwrap().src, g2.edge(uid).unwrap().src);
                assert_eq!(g.edge(uid).unwrap().dst, g2.edge(uid).unwrap().dst);
            } else {
                assert_eq!(g.out_adj(uid), g2.out_adj(uid));
                assert_eq!(g.in_adj(uid), g2.in_adj(uid));
            }
        }
        // Unique index works after restore: inserting a duplicate vm_id of
        // a still-alive entity fails, of a dead one succeeds.
        let mut g2 = g2;
        let vm = g.schema().class_by_name("VM").unwrap();
        assert!(g2.insert_node(vm, vec![Value::Int(1), Value::Str("x".into()), Value::Null], 500).is_err());
        assert!(g2.insert_node(vm, vec![Value::Int(2), Value::Str("x".into()), Value::Null], 500).is_ok());
    }

    #[test]
    fn queries_agree_after_reload() {
        use crate::view::{GraphView, TimeFilter};
        let g = fixture();
        let mut buf = Vec::new();
        save_graph(&g, &mut buf).unwrap();
        let g2 = load_graph(g.schema().clone(), &mut std::io::Cursor::new(&buf)).unwrap();
        for t in [50i64, 120, 250, 350, 500] {
            for raw in 0..g.num_entities() as u64 {
                let uid = Uid(raw);
                let a = GraphView::new(&g, TimeFilter::AsOf(t)).alive(uid);
                let b = GraphView::new(&g2, TimeFilter::AsOf(t)).alive(uid);
                assert_eq!(a, b, "uid {raw} at {t}");
            }
        }
    }

    #[test]
    fn malformed_journals_rejected() {
        let s = fixture().schema().clone();
        let try_load = |text: &str| load_graph(s.clone(), &mut std::io::Cursor::new(text.as_bytes().to_vec()));
        assert!(try_load("").is_err());
        assert!(try_load("WRONGMAGIC\n").is_err());
        assert!(try_load("NEPALJ1\nX 0 VM 1\n").is_err());
        assert!(try_load("NEPALJ1\nN 0 NoSuchClass 0\n").is_err());
        assert!(try_load("NEPALJ1\nN 0 Node:VM 2\nV 0 100 0\n").is_err()); // count mismatch
        assert!(try_load("NEPALJ1\nN 0 Node:VM 1\nV 0 100 1 zz\n").is_err()); // bad value
    }

    #[test]
    fn lenient_load_recovers_before_a_torn_tail() {
        let g = fixture();
        let mut buf = Vec::new();
        save_graph(&g, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // Tear the journal mid-final-line, as a crash during append would.
        // (Cutting just the trailing newline is still a valid journal, so
        // every cut here slices into the final line's content.)
        for cut in [2usize, 5, 12] {
            let torn_text = &text[..text.len() - cut];
            let mut cursor = std::io::Cursor::new(torn_text.as_bytes().to_vec());
            // Strict load rejects it…
            assert!(load_graph(g.schema().clone(), &mut std::io::Cursor::new(torn_text.as_bytes().to_vec())).is_err());
            // …lenient load recovers the intact prefix and reports the tear.
            let (g2, torn) = load_graph_lenient(g.schema().clone(), &mut cursor).unwrap();
            let torn = torn.expect("tear must be reported");
            assert!(torn.dropped_lines >= 1);
            assert!(g2.num_entities() < g.num_entities(), "the torn entity must be dropped");
            assert_eq!(g2.elem_column(), &g.elem_column()[..g2.num_entities()]);
            assert_eq!(g2.since_column(), &g.since_column()[..g2.num_entities()]);
            assert_eq!((g2.elem_column().to_vec(), g2.since_column().to_vec()), g2.elem_column_recount());
            // Everything recovered matches the original exactly.
            for raw in 0..g2.num_entities() as u64 {
                let uid = Uid(raw);
                assert_eq!(g.class_of(uid), g2.class_of(uid));
                assert_eq!(g.versions(uid).len(), g2.versions(uid).len());
            }
            // keep_bytes points at an intact prefix: reloading it strictly works.
            let intact = &text.as_bytes()[..torn.keep_bytes as usize];
            load_graph(g.schema().clone(), &mut std::io::Cursor::new(intact.to_vec())).unwrap();
        }
    }

    #[test]
    fn lenient_load_still_rejects_mid_file_corruption() {
        let s = fixture().schema().clone();
        // Garbage followed by a valid record is NOT a torn tail.
        let text = "NEPALJ1\nX garbage here\nN 0 Node:Host 1\nV 100 200 1 i7\n";
        assert!(load_graph_lenient(s.clone(), &mut std::io::Cursor::new(text.as_bytes().to_vec())).is_err());
        // An intact journal reports no tear.
        let g = fixture();
        let mut buf = Vec::new();
        save_graph(&g, &mut buf).unwrap();
        let (_, torn) = load_graph_lenient(g.schema().clone(), &mut std::io::Cursor::new(buf)).unwrap();
        assert!(torn.is_none());
    }

    #[test]
    fn lenient_file_load_truncates_and_appends_cleanly() {
        let g = fixture();
        let dir = std::env::temp_dir().join(format!("nepal-journal-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.nj");
        save_to_file(&g, &path).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 7]).unwrap(); // torn tail
        let (g2, torn) = load_from_file_lenient(g.schema().clone(), &path).unwrap();
        let torn = torn.expect("tear must be reported");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), torn.keep_bytes, "file must be truncated in place");
        // The repaired file now loads strictly and matches the recovery.
        let g3 = load_from_file(g.schema().clone(), &path).unwrap();
        assert_eq!(g2.num_entities(), g3.num_entities());
        assert_eq!(g2.num_versions(), g3.num_versions());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_round_trip() {
        let g = fixture();
        let dir = std::env::temp_dir().join(format!("nepal-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("graph.nj");
        save_to_file(&g, &path).unwrap();
        let g2 = load_from_file(g.schema().clone(), &path).unwrap();
        assert_eq!(g.num_versions(), g2.num_versions());
        std::fs::remove_dir_all(&dir).ok();
    }
}
