//! Plain-text serialization of hypergraphs, and the write-ahead-log format
//! behind the serving layer's durable resident graphs.
//!
//! # Graph text format
//!
//! The format is line-oriented and human-editable:
//!
//! ```text
//! # optional comment lines
//! n m
//! v1 v2 v3        <- one edge per line, whitespace-separated vertex ids
//! …
//! ```
//!
//! The header records the vertex count `n` and the edge count `m`; the edge
//! count is validated on read. Writing always emits edges sorted as stored.
//!
//! # WAL format
//!
//! [`write_wal`] / [`read_wal`] persist a `(base snapshot, edit log)` pair —
//! exactly the state an epoch-versioned registry needs to reproduce every
//! epoch of a mutable resident graph. The file is line-oriented ASCII:
//!
//! ```text
//! HGWAL 1 base_epoch n m log_len batches checksum     <- header
//! R base payload_len checksum                          <- base snapshot frame
//! <graph text format, payload_len bytes>
//! R batch edit_count payload_len checksum              <- one frame per batch
//! <one GraphEdit line per edit, payload_len bytes>
//! …
//! ```
//!
//! One record per **edit batch** (one applied mutation = one epoch bump), so
//! the file encodes epoch boundaries, not just the flat log: replaying the
//! first `k` batch records reproduces epoch `base_epoch + k` *and* its
//! `log_len` watermark. Every frame line carries an FNV-1a checksum of its
//! payload (the header's covers the header fields themselves), so a torn
//! tail — a crash mid-append leaving a partial final record — is **detected
//! and truncated at the last whole record** ([`Wal::batches_lost`]), never
//! parsed into garbage. Corruption *before* the tail (a bad header or base
//! record, a checksummed record whose body fails validation) is a
//! [`ParseError`]: there is no prefix worth salvaging, or the file is lying
//! about its own structure.
//!
//! # Binary CSR snapshot format (`HGCSR 1`)
//!
//! [`write_csr`] / [`read_csr`] / [`open_mapped`] persist a hypergraph's
//! four flat CSR arrays verbatim, little-endian, each laid out 64-byte
//! aligned behind a fixed 64-byte checksummed header:
//!
//! ```text
//! offset  0: "HGCSR 1\n"                    (8-byte magic + version)
//! offset  8: n, m, total, dim               (four u64 LE fields)
//! offset 40: payload checksum               (FNV-1a over the u32 words)
//! offset 48: header checksum                (FNV-1a over bytes 0..48)
//! offset 56: zero padding to 64
//! offset 64: edge_offsets  (m + 1 words)    then, each 64-byte aligned:
//!            edge_vertices (total words)
//!            inc_offsets   (n + 1 words)
//!            incident      (total words)
//! ```
//!
//! Unlike the WAL, a snapshot has no recoverable prefix: **any** damage —
//! torn tail, flipped bit, impossible sizes, structurally inconsistent
//! arrays — rejects the whole file as [`ParseError::BadCsrSnapshot`]
//! (surfaced as [`ReadError::Parse`]), never a panic and never a mis-parse.
//! [`open_mapped`] runs the same total validation against a read-only
//! memory mapping ([`pram::mmap`]) and then serves the graph *zero-copy*
//! straight from the mapping: bounds and alignment are checked before any
//! slice is formed, so a hostile snapshot cannot reach an unsafe path.
//! Because the incidence index is stored (not rebuilt) and validation is a
//! handful of linear scans, opening a mapped snapshot is far cheaper than
//! re-parsing text — the cold-start win the serving layer's
//! `persist_snapshot`/`open_mapped` tier is built on.
//!
//! # Atomicity and durability
//!
//! All file writes here ([`write_file`], [`write_wal`], [`write_csr`]) are
//! write-temp-then-rename: readers and crash recovery only ever observe the
//! old file or the complete new one, never an in-place partial write (which
//! for the text format could silently re-parse as a *smaller valid graph* —
//! e.g. `3 2\n0 1\n0 2 1\n` truncated after `0 2` drops vertex 1 from the
//! second edge). The temporary is `fsync`ed before the rename and the
//! containing directory is synced (best-effort) after it, closing the
//! power-loss window where a rename is journalled but the data blocks (or
//! the directory entry itself) never reach the platter — rename atomicity
//! alone only protects against *process* crashes, not the machine going
//! down.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use crate::builder::HypergraphBuilder;
use crate::edit::GraphEdit;
use crate::graph::Hypergraph;

/// Largest vertex count [`from_str`] accepts. Building the arena allocates
/// `O(n)` incidence arrays, so the parser refuses headers that would turn a
/// few hostile bytes into a multi-gigabyte allocation; 2²⁴ vertices (≈200 MB
/// of arena) is far beyond anything the text format is used for. Construct
/// larger hypergraphs programmatically via [`HypergraphBuilder`].
pub const MAX_TEXT_VERTICES: usize = 1 << 24;

/// Errors produced when parsing the text format.
#[derive(Debug, PartialEq, Eq)]
pub enum ParseError {
    /// The header line `n m` is missing or malformed (including a vertex
    /// count beyond [`MAX_TEXT_VERTICES`]).
    BadHeader(String),
    /// A vertex id could not be parsed, overflows the id type, or is out of
    /// range.
    BadVertex {
        /// 1-based line number of the offending edge line.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// A vertex id appears twice on the same edge line.
    DuplicateVertex {
        /// 1-based line number of the offending edge line.
        line: usize,
        /// The repeated vertex id, in canonical decimal form.
        token: String,
    },
    /// The number of edge lines does not match the header.
    EdgeCountMismatch {
        /// Edge count announced in the header.
        expected: usize,
        /// Edge lines actually present.
        found: usize,
    },
    /// The WAL header line is missing, malformed, fails its checksum, or
    /// announces an unsupported format version. Nothing after a bad header
    /// is trusted — there is no recoverable prefix.
    BadWalHeader(String),
    /// A WAL record is irrecoverably corrupt: the base snapshot record is
    /// torn or invalid (record 0), a record whose checksum *passed* fails
    /// content validation (the file is internally inconsistent, not torn),
    /// or whole records disagree with the header's totals.
    CorruptWalRecord {
        /// 0 for the base snapshot record, `k ≥ 1` for batch record `k`,
        /// `batches + 1` for trailing bytes after the last announced record.
        record: usize,
        /// What failed.
        detail: String,
    },
    /// An `HGCSR` binary snapshot is corrupt: bad magic or version, a
    /// checksum mismatch, a truncated or oversized file, impossible header
    /// sizes, or CSR arrays that fail structural validation. A snapshot has
    /// no recoverable prefix (unlike a torn WAL tail), so any damage
    /// rejects the whole file.
    BadCsrSnapshot(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::BadHeader(h) => write!(f, "bad header line: {h:?}"),
            ParseError::BadVertex { line, token } => {
                write!(f, "bad vertex token {token:?} on line {line}")
            }
            ParseError::DuplicateVertex { line, token } => {
                write!(f, "vertex {token:?} repeated on line {line}")
            }
            ParseError::EdgeCountMismatch { expected, found } => {
                write!(f, "header announced {expected} edges but found {found}")
            }
            ParseError::BadWalHeader(h) => write!(f, "bad WAL header: {h}"),
            ParseError::CorruptWalRecord { record, detail } => {
                write!(f, "corrupt WAL record {record}: {detail}")
            }
            ParseError::BadCsrSnapshot(detail) => {
                write!(f, "bad HGCSR snapshot: {detail}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Errors from reading a graph or WAL file: the I/O failure and the parse
/// failure stay distinguishable (a missing file is not a corrupt file — the
/// registry restore path branches on exactly that).
///
/// The `From` impls keep the change non-breaking: `?` still converts into
/// `std::io::Error` for callers that flatten, while [`ParseError`]'s
/// structured context (line numbers, offending tokens, record indices)
/// survives for callers that match.
#[derive(Debug)]
pub enum ReadError {
    /// The file could not be read at all.
    Io(io::Error),
    /// The file was read but its contents are not a valid graph/WAL.
    Parse(ParseError),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "read failed: {e}"),
            ReadError::Parse(e) => write!(f, "parse failed: {e}"),
        }
    }
}

impl std::error::Error for ReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadError::Io(e) => Some(e),
            ReadError::Parse(e) => Some(e),
        }
    }
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

impl From<ParseError> for ReadError {
    fn from(e: ParseError) -> Self {
        ReadError::Parse(e)
    }
}

impl From<ReadError> for io::Error {
    fn from(e: ReadError) -> Self {
        match e {
            ReadError::Io(e) => e,
            ReadError::Parse(e) => io::Error::new(io::ErrorKind::InvalidData, e.to_string()),
        }
    }
}

/// Serializes a hypergraph into the text format.
pub fn to_string(h: &Hypergraph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{} {}", h.n_vertices(), h.n_edges());
    for e in h.edges() {
        let mut first = true;
        for &v in e {
            if !first {
                out.push(' ');
            }
            let _ = write!(out, "{v}");
            first = false;
        }
        out.push('\n');
    }
    out
}

/// Parses a hypergraph from the text format.
///
/// The parser is total: malformed input of any shape (overflowing counts or
/// ids, non-numeric tokens, repeated vertices, wrong edge counts) is reported
/// as a [`ParseError`], never a panic. Blank lines, lines of only whitespace
/// (including a trailing `\r` from CRLF files) and `#` comments are ignored;
/// tokens may be separated by any amount of whitespace.
pub fn from_str(s: &str) -> Result<Hypergraph, ParseError> {
    let mut lines = s
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));

    let (_, header) = lines
        .next()
        .ok_or_else(|| ParseError::BadHeader("<empty input>".into()))?;
    let bad_header = || ParseError::BadHeader(header.to_string());
    let parse_count = |t: &str| -> Option<usize> {
        // Strict digits only: no signs, no leading `+`, no stray characters.
        if t.is_empty() || !t.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        t.parse().ok()
    };
    let mut it = header.split_whitespace();
    let n: usize = it.next().and_then(parse_count).ok_or_else(bad_header)?;
    let m: usize = it.next().and_then(parse_count).ok_or_else(bad_header)?;
    if it.next().is_some() {
        return Err(bad_header());
    }
    // Vertex ids are u32, so a larger count cannot be represented (silently
    // truncating it would mis-validate every id against `n % 2^32`), and the
    // arena build allocates `O(n)` incidence arrays, so a hostile 13-byte
    // header must not be able to demand a multi-gigabyte graph either.
    if n > MAX_TEXT_VERTICES {
        return Err(bad_header());
    }

    // Validate the edge count against the actual lines *before* reserving
    // capacity, so a hostile header cannot trigger a huge or overflowing
    // allocation.
    let lines: Vec<(usize, &str)> = lines.collect();
    if lines.len() != m {
        return Err(ParseError::EdgeCountMismatch {
            expected: m,
            found: lines.len(),
        });
    }

    let mut builder = HypergraphBuilder::with_capacity(n, m);
    for (line_no, line) in lines {
        let mut edge: Vec<u32> = Vec::new();
        for token in line.split_whitespace() {
            let bad = || ParseError::BadVertex {
                line: line_no,
                token: token.to_string(),
            };
            if !token.bytes().all(|b| b.is_ascii_digit()) {
                return Err(bad());
            }
            let v: u32 = token.parse().map_err(|_| bad())?;
            if (v as usize) >= n {
                return Err(bad());
            }
            edge.push(v);
        }
        // Duplicate detection via a sorted copy — `O(k log k)`, so a single
        // hostile line cannot trigger quadratic scanning.
        let mut sorted = edge.clone();
        sorted.sort_unstable();
        if let Some(w) = sorted.windows(2).find(|w| w[0] == w[1]) {
            return Err(ParseError::DuplicateVertex {
                line: line_no,
                token: w[0].to_string(),
            });
        }
        builder.add_edge(edge);
    }
    Ok(builder.build())
}

/// Writes `contents` to `path` atomically and durably: the bytes land in a
/// fresh temporary sibling first and are `fsync`ed there, then a `rename`
/// (atomic on POSIX filesystems within one directory) publishes them, and
/// finally the containing directory is synced best-effort. A process crash
/// at any point leaves either the old file or the complete new one — never
/// a truncated prefix, which for the text format could re-parse as a
/// smaller valid graph — and the syncs extend the guarantee to power loss:
/// without them a journalled rename can land while the file's data blocks
/// (or the new directory entry) never hit stable storage.
fn write_atomic(path: &Path, contents: &[u8]) -> io::Result<()> {
    use std::io::Write as _;
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT_TMP: AtomicU64 = AtomicU64::new(0);
    let file_name = path.file_name().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("cannot write to {}: no file name", path.display()),
        )
    })?;
    // Unique per process *and* per call, so concurrent writers targeting the
    // same destination never stomp each other's temporary.
    let tmp = path.with_file_name(format!(
        ".{}.tmp.{}.{}",
        file_name.to_string_lossy(),
        std::process::id(),
        NEXT_TMP.fetch_add(1, Ordering::Relaxed)
    ));
    let staged = (|| {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(contents)?;
        // The data must be on stable storage *before* the rename publishes
        // it, or a power cut can leave the new name pointing at garbage.
        f.sync_all()
    })();
    staged.inspect_err(|_| {
        let _ = fs::remove_file(&tmp);
    })?;
    fs::rename(&tmp, path).inspect_err(|_| {
        let _ = fs::remove_file(&tmp);
    })?;
    // Best-effort directory sync so the rename itself is durable. Failure is
    // ignored: some platforms/filesystems refuse to open or sync a
    // directory, and the write is already atomic and file-synced by now.
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Writes a hypergraph to a file in the text format, atomically
/// (write-temp-then-rename — a crash mid-write can never leave a truncated
/// file behind).
pub fn write_file<P: AsRef<Path>>(h: &Hypergraph, path: P) -> io::Result<()> {
    write_atomic(path.as_ref(), to_string(h).as_bytes())
}

/// Reads a hypergraph from a file in the text format.
///
/// # Errors
/// [`ReadError::Io`] if the file cannot be read (missing, permissions, …);
/// [`ReadError::Parse`] with the parser's full structured context if it can
/// be read but is not a valid graph. Callers that want a plain
/// [`io::Error`] can still use `?` — `From<ReadError> for io::Error` keeps
/// the old flattening available without destroying the distinction here.
pub fn read_file<P: AsRef<Path>>(path: P) -> Result<Hypergraph, ReadError> {
    let s = fs::read_to_string(path)?;
    Ok(from_str(&s)?)
}

/// Magic + version of the WAL format emitted by [`write_wal`].
pub const WAL_VERSION: u32 = 1;

const WAL_MAGIC: &str = "HGWAL";

/// FNV-1a 64-bit over a byte string (offset basis `0xcbf29ce484222325`,
/// prime `0x100000001b3`): the per-record checksum of the WAL format and the
/// header checksum of the HGCSR snapshot. The MISP frame layer re-exports it
/// as its payload checksum, and the bench artifacts' outcome fingerprints
/// are built from it, so its output is pinned. Not cryptographic: it detects
/// torn tails and bit rot, which is the threat model for a local WAL (a
/// hostile writer can forge whatever it likes anyway, including the graph
/// itself).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A parsed write-ahead log: everything needed to reproduce an
/// epoch-versioned resident graph — the base snapshot, its epoch number, and
/// the edit batches (one per epoch bump) in application order.
#[derive(Debug)]
pub struct Wal {
    /// Epoch number of the base snapshot (0 for a never-compacted graph;
    /// compaction re-bases the log on a later epoch).
    pub base_epoch: u64,
    /// The graph at `base_epoch`.
    pub base: Hypergraph,
    /// The recovered edit batches: applying `batches[..k]` to `base`
    /// reproduces epoch `base_epoch + k`.
    pub batches: Vec<Vec<GraphEdit>>,
    /// Batches the header announced but that were lost to a torn tail (the
    /// file ended mid-record). 0 for a cleanly written file; a non-zero
    /// value means `batches` is the longest whole-record prefix.
    pub batches_lost: usize,
}

/// Serializes a WAL (see the [module docs](self#wal-format)) to a string.
/// `batches[k]` is the edit batch that produced epoch `base_epoch + k + 1`.
pub fn wal_to_string(base_epoch: u64, base: &Hypergraph, batches: &[&[GraphEdit]]) -> String {
    let log_len: usize = batches.iter().map(|b| b.len()).sum();
    let header = format!(
        "{WAL_MAGIC} {WAL_VERSION} {base_epoch} {} {} {log_len} {}",
        base.n_vertices(),
        base.n_edges(),
        batches.len(),
    );
    let mut out = String::new();
    let _ = writeln!(out, "{header} {:016x}", fnv1a(header.as_bytes()));
    let body = to_string(base);
    let _ = writeln!(out, "R base {} {:016x}", body.len(), fnv1a(body.as_bytes()));
    out.push_str(&body);
    let mut body = body;
    for batch in batches {
        body.clear();
        for edit in *batch {
            edit.encode_line(&mut body);
        }
        let _ = writeln!(
            out,
            "R batch {} {} {:016x}",
            batch.len(),
            body.len(),
            fnv1a(body.as_bytes())
        );
        out.push_str(&body);
    }
    out
}

/// Writes a WAL to a file, atomically (same write-temp-then-rename path as
/// [`write_file`]).
pub fn write_wal<P: AsRef<Path>>(
    path: P,
    base_epoch: u64,
    base: &Hypergraph,
    batches: &[&[GraphEdit]],
) -> io::Result<()> {
    write_atomic(
        path.as_ref(),
        wal_to_string(base_epoch, base, batches).as_bytes(),
    )
}

/// Parses WAL bytes (see the [module docs](self#wal-format)).
///
/// The parser is total and recovery-oriented: a torn tail — the file ends
/// mid-record, whether inside a frame line, a payload, or on a checksum
/// mismatch of the **final** bytes — truncates the log at the last whole
/// record ([`Wal::batches_lost`] counts the loss). A bad header, a torn or
/// invalid *base* record, a checksummed record whose body fails validation,
/// or whole records disagreeing with the header's totals are
/// [`ParseError`]s: such a file is corrupt, not merely torn, and no prefix
/// is trustworthy.
pub fn wal_from_bytes(bytes: &[u8]) -> Result<Wal, ParseError> {
    // Reads the line starting at `pos` (returning it without the newline and
    // advancing past it), or `None` if no complete line remains.
    fn take_line<'a>(bytes: &'a [u8], pos: &mut usize) -> Option<&'a str> {
        let rest = &bytes[*pos..];
        let nl = rest.iter().position(|&b| b == b'\n')?;
        let line = std::str::from_utf8(&rest[..nl]).ok()?;
        *pos += nl + 1;
        Some(line)
    }
    fn parse_dec(t: &str) -> Option<u64> {
        if t.is_empty() || !t.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        t.parse().ok()
    }
    // Reads one record frame + payload. `Ok(None)` = torn at this record
    // (the caller decides whether that is recoverable); `Ok(Some(..))` hands
    // back the frame fields and the checksum-verified payload.
    fn take_record<'a>(bytes: &'a [u8], pos: &mut usize) -> Option<(Vec<&'a str>, &'a [u8])> {
        let mark = *pos;
        let frame = match take_line(bytes, pos) {
            Some(f) => f,
            None => {
                *pos = mark;
                return None;
            }
        };
        let fields: Vec<&str> = frame.split_whitespace().collect();
        let (Some(&"R"), Some(len), Some(sum)) = (
            fields.first(),
            fields
                .get(fields.len().wrapping_sub(2))
                .and_then(|t| parse_dec(t)),
            fields.last().and_then(|t| u64::from_str_radix(t, 16).ok()),
        ) else {
            *pos = mark;
            return None;
        };
        // A hostile length must not overflow the slice arithmetic: anything
        // beyond the remaining bytes is a torn (or lying) record either way.
        if len > (bytes.len() - *pos) as u64 {
            *pos = mark;
            return None;
        }
        let payload = &bytes[*pos..*pos + len as usize];
        if fnv1a(payload) != sum {
            *pos = mark;
            return None;
        }
        *pos += len as usize;
        Some((fields, payload))
    }

    let mut pos = 0usize;
    let header = take_line(bytes, &mut pos)
        .ok_or_else(|| ParseError::BadWalHeader("missing header line".into()))?;
    let fields: Vec<&str> = header.split_whitespace().collect();
    if fields.len() != 8 || fields[0] != WAL_MAGIC {
        return Err(ParseError::BadWalHeader(header.to_string()));
    }
    if parse_dec(fields[1]) != Some(WAL_VERSION as u64) {
        return Err(ParseError::BadWalHeader(format!(
            "unsupported WAL version {:?} (this reader understands {WAL_VERSION})",
            fields[1]
        )));
    }
    let [base_epoch, n, m, log_len, n_batches] = [2, 3, 4, 5, 6].map(|i| parse_dec(fields[i]));
    let (Some(base_epoch), Some(n), Some(m), Some(log_len), Some(n_batches)) =
        (base_epoch, n, m, log_len, n_batches)
    else {
        return Err(ParseError::BadWalHeader(header.to_string()));
    };
    let announced = u64::from_str_radix(fields[7], 16)
        .map_err(|_| ParseError::BadWalHeader(header.to_string()))?;
    let canonical = format!("{WAL_MAGIC} {WAL_VERSION} {base_epoch} {n} {m} {log_len} {n_batches}");
    if fnv1a(canonical.as_bytes()) != announced {
        return Err(ParseError::BadWalHeader(format!(
            "header checksum mismatch: {header}"
        )));
    }

    let corrupt = |record: usize, detail: String| ParseError::CorruptWalRecord { record, detail };
    let (fields, payload) = take_record(bytes, &mut pos)
        .ok_or_else(|| corrupt(0, "torn or missing base snapshot record".into()))?;
    if fields.len() != 4 || fields[1] != "base" {
        return Err(corrupt(0, format!("expected a base frame, got {fields:?}")));
    }
    let body = std::str::from_utf8(payload)
        .map_err(|_| corrupt(0, "base snapshot payload is not UTF-8".into()))?;
    let base = from_str(body).map_err(|e| corrupt(0, e.to_string()))?;
    if (base.n_vertices() as u64, base.n_edges() as u64) != (n, m) {
        return Err(corrupt(
            0,
            format!(
                "header announced a {n}-vertex {m}-edge base, payload has {} and {}",
                base.n_vertices(),
                base.n_edges()
            ),
        ));
    }

    let mut batches: Vec<Vec<GraphEdit>> = Vec::new();
    let mut recovered_len = 0u64;
    while (batches.len() as u64) < n_batches {
        let record = batches.len() + 1;
        let Some((fields, payload)) = take_record(bytes, &mut pos) else {
            // Torn tail: the file ends mid-record. Everything before this
            // record checksummed clean — recover that prefix.
            return Ok(Wal {
                base_epoch,
                base,
                batches_lost: n_batches as usize - batches.len(),
                batches,
            });
        };
        // From here on the record's checksum has passed: any mismatch means
        // the file is inconsistent with itself, which truncation cannot
        // explain — corrupt, not torn.
        if fields.len() != 5 || fields[1] != "batch" {
            return Err(corrupt(
                record,
                format!("expected a batch frame, got {fields:?}"),
            ));
        }
        let count = parse_dec(fields[2])
            .ok_or_else(|| corrupt(record, format!("bad edit count {:?}", fields[2])))?;
        let body = std::str::from_utf8(payload)
            .map_err(|_| corrupt(record, "batch payload is not UTF-8".into()))?;
        let batch = body
            .lines()
            .map(|line| {
                GraphEdit::decode_line(line)
                    .ok_or_else(|| corrupt(record, format!("bad edit line {line:?}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        if batch.len() as u64 != count {
            return Err(corrupt(
                record,
                format!("frame announced {count} edits, payload has {}", batch.len()),
            ));
        }
        recovered_len += count;
        batches.push(batch);
    }
    if recovered_len != log_len {
        return Err(corrupt(
            n_batches as usize,
            format!("header announced log length {log_len}, records sum to {recovered_len}"),
        ));
    }
    if pos != bytes.len() {
        return Err(corrupt(
            n_batches as usize + 1,
            format!(
                "{} trailing bytes after the last announced record",
                bytes.len() - pos
            ),
        ));
    }
    Ok(Wal {
        base_epoch,
        base,
        batches,
        batches_lost: 0,
    })
}

/// Reads a WAL from a file — [`wal_from_bytes`] over the file contents, with
/// the I/O/parse distinction of [`ReadError`] (a missing WAL and a corrupt
/// WAL are different recovery situations).
pub fn read_wal<P: AsRef<Path>>(path: P) -> Result<Wal, ReadError> {
    let bytes = fs::read(path)?;
    Ok(wal_from_bytes(&bytes)?)
}

/// Version of the binary CSR snapshot format emitted by [`write_csr`] (see
/// the [module docs](self#binary-csr-snapshot-format-hgcsr-1)).
pub const CSR_VERSION: u32 = 1;

/// 8-byte magic of the `HGCSR 1` format: tag and version in one greppable
/// token. A future version bumps the digit, so an old reader rejects a new
/// file at the magic check.
const CSR_MAGIC: [u8; 8] = *b"HGCSR 1\n";

const CSR_HEADER: usize = 64;

/// FNV-1a folded over whole `u32` words — the payload checksum of the HGCSR
/// format. One multiply per word instead of per byte keeps checksum cost a
/// quarter of the byte-wise WAL variant on multi-hundred-megabyte
/// snapshots, while still detecting any single flipped word. The *header*
/// checksum stays the byte-wise [`fnv1a`], exactly like `HGWAL`.
fn fnv1a_words(arrays: &[&[u32]]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for arr in arrays {
        for &w in *arr {
            hash ^= w as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// The validated header of an HGCSR file: sizes plus the byte offset and
/// word length of each of the four arrays.
struct CsrLayout {
    n: u32,
    m: usize,
    dim: u32,
    payload_sum: u64,
    /// `(byte_offset, words)` for edge_offsets, edge_vertices, inc_offsets,
    /// incident — in file order, each 64-byte aligned.
    arrays: [(usize, usize); 4],
}

/// Parses and fully validates an HGCSR header against the file's byte
/// length: magic, header checksum, zero padding, representable sizes, and
/// an *exact* total file length. Everything is checked with overflow-safe
/// arithmetic before any offset is used, so a hostile header can neither
/// panic nor place an array out of bounds.
fn csr_layout(bytes: &[u8]) -> Result<CsrLayout, ParseError> {
    let bad = |detail: &str| ParseError::BadCsrSnapshot(detail.to_string());
    if bytes.len() < CSR_HEADER {
        return Err(bad("file shorter than the 64-byte header"));
    }
    if bytes[..8] != CSR_MAGIC {
        return Err(bad("bad magic (not an HGCSR 1 file)"));
    }
    let field = |i: usize| u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().unwrap());
    let (n, m, total, dim) = (field(1), field(2), field(3), field(4));
    let payload_sum = field(5);
    if fnv1a(&bytes[..48]) != field(6) {
        return Err(bad("header checksum mismatch"));
    }
    if bytes[56..64] != [0u8; 8] {
        return Err(bad("nonzero header padding"));
    }
    // Ids are u32 and offset *values* are u32 word counts, so every size
    // must be representable there; the total file length is then computed
    // in u64 (no overflow: all terms are < 2^35) and required to match the
    // actual length exactly — no trailing bytes, no truncation.
    if n > u32::MAX as u64 - 1 || m > u32::MAX as u64 - 1 || total > u32::MAX as u64 {
        return Err(bad("header sizes exceed the u32 id space"));
    }
    if dim > total {
        return Err(bad("dimension larger than the total edge size"));
    }
    let align64 = |x: u64| (x + 63) & !63;
    let lens = [m + 1, total, n + 1, total];
    let mut offsets = [0u64; 4];
    let mut cursor = CSR_HEADER as u64;
    for (i, words) in lens.iter().enumerate() {
        offsets[i] = cursor;
        cursor = align64(cursor + 4 * words);
    }
    // The file ends exactly where the last array does (the final array gets
    // no alignment tail).
    let expect_len = offsets[3] + 4 * lens[3];
    if bytes.len() as u64 != expect_len {
        return Err(bad("file length disagrees with the header sizes"));
    }
    // Alignment padding between arrays must be zero: with the padding
    // outside the payload checksum, this is what keeps *every* byte of the
    // file covered by some check.
    for i in 0..3 {
        let pad_start = (offsets[i] + 4 * lens[i]) as usize;
        let pad_end = offsets[i + 1] as usize;
        if bytes[pad_start..pad_end].iter().any(|&b| b != 0) {
            return Err(bad("nonzero alignment padding"));
        }
    }
    let arrays = [
        (offsets[0] as usize, lens[0] as usize),
        (offsets[1] as usize, lens[1] as usize),
        (offsets[2] as usize, lens[2] as usize),
        (offsets[3] as usize, lens[3] as usize),
    ];
    Ok(CsrLayout {
        n: n as u32,
        m: m as usize,
        dim: dim as u32,
        payload_sum,
        arrays,
    })
}

/// Structural validation of the four CSR arrays against the header sizes:
/// payload checksum, monotonic bounded offsets, sorted duplicate-free
/// non-empty edges with in-range ids, an exact `dim`, and an incidence
/// index that is *exactly* the canonical counting-sort of the edge arrays.
/// After this passes, the arrays are indistinguishable from the output of
/// the owned builder — which is what lets [`Hypergraph::from_validated_csr`]
/// adopt them (mapped or owned) without further checks.
fn validate_csr_arrays(
    lay: &CsrLayout,
    eo: &[u32],
    ev: &[u32],
    io_: &[u32],
    inc: &[u32],
) -> Result<(), ParseError> {
    let bad = |detail: &str| ParseError::BadCsrSnapshot(detail.to_string());
    if fnv1a_words(&[eo, ev, io_, inc]) != lay.payload_sum {
        return Err(bad("payload checksum mismatch"));
    }
    let (n, m, total) = (lay.n, lay.m, ev.len());
    if eo[0] != 0 || eo[m] as usize != total {
        return Err(bad("edge offsets do not span the vertex array"));
    }
    let mut dim = 0u32;
    for e in 0..m {
        let (lo, hi) = (eo[e] as usize, eo[e + 1] as usize);
        if hi <= lo || hi > total {
            return Err(bad("edge offsets not strictly increasing and bounded"));
        }
        let edge = &ev[lo..hi];
        if edge.windows(2).any(|w| w[0] >= w[1]) {
            return Err(bad("edge vertices not sorted and duplicate-free"));
        }
        if edge[hi - lo - 1] >= n {
            return Err(bad("edge vertex id out of range"));
        }
        dim = dim.max((hi - lo) as u32);
    }
    if dim != lay.dim {
        return Err(bad("header dimension disagrees with the edges"));
    }
    if io_[0] != 0 || io_[n as usize] as usize != total {
        return Err(bad("incidence offsets do not span the incident array"));
    }
    if io_.windows(2).any(|w| w[0] > w[1]) {
        return Err(bad("incidence offsets decrease"));
    }
    // Replay the builder's counting sort against the stored index: walking
    // edges in id order, each vertex's next incidence slot must hold
    // exactly this edge id. One O(total) pass proves the index is the
    // canonical one — not merely *a* consistent one.
    let mut cursor: Vec<u32> = io_[..n as usize].to_vec();
    for e in 0..m {
        for &v in &ev[eo[e] as usize..eo[e + 1] as usize] {
            let slot = cursor[v as usize];
            if slot >= io_[v as usize + 1] || inc[slot as usize] != e as u32 {
                return Err(bad("incidence index is not the counting-sort of the edges"));
            }
            cursor[v as usize] = slot + 1;
        }
    }
    if cursor.iter().zip(&io_[1..]).any(|(&c, &end)| c != end) {
        return Err(bad("incidence index has entries no edge accounts for"));
    }
    Ok(())
}

/// Serializes a hypergraph into the `HGCSR 1` binary snapshot format (see
/// the [module docs](self#binary-csr-snapshot-format-hgcsr-1)).
pub fn csr_to_bytes(h: &Hypergraph) -> Vec<u8> {
    let (eo, ev) = h.edge_csr();
    let (io_, inc) = h.incidence_csr();
    let align64 = |x: usize| (x + 63) & !63;
    let arrays: [&[u32]; 4] = [eo, ev, io_, inc];
    let mut offsets = [0usize; 4];
    let mut cursor = CSR_HEADER;
    for (i, arr) in arrays.iter().enumerate() {
        offsets[i] = cursor;
        cursor = align64(cursor + 4 * arr.len());
    }
    let file_len = offsets[3] + 4 * inc.len();
    let mut out = vec![0u8; file_len];
    out[..8].copy_from_slice(&CSR_MAGIC);
    for (i, value) in [
        h.n_vertices() as u64,
        h.n_edges() as u64,
        h.total_edge_size() as u64,
        h.dimension() as u64,
        fnv1a_words(&arrays),
    ]
    .into_iter()
    .enumerate()
    {
        out[8 * (i + 1)..8 * (i + 2)].copy_from_slice(&value.to_le_bytes());
    }
    let header_sum = fnv1a(&out[..48]);
    out[48..56].copy_from_slice(&header_sum.to_le_bytes());
    for (i, arr) in arrays.iter().enumerate() {
        for (w, word) in arr.iter().enumerate() {
            let at = offsets[i] + 4 * w;
            out[at..at + 4].copy_from_slice(&word.to_le_bytes());
        }
    }
    out
}

/// Writes a hypergraph to `path` as an `HGCSR 1` binary snapshot,
/// atomically and durably (the same fsynced write-temp-then-rename path as
/// [`write_file`] and [`write_wal`]).
pub fn write_csr<P: AsRef<Path>>(h: &Hypergraph, path: P) -> io::Result<()> {
    write_atomic(path.as_ref(), &csr_to_bytes(h))
}

/// Parses an `HGCSR 1` snapshot from bytes into an **owned** hypergraph
/// (the portable decode path — [`open_mapped`] is the zero-copy one).
///
/// Total: any corruption — truncation, bit flips, hostile sizes,
/// structurally inconsistent arrays — is a [`ParseError::BadCsrSnapshot`],
/// never a panic. Allocation is bounded by the file length (the exact-size
/// check in the header validation runs before any array is materialized).
pub fn csr_from_bytes(bytes: &[u8]) -> Result<Hypergraph, ParseError> {
    let lay = csr_layout(bytes)?;
    let decode = |(off, words): (usize, usize)| -> Vec<u32> {
        (0..words)
            .map(|w| {
                let at = off + 4 * w;
                u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
            })
            .collect()
    };
    let [eo, ev, io_, inc] = lay.arrays.map(decode);
    validate_csr_arrays(&lay, &eo, &ev, &io_, &inc)?;
    Ok(Hypergraph::from_validated_csr(
        lay.n,
        lay.dim,
        eo.into(),
        ev.into(),
        io_.into(),
        inc.into(),
    ))
}

/// Reads an `HGCSR 1` snapshot file into an owned hypergraph.
pub fn read_csr<P: AsRef<Path>>(path: P) -> Result<Hypergraph, ReadError> {
    let bytes = fs::read(path)?;
    Ok(csr_from_bytes(&bytes)?)
}

/// Opens an `HGCSR 1` snapshot file as a **memory-mapped** hypergraph: the
/// four CSR arrays are served directly from a shared read-only mapping
/// ([`pram::mmap::MmapFile`]) with no copy — engine construction and every
/// query run on the mapped words, and cloning the graph (or its snapshot
/// `Arc`s in a registry) bumps the mapping's reference count.
///
/// Validation is identical to [`read_csr`] — checksums plus full structural
/// checks, all bounds-verified before any slice is formed — so a corrupt,
/// truncated or hostile file fails as [`ReadError::Parse`], never
/// undefined behaviour. On big-endian targets (where the little-endian
/// words cannot be reinterpreted in place) this decodes into owned storage
/// instead; [`Hypergraph::is_mapped`] reports which tier was chosen.
pub fn open_mapped<P: AsRef<Path>>(path: P) -> Result<Hypergraph, ReadError> {
    #[cfg(target_endian = "little")]
    {
        use pram::mmap::{MmapFile, U32Span};
        let map = MmapFile::open(path.as_ref())?;
        let lay = csr_layout(map.bytes())?;
        let span = |(off, words): (usize, usize)| -> Result<U32Span, ParseError> {
            // Unreachable after csr_layout's exact-length check (offsets are
            // 64-byte aligned and in bounds), but kept total: a span failure
            // is a parse error, never a panic.
            U32Span::new(std::sync::Arc::clone(&map), off, words)
                .ok_or_else(|| ParseError::BadCsrSnapshot("array window out of bounds".into()))
        };
        let [eo, ev, io_, inc] = [
            span(lay.arrays[0])?,
            span(lay.arrays[1])?,
            span(lay.arrays[2])?,
            span(lay.arrays[3])?,
        ];
        validate_csr_arrays(
            &lay,
            eo.as_slice(),
            ev.as_slice(),
            io_.as_slice(),
            inc.as_slice(),
        )?;
        Ok(Hypergraph::from_validated_csr(
            lay.n,
            lay.dim,
            crate::graph::CsrStorage::Mapped(eo),
            crate::graph::CsrStorage::Mapped(ev),
            crate::graph::CsrStorage::Mapped(io_),
            crate::graph::CsrStorage::Mapped(inc),
        ))
    }
    #[cfg(not(target_endian = "little"))]
    {
        read_csr(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::hypergraph_from_edges;

    #[test]
    fn round_trip() {
        let h = hypergraph_from_edges(6, vec![vec![0, 1, 2], vec![3, 5], vec![2, 4]]);
        let s = to_string(&h);
        let back = from_str(&s).unwrap();
        assert_eq!(h, back);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let s = "# a comment\n\n3 2\n0 1\n# another\n1 2\n";
        let h = from_str(s).unwrap();
        assert_eq!(h.n_vertices(), 3);
        assert_eq!(h.n_edges(), 2);
    }

    #[test]
    fn bad_header() {
        assert!(matches!(from_str(""), Err(ParseError::BadHeader(_))));
        assert!(matches!(from_str("x y\n"), Err(ParseError::BadHeader(_))));
        assert!(matches!(
            from_str("3 1 9\n0 1\n"),
            Err(ParseError::BadHeader(_))
        ));
    }

    #[test]
    fn bad_vertex_and_range() {
        let err = from_str("3 1\n0 zebra\n").unwrap_err();
        assert!(matches!(err, ParseError::BadVertex { .. }));
        let err = from_str("3 1\n0 7\n").unwrap_err();
        assert!(matches!(err, ParseError::BadVertex { .. }));
    }

    #[test]
    fn edge_count_mismatch() {
        let err = from_str("3 2\n0 1\n").unwrap_err();
        assert_eq!(
            err,
            ParseError::EdgeCountMismatch {
                expected: 2,
                found: 1
            }
        );
        // Too many edge lines is just as wrong as too few.
        let err = from_str("3 1\n0 1\n1 2\n").unwrap_err();
        assert_eq!(
            err,
            ParseError::EdgeCountMismatch {
                expected: 1,
                found: 2
            }
        );
    }

    #[test]
    fn overflowing_counts_are_rejected_not_truncated() {
        // n beyond u32::MAX must not be silently truncated to n % 2^32.
        assert!(matches!(
            from_str("4294967296 0\n"),
            Err(ParseError::BadHeader(_))
        ));
        // A representable but hostile n must not force an O(n) arena
        // allocation from a few header bytes.
        assert!(matches!(
            from_str("4294967295 0\n"),
            Err(ParseError::BadHeader(_))
        ));
        let at_cap = format!("{} 0\n", MAX_TEXT_VERTICES);
        assert_eq!(from_str(&at_cap).unwrap().n_vertices(), MAX_TEXT_VERTICES);
        // Counts beyond usize fail the same way.
        assert!(matches!(
            from_str("99999999999999999999999999 0\n"),
            Err(ParseError::BadHeader(_))
        ));
        // A hostile edge count cannot trigger a huge reservation: the count
        // is checked against the actual lines first.
        assert_eq!(
            from_str("3 18446744073709551615\n0 1\n").unwrap_err(),
            ParseError::EdgeCountMismatch {
                expected: usize::MAX,
                found: 1
            }
        );
    }

    #[test]
    fn overflowing_and_signed_ids_are_rejected() {
        // An id beyond u32::MAX overflows the id type.
        let err = from_str("3 1\n0 4294967296\n").unwrap_err();
        assert!(matches!(err, ParseError::BadVertex { .. }));
        // Signs are not part of the grammar even though `u32::from_str`
        // would accept a leading `+`.
        let err = from_str("3 1\n0 +1\n").unwrap_err();
        assert!(matches!(err, ParseError::BadVertex { .. }));
        let err = from_str("3 1\n0 -1\n").unwrap_err();
        assert!(matches!(err, ParseError::BadVertex { .. }));
        assert!(matches!(from_str("+3 0\n"), Err(ParseError::BadHeader(_))));
    }

    #[test]
    fn duplicate_vertex_on_a_line_is_rejected() {
        let err = from_str("4 1\n1 2 1\n").unwrap_err();
        assert_eq!(
            err,
            ParseError::DuplicateVertex {
                line: 2,
                token: "1".into()
            }
        );
    }

    #[test]
    fn whitespace_and_crlf_are_tolerated() {
        // Trailing whitespace, CRLF endings and whitespace-only lines all
        // parse to the same hypergraph.
        let unix = "3 2\n0 1\n1 2\n";
        let messy = "3 2\r\n0 1  \r\n   \r\n1 2\t\r\n";
        assert_eq!(from_str(unix).unwrap(), from_str(messy).unwrap());
    }

    #[test]
    fn fuzzish_inputs_never_panic() {
        // A grab-bag of malformed shapes: every one must produce Err, not a
        // panic or an abort.
        for s in [
            "",
            "\n\n\n",
            "# only comments\n",
            "1",
            "1 2 3\n",
            "x",
            "0 0 extra\n",
            "3 1\n\u{1F600}\n",
            "2 1\n0 0\n",
            "3 1\n2 1 0 2\n",
            "18446744073709551615 18446744073709551615\n",
            "3 3\n0\n1\n",
        ] {
            assert!(from_str(s).is_err(), "{s:?} unexpectedly parsed");
        }
    }

    #[test]
    fn round_trip_survives_reparse_of_own_output() {
        // to_string output is always re-parseable, including degenerate
        // hypergraphs.
        for h in [
            hypergraph_from_edges::<Vec<u32>>(0, vec![]),
            hypergraph_from_edges::<Vec<u32>>(5, vec![]),
            hypergraph_from_edges(3, vec![vec![0], vec![1], vec![2]]),
            hypergraph_from_edges(6, vec![vec![0, 1, 2, 3, 4, 5], vec![0, 5]]),
        ] {
            let back = from_str(&to_string(&h)).unwrap();
            assert_eq!(h, back);
        }
    }

    #[test]
    fn file_round_trip() {
        let h = hypergraph_from_edges(4, vec![vec![0, 3], vec![1, 2, 3]]);
        let dir = std::env::temp_dir().join("hypergraph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.hg");
        write_file(&h, &path).unwrap();
        let back = read_file(&path).unwrap();
        assert_eq!(h, back);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn read_file_distinguishes_missing_from_corrupt() {
        let dir = std::env::temp_dir().join("hypergraph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let missing = dir.join("no-such-file.hg");
        assert!(matches!(read_file(&missing), Err(ReadError::Io(_))));
        let corrupt = dir.join("corrupt.hg");
        std::fs::write(&corrupt, "not a graph\n").unwrap();
        match read_file(&corrupt) {
            Err(ReadError::Parse(ParseError::BadHeader(_))) => {}
            other => panic!("expected a structured parse error, got {other:?}"),
        }
        // The flattening escape hatch still works and keeps the kinds apart.
        let as_io: io::Error = read_file(&corrupt).unwrap_err().into();
        assert_eq!(as_io.kind(), io::ErrorKind::InvalidData);
        let as_io: io::Error = read_file(&missing).unwrap_err().into();
        assert_eq!(as_io.kind(), io::ErrorKind::NotFound);
        let _ = std::fs::remove_file(&corrupt);
    }

    // The in-place-write hazard this module's atomic writes exist to prevent:
    // a prefix of a valid file can itself be a valid, *smaller* graph.
    #[test]
    fn truncated_text_can_parse_as_a_smaller_valid_graph() {
        let full = "3 2\n0 1\n0 2 1\n";
        let torn = &full[..full.len() - 3]; // "3 2\n0 1\n0 2"
        let h = from_str(torn).expect("the torn prefix is a well-formed file");
        assert_eq!(h.n_edges(), 2);
        assert_eq!(h.edge(1), &[0, 2]); // silently lost vertex 1
    }

    #[test]
    fn write_file_replaces_atomically_and_leaves_no_temp_behind() {
        let dir = std::env::temp_dir().join("hypergraph_io_atomic_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("atomic.hg");
        let old = hypergraph_from_edges(3, vec![vec![0, 1]]);
        let new = hypergraph_from_edges(5, vec![vec![0, 1], vec![2, 3, 4]]);
        write_file(&old, &path).unwrap();
        write_file(&new, &path).unwrap();
        assert_eq!(read_file(&path).unwrap(), new);
        // No temporary siblings survive a successful write.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "leftover temp files: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    // A simulated crash mid-write: the temporary holds the partial bytes, the
    // destination is untouched until the rename — so a reader never observes
    // the silently-smaller graph from the test above.
    #[test]
    fn partial_write_never_surfaces_as_a_smaller_graph() {
        let dir = std::env::temp_dir().join("hypergraph_io_crash_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("crash.hg");
        let committed = hypergraph_from_edges(3, vec![vec![0, 1], vec![0, 1, 2]]);
        write_file(&committed, &path).unwrap();
        // Crash simulation: the partial contents of a larger replacement land
        // in a temp sibling (as write_atomic would stage them) and the
        // process dies before the rename.
        let replacement = to_string(&hypergraph_from_edges(3, vec![vec![0, 1], vec![0, 2, 1]]));
        for cut in 0..replacement.len() {
            std::fs::write(dir.join(".crash.hg.tmp.dead.0"), &replacement[..cut]).unwrap();
            // The destination still reads as the committed graph, whatever
            // the torn temp contains.
            assert_eq!(read_file(&path).unwrap(), committed);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn demo_batches() -> Vec<Vec<GraphEdit>> {
        vec![
            vec![
                GraphEdit::AddEdge(vec![0, 3]),
                GraphEdit::GrowVertices(2),
                GraphEdit::AddEdge(vec![4, 5]),
            ],
            vec![GraphEdit::RemoveEdge(vec![0, 1])],
            vec![
                GraphEdit::AddEdge(vec![1, 2, 3]),
                GraphEdit::RemoveEdge(vec![4, 5]),
            ],
        ]
    }

    #[test]
    fn wal_round_trip() {
        let base = hypergraph_from_edges(4, vec![vec![0, 1], vec![1, 2, 3]]);
        let batches = demo_batches();
        let refs: Vec<&[GraphEdit]> = batches.iter().map(|b| b.as_slice()).collect();
        let s = wal_to_string(7, &base, &refs);
        let wal = wal_from_bytes(s.as_bytes()).unwrap();
        assert_eq!(wal.base_epoch, 7);
        assert_eq!(wal.base, base);
        assert_eq!(wal.batches, batches);
        assert_eq!(wal.batches_lost, 0);
        // And through a file, atomically.
        let dir = std::env::temp_dir().join("hypergraph_io_wal_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("round.wal");
        write_wal(&path, 7, &base, &refs).unwrap();
        let wal = read_wal(&path).unwrap();
        assert_eq!((wal.base_epoch, wal.batches), (7, batches));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_with_no_batches_round_trips() {
        let base = hypergraph_from_edges(2, vec![vec![0, 1]]);
        let s = wal_to_string(0, &base, &[]);
        let wal = wal_from_bytes(s.as_bytes()).unwrap();
        assert_eq!(wal.base, base);
        assert!(wal.batches.is_empty());
        assert_eq!(wal.batches_lost, 0);
    }

    // Truncation at *every* byte boundary: the parser must recover the
    // longest whole-record prefix (torn tail) or report a ParseError (torn
    // header/base) — never panic, and never mis-parse a partial record as a
    // shorter-but-valid one.
    #[test]
    fn wal_truncated_at_every_byte_recovers_a_whole_record_prefix() {
        let base = hypergraph_from_edges(4, vec![vec![0, 1], vec![1, 2, 3]]);
        let batches = demo_batches();
        let refs: Vec<&[GraphEdit]> = batches.iter().map(|b| b.as_slice()).collect();
        let s = wal_to_string(0, &base, &refs);
        let bytes = s.as_bytes();
        let mut recovered_counts = std::collections::BTreeSet::new();
        for cut in 0..bytes.len() {
            match wal_from_bytes(&bytes[..cut]) {
                Ok(wal) => {
                    // Whatever survived must be an exact prefix of the
                    // original batches — recovery never invents edits.
                    assert!(wal.batches.len() < batches.len(), "cut {cut}");
                    assert_eq!(wal.batches_lost, batches.len() - wal.batches.len());
                    assert_eq!(wal.batches[..], batches[..wal.batches.len()], "cut {cut}");
                    assert_eq!(wal.base, base, "cut {cut}");
                    recovered_counts.insert(wal.batches.len());
                }
                Err(_) => {
                    // Acceptable only while the header/base region is torn —
                    // i.e. before the first batch record is whole.
                }
            }
        }
        // Every proper prefix length was reachable by some cut.
        assert_eq!(
            recovered_counts.into_iter().collect::<Vec<_>>(),
            vec![0, 1, 2],
            "some whole-record prefix was never recovered"
        );
        // The untruncated file still parses in full.
        assert_eq!(wal_from_bytes(bytes).unwrap().batches, batches);
    }

    #[test]
    fn wal_corruption_is_an_error_not_a_truncation() {
        let base = hypergraph_from_edges(4, vec![vec![0, 1], vec![1, 2, 3]]);
        let batches = demo_batches();
        let refs: Vec<&[GraphEdit]> = batches.iter().map(|b| b.as_slice()).collect();
        let good = wal_to_string(3, &base, &refs);

        // Bad magic / version / header checksum.
        assert!(matches!(
            wal_from_bytes(b"NOTWAL 1 0 0 0 0 0 0\n"),
            Err(ParseError::BadWalHeader(_))
        ));
        assert!(matches!(
            wal_from_bytes(good.replacen("HGWAL 1", "HGWAL 2", 1).as_bytes()),
            Err(ParseError::BadWalHeader(_))
        ));
        assert!(matches!(
            wal_from_bytes(good.replacen(" 3 ", " 4 ", 1).as_bytes()),
            Err(ParseError::BadWalHeader(_)) // checksum no longer matches
        ));

        // Trailing garbage after the announced records.
        let mut trailing = good.clone();
        trailing.push_str("R batch 0 0 0\n");
        assert!(matches!(
            wal_from_bytes(trailing.as_bytes()),
            Err(ParseError::CorruptWalRecord { .. })
        ));

        // A checksummed record whose body fails validation: corrupt the edit
        // count while fixing the frame so the checksum still passes.
        let broken = good.replacen("R batch 1 ", "R batch 2 ", 1);
        assert!(matches!(
            wal_from_bytes(broken.as_bytes()),
            Err(ParseError::CorruptWalRecord { record: 2, .. })
        ));
    }

    #[test]
    fn wal_bit_flips_never_panic() {
        let base = hypergraph_from_edges(4, vec![vec![0, 1], vec![1, 2, 3]]);
        let batches = demo_batches();
        let refs: Vec<&[GraphEdit]> = batches.iter().map(|b| b.as_slice()).collect();
        let good = wal_to_string(0, &base, &refs);
        for i in 0..good.len() {
            let mut bytes = good.clone().into_bytes();
            bytes[i] ^= 0x20;
            // Any outcome is fine except a panic or invented edits: whatever
            // still parses must be an exact prefix of the true batches (a
            // flipped record fails its checksum, so it can only be dropped,
            // never altered — barring an FNV collision, which a single-bit
            // flip cannot produce here).
            if let Ok(wal) = wal_from_bytes(&bytes) {
                assert_eq!(wal.batches[..], batches[..wal.batches.len()], "flip at {i}");
            }
        }
    }
}
