//! Crash-safe campaign journals: append-only JSONL with resume support.
//!
//! A long campaign that dies (power loss, OOM kill, preemption) should not
//! have to rerun completed trials. [`JournalWriter`] appends one JSON object
//! per finished [`TrialRecord`] — written and flushed line-atomically, so a
//! kill can at worst lose the line being written — and [`read_journal`]
//! replays a journal, tolerating a truncated final line. [`JournalTail`] is
//! the reader underneath: it follows a growing journal and parses only the
//! bytes appended since its previous read.
//!
//! Because every trial's randomness derives only from `(campaign seed, trial
//! index)`, a resumed campaign that runs just the missing trials produces
//! records bit-identical to an uninterrupted run.
//!
//! The format is deliberately dependency-free: a fixed header line
//! `{"rustfi_journal":2,"seed":S,"trials":N,"config":H,"shard":I,"shards":K}`
//! followed by flat record objects. Numbers are kept as raw text during
//! parsing (no `u64` → `f64` detour), and `f32` fields round-trip exactly
//! through Rust's shortest-representation `Display`.
//!
//! The header binds the journal to its campaign three ways: the root seed
//! and trial count, a fingerprint of every record-affecting configuration
//! knob ([`JournalHeader::config_hash`]) so a resume can refuse a journal
//! written under a different guard mode / fault mode / quantization setting
//! instead of silently producing a mixed report, and — for distributed
//! campaigns ([`crate::shard`]) — which shard of how many this journal
//! belongs to.
//!
//! Journals may also contain `{"heartbeat":<unix_ms>}` lines, appended by
//! fleet workers so an orchestrator can tell a slow shard from a dead one.
//! Readers skip them; they carry no trial state.

use crate::campaign::TrialRecord;
use crate::error::FiError;
use crate::location::NeuronSite;
use crate::metrics::OutcomeKind;
use std::borrow::Cow;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::Path;

/// Journal format version this build writes and accepts.
///
/// Version 2 added the campaign-config fingerprint and the shard fields;
/// version-1 journals (which carried neither) are refused rather than
/// guessed at.
pub const JOURNAL_VERSION: u64 = 2;

/// Identity of the campaign (and, for distributed runs, the shard) a
/// journal belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalHeader {
    /// The campaign's root seed.
    pub seed: u64,
    /// The campaign's total trial count (the *whole* campaign's, not the
    /// shard's — shards share one trial space).
    pub trials: usize,
    /// Fingerprint of every record-affecting campaign knob
    /// ([`crate::shard::config_fingerprint`]). Resume refuses a journal
    /// whose fingerprint doesn't match the resuming campaign.
    pub config_hash: u64,
    /// Which shard this journal belongs to (`0` for single-process runs).
    pub shard_index: usize,
    /// Total shard count of the run that wrote this journal (`1` for
    /// single-process runs).
    pub shard_count: usize,
}

impl JournalHeader {
    /// Header for an unsharded (single-process) campaign.
    pub fn solo(seed: u64, trials: usize, config_hash: u64) -> Self {
        Self {
            seed,
            trials,
            config_hash,
            shard_index: 0,
            shard_count: 1,
        }
    }
}

/// Append-only journal writer. Each [`JournalWriter::append`] writes one
/// line and flushes it before returning.
pub struct JournalWriter {
    out: BufWriter<File>,
}

impl JournalWriter {
    /// Creates a fresh journal at `path` (truncating any existing file) and
    /// writes the header line.
    pub fn create(path: &Path, header: JournalHeader) -> Result<Self, FiError> {
        let file = File::create(path)
            .map_err(|e| FiError::io(format!("creating journal {}", path.display()), e))?;
        let mut writer = Self {
            out: BufWriter::new(file),
        };
        let line = format!(
            "{{\"rustfi_journal\":{JOURNAL_VERSION},\"seed\":{},\"trials\":{},\
             \"config\":{},\"shard\":{},\"shards\":{}}}",
            header.seed, header.trials, header.config_hash, header.shard_index, header.shard_count
        );
        writer.write_line(&line, path)?;
        Ok(writer)
    }

    /// Reopens an existing journal at `path` for appending.
    pub fn open_append(path: &Path) -> Result<Self, FiError> {
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| FiError::io(format!("reopening journal {}", path.display()), e))?;
        Ok(Self {
            out: BufWriter::new(file),
        })
    }

    /// Appends one record and flushes it to the OS.
    pub fn append(&mut self, record: &TrialRecord, path: &Path) -> Result<(), FiError> {
        let line = record_to_json(record);
        self.write_line(&line, path)
    }

    fn write_line(&mut self, line: &str, path: &Path) -> Result<(), FiError> {
        let ctx = || format!("appending to journal {}", path.display());
        self.out
            .write_all(line.as_bytes())
            .and_then(|()| self.out.write_all(b"\n"))
            .and_then(|()| self.out.flush())
            .map_err(|e| FiError::io(ctx(), e))
    }
}

/// Appends one `{"heartbeat":<unix_ms>}` line to an existing journal, so an
/// orchestrator watching the file can tell a slow shard from a dead one.
///
/// Opens the file `O_APPEND` per call — line writes this small are atomic on
/// every platform we target, so a heartbeat thread can share the file with
/// the campaign's own [`JournalWriter`] without interleaving. Returns
/// `Ok(false)` (not an error) when the journal doesn't exist yet: the
/// campaign creates it, and a heartbeat must never create a file that
/// [`crate::campaign::Campaign::run_journaled`] would then try to resume.
pub fn append_heartbeat(path: &Path) -> Result<bool, FiError> {
    let file = match OpenOptions::new().append(true).open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(false),
        Err(e) => {
            return Err(FiError::io(
                format!("opening journal {} for heartbeat", path.display()),
                e,
            ))
        }
    };
    let ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let mut out = BufWriter::new(file);
    out.write_all(format!("{{\"heartbeat\":{ms}}}\n").as_bytes())
        .and_then(|()| out.flush())
        .map_err(|e| {
            FiError::io(
                format!("appending heartbeat to journal {}", path.display()),
                e,
            )
        })?;
    Ok(true)
}

/// Reads a journal: header plus every complete, valid record line.
///
/// A torn *final* line — truncated mid-write, or missing its newline: the
/// signatures of a kill — is ignored; corruption anywhere earlier is an
/// error, as is a header that doesn't parse. This is one
/// [`JournalTail::refresh`] on a fresh tail.
pub fn read_journal(path: &Path) -> Result<(JournalHeader, Vec<TrialRecord>), FiError> {
    let (header, records, _) = read_whole(path)?;
    Ok((header, records))
}

/// Like [`read_journal`], but also truncates a torn trailing line off the
/// file, so that it is safe to append to. Campaign resume uses this; the
/// trial the torn line belonged to simply reruns (deterministically, so the
/// rewritten record is identical).
pub fn read_journal_repairing(path: &Path) -> Result<(JournalHeader, Vec<TrialRecord>), FiError> {
    let (header, records, valid_len) = read_whole(path)?;
    let file = OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| FiError::io(format!("repairing journal {}", path.display()), e))?;
    let actual = file
        .metadata()
        .map_err(|e| FiError::io(format!("repairing journal {}", path.display()), e))?
        .len();
    if actual > valid_len {
        file.set_len(valid_len).map_err(|e| {
            FiError::io(
                format!("truncating torn journal tail in {}", path.display()),
                e,
            )
        })?;
    }
    Ok((header, records))
}

/// One refresh of a fresh [`JournalTail`]: the header, the valid records,
/// and the byte length of the valid prefix.
fn read_whole(path: &Path) -> Result<(JournalHeader, Vec<TrialRecord>, u64), FiError> {
    let mut tail = JournalTail::new();
    tail.refresh(path)?;
    let valid_len = tail.valid_len;
    let (header, records) = tail
        .into_parts()
        .expect("a successful refresh has read the header");
    Ok((header, records, valid_len))
}

/// An incremental journal reader: each [`JournalTail::refresh`] parses only
/// the bytes appended since the previous one, so a supervisor polling a
/// growing journal reads every byte once instead of once per poll.
///
/// The tail holds the header, the records read so far, and the byte length
/// of the valid prefix (every complete line up to and including the last
/// good one). It applies the torn-tail rules of [`read_journal`], which is a
/// single refresh: a final line that is incomplete or does not parse is left
/// unconsumed, to be read again once the writer finishes it, and a bad
/// complete line before the end is an error naming its line number.
///
/// Each refresh also re-reads the last line it consumed, in front of the
/// new bytes. If those bytes changed — the file was truncated below the
/// valid prefix, or replaced — the tail resets and reads the file from its
/// first byte.
#[derive(Debug, Default)]
pub struct JournalTail {
    header: Option<JournalHeader>,
    records: Vec<TrialRecord>,
    valid_len: u64,
    /// Lines consumed so far, the header included.
    lines: usize,
    /// The last consumed line, newline included.
    anchor: Vec<u8>,
}

impl JournalTail {
    /// A tail that has read nothing yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// A tail with room for `records` records, for a caller that knows how
    /// many the journal will hold: the record buffer then never regrows,
    /// which keeps a long-lived tail from fragmenting the heap.
    pub fn with_capacity(records: usize) -> Self {
        Self {
            records: Vec::with_capacity(records),
            ..Self::default()
        }
    }

    /// The journal's header, once a refresh has read it.
    pub fn header(&self) -> Option<&JournalHeader> {
        self.header.as_ref()
    }

    /// Every record read so far, in journal order.
    pub fn records(&self) -> &[TrialRecord] {
        &self.records
    }

    /// Byte length of the consumed prefix: everything up to and including
    /// the last complete, valid line.
    pub fn valid_len(&self) -> u64 {
        self.valid_len
    }

    /// Forgets everything read, so the next refresh starts at byte 0. The
    /// record buffer keeps its capacity.
    pub fn reset(&mut self) {
        self.header = None;
        self.records.clear();
        self.valid_len = 0;
        self.lines = 0;
        self.anchor.clear();
    }

    /// The header and the records, moved out; `None` before any successful
    /// refresh.
    pub fn into_parts(self) -> Option<(JournalHeader, Vec<TrialRecord>)> {
        Some((self.header?, self.records))
    }

    /// Reads whatever was appended to `path` since the last refresh and
    /// returns the index of the first record it added: `records()[first..]`
    /// are new, and `first` is 0 when the tail had to start over.
    ///
    /// On error the tail keeps what it had consumed before the call (or is
    /// empty, if the file was found replaced), so a later refresh retries
    /// the same bytes.
    pub fn refresh(&mut self, path: &Path) -> Result<usize, FiError> {
        let io_err = |e| FiError::io(format!("reading journal {}", path.display()), e);
        let mut file = File::open(path).map_err(io_err)?;
        let mut bytes = Vec::new();
        let anchor_at = self.valid_len - self.anchor.len() as u64;
        if anchor_at > 0 {
            file.seek(SeekFrom::Start(anchor_at)).map_err(io_err)?;
        }
        file.read_to_end(&mut bytes).map_err(io_err)?;
        let mut first = self.records.len();
        let mut skip = self.anchor.len();
        if !bytes.starts_with(&self.anchor) {
            self.reset();
            first = 0;
            skip = 0;
            bytes.clear();
            file.seek(SeekFrom::Start(0)).map_err(io_err)?;
            file.read_to_end(&mut bytes).map_err(io_err)?;
        }
        self.consume(&bytes[skip..])?;
        Ok(first)
    }

    /// Parses `bytes`, which start right after the consumed prefix. Commits
    /// nothing unless every complete line before the last one is valid.
    fn consume(&mut self, bytes: &[u8]) -> Result<(), FiError> {
        let mut header = self.header;
        let mut lines = self.lines;
        let mut pos = 0;
        let mut anchor = None;
        if header.is_none() {
            let Some(nl) = bytes.iter().position(|&b| b == b'\n') else {
                return Err(FiError::Journal {
                    line: 1,
                    detail: String::from(if bytes.is_empty() {
                        "empty journal (missing header)"
                    } else {
                        "header line was interrupted mid-write"
                    }),
                });
            };
            let text = std::str::from_utf8(&bytes[..nl]).map_err(|e| FiError::Journal {
                line: 1,
                detail: e.to_string(),
            })?;
            header = Some(parse_header(text)?);
            anchor = Some(0);
            lines = 1;
            pos = nl + 1;
        }

        let kept = self.records.len();
        // A line without its newline was interrupted mid-write: it doesn't
        // count as written even if the JSON happens to parse, so the scan
        // stops at the last newline.
        while let Some(nl) = bytes[pos..].iter().position(|&b| b == b'\n') {
            let end = pos + nl + 1;
            let parsed = std::str::from_utf8(&bytes[pos..end - 1])
                .map_err(|e| e.to_string())
                .and_then(parse_journal_line);
            match parsed {
                Ok(JournalLine::Record(r)) => self.records.push(r),
                // Heartbeats carry no trial state; they only extend the
                // valid prefix so a repair doesn't truncate them.
                Ok(JournalLine::Heartbeat) => {}
                // The final line may be a write still in flight.
                Err(_) if end == bytes.len() => break,
                Err(detail) => {
                    self.records.truncate(kept);
                    return Err(FiError::Journal {
                        line: lines + 1,
                        detail,
                    });
                }
            }
            anchor = Some(pos);
            lines += 1;
            pos = end;
        }
        if let Some(at) = anchor {
            self.anchor.clear();
            self.anchor.extend_from_slice(&bytes[at..pos]);
        }
        self.header = header;
        self.lines = lines;
        self.valid_len += pos as u64;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

fn record_to_json(r: &TrialRecord) -> String {
    let mut s = String::with_capacity(128);
    let _ = write!(
        s,
        "{{\"trial\":{},\"image_index\":{},\"layer\":{},\"site\":",
        r.trial, r.image_index, r.layer
    );
    match &r.site {
        Some(site) => {
            let _ = write!(s, "{{\"layer\":{},\"batch\":", site.layer);
            match site.batch {
                Some(b) => {
                    let _ = write!(s, "{b}");
                }
                None => s.push_str("null"),
            }
            let _ = write!(
                s,
                ",\"channel\":{},\"y\":{},\"x\":{}}}",
                site.channel, site.y, site.x
            );
        }
        None => s.push_str("null"),
    }
    let _ = write!(s, ",\"outcome\":\"{}\"", r.outcome.label());
    if let OutcomeKind::Crash { detail } = &r.outcome {
        s.push_str(",\"detail\":\"");
        escape_json_into(detail, &mut s);
        s.push('"');
    }
    s.push_str(",\"due_layer\":");
    match r.due_layer {
        Some(l) => {
            let _ = write!(s, "{l}");
        }
        None => s.push_str("null"),
    }
    // `{}` on a finite f32 is the shortest string that parses back to the
    // same bits, so confidence deltas survive the round trip exactly.
    let delta = if r.confidence_delta.is_finite() {
        r.confidence_delta
    } else {
        0.0
    };
    let _ = write!(
        s,
        ",\"top5_miss\":{},\"confidence_delta\":{delta}}}",
        r.top5_miss
    );
    s
}

fn escape_json_into(raw: &str, out: &mut String) {
    for c in raw.chars() {
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
}

// ---------------------------------------------------------------------------
// Parsing — a minimal recursive-descent JSON reader. Numbers stay raw text,
// and keys, numbers and escape-free strings borrow from the line.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json<'a> {
    Null,
    Bool(bool),
    Num(&'a str),
    Str(Cow<'a, str>),
    Obj(Vec<(Cow<'a, str>, Json<'a>)>),
}

impl<'a> Json<'a> {
    fn get(&self, key: &str) -> Option<&Json<'a>> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Json<'a>, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') if self.eat_literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat_literal("null") => Ok(Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => Ok(Json::Num(self.parse_number())),
            other => Err(format!("unexpected token {other:?} at byte {}", self.pos)),
        }
    }

    fn parse_object(&mut self) -> Result<Json<'a>, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }

    /// Reads a string in one pass. `"` and `\\` never occur inside a
    /// multi-byte UTF-8 sequence, so the runs between them slice the line
    /// on character boundaries; a string without escapes is borrowed whole.
    fn parse_string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let mut owned: Option<String> = None;
        loop {
            let run_start = self.pos;
            let Some(len) = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                return Err(String::from("unterminated string"));
            };
            self.pos += len;
            let run = &self.text[run_start..self.pos];
            if self.bytes[self.pos] == b'"' {
                self.pos += 1;
                return Ok(match owned {
                    None => Cow::Borrowed(run),
                    Some(mut s) => {
                        s.push_str(run);
                        Cow::Owned(s)
                    }
                });
            }
            let s = owned.get_or_insert_with(String::new);
            s.push_str(run);
            self.pos += 1;
            match self.peek() {
                Some(b'"') => s.push('"'),
                Some(b'\\') => s.push('\\'),
                Some(b'/') => s.push('/'),
                Some(b'n') => s.push('\n'),
                Some(b'r') => s.push('\r'),
                Some(b't') => s.push('\t'),
                Some(b'u') => {
                    let hex = self
                        .bytes
                        .get(self.pos + 1..self.pos + 5)
                        .ok_or("truncated \\u escape")?;
                    let code = std::str::from_utf8(hex)
                        .ok()
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .ok_or("invalid \\u escape")?;
                    s.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    self.pos += 4;
                }
                other => return Err(format!("bad escape {other:?}")),
            }
            self.pos += 1;
        }
    }

    fn parse_number(&mut self) -> &'a str {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        &self.text[start..self.pos]
    }

    fn at_end(&mut self) -> bool {
        self.skip_ws();
        self.pos == self.bytes.len()
    }
}

fn parse_line(line: &str) -> Result<Json<'_>, String> {
    let mut p = Parser::new(line);
    let v = p.parse_value()?;
    if !p.at_end() {
        return Err(String::from("trailing garbage after JSON value"));
    }
    Ok(v)
}

fn num_as<T: std::str::FromStr>(v: &Json, what: &str) -> Result<T, String> {
    match v {
        Json::Num(raw) => raw.parse().map_err(|_| format!("bad {what}: {raw:?}")),
        other => Err(format!("{what} is not a number: {other:?}")),
    }
}

fn field<'a, 'j>(obj: &'a Json<'j>, key: &str) -> Result<&'a Json<'j>, String> {
    obj.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn parse_header(line: &str) -> Result<JournalHeader, FiError> {
    let as_err = |detail: String| FiError::Journal { line: 1, detail };
    let obj = parse_line(line).map_err(as_err)?;
    let version: u64 =
        num_as(field(&obj, "rustfi_journal").map_err(as_err)?, "version").map_err(as_err)?;
    if version != JOURNAL_VERSION {
        return Err(as_err(format!(
            "journal version {version} (this build reads {JOURNAL_VERSION})"
        )));
    }
    let seed = num_as(field(&obj, "seed").map_err(as_err)?, "seed").map_err(as_err)?;
    let trials = num_as(field(&obj, "trials").map_err(as_err)?, "trials").map_err(as_err)?;
    let config_hash = num_as(field(&obj, "config").map_err(as_err)?, "config").map_err(as_err)?;
    let shard_index = num_as(field(&obj, "shard").map_err(as_err)?, "shard").map_err(as_err)?;
    let shard_count = num_as(field(&obj, "shards").map_err(as_err)?, "shards").map_err(as_err)?;
    if shard_count == 0 || shard_index >= shard_count {
        return Err(as_err(format!(
            "shard {shard_index} of {shard_count} is not a valid shard identity"
        )));
    }
    Ok(JournalHeader {
        seed,
        trials,
        config_hash,
        shard_index,
        shard_count,
    })
}

/// One parsed journal body line: a trial record, or a liveness heartbeat.
enum JournalLine {
    Record(TrialRecord),
    Heartbeat,
}

fn parse_journal_line(line: &str) -> Result<JournalLine, String> {
    let obj = parse_line(line)?;
    if obj.get("heartbeat").is_some() {
        return Ok(JournalLine::Heartbeat);
    }
    record_from_json(&obj).map(JournalLine::Record)
}

#[cfg(test)]
fn parse_record(line: &str) -> Result<TrialRecord, String> {
    record_from_json(&parse_line(line)?)
}

fn record_from_json(obj: &Json) -> Result<TrialRecord, String> {
    let trial = num_as(field(obj, "trial")?, "trial")?;
    let image_index = num_as(field(obj, "image_index")?, "image_index")?;
    let layer = num_as(field(obj, "layer")?, "layer")?;
    let site = match field(obj, "site")? {
        Json::Null => None,
        site @ Json::Obj(_) => Some(NeuronSite {
            layer: num_as(field(site, "layer")?, "site.layer")?,
            batch: match field(site, "batch")? {
                Json::Null => None,
                b => Some(num_as(b, "site.batch")?),
            },
            channel: num_as(field(site, "channel")?, "site.channel")?,
            y: num_as(field(site, "y")?, "site.y")?,
            x: num_as(field(site, "x")?, "site.x")?,
        }),
        other => return Err(format!("site is neither object nor null: {other:?}")),
    };
    let outcome = match field(obj, "outcome")? {
        Json::Str(label) => match label.as_ref() {
            "masked" => OutcomeKind::Masked,
            "sdc" => OutcomeKind::Sdc,
            "due" => OutcomeKind::Due,
            "hang" => OutcomeKind::Hang,
            "crash" => OutcomeKind::Crash {
                detail: match obj.get("detail") {
                    Some(Json::Str(d)) => d.to_string(),
                    _ => String::new(),
                },
            },
            other => return Err(format!("unknown outcome label {other:?}")),
        },
        other => return Err(format!("outcome is not a string: {other:?}")),
    };
    let due_layer = match field(obj, "due_layer")? {
        Json::Null => None,
        v => Some(num_as(v, "due_layer")?),
    };
    let top5_miss = match field(obj, "top5_miss")? {
        Json::Bool(b) => *b,
        other => return Err(format!("top5_miss is not a bool: {other:?}")),
    };
    let confidence_delta = num_as(field(obj, "confidence_delta")?, "confidence_delta")?;
    Ok(TrialRecord {
        trial,
        image_index,
        layer,
        site,
        outcome,
        due_layer,
        top5_miss,
        confidence_delta,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<TrialRecord> {
        vec![
            TrialRecord {
                trial: 0,
                image_index: 3,
                layer: 1,
                site: Some(NeuronSite {
                    layer: 1,
                    batch: None,
                    channel: 2,
                    y: 4,
                    x: 5,
                }),
                outcome: OutcomeKind::Masked,
                due_layer: None,
                top5_miss: false,
                confidence_delta: -0.012345678,
            },
            TrialRecord {
                trial: 1,
                image_index: 0,
                layer: 2,
                site: Some(NeuronSite {
                    layer: 2,
                    batch: Some(7),
                    channel: 0,
                    y: 0,
                    x: 1,
                }),
                outcome: OutcomeKind::Due,
                due_layer: Some(9),
                top5_miss: true,
                confidence_delta: -0.75,
            },
            TrialRecord {
                trial: 2,
                image_index: 5,
                layer: usize::MAX,
                site: None,
                outcome: OutcomeKind::Crash {
                    detail: "index 99 out of bounds: \"quoted\"\nsecond line \\ tab\t".into(),
                },
                due_layer: None,
                top5_miss: true,
                confidence_delta: 0.0,
            },
            TrialRecord {
                trial: 3,
                image_index: 2,
                layer: 0,
                site: None,
                outcome: OutcomeKind::Hang,
                due_layer: None,
                top5_miss: true,
                confidence_delta: 0.0,
            },
        ]
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("rustfi-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn records_roundtrip_bit_exactly() {
        let path = tmp("roundtrip.jsonl");
        let header = JournalHeader {
            seed: u64::MAX - 3,
            trials: 4,
            config_hash: u64::MAX - 7,
            shard_index: 2,
            shard_count: 5,
        };
        let mut w = JournalWriter::create(&path, header).unwrap();
        for r in &sample_records() {
            w.append(r, &path).unwrap();
        }
        drop(w);
        let (h, rs) = read_journal(&path).unwrap();
        assert_eq!(h, header, "u64 seed survives without f64 precision loss");
        assert_eq!(rs, sample_records());
    }

    #[test]
    fn append_after_reopen_continues_the_file() {
        let path = tmp("reopen.jsonl");
        let header = JournalHeader::solo(1, 4, 99);
        let records = sample_records();
        let mut w = JournalWriter::create(&path, header).unwrap();
        w.append(&records[0], &path).unwrap();
        drop(w);
        let mut w = JournalWriter::open_append(&path).unwrap();
        w.append(&records[1], &path).unwrap();
        drop(w);
        let (_, rs) = read_journal(&path).unwrap();
        assert_eq!(rs, records[..2]);
    }

    #[test]
    fn torn_final_line_is_ignored() {
        let path = tmp("torn.jsonl");
        let mut w = JournalWriter::create(&path, JournalHeader::solo(2, 4, 0)).unwrap();
        w.append(&sample_records()[0], &path).unwrap();
        drop(w);
        // Simulate a kill mid-write: half a record at the end.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"trial\":1,\"image_index\":0,\"lay");
        std::fs::write(&path, text).unwrap();
        let (_, rs) = read_journal(&path).unwrap();
        assert_eq!(rs.len(), 1, "torn line dropped, valid prefix kept");
    }

    #[test]
    fn repairing_truncates_the_torn_tail_for_safe_appends() {
        let path = tmp("repair.jsonl");
        let records = sample_records();
        let mut w = JournalWriter::create(&path, JournalHeader::solo(3, 4, 0)).unwrap();
        w.append(&records[0], &path).unwrap();
        drop(w);
        let clean_len = std::fs::metadata(&path).unwrap().len();
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"trial\":1,\"ima");
        std::fs::write(&path, &text).unwrap();

        let (_, rs) = read_journal_repairing(&path).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            clean_len,
            "torn tail removed"
        );
        // The file is now safe to append to: no line merging.
        let mut w = JournalWriter::open_append(&path).unwrap();
        w.append(&records[1], &path).unwrap();
        drop(w);
        let (_, rs) = read_journal(&path).unwrap();
        assert_eq!(rs, records[..2]);
    }

    #[test]
    fn corruption_before_the_end_is_an_error() {
        let path = tmp("corrupt.jsonl");
        let records = sample_records();
        let mut w = JournalWriter::create(&path, JournalHeader::solo(2, 4, 0)).unwrap();
        w.append(&records[0], &path).unwrap();
        drop(w);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("not json at all\n");
        text.push_str(&record_to_json(&records[1]));
        text.push('\n');
        std::fs::write(&path, text).unwrap();
        let err = read_journal(&path).unwrap_err();
        assert!(
            matches!(err, FiError::Journal { line: 3, .. }),
            "corruption at line 3 reported: {err}"
        );
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_journal(Path::new("/nonexistent/rustfi.jsonl")).unwrap_err();
        assert!(matches!(err, FiError::Io { .. }), "{err}");
    }

    #[test]
    fn bad_header_is_rejected() {
        let path = tmp("bad-header.jsonl");
        std::fs::write(&path, "{\"seed\":1}\n").unwrap();
        let err = read_journal(&path).unwrap_err();
        assert!(matches!(err, FiError::Journal { line: 1, .. }), "{err}");

        std::fs::write(&path, "{\"rustfi_journal\":99,\"seed\":1,\"trials\":2}\n").unwrap();
        let err = read_journal(&path).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");

        // A v1 journal (no config fingerprint, no shard identity) is
        // refused by the version gate, never half-interpreted.
        std::fs::write(&path, "{\"rustfi_journal\":1,\"seed\":1,\"trials\":2}\n").unwrap();
        let err = read_journal(&path).unwrap_err();
        assert!(err.to_string().contains("version 1"), "{err}");

        // A self-contradictory shard identity is rejected.
        std::fs::write(
            &path,
            "{\"rustfi_journal\":2,\"seed\":1,\"trials\":2,\"config\":0,\"shard\":3,\"shards\":2}\n",
        )
        .unwrap();
        let err = read_journal(&path).unwrap_err();
        assert!(err.to_string().contains("shard 3 of 2"), "{err}");
    }

    #[test]
    fn heartbeats_are_skipped_and_survive_repair() {
        let path = tmp("heartbeat.jsonl");
        let _ = std::fs::remove_file(&path);
        let records = sample_records();
        assert!(
            !append_heartbeat(&path).unwrap(),
            "no file yet: heartbeat declines to create one"
        );
        assert!(!path.exists());

        let mut w = JournalWriter::create(&path, JournalHeader::solo(4, 4, 7)).unwrap();
        w.append(&records[0], &path).unwrap();
        assert!(append_heartbeat(&path).unwrap());
        w.append(&records[1], &path).unwrap();
        assert!(append_heartbeat(&path).unwrap());
        drop(w);

        let (h, rs) = read_journal(&path).unwrap();
        assert_eq!(h.config_hash, 7);
        assert_eq!(rs, records[..2], "heartbeats carry no trial state");

        // A torn *heartbeat* tail repairs exactly like a torn record tail.
        let mut text = std::fs::read_to_string(&path).unwrap();
        let clean_len = text.len() as u64;
        text.push_str("{\"heartbe");
        std::fs::write(&path, &text).unwrap();
        let (_, rs) = read_journal_repairing(&path).unwrap();
        assert_eq!(rs, records[..2]);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
    }

    /// Header, records, heartbeats and a torn final line, as a killed
    /// worker's journal looks.
    fn journal_bytes(corrupt_line: bool) -> Vec<u8> {
        let records = sample_records();
        let mut text = String::from(
            "{\"rustfi_journal\":2,\"seed\":6,\"trials\":4,\"config\":1,\"shard\":0,\"shards\":1}\n",
        );
        for (i, r) in records.iter().enumerate() {
            text.push_str(&record_to_json(r));
            text.push('\n');
            if i == 1 {
                text.push_str("{\"heartbeat\":1700000000000}\n");
            }
            if corrupt_line && i == 2 {
                text.push_str("{\"trial\":9,\"oops\n");
            }
        }
        text.push_str("{\"heartbeat\":17");
        text.into_bytes()
    }

    #[test]
    fn tail_grown_byte_by_byte_matches_one_shot_reads() {
        for corrupt_line in [false, true] {
            let path = tmp(&format!("tail-grow-{corrupt_line}.jsonl"));
            let bytes = journal_bytes(corrupt_line);
            std::fs::write(&path, b"").unwrap();
            let mut file = OpenOptions::new().append(true).open(&path).unwrap();
            let mut tail = JournalTail::new();
            let mut errors = 0;
            let mut last_ok = 0;
            for end in 0..=bytes.len() {
                if end > 0 {
                    file.write_all(&bytes[end - 1..end]).unwrap();
                }
                let incremental = tail.refresh(&path);
                match read_whole(&path) {
                    Ok((header, records, valid_len)) => {
                        assert!(incremental.is_ok(), "prefix {end}: {incremental:?}");
                        assert_eq!(tail.header(), Some(&header), "prefix {end}");
                        assert_eq!(tail.records(), &records[..], "prefix {end}");
                        assert_eq!(tail.valid_len(), valid_len, "prefix {end}");
                        last_ok = records.len();
                    }
                    Err(e) => {
                        assert_eq!(incremental, Err(e.clone()), "prefix {end}");
                        assert_eq!(
                            tail.records().len(),
                            last_ok,
                            "a failed refresh adds nothing"
                        );
                        if matches!(e, FiError::Journal { line, .. } if line > 1) {
                            assert!(corrupt_line, "prefix {end}: {e}");
                            assert!(
                                matches!(e, FiError::Journal { line: 6, .. }),
                                "the corrupt line is line 6: {e}"
                            );
                            errors += 1;
                        }
                    }
                }
            }
            assert_eq!(tail.records().len() == 4, !corrupt_line);
            // One refresh over several lines that ends in an error keeps
            // none of the records it parsed on the way.
            let mut fresh = JournalTail::new();
            assert_eq!(fresh.refresh(&path).is_err(), corrupt_line);
            assert_eq!(fresh.records().is_empty(), corrupt_line);
            assert_eq!(errors > 0, corrupt_line, "the corrupt line was reached");
        }
    }

    #[test]
    fn tail_resets_when_the_file_is_truncated_or_recreated() {
        let path = tmp("tail-reset.jsonl");
        let records = sample_records();
        let mut w = JournalWriter::create(&path, JournalHeader::solo(7, 4, 0)).unwrap();
        w.append(&records[0], &path).unwrap();
        let mut tail = JournalTail::new();
        assert_eq!(tail.refresh(&path).unwrap(), 0);
        let one_record = tail.valid_len();
        for r in &records[1..] {
            w.append(r, &path).unwrap();
        }
        drop(w);
        assert_eq!(tail.refresh(&path).unwrap(), 1, "only the appended records");
        assert_eq!(tail.records(), &records[..]);
        assert_eq!(tail.refresh(&path).unwrap(), 4, "nothing new");

        // Truncated below the consumed prefix: start over.
        File::options()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(one_record)
            .unwrap();
        assert_eq!(tail.refresh(&path).unwrap(), 0, "restarted from byte 0");
        assert_eq!(tail.records(), &records[..1]);
        assert_eq!(tail.valid_len(), one_record);

        // Recreated longer, for another campaign: the anchor line no longer
        // matches, so the new header and records are read from the start.
        let mut w = JournalWriter::create(&path, JournalHeader::solo(8, 4, 0)).unwrap();
        for r in records.iter().rev() {
            w.append(r, &path).unwrap();
        }
        drop(w);
        assert_eq!(tail.refresh(&path).unwrap(), 0);
        assert_eq!(tail.header().map(|h| h.seed), Some(8));
        let reversed: Vec<TrialRecord> = records.iter().rev().cloned().collect();
        assert_eq!(tail.records(), &reversed[..]);
        assert_eq!(read_journal(&path).unwrap().1, reversed);

        // Removed: an I/O error that leaves the tail as it was.
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(tail.refresh(&path), Err(FiError::Io { .. })));
        assert_eq!(tail.records().len(), 4);
    }

    #[test]
    fn long_crash_details_with_escapes_and_multibyte_text_roundtrip() {
        let escaped = "panic: \"é\" at 日本\nline \u{1}\t\\ tail ".repeat(40);
        let plain = "ошибка 日本語 é ".repeat(40);
        for detail in [escaped, plain] {
            let r = TrialRecord {
                trial: 7,
                image_index: 1,
                layer: 3,
                site: None,
                outcome: OutcomeKind::Crash {
                    detail: detail.clone(),
                },
                due_layer: None,
                top5_miss: true,
                confidence_delta: 0.0,
            };
            let line = record_to_json(&r);
            assert_eq!(parse_record(&line).unwrap(), r, "{detail:?}");
            let path = tmp("crash-detail.jsonl");
            let mut w = JournalWriter::create(&path, JournalHeader::solo(1, 8, 0)).unwrap();
            w.append(&r, &path).unwrap();
            drop(w);
            assert_eq!(read_journal(&path).unwrap().1, vec![r]);
        }
    }

    #[test]
    fn f32_extremes_roundtrip() {
        for delta in [
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            1e-38,
            0.1 + 0.2,
            -0.999_999_94,
            f32::MAX,
        ] {
            let r = TrialRecord {
                trial: 0,
                image_index: 0,
                layer: 0,
                site: None,
                outcome: OutcomeKind::Sdc,
                due_layer: None,
                top5_miss: false,
                confidence_delta: delta,
            };
            let parsed = parse_record(&record_to_json(&r)).unwrap();
            assert_eq!(parsed.confidence_delta.to_bits(), delta.to_bits());
        }
    }
}
