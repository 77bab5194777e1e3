//! On-disk trace formats: a human-editable CSV and a compact binary `.sprt`.
//!
//! A *trace file* is a recorded arrival stream — the `(slot, input, output,
//! flow)` tuples a traffic generator produced, in emission order — plus
//! optional provenance metadata (port count, recorded slot span, the source
//! generator's label, and its analytic rate matrix).  The metadata is what
//! makes record→replay exact: a replayed trace reports the same traffic
//! label and offers the same rate matrix for stripe sizing as the generator
//! it was captured from, so a recorded scenario reproduces its original
//! report byte for byte.
//!
//! A file's encoding is read from its bytes: one that opens with the `SPRT`
//! magic is binary, any other is CSV.  A writer picks binary for a `.sprt`
//! path and CSV for any other.
//!
//! * **CSV** — `slot,input,output[,flow]` data lines preceded by `# key =
//!   value` metadata comments.  Editable by hand; any line order quirks
//!   (blank lines, extra comments) are tolerated, but slots must be
//!   non-decreasing.
//! * **`.sprt` binary** — `SPRT` magic, a fixed header carrying `n`, the
//!   slot span and the record count, optional label/matrix blocks, then
//!   LEB128 varint records with delta-encoded slots.  Compact (a few bytes
//!   per packet) and self-checking: the header count catches truncation.
//!
//! Reading is **streaming**: [`TraceReader`] holds one buffered file handle
//! and a bounded line/record scratch, never the whole trace, so memory stays
//! O(1) in the trace length.  It is also where a file's validity is decided,
//! for every consumer alike (`trace info`, `trace convert`, replay): slots
//! non-decreasing, ports in range, at most one packet per input per slot, no
//! slot past a declared span, and the declared record count.
//! [`TraceWriter`] is the mirror image and is what the `trace` CLI and
//! [`record_spec`] use to emit traces; it refuses a record under the
//! reader's own per-record rules, so it never writes a file the reader
//! refuses.
//!
//! All failures — missing file, bad header, truncated data, out-of-range
//! ports, non-monotone slots, input collisions, span and count mismatches —
//! surface as typed [`SpecError`]s carrying the file path, never as panics.

use crate::spec::{ScenarioSpec, SpecError};
use sprinklers_core::matrix::TrafficMatrix;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every binary trace file.
pub const SPRT_MAGIC: [u8; 4] = *b"SPRT";
/// Binary format version written by this crate.
pub const SPRT_VERSION: u16 = 1;
/// Upper bound on `repeat` knobs (guards against absurd replay lengths).
pub const MAX_REPEAT: u32 = 4096;
/// Upper bound on port counts (and therefore port indices) in trace files.
/// Headers and records are untrusted input: without this cap a corrupt or
/// crafted header's `n` would size an `n × n` matrix allocation, turning a
/// malformed file into an OOM abort instead of a typed [`SpecError`].
pub const MAX_TRACE_N: usize = 4096;
/// Upper bound on the label block in a `.sprt` header (same rationale).
const MAX_LABEL_BYTES: usize = 1 << 16;

/// One recorded arrival: the identity fields the engine needs to reinject
/// the packet exactly as the original generator offered it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Slot at which the packet arrived.
    pub slot: u64,
    /// Input port (`0..n`).
    pub input: usize,
    /// Output port (`0..n`).
    pub output: usize,
    /// Application-flow identifier (0 for flowless traffic).
    pub flow: u64,
}

/// Trace provenance metadata carried in file headers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceMeta {
    /// Port count of the recorded switch.  Always present in `.sprt`;
    /// optional in hand-written CSV (the replaying scenario's `n` is used).
    pub n: Option<usize>,
    /// Recorded slot span (the recording run's arrival phase length).
    /// `0` means "derive from the data" (last slot + 1).
    pub slots: u64,
    /// Label of the generator the trace was recorded from; replayed traces
    /// report it so record→replay reproduces reports exactly.
    pub label: Option<String>,
    /// Analytic rate matrix of the recorded generator (what matrix-driven
    /// stripe sizing saw); absent for hand-written traces, in which case
    /// replay derives an empirical matrix from the data.
    pub matrix: Option<TrafficMatrix>,
}

fn path_err(path: &Path, msg: impl Into<String>) -> SpecError {
    SpecError::new(msg.into()).context(format!("trace file {}", path.display()))
}

/// Reject trace labels that would corrupt line-structured output downstream.
/// A recorded label is replayed verbatim as the report's `traffic_label`, so
/// a newline (or a stray carriage return) in it would splice extra rows into
/// every merged CSV — and break the CSV trace header's own line framing.
/// Rejecting at both write and read time turns that silent corruption into a
/// typed error, including for hand-crafted binary traces (whose label block
/// can carry arbitrary bytes).  Commas stay legal: synthetic generator
/// labels such as `bursty(peak=1,burst≈16)` already contain them, the golden
/// CSVs pin those bytes, and rows stay attributable because the merged CSV's
/// leading `case` column is comma-free (validated at suite load).
fn validate_label(path: &Path, label: &str) -> Result<(), SpecError> {
    if label.contains('\n') || label.contains('\r') {
        return Err(path_err(
            path,
            "label contains a newline, which would corrupt CSV reports built \
             from the replayed trace"
                .to_string(),
        ));
    }
    Ok(())
}

/// The per-record rules of a trace file (module docs), kept once for the
/// reader, which refuses a file that breaks one, and the writer, which
/// refuses to write such a record.
#[derive(Debug)]
struct RecordRules {
    /// Port bound: the declared `n` (or the one [`TraceReader::require_n`]
    /// supplies), else [`MAX_TRACE_N`].
    ports: Option<usize>,
    /// Declared slot span; 0 declares none.
    slots: u64,
    /// Slot of the latest record admitted.
    prev_slot: Option<u64>,
    /// Slot of each input's latest record (grown on demand, at most
    /// [`MAX_TRACE_N`] entries), for the one-packet-per-input-per-slot rule.
    input_slots: Vec<Option<u64>>,
    /// Records admitted so far.
    records: u64,
}

impl RecordRules {
    fn new(ports: Option<usize>, slots: u64) -> Self {
        RecordRules {
            ports,
            slots,
            prev_slot: None,
            input_slots: Vec::new(),
            records: 0,
        }
    }

    /// Admit the next record of the file at `path`, or say which rule it
    /// breaks.
    fn admit(&mut self, path: &Path, record: &TraceRecord) -> Result<(), SpecError> {
        let number = self.records + 1;
        if let Some(prev) = self.prev_slot.filter(|&prev| record.slot < prev) {
            return Err(path_err(
                path,
                format!(
                    "non-monotone slots: record {number} has slot {} after slot {prev}",
                    record.slot
                ),
            ));
        }
        let n = self.ports.unwrap_or(MAX_TRACE_N);
        if record.input >= n || record.output >= n {
            return Err(path_err(
                path,
                format!(
                    "port out of range in record {number}: input {} output {} but n = {n}",
                    record.input, record.output
                ),
            ));
        }
        if self.slots > 0 && record.slot >= self.slots {
            return Err(path_err(
                path,
                format!(
                    "header declares {} slots but the trace contains slot {}",
                    self.slots, record.slot
                ),
            ));
        }
        if record.input >= self.input_slots.len() {
            self.input_slots.resize(record.input + 1, None);
        }
        let last = &mut self.input_slots[record.input];
        if *last == Some(record.slot) {
            return Err(path_err(
                path,
                format!(
                    "two packets at input {} in slot {}",
                    record.input, record.slot
                ),
            ));
        }
        *last = Some(record.slot);
        self.prev_slot = Some(record.slot);
        self.records += 1;
        Ok(())
    }

    /// Start again at the first record.
    fn restart(&mut self) {
        self.prev_slot = None;
        self.input_slots.clear();
        self.records = 0;
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Streaming trace reader: yields [`TraceRecord`]s one at a time from a
/// buffered file handle (memory stays bounded regardless of trace length)
/// and refuses any record that breaks the file-level rules (module docs).
#[derive(Debug)]
pub struct TraceReader {
    path: PathBuf,
    meta: TraceMeta,
    inner: ReaderImpl,
    rules: RecordRules,
    /// Declared record count (`.sprt` header, or a CSV `# entries =` line).
    declared_entries: Option<u64>,
}

#[derive(Debug)]
enum ReaderImpl {
    Csv {
        reader: BufReader<File>,
        line: String,
        line_no: u64,
        data_start: u64,
        data_line_no: u64,
    },
    Sprt {
        reader: BufReader<File>,
        data_start: u64,
    },
}

impl TraceReader {
    /// Open a trace file and parse its metadata header.  The encoding is
    /// read from the first bytes: the `SPRT` magic means binary, anything
    /// else is CSV.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, SpecError> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path).map_err(|e| path_err(&path, format!("cannot open: {e}")))?;
        let mut reader = BufReader::new(file);
        let io = |e: std::io::Error| path_err(&path, format!("read error: {e}"));
        let mut head = Vec::with_capacity(SPRT_MAGIC.len());
        (&mut reader)
            .take(SPRT_MAGIC.len() as u64)
            .read_to_end(&mut head)
            .map_err(io)?;
        let binary = head == SPRT_MAGIC;
        if !binary {
            reader.rewind().map_err(io)?;
        }
        let mut meta = TraceMeta::default();
        let mut declared_entries = None;
        let inner = if binary {
            let (parsed_meta, entries, data_start) = read_sprt_header(&path, &mut reader)?;
            meta = parsed_meta;
            declared_entries = Some(entries);
            ReaderImpl::Sprt { reader, data_start }
        } else {
            let mut line = String::new();
            let mut offset = 0u64;
            let mut line_no = 0u64;
            // Metadata comments and the optional column-header line come
            // before the first data line; remember where data starts so
            // rewinds can seek straight back to it.
            loop {
                let mark = offset;
                let mark_line = line_no;
                line.clear();
                let bytes = reader.read_line(&mut line).map_err(io)?;
                if bytes == 0 {
                    break; // data-free trace (metadata only, or empty file)
                }
                offset += bytes as u64;
                line_no += 1;
                let trimmed = line.trim();
                if trimmed.is_empty() {
                    continue;
                }
                if let Some(comment) = trimmed.strip_prefix('#') {
                    parse_csv_meta(&path, comment, &mut meta, &mut declared_entries)?;
                    continue;
                }
                if trimmed.split(',').next().map(str::trim) == Some("slot") {
                    continue; // column-header line
                }
                // First data line: rewind one line and stop.
                reader
                    .seek(SeekFrom::Start(mark))
                    .map_err(|e| path_err(&path, format!("seek error: {e}")))?;
                offset = mark;
                line_no = mark_line;
                break;
            }
            ReaderImpl::Csv {
                reader,
                line,
                line_no,
                data_start: offset,
                data_line_no: line_no,
            }
        };
        Ok(TraceReader {
            path,
            rules: RecordRules::new(meta.n, meta.slots),
            meta,
            inner,
            declared_entries,
        })
    }

    /// The trace's metadata header.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// The encoding being decoded: `"sprt"` or `"csv"`.
    pub fn encoding(&self) -> &'static str {
        match self.inner {
            ReaderImpl::Csv { .. } => "csv",
            ReaderImpl::Sprt { .. } => "sprt",
        }
    }

    /// Bind the trace to an `n`-port switch: a declared `n` must equal it,
    /// and a trace that declares none has its ports checked against `n`.
    pub fn require_n(&mut self, n: usize) -> Result<(), SpecError> {
        match self.meta.n {
            Some(declared) if declared != n => Err(path_err(
                &self.path,
                format!("trace was recorded for n = {declared} ports but the scenario has n = {n}"),
            )),
            _ => {
                self.rules.ports = Some(n);
                Ok(())
            }
        }
    }

    /// Seek back to the first record, so the trace can be streamed again
    /// (repeat replays, or a validation pass followed by the real run).
    pub fn rewind(&mut self) -> Result<(), SpecError> {
        let (reader, start) = match &mut self.inner {
            ReaderImpl::Csv {
                reader,
                line_no,
                data_start,
                data_line_no,
                ..
            } => {
                *line_no = *data_line_no;
                (reader, *data_start)
            }
            ReaderImpl::Sprt { reader, data_start } => (reader, *data_start),
        };
        reader
            .seek(SeekFrom::Start(start))
            .map_err(|e| path_err(&self.path, format!("seek error: {e}")))?;
        self.rules.restart();
        Ok(())
    }

    /// Read the next record, or `None` at a clean end of trace.
    pub fn next_record(&mut self) -> Result<Option<TraceRecord>, SpecError> {
        let record = match &mut self.inner {
            ReaderImpl::Csv {
                reader,
                line,
                line_no,
                ..
            } => loop {
                line.clear();
                let bytes = reader
                    .read_line(line)
                    .map_err(|e| path_err(&self.path, format!("read error: {e}")))?;
                if bytes == 0 {
                    if let Some(declared) = self.declared_entries {
                        if declared != self.rules.records {
                            return Err(path_err(
                                &self.path,
                                format!(
                                    "truncated trace: header declares {declared} entries \
                                     but the file contains {}",
                                    self.rules.records
                                ),
                            ));
                        }
                    }
                    break None;
                }
                *line_no += 1;
                let trimmed = line.trim();
                if trimmed.is_empty() || trimmed.starts_with('#') {
                    continue;
                }
                break Some(parse_csv_record(&self.path, trimmed, *line_no)?);
            },
            ReaderImpl::Sprt { reader, .. } => {
                let declared = self
                    .declared_entries
                    .expect("binary traces always declare a count");
                if self.rules.records == declared {
                    // Clean end; any trailing bytes mean the header count
                    // and the data disagree.
                    let mut probe = [0u8; 1];
                    match reader.read(&mut probe) {
                        Ok(0) => None,
                        Ok(_) => {
                            return Err(path_err(
                                &self.path,
                                format!(
                                    "trailing data after the {declared} records the \
                                     header declares"
                                ),
                            ))
                        }
                        Err(e) => return Err(path_err(&self.path, format!("read error: {e}"))),
                    }
                } else {
                    let base = self.rules.prev_slot.unwrap_or(0);
                    let truncated = |what: &str| {
                        path_err(
                            &self.path,
                            format!(
                                "truncated trace: file ended inside record {} of {declared} \
                                 (while reading {what})",
                                self.rules.records + 1
                            ),
                        )
                    };
                    let delta = read_varint(reader).map_err(|_| truncated("slot delta"))?;
                    let input = read_varint(reader).map_err(|_| truncated("input"))?;
                    let output = read_varint(reader).map_err(|_| truncated("output"))?;
                    let flow = read_varint(reader).map_err(|_| truncated("flow"))?;
                    let slot = base.checked_add(delta).ok_or_else(|| {
                        path_err(&self.path, "slot delta overflows u64".to_string())
                    })?;
                    // A binary header always declares n, so the rules bound
                    // the ports; one past usize saturates and fails there.
                    let port = |p: u64| usize::try_from(p).unwrap_or(usize::MAX);
                    Some(TraceRecord {
                        slot,
                        input: port(input),
                        output: port(output),
                        flow,
                    })
                }
            }
        };
        let Some(record) = record else {
            return Ok(None);
        };
        self.rules.admit(&self.path, &record)?;
        Ok(Some(record))
    }
}

fn parse_csv_meta(
    path: &Path,
    comment: &str,
    meta: &mut TraceMeta,
    declared_entries: &mut Option<u64>,
) -> Result<(), SpecError> {
    let Some((key, value)) = comment.split_once('=') else {
        return Ok(()); // free-form comment (e.g. the banner line)
    };
    let (key, value) = (key.trim(), value.trim());
    match key {
        "n" => {
            let n: usize = value
                .parse()
                .map_err(|_| path_err(path, format!("bad '# n = {value}' metadata")))?;
            if meta.matrix.is_some() {
                return Err(path_err(path, "'# n =' must come before '# matrix ='"));
            }
            if !(2..=MAX_TRACE_N).contains(&n) {
                return Err(path_err(
                    path,
                    format!("n must be in 2..={MAX_TRACE_N}, got {n}"),
                ));
            }
            meta.n = Some(n);
        }
        "slots" => {
            meta.slots = value
                .parse()
                .map_err(|_| path_err(path, format!("bad '# slots = {value}' metadata")))?;
        }
        "entries" => {
            *declared_entries = Some(
                value
                    .parse()
                    .map_err(|_| path_err(path, format!("bad '# entries = {value}' metadata")))?,
            );
        }
        "label" => {
            // Lines cannot smuggle '\n', but an interior '\r' survives the
            // line framing and would resurface in CSV reports.
            validate_label(path, value)?;
            meta.label = Some(value.to_string());
        }
        "matrix" => {
            let n = meta.n.ok_or_else(|| {
                path_err(path, "'# matrix =' must come after '# n ='".to_string())
            })?;
            let rates: Result<Vec<f64>, _> = value.split_whitespace().map(str::parse).collect();
            let rates = rates.map_err(|e| path_err(path, format!("bad matrix value: {e}")))?;
            if rates.len() != n * n {
                return Err(path_err(
                    path,
                    format!(
                        "matrix has {} values, expected n*n = {}",
                        rates.len(),
                        n * n
                    ),
                ));
            }
            let matrix = TrafficMatrix::from_rates(n, rates)
                .map_err(|e| path_err(path, format!("bad matrix: {e}")))?;
            meta.matrix = Some(matrix);
        }
        _ => {} // unknown metadata keys are tolerated (hand-edited files)
    }
    Ok(())
}

fn parse_csv_record(path: &Path, line: &str, line_no: u64) -> Result<TraceRecord, SpecError> {
    let fields: Vec<&str> = line.split(',').map(str::trim).collect();
    if fields.len() != 3 && fields.len() != 4 {
        return Err(path_err(
            path,
            format!(
                "line {line_no}: expected 'slot,input,output[,flow]', got {} field(s)",
                fields.len()
            ),
        ));
    }
    let field = |idx: usize, what: &str| -> Result<u64, SpecError> {
        fields[idx].parse::<u64>().map_err(|_| {
            path_err(
                path,
                format!("line {line_no}: bad {what} '{}'", fields[idx]),
            )
        })
    };
    // Ports are bounded *before* the usize cast: untrusted values must not
    // drive allocations (or wrap on 32-bit targets) downstream.
    let port = |idx: usize, what: &str| -> Result<usize, SpecError> {
        let value = field(idx, what)?;
        if value >= MAX_TRACE_N as u64 {
            return Err(path_err(
                path,
                format!("line {line_no}: {what} {value} is out of range (max n is {MAX_TRACE_N})"),
            ));
        }
        Ok(value as usize)
    };
    Ok(TraceRecord {
        slot: field(0, "slot")?,
        input: port(1, "input")?,
        output: port(2, "output")?,
        flow: if fields.len() == 4 {
            field(3, "flow")?
        } else {
            0
        },
    })
}

fn read_sprt_header(
    path: &Path,
    reader: &mut BufReader<File>,
) -> Result<(TraceMeta, u64, u64), SpecError> {
    // `TraceReader::open` has read the magic.
    let truncated = |what: &str| path_err(path, format!("truncated header (reading {what})"));
    let version = read_u16(reader).map_err(|_| truncated("version"))?;
    if version != SPRT_VERSION {
        return Err(path_err(
            path,
            format!("unsupported .sprt version {version} (this build reads {SPRT_VERSION})"),
        ));
    }
    let n = read_u32(reader).map_err(|_| truncated("n"))? as usize;
    if !(2..=MAX_TRACE_N).contains(&n) {
        // The bound doubles as allocation armor: n sizes the n*n matrix
        // block below, and headers are untrusted input.
        return Err(path_err(
            path,
            format!("n must be in 2..={MAX_TRACE_N}, got {n}"),
        ));
    }
    let slots = read_u64(reader).map_err(|_| truncated("slots"))?;
    let entries = read_u64(reader).map_err(|_| truncated("entry count"))?;
    let mut flags = [0u8; 1];
    reader
        .read_exact(&mut flags)
        .map_err(|_| truncated("flags"))?;
    let flags = flags[0];
    if flags & !0b11 != 0 {
        return Err(path_err(path, format!("unknown header flags {flags:#04x}")));
    }
    let mut header_len = 4 + 2 + 4 + 8 + 8 + 1;
    let label = if flags & 0b10 != 0 {
        let len = read_u32(reader).map_err(|_| truncated("label length"))? as usize;
        if len > MAX_LABEL_BYTES {
            return Err(path_err(
                path,
                format!("label length {len} is implausible (max {MAX_LABEL_BYTES})"),
            ));
        }
        let mut buf = vec![0u8; len];
        reader
            .read_exact(&mut buf)
            .map_err(|_| truncated("label"))?;
        header_len += 4 + len as u64;
        let label = String::from_utf8(buf)
            .map_err(|_| path_err(path, "label is not valid UTF-8".to_string()))?;
        validate_label(path, &label)?;
        Some(label)
    } else {
        None
    };
    let matrix = if flags & 0b01 != 0 {
        let mut rates = Vec::with_capacity(n * n);
        for _ in 0..n * n {
            rates.push(f64::from_le_bytes(
                read_array::<8>(reader).map_err(|_| truncated("matrix"))?,
            ));
        }
        header_len += (n * n * 8) as u64;
        Some(
            TrafficMatrix::from_rates(n, rates)
                .map_err(|e| path_err(path, format!("bad matrix: {e}")))?,
        )
    } else {
        None
    };
    Ok((
        TraceMeta {
            n: Some(n),
            slots,
            label,
            matrix,
        },
        entries,
        header_len,
    ))
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Streaming trace writer: records go straight to a buffered file as they
/// are produced (bounded memory), and [`TraceWriter::finish`] patches the
/// binary header's record count and slot span.
#[derive(Debug)]
pub struct TraceWriter {
    path: PathBuf,
    /// `.sprt` output (else CSV).
    binary: bool,
    writer: BufWriter<File>,
    rules: RecordRules,
    /// Byte offset of the CSV `# entries =` placeholder, patched by
    /// [`Self::finish`] so written CSVs are truncation-checked like `.sprt`.
    csv_entries_offset: Option<u64>,
}

/// Width of the CSV entries placeholder (patched in place, so fixed-size).
const CSV_ENTRIES_WIDTH: usize = 20;

impl TraceWriter {
    /// Create a trace file and write its metadata header: binary for a
    /// `.sprt` path, CSV for any other.  Binary traces require `meta.n` (the
    /// header stores it); CSV traces emit whatever metadata is present.
    pub fn create(path: impl AsRef<Path>, meta: &TraceMeta) -> Result<Self, SpecError> {
        let path = path.as_ref().to_path_buf();
        let binary = path.extension().is_some_and(|e| e == "sprt");
        if let Some(n) = meta.n {
            if !(2..=MAX_TRACE_N).contains(&n) {
                return Err(path_err(
                    &path,
                    format!("trace files support n in 2..={MAX_TRACE_N}, got {n}"),
                ));
            }
        }
        if let Some(label) = &meta.label {
            // Fail fast at write time too — a file we wrote should never be
            // one our own reader rejects.
            validate_label(&path, label)?;
        }
        let file =
            File::create(&path).map_err(|e| path_err(&path, format!("cannot create: {e}")))?;
        let mut writer = BufWriter::new(file);
        let io = |e: std::io::Error| path_err(&path, format!("write error: {e}"));
        let mut csv_entries_offset = None;
        if binary {
            let n = meta.n.ok_or_else(|| {
                path_err(
                    &path,
                    "binary traces require a port count (meta.n)".to_string(),
                )
            })?;
            if let Some(matrix) = &meta.matrix {
                if matrix.n() != n {
                    return Err(path_err(
                        &path,
                        format!("matrix is {}x{} but n = {n}", matrix.n(), matrix.n()),
                    ));
                }
            }
            let mut flags = 0u8;
            if meta.matrix.is_some() {
                flags |= 0b01;
            }
            if meta.label.is_some() {
                flags |= 0b10;
            }
            writer.write_all(&SPRT_MAGIC).map_err(io)?;
            writer.write_all(&SPRT_VERSION.to_le_bytes()).map_err(io)?;
            writer.write_all(&(n as u32).to_le_bytes()).map_err(io)?;
            writer.write_all(&meta.slots.to_le_bytes()).map_err(io)?;
            writer.write_all(&0u64.to_le_bytes()).map_err(io)?; // count, patched
            writer.write_all(&[flags]).map_err(io)?;
            if let Some(label) = &meta.label {
                writer
                    .write_all(&(label.len() as u32).to_le_bytes())
                    .map_err(io)?;
                writer.write_all(label.as_bytes()).map_err(io)?;
            }
            if let Some(matrix) = &meta.matrix {
                for i in 0..n {
                    for j in 0..n {
                        writer
                            .write_all(&matrix.rate(i, j).to_le_bytes())
                            .map_err(io)?;
                    }
                }
            }
        } else {
            writeln!(writer, "# sprinklers trace v1").map_err(io)?;
            if let Some(n) = meta.n {
                writeln!(writer, "# n = {n}").map_err(io)?;
            }
            if meta.slots > 0 {
                writeln!(writer, "# slots = {}", meta.slots).map_err(io)?;
            }
            if let Some(label) = &meta.label {
                // Validated newline-free above, so the header's line
                // framing is safe without silent rewriting.
                writeln!(writer, "# label = {label}").map_err(io)?;
            }
            if let Some(matrix) = &meta.matrix {
                let n = matrix.n();
                let mut line = String::from("# matrix =");
                for i in 0..n {
                    for j in 0..n {
                        line.push(' ');
                        line.push_str(&format!("{}", matrix.rate(i, j)));
                    }
                }
                writeln!(writer, "{line}").map_err(io)?;
            }
            // Fixed-width record count, patched by `finish`: a recorded
            // CSV that later loses its tail at a line boundary must
            // fail as "truncated", exactly like the binary header.
            let position = writer.stream_position().map_err(io)?;
            csv_entries_offset = Some(position + "# entries = ".len() as u64);
            writeln!(writer, "# entries = {:>CSV_ENTRIES_WIDTH$}", 0).map_err(io)?;
            writeln!(writer, "slot,input,output,flow").map_err(io)?;
        }
        Ok(TraceWriter {
            path,
            binary,
            writer,
            rules: RecordRules::new(meta.n, meta.slots),
            csv_entries_offset,
        })
    }

    /// Append one record, which must meet the rules readers enforce:
    /// slots non-decreasing, ports in range (of `n` when it is known), at
    /// most one packet per input per slot, and no slot past a declared span.
    pub fn write(&mut self, record: &TraceRecord) -> Result<(), SpecError> {
        let base = self.rules.prev_slot.unwrap_or(0);
        self.rules.admit(&self.path, record)?;
        let io = |e: std::io::Error| path_err(&self.path, format!("write error: {e}"));
        if self.binary {
            write_varint(&mut self.writer, record.slot - base).map_err(io)?;
            write_varint(&mut self.writer, record.input as u64).map_err(io)?;
            write_varint(&mut self.writer, record.output as u64).map_err(io)?;
            write_varint(&mut self.writer, record.flow).map_err(io)?;
        } else {
            writeln!(
                self.writer,
                "{},{},{},{}",
                record.slot, record.input, record.output, record.flow
            )
            .map_err(io)?;
        }
        Ok(())
    }

    /// Flush and close the file, patching the binary header's record count
    /// (and the slot span, when it was created as 0 = "derive").  Returns
    /// `(records_written, slot_span)`.
    pub fn finish(mut self) -> Result<(u64, u64), SpecError> {
        let span = if self.rules.slots > 0 {
            self.rules.slots
        } else {
            self.rules.prev_slot.map_or(0, |s| s + 1)
        };
        let io = |e: std::io::Error| path_err(&self.path, format!("write error: {e}"));
        self.writer.flush().map_err(io)?;
        let file = self.writer.get_mut();
        if self.binary {
            file.seek(SeekFrom::Start(10)).map_err(io)?;
            file.write_all(&span.to_le_bytes()).map_err(io)?;
            file.write_all(&self.rules.records.to_le_bytes())
                .map_err(io)?;
        } else {
            let offset = self
                .csv_entries_offset
                .expect("CSV writers always reserve an entries placeholder");
            file.seek(SeekFrom::Start(offset)).map_err(io)?;
            write!(file, "{:>CSV_ENTRIES_WIDTH$}", self.rules.records).map_err(io)?;
        }
        file.flush().map_err(io)?;
        Ok((self.rules.records, span))
    }
}

// ---------------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------------

/// Record the arrival stream a scenario's traffic generator produces — the
/// exact packets the engine would inject during the spec's arrival phase —
/// into a trace file, with full provenance metadata (`n`, slot span, the
/// generator's label and its rate matrix, the one `Engine::run` sizes the
/// switch from).
///
/// Replaying the result with `TrafficSpec::Trace` under the same scheme,
/// seed and run configuration reproduces the original report byte for byte;
/// this is what the `trace record` CLI subcommand calls.  The encoding
/// follows `out`'s extension ([`TraceWriter::create`]).  Returns
/// `(records_written, slot_span)`.
pub fn record_spec(spec: &ScenarioSpec, out: impl AsRef<Path>) -> Result<(u64, u64), SpecError> {
    let mut traffic = spec.build_traffic()?;
    let meta = TraceMeta {
        n: Some(spec.n),
        slots: spec.run.slots,
        label: Some(traffic.label()),
        matrix: Some(traffic.rate_matrix()),
    };
    let mut writer = TraceWriter::create(out, &meta)?;
    let mut buf = Vec::new();
    for slot in 0..spec.run.slots {
        buf.clear();
        traffic.arrivals_into(slot, &mut buf);
        for packet in &buf {
            writer.write(&TraceRecord {
                slot,
                input: packet.input(),
                output: packet.output(),
                flow: packet.flow,
            })?;
        }
    }
    writer.finish()
}

// ---------------------------------------------------------------------------
// Varint + fixed-width helpers
// ---------------------------------------------------------------------------

fn write_varint(w: &mut impl Write, mut v: u64) -> std::io::Result<()> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

fn read_varint(r: &mut impl Read) -> std::io::Result<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        let byte = byte[0];
        if shift >= 63 && byte > 1 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "varint overflows u64",
            ));
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

fn read_array<const N: usize>(r: &mut impl Read) -> std::io::Result<[u8; N]> {
    let mut buf = [0u8; N];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

fn read_u16(r: &mut impl Read) -> std::io::Result<u16> {
    Ok(u16::from_le_bytes(read_array::<2>(r)?))
}

fn read_u32(r: &mut impl Read) -> std::io::Result<u32> {
    Ok(u32::from_le_bytes(read_array::<4>(r)?))
}

fn read_u64(r: &mut impl Read) -> std::io::Result<u64> {
    Ok(u64::from_le_bytes(read_array::<8>(r)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("sprinklers-trace-io-{}-{name}", std::process::id()))
    }

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            TraceRecord {
                slot: 0,
                input: 1,
                output: 3,
                flow: 7,
            },
            TraceRecord {
                slot: 0,
                input: 2,
                output: 0,
                flow: 0,
            },
            TraceRecord {
                slot: 4,
                input: 0,
                output: 2,
                flow: 9,
            },
            TraceRecord {
                slot: 4,
                input: 1,
                output: 1,
                flow: 7,
            },
            TraceRecord {
                slot: 9,
                input: 3,
                output: 3,
                flow: 1,
            },
        ]
    }

    fn write_all(path: &Path, meta: &TraceMeta, recs: &[TraceRecord]) {
        let mut w = TraceWriter::create(path, meta).unwrap();
        for r in recs {
            w.write(r).unwrap();
        }
        w.finish().unwrap();
    }

    fn read_all(path: &Path) -> Vec<TraceRecord> {
        let mut r = TraceReader::open(path).unwrap();
        let mut out = Vec::new();
        while let Some(rec) = r.next_record().unwrap() {
            out.push(rec);
        }
        out
    }

    #[test]
    fn both_formats_round_trip_records_and_metadata() {
        let meta = TraceMeta {
            n: Some(4),
            slots: 12,
            label: Some("bernoulli-uniform(rho=0.5)".into()),
            matrix: Some(TrafficMatrix::uniform(4, 0.5)),
        };
        for format in ["csv", "sprt"] {
            let path = tmp(&format!("roundtrip.{format}"));
            write_all(&path, &meta, &sample_records());
            let mut reader = TraceReader::open(&path).unwrap();
            assert_eq!(reader.encoding(), format);
            assert_eq!(reader.meta(), &meta, "{format} metadata");
            let mut recs = Vec::new();
            while let Some(r) = reader.next_record().unwrap() {
                recs.push(r);
            }
            assert_eq!(recs, sample_records(), "{format} records");
            // Rewind streams the identical records again.
            reader.rewind().unwrap();
            let mut again = Vec::new();
            while let Some(r) = reader.next_record().unwrap() {
                again.push(r);
            }
            assert_eq!(again, recs, "{format} rewind");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn format_is_chosen_by_extension() {
        // Writing: `.sprt` is binary, any other name (or none) is CSV.
        let meta = TraceMeta {
            n: Some(4),
            ..TraceMeta::default()
        };
        let (sprt, csv, bare) = (tmp("ext.sprt"), tmp("ext.csv"), tmp("ext"));
        for path in [&sprt, &csv, &bare] {
            write_all(path, &meta, &sample_records());
        }
        assert!(std::fs::read(&sprt).unwrap().starts_with(&SPRT_MAGIC));
        assert!(std::fs::read(&csv)
            .unwrap()
            .starts_with(b"# sprinklers trace"));
        assert_eq!(std::fs::read(&bare).unwrap(), std::fs::read(&csv).unwrap());
        // Reading goes by the bytes: a `.sprt` under any other name still
        // reads as binary.
        for name in ["ext-copy.bin", "ext-copy.csv"] {
            let copy = tmp(name);
            std::fs::copy(&sprt, &copy).unwrap();
            assert_eq!(TraceReader::open(&copy).unwrap().encoding(), "sprt");
            assert_eq!(read_all(&copy), sample_records(), "{name}");
            std::fs::remove_file(&copy).ok();
        }
        for path in [&sprt, &csv, &bare] {
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn hand_written_csv_without_metadata_parses() {
        let path = tmp("hand.csv");
        std::fs::write(&path, "5,0,1\n7,1,0,42\n\n# trailing comment\n").unwrap();
        let recs = read_all(&path);
        assert_eq!(recs.len(), 2);
        assert_eq!(
            recs[0],
            TraceRecord {
                slot: 5,
                input: 0,
                output: 1,
                flow: 0
            }
        );
        assert_eq!(recs[1].flow, 42);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_binary_is_a_typed_error() {
        let path = tmp("trunc.sprt");
        let meta = TraceMeta {
            n: Some(4),
            ..TraceMeta::default()
        };
        write_all(&path, &meta, &sample_records());
        let full = std::fs::read(&path).unwrap();
        // Chop off the last few bytes: the reader must report truncation
        // (the header still declares 5 records), not panic or return Ok.
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let mut reader = TraceReader::open(&path).unwrap();
        let err = loop {
            match reader.next_record() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("truncated trace read cleanly"),
                Err(e) => break e.to_string(),
            }
        };
        assert!(err.contains("truncated"), "{err}");
        assert!(err.contains("trunc.sprt"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trailing_garbage_after_declared_count_is_rejected() {
        let path = tmp("trailing.sprt");
        let meta = TraceMeta {
            n: Some(4),
            ..TraceMeta::default()
        };
        write_all(&path, &meta, &sample_records());
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.push(0x00);
        std::fs::write(&path, &bytes).unwrap();
        let mut reader = TraceReader::open(&path).unwrap();
        let err = loop {
            match reader.next_record() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("trailing garbage read cleanly"),
                Err(e) => break e.to_string(),
            }
        };
        assert!(err.contains("trailing"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recorded_csv_truncated_at_a_line_boundary_is_detected() {
        // Losing whole trailing lines leaves a syntactically valid CSV; the
        // patched `# entries =` count is what catches it.
        let path = tmp("linetrunc.csv");
        let meta = TraceMeta {
            n: Some(4),
            ..TraceMeta::default()
        };
        write_all(&path, &meta, &sample_records());
        let text = std::fs::read_to_string(&path).unwrap();
        let shorter: String =
            text.lines()
                .take(text.lines().count() - 2)
                .fold(String::new(), |mut acc, line| {
                    acc.push_str(line);
                    acc.push('\n');
                    acc
                });
        std::fs::write(&path, shorter).unwrap();
        let mut reader = TraceReader::open(&path).unwrap();
        let err = loop {
            match reader.next_record() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("line-truncated trace read cleanly"),
                Err(e) => break e.to_string(),
            }
        };
        assert!(err.contains("truncated"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crafted_headers_cannot_drive_huge_allocations() {
        // A corrupt or hostile header must produce a typed error before any
        // header-sized allocation happens — never a capacity panic or OOM.
        let path = tmp("hostile.sprt");
        // n = u32::MAX with the matrix flag set.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&SPRT_MAGIC);
        bytes.extend_from_slice(&SPRT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.push(0b01);
        std::fs::write(&path, &bytes).unwrap();
        let err = TraceReader::open(&path).unwrap_err().to_string();
        assert!(err.contains(&MAX_TRACE_N.to_string()), "{err}");

        // Plausible n but an absurd label length.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&SPRT_MAGIC);
        bytes.extend_from_slice(&SPRT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.push(0b10);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = TraceReader::open(&path).unwrap_err().to_string();
        assert!(err.contains("label length"), "{err}");

        // A record's huge port index fails against the header's n.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&SPRT_MAGIC);
        bytes.extend_from_slice(&SPRT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.push(0);
        for v in [0, u64::MAX, 0, 0] {
            write_varint(&mut bytes, v).unwrap();
        }
        std::fs::write(&path, &bytes).unwrap();
        let err = TraceReader::open(&path)
            .unwrap()
            .next_record()
            .unwrap_err()
            .to_string();
        assert!(err.contains("out of range"), "{err}");

        // Huge port indices in a metadata-free CSV are typed errors too
        // (they used to size per-port bookkeeping in consumers).
        let csv = tmp("hostile.csv");
        std::fs::write(&csv, "0,18446744073709551615,0\n").unwrap();
        let mut reader = TraceReader::open(&csv).unwrap();
        let err = reader.next_record().unwrap_err().to_string();
        assert!(err.contains("out of range"), "{err}");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&csv).ok();
    }

    #[test]
    fn bad_magic_is_a_typed_error() {
        // Without the `SPRT` magic a file reads as CSV, whatever its name:
        // text that is no record and bytes that are no text both fail as
        // typed errors naming the file.
        let path = tmp("magic.sprt");
        std::fs::write(&path, b"NOPE-not-a-trace").unwrap();
        let mut reader = TraceReader::open(&path).unwrap();
        assert_eq!(reader.encoding(), "csv");
        let err = reader.next_record().unwrap_err().to_string();
        assert!(err.contains("line 1"), "{err}");
        assert!(err.contains("magic.sprt"), "{err}");
        std::fs::write(&path, [0xff, 0xfe, 0x00, 0x01, b'\n']).unwrap();
        let err = TraceReader::open(&path).unwrap_err().to_string();
        assert!(err.contains("magic.sprt"), "{err}");
        // With the magic, the rest of the header is held to the format.
        let mut bytes = SPRT_MAGIC.to_vec();
        bytes.extend_from_slice(&(SPRT_VERSION + 1).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = TraceReader::open(&path).unwrap_err().to_string();
        assert!(err.contains("unsupported .sprt version"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn newline_labels_are_rejected_at_write_time() {
        for format in ["csv", "sprt"] {
            for label in ["two\nlines", "carriage\rreturn"] {
                let path = tmp(&format!("badlabel.{format}"));
                let meta = TraceMeta {
                    n: Some(4),
                    label: Some(label.to_string()),
                    ..TraceMeta::default()
                };
                let err = TraceWriter::create(&path, &meta)
                    .err()
                    .map(|e| e.to_string())
                    .unwrap_or_else(|| panic!("{format}: label {label:?} was accepted"));
                assert!(err.contains("newline"), "{format}: {err}");
                std::fs::remove_file(&path).ok();
            }
        }
        // Commas stay legal: scenario labels like "bursty(peak=1,burst≈16)"
        // are golden-pinned and CSV reports quote nothing.
        let path = tmp("commalabel.csv");
        let meta = TraceMeta {
            n: Some(4),
            label: Some("bursty(peak=1,burst≈16)".into()),
            ..TraceMeta::default()
        };
        write_all(&path, &meta, &sample_records());
        assert_eq!(TraceReader::open(&path).unwrap().meta().label, meta.label);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csv_meta_label_with_carriage_return_is_rejected_at_open() {
        // '\n' cannot survive the line framing, but a bare '\r' can; it
        // would resurface verbatim inside CSV reports downstream.
        let path = tmp("crlabel.csv");
        std::fs::write(&path, "# label = split\rrow\n0,0,1\n").unwrap();
        let err = TraceReader::open(&path).unwrap_err().to_string();
        assert!(err.contains("newline"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn binary_labels_with_newlines_are_rejected_at_open() {
        // Hand-craft a header the writer now refuses to produce: old trace
        // files (or other producers) must not smuggle one past the reader.
        let path = tmp("nllabel.sprt");
        let label = b"two\nlines";
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&SPRT_MAGIC);
        bytes.extend_from_slice(&SPRT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.push(0b10);
        bytes.extend_from_slice(&(label.len() as u32).to_le_bytes());
        bytes.extend_from_slice(label);
        std::fs::write(&path, &bytes).unwrap();
        let err = TraceReader::open(&path).unwrap_err().to_string();
        assert!(err.contains("newline"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_range_ports_are_a_typed_error() {
        let path = tmp("range.csv");
        std::fs::write(&path, "# n = 4\n0,0,1\n1,9,0\n").unwrap();
        let mut reader = TraceReader::open(&path).unwrap();
        assert!(reader.next_record().unwrap().is_some());
        let err = reader.next_record().unwrap_err().to_string();
        assert!(err.contains("out of range"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_monotone_slots_are_a_typed_error() {
        let path = tmp("mono.csv");
        std::fs::write(&path, "4,0,1\n2,1,0\n").unwrap();
        let mut reader = TraceReader::open(&path).unwrap();
        assert!(reader.next_record().unwrap().is_some());
        let err = reader.next_record().unwrap_err().to_string();
        assert!(err.contains("non-monotone"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csv_entry_count_mismatch_is_a_typed_error() {
        let path = tmp("count.csv");
        std::fs::write(&path, "# entries = 3\n0,0,1\n1,1,0\n").unwrap();
        let mut reader = TraceReader::open(&path).unwrap();
        assert!(reader.next_record().unwrap().is_some());
        assert!(reader.next_record().unwrap().is_some());
        let err = reader.next_record().unwrap_err().to_string();
        assert!(err.contains("truncated"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_csv_lines_carry_line_numbers() {
        let path = tmp("badline.csv");
        std::fs::write(&path, "0,0,1\n1,zero,0\n").unwrap();
        let mut reader = TraceReader::open(&path).unwrap();
        assert!(reader.next_record().unwrap().is_some());
        let err = reader.next_record().unwrap_err().to_string();
        assert!(err.contains("line 2"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_a_typed_error_with_the_path() {
        let err = TraceReader::open("/nonexistent/trace.sprt")
            .unwrap_err()
            .to_string();
        assert!(err.contains("/nonexistent/trace.sprt"), "{err}");
    }

    #[test]
    fn writer_rejects_unordered_and_out_of_range_records() {
        let path = tmp("wcheck.sprt");
        let meta = TraceMeta {
            n: Some(4),
            ..TraceMeta::default()
        };
        let mut w = TraceWriter::create(&path, &meta).unwrap();
        w.write(&TraceRecord {
            slot: 5,
            input: 0,
            output: 1,
            flow: 0,
        })
        .unwrap();
        assert!(w
            .write(&TraceRecord {
                slot: 4,
                input: 0,
                output: 1,
                flow: 0
            })
            .is_err());
        assert!(w
            .write(&TraceRecord {
                slot: 6,
                input: 4,
                output: 1,
                flow: 0
            })
            .is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn binary_writer_requires_a_port_count() {
        let err = TraceWriter::create(tmp("no-n.sprt"), &TraceMeta::default())
            .unwrap_err()
            .to_string();
        assert!(err.contains("port count"), "{err}");
    }

    #[test]
    fn varints_round_trip_across_the_width_spectrum() {
        for v in [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v).unwrap();
            assert_eq!(read_varint(&mut buf.as_slice()).unwrap(), v);
        }
        // Truncated varint is an error, not a hang or a zero.
        assert!(read_varint(&mut [0x80u8].as_slice()).is_err());
    }

    #[test]
    fn record_spec_then_read_matches_the_generator() {
        use crate::spec::TrafficSpec;
        let spec = ScenarioSpec::new("oq", 4)
            .with_traffic(TrafficSpec::Uniform { load: 0.6 })
            .with_run(crate::engine::RunConfig {
                slots: 50,
                warmup_slots: 0,
                drain_slots: 0,
            })
            .with_seed(11);
        let path = tmp("record.sprt");
        let (written, span) = record_spec(&spec, &path).unwrap();
        assert_eq!(span, 50);
        let mut gen = spec.build_traffic().unwrap();
        let mut expected = Vec::new();
        for slot in 0..50u64 {
            for p in gen.arrivals(slot) {
                expected.push(TraceRecord {
                    slot,
                    input: p.input(),
                    output: p.output(),
                    flow: p.flow,
                });
            }
        }
        assert_eq!(written, expected.len() as u64);
        let reader = TraceReader::open(&path).unwrap();
        assert_eq!(reader.meta().n, Some(4));
        assert_eq!(reader.meta().slots, 50);
        assert!(reader.meta().label.is_some());
        assert!(reader.meta().matrix.is_some());
        assert_eq!(read_all(&path), expected);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recorded_matrix_is_the_generators_for_every_pattern() {
        use crate::spec::TrafficSpec;
        let run = crate::engine::RunConfig {
            slots: 40,
            warmup_slots: 0,
            drain_slots: 0,
        };
        let source = tmp("matrix-source.sprt");
        let mut patterns = vec![
            TrafficSpec::Uniform { load: 0.6 },
            TrafficSpec::Diagonal { load: 0.7 },
            TrafficSpec::Hotspot {
                load: 0.5,
                hot_fraction: 0.3,
            },
            TrafficSpec::Bursty {
                load: 0.4,
                peak: 0.9,
                mean_burst: 8.0,
            },
            TrafficSpec::Flows {
                load: 0.5,
                mean_flow_len: 4.0,
            },
        ];
        record_spec(
            &ScenarioSpec::new("oq", 8)
                .with_traffic(TrafficSpec::Diagonal { load: 0.3 })
                .with_run(run),
            &source,
        )
        .unwrap();
        patterns.push(TrafficSpec::Trace {
            path: source.to_string_lossy().into_owned(),
            repeat: 2,
            scale: 0.5,
        });
        for traffic in patterns {
            let spec = ScenarioSpec::new("oq", 8)
                .with_traffic(traffic)
                .with_run(run)
                .with_seed(5);
            let expected = spec.build_traffic().unwrap().rate_matrix();
            for format in ["csv", "sprt"] {
                let path = tmp(&format!("matrix-pattern.{format}"));
                record_spec(&spec, &path).unwrap();
                let reader = TraceReader::open(&path).unwrap();
                let recorded = reader.meta().matrix.as_ref().expect("a recorded matrix");
                assert_eq!(recorded.n(), 8);
                for i in 0..8 {
                    for j in 0..8 {
                        assert_eq!(
                            recorded.rate(i, j).to_bits(),
                            expected.rate(i, j).to_bits(),
                            "{:?} {format} ({i}, {j})",
                            spec.traffic
                        );
                    }
                }
                std::fs::remove_file(&path).ok();
            }
        }
        std::fs::remove_file(&source).ok();
    }

    #[test]
    fn writer_refuses_what_the_reader_refuses() {
        let record = |slot, input| TraceRecord {
            slot,
            input,
            output: 1,
            flow: 0,
        };
        for format in ["csv", "sprt"] {
            let path = tmp(&format!("wrules.{format}"));
            let meta = TraceMeta {
                n: Some(4),
                slots: 3,
                ..TraceMeta::default()
            };
            let mut w = TraceWriter::create(&path, &meta).unwrap();
            w.write(&record(0, 1)).unwrap();
            let err = w.write(&record(0, 1)).unwrap_err().to_string();
            assert!(err.contains("two packets at input 1 in slot 0"), "{err}");
            w.write(&record(2, 1)).unwrap();
            let err = w.write(&record(3, 2)).unwrap_err().to_string();
            assert!(
                err.contains("header declares 3 slots but the trace contains slot 3"),
                "{err}"
            );
            // What was written reads back whole.
            assert_eq!(w.finish().unwrap(), (2, 3));
            assert_eq!(read_all(&path), vec![record(0, 1), record(2, 1)]);
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn two_packets_at_one_input_in_one_slot_are_a_typed_error() {
        let path = tmp("collide.csv");
        std::fs::write(&path, "0,1,2\n0,2,2\n0,1,3\n").unwrap();
        let mut reader = TraceReader::open(&path).unwrap();
        assert!(reader.next_record().unwrap().is_some());
        assert!(reader.next_record().unwrap().is_some());
        let err = reader.next_record().unwrap_err().to_string();
        assert!(err.contains("two packets at input 1 in slot 0"), "{err}");
        // The rule holds again after a rewind, not against the last pass.
        reader.rewind().unwrap();
        assert!(reader.next_record().unwrap().is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_slot_past_the_declared_span_is_a_typed_error() {
        let path = tmp("pastspan.csv");
        std::fs::write(&path, "# slots = 1\n0,0,1\n3,0,1\n").unwrap();
        let mut reader = TraceReader::open(&path).unwrap();
        assert!(reader.next_record().unwrap().is_some());
        let err = reader.next_record().unwrap_err().to_string();
        assert!(
            err.contains("header declares 1 slots but the trace contains slot 3"),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn require_n_binds_ports_and_refuses_another_declared_n() {
        let path = tmp("requiren.csv");
        std::fs::write(&path, "0,0,1\n1,5,0\n").unwrap();
        let mut reader = TraceReader::open(&path).unwrap();
        reader.require_n(4).unwrap();
        assert!(reader.next_record().unwrap().is_some());
        let err = reader.next_record().unwrap_err().to_string();
        assert!(err.contains("but n = 4"), "{err}");
        std::fs::write(&path, "# n = 8\n0,0,1\n").unwrap();
        let err = TraceReader::open(&path)
            .unwrap()
            .require_n(16)
            .unwrap_err()
            .to_string();
        assert!(err.contains("n = 8") && err.contains("n = 16"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
