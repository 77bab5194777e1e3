//! Content-addressed experiment cache.
//!
//! Every [`ScenarioSpec`] has a *scientific identity*: the subset of its
//! fields that can change the simulation's result.  The inert `batch` and
//! `threads` fields are excluded, so entries written while they were
//! performance knobs stay hits, and so is the sizing of
//! `sprinklers-adaptive`, which runs one switch for `matrix` and `adaptive`
//! alike.  Hashing the identity (canonical JSON,
//! FNV-1a 128, plus a digest of a replayed trace's bytes) yields a stable
//! key, and
//! [`ExperimentCache`] maps that key to the finished run's CSV row, the
//! summary scalars the suite prints, and optionally the full metrics
//! sidecar line.
//!
//! Two properties matter for correctness:
//!
//! * **A hit must be indistinguishable from a recompute.**  The cache
//!   stores the exact `csv_row` string and the exact f64 bit patterns of
//!   the summary scalars, so suite output assembled from hits is
//!   byte-identical to a cold run.
//! * **A corrupt or foreign entry must read as a miss, never as data.**
//!   [`ExperimentCache::load`] parses the fixed v1 line format strictly
//!   and returns `None` on any deviation; the suite then simply
//!   recomputes the cell.
//!
//! Writes go through a temp file in the same directory followed by a
//! rename, so a crash mid-store leaves either the old entry or none — a
//! reader never sees a half-written file.  (Entries are written serially
//! by the suite's main thread; the scheme is not designed for concurrent
//! writers of the *same* key from different processes, where last-rename
//! wins — which is still a complete, valid entry.)
//!
//! The hasher is FNV-1a (128-bit) implemented inline: the workspace lint
//! gate bans `std::collections::hash_map::DefaultHasher` in library code
//! because its output is unspecified across releases, and cache keys must
//! be stable across builds.

use crate::report::SimReport;
use crate::spec::{ScenarioSpec, SizingSpec, TrafficSpec};
use std::fs;
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// FNV-1a offset basis for the 128-bit variant.
const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// FNV-1a prime for the 128-bit variant (2^88 + 2^8 + 0x3b).
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;

/// Hash `bytes` with 128-bit FNV-1a.
///
/// Stable across builds, platforms and releases (unlike `DefaultHasher`),
/// dependency-free, and 128 bits wide so accidental collisions between
/// distinct scenario identities are not a practical concern.
pub fn fnv1a_128(bytes: &[u8]) -> u128 {
    fnv1a_128_extend(FNV128_OFFSET, bytes)
}

/// Continue a 128-bit FNV-1a hash over more bytes.
fn fnv1a_128_extend(mut hash: u128, bytes: &[u8]) -> u128 {
    for &b in bytes {
        hash ^= u128::from(b);
        hash = hash.wrapping_mul(FNV128_PRIME);
    }
    hash
}

/// [`fnv1a_128`] of a file's bytes, read in bounded chunks; `None` when the
/// file cannot be read.
fn file_digest(path: &str) -> Option<u128> {
    let mut file = fs::File::open(path).ok()?;
    let mut chunk = vec![0u8; 1 << 16];
    let mut hash = FNV128_OFFSET;
    loop {
        match file.read(&mut chunk) {
            Ok(0) => return Some(hash),
            Ok(len) => hash = fnv1a_128_extend(hash, &chunk[..len]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return None,
        }
    }
}

impl ScenarioSpec {
    /// Canonical JSON for this scenario's *scientific identity*: the spec
    /// with the inert `batch` and `threads` fields normalised to the values
    /// [`ScenarioSpec::new`] gives them, rendered by the same writer that
    /// serialises spec files.  Two specs that differ only in those fields
    /// produce the same string.  So do two `sprinklers-adaptive` specs that
    /// differ only in `matrix` vs `adaptive` sizing: that scheme builds the
    /// same switch for both, so its sizing is written as `matrix`, the
    /// default.
    pub fn scientific_identity_json(&self) -> String {
        let defaults = ScenarioSpec::new(String::new(), 0);
        let mut identity = self.clone();
        identity.batch = defaults.batch;
        identity.threads = defaults.threads;
        if identity.scheme == "sprinklers-adaptive" && identity.sizing == SizingSpec::Adaptive {
            identity.sizing = defaults.sizing;
        }
        identity.to_json()
    }

    /// 128-bit content hash of [`Self::scientific_identity_json`], and for
    /// a trace replay also of the trace file's bytes.  This is the
    /// experiment cache key: it changes whenever any result-affecting field
    /// changes (scheme, n, sizing, traffic, run lengths, seed — for a trace
    /// its path, repeat, scale and contents) and stays fixed across
    /// `batch`/`threads` values.  An unreadable trace mixes in a fixed
    /// marker instead; running that spec fails on its own.
    pub fn content_hash(&self) -> u128 {
        let hash = fnv1a_128(self.scientific_identity_json().as_bytes());
        match &self.traffic {
            TrafficSpec::Trace { path, .. } => {
                let digest = file_digest(path).map_or(*b"unreadable trace", u128::to_le_bytes);
                fnv1a_128_extend(hash, &digest)
            }
            _ => hash,
        }
    }
}

/// Everything the suite needs to reproduce one finished run's output
/// without re-simulating: the exact CSV row, the scalars behind the
/// per-scheme summary table, and (when captured) the metrics sidecar
/// line.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedRun {
    /// The run's [`SimReport::csv_row`] output, verbatim.
    pub csv_row: String,
    /// Mean post-warm-up delay ([`crate::metrics::DelayStats::mean`]).
    pub mean_delay: f64,
    /// 99th-percentile delay.
    pub p99_delay: u64,
    /// Per-VOQ reorder events.
    pub voq_reorders: u64,
    /// Delivered / offered data packets.
    pub delivery_ratio: f64,
    /// The run's [`SimReport::metrics_json`] line, if metrics capture was
    /// requested when the entry was stored.  An entry without it still
    /// serves CSV-only suite runs; a metrics-enabled run treats such an
    /// entry as a miss and recomputes.
    pub metrics_json: Option<String>,
}

impl CachedRun {
    /// Capture a finished report.  `include_metrics` controls whether the
    /// (comparatively large) metrics sidecar line is stored.
    pub fn from_report(report: &SimReport, include_metrics: bool) -> Self {
        CachedRun {
            csv_row: report.csv_row(),
            mean_delay: report.delay.mean(),
            p99_delay: report.delay.percentile(0.99),
            voq_reorders: report.reordering.voq_reorder_events,
            delivery_ratio: report.delivery_ratio(),
            metrics_json: include_metrics.then(|| report.metrics_json()),
        }
    }
}

/// A directory of `<hash>.run` files, one per scenario identity.
#[derive(Debug, Clone)]
pub struct ExperimentCache {
    dir: PathBuf,
}

impl ExperimentCache {
    /// Open (creating if needed) a cache rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(ExperimentCache { dir })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, hash: u128) -> PathBuf {
        self.dir.join(format!("{hash:032x}.run"))
    }

    /// Load the entry for `hash`.  Returns `None` on a missing file *and*
    /// on any parse deviation — a corrupt entry is a cache miss, not an
    /// error, because the caller can always recompute.  The metrics line is
    /// moved out of the text read, not copied.
    pub fn load(&self, hash: u128) -> Option<CachedRun> {
        let mut text = fs::read_to_string(self.entry_path(hash)).ok()?;
        let mut lines = text.lines();
        if lines.next()? != "sprinklers-cache v1" {
            return None;
        }
        let csv_row = lines.next()?.strip_prefix("row ")?.to_string();
        let mean_delay = parse_f64_bits(lines.next()?.strip_prefix("mean_delay_bits ")?)?;
        let p99_delay = lines.next()?.strip_prefix("p99_delay ")?.parse().ok()?;
        let voq_reorders = lines.next()?.strip_prefix("voq_reorders ")?.parse().ok()?;
        let delivery_ratio = parse_f64_bits(lines.next()?.strip_prefix("delivery_ratio_bits ")?)?;
        let metrics_len = match lines.next()?.strip_prefix("metrics ")? {
            "-" => None,
            json => Some(json.len()),
        };
        if lines.next().is_some() {
            return None; // trailing garbage: treat the whole entry as corrupt
        }
        // The metrics line is the first to start with "metrics ": each line
        // before it starts with its own key.
        let metrics_json = metrics_len.and_then(|len| {
            let start = text.find("\nmetrics ")? + "\nmetrics ".len();
            text.truncate(start + len);
            text.replace_range(..start, "");
            Some(text)
        });
        Some(CachedRun {
            csv_row,
            mean_delay,
            p99_delay,
            voq_reorders,
            delivery_ratio,
            metrics_json,
        })
    }

    /// Store `run` under `hash`, atomically replacing any existing entry.
    /// The metrics line goes to the file as it is, not through a copy.
    pub fn store(&self, hash: u128, run: &CachedRun) -> std::io::Result<()> {
        debug_assert!(
            !run.csv_row.contains('\n') && !run.csv_row.contains('\r'),
            "csv_row must be a single line"
        );
        let tmp = self.dir.join(format!(".{hash:032x}.tmp"));
        let mut file = BufWriter::new(fs::File::create(&tmp)?);
        writeln!(file, "sprinklers-cache v1\nrow {}", run.csv_row)?;
        // f64s as bit patterns: exact round-trip, no decimal formatting
        // ambiguity, so a hit reprints the summary byte-identically.
        writeln!(file, "mean_delay_bits {:016x}", run.mean_delay.to_bits())?;
        writeln!(file, "p99_delay {}", run.p99_delay)?;
        writeln!(file, "voq_reorders {}", run.voq_reorders)?;
        let ratio = run.delivery_ratio.to_bits();
        writeln!(file, "delivery_ratio_bits {ratio:016x}")?;
        match &run.metrics_json {
            Some(json) => {
                debug_assert!(!json.contains('\n'), "metrics_json must be a single line");
                writeln!(file, "metrics {json}")?;
            }
            None => file.write_all(b"metrics -\n")?,
        }
        file.into_inner().map_err(io::IntoInnerError::into_error)?;
        fs::rename(&tmp, self.entry_path(hash))
    }
}

fn parse_f64_bits(hex: &str) -> Option<f64> {
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok().map(f64::from_bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TrafficSpec;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sprinklers-cache-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn fnv1a_128_matches_the_published_basis_and_separates_inputs() {
        assert_eq!(fnv1a_128(b""), 0x6c62272e07bb014262b821756295c58d);
        assert_ne!(fnv1a_128(b"a"), fnv1a_128(b"b"));
        assert_ne!(fnv1a_128(b"ab"), fnv1a_128(b"ba"));
        // Deterministic across calls (the whole point versus DefaultHasher).
        assert_eq!(fnv1a_128(b"sprinklers"), fnv1a_128(b"sprinklers"));
    }

    #[test]
    fn content_hash_ignores_performance_knobs_only() {
        let base = ScenarioSpec::new("sprinklers", 8);
        let hash = base.content_hash();
        for batch in [1, 4096] {
            let mut batched = base.clone();
            batched.batch = batch;
            assert_eq!(batched.content_hash(), hash);
        }

        assert_ne!(base.clone().with_seed(2).content_hash(), hash);
        assert_ne!(ScenarioSpec::new("sprinklers", 16).content_hash(), hash);
        assert_ne!(ScenarioSpec::new("oq", 8).content_hash(), hash);
        assert_ne!(
            base.clone()
                .with_traffic(TrafficSpec::Uniform { load: 0.61 })
                .content_hash(),
            hash
        );
    }

    #[test]
    fn content_hash_separates_fault_schedules() {
        // A faulted run and its fault-free twin must never collide in the
        // experiment cache — nor may two different fault schedules.
        use crate::spec::{
            FaultEventSpec, FaultKind, FaultSpec, LinkSpec, RandomFaultSpec, RoutingSpec,
            TopologySpec,
        };
        let topo = TopologySpec::FatTree2 {
            edges: 2,
            cores: 4,
            hosts_per_edge: 8,
            routing: RoutingSpec::Stripe,
            link: LinkSpec { latency: 1, gap: 1 },
        };
        let base = ScenarioSpec::new("oq", 16).with_topology(topo);
        let event = |slot| FaultEventSpec {
            slot,
            kind: FaultKind::LinkDown,
            index: 0,
        };
        let faulted = |slot| {
            base.clone().with_faults(FaultSpec {
                events: vec![event(slot)],
                random: None,
            })
        };
        let healthy = base.content_hash();
        assert_ne!(faulted(100).content_hash(), healthy);
        assert_ne!(faulted(100).content_hash(), faulted(200).content_hash());
        let random = base.clone().with_faults(FaultSpec {
            events: vec![],
            random: Some(RandomFaultSpec {
                mtbf: 5_000,
                mttr: 300,
                seed: 5,
            }),
        });
        assert_ne!(random.content_hash(), healthy);
        // Fault fields are scientific identity, not inert fields: they stay
        // in the hash even as batch is canonicalized away.
        let mut batched = faulted(100);
        batched.batch = 1;
        assert_eq!(batched.content_hash(), faulted(100).content_hash());
        assert!(faulted(100).scientific_identity_json().contains("faults"));
    }

    #[test]
    fn entries_round_trip_exactly_including_f64_bits() {
        let cache = ExperimentCache::open(tmp_dir("roundtrip")).unwrap();
        let run = CachedRun {
            csv_row: "oq,uniform(0.6),8,2000,9561,9561,3.117,2,9,13,31,0,0,0.00".into(),
            // A value with no short decimal form: only bit-exact storage
            // reproduces it.
            mean_delay: f64::from_bits(0x4008ef9db22d0e56),
            p99_delay: 13,
            voq_reorders: 0,
            delivery_ratio: 0.9999999999999999,
            metrics_json: Some("{\"schema\":\"sprinklers-metrics/1\"}".into()),
        };
        cache.store(7, &run).unwrap();
        assert_eq!(cache.load(7).unwrap(), run);

        let bare = CachedRun {
            metrics_json: None,
            ..run.clone()
        };
        cache.store(8, &bare).unwrap();
        assert_eq!(cache.load(8).unwrap(), bare);
        assert_eq!(cache.load(9), None, "absent key is a miss");
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn corrupt_entries_read_as_misses() {
        let cache = ExperimentCache::open(tmp_dir("corrupt")).unwrap();
        let path = cache.entry_path(1);
        for bad in [
            "",
            "sprinklers-cache v2\nrow x\n",
            "sprinklers-cache v1\nrow only-a-row\n",
            // bad hex width in the bits field
            "sprinklers-cache v1\nrow r\nmean_delay_bits 00\np99_delay 1\nvoq_reorders 0\ndelivery_ratio_bits 3ff0000000000000\nmetrics -\n",
            // trailing garbage after a complete entry
            "sprinklers-cache v1\nrow r\nmean_delay_bits 3ff0000000000000\np99_delay 1\nvoq_reorders 0\ndelivery_ratio_bits 3ff0000000000000\nmetrics -\nextra\n",
        ] {
            std::fs::write(&path, bad).unwrap();
            assert_eq!(cache.load(1), None, "accepted: {bad:?}");
        }
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn from_report_captures_the_summary_scalars() {
        let spec = ScenarioSpec::new("oq", 4).with_run(crate::engine::RunConfig::quick());
        let report = crate::engine::Engine::new().run(&spec).unwrap();
        let run = CachedRun::from_report(&report, true);
        assert_eq!(run.csv_row, report.csv_row());
        assert_eq!(run.mean_delay.to_bits(), report.delay.mean().to_bits());
        assert_eq!(run.p99_delay, report.delay.percentile(0.99));
        assert_eq!(
            run.delivery_ratio.to_bits(),
            report.delivery_ratio().to_bits()
        );
        assert_eq!(
            run.metrics_json.as_deref(),
            Some(report.metrics_json().as_str())
        );
        assert_eq!(CachedRun::from_report(&report, false).metrics_json, None);
    }
}
