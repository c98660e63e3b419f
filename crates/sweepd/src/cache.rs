//! Content-addressed result cache.
//!
//! Every sweep cell is a pure function of its run configuration and the
//! trace bytes it replays, so a computed [`CellOutput`] can be stored
//! and served forever under a key derived from the two:
//!
//! ```text
//! key = fnv1a64(mode | workload | canonical RunConfig JSON) - trace digest
//! ```
//!
//! The trace digest comes straight from the corpus manifest (the shard
//! format already pins it into every [`ShardJob`]), so cache keys cost
//! nothing extra to derive — and a job whose digest is *unpinned* is
//! simply uncacheable, never wrongly cached. The workload name is part
//! of the key because results carry it as a label; the canonical
//! `RunConfig` JSON is deterministic (the serde shim preserves struct
//! field order), so equal configs always hash equally.
//!
//! On disk the cache is a directory of one JSON file per entry plus an
//! index manifest (`cache.json`), both stamped with
//! [`CACHE_FORMAT_VERSION`]. Entry files are written compact; entries
//! pretty-printed by older builds parse identically and still hit, so
//! the layout change needs no version bump. Invalidation rules:
//!
//! * a manifest with a different version is discarded wholesale (every
//!   entry evicted) — bump the version whenever the key derivation or
//!   entry shape changes;
//! * a corrupt, missing, mis-keyed or version-drifted entry file is
//!   evicted on lookup and served as a miss — the caller re-simulates
//!   and the re-insert heals the cache;
//! * [`ResultCache::gc`] drops entries by predicate (typically: trace
//!   digest no longer in the corpus) through the same retention helper
//!   `tracectl corpus gc` uses.
//!
//! Hits, misses, inserts and evictions are counted per open cache
//! handle ([`ResultCache::stats`]).

use serde::{Deserialize, Serialize};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tse_sim::shard::{CellOutput, ShardJob, ShardMode};
use tse_trace::corpus::{sweep_retained, GcReport};
use tse_trace::fsio::{self, RealFs, Vfs};

/// File name of the index manifest inside a cache directory.
pub const CACHE_MANIFEST_NAME: &str = "cache.json";

/// Version stamped into the manifest and every entry file. A cache
/// written by a build with a different version is discarded (manifest)
/// or evicted entry-by-entry on lookup (files).
pub const CACHE_FORMAT_VERSION: u32 = 1;

/// The index manifest: one entry per cached cell output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheManifest {
    /// Cache format version ([`CACHE_FORMAT_VERSION`]).
    pub version: u32,
    /// Every cached entry, in insertion order.
    pub entries: Vec<CacheEntry>,
}

/// One cached cell output, as the index manifest describes it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheEntry {
    /// Content-addressed key (`"<config hex16>-<trace hex16>"`).
    pub key: String,
    /// Figure the cell was first computed for (provenance only — the
    /// key is what addresses the entry; any figure sharing the same
    /// `(config, trace)` cell hits it).
    pub figure: String,
    /// Workload label the cached result carries.
    pub workload: String,
    /// Harness that produced the output.
    pub mode: ShardMode,
    /// The trace content digest the key pins (kept denormalized so gc
    /// can retain by corpus membership without re-deriving keys).
    pub trace_digest: String,
    /// Entry file name, relative to the cache directory.
    pub path: String,
    /// Unix timestamp (seconds) of the entry's last insert or hit — the
    /// recency [`ResultCache::gc_budget`] orders LRU eviction by.
    /// Defaults to 0 for manifests written before this field existed,
    /// which makes legacy entries the oldest (evicted first).
    #[serde(default)]
    pub mtime: u64,
}

/// The on-disk shape of one entry file: the output wrapped with the
/// format version and its own key, both checked on lookup.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CachedCell {
    /// Cache format version ([`CACHE_FORMAT_VERSION`]).
    pub version: u32,
    /// The key this file was stored under (self-check against index
    /// corruption or file swaps).
    pub key: String,
    /// The cached output.
    pub output: CellOutput,
}

/// Hit/miss/insert/eviction counters for one open cache handle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups served from disk.
    pub hits: u64,
    /// Lookups that found nothing servable (including evictions-on-read
    /// and uncacheable unpinned jobs).
    pub misses: u64,
    /// Outputs written.
    pub inserts: u64,
    /// Entries dropped: version invalidation, corrupt-on-read, or gc.
    pub evictions: u64,
}

/// Error raised by cache operations.
#[derive(Debug)]
pub enum CacheError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The manifest or an entry could not be serialized/parsed.
    Format(String),
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::Io(e) => write!(f, "cache I/O error: {e}"),
            CacheError::Format(m) => write!(f, "cache format error: {m}"),
        }
    }
}

impl std::error::Error for CacheError {}

impl From<std::io::Error> for CacheError {
    fn from(e: std::io::Error) -> Self {
        CacheError::Io(e)
    }
}

/// Seconds since the Unix epoch (0 if the clock is before it).
fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

fn fnv1a64(parts: &[&[u8]]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in *part {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Derives a job's content-addressed cache key, or `None` when the
/// job's trace digest is unpinned (an unpinned job names no exact
/// bytes, so it is uncacheable by construction).
///
/// The config half hashes the mode tag, the workload label and the
/// canonical `RunConfig` JSON; the trace half is the corpus digest's
/// own 16 hex digits (re-hashed only if a foreign digest scheme ever
/// appears). Stable across serde round-trips: deserializing a job and
/// re-deriving yields the same key.
pub fn cache_key(job: &ShardJob) -> Option<String> {
    let digest = job.trace.digest.as_deref()?;
    let mode_tag: &[u8] = match job.mode {
        ShardMode::Trace => b"trace",
        ShardMode::Timing => b"timing",
    };
    let config_json = job.config.to_json().to_string();
    let config_hash = fnv1a64(&[
        mode_tag,
        b"|",
        job.trace.workload.as_bytes(),
        b"|",
        config_json.as_bytes(),
    ]);
    let trace_part = match digest.strip_prefix("fnv1a64:") {
        Some(hex) if hex.len() == 16 && hex.bytes().all(|b| b.is_ascii_hexdigit()) => {
            hex.to_string()
        }
        _ => format!("{:016x}", fnv1a64(&[digest.as_bytes()])),
    };
    Some(format!("{config_hash:016x}-{trace_part}"))
}

/// The content-addressed result cache: an open cache directory plus its
/// parsed index and per-handle counters.
///
/// Mutations mark the index dirty; call [`ResultCache::save`] to
/// persist it (the service saves after every job, so a crash costs at
/// most the entries since the last job — their orphaned files are
/// rewritten on the next insert or dropped by gc).
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
    entries: Vec<CacheEntry>,
    stats: CacheStats,
    dirty: bool,
    vfs: Arc<dyn Vfs>,
}

impl ResultCache {
    /// Opens (or initializes) a cache directory.
    ///
    /// A missing manifest yields an empty cache. A manifest with a
    /// foreign [`CACHE_FORMAT_VERSION`] is *invalidated*: every listed
    /// entry file is deleted, the evictions counter accounts for them,
    /// and the cache starts empty. An unparsable manifest also starts
    /// empty (its orphaned files are overwritten by future inserts or
    /// collected by [`ResultCache::gc`]). Stale temp files left by a
    /// crashed writer are swept.
    ///
    /// # Errors
    ///
    /// [`CacheError::Io`] if the directory cannot be created or stale
    /// entry files cannot be removed.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, CacheError> {
        Self::open_with(dir, Arc::new(RealFs))
    }

    /// [`ResultCache::open`] over an injected [`Vfs`], so tests can
    /// exercise torn writes and injected I/O errors deterministically.
    ///
    /// # Errors
    ///
    /// As [`ResultCache::open`].
    pub fn open_with(dir: impl Into<PathBuf>, vfs: Arc<dyn Vfs>) -> Result<Self, CacheError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let _ = fsio::sweep_stale(&dir, false);
        let manifest_path = dir.join(CACHE_MANIFEST_NAME);
        let mut cache = ResultCache {
            dir,
            entries: Vec::new(),
            stats: CacheStats::default(),
            dirty: false,
            vfs,
        };
        let text = match cache.vfs.read_to_string(&manifest_path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(cache),
            Err(e) => return Err(e.into()),
        };
        let manifest: CacheManifest = match serde_json::from_str(&text) {
            Ok(m) => m,
            // Unreadable index: start over rather than refuse to serve.
            Err(_) => return Ok(cache),
        };
        if manifest.version != CACHE_FORMAT_VERSION {
            for entry in &manifest.entries {
                let path = cache.dir.join(&entry.path);
                match fs::remove_file(&path) {
                    Ok(()) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e.into()),
                }
            }
            cache.stats.evictions += manifest.entries.len() as u64;
            cache.dirty = true;
            return Ok(cache);
        }
        cache.entries = manifest.entries;
        Ok(cache)
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Every indexed entry, in insertion order.
    pub fn entries(&self) -> &[CacheEntry] {
        &self.entries
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the index is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// This handle's hit/miss/insert/eviction counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up a job's cached output.
    ///
    /// A hit requires: a derivable key (digest pinned), an index entry,
    /// and an entry file that parses, carries the current format
    /// version, self-identifies with the same key and holds an output
    /// of the job's mode. Anything less is a **miss**; a present-but-
    /// unservable entry is additionally *evicted* (index entry dropped,
    /// file deleted best-effort) so the re-simulated insert heals it.
    pub fn lookup(&mut self, job: &ShardJob) -> Option<CellOutput> {
        let Some(key) = cache_key(job) else {
            self.stats.misses += 1;
            return None;
        };
        let Some(idx) = self.entries.iter().position(|e| e.key == key) else {
            self.stats.misses += 1;
            return None;
        };
        let path = self.dir.join(&self.entries[idx].path);
        let cell: Option<CachedCell> = self
            .vfs
            .read_to_string(&path)
            .ok()
            .and_then(|text| serde_json::from_str(&text).ok());
        let output = cell.and_then(|c| {
            (c.version == CACHE_FORMAT_VERSION && c.key == key && c.output.mode() == job.mode)
                .then_some(c.output)
        });
        match output {
            Some(out) => {
                self.stats.hits += 1;
                // LRU touch: a served entry is recent again.
                self.entries[idx].mtime = unix_now();
                self.dirty = true;
                Some(out)
            }
            None => {
                // Corrupt/drifted entry: evict and serve a miss.
                self.entries.remove(idx);
                let _ = fs::remove_file(&path);
                self.stats.evictions += 1;
                self.stats.misses += 1;
                self.dirty = true;
                None
            }
        }
    }

    /// Stores a job's output, overwriting any previous entry under the
    /// same key. Returns `false` (storing nothing) for uncacheable jobs
    /// whose trace digest is unpinned.
    ///
    /// # Errors
    ///
    /// [`CacheError::Io`] if the entry file cannot be written.
    pub fn insert(&mut self, job: &ShardJob, output: &CellOutput) -> Result<bool, CacheError> {
        let Some(key) = cache_key(job) else {
            return Ok(false);
        };
        let file_name = format!("{key}.json");
        let cell = CachedCell {
            version: CACHE_FORMAT_VERSION,
            key: key.clone(),
            output: output.clone(),
        };
        let text = serde_json::to_string(&cell)
            .map_err(|e| CacheError::Format(format!("cannot serialize entry {key}: {e}")))?;
        fsio::atomic_write_with(
            self.vfs.as_ref(),
            "cache-entry",
            &self.dir.join(&file_name),
            (text + "\n").as_bytes(),
        )?;
        match self.entries.iter_mut().find(|e| e.key == key) {
            Some(existing) => existing.mtime = unix_now(),
            None => self.entries.push(CacheEntry {
                key,
                figure: job.figure.clone(),
                workload: job.trace.workload.clone(),
                mode: job.mode,
                trace_digest: job.trace.digest.clone().expect("key exists"),
                path: file_name,
                mtime: unix_now(),
            }),
        }
        self.stats.inserts += 1;
        self.dirty = true;
        Ok(true)
    }

    /// Drops every entry `keep` rejects, deleting its file, through the
    /// shared retention helper (`tse_trace::corpus::sweep_retained`) —
    /// the same machinery behind `tracectl corpus gc`. Dropped entries
    /// count as evictions. The index is saved afterwards.
    ///
    /// # Errors
    ///
    /// [`CacheError::Io`] on file deletion or manifest write failure.
    pub fn gc(&mut self, keep: impl Fn(&CacheEntry) -> bool) -> Result<GcReport, CacheError> {
        let entries = std::mem::take(&mut self.entries);
        let (retained, report) = sweep_retained(&self.dir, entries, |e| &e.path, keep)?;
        self.entries = retained;
        self.stats.evictions += report.dropped as u64;
        self.dirty = true;
        self.save()?;
        Ok(report)
    }

    /// Evicts by age and size budget, LRU-ordered on each entry's
    /// recorded `mtime` (last insert or hit):
    ///
    /// * `max_age_secs` — drop every entry idle for longer than this;
    /// * `max_bytes` — then drop least-recently-used entries until the
    ///   surviving entry files fit in the budget.
    ///
    /// Either budget may be `None` (no limit on that axis). Entries
    /// from manifests predating the `mtime` field read as age 0 —
    /// maximally idle, first out. Dropped entries count as evictions
    /// and the index is saved, exactly as [`ResultCache::gc`].
    ///
    /// # Errors
    ///
    /// [`CacheError::Io`] on file deletion or manifest write failure.
    pub fn gc_budget(
        &mut self,
        max_bytes: Option<u64>,
        max_age_secs: Option<u64>,
    ) -> Result<GcReport, CacheError> {
        let now = unix_now();
        let mut drop_keys: std::collections::HashSet<String> = std::collections::HashSet::new();
        if let Some(max_age) = max_age_secs {
            for e in &self.entries {
                if now.saturating_sub(e.mtime) > max_age {
                    drop_keys.insert(e.key.clone());
                }
            }
        }
        if let Some(budget) = max_bytes {
            let mut sized: Vec<(u64, u64, String)> = self
                .entries
                .iter()
                .filter(|e| !drop_keys.contains(&e.key))
                .map(|e| {
                    let size = fs::metadata(self.dir.join(&e.path))
                        .map(|m| m.len())
                        .unwrap_or(0);
                    (e.mtime, size, e.key.clone())
                })
                .collect();
            let mut total: u64 = sized.iter().map(|(_, size, _)| size).sum();
            // Stable sort: equal mtimes evict in insertion order.
            sized.sort_by_key(|(mtime, _, _)| *mtime);
            for (_, size, key) in sized {
                if total <= budget {
                    break;
                }
                drop_keys.insert(key);
                total -= size;
            }
        }
        self.gc(|e| !drop_keys.contains(&e.key))
    }

    /// Persists the index manifest if any mutation is pending.
    ///
    /// Before writing, entries whose file is gone from disk are pruned
    /// (and counted as evictions): another handle on the same
    /// directory may have evicted them since we loaded the index, and
    /// a healed manifest must not resurrect an evicted entry. The
    /// write itself is atomic (write-temp + fsync + rename), so a
    /// crash mid-save leaves the previous manifest intact.
    ///
    /// # Errors
    ///
    /// [`CacheError::Io`] / [`CacheError::Format`] on write failure.
    pub fn save(&mut self) -> Result<(), CacheError> {
        if !self.dirty {
            return Ok(());
        }
        let dir = self.dir.clone();
        let before = self.entries.len();
        self.entries.retain(|e| dir.join(&e.path).exists());
        self.stats.evictions += (before - self.entries.len()) as u64;
        let manifest = CacheManifest {
            version: CACHE_FORMAT_VERSION,
            entries: self.entries.clone(),
        };
        let text = serde_json::to_string_pretty(&manifest)
            .map_err(|e| CacheError::Format(e.to_string()))?;
        fsio::atomic_write_with(
            self.vfs.as_ref(),
            "cache-manifest",
            &self.dir.join(CACHE_MANIFEST_NAME),
            (text + "\n").as_bytes(),
        )?;
        self.dirty = false;
        Ok(())
    }
}
