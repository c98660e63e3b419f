//! Result-cache contract: keys are stable across serde round-trips and
//! sensitive to every input; a version bump invalidates the whole
//! store; corrupt entries are served as misses and healed by the
//! re-simulated insert; unpinned jobs are uncacheable.

mod common;

use common::{job, synthetic_output, ScratchDir};
use std::fs;
use tse_sim::shard::ShardJob;
use tse_sim::EngineKind;
use tse_sweepd::cache::{cache_key, CacheManifest, CachedCell, CACHE_MANIFEST_NAME};
use tse_sweepd::{ResultCache, CACHE_FORMAT_VERSION};

const DIGEST: &str = "fnv1a64:00c0ffee00c0ffee";

fn round_trip(job: &ShardJob) -> ShardJob {
    let text = serde_json::to_string_pretty(job).unwrap();
    serde_json::from_str(&text).unwrap()
}

#[test]
fn keys_are_stable_across_serde_round_trips() {
    let original = job(3, Some(DIGEST));
    let key = cache_key(&original).expect("pinned job has a key");
    assert_eq!(
        cache_key(&round_trip(&original)).unwrap(),
        key,
        "deserializing a job must re-derive the identical key"
    );
    // And through a second generation, in case defaults normalize.
    assert_eq!(cache_key(&round_trip(&round_trip(&original))).unwrap(), key);
    // The digest's own hex is the trace half of the key.
    assert!(key.ends_with("-00c0ffee00c0ffee"));
}

#[test]
fn keys_separate_config_trace_and_mode() {
    let base = job(3, Some(DIGEST));
    let key = cache_key(&base).unwrap();

    let mut other_engine = base.clone();
    other_engine.config.engine = EngineKind::paper_stride();
    assert_ne!(cache_key(&other_engine).unwrap(), key, "config must matter");

    let mut other_seed = base.clone();
    other_seed.config.seed += 1;
    assert_ne!(cache_key(&other_seed).unwrap(), key, "seed must matter");

    let other_trace = job(3, Some("fnv1a64:1111111111111111"));
    assert_ne!(cache_key(&other_trace).unwrap(), key, "trace must matter");

    let mut other_mode = base.clone();
    other_mode.mode = tse_sim::shard::ShardMode::Timing;
    assert_ne!(cache_key(&other_mode).unwrap(), key, "mode must matter");

    // The figure is provenance, not identity: a different figure with
    // the same (config, trace) cell shares the entry.
    let mut other_figure = base.clone();
    other_figure.figure = "figOther".into();
    assert_eq!(cache_key(&other_figure).unwrap(), key);
}

#[test]
fn unpinned_jobs_are_uncacheable() {
    let scratch = ScratchDir::new("unpinned");
    let unpinned = job(0, None);
    assert_eq!(cache_key(&unpinned), None);
    let mut cache = ResultCache::open(&scratch.0).unwrap();
    assert!(!cache
        .insert(&unpinned, &synthetic_output(&unpinned))
        .unwrap());
    assert!(cache.lookup(&unpinned).is_none());
    assert_eq!(cache.len(), 0);
    assert_eq!(cache.stats().misses, 1);
    assert_eq!(cache.stats().inserts, 0);
}

#[test]
fn insert_then_lookup_persists_across_reopen() {
    let scratch = ScratchDir::new("persist");
    let j = job(2, Some(DIGEST));
    let output = synthetic_output(&j);
    {
        let mut cache = ResultCache::open(&scratch.0).unwrap();
        assert!(cache.insert(&j, &output).unwrap());
        assert_eq!(cache.lookup(&j).unwrap(), output);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().inserts, 1);
        cache.save().unwrap();
    }
    let mut reopened = ResultCache::open(&scratch.0).unwrap();
    assert_eq!(reopened.len(), 1);
    assert_eq!(
        reopened.lookup(&j).unwrap(),
        output,
        "a cached output survives process death"
    );
    // Re-inserting under the same key overwrites, never duplicates.
    let mut again = ResultCache::open(&scratch.0).unwrap();
    again.insert(&j, &output).unwrap();
    assert_eq!(again.len(), 1);
}

#[test]
fn entries_are_written_compact_and_old_pretty_entries_still_hit() {
    let scratch = ScratchDir::new("compact");
    let j = job(6, Some(DIGEST));
    let output = synthetic_output(&j);
    let entry_path;
    {
        let mut cache = ResultCache::open(&scratch.0).unwrap();
        cache.insert(&j, &output).unwrap();
        entry_path = scratch.0.join(&cache.entries()[0].path);
        cache.save().unwrap();
    }
    let compact = fs::read_to_string(&entry_path).unwrap();
    assert_eq!(
        compact.matches('\n').count(),
        1,
        "an entry is one JSON line"
    );

    // Rewrite the entry as builds before compact entries wrote it.
    let cell: CachedCell = serde_json::from_str(&compact).unwrap();
    let pretty = serde_json::to_string_pretty(&cell).unwrap() + "\n";
    assert!(pretty.len() > compact.len());
    fs::write(&entry_path, pretty).unwrap();

    let mut cache = ResultCache::open(&scratch.0).unwrap();
    assert_eq!(
        cache.lookup(&j).unwrap(),
        output,
        "a pretty entry is still a hit"
    );
    assert_eq!((cache.stats().hits, cache.stats().evictions), (1, 0));
}

#[test]
fn version_bump_invalidates_the_whole_store() {
    let scratch = ScratchDir::new("version");
    let j = job(1, Some(DIGEST));
    {
        let mut cache = ResultCache::open(&scratch.0).unwrap();
        cache.insert(&j, &synthetic_output(&j)).unwrap();
        cache.save().unwrap();
    }
    // Simulate a cache written by a build with a newer format.
    let manifest_path = scratch.0.join(CACHE_MANIFEST_NAME);
    let doctored = fs::read_to_string(&manifest_path).unwrap().replace(
        &format!("\"version\": {CACHE_FORMAT_VERSION}"),
        &format!("\"version\": {}", CACHE_FORMAT_VERSION + 1),
    );
    assert_ne!(doctored, fs::read_to_string(&manifest_path).unwrap());
    fs::write(&manifest_path, doctored).unwrap();

    let mut cache = ResultCache::open(&scratch.0).unwrap();
    assert!(cache.is_empty(), "foreign version discards every entry");
    assert_eq!(cache.stats().evictions, 1);
    assert!(cache.lookup(&j).is_none());
    let entry_files: Vec<_> = fs::read_dir(&scratch.0)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name() != CACHE_MANIFEST_NAME)
        .collect();
    assert!(entry_files.is_empty(), "stale entry files are deleted");
}

#[test]
fn corrupt_entries_are_misses_and_resimulation_heals_them() {
    let scratch = ScratchDir::new("corrupt");
    let j = job(4, Some(DIGEST));
    let output = synthetic_output(&j);
    let entry_path;
    {
        let mut cache = ResultCache::open(&scratch.0).unwrap();
        cache.insert(&j, &output).unwrap();
        entry_path = scratch.0.join(&cache.entries()[0].path);
        cache.save().unwrap();
    }
    fs::write(&entry_path, "{ not json").unwrap();

    let mut cache = ResultCache::open(&scratch.0).unwrap();
    assert!(cache.lookup(&j).is_none(), "corrupt entry served as a miss");
    assert_eq!(cache.stats().misses, 1);
    assert_eq!(cache.stats().evictions, 1);
    assert!(cache.is_empty(), "the corrupt entry was evicted");
    assert!(!entry_path.exists(), "its file was removed");

    // Re-simulate and re-insert: the cache heals.
    cache.insert(&j, &output).unwrap();
    assert_eq!(cache.lookup(&j).unwrap(), output);
    cache.save().unwrap();
    let mut reopened = ResultCache::open(&scratch.0).unwrap();
    assert_eq!(reopened.lookup(&j).unwrap(), output);
}

#[test]
fn miskeyed_and_version_drifted_entry_files_are_rejected() {
    let scratch = ScratchDir::new("miskey");
    let j = job(5, Some(DIGEST));
    let output = synthetic_output(&j);
    let entry_path;
    {
        let mut cache = ResultCache::open(&scratch.0).unwrap();
        cache.insert(&j, &output).unwrap();
        entry_path = scratch.0.join(&cache.entries()[0].path);
        cache.save().unwrap();
    }
    // A parsable entry that self-identifies under a different key (file
    // swap / index corruption) must not be served.
    let swapped = CachedCell {
        version: CACHE_FORMAT_VERSION,
        key: "0000000000000000-0000000000000000".into(),
        output: output.clone(),
    };
    fs::write(&entry_path, serde_json::to_string_pretty(&swapped).unwrap()).unwrap();
    let mut cache = ResultCache::open(&scratch.0).unwrap();
    assert!(cache.lookup(&j).is_none(), "mis-keyed entry rejected");

    // Same for an entry carrying a foreign format version.
    {
        let mut cache = ResultCache::open(&scratch.0).unwrap();
        cache.insert(&j, &output).unwrap();
        cache.save().unwrap();
    }
    let drifted = CachedCell {
        version: CACHE_FORMAT_VERSION + 1,
        key: cache_key(&j).unwrap(),
        output: output.clone(),
    };
    fs::write(&entry_path, serde_json::to_string_pretty(&drifted).unwrap()).unwrap();
    let mut cache = ResultCache::open(&scratch.0).unwrap();
    assert!(cache.lookup(&j).is_none(), "version-drifted entry rejected");
}

#[test]
fn gc_drops_entries_by_retention_predicate() {
    let scratch = ScratchDir::new("gc");
    let keep_job = job(0, Some(DIGEST));
    let drop_job = job(1, Some("fnv1a64:dead0000dead0000"));
    let mut cache = ResultCache::open(&scratch.0).unwrap();
    cache
        .insert(&keep_job, &synthetic_output(&keep_job))
        .unwrap();
    cache
        .insert(&drop_job, &synthetic_output(&drop_job))
        .unwrap();
    cache.save().unwrap();

    let report = cache.gc(|e| e.trace_digest == DIGEST).unwrap();
    assert_eq!((report.kept, report.dropped), (1, 1));
    assert!(report.bytes_freed > 0);
    assert_eq!(cache.len(), 1);
    assert_eq!(cache.stats().evictions, 1);
    assert!(cache.lookup(&keep_job).is_some());
    assert!(cache.lookup(&drop_job).is_none());

    // The gc result is already saved: a fresh handle agrees.
    let mut reopened = ResultCache::open(&scratch.0).unwrap();
    assert_eq!(reopened.len(), 1);
    assert!(reopened.lookup(&drop_job).is_none());
}

/// Rewrites the saved manifest, giving each entry (in insertion order)
/// the corresponding mtime — the test's way of aging entries without
/// waiting.
fn doctor_mtimes(dir: &std::path::Path, mtimes: &[u64]) {
    let manifest_path = dir.join(CACHE_MANIFEST_NAME);
    let mut manifest: CacheManifest =
        serde_json::from_str(&fs::read_to_string(&manifest_path).unwrap()).unwrap();
    assert_eq!(manifest.entries.len(), mtimes.len());
    for (entry, &mtime) in manifest.entries.iter_mut().zip(mtimes) {
        entry.mtime = mtime;
    }
    fs::write(
        &manifest_path,
        serde_json::to_string_pretty(&manifest).unwrap(),
    )
    .unwrap();
}

#[test]
fn gc_budget_evicts_lru_by_bytes_and_age() {
    let scratch = ScratchDir::new("budget");
    let old_job = job(0, Some(DIGEST));
    let new_job = job(1, Some("fnv1a64:1111111111111111"));
    {
        let mut cache = ResultCache::open(&scratch.0).unwrap();
        cache.insert(&old_job, &synthetic_output(&old_job)).unwrap();
        cache.insert(&new_job, &synthetic_output(&new_job)).unwrap();
        cache.save().unwrap();
    }
    // Age the first entry far into the past, keep the second recent.
    doctor_mtimes(&scratch.0, &[1_000, 2_000_000_000]);

    // A byte budget that fits exactly one entry file: the older entry
    // goes, the recent one survives.
    let one_entry = fs::metadata(
        scratch
            .0
            .join(format!("{}.json", cache_key(&new_job).unwrap())),
    )
    .unwrap()
    .len();
    let mut cache = ResultCache::open(&scratch.0).unwrap();
    let report = cache.gc_budget(Some(one_entry), None).unwrap();
    assert_eq!((report.kept, report.dropped), (1, 1));
    assert!(report.bytes_freed > 0);
    assert!(cache.lookup(&old_job).is_none(), "LRU entry evicted");
    assert!(cache.lookup(&new_job).is_some(), "recent entry survives");

    // Age budget: everything idler than a day goes. The surviving
    // entry was just touched by the lookup above, so it stays.
    cache.save().unwrap();
    let report = cache.gc_budget(None, Some(86_400)).unwrap();
    assert_eq!((report.kept, report.dropped), (1, 0));

    // Re-age it and the age budget drops it too.
    doctor_mtimes(&scratch.0, &[1_000]);
    let mut cache = ResultCache::open(&scratch.0).unwrap();
    let report = cache.gc_budget(None, Some(86_400)).unwrap();
    assert_eq!((report.kept, report.dropped), (0, 1));
    assert!(cache.is_empty());
}

#[test]
fn legacy_manifests_without_mtime_still_parse_and_age_out_first() {
    let scratch = ScratchDir::new("legacy-mtime");
    let j = job(2, Some(DIGEST));
    {
        let mut cache = ResultCache::open(&scratch.0).unwrap();
        cache.insert(&j, &synthetic_output(&j)).unwrap();
        cache.save().unwrap();
    }
    // Strip the mtime field, as a manifest from an older build would
    // have written it (drop the line, fixing up the trailing comma when
    // mtime was the object's last field).
    let manifest_path = scratch.0.join(CACHE_MANIFEST_NAME);
    let text = fs::read_to_string(&manifest_path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let mut kept: Vec<String> = Vec::new();
    let mut stripped = 0;
    for (i, line) in lines.iter().enumerate() {
        if line.trim_start().starts_with("\"mtime\"") {
            stripped += 1;
            let closes_object = lines
                .get(i + 1)
                .is_some_and(|l| l.trim_start().starts_with('}'));
            if closes_object {
                if let Some(prev) = kept.last_mut() {
                    if let Some(s) = prev.strip_suffix(',') {
                        *prev = s.to_string();
                    }
                }
            }
            continue;
        }
        kept.push((*line).to_string());
    }
    assert_eq!(stripped, 1, "the saved manifest carries one mtime");
    fs::write(&manifest_path, kept.join("\n")).unwrap();

    let mut cache = ResultCache::open(&scratch.0).unwrap();
    assert_eq!(cache.entries()[0].mtime, 0, "missing mtime reads as 0");
    // Age 0 = maximally idle: any age budget evicts it.
    let report = cache.gc_budget(None, Some(86_400)).unwrap();
    assert_eq!(report.dropped, 1);
    assert!(cache.is_empty());

    // A hit stamps a real mtime, rescuing the entry from future sweeps.
    cache.insert(&j, &synthetic_output(&j)).unwrap();
    assert!(cache.lookup(&j).is_some());
    assert!(cache.entries()[0].mtime > 0);
    let report = cache.gc_budget(None, Some(86_400)).unwrap();
    assert_eq!((report.kept, report.dropped), (1, 0));
}

#[test]
fn save_does_not_resurrect_an_entry_evicted_by_a_concurrent_handle() {
    let scratch = ScratchDir::new("race");
    let j = job(9, Some(DIGEST));
    let output = synthetic_output(&j);
    {
        let mut writer = ResultCache::open(&scratch.0).unwrap();
        writer.insert(&j, &output).unwrap();
        writer.save().unwrap();
    }

    // Two live handles over the same directory, both indexing the entry.
    let mut evictor = ResultCache::open(&scratch.0).unwrap();
    let mut stale = ResultCache::open(&scratch.0).unwrap();
    assert_eq!(stale.entries().len(), 1);

    // The evictor hits a corrupt file and drops entry + file...
    let entry_path = scratch.0.join(&evictor.entries()[0].path);
    fs::write(&entry_path, "{ torn").unwrap();
    assert!(evictor.lookup(&j).is_none());
    evictor.save().unwrap();
    assert!(!entry_path.exists());

    // ...while the stale handle, dirtied by its own insert, still
    // indexes it. Its save must prune the evicted entry, not write it
    // back into the manifest.
    let j2 = job(10, Some(DIGEST));
    stale.insert(&j2, &synthetic_output(&j2)).unwrap();
    stale.save().unwrap();
    assert_eq!(stale.stats().evictions, 1, "prune counts the eviction");
    let mut reopened = ResultCache::open(&scratch.0).unwrap();
    assert_eq!(
        reopened.entries().len(),
        1,
        "only the fresh insert survives"
    );
    assert!(reopened.lookup(&j).is_none(), "evicted entry stays evicted");
    assert!(reopened.lookup(&j2).is_some());
}
