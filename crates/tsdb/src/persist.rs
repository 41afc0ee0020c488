//! Durable-state codec helpers and snapshot+WAL recovery.
//!
//! The engine is in-memory (like the hot tier of Gorilla, which keeps 26
//! hours in RAM). Its one on-disk format is the checkpoint-chain
//! directory of [`crate::chain`]: a base link holding every series plus
//! per-series delta links under a CRC-guarded manifest. A standalone
//! snapshot or export is a chain holding only a base
//! ([`crate::chain::export`], [`ShardedDb::save`]). Blocks are stored as
//! their Gorilla-compressed payloads, so a base link is roughly the
//! engine's compressed in-memory footprint.
//!
//! This module holds what the chain links and the WAL share: the block
//! record encoding, the series-key display form, the tmp+rename file
//! writer, the [`SnapshotError`] type, and [`recover_sharded`], the
//! chain + WAL-tail recovery entry point.
//!
//! ## Block records (little-endian)
//!
//! ```text
//! per block: u64 count | u64 len_bits | u32 byte_len | payload bytes
//! ```
//!
//! Series keys are written in their display form `metric{k=v,...}`,
//! which is unambiguous as long as metric and tag tokens exclude the
//! structural characters `{`, `}`, `,`, `=`; saving rejects keys that
//! violate this (line-protocol ingestion can never produce them).
//!
//! ## Consistency under concurrent writers
//!
//! Saving never holds more than one series lock at a time, and each only
//! briefly: the initial flush seals memtables series-by-series, and each
//! series' blocks are then cloned under that series' read lock alone. A
//! checkpoint therefore captures a **per-series consistency point** —
//! every series is internally consistent as of the moment its blocks
//! were exported — but not a single cross-series cut: a writer racing
//! the save may land a sealed block in series B after A was exported and
//! before B is. Concretely:
//!
//! * each saved series is a prefix (in time) of that series' final
//!   contents — never torn mid-block;
//! * points accepted after a series' flush stay in its memtable and are
//!   excluded, unless they fill a block first;
//! * series created after the key listing are excluded entirely;
//! * writers are never blocked for the duration of the save and the save
//!   never deadlocks (`tests/ops_properties.rs` races writers against
//!   repeated saves to pin this down).
//!
//! Callers needing a true cross-series cut must quiesce writers first.
//!
//! Every file is staged into a sibling `*.tmp` file and renamed over its
//! target on success, so a save that fails partway (full disk, crash,
//! unsnapshotable key) never clobbers an existing good file.

use std::io::{BufWriter, Read, Write};
use std::path::Path;

use bytes::Bytes;

use crate::block::Block;
use crate::error::TsdbError;
use crate::gorilla::CompressedChunk;
use crate::sharded::{ShardedConfig, ShardedDb};
use crate::tags::SeriesKey;
use crate::wal::WalReplayReport;

pub(crate) const MAGIC: &[u8; 8] = b"ASAPTSDB";

/// Error of snapshot I/O: the storage engine, the filesystem, or a
/// chain that cannot be loaded as asked.
#[derive(Debug)]
pub enum SnapshotError {
    /// Engine-side failure (corrupt payload, bad key).
    Tsdb(TsdbError),
    /// Filesystem failure.
    Io(std::io::Error),
    /// The path is not a loadable checkpoint chain: a damaged link or
    /// manifest (strict loads only), a directory without a manifest, or
    /// a plain file where a chain directory was expected.
    Invalid(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Tsdb(e) => write!(f, "snapshot: {e}"),
            SnapshotError::Io(e) => write!(f, "snapshot io: {e}"),
            SnapshotError::Invalid(reason) => write!(f, "snapshot: {reason}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Tsdb(e) => Some(e),
            SnapshotError::Io(e) => Some(e),
            SnapshotError::Invalid(_) => None,
        }
    }
}

impl From<TsdbError> for SnapshotError {
    fn from(e: TsdbError) -> Self {
        SnapshotError::Tsdb(e)
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

pub(crate) fn corrupt(reason: &'static str) -> SnapshotError {
    SnapshotError::Tsdb(TsdbError::CorruptBlock { reason })
}

/// Writes a file through `write` into a sibling temp file, then renames
/// it over `path` — so a save that fails partway (full disk, crash,
/// unsnapshotable key discovered mid-write) never destroys a previous
/// good file at `path`.
pub(crate) fn replace_file(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<std::fs::File>) -> Result<(), SnapshotError>,
) -> Result<(), SnapshotError> {
    let mut tmp_name = path
        .file_name()
        .map(std::ffi::OsString::from)
        .unwrap_or_else(|| std::ffi::OsString::from("snapshot"));
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    let result = (|| {
        let file = std::fs::File::create(&tmp)?;
        let mut w = BufWriter::new(file);
        write(&mut w)?;
        w.flush()?;
        Ok(())
    })();
    match result {
        Ok(()) => {
            std::fs::rename(&tmp, path)?;
            Ok(())
        }
        Err(e) => {
            std::fs::remove_file(&tmp).ok();
            Err(e)
        }
    }
}

/// Rejects keys whose display form would not parse back.
pub(crate) fn validate_key(key: &SeriesKey) -> Result<(), SnapshotError> {
    let structural = |t: &str| t.contains(['{', '}', ',', '=']);
    if structural(key.metric_name())
        || key.tags().iter().any(|(k, v)| structural(k) || structural(v))
    {
        return Err(SnapshotError::Tsdb(TsdbError::InvalidParameter {
            name: "key",
            message: "series keys containing '{', '}', ',' or '=' are not snapshotable",
        }));
    }
    Ok(())
}

/// Bytes [`write_blocks`] emits for `blocks`.
pub(crate) fn encoded_len(blocks: &[Block]) -> u64 {
    blocks
        .iter()
        .map(|b| 8 + 8 + 4 + b.chunk().data.len() as u64)
        .sum()
}

/// Writes one series' block records (the payload form every link uses).
pub(crate) fn write_blocks(blocks: &[Block], w: &mut impl Write) -> std::io::Result<()> {
    for block in blocks {
        let chunk = block.chunk();
        w.write_all(&(chunk.count as u64).to_le_bytes())?;
        w.write_all(&(chunk.len_bits as u64).to_le_bytes())?;
        w.write_all(&(chunk.data.len() as u32).to_le_bytes())?;
        w.write_all(&chunk.data)?;
    }
    Ok(())
}

/// Reads `block_count` block records (the payload form every link uses).
pub(crate) fn read_blocks(r: &mut impl Read, block_count: u32) -> Result<Vec<Block>, SnapshotError> {
    // `block_count` is untrusted input: cap the pre-allocation so a
    // corrupt field yields a clean error once the payload runs out,
    // never an allocator abort.
    let mut blocks = Vec::with_capacity(block_count.min(1 << 16) as usize);
    for _ in 0..block_count {
        let count = read_u64(r)? as usize;
        let len_bits = read_u64(r)? as usize;
        let byte_len = read_u32(r)? as usize;
        if byte_len > 1 << 30 {
            return Err(corrupt("implausible block payload length"));
        }
        if len_bits > byte_len * 8 {
            return Err(corrupt("bit length exceeds payload"));
        }
        let mut payload = vec![0u8; byte_len];
        r.read_exact(&mut payload)?;
        let chunk = CompressedChunk {
            data: Bytes::from(payload),
            len_bits,
            count,
        };
        blocks.push(Block::from_chunk(chunk)?);
    }
    Ok(blocks)
}

/// Recovers a store from a checkpoint chain plus its WAL tail.
///
/// Folds the chain directory at `snapshot` if it exists (a missing path
/// just means "start empty", e.g. the first boot), then replays every
/// WAL file in `wal_dir`, skipping records the chain already covers.
/// The fold is lenient: a damaged chain degrades to its newest loadable
/// prefix ([`crate::chain::load_chain_with_report`]), because the WAL
/// tail — discarded only once a committed manifest covers it — supplies
/// the rest. Either source may be absent; together they are the
/// complete recovery set a [`crate::chain::CheckpointChain`] checkpoint
/// (or a crash at any point between its steps) leaves behind.
pub fn recover_sharded(
    snapshot: Option<&Path>,
    wal_dir: Option<&Path>,
    config: ShardedConfig,
) -> Result<(ShardedDb, WalReplayReport), SnapshotError> {
    let db = match snapshot {
        Some(dir) if dir.exists() => crate::chain::load_chain_with_report(dir, config)?.0,
        _ => ShardedDb::with_config(config),
    };
    let report = match wal_dir {
        Some(dir) => crate::wal::replay(dir, &db)?,
        None => WalReplayReport::default(),
    };
    Ok((db, report))
}

/// Checks the magic and returns the link format version.
pub(crate) fn read_header(r: &mut impl Read) -> Result<u32, SnapshotError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(corrupt("bad magic"));
    }
    read_u32(r)
}

/// Reads a length-prefixed series key in display form.
pub(crate) fn read_key(r: &mut impl Read) -> Result<SeriesKey, SnapshotError> {
    let key_len = read_u32(r)? as usize;
    if key_len > 1 << 20 {
        return Err(corrupt("implausible key length"));
    }
    let mut key_bytes = vec![0u8; key_len];
    r.read_exact(&mut key_bytes)?;
    let name = String::from_utf8(key_bytes).map_err(|_| corrupt("key is not UTF-8"))?;
    parse_series_key(&name)
}

pub(crate) fn read_u32(r: &mut impl Read) -> Result<u32, SnapshotError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

pub(crate) fn read_u64(r: &mut impl Read) -> Result<u64, SnapshotError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Parses the display form `metric{k=v,...}` back into a [`SeriesKey`].
/// Shared with [`crate::wal`], whose records carry keys in the same form.
pub(crate) fn parse_series_key(s: &str) -> Result<SeriesKey, SnapshotError> {
    let (metric, tags) = match s.split_once('{') {
        None => (s, None),
        Some((m, rest)) => {
            let inner = rest
                .strip_suffix('}')
                .ok_or_else(|| corrupt("unterminated tag set in key"))?;
            (m, Some(inner))
        }
    };
    if metric.is_empty() {
        return Err(corrupt("empty metric in key"));
    }
    let mut key = SeriesKey::metric(metric);
    if let Some(inner) = tags {
        for pair in inner.split(',') {
            let (k, v) = pair
                .split_once('=')
                .ok_or_else(|| corrupt("malformed tag in key"))?;
            if k.is_empty() || v.is_empty() {
                return Err(corrupt("empty tag key or value in key"));
            }
            key = key.with_tag(k, v);
        }
    }
    Ok(key)
}

#[cfg(test)]
mod tests {
    //! Standalone exports ([`ShardedDb::save`] / [`ShardedDb::load`]):
    //! one-base chains written and read through [`crate::chain`].

    use super::*;
    use crate::chain::load_chain_with_report;
    use crate::db::{Tsdb, TsdbConfig};
    use crate::point::DataPoint;
    use crate::query::RangeQuery;
    use crate::tags::Selector;
    use std::path::PathBuf;

    /// A fresh export path; the directory itself does not exist yet.
    fn tmp(name: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!("asap_tsdb_persist_{}", std::process::id()));
        std::fs::create_dir_all(&root).unwrap();
        let path = root.join(name);
        std::fs::remove_dir_all(&path).ok();
        std::fs::remove_file(&path).ok();
        path
    }

    fn seeded_tsdb() -> Tsdb {
        let db = Tsdb::with_config(TsdbConfig { block_capacity: 64 });
        for host in ["a", "b"] {
            let key = SeriesKey::metric("cpu").with_tag("host", host).with_tag("dc", "west");
            for i in 0..500 {
                db.write(&key, DataPoint::new(i * 3, (i as f64 * 0.1).sin()))
                    .unwrap();
            }
        }
        db.write(&SeriesKey::metric("untagged"), DataPoint::new(7, 1.5))
            .unwrap();
        db
    }

    fn seeded(shards: usize) -> ShardedDb {
        ShardedDb::from_tsdb(&seeded_tsdb(), ShardedConfig::new(shards, 64)).unwrap()
    }

    fn full() -> RangeQuery {
        RangeQuery::raw(i64::MIN + 1, i64::MAX)
    }

    fn assert_same(a: &ShardedDb, b: &ShardedDb) {
        assert_eq!(
            a.query_selector(&Selector::any(), full()).unwrap(),
            b.query_selector(&Selector::any(), full()).unwrap()
        );
    }

    /// The export's single base link.
    fn base_link(dir: &Path) -> PathBuf {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.file_name().unwrap().to_string_lossy().starts_with("base-"))
            .expect("an export holds a base link")
    }

    /// Every file of an export directory, by name.
    fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let path = e.unwrap().path();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read(&path).unwrap())
            })
            .collect();
        out.sort();
        out
    }

    /// A strict load fails, while the WAL-backed lenient fold of the same
    /// directory succeeds and reports the damage.
    fn assert_strict_err_lenient_damage(dir: &Path) {
        assert!(
            matches!(
                ShardedDb::load(dir, ShardedConfig::default()),
                Err(SnapshotError::Invalid(_))
            ),
            "strict load accepted a damaged export"
        );
        let (_, report) = load_chain_with_report(dir, ShardedConfig::default()).unwrap();
        assert!(report.damage.is_some(), "lenient fold missed the damage");
    }

    #[test]
    fn round_trip_preserves_every_point() {
        let db = seeded(1);
        let path = tmp("roundtrip");
        db.save(&path).unwrap();
        let restored = ShardedDb::load(&path, ShardedConfig::new(1, 64)).unwrap();
        assert_eq!(restored.series_count(), db.series_count());
        for key in db.list_series(&Selector::any()) {
            let a = db.query(&key, full()).unwrap();
            let b = restored.query(&key, full()).unwrap();
            assert_eq!(a, b, "series {key}");
        }
        std::fs::remove_dir_all(&path).ok();
    }

    #[test]
    fn restored_db_accepts_new_writes_in_order() {
        let db = seeded(2);
        let path = tmp("writable");
        db.save(&path).unwrap();
        let restored = ShardedDb::load(&path, ShardedConfig::new(2, 64)).unwrap();
        let key = SeriesKey::metric("cpu").with_tag("host", "a").with_tag("dc", "west");
        // The last timestamp was 499*3; earlier writes must be rejected,
        // later ones accepted.
        assert!(restored.write(&key, DataPoint::new(0, 1.0)).is_err());
        restored.write(&key, DataPoint::new(5_000, 1.0)).unwrap();
        std::fs::remove_dir_all(&path).ok();
    }

    #[test]
    fn bad_magic_and_truncation_rejected() {
        let path = tmp("garbage");
        seeded(2).save(&path).unwrap();
        let base = base_link(&path);
        let base_bytes = std::fs::read(&base).unwrap();
        let manifest = path.join("MANIFEST");
        let manifest_bytes = std::fs::read(&manifest).unwrap();

        // A base link with a bad magic.
        let mut bad = base_bytes.clone();
        bad[..8].copy_from_slice(b"NOTASNAP");
        std::fs::write(&base, &bad).unwrap();
        assert_strict_err_lenient_damage(&path);

        // A base link truncated mid-payload.
        std::fs::write(&base, &base_bytes[..base_bytes.len() / 2]).unwrap();
        assert_strict_err_lenient_damage(&path);
        std::fs::write(&base, &base_bytes).unwrap();

        // A manifest replaced by garbage.
        std::fs::write(&manifest, b"NOTASNAPSHOT").unwrap();
        assert_strict_err_lenient_damage(&path);

        // The untouched files still load.
        std::fs::write(&manifest, &manifest_bytes).unwrap();
        assert_same(&ShardedDb::load(&path, ShardedConfig::default()).unwrap(), &seeded(2));
        std::fs::remove_dir_all(&path).ok();
    }

    #[test]
    fn empty_db_round_trips() {
        let db = ShardedDb::with_config(ShardedConfig::new(1, 64));
        let path = tmp("empty");
        db.save(&path).unwrap();
        let restored = ShardedDb::load(&path, ShardedConfig::default()).unwrap();
        assert_eq!(restored.series_count(), 0);

        // Exporting the empty store over a populated export replaces it.
        seeded(2).save(&path).unwrap();
        db.save(&path).unwrap();
        let restored = ShardedDb::load(&path, ShardedConfig::default()).unwrap();
        assert_eq!(restored.series_count(), 0);
        std::fs::remove_dir_all(&path).ok();
    }

    #[test]
    fn key_display_form_parses_back() {
        for s in ["cpu", "cpu{host=a}", "m{a=1,b=2,c=3}"] {
            let key = parse_series_key(s).unwrap();
            assert_eq!(key.to_string(), s);
        }
        assert!(parse_series_key("cpu{host=a").is_err());
        assert!(parse_series_key("cpu{hosta}").is_err());
        assert!(parse_series_key("{host=a}").is_err());
        assert!(parse_series_key("cpu{=a}").is_err());
    }

    #[test]
    fn snapshot_is_compact() {
        let db = ShardedDb::with_config(ShardedConfig::new(1, 512));
        let key = SeriesKey::metric("flat");
        for i in 0..10_000 {
            db.write(&key, DataPoint::new(i * 10, 42.0)).unwrap();
        }
        let path = tmp("compact");
        db.save(&path).unwrap();
        let size: usize = files(&path).iter().map(|(_, bytes)| bytes.len()).sum();
        assert!(
            size < 16 * 10_000 / 4,
            "export {size} bytes should be far below raw 160000"
        );
        std::fs::remove_dir_all(&path).ok();
    }

    #[test]
    fn v2_round_trips_through_sharded_engines() {
        let db = seeded(4);
        let path = tmp("v2_roundtrip");
        db.save(&path).unwrap();
        // Reload at several shard counts; all must agree with the source.
        for shards in [1usize, 3, 8] {
            let restored = ShardedDb::load(&path, ShardedConfig::new(shards, 64)).unwrap();
            assert_eq!(restored.shard_count(), shards);
            assert_same(&restored, &db);
        }
        std::fs::remove_dir_all(&path).ok();
    }

    #[test]
    fn v2_bytes_are_independent_of_shard_count() {
        let a = tmp("v2_one_shard");
        let b = tmp("v2_many_shards");
        seeded(1).save(&a).unwrap();
        seeded(8).save(&b).unwrap();
        let (a_files, b_files) = (files(&a), files(&b));
        assert_eq!(
            a_files.iter().map(|(name, _)| name).collect::<Vec<_>>(),
            ["MANIFEST", "base-0000000000000001-00000000.snap"]
        );
        assert_eq!(
            a_files, b_files,
            "base link and MANIFEST bytes must not depend on the writer's shard count"
        );
        std::fs::remove_dir_all(&a).ok();
        std::fs::remove_dir_all(&b).ok();
    }

    #[test]
    fn single_file_snapshots_are_refused() {
        // A file where a chain directory belongs — here the header of a
        // retired single-file (v1) snapshot — is refused by every entry
        // point, with a message naming the format change.
        let path = tmp("old_single_file.snap");
        let mut old = Vec::new();
        old.extend_from_slice(MAGIC);
        old.extend_from_slice(&1u32.to_le_bytes());
        old.extend_from_slice(&0u32.to_le_bytes());
        std::fs::write(&path, &old).unwrap();
        match ShardedDb::load(&path, ShardedConfig::default()) {
            Err(SnapshotError::Invalid(msg)) => {
                assert!(msg.contains("checkpoint-chain directories"), "{msg}")
            }
            other => panic!("a single-file snapshot loaded: {:?}", other.map(|_| ())),
        }
        assert!(recover_sharded(Some(&path), None, ShardedConfig::default()).is_err());
        // Saving over it is refused too, and leaves the file alone.
        assert!(seeded(2).save(&path).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), old);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v2_truncation_and_bad_version_rejected() {
        let path = tmp("v2_truncated");
        seeded(3).save(&path).unwrap();
        let base = base_link(&path);
        let bytes = std::fs::read(&base).unwrap();
        let manifest = path.join("MANIFEST");
        let manifest_bytes = std::fs::read(&manifest).unwrap();

        // Truncate inside the payload section: the directory reads fine,
        // the payload read must fail cleanly.
        std::fs::write(&base, &bytes[..bytes.len() - 7]).unwrap();
        assert_strict_err_lenient_damage(&path);

        // Truncate inside the directory.
        std::fs::write(&base, &bytes[..24]).unwrap();
        assert_strict_err_lenient_damage(&path);

        // Unknown base link version.
        let mut bad = bytes.clone();
        bad[8] = 99;
        std::fs::write(&base, &bad).unwrap();
        assert_strict_err_lenient_damage(&path);
        std::fs::write(&base, &bytes).unwrap();

        // A truncated manifest, and one with an unknown version (its CRC
        // no longer matches either way).
        std::fs::write(&manifest, &manifest_bytes[..manifest_bytes.len() - 1]).unwrap();
        assert_strict_err_lenient_damage(&path);
        let mut bad = manifest_bytes.clone();
        bad[8] = 99;
        std::fs::write(&manifest, &bad).unwrap();
        assert_strict_err_lenient_damage(&path);

        // A directory without any manifest is no export at all.
        std::fs::remove_file(&manifest).unwrap();
        assert!(matches!(
            ShardedDb::load(&path, ShardedConfig::default()),
            Err(SnapshotError::Invalid(_))
        ));
        std::fs::remove_dir_all(&path).ok();
    }

    #[test]
    fn empty_sharded_db_round_trips_v2() {
        let db = ShardedDb::with_config(ShardedConfig::new(3, 64));
        let path = tmp("v2_empty");
        db.save(&path).unwrap();
        let restored = ShardedDb::load(&path, ShardedConfig::new(2, 64)).unwrap();
        assert_eq!(restored.series_count(), 0);
        std::fs::remove_dir_all(&path).ok();
    }

    #[test]
    fn structural_keys_rejected_by_both_writers() {
        let bad = SeriesKey::metric("cpu").with_tag("host", "a=b");
        // The base writer (a plain export)…
        let db = ShardedDb::with_config(ShardedConfig::new(2, 64));
        db.write(&bad, DataPoint::new(1, 1.0)).unwrap();
        let path = tmp("badkey");
        assert!(db.save(&path).is_err());

        // …and the delta writer, once a bad key appears after the base.
        let db = ShardedDb::with_config(ShardedConfig::new(2, 64));
        db.write(&SeriesKey::metric("ok"), DataPoint::new(1, 1.0)).unwrap();
        let mut chain = crate::chain::CheckpointChain::open(&path, 4).unwrap();
        chain.checkpoint(&db, None).unwrap();
        db.write(&bad, DataPoint::new(1, 1.0)).unwrap();
        assert!(chain.checkpoint(&db, None).is_err());
        assert_eq!(chain.links(), 1, "the failed delta must not be committed");
        std::fs::remove_dir_all(&path).ok();
    }

    #[test]
    fn failed_save_preserves_previous_snapshot() {
        let path = tmp("keepold");
        let good = seeded(2);
        good.save(&path).unwrap();
        let before = files(&path);

        // A later export that errors (unsnapshotable key) must leave the
        // previous good export untouched, with no stray temp file.
        let bad = ShardedDb::with_config(ShardedConfig::new(3, 64));
        bad.write(&SeriesKey::metric("aaa"), DataPoint::new(1, 1.0)).unwrap();
        bad.write(&SeriesKey::metric("cpu").with_tag("host", "a=b"), DataPoint::new(1, 1.0))
            .unwrap();
        assert!(bad.save(&path).is_err());
        assert_eq!(files(&path), before, "a failed export clobbered the old one");
        assert_same(&ShardedDb::load(&path, ShardedConfig::default()).unwrap(), &good);
        std::fs::remove_dir_all(&path).ok();
    }

    #[test]
    fn implausible_block_count_is_an_error_not_an_abort() {
        // A base link claiming one series with u32::MAX blocks and no
        // payload must surface as a clean error (the pre-allocation is
        // capped), not an allocator abort.
        let path = tmp("hugeblocks");
        seeded(1).save(&path).unwrap();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&2u32.to_le_bytes()); // version
        bytes.extend_from_slice(&1u32.to_le_bytes()); // series_count
        bytes.extend_from_slice(&3u32.to_le_bytes()); // key_len
        bytes.extend_from_slice(b"cpu");
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // block_count
        let offset = bytes.len() as u64 + 16;
        bytes.extend_from_slice(&offset.to_le_bytes()); // payload_offset
        bytes.extend_from_slice(&0u64.to_le_bytes()); // payload_len
        std::fs::write(base_link(&path), &bytes).unwrap();
        assert_strict_err_lenient_damage(&path);
        std::fs::remove_dir_all(&path).ok();
    }

    #[test]
    fn v2_payload_overrun_rejected_by_both_loaders() {
        // Shrink a directory len field so the payload read overruns the
        // declared extent: the strict load errs and the lenient fold
        // loads no link at all.
        let path = tmp("lenlie");
        seeded(2).save(&path).unwrap();
        let base = base_link(&path);
        let mut bytes = std::fs::read(&base).unwrap();
        // First directory entry: magic(8) version(4) count(4) key_len(4)
        // + key + block_count(4) + offset(8), then the 8-byte len.
        let key_len = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
        let len_pos = 20 + key_len + 4 + 8;
        let len = u64::from_le_bytes(bytes[len_pos..len_pos + 8].try_into().unwrap());
        bytes[len_pos..len_pos + 8].copy_from_slice(&(len - 1).to_le_bytes());
        std::fs::write(&base, &bytes).unwrap();
        assert_strict_err_lenient_damage(&path);
        let (folded, report) = load_chain_with_report(&path, ShardedConfig::default()).unwrap();
        assert_eq!(report.links_loaded, 0);
        assert_eq!(folded.series_count(), 0);
        std::fs::remove_dir_all(&path).ok();
    }
}
