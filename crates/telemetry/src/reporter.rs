//! Periodic snapshotting: turn a stream of "N events processed" ticks into
//! a series of registry snapshots, one every N events.

use crate::{Registry, Snapshot};
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Collects periodic [`Snapshot`]s of a [`Registry`] while a run is in
/// flight. Drive it with [`observe_events`](TelemetryReporter::observe_events)
/// from the ingest loop; call [`finish`](TelemetryReporter::finish) for a
/// final snapshot at end of stream.
///
/// A reporter over a disabled registry never snapshots, so the hot-path
/// cost stays at one integer add and compare per tick.
#[derive(Debug)]
pub struct TelemetryReporter {
    registry: Registry,
    /// Snapshot every this many observed events (0: only on `force` and
    /// `finish`).
    every_events: u64,
    started: Instant,
    events_seen: u64,
    events_at_last: u64,
    snapshots: Vec<Snapshot>,
}

impl TelemetryReporter {
    /// Create a reporter over `registry` (cloned; clones share instruments)
    /// that snapshots every `every_events` observed events (0 disables the
    /// trigger).
    pub fn new(registry: &Registry, every_events: u64) -> TelemetryReporter {
        TelemetryReporter {
            registry: registry.clone(),
            every_events,
            started: Instant::now(),
            events_seen: 0,
            events_at_last: 0,
            snapshots: Vec::new(),
        }
    }

    /// Record that `n` more events were processed; returns the snapshot if
    /// the event trigger fired.
    pub fn observe_events(&mut self, n: u64) -> Option<&Snapshot> {
        self.events_seen += n;
        if !self.registry.is_enabled() {
            return None;
        }
        if self.every_events > 0 && self.events_seen - self.events_at_last >= self.every_events {
            Some(self.take())
        } else {
            None
        }
    }

    /// Take a snapshot now, whatever the trigger says. Over a disabled
    /// registry the snapshot is empty but still numbered and counted in
    /// `snapshots()`.
    pub fn force(&mut self) -> &Snapshot {
        self.take()
    }

    /// Final snapshot at end of run, if any events were seen since the last
    /// one (or none were taken yet). Returns all collected snapshots.
    pub fn finish(mut self) -> Vec<Snapshot> {
        if self.registry.is_enabled()
            && (self.snapshots.is_empty() || self.events_seen > self.events_at_last)
        {
            self.take();
        }
        self.snapshots
    }

    /// Snapshots collected so far.
    pub fn snapshots(&self) -> &[Snapshot] {
        &self.snapshots
    }

    /// Events observed so far.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    fn take(&mut self) -> &Snapshot {
        let mut snap = self.registry.snapshot();
        snap.seq = self.snapshots.len() as u64;
        snap.at_events = self.events_seen;
        snap.wall_micros = self.started.elapsed().as_micros();
        self.events_at_last = self.events_seen;
        self.snapshots.push(snap);
        self.snapshots.last().expect("just pushed")
    }
}

/// Write snapshots as JSON-lines (one object per line) to `path`,
/// creating parent directories as needed. The write goes through a
/// temp file in the same directory followed by an atomic rename, so a
/// crashed run can never leave a truncated artifact at `path`.
pub fn write_jsonl(path: &Path, snapshots: &[Snapshot]) -> std::io::Result<()> {
    write_lines_atomic(path, snapshots.iter().map(crate::export::to_json_line))
}

/// Write `lines` to `path` (one per line, newline-terminated) via a temp
/// file in the same directory plus an atomic rename. Readers either see
/// the previous complete file or the new complete file, never a torn
/// half-write. Parent directories are created as needed; the temp file is
/// removed if anything fails before the rename.
pub fn write_lines_atomic(path: &Path, lines: impl Iterator<Item = String>) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    // Same-directory temp file so the rename cannot cross filesystems.
    // The pid suffix keeps concurrent processes from clobbering each
    // other's in-flight temp file.
    let file_name = path
        .file_name()
        .ok_or_else(|| std::io::Error::other("path has no file name"))?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(format!(".{}.tmp", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    let write_all = || -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        for line in lines {
            writeln!(f, "{line}")?;
        }
        f.flush()?;
        f.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        Ok(())
    };
    if let Err(e) = write_all() {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_fire_on_event_threshold() {
        let reg = Registry::new();
        let c = reg.counter("quill.n");
        let mut rep = TelemetryReporter::new(&reg, 100);
        for _ in 0..5 {
            c.add(30);
            rep.observe_events(30);
        }
        // 150 events crossed the threshold once (at 120), then 150→new window.
        assert_eq!(rep.snapshots().len(), 1);
        assert_eq!(rep.snapshots()[0].at_events, 120);
        let snaps = rep.finish();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[1].seq, 1);
        assert_eq!(snaps[1].at_events, 150);
        assert_eq!(snaps[1].counter("quill.n"), 150);
    }

    #[test]
    fn disabled_registry_never_snapshots() {
        let reg = Registry::disabled();
        let mut rep = TelemetryReporter::new(&reg, 1);
        for _ in 0..10 {
            assert!(rep.observe_events(5).is_none());
        }
        assert!(rep.finish().is_empty());
    }

    #[test]
    fn finish_skips_redundant_tail_snapshot() {
        let reg = Registry::new();
        let mut rep = TelemetryReporter::new(&reg, 10);
        rep.observe_events(10);
        assert_eq!(rep.snapshots().len(), 1);
        // No events since the last snapshot → finish adds nothing.
        assert_eq!(rep.finish().len(), 1);
    }

    #[test]
    fn atomic_write_replaces_whole_file_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join("quill-telemetry-atomic-test");
        let path = dir.join("out.jsonl");
        write_lines_atomic(
            &path,
            ["first".to_string(), "second".to_string()].into_iter(),
        )
        .expect("initial write");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "first\nsecond\n");
        // Overwrite: readers see either the old or the new complete file.
        write_lines_atomic(&path, ["replaced".to_string()].into_iter()).expect("rewrite");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "replaced\n");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files must not survive: {leftovers:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn jsonl_writes_one_line_per_snapshot() {
        let reg = Registry::new();
        reg.counter("quill.n").add(1);
        let mut rep = TelemetryReporter::new(&reg, 0);
        rep.force();
        reg.counter("quill.n").add(1);
        rep.force();
        let dir = std::env::temp_dir().join("quill-telemetry-test");
        let path = dir.join("snaps.jsonl");
        write_jsonl(&path, rep.snapshots()).expect("write");
        let text = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"seq\":0"));
        assert!(lines[1].contains("\"quill.n\":2"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
