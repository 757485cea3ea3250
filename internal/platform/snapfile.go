package platform

import (
	"encoding/gob"
	"fmt"
	"io"
)

// SnapshotVersion is the on-disk snapshot format version. Bump it whenever
// Snapshot (or any state struct it embeds) changes incompatibly; decoding
// rejects mismatched versions instead of silently misinterpreting state.
//
// Version history:
//
//	1 — initial format (PR 4)
//	2 — power.Arch became a sync-architecture descriptor struct and
//	    core.SyncState gained group/event/timeout state, changing the gob
//	    shape of both. Later dropped the instruction tracer's status
//	    cursors, the idle engine's odometers and the idle-cycle flag
//	    (LastCycleIdle) without a bump: gob skips the fields in older
//	    streams.
const SnapshotVersion = 2

// snapshotMagic guards against feeding an arbitrary gob stream into the
// platform decoder.
const snapshotMagic = "wbsn-platform-snapshot"

// SnapshotFile couples a snapshot with caller-owned metadata for on-disk
// checkpoints. The platform cannot verify that a snapshot matches the image
// and input traces it is restored under; Meta is where callers record that
// identity (application, architecture, signal configuration, seed, ...) and
// check it before Restore.
type SnapshotFile struct {
	Meta map[string]string
	Snap *Snapshot
}

// snapshotEnvelope is the versioned on-disk frame.
type snapshotEnvelope struct {
	Magic   string
	Version int
	File    SnapshotFile
}

// WriteSnapshotFile encodes the snapshot and its metadata to w in the
// versioned gob format.
func WriteSnapshotFile(w io.Writer, f *SnapshotFile) error {
	if f == nil || f.Snap == nil {
		return fmt.Errorf("platform: nil snapshot")
	}
	return gob.NewEncoder(w).Encode(snapshotEnvelope{
		Magic:   snapshotMagic,
		Version: SnapshotVersion,
		File:    *f,
	})
}

// ReadSnapshotFile decodes a snapshot written by WriteSnapshotFile,
// rejecting foreign streams and incompatible format versions.
func ReadSnapshotFile(r io.Reader) (*SnapshotFile, error) {
	var env snapshotEnvelope
	if err := gob.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("platform: decoding snapshot: %w", err)
	}
	if env.Magic != snapshotMagic {
		return nil, fmt.Errorf("platform: not a platform snapshot file")
	}
	if env.Version != SnapshotVersion {
		return nil, fmt.Errorf("platform: snapshot format version %d, this build reads %d", env.Version, SnapshotVersion)
	}
	if env.File.Snap == nil {
		return nil, fmt.Errorf("platform: snapshot file carries no state")
	}
	return &env.File, nil
}
