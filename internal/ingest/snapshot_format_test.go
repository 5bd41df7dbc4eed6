package ingest

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestLegacyGobSnapshotRejected: a store directory whose manifest
// predates the dsnap format (no format field, snap-<seq>.gob payload) must
// fail Open with an error naming the legacy format — not bootstrap or
// serve an empty index, and not delete the operator's gob file.
func TestLegacyGobSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	snapName := fmt.Sprintf("snap-%016d.gob", 0)
	snapPath := filepath.Join(dir, snapName)
	payload := []byte("gob-encoded index snapshot")
	if err := os.WriteFile(snapPath, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := writeManifest(dir, manifest{Snapshot: snapName, Seq: 0, Version: 0}); err != nil {
		t.Fatal(err)
	}
	// Twice: a refused Open must release the directory lock.
	for i := 0; i < 2; i++ {
		st, err := Open(dir, Options{Fsync: FsyncNever, Bootstrap: bootstrap(testSeedDatasets, testSeed)})
		if err == nil {
			st.Close()
			t.Fatal("legacy gob manifest opened")
		}
		if !strings.Contains(err.Error(), "legacy gob") || !strings.Contains(err.Error(), snapName) {
			t.Fatalf("error does not name the legacy snapshot: %v", err)
		}
	}
	if got, err := os.ReadFile(snapPath); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("legacy snapshot not left intact: %q, %v", got, err)
	}
	if dsnaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.dsnap")); len(dsnaps) != 0 {
		t.Fatalf("refused store wrote snapshots: %v", dsnaps)
	}
}

// TestUnknownManifestFormatRejected: a manifest naming a format this
// binary does not understand must fail loudly, not misparse the snapshot.
func TestUnknownManifestFormatRejected(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, Options{Fsync: FsyncNever})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	man, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	man.Format = "dsnap/999"
	if err := writeManifest(dir, *man); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("unknown snapshot format must be rejected")
	}
}

// TestMMapStoreParity runs the full mutate/compact/recover cycle with the
// index served from the mmap'd snapshot: results must match the
// heap-resident store and a from-scratch rebuild at every stage, across
// the snapshot swaps that shed the WAL-tail overlay.
func TestMMapStoreParity(t *testing.T) {
	dir := t.TempDir()
	muts := genMutations(60, 9, testSeedDatasets)
	st := openTestStore(t, dir, Options{Fsync: FsyncNever, SnapshotEvery: 16, MMap: true})
	s := st.Stats()
	if !s.MMap || s.MappedBytes == 0 {
		t.Fatalf("store not serving mmap'd after bootstrap: %+v", s)
	}
	for i := 1; i <= len(muts); i++ {
		applyToStore(t, st, muts[i-1:], 1)
		if i%20 == 0 {
			// Mid-stream checkpoint: snapshot base + live overlay must
			// equal a fresh rebuild of the surviving datasets.
			oracle := oracleIndex(applyOracle(muts, i, testSeed, testSeedDatasets))
			if got := searchFingerprint(t, st.Index()); !reflect.DeepEqual(got, searchFingerprint(t, oracle)) {
				t.Fatalf("after %d mutations: overlay results diverged from rebuild", i)
			}
		}
	}
	// Force a final compaction so the store is freshly swapped, then
	// compare against the oracle.
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	oracle := oracleIndex(applyOracle(muts, len(muts), testSeed, testSeedDatasets))
	want := searchFingerprint(t, oracle)
	if got := searchFingerprint(t, st.Index()); !reflect.DeepEqual(got, want) {
		t.Fatal("mmap-served store diverged from fresh rebuild")
	}
	if err := st.Index().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Recover mmap'd and heap-resident: identical either way.
	for _, mm := range []bool{true, false} {
		re, err := Open(dir, Options{MMap: mm})
		if err != nil {
			t.Fatalf("reopen mmap=%v: %v", mm, err)
		}
		if got := searchFingerprint(t, re.Index()); !reflect.DeepEqual(got, want) {
			t.Fatalf("mmap=%v recovery diverged", mm)
		}
		if s := re.Stats(); s.MMap != mm {
			t.Fatalf("Stats().MMap = %v, want %v", s.MMap, mm)
		}
		re.Close()
	}
}

// TestMMapCorruptSnapshotRejected: recovery from a bit-flipped committed
// snapshot must fail cleanly (the operator restores or re-bootstraps; the
// store never serves silently wrong data).
func TestMMapCorruptSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, Options{Fsync: FsyncNever})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.dsnap"))
	if len(snaps) != 1 {
		t.Fatalf("want one snapshot, got %v", snaps)
	}
	data, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x04
	if err := os.WriteFile(snaps[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mm := range []bool{true, false} {
		if _, err := Open(dir, Options{MMap: mm}); err == nil {
			t.Fatalf("mmap=%v: corrupt committed snapshot must be rejected", mm)
		}
	}
}
