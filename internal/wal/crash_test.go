package wal

// The crash-point harness: for every injection site on the append →
// fsync → checkpoint path, run a seeded workload that dies at that
// site, reopen the directory, and assert the recovered store is
// exactly a durable prefix of the workload — every acknowledged write
// present, nothing that was never issued, rows in order. This is the
// acceptance gate for the durability layer.

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func TestCrashPointHarness(t *testing.T) {
	const inserts = 12
	for _, site := range CrashPoints {
		for nth := 1; nth <= 3; nth++ {
			t.Run(fmt.Sprintf("%s/nth=%d", site, nth), func(t *testing.T) {
				dir := t.TempDir()
				m, oracle := mustOpen(t, dir, Options{Sync: SyncAlways})
				SetCrashHook(CrashAt(site, nth))
				defer SetCrashHook(nil)

				// Workload: CREATE TABLE, inserts 0..11 with a checkpoint
				// in the middle. Track what was acknowledged (Append or
				// Checkpoint returned nil) versus merely issued.
				ackedCreate := false
				acked, issued := 0, 0
				crashed := false
				do := func(rec *Record) bool {
					if err := m.Append(rec); err != nil {
						if !errors.Is(err, ErrCrashed) {
							t.Fatalf("append failed with a non-injected error: %v", err)
						}
						crashed = true
						return false
					}
					if err := oracle.fold(rec); err != nil {
						t.Fatalf("oracle apply: %v", err)
					}
					return true
				}
				ackedCreate = do(createRec())
				for i := 0; i < inserts && !crashed; i++ {
					if i == inserts/2 {
						if err := m.Checkpoint(oracle); err != nil {
							if !errors.Is(err, ErrCrashed) {
								t.Fatalf("checkpoint failed with a non-injected error: %v", err)
							}
							crashed = true
							break
						}
					}
					issued++
					if do(insertRec(int64(i))) {
						acked++
					}
				}
				if crashed {
					// A poisoned manager must refuse everything afterwards.
					if err := m.Append(insertRec(99)); err == nil {
						t.Fatal("append succeeded on a crashed manager")
					} else if !errors.As(err, new(*BrokenError)) {
						t.Fatalf("post-crash append error = %v, want BrokenError", err)
					}
				}

				// "Reboot": drop the hook, close whatever is left, recover.
				SetCrashHook(nil)
				m.Close()
				m2, dump, err := Open(dir, Options{})
				if err == nil {
					dump, err = folded(dump)
				}
				if err != nil {
					t.Fatalf("recovery after crash at %s: %v", site, err)
				}
				defer m2.Close()

				if len(dump.Tables) == 0 {
					if ackedCreate || acked > 0 {
						t.Fatalf("acked writes lost: create=%v inserts=%d but store is empty", ackedCreate, acked)
					}
					return
				}
				k := checkPrefix(t, dump, acked, issued)
				t.Logf("site %s nth %d: crashed=%v acked=%d issued=%d recovered=%d",
					site, nth, crashed, acked, issued, k)

				// The recovered manager must be fully writable again.
				if err := m2.Append(&Record{Type: RecInsert, Name: "t",
					Rows: wantRows(1)}); err != nil {
					t.Fatalf("append after recovery: %v", err)
				}
			})
		}
	}
}

// TestTornWriteInjector mangles a clean log image at seeded-random
// offsets — truncations (torn writes) and single-bit flips (media
// damage) — and asserts recovery either yields an ordered prefix of
// the original rows or refuses with a CorruptError. It must never
// panic and never fabricate a store that was not a prefix.
func TestTornWriteInjector(t *testing.T) {
	const n = 20
	src := t.TempDir()
	m, _ := mustOpen(t, src, Options{Sync: SyncAlways})
	if err := m.Append(createRec()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := m.Append(insertRec(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()
	clean, err := os.ReadFile(filepath.Join(src, logName))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))

	recover := func(t *testing.T, img []byte) (*StoreDump, error) {
		t.Helper()
		d := t.TempDir()
		if err := os.WriteFile(filepath.Join(d, logName), img, 0o644); err != nil {
			t.Fatal(err)
		}
		m2, dump, err := Open(d, Options{})
		if err != nil {
			return nil, err
		}
		m2.Close()
		return folded(dump)
	}

	t.Run("truncate", func(t *testing.T) {
		for trial := 0; trial < 64; trial++ {
			cut := rng.Intn(len(clean) + 1)
			dump, err := recover(t, clean[:cut])
			if err != nil {
				t.Fatalf("trial %d: truncation to %d bytes must recover, got %v", trial, cut, err)
			}
			if len(dump.Tables) > 0 {
				checkPrefix(t, dump, 0, n)
			}
		}
	})
	t.Run("flip", func(t *testing.T) {
		for trial := 0; trial < 128; trial++ {
			img := append([]byte(nil), clean...)
			pos := rng.Intn(len(img))
			img[pos] ^= 1 << uint(rng.Intn(8))
			dump, err := recover(t, img)
			if err != nil {
				if !IsCorrupt(err) {
					t.Fatalf("trial %d: flip at %d gave non-corrupt error %v", trial, pos, err)
				}
				continue
			}
			if len(dump.Tables) > 0 {
				checkPrefix(t, dump, 0, n)
			}
		}
	})
}
